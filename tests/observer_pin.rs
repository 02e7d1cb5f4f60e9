//! The rendered `PROF_` and `CALIB_` documents of two in-process runs,
//! held to FNV-1a digests of their bytes, rows of the pin ledger
//! (`scripts/pins.txt`): a 2-rank NekTar-F slab and a 2-rank NekTar-ALE
//! wing with split-phase gather-scatter (so the calibration's `windows`
//! rows are not empty). The digests were recorded before the profiler and
//! the calibration became one crate; a change to the post-run analysis
//! must not move one byte of either document.
//!
//! The documents are the files `observe::finish` writes, so the pin holds
//! the analysis and its writer without naming either's API. `finish`
//! drains the whole span collector, so this file holds one test: alone in
//! its test binary, nothing else records spans into the drain.

use nektar_repro::ckpt::Fnv1a;
use nektar_repro::nektar::drive::{cases, drive};
use nektar_repro::net::{cluster, NetId};
use nektar_repro::observe;
use nektar_repro::trace::{self, config::RunConfig, TraceMode};
use nkt_testkit::assert_pin;
use std::path::Path;

/// FNV-1a over a file's bytes.
fn digest(path: &Path) -> u64 {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Fnv1a::digest(&bytes)
}

/// Runs `observe::finish` for `run` and returns the digests of the
/// `PROF_` and `CALIB_` files it wrote into `dir`, in that order.
fn finish(cfg: &RunConfig, run: &str, dir: &Path) -> [u64; 2] {
    let profile = observe::finish(cfg, run).expect("NKT_PROF asked for");
    assert_eq!(profile.run, run);
    ["PROF", "CALIB"].map(|doc| digest(&dir.join(format!("{doc}_{run}.json"))))
}

#[test]
fn prof_and_calib_documents_are_pinned() {
    let dir = std::env::temp_dir().join(format!("nkt_observer_pin_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    trace::set_thread_dir(Some(dir.clone()));
    trace::set_mode(TraceMode::Spans);
    let _ = trace::take_collected();
    let cfg = RunConfig { prof: true, calib: true, ..RunConfig::default() };

    let run = "pin_fourier_roadrunner_eth";
    let plan = observe::plan(&cfg, run, 2);
    observe::world(&cfg).ranks(2).net(cluster(NetId::RoadRunnerEth)).run(|c| {
        let mut solver = cases::fourier(c, 8, None).expect("slab");
        drive(&mut solver, c, &plan, &mut ()).expect("a healthy run");
    });
    let fourier = finish(&cfg, run, &dir);

    let run = "pin_wing_muses_lam";
    let plan = observe::plan(&cfg, run, 2);
    let case = cases::WingCase { gs_overlap: true, ..cases::wing(2) };
    observe::world(&cfg).ranks(2).net(cluster(NetId::MusesLam)).run(|c| {
        let mut solver = case.build(c);
        drive(&mut solver, c, &plan, &mut ()).expect("a healthy run");
    });
    let wing = finish(&cfg, run, &dir);

    trace::set_mode(TraceMode::Off);
    trace::set_thread_dir(None);
    let windows = std::fs::read_to_string(dir.join(format!("CALIB_{run}.json"))).unwrap();
    assert!(windows.contains("\"stage\": \"PressureSolve\""), "no measured window:\n{windows}");
    let _ = std::fs::remove_dir_all(&dir);
    assert_pin("observer_pin/fourier", &fourier);
    assert_pin("observer_pin/wing", &wing);
}
