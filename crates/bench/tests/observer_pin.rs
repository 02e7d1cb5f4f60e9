//! The rendered `PROF_` and `CALIB_` documents of two in-process runs,
//! held to FNV-1a digests of their bytes, rows of the pin ledger
//! (`scripts/pins.txt`): a 2-rank NekTar-F slab and a 2-rank NekTar-ALE
//! wing with split-phase gather-scatter (so the calibration's `windows`
//! rows are not empty). The digests were recorded before the profiler and
//! the calibration became one crate; a change to the post-run analysis
//! must not move one byte of either document.
//!
//! The documents are what `nkt_bench::baseline::analyse` builds for every
//! baseline row, rendered as the row's files are, so the pin holds the
//! analysis and the writer through their bytes. `analyse` drains the
//! whole span collector, so this file holds one test: alone in its test
//! binary, nothing else records spans into the drain.

use nektar::drive::{cases, drive, Plan};
use nkt_bench::baseline::analyse;
use nkt_ckpt::{CkptConfig, Fnv1a};
use nkt_mpi::World;
use nkt_net::{cluster, NetId};
use nkt_testkit::assert_pin;
use nkt_trace::json::render;
use nkt_trace::{self as trace, TraceMode};

/// The rendered `PROF_` and `CALIB_` documents of the traced run that
/// just joined, in that order.
fn documents(run: &str) -> [String; 2] {
    let docs = analyse(run, true, true);
    assert_eq!(docs.iter().map(|(kind, _)| *kind).collect::<Vec<_>>(), ["PROF", "CALIB"]);
    [render(&docs[0].1), render(&docs[1].1)]
}

/// A two-step run without sampling or checkpoints.
fn two_steps(run: &str) -> Plan {
    let ckpt = CkptConfig::new(std::env::temp_dir(), run, None);
    Plan { steps: 2, stats_every: 0, health: false, ckpt }
}

#[test]
fn prof_and_calib_documents_are_pinned() {
    trace::set_mode(TraceMode::Spans);
    let _ = trace::take_collected();

    let run = "pin_fourier_roadrunner_eth";
    let plan = two_steps(run);
    World::builder().ranks(2).net(cluster(NetId::RoadRunnerEth)).run(|c| {
        let mut solver = cases::fourier(c, 8, None).expect("slab");
        drive(&mut solver, c, &plan, &mut ()).expect("a healthy run");
    });
    let fourier = documents(run);

    let run = "pin_wing_muses_lam";
    let plan = two_steps(run);
    let case = cases::WingCase { gs_overlap: true, ..cases::wing(2) };
    World::builder().ranks(2).net(cluster(NetId::MusesLam)).run(|c| {
        let mut solver = case.build(c);
        drive(&mut solver, c, &plan, &mut ()).expect("a healthy run");
    });
    let wing = documents(run);

    trace::set_mode(TraceMode::Off);
    assert!(wing[1].contains("\"stage\": \"PressureSolve\""), "no measured window:\n{}", wing[1]);
    assert_pin("observer_pin/fourier", &fourier.map(|text| Fnv1a::digest(text.as_bytes())));
    assert_pin("observer_pin/wing", &wing.map(|text| Fnv1a::digest(text.as_bytes())));
}
