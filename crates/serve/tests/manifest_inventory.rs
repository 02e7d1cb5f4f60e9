//! A manifest inventories what was written, nothing else: with a profile
//! requested and the recording mode left to `RunConfig::trace_mode`
//! (`NKT_PROF=1` alone, the invocation that used to name a `PROF_` file
//! nobody wrote), every `artifacts[].name` of every `MANIFEST_*.json`
//! exists in its job directory and the `PROF_` file is among them.
//!
//! Its own test binary: the recording mode is process-wide.

use nkt_net::NetId;
use nkt_serve::{serve_with, JobOpts, JobSpec, ServeConfig, SolverKind};
use nkt_trace::config::RunConfig;
use nkt_trace::json::{parse, Value};

fn job(name: &str, solver: SolverKind, ranks: usize) -> JobSpec {
    JobSpec {
        name: name.into(),
        tenant: "cfd".into(),
        solver,
        ranks,
        net: NetId::RoadRunnerMyr,
        steps: 4,
        priority: 0,
        ckpt_every: 2,
        stats_every: 2,
        submit_tick: 0,
    }
}

#[test]
fn every_manifest_entry_exists_and_the_profile_is_among_them() {
    let cfg = RunConfig { prof: true, ..RunConfig::default() };
    nkt_trace::init(&cfg);
    let root = std::env::temp_dir().join(format!("nkt_serve_inventory_{}", std::process::id()));
    let report = serve_with(
        vec![
            job("dns", SolverKind::Fourier { nz: 4, pr: 2, pc: 1 }, 2),
            job("wake", SolverKind::Serial2d, 1),
        ],
        &ServeConfig { root: root.clone(), max_worlds: 2, events: None },
        JobOpts { profile: cfg.prof, health: cfg.health, recv_deadline: cfg.recv_deadline },
    )
    .expect("serve");
    for r in &report.jobs {
        assert!(r.finished(), "{}: {:?}", r.name, r.error);
        let text = std::fs::read_to_string(&r.manifest).expect("manifest written");
        let doc = parse(&text).expect("manifest is JSON");
        let names: Vec<&str> = doc
            .get("artifacts")
            .and_then(Value::as_arr)
            .expect("artifacts array")
            .iter()
            .map(|a| a.get("name").and_then(Value::as_str).expect("artifact name"))
            .collect();
        for name in &names {
            assert!(r.dir.join(name).is_file(), "{}: manifest names a missing {name}", r.name);
        }
        let prof = format!("PROF_{}.json", r.name);
        assert!(names.contains(&prof.as_str()), "{}: no {prof} in {names:?}", r.name);
    }
    let _ = std::fs::remove_dir_all(&root);
}
