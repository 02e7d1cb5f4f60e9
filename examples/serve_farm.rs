//! A multi-tenant job farm over the virtual clusters: four jobs — a
//! slab-decomposed Fourier DNS, a pencil-decomposed one, the serial
//! cylinder wake, and a high-priority ALE latecomer — submitted from a
//! JSON job file to `nkt-serve` with only **two** world slots. The ALE
//! job arrives with both slots full and outranks everyone, so the
//! scheduler evicts a running job at its next checkpoint epoch cut and
//! resumes it later.
//!
//! The demo then serves every job **solo** (its own scheduler, no
//! contention) and verifies the punchline of checkpoint-backed
//! preemption: each job's final state hash, final energy bits, and
//! `STATS_` artifact bytes from the contended farm are byte-identical
//! to its solo run. Preemption is bitwise invisible to the tenants.
//!
//! ```sh
//! cargo run --release --example serve_farm
//! # optional: NKT_SERVE_OUT=/somewhere
//! #           NKT_TRACE=spans for per-job TRACE_ artifacts, NKT_PROF=1
//! #           for TRACE_ and PROF_ (a profile is built from spans)
//! ```

use nektar_repro::serve::{parse_jobs, serve_with, JobOpts, JobReport, ServeConfig};
use nektar_repro::trace::config::RunConfig;
use std::process::ExitCode;

/// The submitted batch, in the on-disk job-file format (schema
/// `nkt-serve-jobs-1`, parsed by the in-repo JSON parser).
const JOB_FILE: &str = r#"{
  "schema": "nkt-serve-jobs-1",
  "jobs": [
    {"name": "dns_slab",   "tenant": "cfd", "solver": "fourier",  "ranks": 2,
     "grid": "2x1", "nz": 4, "net": "roadrunner_myr", "steps": 10,
     "ckpt_every": 2, "stats_every": 2},
    {"name": "dns_pencil", "tenant": "cfd", "solver": "fourier",  "ranks": 4,
     "grid": "2x2", "nz": 4, "net": "roadrunner_eth", "steps": 8,
     "ckpt_every": 2, "stats_every": 2},
    {"name": "wake",       "tenant": "lab", "solver": "serial2d", "ranks": 1,
     "net": "muses_lam", "steps": 12, "ckpt_every": 3, "stats_every": 3},
    {"name": "wing",       "tenant": "cfd", "solver": "ale",      "ranks": 2,
     "net": "t3e", "steps": 3, "priority": 5, "stats_every": 1,
     "submit_tick": 1}
  ]
}"#;

/// World slots of the contended farm: both are busy when the ALE
/// latecomer arrives, so it must evict a slot holder.
const MAX_WORLDS: usize = 2;

fn stats_bytes(r: &JobReport) -> Option<Vec<u8>> {
    std::fs::read(r.dir.join(format!("STATS_{}.json", r.name))).ok()
}

fn main() -> ExitCode {
    let cfg = RunConfig::init_from_env();
    let root =
        cfg.serve_out.clone().unwrap_or_else(|| nkt_trace::results_dir().join("serve_farm"));
    let opts =
        JobOpts { profile: cfg.prof, health: cfg.health, recv_deadline: cfg.recv_deadline };
    let jobs = parse_jobs(JOB_FILE).expect("job file parses");
    println!("=== serve_farm: {} jobs, {} world slots ===", jobs.len(), MAX_WORLDS);
    println!("root: {}\n", root.display());

    // --- The contended farm (with its scheduler timeline on disk). ---
    let farm = serve_with(
        jobs.clone(),
        &ServeConfig {
            root: root.join("farm"),
            max_worlds: MAX_WORLDS,
            events: Some("farm".into()),
        },
        opts,
    )
    .expect("farm serve");
    println!(
        "farm: {} ticks, {} preemption(s)\n",
        farm.ticks, farm.preemptions
    );
    println!(
        "  {:<11} {:<7} {:<9} {:>5} {:>8} {:>10}  state hash",
        "job", "tenant", "solver", "pree", "waited", "energy"
    );
    for r in &farm.jobs {
        let (hash, energy) = r
            .result
            .as_ref()
            .map(|x| (format!("{:016x}", x.state_hash), x.energy))
            .unwrap_or_else(|| ("<failed>".into(), f64::NAN));
        println!(
            "  {:<11} {:<7} {:<9} {:>5} {:>8} {:>10.4e}  {}",
            r.name, r.tenant, r.solver, r.preemptions, r.queue_wait_ticks, energy, hash
        );
    }

    // The scheduler's decision timeline, as `serve_report` would show it.
    let events_path = root.join("farm").join("EVENTS_farm.jsonl");
    match std::fs::read_to_string(&events_path) {
        Ok(text) => {
            println!("\nscheduler timeline ({}):", events_path.display());
            match nektar_repro::serve::render_events(&text) {
                Ok(r) => println!("{r}"),
                Err(e) => println!("  <unrenderable: {e}>"),
            }
        }
        Err(e) => println!("\n(no event timeline: {e})"),
    }

    let mut failures = 0usize;
    for r in &farm.jobs {
        if !r.finished() {
            eprintln!("FAIL: job {} did not finish: {:?}", r.name, r.error);
            failures += 1;
        }
    }
    if farm.preemptions == 0 {
        eprintln!("FAIL: the wing job should have preempted a slot holder");
        failures += 1;
    }

    // --- Solo reruns: each job alone, then byte-compare. ---
    println!("\nsolo reruns (no contention):");
    for (i, job) in jobs.iter().enumerate() {
        let solo = serve_with(
            vec![job.clone()],
            &ServeConfig { root: root.join("solo"), max_worlds: 1, events: None },
            opts,
        )
        .expect("solo serve");
        let (s, f) = (&solo.jobs[0], &farm.jobs[i]);
        let ok_hash = match (&s.result, &f.result) {
            (Some(a), Some(b)) => {
                a.state_hash == b.state_hash
                    && a.steps == b.steps
                    && a.energy.to_bits() == b.energy.to_bits()
            }
            _ => false,
        };
        let ok_stats = stats_bytes(s) == stats_bytes(f);
        let verdict = if ok_hash && ok_stats { "BYTE-IDENTICAL" } else { "MISMATCH" };
        println!(
            "  {:<11} state {} stats {}  -> {}",
            job.name,
            if ok_hash { "ok" } else { "DRIFT" },
            if ok_stats { "ok" } else { "DRIFT" },
            verdict
        );
        if !(ok_hash && ok_stats) {
            eprintln!("FAIL: farm output for {} differs from its solo run", job.name);
            failures += 1;
        }
    }

    if failures > 0 {
        eprintln!("\nserve_farm: {failures} failure(s)");
        return ExitCode::FAILURE;
    }
    println!("\nserve_farm: preemption was bitwise invisible to every tenant");
    ExitCode::SUCCESS
}
