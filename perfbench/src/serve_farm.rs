//! The `serve.*` rows: three tenants on one world slot of
//! `nkt_serve::serve`, run once by every `--trace 1` run.
//!
//! The solver layers run in *resume* mode here: every preemption writes
//! a checkpoint epoch and every resume rebuilds the solver and restores
//! it, so set-up is paid again per slice — work moved from a step into
//! set-up shows its cost in `serve.makespan_s` and `serve.resume_cost_s`.
//!
//! This was a gated workload until its numbers were measured on this
//! host: its only sample is a 12 s batch, which is always a mixture of
//! the host's fast and slow states, and identical code spread by 12–18 %
//! (README.md). So it is informational, and its correctness checks ride
//! along with every traced run.

use crate::report::{Checks, Metrics};
use nektar_repro::serve::{parse_jobs, serve, JobReport, JobSpec, ServeConfig, ServeReport};
use std::path::Path;
use std::time::Instant;

/// The batch: a low-priority serial wake that is running when a
/// high-priority Fourier DNS and then a mid-priority ALE job arrive. The
/// seed only names the jobs (and with them their directories).
fn jobs(seed: u64) -> Vec<JobSpec> {
    let tag = format!("{:06x}", nkt_testkit::Rng::new(seed).next_u64() & 0xff_ffff);
    let text = format!(
        r#"{{
  "schema": "nkt-serve-jobs-1",
  "jobs": [
    {{"name": "wake_lo_{tag}", "tenant": "lab", "solver": "serial2d", "ranks": 1,
      "net": "roadrunner_myr", "steps": 12, "ckpt_every": 3, "stats_every": 3, "priority": 0}},
    {{"name": "dns_hi_{tag}", "tenant": "cfd", "solver": "fourier", "ranks": 2, "grid": "2x1",
      "nz": 16, "net": "roadrunner_myr", "steps": 40, "ckpt_every": 10, "stats_every": 10,
      "priority": 5, "submit_tick": 1}},
    {{"name": "wing_mid_{tag}", "tenant": "cfd", "solver": "ale", "ranks": 2,
      "net": "roadrunner_myr", "steps": 4, "ckpt_every": 2, "stats_every": 2,
      "priority": 2, "submit_tick": 2}}
  ]
}}"#
    );
    parse_jobs(&text).expect("the generated job file is valid")
}

/// Preemptions the schedule above makes.
const PREEMPTIONS: u64 = 2;

fn stats_bytes(r: &JobReport) -> Option<Vec<u8>> {
    std::fs::read(r.dir.join(format!("STATS_{}.json", r.name))).ok()
}

/// Bytes of checkpoint shards on disk under `dir`.
fn ckpt_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                ckpt_bytes(&path)
            } else if e.file_name().to_string_lossy().starts_with("CKPT_") {
                e.metadata().map_or(0, |m| m.len())
            } else {
                0
            }
        })
        .sum()
}

/// Serves every job alone (the correctness oracle and the uncontended
/// wall), then the batch, under `root`; checks the farm against the solo
/// serves and records the `serve.*` rows.
pub fn probe(seed: u64, root: &Path, m: &mut Metrics, checks: &mut Checks) {
    let jobs = jobs(seed);
    let cfg = |sub: &str| ServeConfig {
        root: root.join(sub),
        max_worlds: 1,
        events: None,
    };
    let t = Instant::now();
    let solo: Vec<ServeReport> = jobs
        .iter()
        .map(|j| serve(vec![j.clone()], &cfg("solo")).expect("solo serve"))
        .collect();
    let solo_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let farm = serve(jobs, &cfg("farm")).expect("farm serve");
    let makespan_s = t.elapsed().as_secs_f64();

    for (s, f) in solo.iter().map(|r| &r.jobs[0]).zip(&farm.jobs) {
        checks.expect(f.finished(), || {
            format!("job {} did not finish: {:?}", f.name, f.error)
        });
        let same_state = match (&s.result, &f.result) {
            (Some(a), Some(b)) => {
                a.state_hash == b.state_hash
                    && a.steps == b.steps
                    && a.energy.to_bits() == b.energy.to_bits()
            }
            _ => false,
        };
        checks.expect(same_state, || {
            format!("job {}: farm state differs from its solo serve", f.name)
        });
        checks.expect(
            stats_bytes(s).is_some() && stats_bytes(s) == stats_bytes(f),
            || {
                format!(
                    "job {}: farm STATS bytes differ from its solo serve",
                    f.name
                )
            },
        );
    }
    checks.expect(farm.preemptions == PREEMPTIONS, || {
        format!(
            "farm made {} preemptions, the schedule has {PREEMPTIONS}",
            farm.preemptions
        )
    });

    m.set("serve.makespan_s", makespan_s);
    m.set("serve.solo_sum_s", solo_s);
    m.set("serve.contention_factor", makespan_s / solo_s);
    // Each preemption is one more checkpoint-restore-rebuild cycle than
    // the solo serves paid.
    m.set(
        "serve.resume_cost_s",
        (makespan_s - solo_s) / farm.preemptions.max(1) as f64,
    );
    m.set("serve.ticks", farm.ticks as f64);
    m.set("serve.preemptions", farm.preemptions as f64);
    m.set(
        "serve.ckpt_kb_written",
        ckpt_bytes(&root.join("farm")) as f64 / 1024.0,
    );
}
