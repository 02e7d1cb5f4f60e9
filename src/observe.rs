//! The prologue and epilogue the solver examples share: arm whatever
//! `NKT_PROF` / `NKT_CALIB` / `NKT_STATS` / `NKT_HEALTH` asked for and
//! read the run's plan from the environment, write the artifacts after.

use crate::nektar::drive::{Outcome, Plan};
use crate::{calib, ckpt, prof, stats, trace};

/// Arms every requested observer, names the run for flight-recorder
/// dumps, and returns the [`Plan`] of a `steps`-step run under `run`'s
/// artifact names: stats cadence from `NKT_STATS` / `NKT_HEALTH`,
/// checkpoint cadence and directory from `NKT_CKPT_EVERY` /
/// `NKT_CKPT_DIR`.
pub fn plan(run: &str, steps: u64) -> Plan {
    if prof::enabled() {
        prof::prepare();
    }
    if calib::enabled() {
        calib::prepare();
    }
    let every = stats::effective_every();
    if every.is_some() {
        stats::prepare();
    }
    trace::flight::set_run(run);
    Plan { steps, stats_every: every.unwrap_or(0), ckpt: ckpt::CkptConfig::from_env(run) }
}

/// Rank 0's duties once [`drive`](crate::nektar::drive::drive) returns:
/// says where the run resumed from, if it did, and writes
/// `STATS_<run>.json` when the recorder was sampling.
pub fn report(run: &str, out: &Outcome) {
    if let Some(info) = out.resumed {
        println!("resumed from checkpoint epoch {} (step {})", info.epoch, info.step);
    }
    if out.rec.every == 0 {
        return;
    }
    match out.rec.write(run) {
        Ok(path) => println!("stats: wrote {}", path.display()),
        Err(e) => eprintln!("stats: cannot write STATS_{run}.json: {e}"),
    }
}

/// After the world joined: prints and writes the `PROF_` and `CALIB_`
/// artifacts of `run`, whichever are enabled. `NKT_PROF` and `NKT_CALIB`
/// observe the same collector, which `take_collected` empties — so it is
/// drained once here and both get the snapshot. Returns the profile (if
/// profiling) for run-specific self-checks.
pub fn finish(run: &str) -> Option<prof::Profile> {
    if !prof::enabled() && !calib::enabled() {
        return None;
    }
    let threads = trace::take_collected();
    let profile = prof::enabled().then(|| {
        let p = prof::Profile::build(run, &threads);
        print!("{}", p.report());
        match p.write() {
            Ok(path) => println!("prof: wrote {}", path.display()),
            Err(e) => eprintln!("prof: cannot write PROF_{run}.json: {e}"),
        }
        p
    });
    calib::calibrate_and_write(run, &threads);
    profile
}
