//! The prologue and epilogue the solver examples share: turn the
//! [`RunConfig`] that `main` parsed (`RunConfig::init_from_env()`, which
//! also armed the recording mode) into the run's [`Plan`] and world, and
//! write the artifacts `NKT_PROF` / `NKT_CALIB` / `NKT_STATS` asked for.

use crate::mpi::{World, WorldBuilder, WorldOpts};
use crate::nektar::drive::{Outcome, Plan};
use crate::trace::config::RunConfig;
use crate::{ckpt, prof, trace};

/// Names the run for flight-recorder dumps and returns the [`Plan`] of a
/// `steps`-step run under `run`'s artifact names: stats cadence and
/// watchdog from `NKT_STATS` / `NKT_HEALTH`, checkpoint cadence and
/// directory from `NKT_CKPT_EVERY` / `NKT_CKPT_DIR`.
pub fn plan(cfg: &RunConfig, run: &str, steps: u64) -> Plan {
    trace::flight::set_run(run);
    Plan {
        steps,
        stats_every: cfg.stats_every(),
        health: cfg.health,
        ckpt: ckpt::CkptConfig::new(cfg.ckpt_dir(), run, cfg.ckpt_every),
    }
}

/// A world builder under `NKT_MPI_DEADLINE_MS`.
pub fn world(cfg: &RunConfig) -> WorldBuilder {
    World::builder().opts(WorldOpts { recv_deadline: cfg.recv_deadline })
}

/// Rank 0's duties once [`drive`](crate::nektar::drive::drive) returns:
/// says where the run resumed from, if it did, and writes
/// `STATS_<run>.json` when the recorder was sampling.
pub fn report(run: &str, out: &Outcome) {
    if let Some(info) = out.resumed {
        println!("resumed from checkpoint epoch {} (step {})", info.epoch, info.step);
    }
    if out.rec.every != 0 {
        trace::json::write_artifact("STATS", run, &out.rec.document(run));
    }
}

/// After the world joined: prints and writes the `PROF_` and `CALIB_`
/// artifacts of `run`, whichever `cfg` asks for. Both are folds of one
/// analysis: the collector, which `take_collected` empties, is drained
/// once here and converted to rank timelines once. Returns the profile
/// (if profiling) for run-specific self-checks.
pub fn finish(cfg: &RunConfig, run: &str) -> Option<prof::Profile> {
    if !cfg.prof && !cfg.calib {
        return None;
    }
    let ranks = prof::from_threads(&trace::take_collected());
    let profile = cfg.prof.then(|| prof::Profile::from_ranks(run, &ranks));
    if let Some(p) = &profile {
        print!("{}", p.report());
        trace::json::write_artifact("PROF", run, &p.document());
    }
    if cfg.calib {
        let c = prof::Calibration::from_ranks(run, &ranks);
        print!("{}", c.report());
        trace::json::write_artifact("CALIB", run, &c.document());
    }
    profile
}
