//! The prologue and epilogue the solver examples share: turn the
//! [`RunConfig`] that `main` parsed (`RunConfig::init_from_env()`, which
//! also armed the recording mode) into the run's [`Plan`] and world, and
//! say where a run resumed from. The committed observer documents are
//! written by `nkt-bench`'s baseline rows, not by the examples.

use crate::mpi::{World, WorldBuilder, WorldOpts};
use crate::nektar::drive::{Outcome, Plan};
use crate::trace::config::RunConfig;
use crate::{ckpt, trace};

/// Names the run for flight-recorder dumps and returns the [`Plan`] of a
/// `steps`-step run under `run`'s checkpoint names: watchdog (and the
/// every-step sampling it needs) from `NKT_HEALTH`, checkpoint cadence
/// and directory from `NKT_CKPT_EVERY` / `NKT_CKPT_DIR`.
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

/// Rank 0's line once [`drive`](crate::nektar::drive::drive) returns:
/// where the run resumed from, if it did.
pub fn say_resumed(out: &Outcome) {
    if let Some(info) = out.resumed {
        println!("resumed from checkpoint epoch {} (step {})", info.epoch, info.step);
    }
}
