//! One way to drive a solver: the [`Simulation`] trait over the three
//! NekTar codes and the single [`drive`] loop that owns the whole run
//! protocol — resume from the newest checkpoint epoch, baseline the
//! stats ledger, then *step → sample → cut* until the step budget is
//! spent or the [`Hook`] stops the run at a cut. [`cases`] builds the
//! demo problems the examples and `nkt-serve` share. DESIGN.md §18.
//!
//! **The cut rule.** After step `s` of a `plan.steps`-step run an epoch
//! is cut iff `s < plan.steps && plan.ckpt.should(s)`: interior
//! multiples of the cadence; the final step never cuts. A cut is the
//! bracket *fold → write_epoch (solver + recorder in one tandem shard) →
//! `hook.cut` → rebaseline*, so neither the checkpoint protocol's nor the
//! hook's communication reaches the recorder's solver-only MPI ledger.

pub mod cases;

use crate::ale::NektarAle;
use crate::fourier::NektarF;
use crate::serial2d::Serial2dSolver;
use crate::stats::{
    ale_probe, fourier_probe, serial2d_probe, Probe, ALE_CHANNELS, FOURIER_CHANNELS,
    SERIAL2D_CHANNELS,
};
use nkt_ckpt::{Checkpointable, CkptConfig, RestoreInfo, TandemMut};
use nkt_mpi::Comm;
use nkt_stats::{RuleLimits, StatsRecorder};
use std::error::Error;
use std::ops::ControlFlow;

/// Where a simulation runs: one rank of an `nkt-mpi` world (its
/// [`Comm`]) or the bare calling thread ([`Serial`]). Without a
/// communicator there is nothing to fold, baseline or broadcast over
/// and checkpoints take the collective-free `nkt_ckpt::*_serial` path,
/// so the serial solver acquires no MPI traffic from sharing the loop.
pub trait Ctx {
    /// The communicator, if there is one.
    fn comm(&mut self) -> Option<&mut Comm>;

    /// This rank (0 without a communicator).
    fn rank(&mut self) -> usize {
        // Not `c.rank()`: on a `&mut Comm` that resolves to this method.
        self.comm().map_or(0, |c| Comm::rank(c))
    }
}

impl Ctx for Comm {
    fn comm(&mut self) -> Option<&mut Comm> {
        Some(self)
    }
}

/// The [`Ctx`] of the serial 2-D solver: no communicator at all.
pub struct Serial;

impl Ctx for Serial {
    fn comm(&mut self) -> Option<&mut Comm> {
        None
    }
}

/// A solver [`drive`] can run: thin delegations to the inherent methods
/// and the probes of `crate::stats` for [`Serial2dSolver`], [`NektarF`]
/// and [`NektarAle`], which `crate::stats::sample` — the one sampling
/// protocol — calls. The step counter is [`Checkpointable::ckpt_step`].
pub trait Simulation: Checkpointable + Sized {
    /// What the solver runs on.
    type Ctx: Ctx;
    /// Stats channels [`Simulation::probe`] measures, in column order,
    /// `ke` first.
    const CHANNELS: &'static [&'static str];
    /// The state fields the watchdog's finiteness scan names, in scan
    /// order.
    const FIELDS: &'static [&'static str];

    /// Advances one time step.
    fn step(&mut self, ctx: &mut Self::Ctx);

    /// This rank's first field (an index into [`Simulation::FIELDS`])
    /// holding a NaN or an infinity.
    fn non_finite(&self) -> Option<usize>;

    /// Measures the stats channels (collective over `ctx`).
    fn probe(&mut self, ctx: &mut Self::Ctx) -> Probe;

    /// Global kinetic energy.
    fn kinetic_energy(&mut self, ctx: &mut Self::Ctx) -> f64;
}

/// Whether `values` holds a NaN or an infinity.
fn non_finite(values: &[f64]) -> bool {
    values.iter().any(|v| !v.is_finite())
}

impl Simulation for Serial2dSolver {
    type Ctx = Serial;
    const CHANNELS: &'static [&'static str] = SERIAL2D_CHANNELS;
    const FIELDS: &'static [&'static str] = &["u", "v", "p"];

    fn step(&mut self, _: &mut Serial) {
        Serial2dSolver::step(self);
    }
    fn non_finite(&self) -> Option<usize> {
        [&self.u, &self.v, &self.p].into_iter().position(|f| non_finite(f))
    }
    fn probe(&mut self, _: &mut Serial) -> Probe {
        serial2d_probe(self)
    }
    fn kinetic_energy(&mut self, _: &mut Serial) -> f64 {
        Serial2dSolver::kinetic_energy(self)
    }
}

impl Simulation for NektarF {
    type Ctx = Comm;
    const CHANNELS: &'static [&'static str] = FOURIER_CHANNELS;
    const FIELDS: &'static [&'static str] = &["u", "v", "w"];

    fn step(&mut self, c: &mut Comm) {
        NektarF::step(self, c);
    }
    /// The component of the first bad mode, modes in order.
    fn non_finite(&self) -> Option<usize> {
        let mut comps = self.fields.iter().flat_map(|comps| comps.iter().enumerate());
        comps.find(|(_, mc)| non_finite(&mc.a) || non_finite(&mc.b)).map(|(c, _)| c)
    }
    fn probe(&mut self, c: &mut Comm) -> Probe {
        fourier_probe(self, c)
    }
    fn kinetic_energy(&mut self, c: &mut Comm) -> f64 {
        NektarF::kinetic_energy(self, c)
    }
}

impl Simulation for NektarAle {
    type Ctx = Comm;
    const CHANNELS: &'static [&'static str] = ALE_CHANNELS;
    const FIELDS: &'static [&'static str] = &["u", "v", "w", "p"];

    fn step(&mut self, c: &mut Comm) {
        NektarAle::step(self, c);
    }
    fn non_finite(&self) -> Option<usize> {
        self.u.iter().chain([&self.p]).position(|f| non_finite(f))
    }
    fn probe(&mut self, c: &mut Comm) -> Probe {
        ale_probe(self, c)
    }
    fn kinetic_energy(&mut self, c: &mut Comm) -> f64 {
        NektarAle::kinetic_energy(self, c)
    }
}

/// What one [`drive`] call is asked to do.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Step budget: the run finishes once the solver has taken this many
    /// steps in total (a resumed run only takes the remainder).
    pub steps: u64,
    /// Stats sampling cadence in steps; 0 records nothing.
    pub stats_every: u64,
    /// Arms the watchdog scan and rules at every sample; a trip ends the
    /// run with the same [`nkt_stats::HealthError`] on every rank.
    pub health: bool,
    /// Checkpoint cadence and location. With a cadence set, the run
    /// first resumes from the newest valid epoch, if there is one.
    pub ckpt: CkptConfig,
}

/// The caller's seat in the loop. `()` is the hook that does nothing.
pub trait Hook<S: Simulation> {
    /// Runs after every step, before the sample. Gets the solver but no
    /// [`Ctx`]: whatever it does (print a diagnostic, inject a fault) it
    /// cannot add traffic to the recorder's solver-only MPI ledger.
    fn stepped(&mut self, _sim: &mut S, _step: u64) {}

    /// Runs inside every cut's bracket, after the epoch landed, so
    /// communication on `ctx` stays out of the ledger. `Break` leaves
    /// the loop with that epoch as the resume point — hence no solver
    /// argument: the state on disk is the state a stop leaves behind.
    /// The verdict must be the same on every rank.
    fn cut(&mut self, _ctx: &mut S::Ctx, _step: u64) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }
}

impl<S: Simulation> Hook<S> for () {}

/// What a [`drive`] call leaves behind besides the advanced solver.
#[derive(Debug)]
pub struct Outcome {
    /// The stats recorder (restored series included).
    pub rec: StatsRecorder,
    /// The epoch the run resumed from, if any.
    pub resumed: Option<RestoreInfo>,
    /// `Some(step)` when the hook stopped the run at that cut; `None`
    /// when the step budget was spent.
    pub stopped_at: Option<u64>,
}

/// Why a [`drive`] call gave up: a tripped watchdog ([`nkt_stats::HealthError`]) or
/// a failed epoch write ([`nkt_ckpt::CkptError`]). Both are collective — every
/// rank returns the same error.
pub type DriveError = Box<dyn Error + Send + Sync>;

/// Runs `sim` to `plan.steps`, or to the cut where `hook` breaks.
/// Collective over `ctx`; reads nothing but its arguments. A failed
/// restore (no epoch yet, or none that validates) starts from the
/// solver's current state.
pub fn drive<S: Simulation>(
    sim: &mut S,
    ctx: &mut S::Ctx,
    plan: &Plan,
    hook: &mut impl Hook<S>,
) -> Result<Outcome, DriveError> {
    let nranks = ctx.comm().map_or(1, |c| c.size());
    let mut rec = StatsRecorder::new(S::CHANNELS.to_vec(), plan.stats_every, nranks);
    // Solver and recorder come back from the newest valid tandem epoch.
    let resumed = plan.ckpt.enabled().then(|| {
        let mut both = TandemMut { main: sim, rider: &mut rec };
        nkt_ckpt::restore_latest_on(ctx.comm(), &plan.ckpt, &mut both).ok()
    }).flatten();
    // Baseline past all set-up/restore traffic: the recorder's ledger
    // counts solver step traffic only.
    if let Some(c) = ctx.comm() {
        rec.rebaseline(c);
    }
    let mut stopped_at = None;
    for step in (sim.ckpt_step() + 1)..=plan.steps {
        sim.step(ctx);
        hook.stepped(sim, step);
        if rec.due(step) {
            crate::stats::sample(sim, ctx, &mut rec, step, &RuleLimits::default(), plan.health)?;
        }
        if step < plan.steps && plan.ckpt.should(step as usize) {
            if let Some(c) = ctx.comm() {
                rec.fold(c);
            }
            let both = TandemMut { main: &mut *sim, rider: &mut rec };
            nkt_ckpt::write_epoch_on(ctx.comm(), &plan.ckpt, step as usize, &both)?;
            let flow = hook.cut(ctx, step);
            if let Some(c) = ctx.comm() {
                rec.rebaseline(c);
            }
            if flow.is_break() {
                stopped_at = Some(step);
                break;
            }
        }
    }
    Ok(Outcome { rec, resumed, stopped_at })
}
