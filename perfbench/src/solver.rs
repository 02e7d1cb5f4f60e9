//! The round protocol shared by the three solver workloads.
//!
//! A round builds the solver from scratch (the set-up sample), runs the
//! warm-up steps that absorb lazy work, then times a fixed window of
//! steps from the same initial state, each step bracketed on rank 0 by
//! `barrier, stamp, step, barrier, stamp`. Only host `Instant`s are
//! read: never `Comm::wtime()`, and never the `StageClock` of
//! `NektarF`/`NektarAle::step()`, whose `NonLinear` slot adds virtual
//! communication seconds to host seconds.
//!
//! The gated rounds run on the single rank thread of a `World` while the
//! main thread blocks in `join`: two coupled rank threads turn this
//! host's interference into six times the run-to-run spread (README.md),
//! so the two-rank run of a problem is an ungated `--trace 1` row.

use crate::estimate;
use crate::fold::Fold;
use crate::report::{Checks, Metrics, Outcome};
use nektar_repro::mpi::prelude::*;
use nektar_repro::net::{cluster, NetId};
use nektar_repro::trace::{self, span, TraceMode};
use std::time::Instant;

/// `--seconds` the round sizes and recorded energies are calibrated for
/// (`run_seconds` in `BENCHMARK.json`).
pub const NOMINAL_SECONDS: f64 = 10.0;
/// Seed the reference energies were recorded at.
pub const DEFAULT_SEED: u64 = 1999;

/// What one `step()` reports besides the time it took.
#[derive(Debug, Clone, Copy)]
pub struct StepNote {
    /// Units of work the step did: PCG iterations where steps differ
    /// (ALE; exact), 1 where every step does the same.
    pub work: f64,
    /// Host seconds per stage (serial solver only — its `StageClock` has
    /// no virtual component).
    pub stage_s: Option<[f64; 7]>,
}

/// A solver plus the inputs generated from the seed.
pub trait Case: Sync {
    /// The per-rank solver state.
    type Sim;
    /// Rank threads (1 when gated, 2 for the comparison run).
    fn ranks(&self) -> usize;
    /// The problem on two rank threads, for the ungated `--trace 1`
    /// comparison (`None`: the solver is serial).
    fn two_ranks(&self) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }
    /// Constructor plus initial condition (collective).
    fn build(&self, c: &mut Comm) -> Self::Sim;
    /// One solver step (collective).
    fn step(&self, sim: &mut Self::Sim, c: &mut Comm) -> StepNote;
    /// Kinetic energy (collective).
    fn energy(&self, sim: &mut Self::Sim, c: &mut Comm) -> f64;
    /// This rank's state digest.
    fn state_hash(&self, sim: &Self::Sim) -> u64;
    /// A quantity the solver must conserve to 1e-10 (ALE mesh volume).
    fn conserved(&self, _sim: &mut Self::Sim, _c: &mut Comm) -> Option<f64> {
        None
    }
    /// Whether kinetic energy may only fall (unforced viscous decay).
    fn energy_decays(&self) -> bool {
        false
    }
    /// Final energy recorded at `DEFAULT_SEED` for the nominal window.
    fn reference_energy(&self) -> Option<Reference>;
}

/// A recorded final kinetic energy and how far a run may be from it.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// Energy at `DEFAULT_SEED`.
    pub energy: f64,
    /// Relative tolerance at `DEFAULT_SEED`: wide enough for a deliberate
    /// reassociation of the arithmetic, not for a wrong answer.
    pub tol: f64,
    /// Relative tolerance at any other seed, whose inputs are slightly
    /// perturbed.
    pub seed_tol: f64,
}

/// How many rounds of how many steps.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Rounds with tracing off (≥ 3 when gating: `setup_s` is a median
    /// over them).
    pub rounds: usize,
    /// Untimed steps after the build, part of `setup_s`.
    pub warmup: usize,
    /// Timed steps per round.
    pub steps: usize,
    /// The window the reference energies were recorded for.
    pub nominal: bool,
}

impl Plan {
    /// `steps_nominal` scaled by `seconds / NOMINAL_SECONDS` (at least
    /// 4). `--trace 1` runs are not gated, so they spend one of their
    /// rounds on the traced pass instead.
    pub fn new(
        rounds: usize,
        warmup: usize,
        steps_nominal: usize,
        seconds: f64,
        trace: bool,
    ) -> Plan {
        let steps = (steps_nominal as f64 * seconds / NOMINAL_SECONDS).round() as usize;
        Plan {
            rounds: if trace { 2 } else { rounds },
            warmup,
            steps: steps.max(4),
            nominal: seconds == NOMINAL_SECONDS,
        }
    }
}

/// What rank 0 saw in one round.
#[derive(Debug, Clone)]
pub struct Round {
    /// Build + initial condition + warm-up steps, seconds.
    pub setup_s: f64,
    /// Constructor + initial condition alone, seconds.
    pub build_s: f64,
    /// Wall per timed step, ms.
    pub step_ms: Vec<f64>,
    /// Kinetic energy after build, after warm-up, after the window.
    pub energy: [f64; 3],
    /// Conserved quantity after build and after the window.
    pub conserved: Option<(f64, f64)>,
    /// State digests of all ranks, folded.
    pub hash: u64,
    /// Messages rank 0 sent inside `step()` over the window.
    pub msgs: u64,
    /// Bytes rank 0 sent inside `step()` over the window.
    pub bytes: u64,
    /// `StepNote::work` per timed step.
    pub work: Vec<f64>,
    /// Summed `StepNote::stage_s`.
    pub stage_s: [f64; 7],
}

/// Runs one round of `case` on its own world.
fn run_round<C: Case>(case: &C, plan: &Plan) -> Round {
    let per_rank = World::builder()
        .ranks(case.ranks())
        .net(cluster(NetId::RoadRunnerMyr))
        .run(|c| {
            c.barrier();
            let t0 = Instant::now();
            let sp = span("perf.build", "perf");
            let mut sim = case.build(c);
            sp.end();
            let build_s = t0.elapsed().as_secs_f64();
            let e_built = case.energy(&mut sim, c);
            let q_built = case.conserved(&mut sim, c);
            c.barrier();
            let t1 = Instant::now();
            let sp = span("perf.warmup", "perf");
            for _ in 0..plan.warmup {
                case.step(&mut sim, c);
            }
            c.barrier();
            sp.end();
            let setup_s = build_s + t1.elapsed().as_secs_f64();
            let e_warm = case.energy(&mut sim, c);

            let mut round = Round {
                setup_s,
                build_s,
                step_ms: Vec::with_capacity(plan.steps),
                energy: [e_built, e_warm, f64::NAN],
                conserved: None,
                hash: 0,
                msgs: 0,
                bytes: 0,
                work: Vec::with_capacity(plan.steps),
                stage_s: [0.0; 7],
            };
            for _ in 0..plan.steps {
                c.barrier();
                let t = Instant::now();
                // Root span of the traced pass: the solver's own spans and
                // the closing barrier (the wait for the slower rank) nest
                // under it, so their self times sum to the stamped time.
                let sp = span("perf.step", "perf");
                let before = c.stats();
                let note = case.step(&mut sim, c);
                let after = c.stats();
                c.barrier();
                sp.end();
                round.step_ms.push(t.elapsed().as_secs_f64() * 1e3);
                round.msgs += after.sent_msgs - before.sent_msgs;
                round.bytes += after.sent_bytes - before.sent_bytes;
                round.work.push(note.work);
                if let Some(s) = note.stage_s {
                    for (acc, v) in round.stage_s.iter_mut().zip(s) {
                        *acc += v;
                    }
                }
            }
            round.energy[2] = case.energy(&mut sim, c);
            round.conserved = q_built.zip(case.conserved(&mut sim, c));
            round.hash = case.state_hash(&sim);
            round
        });
    let hash = per_rank
        .iter()
        .fold(0u64, |acc, r| acc.rotate_left(17) ^ r.hash);
    let mut rank0 = per_rank
        .into_iter()
        .next()
        .expect("a world has at least one rank");
    rank0.hash = hash;
    rank0
}

/// One round with the span collector on, and the fold of rank 0's
/// stream under the `perf.step` roots.
fn run_traced_round<C: Case>(case: &C, plan: &Plan) -> (Round, Fold) {
    trace::set_mode(TraceMode::Spans);
    let round = run_round(case, plan);
    trace::set_mode(TraceMode::Off);
    let events: Vec<_> = trace::take_collected()
        .into_iter()
        .filter(|t| t.rank == Some(0))
        .flat_map(|t| t.events)
        .collect();
    let fold = Fold::under_root(&events, "perf.step");
    (round, fold)
}

impl Round {
    /// Wall per unit of work of each timed step, ms.
    fn per_unit_ms(&self) -> Vec<f64> {
        self.step_ms
            .iter()
            .zip(&self.work)
            .map(|(t, w)| t / w)
            .collect()
    }
}

/// `estimate::quiet_step` over the pooled timed steps of `rounds`.
fn quiet_step_ms(rounds: &[Round]) -> f64 {
    let times: Vec<f64> = rounds.iter().flat_map(|r| r.step_ms.clone()).collect();
    let work: Vec<f64> = rounds.iter().flat_map(|r| r.work.clone()).collect();
    estimate::quiet_step(&times, &work)
}

/// The timed rounds of a workload plus, for `--trace 1`, the traced pass.
pub struct Measured {
    /// The plan that ran.
    pub plan: Plan,
    /// Untraced rounds.
    pub rounds: Vec<Round>,
    /// Traced round and the fold of rank 0's `perf.step` roots.
    pub traced: Option<(Round, Fold)>,
}

impl Measured {
    /// Quiet wall per step over every timed step of every round.
    pub fn step_ms(&self) -> f64 {
        quiet_step_ms(&self.rounds)
    }

    /// Quiet set-up: each round's set-up scaled by how slow the steps of
    /// that round were, median over rounds.
    pub fn setup_s(&self) -> f64 {
        let per_unit: Vec<Vec<f64>> = self.rounds.iter().map(Round::per_unit_ms).collect();
        let floor = estimate::min(&per_unit.concat());
        let slowdowns: Vec<f64> = per_unit
            .iter()
            .map(|r| estimate::quantile(r, 0.5) / floor)
            .collect();
        let setups: Vec<f64> = self.rounds.iter().map(|r| r.setup_s).collect();
        estimate::quiet_setup(&setups, &slowdowns)
    }

    fn round_means(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| estimate::mean(&r.step_ms))
            .collect()
    }
}

/// Runs one solver workload: the rounds, the checks, the end-to-end
/// metrics and, for `--trace 1`, the shared per-layer rows, those of the
/// two-rank run of the problem (`Case::two_ranks`) and the workload's
/// own (`own_layers`). `what` describes the problem in the report.
pub fn run_case<C: Case>(
    workload: &'static str,
    what: &str,
    case: &C,
    plan: Plan,
    trace: bool,
    seed: u64,
    own_layers: impl FnOnce(&Measured, &mut Metrics),
) -> Outcome {
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let mut notes = Vec::new();
    let measured = measure(case, plan, trace, seed, &mut checks);
    measured.end_to_end(&mut metrics, &mut notes);
    if trace {
        measured.layer_metrics(&mut metrics, &mut checks, &mut notes);
        if let Some(p2) = case.two_ranks() {
            two_rank_metrics(&p2, &plan, &mut metrics);
        }
        own_layers(&measured, &mut metrics);
    }
    Outcome {
        workload,
        shape: format!(
            "{what}; {} rounds x ({} warm-up + {} timed steps)",
            plan.rounds, plan.warmup, plan.steps
        ),
        metrics,
        checks,
        notes,
    }
}

/// Runs the plan's rounds (and the traced pass when `trace`), checking
/// what every round must agree on.
fn measure<C: Case>(case: &C, plan: Plan, trace: bool, seed: u64, checks: &mut Checks) -> Measured {
    let rounds: Vec<Round> = (0..plan.rounds).map(|_| run_round(case, &plan)).collect();
    let traced = trace.then(|| run_traced_round(case, &plan));

    let first = &rounds[0];
    for (i, r) in rounds
        .iter()
        .chain(traced.iter().map(|(r, _)| r))
        .enumerate()
    {
        if i > 0 {
            checks.expect(r.hash == first.hash, || {
                format!(
                    "round {i} state hash {:016x} differs from round 0 {:016x}",
                    r.hash, first.hash
                )
            });
        }
        checks.expect(r.energy.iter().all(|e| e.is_finite() && *e > 0.0), || {
            format!(
                "round {i} kinetic energy not finite and positive: {:?}",
                r.energy
            )
        });
        if case.energy_decays() {
            checks.expect(
                r.energy[0] >= r.energy[1] && r.energy[1] >= r.energy[2],
                || format!("round {i} kinetic energy rose: {:?}", r.energy),
            );
        }
        if let Some((q0, q1)) = r.conserved {
            checks.expect_close(&format!("round {i} conserved volume"), q1, q0, 1e-10);
        }
    }
    // The recorded energy belongs to the nominal window.
    if let (Some(r), true) = (case.reference_energy(), plan.nominal) {
        let tol = if seed == DEFAULT_SEED {
            r.tol
        } else {
            r.seed_tol
        };
        checks.expect_close("final kinetic energy", first.energy[2], r.energy, tol);
    }
    Measured {
        plan,
        rounds,
        traced,
    }
}

/// The problem on two rank threads, ungated: one round for the step
/// time and the exact message counts of rank 0, a traced one for the
/// share of the step spent inside `nkt-mpi` (mostly waiting for the peer
/// thread to wake).
fn two_rank_metrics<C: Case>(p2: &C, plan: &Plan, m: &mut Metrics) {
    let n = plan.steps as f64;
    let round = run_round(p2, plan);
    m.set("mpi.msgs_per_step", round.msgs as f64 / n);
    m.set("mpi.bytes_per_step", round.bytes as f64 / n);
    m.set("drive.p2_step_ms", quiet_step_ms(&[round]));
    let (traced, fold) = run_traced_round(p2, plan);
    let stamped_us = traced.step_ms.iter().sum::<f64>() * 1e3;
    m.set("mpi.host_share", fold.cat_self_us("mpi") / stamped_us);
}

impl Measured {
    /// The fold of the traced pass (`--trace 1` only).
    pub fn fold(&self) -> &Fold {
        &self
            .traced
            .as_ref()
            .expect("--trace 1 runs the traced pass")
            .1
    }

    /// The end-to-end timings (`peak_rss_mb` is read by `main` at exit)
    /// and a line on what the checks looked at.
    fn end_to_end(&self, m: &mut Metrics, notes: &mut Vec<String>) {
        m.set("setup_s", self.setup_s());
        m.set("step_ms", self.step_ms());
        let per_round = |v: Vec<f64>| {
            v.iter()
                .map(|x| format!("{x:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        notes.push(format!(
            "per round: setup_s [{}], mean step_ms [{}]",
            per_round(self.rounds.iter().map(|r| r.setup_s).collect()),
            per_round(self.round_means())
        ));
        let r = &self.rounds[0];
        notes.push(format!(
            "state hash {:016x}; kinetic energy built {:.9e}, warmed up {:.9e}, final {:.9e}",
            r.hash, r.energy[0], r.energy[1], r.energy[2]
        ));
    }

    /// The per-layer rows every solver workload shares: the harness's
    /// own noise gauges, exact message counts, and what the traced pass
    /// says about tracing itself.
    fn layer_metrics(&self, m: &mut Metrics, checks: &mut Checks, notes: &mut Vec<String>) {
        let pooled: Vec<f64> = self
            .rounds
            .iter()
            .flat_map(|r| r.step_ms.iter().copied())
            .collect();
        let n = self.plan.steps as f64;
        m.set("drive.samples", pooled.len() as f64);
        m.set("drive.step_ms_p50", estimate::quantile(&pooled, 0.5));
        m.set("drive.step_ms_p95", estimate::quantile(&pooled, 0.95));
        m.set(
            "drive.round_spread_pct",
            estimate::spread_pct(&self.round_means()),
        );
        let setups: Vec<f64> = self.rounds.iter().map(|r| r.setup_s).collect();
        m.set("drive.setup_spread_pct", estimate::spread_pct(&setups));

        let first = &self.rounds[0];
        checks.expect(self.rounds.iter().all(|r| r.work == first.work), || {
            "work per step (PCG iterations) differs between rounds".to_string()
        });

        let (round, fold) = self
            .traced
            .as_ref()
            .expect("--trace 1 runs the traced pass");
        let traced_ms = estimate::mean(&round.step_ms);
        let untraced_ms = estimate::quantile(&self.round_means(), 0.5);
        m.set(
            "trace.overhead_pct",
            100.0 * (traced_ms / untraced_ms - 1.0),
        );
        m.set("trace.spans_per_step", fold.span_count() as f64 / n);
        let stamped_us = traced_ms * 1e3 * n;
        // Closure: the time no span below the harness root accounts for.
        let layered_us = fold.total_self_us() - fold.row("perf", "perf.step").self_us;
        m.set(
            "nektar.untraced_share",
            (stamped_us - layered_us) / stamped_us,
        );

        notes.push(format!(
            "traced pass: {traced_ms:.4} ms/step stamped, layers sum to {:.4} ms/step, residual {:.4} ms/step",
            layered_us / 1e3 / n,
            (stamped_us - layered_us) / 1e3 / n
        ));
        for (cat, name, row) in fold.rows() {
            notes.push(format!(
                "  span {cat:>6}/{name:<16} self {:>10.4} ms/step {:>5.1}%  ({} spans/step)",
                row.self_us / 1e3 / n,
                100.0 * row.self_us / stamped_us,
                row.count as f64 / n
            ));
        }
    }
}
