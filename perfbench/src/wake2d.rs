//! `wake2d`: the serial bluff-body wake (paper Table 1 / Figure 12).
//!
//! One thread, direct banded solves: `nkt-blas` `dpbtrf`/`dpbtrs` inside
//! `nkt-spectral` are ≥95 % of both set-up and step, while `nkt-mpi`,
//! `nkt-gs` and `nkt-fft` are idle. The three lazy band factorisations
//! land in steps 1–2, which is why the warm-up steps belong to set-up.

use crate::report::Outcome;
use crate::solver::{run_case, Case, Plan, Reference, StepNote};
use nektar_repro::ckpt::Checkpointable;
use nektar_repro::mesh::bluff_body_mesh;
use nektar_repro::mpi::Comm;
use nektar_repro::nektar::serial2d::{Serial2dSolver, SolverConfig};
use nektar_repro::nektar::timers::Stage;

/// The example's configuration with a seeded perturbation of the
/// uniform initial flow.
pub struct Wake2d {
    amp: f64,
    phase: f64,
}

impl Wake2d {
    /// Inputs for `seed`.
    pub fn from_seed(seed: u64) -> Wake2d {
        let mut rng = nkt_testkit::Rng::new(seed);
        Wake2d {
            amp: rng.range_f64(0.01, 0.03),
            phase: rng.range_f64(0.0, std::f64::consts::TAU),
        }
    }

    /// The solver before any step (also the state the layer probes use).
    pub fn build_solver(&self) -> Serial2dSolver {
        let cfg = SolverConfig {
            order: 4,
            dt: 2e-3,
            nu: 0.01,
            scheme_order: 2,
            advect: true,
        };
        let mut solver = Serial2dSolver::new(
            bluff_body_mesh(1),
            cfg,
            |x| if x[0] < -14.0 { 1.0 } else { 0.0 },
            |_| 0.0,
        );
        let (a, ph) = (self.amp, self.phase);
        let k = std::f64::consts::TAU / 10.0;
        solver.set_initial(
            move |x| 1.0 + a * (k * x[1] + ph).sin(),
            move |x| a * (k * x[0] + ph).cos(),
        );
        solver
    }
}

impl Case for Wake2d {
    type Sim = Serial2dSolver;

    fn ranks(&self) -> usize {
        1
    }

    fn build(&self, _c: &mut Comm) -> Serial2dSolver {
        self.build_solver()
    }

    fn step(&self, sim: &mut Serial2dSolver, _c: &mut Comm) -> StepNote {
        let clock = sim.step();
        StepNote {
            work: 1.0,
            stage_s: Some(clock.totals),
        }
    }

    fn energy(&self, sim: &mut Serial2dSolver, _c: &mut Comm) -> f64 {
        sim.kinetic_energy()
    }

    fn state_hash(&self, sim: &Serial2dSolver) -> u64 {
        sim.state_hash()
    }

    fn reference_energy(&self) -> Option<Reference> {
        // After 3 + 100 steps.
        Some(Reference {
            energy: 7.6978406236554955,
            tol: 1e-6,
            seed_tol: 3e-2,
        })
    }
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let plan = Plan::new(5, 3, 100, seconds, trace);
    run_case(
        "wake2d",
        "Serial2dSolver, bluff_body_mesh(1), order 4, 1 thread",
        &Wake2d::from_seed(seed),
        plan,
        trace,
        seed,
        |measured, metrics| {
            // Quiet host time per stage: minimum over rounds of the window mean.
            let stage_ms = |s: Stage| {
                let per_round: Vec<f64> = measured
                    .rounds
                    .iter()
                    .map(|r| r.stage_s[s.index()] * 1e3 / plan.steps as f64)
                    .collect();
                crate::estimate::min(&per_round)
            };
            let (s5, s7) = (
                stage_ms(Stage::PressureSolve),
                stage_ms(Stage::ViscousSolve),
            );
            let all: f64 = Stage::ALL.iter().map(|&s| stage_ms(s)).sum();
            metrics.set("nektar.serial2d.stage5_ms", s5);
            metrics.set("nektar.serial2d.stage7_ms", s7);
            metrics.set("nektar.serial2d.other_ms", all - s5 - s7);
        },
    )
}
