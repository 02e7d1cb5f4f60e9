//! `ale_wing`: NekTar-ALE (paper Table 3 / Figures 15–16), gated on one
//! rank.
//!
//! Iterative instead of direct solves: ≈880 PCG iterations per step over
//! matrix-free elemental operators; set-up is small. On two ranks every
//! iteration adds a tiny `nkt-gs` exchange and three one-double
//! allreduces, which makes the step latency-bound: more than half of it
//! is then spent waiting for a thread wake-up on the other vCPU, and on
//! a shared host that wait moves by 10–20 % between runs of identical
//! code (the driver refused the benchmark for it). So the timed rounds
//! run on one rank, and `--trace 1` reports the two-rank run beside it
//! (`drive.p2_step_ms`, `mpi.msgs_per_step`, `mpi.host_share`).
//!
//! PCG iteration counts differ per step but the time per iteration does
//! not (219–225 µs over the window), so the iterations are the step's
//! units of work for the estimator.

use crate::report::Outcome;
use crate::solver::{run_case, Case, Plan, Reference, StepNote};
use nektar_repro::ckpt::Checkpointable;
use nektar_repro::mesh::{wing_box_mesh, Mesh3d};
use nektar_repro::mpi::Comm;
use nektar_repro::nektar::ale::{AleConfig, NektarAle};
use nektar_repro::partition::{partition_kway, Graph, PartitionOptions};

/// The `flapping_wing_ale` example's problem with a seeded inflow
/// amplitude and motion phase.
pub struct AleWing {
    /// Rank threads (1; 2 for the latency-bound comparison run).
    pub ranks: usize,
    seed: u64,
    mesh: Mesh3d,
    part: Vec<u8>,
    inflow: f64,
    motion_phase: f64,
}

/// The example's configuration.
pub fn config() -> AleConfig {
    AleConfig {
        order: 2,
        dt: 2e-3,
        nu: 1e-3,
        scheme_order: 2,
        advect: true,
        motion_amp: 0.05,
        motion_omega: std::f64::consts::TAU,
        pcg_tol: 1e-6,
        pcg_max_iter: 2000,
    }
}

/// `wing_box_mesh(1)` and its k-way partition over `ranks`.
pub fn mesh_and_partition(ranks: usize) -> (Mesh3d, Vec<u8>) {
    let mesh = wing_box_mesh(1);
    let dual = Graph::from_edges(mesh.nelems(), &mesh.dual_edges());
    let part = if ranks == 1 {
        vec![0; mesh.nelems()]
    } else {
        partition_kway(&dual, ranks, &PartitionOptions::default())
    };
    (mesh, part)
}

impl AleWing {
    /// Inputs for `seed`.
    pub fn from_seed(seed: u64, ranks: usize) -> AleWing {
        let mut rng = nkt_testkit::Rng::new(seed);
        let (mesh, part) = mesh_and_partition(ranks);
        AleWing {
            ranks,
            seed,
            mesh,
            part,
            inflow: rng.range_f64(0.99, 1.01),
            motion_phase: rng.range_f64(0.0, 0.05),
        }
    }
}

impl Case for AleWing {
    type Sim = NektarAle;

    fn ranks(&self) -> usize {
        self.ranks
    }

    /// Strong scaling: the same mesh under `partition_kway`.
    fn two_ranks(&self) -> Option<AleWing> {
        Some(AleWing::from_seed(self.seed, 2))
    }

    fn build(&self, c: &mut Comm) -> NektarAle {
        let cfg = config();
        let omega = cfg.motion_omega;
        let mut solver = NektarAle::new(c, self.mesh.clone(), &self.part, cfg);
        let u0 = self.inflow;
        solver.set_initial(c, move |_| [u0, 0.0, 0.0]);
        // The wing starts its stroke `motion_phase` radians in.
        solver.time = self.motion_phase / omega;
        solver
    }

    fn step(&self, sim: &mut NektarAle, c: &mut Comm) -> StepNote {
        // The returned StageClock mixes virtual seconds into NonLinear.
        sim.step(c);
        let (p, v, m) = sim.last_iters;
        StepNote {
            work: (p + v + m) as f64,
            stage_s: None,
        }
    }

    fn energy(&self, sim: &mut NektarAle, c: &mut Comm) -> f64 {
        sim.kinetic_energy(c)
    }

    fn state_hash(&self, sim: &NektarAle) -> u64 {
        sim.state_hash()
    }

    /// Fluid volume plus what the moving wing has displaced: the mesh
    /// planes move in x by `disp(t)` times a shape that is 5/6 at the
    /// wing's leading face (x = 2.5) and 1 at its trailing face
    /// (x = 3.75), so the 2.5 x 2.5 hole widens by `disp / 6`.
    fn conserved(&self, sim: &mut NektarAle, c: &mut Comm) -> Option<f64> {
        let cfg = &sim.cfg;
        // Before the first step the mesh is still undisplaced.
        let disp = if sim.steps() == 0 {
            0.0
        } else {
            cfg.motion_amp * (cfg.motion_omega * sim.time).sin()
        };
        Some(sim.total_volume(c) + 2.5 * 2.5 * disp / 6.0)
    }

    fn reference_energy(&self) -> Option<Reference> {
        // After 2 + 8 steps on one rank. The PCG solves stop at a 1e-6
        // residual, so the summation order shows: the same problem on two
        // ranks ends 3.5e-6 (relative) away.
        Some(Reference {
            energy: 3.4565811937485114e-3,
            tol: 1e-3,
            seed_tol: 8e-2,
        })
    }
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let case = AleWing::from_seed(seed, 1);
    // Set-up is cheap here, so many short rounds: twice the set-up
    // samples for the same timed steps.
    let plan = Plan::new(10, 2, 8, seconds, trace);
    let what = "NektarAle, wing_box_mesh(1), order 2, 1 rank";
    run_case(
        "ale_wing",
        what,
        &case,
        plan,
        trace,
        seed,
        |measured, metrics| {
            let n = plan.steps as f64;
            let helmholtz_us = measured.fold().row("kernel", "helmholtz").self_us;
            metrics.set("nektar.ale.helmholtz_ms", helmholtz_us / 1e3 / n);
            let iters = measured.rounds[0].work.iter().sum::<f64>() / n;
            metrics.set("nektar.ale.pcg_iters_per_step", iters);
            metrics.set(
                "nektar.ale.us_per_pcg_iter",
                measured.step_ms() * 1e3 / iters,
            );
        },
    )
}
