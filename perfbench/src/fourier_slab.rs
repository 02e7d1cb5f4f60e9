//! `fourier_slab`: NekTar-F (paper Table 2 / Figures 13–14), gated on one
//! rank at nz 32.
//!
//! The only workload where `nkt-fft`, the transposes and the
//! `Decomposition::to_phys`/`to_modes` buffers matter (≈30 % of a step;
//! banded solves ≈40 %, per-mode glue the rest). Set-up is per-mode
//! assembly — 48 `HelmholtzProblem`s per rank — not factorisation.
//!
//! Ten interleaved pairs of runs on this shared host spread by 25 % on
//! two ranks at nz 64 and by 4 % on one rank at nz 32 (README.md): two
//! threads that meet in an `ialltoall` several times a step each wait
//! out the other's interference. So the timed rounds run on one rank,
//! with the 16 modes a rank of the two-rank slab owns, and `--trace 1`
//! reports that two-rank run beside it (`drive.p2_step_ms`,
//! `mpi.msgs_per_step`, `mpi.host_share`).

use crate::report::Outcome;
use crate::solver::{run_case, Case, Plan, Reference, StepNote};
use nektar_repro::ckpt::Checkpointable;
use nektar_repro::mesh::rect_quads;
use nektar_repro::mpi::Comm;
use nektar_repro::nektar::fourier::{FourierConfig, NektarF};

/// Fourier planes of the gated one-rank run.
pub const NZ: usize = 32;
/// Fourier planes of the two-rank comparison run: the same modes per
/// rank (weak scaling).
pub const P2_NZ: usize = 64;

/// The `fourier_dns` example's problem at `nz` planes with a seeded
/// spanwise perturbation (amplitude and phase).
pub struct FourierSlab {
    /// Rank threads (1; 2 for the comparison run).
    pub ranks: usize,
    /// Fourier planes.
    pub nz: usize,
    seed: u64,
    amp: f64,
    phase: f64,
}

impl FourierSlab {
    /// Inputs for `seed`.
    pub fn from_seed(seed: u64, ranks: usize, nz: usize) -> FourierSlab {
        let mut rng = nkt_testkit::Rng::new(seed);
        FourierSlab {
            ranks,
            nz,
            seed,
            amp: rng.range_f64(0.28, 0.32),
            phase: rng.range_f64(0.0, std::f64::consts::TAU),
        }
    }
}

impl Case for FourierSlab {
    type Sim = NektarF;

    fn ranks(&self) -> usize {
        self.ranks
    }

    /// Weak scaling: twice the planes on two ranks.
    fn two_ranks(&self) -> Option<FourierSlab> {
        Some(FourierSlab::from_seed(self.seed, 2, P2_NZ))
    }

    fn build(&self, c: &mut Comm) -> NektarF {
        let cfg = FourierConfig {
            order: 4,
            dt: 1e-3,
            nu: 0.02,
            nz: self.nz,
            lz: std::f64::consts::TAU,
            scheme_order: 2,
        };
        let mut solver = NektarF::new(c, &rect_quads(0.0, 1.0, 0.0, 1.0, 3, 3), cfg);
        let (a, ph) = (self.amp, self.phase);
        solver.set_initial(move |x| {
            let pi = std::f64::consts::PI;
            let (sx, cx) = (pi * x[0]).sin_cos();
            let (sy, cy) = (pi * x[1]).sin_cos();
            let span = 1.0 + a * (x[2] + ph).cos();
            [
                2.0 * pi * sx * sx * sy * cy * span,
                -2.0 * pi * sx * cx * sy * sy * span,
                0.0,
            ]
        });
        solver
    }

    fn step(&self, sim: &mut NektarF, c: &mut Comm) -> StepNote {
        // The returned StageClock mixes virtual seconds into NonLinear.
        sim.step(c);
        StepNote {
            work: 1.0,
            stage_s: None,
        }
    }

    fn energy(&self, sim: &mut NektarF, c: &mut Comm) -> f64 {
        sim.kinetic_energy(c)
    }

    fn state_hash(&self, sim: &NektarF) -> u64 {
        sim.state_hash()
    }

    fn energy_decays(&self) -> bool {
        true
    }

    fn reference_energy(&self) -> Option<Reference> {
        // After 3 + 150 steps at nz 32.
        (self.nz == NZ).then_some(Reference {
            energy: 8.80247524828251,
            tol: 1e-6,
            seed_tol: 2e-2,
        })
    }
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let case = FourierSlab::from_seed(seed, 1, NZ);
    let plan = Plan::new(8, 3, 150, seconds, trace);
    let what = format!("NektarF slab, rect_quads 3x3, order 4, nz {NZ}, 1 rank");
    run_case(
        "fourier_slab",
        &what,
        &case,
        plan,
        trace,
        seed,
        |measured, metrics| {
            let fold = measured.fold();
            let per_step_ms = |us: f64| us / 1e3 / plan.steps as f64;
            let nonlinear = fold.row("stage", "NonLinear").total_us;
            metrics.set("nektar.fourier.nonlinear_ms", per_step_ms(nonlinear));
            metrics.set(
                "nektar.fourier.fft_ms",
                per_step_ms(fold.row("kernel", "fft").self_us),
            );
            let banded = fold.row("kernel", "banded_solve").self_us;
            metrics.set("nektar.fourier.banded_ms", per_step_ms(banded));
            // Glue: solver code that is neither a kernel nor communication.
            let glue = fold.cat_self_us("stage") + fold.cat_self_us("step");
            metrics.set("nektar.fourier.glue_ms", per_step_ms(glue));
            // pressure + viscous + one ramp problem per owned mode
            let problems = 3 * (NZ / 2 / case.ranks);
            let builds: Vec<f64> = measured.rounds.iter().map(|r| r.build_s).collect();
            let per_mode_ms = crate::estimate::min(&builds) * 1e3 / problems as f64;
            metrics.set("nektar.fourier.setup_per_mode_ms", per_mode_ms);
        },
    )
}
