//! Bluff-body wake DNS — the paper's serial application benchmark
//! (Table 1 / Figure 12) at a laptop-friendly scale.
//!
//! Solves incompressible flow past a square-section bluff body in the
//! Figure 11 (left) domain with laminar unit inflow, and prints the
//! 7-stage timing breakdown of the steady steps (the pressure and
//! viscous matrices are factored when the solver is built; step 1 runs
//! first-order and factors its own start-up matrix, so it is left out).
//!
//! ```sh
//! cargo run --release --example cylinder_wake
//! ```
//!
//! Its sampled statistics are a row of `nkt_bench::BASELINES`
//! (`STATS_cylinder_wake.json`); `NKT_HEALTH=1` samples every step and
//! arms the watchdog rules on each sample.

use nektar_repro::nektar::drive::{cases, drive, Hook, Serial};
use nektar_repro::nektar::serial2d::Serial2dSolver;
use nektar_repro::nektar::timers::{Stage, StageClock};
use nektar_repro::observe;
use nektar_repro::trace::config::RunConfig;

/// Prints the energy and divergence every fifth step, and keeps the
/// stage clock as it stood after the start-up step.
struct Progress {
    startup: StageClock,
}

impl Hook<Serial2dSolver> for Progress {
    fn stepped(&mut self, solver: &mut Serial2dSolver, step: u64) {
        if step == 1 {
            self.startup = solver.clock.clone();
        }
        if step.is_multiple_of(5) {
            println!(
                "step {:>3}: E = {:.4}, div = {:.2e}",
                step,
                solver.kinetic_energy(),
                solver.divergence_norm()
            );
        }
    }
}

fn main() {
    // NKT_CKPT_EVERY=<n> checkpoints every n steps (NKT_CKPT_DIR sets
    // where); on startup the newest valid epoch, if any, is resumed. The
    // stats recorder rides in the same tandem shard, so the series
    // survives a restart bitwise.
    let cfg = RunConfig::init_from_env();
    let plan = observe::plan(&cfg, "cylinder_wake", 10);
    let mut solver = cases::wake(1, 4);
    println!(
        "bluff-body domain [-15,25]x[-5,5], {} elements (paper: 902; scale with refine)",
        solver.viscous.mesh.nelems()
    );
    println!("dofs per velocity component: {}", solver.ndof());

    let mut progress = Progress { startup: StageClock::new() };
    let out = match drive(&mut solver, &mut Serial, &plan, &mut progress) {
        Ok(out) => out,
        Err(e) => {
            println!("{e}");
            std::process::exit(1);
        }
    };
    observe::say_resumed(&out);

    println!("\nper-stage share of CPU time after step 1 (paper Figure 12):");
    let mut steady = solver.clock.clone();
    for (total, startup) in steady.totals.iter_mut().zip(progress.startup.totals) {
        *total -= startup;
    }
    let pct = steady.percentages();
    let labels = [
        "1 modal->quadrature transform",
        "2 nonlinear terms",
        "3 stiffly-stable weighting",
        "4 pressure RHS",
        "5 pressure solve (banded)",
        "6 viscous RHS",
        "7 Helmholtz solves (banded)",
    ];
    for (s, label) in Stage::ALL.iter().zip(labels) {
        println!("  {:<32} {:>5.1}%", label, pct[s.index()]);
    }
    let solves = pct[Stage::PressureSolve.index()] + pct[Stage::ViscousSolve.index()];
    println!(
        "\nmatrix inversions take {solves:.0}% of a steady step (paper, 902 elements \
         at order 8: \"the matrix inversions account for 60% of the total CPU time\")"
    );
}
