//! NekTar-ALE flapping-wing run (paper §4.2.2, Table 3) at demo scale:
//! 3-D moving-mesh Navier–Stokes with element-based domain decomposition,
//! gather-scatter exchanges and preconditioned CG solves.
//!
//! ```sh
//! cargo run --release --example flapping_wing_ale
//! ```
//!
//! Its profile and calibration are a row of `nkt_bench::BASELINES`:
//! the profile attributes the split-phase gather-scatter exchanges as
//! first-class `gs.start` / `gs.finish` ops, and the calibration's
//! **measured** per-stage windows (`cases::wing` turns the split phase
//! on) are what the Table 3 / Figures 15–16 replays consume instead of
//! the analytic `1 − 6/V^{1/3}` estimate. `NKT_HEALTH=1` arms the NaN/Inf
//! and KE-growth watchdog rules.

use nektar_repro::ckpt::Checkpointable;
use nektar_repro::nektar::drive::{cases, drive, DriveError};
use nektar_repro::net::{cluster, NetId};
use nektar_repro::observe;
use nektar_repro::trace::config::RunConfig;

fn main() {
    // NKT_CKPT_EVERY=<n> enables coordinated checkpoint epochs; the
    // stats recorder rides in the same tandem shard.
    let cfg = RunConfig::init_from_env();
    let plan = observe::plan(&cfg, "flapping_wing_ale", 2);
    let p = 4;
    let case = cases::wing(p);
    println!(
        "flapping-wing domain 10x5x5, {} hex elements (paper: 15,870 at order 4)",
        case.mesh.nelems()
    );
    println!("METIS-substitute partition over {p} ranks: edge cut {}", case.edge_cut);

    let out = observe::world(&cfg).ranks(p).net(cluster(NetId::RoadRunnerMyr)).run(|c| {
        let mut solver = case.build(c);
        let out = drive(&mut solver, c, &plan, &mut ())?;
        if c.rank() == 0 {
            observe::say_resumed(&out);
        }
        Ok::<_, DriveError>((
            solver.kinetic_energy(c),
            solver.total_volume(c),
            solver.last_iters,
            solver.clock.ale_group_percentages(),
            solver.state_hash(),
        ))
    });
    let (energy, volume, (pit, vit, mit), (a, b, cgrp), _) = match &out[0] {
        Ok(v) => *v,
        Err(e) => {
            println!("{e}");
            std::process::exit(1);
        }
    };
    // Fold the per-rank FNV digests into one run-level state hash: the
    // flapping_wing_ale row of results/HASHES.txt holds its value.
    let state_hash = out
        .iter()
        .filter_map(|r| r.as_ref().ok().map(|v| v.4))
        .fold(0u64, |acc, h| acc.rotate_left(17) ^ h);
    println!("  state hash {state_hash:016x}");
    println!("after 2 ALE steps on modeled RoadRunner/Myrinet:");
    println!("  kinetic energy {energy:.4}, mesh volume {volume:.4} (conserved)");
    println!("  PCG iterations: pressure {pit}, velocity (3 comps) {vit}, mesh-velocity {mit}");
    println!("  host stage shares of this run (paper Figures 15-16 grouping):");
    println!("    a (steps 1-4,6)      {a:>5.1}%");
    println!("    b (pressure solve)   {b:>5.1}%");
    println!("    c (Helmholtz solves) {cgrp:>5.1}%");
}
