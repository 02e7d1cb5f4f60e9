//! NekTar-F on a simulated cluster: the paper's Fourier-parallel DNS
//! (Table 2, Figures 13–14) at demo scale.
//!
//! Runs the same turbulent-wake-style problem on two modeled networks —
//! RoadRunner's Fast Ethernet and its Myrinet — and shows the network
//! idle time the Alltoall-heavy nonlinear step costs on the slower fabric
//! (rank-0 CPU vs wall on the virtual clock; the stage shares are host
//! seconds of this run, the paper's are `results/fig13_14_f_stages.txt`).
//!
//! ```sh
//! cargo run --release --example fourier_dns
//! ```
//!
//! The run is 3 steps of the pipelined transpose on a 4-rank slab; the
//! blocking transpose is a scheduling change only (`fourier`'s unit tests
//! and `pencil_equiv` hold the two to the bit, `ablation_overlap` prints
//! the wall it costs). The committed profiles, calibrations and samples of
//! this configuration, and of its 4 × 2 pencil on 8 ranks, are rows of
//! `nkt_bench::BASELINES`, which `nkt-bench <dir>` runs.
//!
//! `NKT_HEALTH=1` arms the watchdog: a NaN/Inf in the state, runaway KE
//! growth, or a divergence/CFL excursion aborts with a typed error naming
//! step/rank/field and every rank dumps its flight-recorder ring
//! (`drive_props`' `plan_health_arms_the_watchdog_on_every_rank` trips it
//! on purpose). A misspelt name or value exits 2 before any world is
//! built (README "Run configuration").

use nektar_repro::ckpt::Checkpointable;
use nektar_repro::nektar::drive::{cases, drive, DriveError};
use nektar_repro::nektar::timers::{Stage, StageClock};
use nektar_repro::net::{cluster, NetId};
use nektar_repro::observe;
use nektar_repro::trace::config::RunConfig;

type RunOutcome = (f64, StageClock, f64, f64, u64, (&'static str, (usize, usize)));

fn main() {
    let cfg = RunConfig::init_from_env();
    let (p, nsteps) = (4, 3);

    for net_id in [NetId::RoadRunnerMyr, NetId::RoadRunnerEth] {
        let net = cluster(net_id);
        let name = net.name;
        // The run name keys the checkpoints and the flight-recorder dumps.
        let run_name = format!("fourier_dns_{}", nektar_repro::prof::slug(name));
        // NKT_CKPT_EVERY=<n> enables coordinated checkpoint epochs; a
        // restart of this example resumes from the newest one. The
        // stats recorder rides in the same tandem shard, so the series
        // survives the cut bitwise.
        let plan = observe::plan(&cfg, &run_name, nsteps);
        let world = observe::world(&cfg).ranks(p).net(net);
        let out: Vec<Result<RunOutcome, DriveError>> = world.run(|c| {
            let mut solver = cases::fourier(c, 8, None)?;
            let out = drive(&mut solver, c, &plan, &mut ())?;
            if c.rank() == 0 {
                observe::say_resumed(&out);
            }
            Ok((
                solver.kinetic_energy(c),
                solver.clock.clone(),
                c.busy(),
                c.wtime(),
                solver.state_hash(),
                (solver.decomp_name(), solver.grid()),
            ))
        });
        let first = match &out[0] {
            Ok(v) => v,
            Err(e) => {
                // Typed abort: the watchdog names step/rank/field; each
                // rank has already dumped FLIGHT_<run>_r<rank>.json.
                println!("{e}");
                std::process::exit(1);
            }
        };
        let (energy, clock, busy, wall, hash, (decomp, (pr, pc))) = first;
        println!("== {name}: {p} ranks, {decomp} decomposition ({pr}x{pc} grid) ==");
        println!("   kinetic energy after {nsteps} steps: {energy:.5}");
        println!("   rank-0 CPU {busy:.4}s vs wall {wall:.4}s (difference = network idle)");
        // The fourier_dns_* rows of results/HASHES.txt hold this hash.
        println!("   rank-0 state hash: {hash:016x}");
        let pct = clock.percentages();
        println!(
            "   host share of this run: nonlinear step (Alltoall + FFTs) {:.0}%, solves {:.0}%",
            pct[Stage::NonLinear.index()],
            pct[Stage::PressureSolve.index()] + pct[Stage::ViscousSolve.index()]
        );
        println!();
    }
}
