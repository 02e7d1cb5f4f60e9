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
//! With `NKT_PROF=1` each network's run is additionally profiled
//! (MPI attribution, comm matrix, imbalance, critical path) and a
//! deterministic `results/PROF_fourier_dns_<net>.json` is written.
//!
//! With `NKT_CALIB=1` each run is calibrated against the machine model:
//! a measured-vs-modeled drift report plus fitted α–β / kernel-roofline
//! constants, written to a byte-deterministic
//! `results/CALIB_fourier_dns_<net>.json` that `scripts/check_baselines`
//! gates against the committed baseline.
//!
//! With `NKT_STATS=<n>` each run samples online turbulence statistics
//! (KE, dissipation, spectrum, divergence, CFL, Reynolds stresses,
//! per-rank MPI counters) every n steps and writes a byte-deterministic
//! `results/STATS_fourier_dns_<net>.json` — `scripts/check_baselines`
//! gates it against the committed baseline. `NKT_HEALTH=1` arms the watchdog:
//! a NaN/Inf in the state, runaway KE growth, or a divergence/CFL
//! excursion aborts with a typed error naming step/rank/field and every
//! rank dumps its flight-recorder ring (`drive_props`'
//! `plan_health_arms_the_watchdog_on_every_rank` trips it on purpose).
//!
//! Knobs: `NKT_RANKS=<p>` (default 4), `NKT_NZ=<nz>` (default 8), and
//! `NKT_GRID=PRxPC` to run the 2-D pencil decomposition instead of the
//! slab — e.g. `NKT_RANKS=8 NKT_GRID=4x2` runs 8 ranks where the slab
//! would need nz >= 16. Pencil runs suffix the profile/stats name with
//! the grid so slab baselines stay untouched. The run is 3 steps of the
//! pipelined transpose; the blocking one is a scheduling change only
//! (`fourier`'s unit tests and `pencil_equiv` hold the two to the bit,
//! `ablation_overlap` prints the wall it costs). A misspelt name or
//! value exits 2 before any world is built (README "Run
//! configuration").

use nektar_repro::ckpt::Checkpointable;
use nektar_repro::nektar::drive::{cases, drive, DriveError};
use nektar_repro::nektar::timers::{Stage, StageClock};
use nektar_repro::net::{cluster, NetId};
use nektar_repro::observe;
use nektar_repro::trace::config::RunConfig;

type RunOutcome = (f64, StageClock, f64, f64, u64, (&'static str, (usize, usize)));

fn main() {
    let cfg = RunConfig::init_from_env();
    let (p, nsteps) = (cfg.ranks, 3);

    for net_id in [NetId::RoadRunnerMyr, NetId::RoadRunnerEth] {
        let net = cluster(net_id);
        let name = net.name;
        // The run name keys every artifact of this configuration: the
        // profile, the STATS series, the flight-recorder dumps.
        let mut run_name = format!("fourier_dns_{}", nektar_repro::prof::slug(name));
        if let Some((pr, pc)) = cfg.grid.filter(|&(_, pc)| pc != 1) {
            run_name.push_str(&format!("_grid{pr}x{pc}"));
        }
        // NKT_CKPT_EVERY=<n> enables coordinated checkpoint epochs; a
        // restart of this example resumes from the newest one. The
        // stats recorder rides in the same tandem shard, so the series
        // survives the cut bitwise.
        let plan = observe::plan(&cfg, &run_name, nsteps);
        let world = observe::world(&cfg).ranks(p).net(net);
        let out: Vec<Result<RunOutcome, DriveError>> = world.run(|c| {
            let mut solver = cases::fourier(c, cfg.nz, cfg.grid)?;
            let out = drive(&mut solver, c, &plan, &mut ())?;
            if c.rank() == 0 {
                observe::report(&run_name, &out);
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
        // scripts/check_baselines pins the FNV state hash in
        // results/HASHES.txt.
        println!("   rank-0 state hash: {hash:016x}");
        let pct = clock.percentages();
        println!(
            "   host share of this run: nonlinear step (Alltoall + FFTs) {:.0}%, solves {:.0}%",
            pct[Stage::NonLinear.index()],
            pct[Stage::PressureSolve.index()] + pct[Stage::ViscousSolve.index()]
        );
        println!();
        if let Some(prof) = observe::finish(&cfg, &run_name) {
            // Self-check: the profile's per-stage host times must agree
            // with the solvers' own StageClock ledgers (host seconds,
            // merged over ranks) — the same 1% contract the trace smoke
            // keeps.
            let mut ledger = StageClock::new();
            for r in out.iter().flatten() {
                ledger.merge(&r.1);
            }
            let rows: Vec<(&str, f64)> =
                Stage::ALL.iter().map(|s| (s.name(), ledger.totals[s.index()])).collect();
            let err = prof.stage_ledger_check(&rows, 1e-3);
            println!("prof: stage ledger max rel err {:.4}%", 100.0 * err);
        }
    }
}
