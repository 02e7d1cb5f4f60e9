//! Ablation: blocking vs split-phase gather-scatter in NekTar-ALE
//! (DESIGN.md §16) — the nonblocking `GsHandle::start`/`finish` pair
//! that posts the halo exchange before the interior elemental work and
//! drains it afterwards.
//!
//! Like `ablation_overlap`, the measurement is the simulator's
//! *virtual* clock — exact and repeatable — so the printed tables are a
//! model output, committed as `results/ablation_gs_overlap.txt` and
//! held byte for byte by `scripts/check_baselines`. Two views:
//!
//! - native: a small flapping-wing ALE run at P = 4; asserts the two
//!   modes are bitwise identical (FNV state hash) and charge the same
//!   busy time, then prints both walls.
//! - replay: the Table-3 shape (15,870 elements, order 4) replayed on
//!   the NCSA and RoadRunner-myrinet models at P = 16/64 with the
//!   `CommItem::GsExchange` overlap credit on and off.

use nektar::drive::cases;
use nektar::replay::replay;
use nektar::workload::{ale_step_workload, AleShape};
use nkt_ckpt::Checkpointable;
use nkt_machine::{machine, MachineId};
use nkt_mpi::prelude::*;
use nkt_net::{cluster, NetId};

const P: usize = 4;

/// Two steps of the flapping-wing demo case at P = 4 with split-phase
/// overlap on or off;
/// returns (max wall, max busy, folded state hash) across ranks.
fn ale_times(overlap: bool) -> (f64, f64, u64) {
    let case = cases::WingCase { gs_overlap: overlap, ..cases::wing(P) };
    let out = World::builder().ranks(P).net(cluster(NetId::RoadRunnerMyr)).run(|c| {
        let mut s = case.build(c);
        s.step(c);
        s.step(c);
        (c.wtime(), c.busy(), s.state_hash())
    });
    out.iter().fold((0.0f64, 0.0f64, 0u64), |(w, b, h), t| {
        (w.max(t.0), b.max(t.1), h.rotate_left(17) ^ t.2)
    })
}

/// Table-3 replay wall at the given P with the gs overlap credit set to
/// `frac` (0.0 = blocking).
fn replay_wall(mid: MachineId, nid: NetId, p: usize, frac: f64) -> f64 {
    let shape = AleShape { overlap: [frac; 7], ..nkt_bench::table3_shape(p) };
    replay(&ale_step_workload(&shape), &machine(mid), &cluster(nid), p).wall_total()
}

fn main() {
    println!("NekTar-ALE gather-scatter ablation: blocking vs split-phase exchange [modeled]\n");

    let (wall_block, busy_block, hash_block) = ale_times(false);
    let (wall_split, busy_split, hash_split) = ale_times(true);
    assert_eq!(
        hash_block, hash_split,
        "split-phase gather-scatter must be bitwise neutral"
    );
    // Same elemental charges in both modes, accumulated at different
    // virtual times — allow ulp-level drift (cf. ablation_overlap).
    assert!(
        (busy_block - busy_split).abs() <= 1e-12 * busy_block,
        "busy must not depend on NKT_GS_OVERLAP ({busy_block} vs {busy_split})"
    );
    assert!(
        wall_split < wall_block,
        "split-phase ALE step should be faster ({wall_split} vs {wall_block})"
    );
    println!("native: flapping wing, 2 steps, np = {P}, RoadRunner myr. [virtual ms]");
    println!("state hash {hash_split:016x} in both modes");
    println!("{:>16} {:>16} {:>16} {:>8}", "blocking", "split", "busy", "hidden");
    println!("{}", "-".repeat(59));
    println!(
        "{:>16.6} {:>16.6} {:>16.6} {:>7.2}%",
        wall_block * 1e3,
        wall_split * 1e3,
        busy_block * 1e3,
        100.0 * (wall_block - wall_split) / (wall_block - busy_block)
    );

    println!("\nreplay: Table 3 shape (15,870 elements, order 4) [virtual s per step]");
    println!("{:>8} {:>5} {:>12} {:>12}", "machine", "P", "blocking", "overlap");
    println!("{}", "-".repeat(40));
    for (label, mid, nid) in [
        ("ncsa", MachineId::Ncsa, NetId::Ncsa),
        ("myr", MachineId::RoadRunner, NetId::RoadRunnerMyr),
    ] {
        for p in [16usize, 64] {
            let frac = (1.0 - 6.0 / ((15_870 / p) as f64).cbrt()).max(0.0);
            let blocking = replay_wall(mid, nid, p, 0.0);
            let overlap = replay_wall(mid, nid, p, frac);
            assert!(
                overlap < blocking,
                "table3/{label}/p{p}: overlap credit must reduce modeled wall \
                 ({overlap} vs {blocking})"
            );
            println!("{label:>8} {p:>5} {blocking:>12.4} {overlap:>12.4}");
        }
    }
}
