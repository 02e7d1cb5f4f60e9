//! Figures 15–16: NekTar-ALE stage breakdown grouped a (steps 1-4, 6),
//! b (pressure solve), c (Helmholtz solves) for NCSA and
//! RoadRunner-myrinet at P = 16 and P = 64 — model replay.

use nektar::replay::replay;
use nektar::workload::ale_step_workload;
use nkt_machine::{machine, MachineId};
use nkt_net::{cluster, NetId};

fn main() {
    // Paper percentages (CPU): (system, P, a, b, c).
    let cases: [(&str, MachineId, NetId, usize, [f64; 3]); 4] = [
        ("NCSA (Fig 15)", MachineId::Ncsa, NetId::Ncsa, 16, [9.0, 41.0, 50.0]),
        (
            "RoadRunner myr (Fig 15)",
            MachineId::RoadRunner,
            NetId::RoadRunnerMyr,
            16,
            [6.0, 42.0, 53.0],
        ),
        ("NCSA (Fig 16)", MachineId::Ncsa, NetId::Ncsa, 64, [8.0, 40.0, 52.0]),
        (
            "RoadRunner myr (Fig 16)",
            MachineId::RoadRunner,
            NetId::RoadRunnerMyr,
            64,
            [3.0, 42.0, 55.0],
        ),
    ];
    for (label, mid, nid, p, paper) in cases {
        let rec = ale_step_workload(&nkt_bench::table3_shape(p));
        let t = replay(&rec, &machine(mid), &cluster(nid), p);
        let (ca, cb, cc) = t.cpu.ale_group_percentages();
        let (wa, wb, wc) = t.wall.ale_group_percentages();
        println!("\n{label}, P = {p}: a/b/c stage shares");
        println!("{:>8} {:>10} {:>10} {:>10}", "group", "paper %", "cpu %", "wall %");
        println!("{:>8} {:>10.0} {:>10.1} {:>10.1}", "a", paper[0], ca, wa);
        println!("{:>8} {:>10.0} {:>10.1} {:>10.1}", "b", paper[1], cb, wb);
        println!("{:>8} {:>10.0} {:>10.1} {:>10.1}", "c", paper[2], cc, wc);
    }
    println!("\npaper shape check: \"the timings are distributed equivalently to");
    println!("the serial simulations, weighting on steps 5 and 7\" — groups b + c");
    println!("must dominate (~90%), with c (3 velocity + 1 mesh Helmholtz solves)");
    println!("slightly ahead of b.");
}
