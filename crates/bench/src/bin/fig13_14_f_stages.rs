//! Figures 13–14: NekTar-F stage breakdown (CPU and wall-clock) for the
//! 4-processor bluff-body run on NCSA, SP2-Silver, RoadRunner-ethernet
//! and RoadRunner-myrinet — model replay.

use nektar::replay::replay;
use nektar::workload::fourier_step_workload;
use nkt_bench::paper_fourier_shape;
use nkt_machine::{machine, MachineId};
use nkt_net::{cluster, NetId};

fn main() {
    let p = 4;
    let rec = fourier_step_workload(&paper_fourier_shape(p, 1, 1));
    // Paper percentages (CPU timing), stages 1-7.
    let systems: [(&str, MachineId, NetId, [f64; 7]); 4] = [
        ("NCSA (Fig 13)", MachineId::Ncsa, NetId::Ncsa, [4.0, 41.0, 4.0, 6.0, 15.0, 9.0, 22.0]),
        (
            "SP2-Silver (Fig 13)",
            MachineId::Sp2Silver,
            NetId::Sp2Silver,
            [2.0, 53.0, 5.0, 5.0, 11.0, 7.0, 17.0],
        ),
        (
            "RoadRunner eth (Fig 14)",
            MachineId::RoadRunner,
            NetId::RoadRunnerEth,
            [2.0, 69.0, 3.0, 4.0, 9.0, 8.0, 6.0],
        ),
        (
            "RoadRunner myr (Fig 14)",
            MachineId::RoadRunner,
            NetId::RoadRunnerMyr,
            [3.0, 55.0, 4.0, 5.0, 11.0, 8.0, 14.0],
        ),
    ];
    for (label, mid, nid, paper) in systems {
        let t = replay(&rec, &machine(mid), &cluster(nid), p);
        let cpu = t.cpu.percentages();
        let wall = t.wall.percentages();
        println!("\n{label}: stage share, 4-processor NekTar-F step");
        println!("{:>7} {:>12} {:>12} {:>12}", "stage", "paper cpu%", "model cpu%", "model wall%");
        for i in 0..7 {
            println!(
                "{:>7} {:>12.0} {:>12.1} {:>12.1}",
                i + 1,
                paper[i],
                cpu[i],
                wall[i]
            );
        }
    }
    println!("\npaper shape check: \"the main computational cost occurs at the");
    println!("non-linear step 2\"; on the PC clusters \"step 2 takes as much as 60%");
    println!("of the time\" — the ethernet wall share of stage 2 must be largest.");
}
