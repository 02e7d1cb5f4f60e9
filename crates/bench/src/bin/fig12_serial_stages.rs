//! Figure 12: percentage of each of the 7 stages within a serial time
//! step, for the SGI Onyx2 and the Pentium II — model replay of the
//! solver's recorded op stream at paper scale, the step Table 1 replays
//! (`nkt_bench::paper_serial_step`).

use nektar::replay::replay_serial;
use nkt_bench::paper_serial_step;
use nkt_machine::{machine, MachineId};

fn main() {
    let rec = paper_serial_step();
    // Paper Figure 12 reference percentages (stages 1-7).
    let paper: [(&str, [f64; 7]); 2] = [
        ("SGI Onyx 2", [4.0, 11.0, 3.0, 9.0, 30.0, 12.0, 31.0]),
        ("Pentium PII, 450Mhz", [3.0, 10.0, 5.0, 8.0, 31.0, 11.0, 32.0]),
    ];
    for ((label, paper_pct), id) in paper.iter().zip([MachineId::Onyx2, MachineId::Muses]) {
        let clock = replay_serial(&rec, &machine(id));
        let pct = clock.percentages();
        println!("\n{label}: stage share of one time step");
        println!("{:>7} {:>10} {:>10}", "stage", "paper %", "model %");
        for i in 0..7 {
            println!("{:>7} {:>10.0} {:>10.1}", i + 1, paper_pct[i], pct[i]);
        }
        let solves = pct[4] + pct[6];
        println!("solves (5+7): paper ~60%, model {solves:.0}%");
    }
}
