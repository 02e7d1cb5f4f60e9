//! Figure 6: dgemm at small n (2-20) — the regime NekTar actually uses
//! ("most of the calls to dgemm() ... are for small n (10 or less)").
//! Modeled rates only: the host's own `dgemm_small` is `perfbench`'s
//! `blas.dgemm_small_gflops` row.

use nkt_bench::{header, left_panel, right_panel, row};
use nkt_machine::{machine, Kernel};

fn main() {
    for (panel, ids) in [("left", left_panel()), ("right", right_panel())] {
        let machines: Vec<_> = ids.iter().map(|&id| machine(id)).collect();
        println!("\nFigure 6 ({panel} panel): dgemm MFlop/s at small n [modeled]");
        let mut cols = vec!["n"];
        cols.extend(machines.iter().map(|m| m.name));
        header(&cols);
        for n in 2..=20usize {
            let vals: Vec<f64> = machines
                .iter()
                .map(|m| m.kernel_rate(Kernel::Dgemm, n).mflops)
                .collect();
            row(n, &vals);
        }
    }
}
