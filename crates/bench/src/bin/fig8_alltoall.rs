//! Figure 8: MPI_Alltoall average bandwidth for 4 and 8 processors over
//! the paper's nine configurations (modeled pairwise-exchange replay).

use nektar::opstream::CommItem;
use nektar::replay::comm_time;
use nkt_bench::{header, row};
use nkt_net::fig8_configs;

fn main() {
    for p in [4usize, 8] {
        println!("\nFigure 8 ({p} processors): Alltoall average bandwidth (MB/s) [modeled]");
        let sizes: Vec<usize> = (0..=10).map(|k| 64usize << (2 * k)).collect();
        let mut cols = vec!["bytes"];
        let configs = fig8_configs();
        cols.extend(configs.iter().map(|(l, _)| *l));
        header(&cols);
        for &bytes in &sizes {
            let vals: Vec<f64> = configs
                .iter()
                .map(|(_, net)| {
                    // The slab's transpose: a p × 1 grid, one exchange.
                    let item = CommItem::Transpose {
                        col_block_bytes: bytes,
                        row_block_bytes: 0,
                        pr: p,
                        pc: 1,
                        fields: 1,
                        pipelined: false,
                    };
                    let (_, wall) = comm_time(&item, net, p);
                    if wall > 0.0 {
                        // Average bandwidth: bytes each processor sends.
                        ((p - 1) * bytes) as f64 / wall / 1e6
                    } else {
                        0.0
                    }
                })
                .collect();
            row(bytes, &vals);
        }
    }
    println!("\npaper shape check: \"Apart from the T3E, which is 3 times higher");
    println!("than the rest, the myrinet network has a slightly higher bandwidth");
    println!("than the IBM SP2 Thin2 nodes ... and slightly lower than the NCSA\".");
    println!("Ethernet-based configs saturate hardest as P grows.");
}
