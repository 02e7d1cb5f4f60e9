//! Ablation: MPI_Alltoall algorithm choice (pairwise vs ring vs Bruck)
//! across networks, rank counts and message sizes — virtual-time
//! measurement on the simulated runtime (DESIGN.md §6).

use nkt_bench::{header, row};
use nkt_mpi::prelude::*;
use nkt_net::{cluster, NetId};

fn a2a_time(net: nkt_net::ClusterNetwork, p: usize, block: usize, algo: AlltoallAlgo) -> f64 {
    let out = World::builder().ranks(p).net(net).run(move |c| {
        let send = vec![1.0f64; p * block];
        let mut recv = vec![0.0f64; p * block];
        c.alltoall_with(algo, &send, block, &mut recv);
        c.barrier();
        c.wtime()
    });
    out.into_iter().fold(0.0f64, f64::max)
}

fn main() {
    println!("Alltoall algorithm ablation: virtual seconds per call\n");
    for nid in [NetId::T3e, NetId::RoadRunnerMyr, NetId::RoadRunnerEth] {
        for p in [4usize, 8, 16] {
            println!("network {}, P = {p}:", cluster(nid).name);
            header(&["block f64s", "pairwise", "ring", "bruck"]);
            for block in [8usize, 512, 32 * 1024] {
                let vals: Vec<f64> = [AlltoallAlgo::Pairwise, AlltoallAlgo::Ring, AlltoallAlgo::Bruck]
                    .iter()
                    .map(|&a| a2a_time(cluster(nid), p, block, a))
                    .collect();
                row(block, &vals);
            }
            println!();
        }
    }
    println!("expected: Bruck wins the latency-bound regime (small blocks, high");
    println!("latency networks) by sending log P larger messages; pairwise wins");
    println!("bandwidth-bound large blocks by moving each byte exactly once.");
}
