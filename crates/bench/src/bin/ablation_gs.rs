//! Ablation: gather-scatter strategy (pairwise vs tree vs hybrid) on a
//! partition-boundary exchange pattern — the Tufo-Fischer design choice
//! the paper describes (DESIGN.md §6).

use nkt_bench::{header, row};
use nkt_gs::{GsHandle, GsStrategy};
use nkt_mpi::prelude::*;
use nkt_net::{cluster, NetId};

fn gs_time(nid: NetId, p: usize, shared_per_nbr: usize, strategy: GsStrategy) -> f64 {
    let out = World::builder().ranks(p).net(cluster(nid)).run(move |c| {
        let r = c.rank();
        // Chain topology: share `shared_per_nbr` dofs with each neighbour
        // plus one globally-shared corner dof.
        let mut ids: Vec<u64> = Vec::new();
        for k in 0..shared_per_nbr {
            ids.push((r * shared_per_nbr + k) as u64); // left-shared
            ids.push(((r + 1) * shared_per_nbr + k) as u64); // right-shared
        }
        ids.push(1_000_000); // corner shared by everyone
        let gs = GsHandle::try_setup(c, &ids, strategy).expect("consistent sharer table");
        let t0 = c.wtime();
        let mut v: Vec<f64> = ids.iter().map(|&g| g as f64).collect();
        for _ in 0..10 {
            gs.exchange(c, &mut v, ReduceOp::Sum);
        }
        c.wtime() - t0
    });
    out.into_iter().fold(0.0f64, f64::max) / 10.0
}

fn main() {
    println!("Gather-scatter strategy ablation: virtual seconds per exchange\n");
    for nid in [NetId::Sp2Silver, NetId::RoadRunnerMyr, NetId::MusesLam] {
        println!("network {}:", cluster(nid).name);
        header(&["P / shared", "pairwise", "tree", "hybrid"]);
        for (p, shared) in [(4usize, 64usize), (8, 64), (8, 2048)] {
            let vals: Vec<f64> = [GsStrategy::Pairwise, GsStrategy::Tree, GsStrategy::Hybrid]
                .iter()
                .map(|&s| gs_time(nid, p, shared, s))
                .collect();
            row(format!("{p}/{shared}"), &vals);
        }
        println!();
    }
    println!("expected: pairwise wins face-dominated exchanges (few sharers);");
    println!("tree wins many-sharer reductions; hybrid ('a mix of these two',");
    println!("the paper's choice) tracks the better of the two.");
}
