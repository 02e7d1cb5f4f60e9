//! Property-based tests for the METIS-substitute partitioner: structural
//! invariants over random graphs.

use nkt_partition::{edge_cut, imbalance, partition_kway, Graph, PartitionOptions};
use nkt_testkit::{prop_assert, prop_assert_eq, prop_check, Rng};

/// Random connected graph: a spanning path plus extra random edges.
fn random_connected(n: usize, extra: usize, seed: u64) -> Graph {
    let mut edges: Vec<(usize, usize)> = (1..n).map(|v| (v - 1, v)).collect();
    let mut rng = Rng::new(seed);
    for _ in 0..extra {
        let a = rng.below(n as u64) as usize;
        let b = rng.below(n as u64) as usize;
        if a != b {
            edges.push((a.min(b), a.max(b)));
        }
    }
    Graph::from_edges(n, &edges)
}

prop_check! {
    fn every_vertex_gets_a_valid_part(n in 2usize..120, extra in 0usize..80, seed in 0u64..500, k in 2usize..6) {
        let g = random_connected(n, extra, seed);
        let k = k.min(n);
        let part = partition_kway(&g, k, &PartitionOptions::default());
        prop_assert_eq!(part.len(), n);
        for &p in &part {
            prop_assert!((p as usize) < k);
        }
    }

    fn no_part_is_empty_when_enough_vertices(n in 8usize..100, extra in 0usize..50, seed in 0u64..300) {
        let k = 4usize;
        let g = random_connected(n, extra, seed);
        let part = partition_kway(&g, k, &PartitionOptions::default());
        for target in 0..k as u8 {
            prop_assert!(part.iter().any(|&p| p == target), "part {target} empty");
        }
    }

    fn cut_bounded_by_total_edge_weight(n in 4usize..100, extra in 0usize..60, seed in 0u64..300) {
        let g = random_connected(n, extra, seed);
        let part = partition_kway(&g, 3.min(n), &PartitionOptions::default());
        let cut = edge_cut(&g, &part);
        let total: i64 = (0..g.nvtx()).map(|v| g.edges(v).map(|(_, w)| w).sum::<i64>()).sum::<i64>() / 2;
        prop_assert!(cut >= 0 && cut <= total);
    }

    fn bisection_imbalance_bounded(n in 8usize..150, extra in 0usize..80, seed in 0u64..300) {
        let g = random_connected(n, extra, seed);
        let part = partition_kway(&g, 2, &PartitionOptions::default());
        // Multilevel bisection respects the balance constraint loosely
        // even on adversarial graphs.
        prop_assert!(imbalance(&g, &part, 2) <= 1.6, "imbalance {}", imbalance(&g, &part, 2));
    }

    fn deterministic_given_same_input(n in 4usize..60, extra in 0usize..40, seed in 0u64..200) {
        let g = random_connected(n, extra, seed);
        let a = partition_kway(&g, 3.min(n), &PartitionOptions::default());
        let b = partition_kway(&g, 3.min(n), &PartitionOptions::default());
        prop_assert_eq!(a, b);
    }

    fn refinement_never_hurts_the_cut(n in 8usize..80, extra in 0usize..60, seed in 0u64..200) {
        let g = random_connected(n, extra, seed);
        let with = partition_kway(&g, 2, &PartitionOptions::default());
        let without = partition_kway(
            &g,
            2,
            &PartitionOptions { skip_refinement: true, ..Default::default() },
        );
        prop_assert!(edge_cut(&g, &with) <= edge_cut(&g, &without));
    }
}
