//! Property tests for the split-phase gather-scatter: over random
//! sharing patterns, rank counts, strategies, and operators, the
//! overlapped `start`/`finish` path must be **bitwise identical** to
//! the blocking `exchange`, and the overlap window must really be open
//! — single-copy private dofs mutated between `start` and `finish`
//! survive untouched.

use nkt_gs::prelude::*;
use nkt_mpi::prelude::*;
use nkt_net::{cluster, NetId};
use nkt_testkit::{one_of, prop_assert, prop_assert_eq, prop_check, splitmix64, Rng};

fn net() -> nkt_net::ClusterNetwork {
    cluster(NetId::Sp2Silver)
}

/// Deterministic per-rank id list: draws from a small shared-gid
/// universe (so cross-rank sharing is common), occasionally repeats an
/// id locally (element-local duplicate copies), and appends two ids
/// private to the rank. The gid universe sits above 2^53 so every case
/// also exercises the exact hi/lo id exchange.
fn ids_for(rank: usize, p: usize, seed: u64) -> Vec<u64> {
    const BASE: u64 = (1 << 53) + 11;
    let mut rng = Rng::new(seed);
    let mut ids = Vec::new();
    for g in 0..12u64 {
        // Each candidate gid is held by this rank with probability ~1/2.
        let mut h = rng.next_u64() ^ rank as u64;
        if splitmix64(&mut h) % 2 == 0 {
            ids.push(BASE + g);
            if splitmix64(&mut h) % 4 == 0 {
                ids.push(BASE + g); // local duplicate copy
            }
        }
    }
    ids.push(BASE + 1000 + (rank * 2) as u64);
    ids.push(BASE + 1000 + (rank * 2 + 1) as u64);
    // Salt the universe per (seed, p) so different cases see different
    // sharing topologies, not just different values.
    ids.iter().map(|&g| g + (seed % 7) * 100 + (p as u64) * 10_000).collect()
}

fn values_for(rank: usize, n: usize, seed: u64) -> Vec<f64> {
    // Seeds below 2^32, so each (seed, rank) has a stream of its own.
    let mut rng = Rng::new(seed ^ (rank as u64) << 32);
    (0..n)
        .map(|_| {
            let u = rng.next_u64();
            // Spread magnitudes so summation order matters at the bit level.
            let m = (u % 2000) as f64 / 1000.0 - 1.0;
            m * 10f64.powi((u >> 32) as i32 % 6 - 3)
        })
        .collect()
}

prop_check! {
    #![cases(32)]

    fn split_phase_is_bitwise_identical_to_blocking(
        p in 2usize..6,
        seed in 0u64..1_000_000,
        strategy in one_of(&[GsStrategy::Pairwise, GsStrategy::Tree, GsStrategy::Hybrid]),
        op in one_of(&[ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max])
    ) {
        let out = World::builder().ranks(p).net(net()).run(move |c| {
            let ids = ids_for(c.rank(), p, seed);
            let gs = GsHandle::try_setup(c, &ids, strategy).expect("well-formed plan");
            let vals = values_for(c.rank(), ids.len(), seed);
            let mut blocking = vals.clone();
            gs.exchange(c, &mut blocking, op);
            let mut split = vals;
            let ex = gs.start(c, &split, op);
            ex.finish(c, &mut split);
            (blocking, split)
        });
        for (rank, (blocking, split)) in out.into_iter().enumerate() {
            let a: Vec<u64> = blocking.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = split.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(a, b, "rank {} of {} diverged ({:?}, {:?})", rank, p, strategy, op);
        }
    }

    fn window_mutation_of_private_dofs_survives_finish(
        p in 2usize..6,
        seed in 0u64..1_000_000,
        strategy in one_of(&[GsStrategy::Pairwise, GsStrategy::Tree, GsStrategy::Hybrid]),
        op in one_of(&[ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max])
    ) {
        // The last two ids from `ids_for` are private to the rank and
        // single-copy: the caller may overwrite them inside the overlap
        // window; everything else must come out exactly as blocking.
        let out = World::builder().ranks(p).net(net()).run(move |c| {
            let ids = ids_for(c.rank(), p, seed);
            let gs = GsHandle::try_setup(c, &ids, strategy).expect("well-formed plan");
            let vals = values_for(c.rank(), ids.len(), seed);
            let mut expect = vals.clone();
            gs.exchange(c, &mut expect, op);
            let n = ids.len();
            expect[n - 2] = -1.5;
            expect[n - 1] = 2.5e300;
            let mut split = vals;
            let ex = gs.start(c, &split, op);
            split[n - 2] = -1.5; // mutated mid-flight
            split[n - 1] = 2.5e300;
            ex.finish(c, &mut split);
            (expect, split)
        });
        for (rank, (expect, split)) in out.into_iter().enumerate() {
            let a: Vec<u64> = expect.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = split.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(a, b, "rank {} of {} diverged ({:?}, {:?})", rank, p, strategy, op);
        }
    }

    fn concurrent_exchanges_stay_isolated(
        p in 2usize..5,
        seed in 0u64..1_000_000
    ) {
        // Two exchanges in flight at once over the same handle (the ALE
        // viscous solve's three-component pattern): FIFO matching on the
        // shared pairwise tag must keep their payloads apart, finishing
        // in post order.
        let out = World::builder().ranks(p).net(net()).run(move |c| {
            let ids = ids_for(c.rank(), p, seed);
            let gs = GsHandle::try_setup(c, &ids, GsStrategy::Hybrid).expect("plan");
            let va = values_for(c.rank(), ids.len(), seed);
            let vb = values_for(c.rank(), ids.len(), seed ^ 0xdead_beef);
            let mut ba = va.clone();
            gs.exchange(c, &mut ba, ReduceOp::Sum);
            let mut bb = vb.clone();
            gs.exchange(c, &mut bb, ReduceOp::Sum);
            let (mut sa, mut sb) = (va, vb);
            let ea = gs.start(c, &sa, ReduceOp::Sum);
            let eb = gs.start(c, &sb, ReduceOp::Sum);
            ea.finish(c, &mut sa);
            eb.finish(c, &mut sb);
            (ba, bb, sa, sb)
        });
        for (ba, bb, sa, sb) in out {
            prop_assert!(ba.iter().zip(&sa).all(|(x, y)| x.to_bits() == y.to_bits()));
            prop_assert!(bb.iter().zip(&sb).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }
}
