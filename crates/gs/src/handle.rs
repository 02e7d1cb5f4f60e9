//! Gather-scatter setup and exchange.
//!
//! The exchange is **split-phase**: [`GsHandle::start`] posts the
//! pairwise halo messages (`isend`/`irecv` on the request engine) and
//! the tree-stage [`nonblocking allreduce`](Comm::iallreduce), then
//! returns a [`GsExchange`] holding the in-flight state; the caller
//! computes whatever it can that does not read shared dofs, and
//! [`GsExchange::finish`] drains the messages, runs the combines, and
//! scatters the reductions back. The blocking [`GsHandle::exchange`]
//! is a thin `start(..).finish(..)` wrapper, so the two paths execute
//! the *same* combine order and are bitwise identical — only the
//! placement of compute relative to the wire differs.

use nkt_mpi::prelude::*;
use std::collections::HashMap;
use std::fmt;

/// Wire tag for the pairwise stage. One fixed tag is safe even with
/// several exchanges in flight: the rank program is SPMD (every rank
/// posts its exchanges in the same program order) and the request
/// engine matches each (source, tag) pair oldest-posted-first, so the
/// n-th exchange's receives bind the n-th exchange's sends.
const TAG_GS_PAIR: u64 = (1 << 61) + 200;

/// Exchange strategy (the paper's three options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GsStrategy {
    /// Pairwise exchanges with every neighbour for every shared dof.
    /// Ideal when dofs are shared by exactly two ranks (faces).
    Pairwise,
    /// Tree reduction over the whole communicator for all shared dofs
    /// ("essentially a global reduction on a subset").
    Tree,
    /// Pairwise for two-rank dofs, tree for dofs shared by ≥3 ranks
    /// (vertices/edges of the partition) — the paper's "mix of these two".
    Hybrid,
}

/// A structural defect in the gather-scatter plan, found while
/// cross-checking the broadcast sharer table against this rank's own
/// id list during [`GsHandle::try_setup`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GsError {
    /// A sharer row lists the same rank twice; the exchange would count
    /// that rank's contribution twice.
    DuplicateRankRow {
        /// The global id whose row is defective.
        gid: u64,
        /// The rank that appears more than once.
        rank: usize,
    },
    /// The sharer table and a rank's id list disagree: the row for
    /// `gid` names a rank that does not hold the id (its receives would
    /// deadlock), names a rank outside the communicator, or omits a
    /// rank that does hold it (its contribution would be dropped).
    InconsistentSharerTable {
        /// The global id whose row is defective.
        gid: u64,
        /// The rank the table and the id lists disagree about.
        rank: usize,
    },
}

impl fmt::Display for GsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GsError::DuplicateRankRow { gid, rank } => write!(
                f,
                "gs setup: sharer row for global id {gid} lists rank {rank} more than once \
                 (its contribution would be double-counted)"
            ),
            GsError::InconsistentSharerTable { gid, rank } => write!(
                f,
                "gs setup: sharer table and id lists disagree about rank {rank} \
                 for global id {gid}"
            ),
        }
    }
}

impl std::error::Error for GsError {}

/// Per-rank gather-scatter handle for a fixed local→global dof map.
#[derive(Debug, Clone)]
pub struct GsHandle {
    strategy: GsStrategy,
    /// The entries an exchange can change, in ascending global-id order:
    /// the local indices of every global id this rank holds more than
    /// once (element-local storage) or shares with another rank. `start`
    /// snapshots and `finish` writes back exactly these. Single-copy
    /// private dofs are not kept at all (their write-back would be an
    /// identity), which is what lets callers mutate them between `start`
    /// and `finish`.
    scatter: Vec<Vec<usize>>,
    /// Pairwise plan: per neighbour rank, the (sorted by global id) list
    /// of slots into `scatter` to exchange.
    pairwise: Vec<(usize, Vec<usize>)>,
    /// Slots into `scatter` handled by the tree stage.
    tree_entries: Vec<usize>,
    /// Dense index of each tree entry in the reduction buffer.
    tree_slot: Vec<usize>,
    /// Total tree buffer length (same on all ranks).
    tree_len: usize,
}

/// Splits a `u64` global id into two exactly-representable f64 words.
/// Ids round-tripped through a single f64 corrupt silently at ≥ 2^53;
/// each 32-bit half is exact.
fn gid_to_words(g: u64) -> [f64; 2] {
    [(g >> 32) as f64, (g & 0xFFFF_FFFF) as f64]
}

fn gid_from_words(hi: f64, lo: f64) -> u64 {
    ((hi as u64) << 32) | (lo as u64)
}

/// Cross-checks the broadcast sharer table against this rank's own id
/// set (`holds`). Factored out of [`GsHandle::try_setup`] so the error
/// paths are unit-testable without spinning up a world.
fn validate_sharer_table(
    me: usize,
    p: usize,
    holds: &HashMap<u64, usize>,
    shared: &[(u64, Vec<usize>)],
) -> Result<(), GsError> {
    for (gid, ranks) in shared {
        let mut seen = vec![false; p];
        for &r in ranks {
            if r >= p {
                return Err(GsError::InconsistentSharerTable { gid: *gid, rank: r });
            }
            if seen[r] {
                return Err(GsError::DuplicateRankRow { gid: *gid, rank: r });
            }
            seen[r] = true;
        }
        let listed = seen.get(me).copied().unwrap_or(false);
        if listed != holds.contains_key(gid) {
            return Err(GsError::InconsistentSharerTable { gid: *gid, rank: me });
        }
    }
    Ok(())
}

impl GsHandle {
    /// Builds the exchange plan. Collective: every rank calls with its own
    /// `global_ids` (one per local dof; duplicates allowed).
    ///
    /// Global ids travel as exact 32-bit word pairs, so ids above 2^53
    /// survive the exchange; the assembled sharer table is cross-checked
    /// on every rank and structural defects come back as typed
    /// [`GsError`]s instead of a wrong plan.
    pub fn try_setup(
        comm: &mut Comm,
        global_ids: &[u64],
        strategy: GsStrategy,
    ) -> Result<GsHandle, GsError> {
        // Group local duplicates.
        let mut groups: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, &g) in global_ids.iter().enumerate() {
            groups.entry(g).or_default().push(i);
        }
        let mut local_of_global: Vec<(u64, Vec<usize>)> = groups.into_iter().collect();
        local_of_global.sort_by_key(|(g, _)| *g);

        // Discover sharers: gather all id lists on rank 0 (as exact
        // hi/lo word pairs), compute the rank set per id, broadcast
        // back a flattened description.
        let my_ids: Vec<f64> =
            local_of_global.iter().flat_map(|(g, _)| gid_to_words(*g)).collect();
        let gathered = comm.gather(0, &my_ids);
        let mut flat: Vec<f64> = Vec::new();
        if let Some(rows) = gathered {
            let mut sharers: HashMap<u64, Vec<usize>> = HashMap::new();
            for (rank, row) in rows.iter().enumerate() {
                for w in row.chunks_exact(2) {
                    sharers.entry(gid_from_words(w[0], w[1])).or_default().push(rank);
                }
            }
            let mut shared: Vec<(u64, Vec<usize>)> = sharers
                .into_iter()
                .filter(|(_, ranks)| ranks.len() > 1)
                .collect();
            shared.sort_by_key(|(g, _)| *g);
            // Flatten: [n, (gid_hi, gid_lo, nranks, ranks...)*].
            flat.push(shared.len() as f64);
            for (gid, ranks) in &shared {
                flat.extend_from_slice(&gid_to_words(*gid));
                flat.push(ranks.len() as f64);
                for &r in ranks {
                    flat.push(r as f64);
                }
            }
        }
        // Broadcast the shared-id table (length first so receivers size
        // their buffer).
        let mut len = vec![flat.len() as f64];
        comm.bcast(0, &mut len);
        flat.resize(len[0] as usize, 0.0);
        comm.bcast(0, &mut flat);
        // Parse.
        let mut shared: Vec<(u64, Vec<usize>)> = Vec::new();
        if !flat.is_empty() {
            let n = flat[0] as usize;
            let mut pos = 1;
            for _ in 0..n {
                let gid = gid_from_words(flat[pos], flat[pos + 1]);
                let nr = flat[pos + 2] as usize;
                let ranks: Vec<usize> =
                    (0..nr).map(|k| flat[pos + 3 + k] as usize).collect();
                pos += 3 + nr;
                shared.push((gid, ranks));
            }
        }
        // Build the plan for this rank.
        let me = comm.rank();
        let idx_of_gid: HashMap<u64, usize> =
            local_of_global.iter().enumerate().map(|(i, (g, _))| (*g, i)).collect();
        validate_sharer_table(me, comm.size(), &idx_of_gid, &shared)?;
        let mut pair_map: HashMap<usize, Vec<(u64, usize)>> = HashMap::new();
        let mut tree_pairs: Vec<(u64, usize)> = Vec::new();
        let mut tree_len = 0usize;
        let mut tree_slot_of_gid: HashMap<u64, usize> = HashMap::new();
        for (gid, ranks) in &shared {
            let tree_eligible = match strategy {
                GsStrategy::Pairwise => false,
                GsStrategy::Tree => true,
                GsStrategy::Hybrid => ranks.len() > 2,
            };
            if tree_eligible {
                tree_slot_of_gid.insert(*gid, tree_len);
                tree_len += 1;
                if let Some(&e) = idx_of_gid.get(gid) {
                    tree_pairs.push((*gid, e));
                }
            } else if ranks.contains(&me) {
                let e = idx_of_gid[gid];
                for &r in ranks {
                    if r != me {
                        pair_map.entry(r).or_default().push((*gid, e));
                    }
                }
            }
        }
        let mut pairwise: Vec<(usize, Vec<usize>)> = pair_map
            .into_iter()
            .map(|(r, mut v)| {
                v.sort_by_key(|(g, _)| *g);
                (r, v.into_iter().map(|(_, e)| e).collect())
            })
            .collect();
        pairwise.sort_by_key(|(r, _)| *r);
        tree_pairs.sort_by_key(|(g, _)| *g);
        let mut tree_entries: Vec<usize> = tree_pairs.iter().map(|&(_, e)| e).collect();
        let tree_slot: Vec<usize> =
            tree_pairs.iter().map(|&(g, _)| tree_slot_of_gid[&g]).collect();
        // The plan keeps only entries whose value can differ from what
        // the caller already holds: local duplicates (pre-reduced) and
        // anything exchanged. On one rank with unique ids that is
        // nothing, and `start`/`finish` touch no dof at all.
        let mut exchanged = vec![false; local_of_global.len()];
        for &e in pairwise.iter().flat_map(|(_, entries)| entries).chain(&tree_entries) {
            exchanged[e] = true;
        }
        let mut slot_of = vec![usize::MAX; local_of_global.len()];
        let mut scatter = Vec::new();
        for (e, (_, locs)) in local_of_global.into_iter().enumerate() {
            if exchanged[e] || locs.len() > 1 {
                slot_of[e] = scatter.len();
                scatter.push(locs);
            }
        }
        for e in pairwise.iter_mut().flat_map(|(_, entries)| entries).chain(&mut tree_entries) {
            *e = slot_of[*e];
        }
        Ok(GsHandle { strategy, scatter, pairwise, tree_entries, tree_slot, tree_len })
    }

    /// The strategy this handle was built with.
    pub fn strategy(&self) -> GsStrategy {
        self.strategy
    }

    /// Local dof indices that participate in the exchange (every copy of
    /// every rank-shared id), sorted ascending. Callers use this to
    /// schedule work that touches shared dofs *before* [`GsHandle::start`]
    /// and work that does not into the overlap window.
    pub fn halo_locals(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .pairwise
            .iter()
            .flat_map(|(_, entries)| entries.iter())
            .chain(self.tree_entries.iter())
            .flat_map(|&e| self.scatter[e].iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Makes every copy of every shared dof hold the reduction (`op`) of
    /// all copies across all ranks. Local duplicates are pre-reduced.
    /// Equivalent to `start(..).finish(..)` with nothing in between.
    pub fn exchange(&self, comm: &mut Comm, values: &mut [f64], op: ReduceOp) {
        self.start(comm, values, op).finish(comm, values)
    }

    /// Posts the exchange: pre-reduces local duplicates, fires the
    /// pairwise halo messages (`irecv`s first so arrivals bind directly,
    /// then `isend`s), and posts the tree stage's nonblocking allreduce.
    /// Returns the in-flight [`GsExchange`]; between this call and
    /// [`GsExchange::finish`] the caller may read `values` freely and
    /// mutate entries of **single-copy non-shared** dofs — shared and
    /// locally-duplicated entries are snapshotted here and overwritten
    /// at finish.
    pub fn start<'a>(
        &'a self,
        comm: &mut Comm,
        values: &[f64],
        op: ReduceOp,
    ) -> GsExchange<'a> {
        comm.traced("gs.start", "mpi.coll.gs.start", |comm| {
            // Pre-reduce local duplicates into a per-slot scalar. This
            // is the send snapshot: every isend below reads it before
            // any receive is combined, so k-way shared dofs accumulate
            // each rank's *original* contribution exactly once.
            let group_val: Vec<f64> = self
                .scatter
                .iter()
                .map(|locs| {
                    let mut acc = values[locs[0]];
                    for &l in &locs[1..] {
                        acc = apply(op, acc, values[l]);
                    }
                    acc
                })
                .collect();
            // Pairwise stage: post every receive, then every send, in
            // plan (ascending neighbour rank) order.
            let mut reqs = Vec::with_capacity(self.pairwise.len());
            for (nbr, _) in &self.pairwise {
                reqs.push(comm.irecv(Some(*nbr), Some(TAG_GS_PAIR)));
            }
            for (nbr, entries) in &self.pairwise {
                let payload: Vec<f64> = entries.iter().map(|&e| group_val[e]).collect();
                comm.isend(*nbr, TAG_GS_PAIR, &payload);
            }
            // Tree stage: the tree entries are disjoint from the
            // pairwise entries, so their contributions are final now and
            // the reduction can ride the wire through the whole window.
            let tree = if self.tree_len > 0 {
                let neutral = match op {
                    ReduceOp::Sum => 0.0,
                    ReduceOp::Min => f64::INFINITY,
                    ReduceOp::Max => f64::NEG_INFINITY,
                };
                let mut buf = vec![neutral; self.tree_len];
                for (k, &e) in self.tree_entries.iter().enumerate() {
                    buf[self.tree_slot[k]] = group_val[e];
                }
                Some(comm.iallreduce(&buf, op))
            } else {
                None
            };
            GsExchange { plan: self, op, group_val, reqs, tree }
        })
    }
}

/// An in-flight gather-scatter posted by [`GsHandle::start`]. Owns the
/// pre-reduced contribution snapshot and the posted requests; dropping
/// it without [`GsExchange::finish`] leaves the exchange incomplete
/// (and this rank's neighbours blocked), hence `#[must_use]`.
#[must_use = "a started gather-scatter must be completed with GsExchange::finish"]
pub struct GsExchange<'a> {
    plan: &'a GsHandle,
    op: ReduceOp,
    /// Pre-reduced contribution per `scatter` slot, accumulated in place
    /// by finish.
    group_val: Vec<f64>,
    /// One pairwise receive per neighbour, in plan order.
    reqs: Vec<Request>,
    /// The posted tree-stage reduction, if this plan has one.
    tree: Option<AllreduceHandle>,
}

impl GsExchange<'_> {
    /// Drains the pairwise receives (in posting order, applying the
    /// reduction in the same neighbour-then-entry order as the blocking
    /// path), completes the tree-stage allreduce, and scatters the
    /// reductions back into `values`. Only locally-duplicated or
    /// exchanged entries are written; other entries of `values` are
    /// left exactly as the caller holds them.
    pub fn finish(self, comm: &mut Comm, values: &mut [f64]) {
        let GsExchange { plan, op, mut group_val, reqs, tree } = self;
        comm.traced("gs.finish", "mpi.coll.gs.finish", |comm| {
            for ((_, entries), req) in plan.pairwise.iter().zip(&reqs) {
                let got = comm.wait(req);
                for (k, &e) in entries.iter().enumerate() {
                    group_val[e] = apply(op, group_val[e], got.data[k]);
                }
            }
            if let Some(h) = tree {
                let mut buf = vec![0.0; plan.tree_len];
                comm.allreduce_finish(h, &mut buf);
                for (k, &e) in plan.tree_entries.iter().enumerate() {
                    group_val[e] = buf[plan.tree_slot[k]];
                }
            }
            for (locs, &v) in plan.scatter.iter().zip(&group_val) {
                for &l in locs {
                    values[l] = v;
                }
            }
        })
    }
}

fn apply(op: ReduceOp, a: f64, b: f64) -> f64 {
    match op {
        ReduceOp::Sum => a + b,
        ReduceOp::Min => a.min(b),
        ReduceOp::Max => a.max(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nkt_net::{cluster, NetId};

    fn run<R: Send, F: Fn(&mut Comm) -> R + Sync>(
        p: usize,
        net: nkt_net::ClusterNetwork,
        f: F,
    ) -> Vec<R> {
        World::builder().ranks(p).net(net).run(f)
    }

    fn testnet() -> nkt_net::ClusterNetwork {
        cluster(NetId::Sp2Silver)
    }

    fn try_setup(c: &mut Comm, ids: &[u64], s: GsStrategy) -> GsHandle {
        GsHandle::try_setup(c, ids, s).expect("well-formed plan")
    }

    /// 1-D chain decomposition: rank r owns nodes [r*2, r*2+2] with the
    /// endpoints shared with neighbours (classic FEM halo).
    fn chain_ids(rank: usize) -> Vec<u64> {
        vec![(rank * 2) as u64, (rank * 2 + 1) as u64, (rank * 2 + 2) as u64]
    }

    fn check_chain(strategy: GsStrategy) {
        let p = 4;
        let out = run(p, testnet(), move |c| {
            let ids = chain_ids(c.rank());
            let gs = try_setup(c, &ids, strategy);
            // Each rank contributes 1.0 at every node: after sum-exchange,
            // shared nodes hold 2.0 and private nodes 1.0.
            let mut v = vec![1.0; ids.len()];
            gs.exchange(c, &mut v, ReduceOp::Sum);
            v
        });
        for (r, v) in out.iter().enumerate() {
            let left_shared = r > 0;
            let right_shared = r + 1 < p;
            assert_eq!(v[0], if left_shared { 2.0 } else { 1.0 }, "rank {r} left");
            assert_eq!(v[1], 1.0, "rank {r} mid");
            assert_eq!(v[2], if right_shared { 2.0 } else { 1.0 }, "rank {r} right");
        }
    }

    #[test]
    fn chain_sum_pairwise() {
        check_chain(GsStrategy::Pairwise);
    }

    #[test]
    fn chain_sum_tree() {
        check_chain(GsStrategy::Tree);
    }

    #[test]
    fn chain_sum_hybrid() {
        check_chain(GsStrategy::Hybrid);
    }

    #[test]
    fn multiway_shared_vertex() {
        // Global id 100 shared by all ranks (a cross-point), id 200+r
        // private.
        let p = 5;
        for strategy in [GsStrategy::Pairwise, GsStrategy::Tree, GsStrategy::Hybrid] {
            let out = run(p, testnet(), move |c| {
                let ids = vec![100u64, 200 + c.rank() as u64];
                let gs = try_setup(c, &ids, strategy);
                let mut v = vec![(c.rank() + 1) as f64, 7.0];
                gs.exchange(c, &mut v, ReduceOp::Sum);
                v
            });
            let total: f64 = (1..=p).map(|r| r as f64).sum();
            for (r, v) in out.iter().enumerate() {
                assert_eq!(v[0], total, "{strategy:?} rank {r}");
                assert_eq!(v[1], 7.0, "{strategy:?} private dof touched");
            }
        }
    }

    #[test]
    fn local_duplicates_prereduced() {
        // One rank holds the same global id twice (element-local copies).
        let out = run(2, testnet(), |c| {
            let ids: Vec<u64> = if c.rank() == 0 { vec![5, 5] } else { vec![5] };
            let gs = try_setup(c, &ids, GsStrategy::Hybrid);
            let mut v = if c.rank() == 0 { vec![1.0, 2.0] } else { vec![10.0] };
            gs.exchange(c, &mut v, ReduceOp::Sum);
            v
        });
        // Sum over all copies = 13; every copy must hold it.
        assert_eq!(out[0], vec![13.0, 13.0]);
        assert_eq!(out[1], vec![13.0]);
    }

    #[test]
    fn min_and_max_ops() {
        let out = run(3, testnet(), |c| {
            let ids = vec![1u64];
            let gs = try_setup(c, &ids, GsStrategy::Tree);
            let mut lo = vec![c.rank() as f64];
            gs.exchange(c, &mut lo, ReduceOp::Min);
            let mut hi = vec![c.rank() as f64];
            gs.exchange(c, &mut hi, ReduceOp::Max);
            (lo[0], hi[0])
        });
        for &(lo, hi) in &out {
            assert_eq!(lo, 0.0);
            assert_eq!(hi, 2.0);
        }
    }

    #[test]
    fn strategies_agree() {
        // Random-ish sharing pattern; all three strategies must give the
        // same result.
        let p = 4;
        let run_with = |s: GsStrategy| {
            run(p, testnet(), move |c| {
                let r = c.rank() as u64;
                let ids = vec![r % 2, 10 + (r / 2), 100, 1000 + r];
                let gs = try_setup(c, &ids, s);
                let mut v: Vec<f64> =
                    ids.iter().map(|&g| (g as f64) * 0.5 + c.rank() as f64).collect();
                gs.exchange(c, &mut v, ReduceOp::Sum);
                v
            })
        };
        let a = run_with(GsStrategy::Pairwise);
        let b = run_with(GsStrategy::Tree);
        let c = run_with(GsStrategy::Hybrid);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn single_rank_is_local_reduction_only() {
        let out = run(1, testnet(), |c| {
            let gs = try_setup(c, &[3, 3, 4], GsStrategy::Hybrid);
            let mut v = vec![1.0, 5.0, 9.0];
            gs.exchange(c, &mut v, ReduceOp::Sum);
            v
        });
        assert_eq!(out[0], vec![6.0, 6.0, 9.0]);
    }

    #[test]
    fn gids_above_2_pow_53_survive_setup() {
        // Regression: ids used to round-trip through a single f64, which
        // is lossy at ≥ 2^53. These two ids collapse to the same f64.
        let a: u64 = (1 << 53) + 1;
        let b: u64 = 1 << 53;
        assert_eq!(a as f64, b as f64, "precondition: ids are f64-indistinguishable");
        for strategy in [GsStrategy::Pairwise, GsStrategy::Tree, GsStrategy::Hybrid] {
            let out = run(2, testnet(), move |c| {
                // Rank 0 holds {a, b}; rank 1 holds {a}. Only `a` is
                // shared; `b` must stay private.
                let ids: Vec<u64> = if c.rank() == 0 { vec![a, b] } else { vec![a] };
                let gs = try_setup(c, &ids, strategy);
                let mut v = if c.rank() == 0 { vec![2.0, 30.0] } else { vec![5.0] };
                gs.exchange(c, &mut v, ReduceOp::Sum);
                v
            });
            assert_eq!(out[0], vec![7.0, 30.0], "{strategy:?}: b leaked into the exchange");
            assert_eq!(out[1], vec![7.0], "{strategy:?}");
        }
    }

    #[test]
    fn split_phase_allows_mutating_private_dofs_in_window() {
        // The caller may update single-copy non-shared dofs between
        // start and finish; finish must not clobber them.
        let out = run(2, testnet(), |c| {
            let ids: Vec<u64> = vec![7, 100 + c.rank() as u64];
            let gs = try_setup(c, &ids, GsStrategy::Hybrid);
            let mut v = vec![1.0, 0.0];
            let ex = gs.start(c, &v, ReduceOp::Sum);
            v[1] = 42.0; // private dof mutated inside the overlap window
            ex.finish(c, &mut v);
            v
        });
        for v in out {
            assert_eq!(v, vec![2.0, 42.0]);
        }
    }

    #[test]
    fn validate_rejects_duplicate_rank_rows() {
        let holds: HashMap<u64, usize> = [(9u64, 0usize)].into_iter().collect();
        let shared = vec![(9u64, vec![0usize, 1, 1])];
        assert_eq!(
            validate_sharer_table(0, 4, &holds, &shared),
            Err(GsError::DuplicateRankRow { gid: 9, rank: 1 })
        );
    }

    #[test]
    fn validate_rejects_row_listing_a_non_holder() {
        // The table says rank 0 shares gid 9, but rank 0 does not hold it.
        let holds: HashMap<u64, usize> = HashMap::new();
        let shared = vec![(9u64, vec![0usize, 1])];
        assert_eq!(
            validate_sharer_table(0, 4, &holds, &shared),
            Err(GsError::InconsistentSharerTable { gid: 9, rank: 0 })
        );
    }

    #[test]
    fn validate_rejects_row_omitting_a_holder() {
        // Rank 2 holds gid 9 but the row omits it: its contribution
        // would be silently dropped.
        let holds: HashMap<u64, usize> = [(9u64, 0usize)].into_iter().collect();
        let shared = vec![(9u64, vec![0usize, 1])];
        assert_eq!(
            validate_sharer_table(2, 4, &holds, &shared),
            Err(GsError::InconsistentSharerTable { gid: 9, rank: 2 })
        );
    }

    #[test]
    fn validate_rejects_out_of_range_rank() {
        let holds: HashMap<u64, usize> = HashMap::new();
        let shared = vec![(9u64, vec![1usize, 7])];
        assert_eq!(
            validate_sharer_table(0, 4, &holds, &shared),
            Err(GsError::InconsistentSharerTable { gid: 9, rank: 7 })
        );
    }

    #[test]
    fn validate_accepts_consistent_table() {
        let holds: HashMap<u64, usize> = [(9u64, 0usize)].into_iter().collect();
        let shared = vec![(9u64, vec![0usize, 1]), (11, vec![1, 2])];
        assert_eq!(validate_sharer_table(0, 4, &holds, &shared), Ok(()));
    }

    #[test]
    fn error_display_names_the_defect() {
        let d = GsError::DuplicateRankRow { gid: 5, rank: 3 }.to_string();
        assert!(d.contains("global id 5") && d.contains("rank 3"), "{d}");
        assert!(d.contains("more than once"), "{d}");
        let i = GsError::InconsistentSharerTable { gid: 8, rank: 2 }.to_string();
        assert!(i.contains("global id 8") && i.contains("rank 2"), "{i}");
        assert!(i.contains("disagree"), "{i}");
    }

    #[test]
    fn halo_locals_lists_every_copy_of_shared_ids() {
        let out = run(2, testnet(), |c| {
            // gid 5 shared (two local copies on rank 0), gid 6/7 private.
            let ids: Vec<u64> = if c.rank() == 0 { vec![5, 6, 5] } else { vec![5, 7] };
            let gs = try_setup(c, &ids, GsStrategy::Hybrid);
            gs.halo_locals()
        });
        assert_eq!(out[0], vec![0, 2]);
        assert_eq!(out[1], vec![0]);
    }
}
