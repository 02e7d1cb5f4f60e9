//! Sub-communicators: `MPI_Comm_split` for the virtual-time world.
//!
//! [`Comm::split`] partitions the world by `color` and orders each
//! partition by `(key, world rank)` — exactly MPI's contract — yielding
//! a [`SubComm`] with its own rank/size, collectives, and tag space.
//! The canonical consumer is the 2-D pencil process grid of NekTar-F
//! (DESIGN.md §13): every rank joins one *row* and one *column*
//! sub-communicator and the global transpose becomes two smaller
//! sub-communicator alltoalls.
//!
//! Design notes:
//!
//! * A `SubComm` owns only **membership** (the sorted world-rank list
//!   and this rank's position in it); every operation borrows the
//!   world [`Comm`] explicitly. That lets one rank hold its row and
//!   column sub-communicators simultaneously — impossible if a
//!   sub-communicator held `&mut Comm`.
//! * Tag isolation: each split gets `tag_base = bit 63 | generation`,
//!   added to every collective tag. Splits are collective and posted in
//!   the same order everywhere, so generations agree globally; colors
//!   partition the ranks, so two sub-communicators of one split never
//!   share a (src, dst) pair. World collectives keep `tag_base = 0`.
//! * Profiling: collectives run under `<op>.<label>` trace spans (e.g.
//!   `alltoall.row`, `ialltoall.col`), so `nkt-prof` attributes row and
//!   column exchanges as distinct first-class ops.

use crate::collectives::{AlltoallAlgo, AlltoallHandle, Grp, ReduceOp, TAG_IA2A};
use crate::comm::{Comm, Tag};

/// Interned `'static` op/counter names for one sub-communicator label;
/// built once per split (the intern table deduplicates repeats).
#[derive(Clone, Copy)]
struct SubOps {
    barrier: (&'static str, &'static str),
    allreduce: (&'static str, &'static str),
    bcast: (&'static str, &'static str),
    gather: (&'static str, &'static str),
    alltoall: (&'static str, &'static str),
    ialltoall: (&'static str, &'static str),
    ialltoall_wait: &'static str,
}

impl SubOps {
    fn new(label: &str) -> SubOps {
        let mk = |op: &str| -> (&'static str, &'static str) {
            (
                nkt_trace::intern_label(&format!("{op}.{label}")),
                nkt_trace::intern_label(&format!("mpi.coll.{op}.{label}")),
            )
        };
        SubOps {
            barrier: mk("barrier"),
            allreduce: mk("allreduce"),
            bcast: mk("bcast"),
            gather: mk("gather"),
            alltoall: mk("alltoall"),
            ialltoall: mk("ialltoall"),
            ialltoall_wait: nkt_trace::intern_label(&format!("mpi.coll.ialltoall.{label}.wait")),
        }
    }
}

/// A communicator over a subset of the world's ranks, created by
/// [`Comm::split`]. All methods take the world [`Comm`] explicitly.
pub struct SubComm {
    /// World ranks of the members, in group-rank order.
    ranks: Vec<usize>,
    /// This rank's group rank.
    myrank: usize,
    /// The color this sub-communicator was split with.
    color: usize,
    /// Added to every collective tag (disjoint from the world's and from
    /// every other split's).
    tag_base: Tag,
    /// Display label (`"sub"` unless [`Comm::split_labeled`] named it).
    label: &'static str,
    ops: SubOps,
    /// Tag generation for this sub-communicator's `ialltoall` (members
    /// post collectives in the same order, so generations agree).
    ia2a_gen: Tag,
}

impl Comm {
    /// Splits the world like `MPI_Comm_split`: ranks sharing `color` form
    /// one sub-communicator, ordered by `(key, world rank)`. Collective
    /// over the **world** — every rank must call it, in the same order
    /// relative to other splits.
    pub fn split(&mut self, color: usize, key: usize) -> SubComm {
        self.split_labeled(color, key, "sub")
    }

    /// [`Comm::split`] with a label naming the sub-communicator's traced
    /// ops (`alltoall.<label>`, `ialltoall.<label>`, ...), so e.g. row
    /// and column exchanges of a process grid profile as distinct ops.
    pub fn split_labeled(&mut self, color: usize, key: usize, label: &str) -> SubComm {
        let p = self.size();
        // Share every rank's (color, key): gather to 0, broadcast back.
        // usize→f64 is exact for any sane color/key (< 2^53).
        let mine = [color as f64, key as f64];
        let rows = self.gather(0, &mine);
        let mut flat = vec![0.0f64; 2 * p];
        if let Some(rows) = rows {
            for (r, row) in rows.iter().enumerate() {
                flat[2 * r] = row[0];
                flat[2 * r + 1] = row[1];
            }
        }
        self.bcast(0, &mut flat);
        let mut members: Vec<(usize, usize)> = (0..p)
            .filter(|&r| flat[2 * r] as usize == color)
            .map(|r| (flat[2 * r + 1] as usize, r))
            .collect();
        members.sort_unstable();
        let ranks: Vec<usize> = members.into_iter().map(|(_, r)| r).collect();
        let myrank = ranks
            .iter()
            .position(|&r| r == self.rank())
            .expect("split: calling rank missing from its own color");
        let gen = self.split_gen;
        self.split_gen = self.split_gen.wrapping_add(1);
        let tag_base: Tag = (1 << 63) | ((gen & 0xFFFF) << 44);
        SubComm {
            ranks,
            myrank,
            color,
            tag_base,
            label: nkt_trace::intern_label(label),
            ops: SubOps::new(label),
            ia2a_gen: 0,
        }
    }
}

impl SubComm {
    /// This rank's id within the sub-communicator, in `0..size()`.
    pub fn rank(&self) -> usize {
        self.myrank
    }

    /// Number of member ranks.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// The color this sub-communicator was split with.
    pub fn color(&self) -> usize {
        self.color
    }

    /// The trace label given at the split (`"sub"` by default).
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// World ranks of the members, in group-rank order.
    pub fn world_ranks(&self) -> &[usize] {
        &self.ranks
    }

    fn grp(&self) -> Grp<'_> {
        Grp {
            ranks: Some(&self.ranks),
            me: self.myrank,
            p: self.ranks.len(),
            tag_base: self.tag_base,
        }
    }

    /// Synchronizes the member ranks (dissemination barrier).
    pub fn barrier(&self, comm: &mut Comm) {
        let g = self.grp();
        comm.traced(self.ops.barrier.0, self.ops.barrier.1, |c| c.grp_barrier(g))
    }

    /// Elementwise allreduce over the members only.
    pub fn allreduce(&self, comm: &mut Comm, data: &mut [f64], op: ReduceOp) {
        let g = self.grp();
        comm.traced(self.ops.allreduce.0, self.ops.allreduce.1, |c| {
            c.grp_reduce_to(g, 0, data, op);
            c.grp_bcast(g, 0, data);
        })
    }

    /// Broadcasts `data` from group rank `root` to the members.
    pub fn bcast(&self, comm: &mut Comm, root: usize, data: &mut [f64]) {
        let g = self.grp();
        comm.traced(self.ops.bcast.0, self.ops.bcast.1, |c| c.grp_bcast(g, root, data))
    }

    /// Gathers each member's `data` on group rank `root` (rows in group
    /// rank order).
    pub fn gather(&self, comm: &mut Comm, root: usize, data: &[f64]) -> Option<Vec<Vec<f64>>> {
        let g = self.grp();
        comm.traced(self.ops.gather.0, self.ops.gather.1, |c| c.grp_gather(g, root, data))
    }

    /// Blocking alltoall over the members: `send`/`recv` hold `size()`
    /// blocks indexed by **group** rank. Uses [`AlltoallAlgo::Pairwise`].
    pub fn alltoall(&self, comm: &mut Comm, send: &[f64], block: usize, recv: &mut [f64]) {
        self.alltoall_with(comm, AlltoallAlgo::Pairwise, send, block, recv)
    }

    /// [`SubComm::alltoall`] with an explicit algorithm.
    pub fn alltoall_with(
        &self,
        comm: &mut Comm,
        algo: AlltoallAlgo,
        send: &[f64],
        block: usize,
        recv: &mut [f64],
    ) {
        let g = self.grp();
        comm.traced(self.ops.alltoall.0, self.ops.alltoall.1, |c| {
            c.grp_alltoall_with(g, algo, send, block, recv)
        })
    }

    /// Posts a nonblocking alltoall over the members; complete with
    /// [`Comm::alltoall_finish`] (block indices are group ranks).
    /// `&mut self` because each call takes a fresh tag generation.
    pub fn ialltoall(&mut self, comm: &mut Comm, send: &[f64], block: usize) -> AlltoallHandle {
        let gen = self.ia2a_gen;
        self.ia2a_gen = (self.ia2a_gen + 1) % (1 << 20);
        let g = Grp {
            ranks: Some(&self.ranks),
            me: self.myrank,
            p: self.ranks.len(),
            tag_base: self.tag_base,
        };
        comm.grp_ialltoall(
            g,
            self.tag_base + TAG_IA2A + gen,
            self.ops.ialltoall.0,
            self.ops.ialltoall.1,
            self.ops.ialltoall_wait,
            send,
            block,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use nkt_net::{cluster, ClusterNetwork, NetId};

    fn testnet() -> ClusterNetwork {
        cluster(NetId::T3e)
    }

    fn run<R, F>(p: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        World::from_env().ranks(p).net(testnet()).run(f)
    }

    #[test]
    fn split_partitions_ranks_disjointly() {
        let p = 6;
        let out = run(p, |c| {
            let sub = c.split(c.rank() % 2, c.rank());
            (sub.color(), sub.rank(), sub.size(), sub.world_ranks().to_vec())
        });
        for (r, (color, grank, gsize, ranks)) in out.iter().enumerate() {
            assert_eq!(*color, r % 2);
            let expect: Vec<usize> = (0..p).filter(|x| x % 2 == r % 2).collect();
            assert_eq!(ranks, &expect, "rank {r} membership");
            assert_eq!(*gsize, expect.len());
            assert_eq!(ranks[*grank], r, "rank {r} must find itself");
        }
    }

    #[test]
    fn split_orders_by_key_then_world_rank() {
        let p = 5;
        let out = run(p, |c| {
            // Reversing key flips the group order; equal keys fall back
            // to world-rank order.
            let sub = c.split(0, p - c.rank());
            (sub.rank(), sub.world_ranks().to_vec())
        });
        let expect: Vec<usize> = (0..p).rev().collect();
        for (r, (grank, ranks)) in out.iter().enumerate() {
            assert_eq!(ranks, &expect);
            assert_eq!(*grank, p - 1 - r);
        }
    }

    #[test]
    fn subgroup_collectives_stay_in_the_subgroup() {
        let p = 6;
        let out = run(p, |c| {
            let sub = c.split(c.rank() % 2, c.rank());
            let mut v = [c.rank() as f64];
            sub.allreduce(c, &mut v, ReduceOp::Sum);
            // Row 0 of each group broadcasts a group-specific value.
            let mut b = [if sub.rank() == 0 { 100.0 + sub.color() as f64 } else { 0.0 }];
            sub.bcast(c, 0, &mut b);
            let g = sub.gather(c, 0, &[c.rank() as f64]);
            sub.barrier(c);
            (v[0], b[0], g)
        });
        for (r, (sum, bval, gath)) in out.iter().enumerate() {
            let members: Vec<usize> = (0..p).filter(|x| x % 2 == r % 2).collect();
            let expect: f64 = members.iter().map(|&x| x as f64).sum();
            assert_eq!(*sum, expect, "rank {r} allreduce crossed groups");
            assert_eq!(*bval, 100.0 + (r % 2) as f64);
            if members[0] == r {
                let rows = gath.as_ref().unwrap();
                for (i, row) in rows.iter().enumerate() {
                    assert_eq!(row, &vec![members[i] as f64]);
                }
            } else {
                assert!(gath.is_none());
            }
        }
    }

    fn check_sub_alltoall(p: usize, ncolors: usize, block: usize, algo: AlltoallAlgo) {
        let out = run(p, move |c| {
            let sub = c.split(c.rank() % ncolors, c.rank());
            let gp = sub.size();
            let r = c.rank();
            // Payload encodes (world sender, dest group rank, element).
            let send: Vec<f64> = (0..gp * block)
                .map(|i| (r * 1000 + (i / block) * 100 + i % block) as f64)
                .collect();
            let mut recv = vec![0.0; gp * block];
            sub.alltoall_with(c, algo, &send, block, &mut recv);
            (sub.world_ranks().to_vec(), sub.rank(), recv)
        });
        for (ranks, grank, recv) in &out {
            for (src_g, &src_w) in ranks.iter().enumerate() {
                for k in 0..block {
                    let expect = (src_w * 1000 + grank * 100 + k) as f64;
                    assert_eq!(
                        recv[src_g * block + k], expect,
                        "algo {algo:?} p={p} colors={ncolors} group rank {grank} from {src_w}"
                    );
                }
            }
        }
    }

    #[test]
    fn sub_alltoall_all_algorithms() {
        for algo in [AlltoallAlgo::Pairwise, AlltoallAlgo::Ring, AlltoallAlgo::Bruck] {
            check_sub_alltoall(8, 2, 3, algo); // two groups of 4 (pow2)
            check_sub_alltoall(6, 2, 2, algo); // two groups of 3
        }
    }

    #[test]
    fn concurrent_row_and_col_ialltoalls_do_not_alias() {
        // Every rank posts a row exchange and a column exchange
        // simultaneously, then finishes both in reverse. Distinct split
        // generations must keep the tag spaces disjoint. The 3×2 grid's
        // size-3 columns are the strided world ranks c, c + 2, c + 4: a
        // non-power-of-two exchange over a group that is not a block of
        // world ranks.
        for (pr, pc) in [(2, 3), (3, 2)] {
            check_row_and_col_ialltoalls(pr, pc);
        }
    }

    fn check_row_and_col_ialltoalls(pr: usize, pc: usize) {
        let p = pr * pc;
        let out = run(p, move |c| {
            let r = c.rank();
            let (row, col) = (r / pc, r % pc);
            let mut row_comm = c.split_labeled(row, col, "row");
            let mut col_comm = c.split_labeled(pr + col, row, "col");
            assert_eq!(row_comm.size(), pc);
            assert_eq!(col_comm.size(), pr);
            assert_eq!(row_comm.rank(), col);
            assert_eq!(col_comm.rank(), row);
            let srow: Vec<f64> = (0..pc).map(|j| (r * 10 + j) as f64).collect();
            let scol: Vec<f64> = (0..pr).map(|j| (1000 + r * 10 + j) as f64).collect();
            let hr = row_comm.ialltoall(c, &srow, 1);
            let hc = col_comm.ialltoall(c, &scol, 1);
            let mut rrow = vec![0.0; pc];
            let mut rcol = vec![0.0; pr];
            c.alltoall_finish(hc, &mut rcol);
            c.alltoall_finish(hr, &mut rrow);
            (rrow, rcol)
        });
        for (r, (rrow, rcol)) in out.iter().enumerate() {
            let (row, col) = (r / pc, r % pc);
            for src_c in 0..pc {
                let src_w = row * pc + src_c;
                let want = (src_w * 10 + col) as f64;
                assert_eq!(rrow[src_c], want, "{pr}x{pc} rank {r} row exchange");
            }
            for src_r in 0..pr {
                let src_w = src_r * pc + col;
                let want = (1000 + src_w * 10 + row) as f64;
                assert_eq!(rcol[src_r], want, "{pr}x{pc} rank {r} col exchange");
            }
        }
    }

    #[test]
    fn singleton_subcomm_collectives_are_local() {
        let out = run(3, |c| {
            // Every rank its own color: groups of one.
            let mut sub = c.split(c.rank(), 0);
            assert_eq!(sub.size(), 1);
            let mut v = [c.rank() as f64];
            sub.allreduce(c, &mut v, ReduceOp::Sum);
            let h = sub.ialltoall(c, &[7.0], 1);
            let mut r = [0.0];
            c.alltoall_finish(h, &mut r);
            sub.barrier(c);
            (v[0], r[0])
        });
        for (r, (sum, own)) in out.iter().enumerate() {
            assert_eq!(*sum, r as f64);
            assert_eq!(*own, 7.0);
        }
    }

    #[test]
    fn world_collectives_still_work_after_splits() {
        // Splitting must not disturb world-tag traffic.
        let p = 4;
        let out = run(p, |c| {
            let sub = c.split(c.rank() % 2, 0);
            let mut v = [c.rank() as f64];
            sub.allreduce(c, &mut v, ReduceOp::Sum);
            let mut w = [v[0]];
            c.allreduce(&mut w, ReduceOp::Sum);
            w[0]
        });
        // Group sums: evens 0+2=2, odds 1+3=4; world sum = 2+2+4+4 = 12.
        for &x in &out {
            assert_eq!(x, 12.0);
        }
    }
}
