//! Collective operations over the point-to-point layer.
//!
//! `MPI_Alltoall` gets three algorithms because it is the operation the
//! paper identifies as the application bottleneck ("MPI_Alltoall is the
//! most communication intensive and expensive, straining the networks to
//! their limit"); the ablation bench compares them.
//!
//! Every algorithm body is written against a [`Grp`] — a view that maps
//! *group* ranks to world ranks — so the same implementation serves both
//! the world and the row/column [`crate::subcomm::SubComm`]s of a 2-D
//! process grid (DESIGN.md §13). For the world the map is the identity
//! and `tag_base = 0`, keeping world-collective wire traffic
//! byte-identical to the pre-split implementation.

use crate::comm::{Comm, Tag};
use crate::request::Request;

/// Tags reserved for collectives (top bits set, out of user range).
pub(crate) const TAG_BARRIER: Tag = 1 << 62;
pub(crate) const TAG_REDUCE: Tag = (1 << 62) + (1 << 20);
pub(crate) const TAG_BCAST: Tag = (1 << 62) + (2 << 20);
pub(crate) const TAG_GATHER: Tag = (1 << 62) + (3 << 20);
pub(crate) const TAG_A2A: Tag = (1 << 62) + (4 << 20);
pub(crate) const TAG_IA2A: Tag = (1 << 62) + (5 << 20);
/// `iallreduce` owns two tag slots per generation (reduce phase at
/// `TAG_IARED + 2·gen`, broadcast phase at `+ 1`), so generations run
/// mod 2^19 and the family spans `[6 << 20, 8 << 20)`.
pub(crate) const TAG_IARED: Tag = (1 << 62) + (6 << 20);

/// A collective's view of the participating ranks: the whole world or a
/// [`crate::subcomm::SubComm`] subset. Algorithms address peers by group
/// rank and translate to world ranks only at the send/recv boundary.
/// Sub-communicator collectives add `tag_base` (bit 63 plus the split
/// generation) to every wire tag, so concurrent collectives on sibling
/// sub-communicators and on the world can never alias.
#[derive(Clone, Copy)]
pub(crate) struct Grp<'a> {
    /// World ranks in group-rank order; `None` means the identity map.
    pub(crate) ranks: Option<&'a [usize]>,
    /// Calling rank's group rank.
    pub(crate) me: usize,
    /// Group size.
    pub(crate) p: usize,
    /// Added to every collective tag; 0 for the world.
    pub(crate) tag_base: Tag,
}

impl Grp<'_> {
    #[inline]
    pub(crate) fn world_of(&self, g: usize) -> usize {
        match self.ranks {
            Some(v) => v[g],
            None => g,
        }
    }
}

/// Reduction operator for [`Comm::allreduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
}

impl ReduceOp {
    pub(crate) fn apply(self, acc: &mut [f64], other: &[f64]) {
        for (a, b) in acc.iter_mut().zip(other) {
            *a = match self {
                ReduceOp::Sum => *a + b,
                ReduceOp::Min => a.min(*b),
                ReduceOp::Max => a.max(*b),
            };
        }
    }
}

/// An in-flight nonblocking alltoall posted by [`Comm::ialltoall`] or
/// [`crate::subcomm::SubComm::ialltoall`]; complete it with
/// [`Comm::alltoall_finish`].
pub struct AlltoallHandle {
    /// Receive requests, one per partner, in posting (= waiting) order.
    reqs: Vec<Request>,
    /// Destination block index (the source's *group* rank) per request.
    partners: Vec<usize>,
    /// This rank's own block, copied at post time so the caller may
    /// reuse the send buffer immediately.
    own: Vec<f64>,
    /// Block index where `own` lands (this rank's group rank).
    own_idx: usize,
    block: usize,
    /// Profiler op name for the completion wait (world: `ialltoall`;
    /// sub-communicators: `ialltoall.<label>`).
    op: &'static str,
    /// Invocation counter bumped by the completion wait.
    wait_counter: &'static str,
}

impl AlltoallHandle {
    /// Block size (f64s per rank) of the posted exchange.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Number of outstanding partner exchanges.
    pub fn partners(&self) -> usize {
        self.reqs.len()
    }
}

/// An in-flight nonblocking allreduce posted by [`Comm::iallreduce`];
/// complete it with [`Comm::allreduce_finish`].
///
/// The split-phase schedule mirrors the blocking binomial tree exactly
/// (same combine order, so results are **bitwise identical** to
/// [`Comm::allreduce`]): at post time every rank pre-posts the receives
/// for its tree children, and pure leaves — ranks with no children —
/// fire their contribution upward immediately, so that message's wire
/// time accrues while the caller computes. The completion wait drains
/// children in tree order, forwards to the parent, and runs the
/// broadcast phase.
#[must_use = "an iallreduce must be completed with Comm::allreduce_finish"]
pub struct AllreduceHandle {
    /// This rank's contribution; the finish combines children into it.
    data: Vec<f64>,
    /// Receive requests for tree children, in mask (= combine) order.
    child_reqs: Vec<Request>,
    /// True when this rank is a pure leaf whose upward send was already
    /// posted at `iallreduce` time.
    sent: bool,
    op: ReduceOp,
    /// Reduce-phase tag (the broadcast phase uses `tag + 1`).
    tag: Tag,
    /// Profiler op name for the completion wait.
    op_name: &'static str,
    /// Invocation counter bumped by the completion wait.
    wait_counter: &'static str,
}

impl AllreduceHandle {
    /// Element count of the posted reduction.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the reduction payload is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// `MPI_Alltoall` algorithm selector: the ablation axis of
/// `ablation_alltoall`, through [`Comm::alltoall_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlltoallAlgo {
    /// XOR pairwise exchange (power-of-two rank counts; falls back to ring
    /// otherwise). One disjoint-pairs round per step — bandwidth-optimal.
    Pairwise,
    /// Ring: step s sends to rank+s, receives from rank−s. Works for any
    /// P; each round is a full permutation.
    Ring,
    /// Bruck's algorithm: ⌈log₂P⌉ rounds of aggregated blocks — fewer,
    /// larger messages; wins in the latency-bound regime.
    Bruck,
}

impl Comm {
    /// The trivial [`Grp`]: the world itself (identity rank map, tag
    /// base 0, so world collectives are wire-identical to the pre-`Grp`
    /// implementation).
    pub(crate) fn world_grp(&self) -> Grp<'static> {
        Grp { ranks: None, me: self.rank(), p: self.size(), tag_base: 0 }
    }

    /// Runs one collective body under its trace span (virtual-time
    /// endpoints from [`Comm::wtime`]), bumps its invocation counter, and
    /// labels this rank's recv blocking sites with the collective's name
    /// for the duration. All three are no-ops when tracing is off except
    /// for two field writes.
    ///
    /// Public so higher-level communication layers (e.g. `nkt-gs`
    /// gather-scatter) appear in profiles as first-class ops instead of
    /// anonymous `p2p` traffic; `op` and `counter` must be static.
    pub fn traced<T>(
        &mut self,
        op: &'static str,
        counter: &'static str,
        body: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let prev = self.op_label;
        self.op_label = op;
        nkt_trace::counter_add(counter, 1);
        let sp = nkt_trace::span_v(op, "mpi", self.wtime());
        let t0 = self.wtime();
        let out = body(self);
        sp.end_v(self.wtime());
        // Flight recorder: always on (unlike the span above, which needs
        // NKT_TRACE=spans), so a crashed run can show its last ops.
        nkt_trace::flight::note(op, "mpi", t0, self.wtime(), f64::NAN);
        self.op_label = prev;
        out
    }

    /// Synchronizes all ranks (dissemination barrier, ⌈log₂P⌉ rounds).
    /// On return every rank's clock is ≥ every other rank's clock at
    /// entry.
    pub fn barrier(&mut self) {
        let g = self.world_grp();
        self.traced("barrier", "mpi.coll.barrier", |c| c.grp_barrier(g))
    }

    pub(crate) fn grp_barrier(&mut self, g: Grp<'_>) {
        let p = g.p;
        if p == 1 {
            return;
        }
        let mut k = 0u32;
        let mut dist = 1usize;
        while dist < p {
            let dest = (g.me + dist) % p;
            let src = (g.me + p - dist % p) % p;
            let tag = g.tag_base + TAG_BARRIER + k as Tag;
            self.send(g.world_of(dest), tag, &[]);
            self.recv(Some(g.world_of(src)), Some(tag));
            dist <<= 1;
            k += 1;
        }
    }

    /// Elementwise allreduce: after the call every rank holds the
    /// reduction of all ranks' `data`. Binomial reduce-to-0 then binomial
    /// broadcast.
    pub fn allreduce(&mut self, data: &mut [f64], op: ReduceOp) {
        let g = self.world_grp();
        self.traced("allreduce", "mpi.coll.allreduce", |c| {
            let root = 0;
            c.grp_reduce_to(g, root, data, op);
            c.grp_bcast(g, root, data);
        })
    }

    /// Fused min/max/sum allreduce: the three buffers travel as one
    /// packed message `[mn | mx | sums]` through a single reduce+bcast
    /// tree, with each segment combined under its own operator. One
    /// collective instead of three — the statistics sampler's pattern
    /// ("Global Addition, min, max for any runtime flow statistics").
    ///
    /// The combiner applies `f64::min` / `f64::max` / `+` elementwise in
    /// the same tree order [`Comm::allreduce`] uses, so the results are
    /// **bitwise identical** to three separate allreduces (asserted by
    /// `nektar`'s `fused_minmaxsum_bitwise_matches_three_allreduces`).
    pub fn allreduce_minmaxsum(&mut self, mn: &mut [f64], mx: &mut [f64], sums: &mut [f64]) {
        let (nm, nx) = (mn.len(), mx.len());
        let mut buf = Vec::with_capacity(nm + nx + sums.len());
        buf.extend_from_slice(mn);
        buf.extend_from_slice(mx);
        buf.extend_from_slice(sums);
        let g = self.world_grp();
        self.traced("allreduce", "mpi.coll.allreduce_minmaxsum", |c| {
            let root = 0;
            c.grp_reduce_with(g, root, &mut buf, |acc, other| {
                ReduceOp::Min.apply(&mut acc[..nm], &other[..nm]);
                ReduceOp::Max.apply(&mut acc[nm..nm + nx], &other[nm..nm + nx]);
                ReduceOp::Sum.apply(&mut acc[nm + nx..], &other[nm + nx..]);
            });
            c.grp_bcast(g, root, &mut buf);
        });
        mn.copy_from_slice(&buf[..nm]);
        mx.copy_from_slice(&buf[nm..nm + nx]);
        sums.copy_from_slice(&buf[nm + nx..]);
    }

    pub(crate) fn grp_reduce_to(&mut self, g: Grp<'_>, root: usize, data: &mut [f64], op: ReduceOp) {
        self.grp_reduce_with(g, root, data, |acc, other| op.apply(acc, other))
    }

    /// The binomial reduce tree with a caller-supplied combiner, so
    /// segmented reductions ([`Comm::allreduce_minmaxsum`]) reuse the
    /// exact tree shape — and therefore the exact combine order — of the
    /// single-op path.
    pub(crate) fn grp_reduce_with(
        &mut self,
        g: Grp<'_>,
        root: usize,
        data: &mut [f64],
        combine: impl Fn(&mut [f64], &[f64]),
    ) {
        let p = g.p;
        if p == 1 {
            return;
        }
        // Binomial tree rooted at `root`: operate on relative group ranks.
        let rel = (g.me + p - root) % p;
        let mut mask = 1usize;
        while mask < p {
            if rel & mask != 0 {
                // Send partial to the parent (this bit cleared) and stop.
                let parent = ((rel & !mask) + root) % p;
                self.send(g.world_of(parent), g.tag_base + TAG_REDUCE, data);
                break;
            } else if (rel | mask) < p {
                let child = ((rel | mask) + root) % p;
                let msg = self.recv(Some(g.world_of(child)), Some(g.tag_base + TAG_REDUCE));
                combine(data, &msg.data);
            }
            mask <<= 1;
        }
    }

    /// Broadcasts `data` from `root` to all ranks (binomial tree).
    pub fn bcast(&mut self, root: usize, data: &mut [f64]) {
        let g = self.world_grp();
        self.traced("bcast", "mpi.coll.bcast", |c| c.grp_bcast(g, root, data))
    }

    pub(crate) fn grp_bcast(&mut self, g: Grp<'_>, root: usize, data: &mut [f64]) {
        self.grp_bcast_tag(g, root, data, g.tag_base + TAG_BCAST)
    }

    /// The binomial broadcast with an explicit wire tag, so nonblocking
    /// collectives ([`Comm::allreduce_finish`]) can run their broadcast
    /// phase in a per-generation tag slot instead of the shared
    /// `TAG_BCAST` space.
    pub(crate) fn grp_bcast_tag(&mut self, g: Grp<'_>, root: usize, data: &mut [f64], tag: Tag) {
        let p = g.p;
        if p == 1 {
            return;
        }
        let rel = (g.me + p - root) % p;
        // Find the highest power-of-two ≤ p.
        let mut top = 1usize;
        while top < p {
            top <<= 1;
        }
        // Receive once from the parent (unless root), then forward down.
        if rel != 0 {
            let parent_rel = rel & (rel - 1); // clear lowest set bit
            let parent = (parent_rel + root) % p;
            let msg = self.recv(Some(g.world_of(parent)), Some(tag));
            data.copy_from_slice(&msg.data);
        }
        // Children: rel + bit for bits below the lowest set bit of rel.
        let low = if rel == 0 { top } else { rel & rel.wrapping_neg() };
        let mut bit = low >> 1;
        while bit > 0 {
            let child_rel = rel | bit;
            if child_rel < p && child_rel != rel {
                let child = (child_rel + root) % p;
                self.send(g.world_of(child), tag, data);
            }
            bit >>= 1;
        }
    }

    /// Gathers each rank's `data` on `root`; returns `Some(rows)` on root
    /// (rows in rank order), `None` elsewhere.
    pub fn gather(&mut self, root: usize, data: &[f64]) -> Option<Vec<Vec<f64>>> {
        let g = self.world_grp();
        self.traced("gather", "mpi.coll.gather", |c| c.grp_gather(g, root, data))
    }

    pub(crate) fn grp_gather(
        &mut self,
        g: Grp<'_>,
        root: usize,
        data: &[f64],
    ) -> Option<Vec<Vec<f64>>> {
        if g.me == root {
            let mut rows: Vec<Vec<f64>> = vec![Vec::new(); g.p];
            rows[root] = data.to_vec();
            // Receive in rank order, not any-source: the order the root
            // absorbs arrivals drags its virtual clock, and a wildcard
            // recv would take whichever message landed first in *host*
            // order — nondeterministic virtual time (the eager buffers
            // hold every message regardless, so no wall time is saved).
            for src in (0..g.p).filter(|&s| s != root) {
                let msg = self.recv(Some(g.world_of(src)), Some(g.tag_base + TAG_GATHER));
                rows[src] = msg.data;
            }
            Some(rows)
        } else {
            self.send(g.world_of(root), g.tag_base + TAG_GATHER, data);
            None
        }
    }

    /// `MPI_Alltoall` with equal block size: `send` holds `size()` blocks
    /// of `block` f64s (block j goes to rank j); `recv` receives block i
    /// from rank i. Uses [`AlltoallAlgo::Pairwise`].
    pub fn alltoall(&mut self, send: &[f64], block: usize, recv: &mut [f64]) {
        self.alltoall_with(AlltoallAlgo::Pairwise, send, block, recv);
    }

    /// `MPI_Alltoall` with an explicit algorithm.
    ///
    /// # Panics
    /// Panics if the buffers are shorter than `size() * block`.
    pub fn alltoall_with(
        &mut self,
        algo: AlltoallAlgo,
        send: &[f64],
        block: usize,
        recv: &mut [f64],
    ) {
        let g = self.world_grp();
        self.traced("alltoall", "mpi.coll.alltoall", |c| {
            c.grp_alltoall_with(g, algo, send, block, recv)
        })
    }

    pub(crate) fn grp_alltoall_with(
        &mut self,
        g: Grp<'_>,
        algo: AlltoallAlgo,
        send: &[f64],
        block: usize,
        recv: &mut [f64],
    ) {
        let p = g.p;
        assert!(send.len() >= p * block, "alltoall: send buffer too short");
        assert!(recv.len() >= p * block, "alltoall: recv buffer too short");
        let r = g.me;
        // Own block never crosses the network.
        recv[r * block..(r + 1) * block].copy_from_slice(&send[r * block..(r + 1) * block]);
        if p == 1 {
            return;
        }
        match algo {
            AlltoallAlgo::Pairwise if p.is_power_of_two() => {
                for step in 1..p {
                    let partner = r ^ step;
                    // Disjoint pairs this round: (i, i^step) for i < i^step.
                    let pairs: Vec<(usize, usize)> = (0..p)
                        .filter(|&i| i < i ^ step)
                        .map(|i| (g.world_of(i), g.world_of(i ^ step)))
                        .collect();
                    self.apply_round_contention(&pairs, 8 * block);
                    let tag = g.tag_base + TAG_A2A + step as Tag;
                    let got = self.sendrecv(
                        g.world_of(partner),
                        tag,
                        &send[partner * block..(partner + 1) * block],
                        g.world_of(partner),
                        tag,
                    );
                    recv[partner * block..(partner + 1) * block].copy_from_slice(&got);
                    self.clear_contention();
                }
            }
            AlltoallAlgo::Pairwise | AlltoallAlgo::Ring => {
                for step in 1..p {
                    let dest = (r + step) % p;
                    let src = (r + p - step) % p;
                    let pairs: Vec<(usize, usize)> =
                        (0..p).map(|i| (g.world_of(i), g.world_of((i + step) % p))).collect();
                    self.apply_round_contention(&pairs, 8 * block);
                    let tag = g.tag_base + TAG_A2A + step as Tag;
                    self.send(g.world_of(dest), tag, &send[dest * block..(dest + 1) * block]);
                    let msg = self.recv(Some(g.world_of(src)), Some(tag));
                    recv[src * block..(src + 1) * block].copy_from_slice(&msg.data);
                    self.clear_contention();
                }
            }
            AlltoallAlgo::Bruck => self.grp_alltoall_bruck(g, send, block, recv),
        }
    }

    /// Posts a nonblocking alltoall and returns a handle to complete it
    /// with [`Comm::alltoall_finish`]. Built on pairwise requests: one
    /// `irecv` + `isend` per partner (XOR order for power-of-two worlds,
    /// ring order otherwise), all posted up front.
    ///
    /// Network charges accrue from post time under the same
    /// full-exchange contention derate a blocking round pays
    /// ([`nkt_net::ClusterNetwork::exchange_derate`]), so compute
    /// performed between posting and finishing genuinely overlaps the
    /// wire time in `wtime` while `busy` matches the blocking pairwise
    /// path message for message. Several exchanges may be in flight at
    /// once; each call gets a fresh tag generation.
    ///
    /// # Panics
    /// Panics if `send` is shorter than `size() * block`.
    pub fn ialltoall(&mut self, send: &[f64], block: usize) -> AlltoallHandle {
        let gen = self.ia2a_gen;
        self.ia2a_gen = (self.ia2a_gen + 1) % (1 << 20);
        let g = self.world_grp();
        self.grp_ialltoall(
            g,
            TAG_IA2A + gen,
            "ialltoall",
            "mpi.coll.ialltoall",
            "mpi.coll.ialltoall.wait",
            send,
            block,
        )
    }

    pub(crate) fn grp_ialltoall(
        &mut self,
        g: Grp<'_>,
        tag: Tag,
        op: &'static str,
        counter: &'static str,
        wait_counter: &'static str,
        send: &[f64],
        block: usize,
    ) -> AlltoallHandle {
        let p = g.p;
        assert!(send.len() >= p * block, "ialltoall: send buffer too short");
        nkt_trace::counter_add(counter, 1);
        let r = g.me;
        let own = send[r * block..(r + 1) * block].to_vec();
        let mut reqs = Vec::with_capacity(p.saturating_sub(1));
        let mut partners = Vec::with_capacity(p.saturating_sub(1));
        if p > 1 {
            // The posted isends carry the collective's name so the
            // profiler attributes their spans to this op, not `p2p`.
            let prev = self.op_label;
            self.op_label = op;
            // Post every receive first (so arriving payloads bind
            // directly), then every send under the exchange derate.
            if p.is_power_of_two() {
                for step in 1..p {
                    let partner = r ^ step;
                    reqs.push(self.irecv(Some(g.world_of(partner)), Some(tag)));
                    partners.push(partner);
                }
                let derate = self.network().exchange_derate(p, 8 * block);
                self.set_contention(derate);
                for step in 1..p {
                    let partner = r ^ step;
                    self.isend(
                        g.world_of(partner),
                        tag,
                        &send[partner * block..(partner + 1) * block],
                    );
                }
                self.clear_contention();
            } else {
                for step in 1..p {
                    let src = (r + p - step) % p;
                    reqs.push(self.irecv(Some(g.world_of(src)), Some(tag)));
                    partners.push(src);
                }
                let derate = self.network().exchange_derate(p, 8 * block);
                self.set_contention(derate);
                for step in 1..p {
                    let dest = (r + step) % p;
                    self.isend(g.world_of(dest), tag, &send[dest * block..(dest + 1) * block]);
                }
                self.clear_contention();
            }
            self.op_label = prev;
        }
        AlltoallHandle { reqs, partners, own, own_idx: r, block, op, wait_counter }
    }

    /// Completes a posted [`Comm::ialltoall`], scattering the received
    /// blocks into `recv` (block `i` from group rank `i`). Waits partner
    /// by partner in posting order, which keeps the virtual-time charges
    /// deterministic; interleave overlapped compute *before* this call.
    ///
    /// # Panics
    /// Panics if `recv` is shorter than `group size * block`.
    pub fn alltoall_finish(&mut self, h: AlltoallHandle, recv: &mut [f64]) {
        let block = h.block;
        let nblocks = h.reqs.len() + 1;
        assert!(recv.len() >= nblocks * block, "alltoall_finish: recv buffer too short");
        recv[h.own_idx * block..(h.own_idx + 1) * block].copy_from_slice(&h.own);
        self.traced(h.op, h.wait_counter, |c| {
            for (req, &src) in h.reqs.iter().zip(&h.partners) {
                let msg = c.wait(req);
                recv[src * block..(src + 1) * block].copy_from_slice(&msg.data);
            }
        });
    }

    /// Posts a nonblocking allreduce and returns a handle to complete it
    /// with [`Comm::allreduce_finish`]. The reduction runs the same
    /// root-0 binomial reduce + binomial broadcast as the blocking
    /// [`Comm::allreduce`], in the same combine order, so the completed
    /// result is **bitwise identical** — only the schedule differs:
    ///
    /// * every rank pre-posts the receives for its tree children, so
    ///   arriving partials bind directly instead of queueing;
    /// * pure leaves (ranks with no tree children — half the world)
    ///   `isend` their contribution at post time, so its network charge
    ///   accrues while the caller computes between post and finish.
    ///
    /// Interior tree ranks cannot forward until their children arrive,
    /// so their upward send happens in [`Comm::allreduce_finish`]; the
    /// overlap win is the leaf wave plus the pre-posted bindings.
    /// Several reductions may be in flight at once; each call gets a
    /// fresh tag generation. World-communicator only (the gather-scatter
    /// tree stage's shape); sub-communicators keep the blocking path.
    pub fn iallreduce(&mut self, data: &[f64], op: ReduceOp) -> AllreduceHandle {
        let gen = self.iared_gen;
        self.iared_gen = (self.iared_gen + 1) % (1 << 19);
        let tag = TAG_IARED + 2 * gen;
        nkt_trace::counter_add("mpi.coll.iallreduce", 1);
        let g = self.world_grp();
        let p = g.p;
        let rel = g.me; // root is rank 0: relative rank = rank
        let buf = data.to_vec();
        let mut child_reqs = Vec::new();
        let mut sent = false;
        if p > 1 {
            let prev = self.op_label;
            self.op_label = "iallreduce";
            // Post child receives in mask order — the combine order of
            // the blocking binomial tree — stopping at the parent mask.
            let mut mask = 1usize;
            let mut parent_mask = None;
            while mask < p {
                if rel & mask != 0 {
                    parent_mask = Some(mask);
                    break;
                }
                if (rel | mask) < p {
                    child_reqs.push(self.irecv(Some(g.world_of(rel | mask)), Some(tag)));
                }
                mask <<= 1;
            }
            // A pure leaf has nothing to combine: fire upward now so the
            // message is on the wire during the caller's overlap window.
            if let Some(mask) = parent_mask {
                if child_reqs.is_empty() {
                    self.isend(g.world_of(rel & !mask), tag, &buf);
                    sent = true;
                }
            }
            self.op_label = prev;
        }
        AllreduceHandle {
            data: buf,
            child_reqs,
            sent,
            op,
            tag,
            op_name: "iallreduce",
            wait_counter: "mpi.coll.iallreduce.wait",
        }
    }

    /// Completes a posted [`Comm::iallreduce`]: drains the children in
    /// tree order, forwards the partial to the parent (unless this rank
    /// was a pure leaf that already sent at post time), runs the
    /// broadcast phase, and writes the full reduction into `out`.
    ///
    /// # Panics
    /// Panics if `out` is shorter than the posted payload.
    pub fn allreduce_finish(&mut self, h: AllreduceHandle, out: &mut [f64]) {
        let AllreduceHandle { mut data, child_reqs, sent, op, tag, op_name, wait_counter } = h;
        assert!(out.len() >= data.len(), "allreduce_finish: out buffer too short");
        let g = self.world_grp();
        let p = g.p;
        self.traced(op_name, wait_counter, |c| {
            if p > 1 {
                let rel = g.me;
                let mut reqs = child_reqs.iter();
                let mut mask = 1usize;
                while mask < p {
                    if rel & mask != 0 {
                        if !sent {
                            c.send(g.world_of(rel & !mask), tag, &data);
                        }
                        break;
                    }
                    if (rel | mask) < p {
                        let msg = c.wait(reqs.next().expect("one request per child"));
                        op.apply(&mut data, &msg.data);
                    }
                    mask <<= 1;
                }
                c.grp_bcast_tag(g, 0, &mut data, tag + 1);
            }
        });
        out[..data.len()].copy_from_slice(&data);
    }

    /// Bruck's log-round alltoall.
    fn grp_alltoall_bruck(&mut self, g: Grp<'_>, send: &[f64], block: usize, recv: &mut [f64]) {
        let p = g.p;
        let r = g.me;
        // Phase 1: local rotation — tmp[i] = send[(r + i) mod p].
        let mut tmp = vec![0.0f64; p * block];
        for i in 0..p {
            let srcb = (r + i) % p;
            tmp[i * block..(i + 1) * block]
                .copy_from_slice(&send[srcb * block..(srcb + 1) * block]);
        }
        // Phase 2: log rounds. In round k, send blocks whose index has bit
        // k set to rank + 2^k (wrapping), receive from rank − 2^k.
        let mut k = 0u32;
        while (1usize << k) < p {
            let dist = 1usize << k;
            let dest = (r + dist) % p;
            let src = (r + p - dist) % p;
            let idxs: Vec<usize> = (0..p).filter(|i| i & dist != 0).collect();
            let mut payload = Vec::with_capacity(idxs.len() * block);
            for &i in &idxs {
                payload.extend_from_slice(&tmp[i * block..(i + 1) * block]);
            }
            let pairs: Vec<(usize, usize)> =
                (0..p).map(|i| (g.world_of(i), g.world_of((i + dist) % p))).collect();
            self.apply_round_contention(&pairs, 8 * payload.len());
            let tag = g.tag_base + TAG_A2A + (1 << 16) + k as Tag;
            self.send(g.world_of(dest), tag, &payload);
            let msg = self.recv(Some(g.world_of(src)), Some(tag));
            self.clear_contention();
            for (j, &i) in idxs.iter().enumerate() {
                tmp[i * block..(i + 1) * block]
                    .copy_from_slice(&msg.data[j * block..(j + 1) * block]);
            }
            k += 1;
        }
        // Phase 3: inverse rotation — recv[(r - i) mod p] = tmp[i].
        for i in 0..p {
            let dstb = (r + p - i) % p;
            recv[dstb * block..(dstb + 1) * block].copy_from_slice(&tmp[i * block..(i + 1) * block]);
        }
    }

    /// Derates per-message bandwidth so the per-pair charge reproduces the
    /// aggregate round time (bisection cap / shared-medium serialization).
    fn apply_round_contention(&mut self, pairs: &[(usize, usize)], bytes: usize) {
        if pairs.is_empty() || bytes == 0 {
            self.clear_contention();
            return;
        }
        let round = self.network().round_time(pairs, bytes);
        let single = pairs
            .iter()
            .map(|&(a, b)| self.network().channel_between(a, b).time(bytes))
            .fold(0.0f64, f64::max);
        if single > 0.0 {
            self.set_contention(round / single);
        }
    }
}

#[cfg(test)]
mod tests {
    // Collective behaviour is tested through the world harness in
    // `world.rs` tests, the sub-communicator tests in `subcomm.rs`, and
    // the crate-level integration tests, where real rank threads exist.
}
