//! Per-rank communicator: point-to-point messaging with virtual-time
//! accounting, blocking and nonblocking.

use crate::diag::{BlockSite, BlockTable};
use crate::error::MpiError;
use crate::request::{Request, SendRequest};
use nkt_net::ClusterNetwork;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Message tag type (like MPI's integer tags).
pub type Tag = u64;

/// An in-flight message: real payload plus its virtual arrival time.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sending rank.
    pub src: usize,
    /// User tag.
    pub tag: Tag,
    /// Send sequence number on the `(src, dst)` edge: the sender's n-th
    /// message to this destination. `(src, dst, seq)` names a message
    /// globally — the happens-before edge key `nkt-prof` uses to match
    /// send and receive spans when extracting the critical path.
    pub seq: u64,
    /// Payload (f64s — the solver's currency; byte size is `8 × len`).
    pub data: Vec<f64>,
    /// Virtual time at which the message is fully delivered at the
    /// receiver, per the network model.
    pub arrival: f64,
}

/// Per-rank traffic totals, maintained unconditionally (five integer
/// bumps per message — cheap enough to never gate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Messages sent.
    pub sent_msgs: u64,
    /// Payload bytes sent (8 × f64 count).
    pub sent_bytes: u64,
    /// Messages received (matched and absorbed).
    pub recvd_msgs: u64,
    /// Payload bytes received.
    pub recvd_bytes: u64,
    /// High-water mark of the unmatched-message queue.
    pub pending_peak: u64,
}

/// Lifecycle of one posted receive in the request table.
enum ReqState {
    /// Posted, no matching message yet.
    Posted,
    /// A matching message is physically buffered; virtual completion
    /// (time charge) has not happened yet.
    Bound(Message),
    /// Completed: waited (or tested true) and charged. Kept so repeat
    /// waits on the same handle stay idempotent.
    Done(Message),
}

/// One posted receive: the match pattern plus its state.
struct ReqSlot {
    id: u64,
    src: Option<usize>,
    tag: Option<Tag>,
    state: ReqState,
    /// Virtual clock when the receive was posted (recv-span `posted`
    /// argument; lets the profiler see how early the receive was
    /// prepared relative to the message's arrival).
    posted_at: f64,
}

/// Completed requests are retained (for idempotent re-waits) until the
/// table grows past this many slots, at which point old `Done` entries
/// are compacted away deterministically.
const REQ_TABLE_CAP: usize = 8192;
/// How many of the newest requests survive a compaction regardless of
/// state.
const REQ_KEEP_NEWEST: u64 = 1024;

/// The per-rank communicator handle.
///
/// Created by [`crate::World`]; one per rank thread. All timing is
/// virtual: [`Comm::wtime`] only moves when messages are charged or
/// [`Comm::advance`] is called.
pub struct Comm {
    rank: usize,
    size: usize,
    net: Arc<ClusterNetwork>,
    txs: Vec<Sender<Message>>,
    rx: Receiver<Message>,
    /// Set by any rank that unwinds; receivers poll it so a dead peer
    /// cannot leave the world blocked (every rank holds a sender clone
    /// to every rank — itself included — so channel disconnection alone
    /// can never wake a receiver whose peer died).
    poison: Arc<AtomicBool>,
    /// Unmatched messages already pulled off the channel.
    pending: VecDeque<Message>,
    /// Posted nonblocking receives, in post order (the matching order).
    reqs: Vec<ReqSlot>,
    /// Next request id (send and receive requests share the sequence).
    next_req_id: u64,
    /// Tag generation for `ialltoall`, so several exchanges between the
    /// same pair can be in flight without aliasing (all ranks post
    /// collectives in the same order, so generations agree globally).
    pub(crate) ia2a_gen: Tag,
    /// Tag generation for `iallreduce` (same global-agreement argument as
    /// `ia2a_gen`; a separate counter so interleaved nonblocking
    /// collectives of different kinds never perturb each other's tags).
    pub(crate) iared_gen: Tag,
    /// Virtual wall clock, seconds.
    clock: f64,
    /// Virtual CPU (busy) time, seconds.
    busy: f64,
    /// Virtual time until which this rank's egress link is busy
    /// serializing earlier sends (see `Channel::completion_at`). A burst
    /// of posted sends drains progressively instead of arriving at once.
    nic_free: f64,
    /// Bandwidth derating applied to sends while inside a collective whose
    /// round uses more aggregate bandwidth than the fabric has (set by the
    /// collective implementations).
    pub(crate) contention: f64,
    /// Traffic totals for diagnostics and trace export.
    stats: CommStats,
    /// Next send sequence number per destination (see [`Message::seq`]).
    send_seq: Vec<u64>,
    /// Per-peer `(msgs, bytes)` sent, for the profiler's comm matrix.
    peer_sent: Vec<(u64, u64)>,
    /// Per-peer `(msgs, bytes)` received.
    peer_recvd: Vec<(u64, u64)>,
    /// World-shared table of per-rank blocking sites.
    blocked: Arc<BlockTable>,
    /// Host-time cap on a single `recv`/`wait` (None = wait forever).
    recv_deadline: Option<Duration>,
    /// Which communication operation the current recv belongs to; the
    /// collectives set this around their exchanges so blocking-site dumps
    /// name `allreduce`/`alltoall`/... instead of the generic `p2p`.
    pub(crate) op_label: &'static str,
    /// Generation counter for [`Comm::split`]: splits are collective and
    /// posted in the same order on every rank, so the counter agrees
    /// globally and gives each split a disjoint sub-communicator tag
    /// space.
    pub(crate) split_gen: u64,
}

impl Comm {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        rank: usize,
        size: usize,
        net: Arc<ClusterNetwork>,
        txs: Vec<Sender<Message>>,
        rx: Receiver<Message>,
        poison: Arc<AtomicBool>,
        blocked: Arc<BlockTable>,
        recv_deadline: Option<Duration>,
    ) -> Self {
        Comm {
            rank,
            size,
            net,
            txs,
            rx,
            poison,
            pending: VecDeque::new(),
            reqs: Vec::new(),
            next_req_id: 0,
            ia2a_gen: 0,
            iared_gen: 0,
            clock: 0.0,
            busy: 0.0,
            nic_free: 0.0,
            contention: 1.0,
            stats: CommStats::default(),
            send_seq: vec![0; size],
            peer_sent: vec![(0, 0); size],
            peer_recvd: vec![(0, 0); size],
            blocked,
            recv_deadline,
            op_label: "p2p",
            split_gen: 0,
        }
    }

    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The network model this world runs on.
    pub fn network(&self) -> &ClusterNetwork {
        &self.net
    }

    /// Virtual wall-clock time in seconds (the `MPI_Wtime` of the paper's
    /// measurements).
    pub fn wtime(&self) -> f64 {
        self.clock
    }

    /// Virtual CPU time in seconds (the paper's `clock()` measurements).
    /// `wtime() - busy()` is idle time "associated with network
    /// inefficiency".
    pub fn busy(&self) -> f64 {
        self.busy
    }

    /// Charges `seconds` of local computation to both ledgers.
    pub fn advance(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0, "advance: negative time");
        self.clock += seconds;
        self.busy += seconds;
    }

    fn matches(src: Option<usize>, tag: Option<Tag>, msg: &Message) -> bool {
        src.is_none_or(|s| s == msg.src) && tag.is_none_or(|t| t == msg.tag)
    }

    /// Sends `data` to `dest` with `tag`. Non-blocking eager semantics:
    /// the payload is buffered at the destination; the sender is charged
    /// its CPU overhead only. The arrival time accrues from now: the
    /// message departs when the egress link frees up and crosses the wire
    /// under the current contention derate.
    ///
    /// # Panics
    /// Panics if `dest` is out of range or the destination has hung up.
    pub fn send(&mut self, dest: usize, tag: Tag, data: &[f64]) {
        assert!(dest < self.size, "send: bad destination {dest}");
        let bytes = 8 * data.len();
        let ch = self.net.channel_between(self.rank, dest);
        let overhead = ch.overhead_us * 1e-6;
        // Sender CPU pays the protocol overhead; the wire determines
        // arrival at the destination.
        let t0 = self.clock;
        self.clock += overhead;
        self.busy += overhead;
        let (arrival, nic_free) =
            ch.completion_at(self.clock, self.nic_free, bytes, self.contention);
        self.nic_free = nic_free;
        self.stats.sent_msgs += 1;
        self.stats.sent_bytes += bytes as u64;
        self.peer_sent[dest].0 += 1;
        self.peer_sent[dest].1 += bytes as u64;
        nkt_trace::histogram_record("mpi.p2p.send.bytes", bytes as u64);
        let seq = self.send_seq[dest];
        self.send_seq[dest] += 1;
        nkt_trace::record_vspan_args(
            self.op_label,
            "mpi.p2p.send",
            t0,
            self.clock,
            &[
                ("peer", dest as f64),
                ("bytes", bytes as f64),
                ("seq", seq as f64),
                ("tag", tag as f64),
                ("arrival", arrival),
            ],
        );
        let msg = Message { src: self.rank, tag, seq, data: data.to_vec(), arrival };
        self.txs[dest].send(msg).expect("send: destination rank terminated");
    }

    /// Posts a nonblocking send. Under the runtime's eager semantics the
    /// payload is buffered at the destination immediately, so the request
    /// is born complete; time charges are identical to [`Comm::send`].
    pub fn isend(&mut self, dest: usize, tag: Tag, data: &[f64]) -> SendRequest {
        self.send(dest, tag, data);
        nkt_trace::counter_add("mpi.req.isend", 1);
        let id = self.next_req_id;
        self.next_req_id += 1;
        SendRequest { id }
    }

    /// Posts a nonblocking receive matching `src`/`tag` (None = wildcard)
    /// and returns its typed handle. Posting charges no time; the
    /// receiver-side overhead is charged at completion ([`Comm::wait`] or
    /// a successful [`Comm::test`]).
    ///
    /// Matching follows MPI's non-overtaking rule: an incoming message
    /// binds to the *oldest* posted receive it matches; a message already
    /// sitting in the unmatched queue binds here immediately.
    pub fn irecv(&mut self, src: Option<usize>, tag: Option<Tag>) -> Request {
        nkt_trace::counter_add("mpi.req.irecv", 1);
        let id = self.next_req_id;
        self.next_req_id += 1;
        let state = match self
            .pending
            .iter()
            .position(|m| Self::matches(src, tag, m))
        {
            Some(pos) => {
                let msg = self.pending.remove(pos).expect("position came from iter");
                ReqState::Bound(msg)
            }
            None => ReqState::Posted,
        };
        let posted_at = self.clock;
        self.reqs.push(ReqSlot { id, src, tag, state, posted_at });
        self.compact_reqs();
        Request { id }
    }

    /// Number of posted-but-incomplete receives (diagnostics; shows up in
    /// blocking-site dumps and the quiesce accounting).
    pub fn posted_requests(&self) -> usize {
        self.reqs.iter().filter(|s| matches!(s.state, ReqState::Posted)).count()
    }

    /// Tests a posted receive for completion without blocking. Returns
    /// `true` — and performs the completion, charging the receiver
    /// overhead — once a matching message has both physically arrived
    /// *and* its virtual arrival time is ≤ this rank's clock. A `false`
    /// result charges nothing. Testing an already-completed request
    /// returns `true` without re-charging.
    ///
    /// Note the clock condition makes `test` order-sensitive by design:
    /// interleaving compute (`advance`) lets later tests succeed. For
    /// deterministic timing, complete requests in a fixed order (see
    /// [`Comm::waitall`]).
    pub fn test(&mut self, req: &Request) -> bool {
        nkt_trace::counter_add("mpi.req.test", 1);
        self.poll_channel();
        let i = self.slot_index(req.id);
        match &self.reqs[i].state {
            ReqState::Done(_) => true,
            ReqState::Bound(m) if m.arrival <= self.clock => {
                self.complete_slot(i);
                true
            }
            _ => false,
        }
    }

    /// Waits for a posted receive and returns its message, charging the
    /// same receiver overhead as a blocking [`Comm::recv`] and dragging
    /// the clock to the arrival time if it is still behind. Waiting again
    /// on a completed request returns the cached message free of charge.
    ///
    /// # Panics
    /// Panics — with the world's blocking-site dump — on peer panic or an
    /// exceeded world recv deadline, exactly like [`Comm::recv`].
    pub fn wait(&mut self, req: &Request) -> Message {
        match self.wait_deadline(req, self.recv_deadline) {
            Ok(m) => m,
            Err(e) => self.abort_wait(&e, "wait"),
        }
    }

    /// Fallible twin of [`Comm::wait`]: gives up after `timeout` of host
    /// time and returns [`MpiError::DeadlineExceeded`] (or
    /// [`MpiError::Poisoned`] if a peer died) instead of panicking.
    pub fn wait_timeout(&mut self, req: &Request, timeout: Duration) -> Result<Message, MpiError> {
        self.wait_deadline(req, Some(timeout))
    }

    /// Completes every request **in slice order**, returning the messages
    /// in the same order. In-order completion keeps the virtual-time
    /// charges deterministic no matter how physical delivery interleaved.
    pub fn waitall(&mut self, reqs: &[Request]) -> Vec<Message> {
        reqs.iter().map(|r| self.wait(r)).collect()
    }

    fn wait_deadline(
        &mut self,
        req: &Request,
        deadline: Option<Duration>,
    ) -> Result<Message, MpiError> {
        nkt_trace::counter_add("mpi.req.wait", 1);
        let i = self.slot_index(req.id);
        match &self.reqs[i].state {
            ReqState::Done(m) => return Ok(m.clone()),
            ReqState::Bound(_) => {}
            ReqState::Posted => {
                let (src, tag) = (self.reqs[i].src, self.reqs[i].tag);
                let bound = |c: &mut Comm| match c.reqs[i].state {
                    ReqState::Posted => None,
                    _ => Some(()),
                };
                self.block_until(src, tag, deadline, "wait", bound)?;
            }
        }
        Ok(self.complete_slot(i))
    }

    /// The one blocking loop under [`Comm::wait`] and [`Comm::recv`]. It
    /// returns what `done` yields, asking first and again after every
    /// arrival; an arrival binds to the oldest posted receive it matches
    /// or joins the unmatched queue. Between arrivals it polls in 10 ms
    /// slices and publishes the blocking site (`src`, `tag`) once per
    /// queue change. A poisoned world or a passed `deadline` (host time)
    /// ends the wait with an error and leaves the site published; `done`
    /// clears it. `what` names the caller if the world is torn down.
    fn block_until<T>(
        &mut self,
        src: Option<usize>,
        tag: Option<Tag>,
        deadline: Option<Duration>,
        what: &str,
        mut done: impl FnMut(&mut Comm) -> Option<T>,
    ) -> Result<T, MpiError> {
        if let Some(out) = done(self) {
            return Ok(out);
        }
        let wait_start = Instant::now();
        let mut published = false;
        let mut ever_published = false;
        loop {
            match self.rx.recv_timeout(Duration::from_millis(10)) {
                Ok(msg) => {
                    if let Some(msg) = self.intake(msg) {
                        self.pending.push_back(msg);
                        // The queue changed; refresh the published site
                        // next time we time out so the dump shows current
                        // backlog.
                        published = false;
                    }
                    if let Some(out) = done(self) {
                        if ever_published {
                            self.blocked.clear(self.rank);
                        }
                        return Ok(out);
                    }
                    let queued = self.pending.len() as u64;
                    self.stats.pending_peak = self.stats.pending_peak.max(queued);
                }
                Err(RecvTimeoutError::Timeout) => {
                    // We are genuinely waiting. Publish where (once) so
                    // that whichever rank aborts first can report every
                    // rank's blocking site. This sits on the already-slow
                    // 10 ms poll path, never on a satisfied wait.
                    if !published {
                        self.publish_block_site(src, tag);
                        published = true;
                        ever_published = true;
                    }
                    if self.poison.load(Ordering::SeqCst) {
                        return Err(MpiError::Poisoned);
                    }
                    if deadline.is_some_and(|d| wait_start.elapsed() >= d) {
                        return Err(MpiError::DeadlineExceeded(self.block_site(src, tag)));
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("{what}: world torn down while waiting")
                }
            }
        }
    }

    /// Completes slot `i` (must be `Bound`): charges the receiver-side
    /// overhead, drags the clock to the arrival time, and caches the
    /// message for idempotent re-waits.
    fn complete_slot(&mut self, i: usize) -> Message {
        let state = std::mem::replace(&mut self.reqs[i].state, ReqState::Posted);
        let ReqState::Bound(msg) = state else {
            unreachable!("complete_slot on a non-bound request");
        };
        let posted_at = self.reqs[i].posted_at;
        self.note_recvd(&msg);
        self.absorb_arrival(&msg, posted_at);
        nkt_trace::counter_add("mpi.req.complete", 1);
        self.reqs[i].state = ReqState::Done(msg.clone());
        msg
    }

    /// Routes a just-arrived message: binds it to the oldest matching
    /// posted receive, else hands it back to the caller.
    fn intake(&mut self, msg: Message) -> Option<Message> {
        match self
            .reqs
            .iter_mut()
            .find(|s| matches!(s.state, ReqState::Posted) && Self::matches(s.src, s.tag, &msg))
        {
            Some(slot) => {
                slot.state = ReqState::Bound(msg);
                None
            }
            None => Some(msg),
        }
    }

    /// Pulls every physically-delivered message off the channel without
    /// blocking, binding to posted receives where possible.
    fn poll_channel(&mut self) {
        while let Ok(msg) = self.rx.try_recv() {
            if let Some(msg) = self.intake(msg) {
                self.pending.push_back(msg);
            }
        }
        self.stats.pending_peak = self.stats.pending_peak.max(self.pending.len() as u64);
    }

    fn slot_index(&self, id: u64) -> usize {
        self.reqs
            .iter()
            .position(|s| s.id == id)
            .unwrap_or_else(|| {
                panic!(
                    "rank {}: unknown request id {id} (completed request compacted away?)",
                    self.rank
                )
            })
    }

    /// Bounds the request table: once it exceeds [`REQ_TABLE_CAP`] slots,
    /// `Done` entries older than the newest [`REQ_KEEP_NEWEST`] ids are
    /// dropped (deterministically — same schedule on every run).
    fn compact_reqs(&mut self) {
        if self.reqs.len() > REQ_TABLE_CAP {
            let keep_from = self.next_req_id.saturating_sub(REQ_KEEP_NEWEST);
            self.reqs
                .retain(|s| !(matches!(s.state, ReqState::Done(_)) && s.id < keep_from));
        }
    }

    /// Receives a message matching `src`/`tag` (None = wildcard). Blocks
    /// the thread until a match arrives; advances the virtual clock to the
    /// message's arrival time if that is later than now.
    ///
    /// # Panics
    /// Panics — with a dump of every rank's blocking site — if a peer rank
    /// panics while this rank waits, or if the wait exceeds the world's
    /// recv deadline ([`crate::WorldOpts::recv_deadline`]). Use
    /// [`Comm::try_recv`] to observe those failures instead.
    pub fn recv(&mut self, src: Option<usize>, tag: Option<Tag>) -> Message {
        match self.try_recv(src, tag) {
            Ok(m) => m,
            Err(e) => self.abort_wait(&e, "recv"),
        }
    }

    /// Fallible twin of [`Comm::recv`]: returns
    /// [`MpiError::DeadlineExceeded`] when the wait exceeds the world's
    /// recv deadline and [`MpiError::Poisoned`] when a peer rank dies,
    /// leaving this rank's blocking site published for the next dump.
    pub fn try_recv(&mut self, src: Option<usize>, tag: Option<Tag>) -> Result<Message, MpiError> {
        // A buffered message that matches, the oldest first: what was
        // queued before the call, else the arrival that just joined the
        // queue (one matching an older posted irecv went to it instead —
        // non-overtaking matching).
        let matched = |c: &mut Comm| {
            let pos = c.pending.iter().position(|m| Self::matches(src, tag, m))?;
            c.pending.remove(pos)
        };
        let msg = self.block_until(src, tag, self.recv_deadline, "recv", matched)?;
        let posted_at = self.clock;
        self.note_recvd(&msg);
        self.absorb_arrival(&msg, posted_at);
        Ok(msg)
    }

    /// Panics with the world dump after a failed wait, preserving the
    /// historical abort-message format. Dumps this rank's flight recorder
    /// first: the ring of recent operations is the post-mortem for "what
    /// was this rank doing when the deadline hit".
    fn abort_wait(&mut self, e: &MpiError, what: &str) -> ! {
        let reason = match e {
            MpiError::Poisoned => "peer rank panicked",
            MpiError::DeadlineExceeded(_) => "recv deadline exceeded",
        };
        nkt_trace::flight::dump_current(self.rank, reason);
        match e {
            MpiError::Poisoned => panic!(
                "{what}: a peer rank panicked while rank {} was waiting\n{}",
                self.rank,
                self.blocked.dump()
            ),
            MpiError::DeadlineExceeded(site) => panic!(
                "{what}: rank {} exceeded the {:.0?} recv deadline in \
                 {} recv (peer {}, tag {}) — likely deadlock\n{}",
                self.rank,
                self.recv_deadline.unwrap_or_default(),
                site.op,
                site.peer.map_or("any".to_string(), |s| s.to_string()),
                site.tag.map_or("any".to_string(), |t| t.to_string()),
                self.blocked.dump()
            ),
        }
    }

    fn block_site(&self, src: Option<usize>, tag: Option<Tag>) -> BlockSite {
        BlockSite {
            op: self.op_label,
            peer: src,
            tag,
            queued_bytes: self.pending.iter().map(|m| 8 * m.data.len()).sum(),
            queued_msgs: self.pending.len(),
            posted_reqs: self.posted_requests(),
        }
    }

    /// Records this rank's blocking site in the world-shared table.
    fn publish_block_site(&self, src: Option<usize>, tag: Option<Tag>) {
        self.blocked.publish(self.rank, self.block_site(src, tag));
    }

    fn note_recvd(&mut self, msg: &Message) {
        self.stats.recvd_msgs += 1;
        self.stats.recvd_bytes += 8 * msg.data.len() as u64;
        self.peer_recvd[msg.src].0 += 1;
        self.peer_recvd[msg.src].1 += 8 * msg.data.len() as u64;
        nkt_trace::histogram_record("mpi.p2p.recv.bytes", 8 * msg.data.len() as u64);
    }

    /// Pulls every already-delivered message off the channel into the
    /// pending queue (binding those that match posted irecvs) without
    /// blocking, and returns how many messages are now buffered —
    /// unmatched plus bound-but-uncompleted. After [`Comm::barrier`] this
    /// captures every message any rank sent before entering the barrier
    /// (the channel is FIFO and the barrier orders all pre-barrier sends
    /// before all post-barrier receives), which is what the checkpoint
    /// protocol needs: nothing left "on the wire".
    pub fn drain_in_flight(&mut self) -> usize {
        self.poll_channel();
        let bound = self.reqs.iter().filter(|s| matches!(s.state, ReqState::Bound(_))).count();
        self.pending.len() + bound
    }

    /// Messages received but not yet matched by a `recv` or bound to a
    /// posted irecv.
    pub fn pending_msgs(&self) -> usize {
        self.pending.len()
    }

    /// Quiesces the world for a consistent global cut: a full barrier,
    /// then a drain of any delivered-but-unmatched messages into the
    /// pending queue and of any messages destined for posted irecvs into
    /// their request slots. On return, across all ranks, every send
    /// issued before any rank called `quiesce` is matched, bound to its
    /// posted receive, or sitting in its receiver's pending queue — no
    /// message is in flight between ranks. Returns this rank's
    /// buffered-message count (zero at a step-boundary checkpoint with no
    /// outstanding requests).
    pub fn quiesce(&mut self) -> usize {
        let prev = self.op_label;
        self.op_label = "quiesce";
        nkt_trace::counter_add("mpi.coll.quiesce", 1);
        let sp = nkt_trace::span_v("quiesce", "mpi", self.wtime());
        self.barrier();
        let n = self.drain_in_flight();
        sp.end_v(self.wtime());
        self.op_label = prev;
        n
    }

    /// Traffic totals so far.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// Emits this rank's traffic totals into the thread-local trace
    /// recorder (no-op below `NKT_TRACE=counters`). Called by the world
    /// harness when the rank closure returns; callers holding a `Comm`
    /// longer can invoke it at any checkpoint.
    pub fn publish_trace_counters(&self) {
        nkt_trace::counter_add("mpi.send.msgs", self.stats.sent_msgs);
        nkt_trace::counter_add("mpi.send.bytes", self.stats.sent_bytes);
        nkt_trace::counter_add("mpi.recv.msgs", self.stats.recvd_msgs);
        nkt_trace::counter_add("mpi.recv.bytes", self.stats.recvd_bytes);
        nkt_trace::gauge_set("mpi.recv.pending_peak", self.stats.pending_peak as f64);
        // Per-peer traffic: the counter form of the comm matrix, so even
        // counters-only traces (no spans) can reconstruct who talked to
        // whom. Label families are bounded by the rank count.
        for (peer, &(msgs, bytes)) in self.peer_sent.iter().enumerate() {
            if msgs > 0 {
                let m = nkt_trace::intern_label(&format!("mpi.p2p.to.{peer}.msgs"));
                let b = nkt_trace::intern_label(&format!("mpi.p2p.to.{peer}.bytes"));
                nkt_trace::counter_add(m, msgs);
                nkt_trace::counter_add(b, bytes);
            }
        }
        for (peer, &(msgs, bytes)) in self.peer_recvd.iter().enumerate() {
            if msgs > 0 {
                let m = nkt_trace::intern_label(&format!("mpi.p2p.from.{peer}.msgs"));
                let b = nkt_trace::intern_label(&format!("mpi.p2p.from.{peer}.bytes"));
                nkt_trace::counter_add(m, msgs);
                nkt_trace::counter_add(b, bytes);
            }
        }
    }

    /// Per-peer `(messages, bytes)` sent to each destination so far.
    pub fn peer_sent(&self) -> &[(u64, u64)] {
        &self.peer_sent
    }

    /// Per-peer `(messages, bytes)` received from each source so far.
    pub fn peer_recvd(&self) -> &[(u64, u64)] {
        &self.peer_recvd
    }

    /// Charges the virtual cost of accepting `msg` and records the
    /// receive span. `wait` is the idle gap the receiver sat through
    /// before the message landed (zero when the message was already
    /// here): `wait > 0` is the mpiP "late sender" signature — the
    /// receiver's critical path runs through the sender — while
    /// `wait == 0` means the receiver itself arrived late.
    fn absorb_arrival(&mut self, msg: &Message, posted_at: f64) {
        // Receiver-side protocol overhead is CPU work; waiting is not.
        let ch = self.net.channel_between(self.rank, msg.src);
        let overhead = ch.overhead_us * 1e-6;
        let t0 = self.clock;
        let wait = (msg.arrival - t0).max(0.0);
        self.clock = self.clock.max(msg.arrival) + overhead;
        self.busy += overhead;
        nkt_trace::record_vspan_args(
            self.op_label,
            "mpi.p2p.recv",
            t0,
            self.clock,
            &[
                ("peer", msg.src as f64),
                ("bytes", 8.0 * msg.data.len() as f64),
                ("seq", msg.seq as f64),
                ("tag", msg.tag as f64),
                ("wait", wait),
                ("late", if wait > 0.0 { 1.0 } else { 0.0 }),
                ("arrival", msg.arrival),
                ("posted", posted_at),
            ],
        );
    }

    /// Combined send + receive (deadlock-free under eager semantics).
    pub fn sendrecv(
        &mut self,
        dest: usize,
        send_tag: Tag,
        data: &[f64],
        src: usize,
        recv_tag: Tag,
    ) -> Vec<f64> {
        self.send(dest, send_tag, data);
        self.recv(Some(src), Some(recv_tag)).data
    }

    /// Sets the collective contention factor (≥ 1 slows transfers).
    pub(crate) fn set_contention(&mut self, c: f64) {
        self.contention = c.max(1.0);
    }

    /// Resets contention to the point-to-point default.
    pub(crate) fn clear_contention(&mut self) {
        self.contention = 1.0;
    }
}
