//! World harness: spawns one thread per rank and runs a closure on each.
//!
//! The canonical entry point is the builder:
//!
//! ```
//! use nkt_mpi::prelude::*;
//! use nkt_net::{cluster, NetId};
//!
//! let out = World::builder()
//!     .ranks(4)
//!     .net(cluster(NetId::T3e))
//!     .run(|c| c.rank());
//! assert_eq!(out, vec![0, 1, 2, 3]);
//! ```
//!
//! Binaries hand `RunConfig::recv_deadline` to [`WorldBuilder::opts`];
//! [`World::from_env`] is the preset for test files that want
//! `NKT_MPI_DEADLINE_MS` while debugging a hang.

use crate::comm::{Comm, Message};
use crate::diag::BlockTable;
use nkt_net::ClusterNetwork;
use nkt_trace::config::RunConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

/// World-level knobs (carried inside [`WorldBuilder`] and public for
/// callers that store options).
#[derive(Debug, Clone, Copy, Default)]
pub struct WorldOpts {
    /// Host-time cap on any single `recv`/`wait`. When a rank waits
    /// longer — a lost message, a mismatched tag, a deadlocked collective
    /// — it panics with a dump of every rank's blocking site instead of
    /// hanging the test run forever. `None` (default) waits indefinitely.
    pub recv_deadline: Option<Duration>,
}

/// A virtual-time MPI world. Construct one run at a time through
/// [`World::builder`] (or the [`World::from_env`] preset).
pub struct World;

impl World {
    /// A builder with defaults: 1 rank, no network (must be set), no
    /// recv deadline.
    pub fn builder() -> WorldBuilder {
        WorldBuilder {
            ranks: 1,
            net: None,
            opts: WorldOpts::default(),
            trace_scope: None,
            trace_dir: None,
            flight_run: None,
        }
    }

    /// [`World::builder`] with `NKT_MPI_DEADLINE_MS` from the process
    /// environment, for tests. Panics on an environment `RunConfig`
    /// rejects.
    pub fn from_env() -> WorldBuilder {
        let cfg = RunConfig::from_env().unwrap_or_else(|e| panic!("{e}"));
        World::builder().opts(WorldOpts { recv_deadline: cfg.recv_deadline })
    }
}

/// Configures and launches a [`World`]; see [`World::builder`].
pub struct WorldBuilder {
    ranks: usize,
    net: Option<ClusterNetwork>,
    opts: WorldOpts,
    trace_scope: Option<u64>,
    trace_dir: Option<std::path::PathBuf>,
    flight_run: Option<String>,
}

impl WorldBuilder {
    /// Number of ranks (threads) to spawn. Default 1.
    pub fn ranks(mut self, p: usize) -> Self {
        self.ranks = p;
        self
    }

    /// The network model the world runs on. Required.
    pub fn net(mut self, net: ClusterNetwork) -> Self {
        self.net = Some(net);
        self
    }

    /// Replaces the option block wholesale (prefer the individual
    /// setters).
    pub fn opts(mut self, opts: WorldOpts) -> Self {
        self.opts = opts;
        self
    }

    /// Host-time cap on any single `recv`/`wait`; see
    /// [`WorldOpts::recv_deadline`].
    pub fn recv_deadline(mut self, d: Duration) -> Self {
        self.opts.recv_deadline = Some(d);
        self
    }

    /// Tags every rank thread with a trace isolation scope (see
    /// `nkt_trace::set_thread_scope`): the world's spans/counters drain
    /// into the collector under this scope, so concurrent worlds in one
    /// process keep separate trace state and
    /// `nkt_trace::take_collected_for(scope)` retrieves exactly this
    /// world's data.
    pub fn trace_scope(mut self, scope: u64) -> Self {
        self.trace_scope = Some(scope);
        self
    }

    /// Routes every rank thread's observability artifacts (STATS dumps,
    /// flight-recorder post-mortems — anything resolved through
    /// `nkt_trace::out_dir()`) into `dir` instead of the process-global
    /// default other worlds may be writing to.
    pub fn trace_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.trace_dir = Some(dir.into());
        self
    }

    /// Names the flight-recorder run for every rank thread (see
    /// `nkt_trace::flight::set_thread_run`), so a failing rank's dump is
    /// `FLIGHT_<run>_r<rank>.json` under this world's name even when
    /// other worlds run concurrently.
    pub fn flight_run(mut self, run: impl Into<String>) -> Self {
        self.flight_run = Some(run.into());
        self
    }

    /// Spawns the world and runs `f` on every rank, returning each
    /// rank's result in rank order.
    ///
    /// Data exchange is real (`std::sync::mpsc` channels — unbounded, so
    /// eager sends never block); time is virtual (see [`Comm`]). The
    /// closure gets a mutable [`Comm`] bound to its rank and is the
    /// rank's whole life: anything to do on entry or before teardown (a
    /// checkpoint restore, a final epoch — `nektar::drive::drive` does
    /// both) happens inside it.
    ///
    /// # Panics
    /// Panics if no network was set; propagates a panic from any rank
    /// thread with its original payload, so deadline/poison diagnostics
    /// (which rank blocked where) survive the join.
    pub fn run<R, F>(self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        let p = self.ranks;
        assert!(p >= 1, "World: need at least one rank");
        let net = Arc::new(self.net.expect("World: no network set — call .net(...)"));
        let opts = self.opts;
        let trace_scope = self.trace_scope;
        let trace_dir = self.trace_dir;
        let flight_run = self.flight_run;
        let poison = Arc::new(AtomicBool::new(false));
        let blocked = Arc::new(BlockTable::new(p));
        let mut txs = Vec::with_capacity(p);
        let mut rxs = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = channel::<Message>();
            txs.push(tx);
            rxs.push(rx);
        }
        let f = &f;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(p);
            for (rank, rx) in rxs.into_iter().enumerate() {
                let txs = txs.clone();
                let net = Arc::clone(&net);
                let poison = Arc::clone(&poison);
                let blocked = Arc::clone(&blocked);
                let trace_dir = trace_dir.clone();
                let flight_run = flight_run.clone();
                handles.push(scope.spawn(move || {
                    // If this rank unwinds, poison the world so peers blocked
                    // in recv panic too instead of deadlocking (every rank
                    // holds sender clones to every rank, itself included, so
                    // channel disconnection alone cannot wake them).
                    let _guard = PoisonOnPanic(Arc::clone(&poison));
                    // Isolation knobs go first so everything the rank
                    // records — including its thread meta — lands in the
                    // right scope and directory.
                    if let Some(s) = trace_scope {
                        nkt_trace::set_thread_scope(s);
                    }
                    if trace_dir.is_some() {
                        nkt_trace::set_thread_dir(trace_dir);
                    }
                    if let Some(run) = &flight_run {
                        nkt_trace::flight::set_thread_run(Some(run));
                    }
                    nkt_trace::set_thread_meta(format!("rank {rank}"), Some(rank));
                    let mut comm =
                        Comm::new(rank, p, net, txs, rx, poison, blocked, opts.recv_deadline);
                    let out = f(&mut comm);
                    comm.publish_trace_counters();
                    nkt_trace::flush_thread();
                    out
                }));
            }
            drop(txs);
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    // Re-raise with the original payload: the blocking-site
                    // dump inside a deadline panic must reach the caller.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        })
    }
}

/// Flags the world as poisoned when its rank thread unwinds, so peers
/// blocked in `recv` abort instead of waiting on a message that will
/// never arrive (see the poison check in [`Comm::recv`]).
struct PoisonOnPanic(Arc<AtomicBool>);

impl Drop for PoisonOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{AlltoallAlgo, ReduceOp};
    use nkt_net::{cluster, NetId};

    fn testnet() -> ClusterNetwork {
        cluster(NetId::T3e)
    }

    fn run<R, F>(p: usize, net: ClusterNetwork, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        World::from_env().ranks(p).net(net).run(f)
    }

    #[test]
    fn single_rank_world() {
        let out = run(1, testnet(), |c| {
            c.barrier();
            let mut v = vec![3.0];
            c.allreduce(&mut v, ReduceOp::Sum);
            (c.rank(), v[0])
        });
        assert_eq!(out, vec![(0, 3.0)]);
    }

    #[test]
    fn ring_pass_delivers_in_order() {
        let p = 5;
        let out = run(p, testnet(), |c| {
            let r = c.rank();
            let next = (r + 1) % p;
            let prev = (r + p - 1) % p;
            c.send(next, 7, &[r as f64]);
            let m = c.recv(Some(prev), Some(7));
            m.data[0] as usize
        });
        for (r, &got) in out.iter().enumerate() {
            assert_eq!(got, (r + p - 1) % p);
        }
    }

    #[test]
    fn wildcard_recv_matches_any_source() {
        let out = run(3, testnet(), |c| {
            if c.rank() == 0 {
                let a = c.recv(None, Some(1));
                let b = c.recv(None, Some(1));
                let mut srcs = vec![a.src, b.src];
                srcs.sort_unstable();
                srcs
            } else {
                c.send(0, 1, &[c.rank() as f64]);
                vec![]
            }
        });
        assert_eq!(out[0], vec![1, 2]);
    }

    #[test]
    fn allreduce_sum_min_max() {
        let p = 7; // non-power-of-two exercises the general tree
        let out = run(p, testnet(), |c| {
            let r = c.rank() as f64;
            let mut s = vec![r, -r];
            c.allreduce(&mut s, ReduceOp::Sum);
            let mut mn = vec![r];
            c.allreduce(&mut mn, ReduceOp::Min);
            let mut mx = vec![r];
            c.allreduce(&mut mx, ReduceOp::Max);
            (s, mn[0], mx[0])
        });
        let total: f64 = (0..p).map(|r| r as f64).sum();
        for (s, mn, mx) in out {
            assert_eq!(s, vec![total, -total]);
            assert_eq!(mn, 0.0);
            assert_eq!(mx, (p - 1) as f64);
        }
    }

    #[test]
    fn bcast_from_nonzero_root() {
        let out = run(6, testnet(), |c| {
            let mut v = if c.rank() == 2 { vec![42.0, 43.0] } else { vec![0.0, 0.0] };
            c.bcast(2, &mut v);
            v
        });
        for v in out {
            assert_eq!(v, vec![42.0, 43.0]);
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = run(4, testnet(), |c| c.gather(1, &[c.rank() as f64 * 10.0]));
        for (r, g) in out.iter().enumerate() {
            if r == 1 {
                let rows = g.as_ref().unwrap();
                for (i, row) in rows.iter().enumerate() {
                    assert_eq!(row, &vec![i as f64 * 10.0]);
                }
            } else {
                assert!(g.is_none());
            }
        }
    }

    fn check_alltoall(p: usize, block: usize, algo: AlltoallAlgo) {
        let out = run(p, testnet(), move |c| {
            let r = c.rank();
            // send[j*block + k] encodes (sender, dest, k).
            let send: Vec<f64> = (0..p * block)
                .map(|i| (r * 1000 + (i / block) * 100 + i % block) as f64)
                .collect();
            let mut recv = vec![0.0; p * block];
            c.alltoall_with(algo, &send, block, &mut recv);
            recv
        });
        for (r, recv) in out.iter().enumerate() {
            for src in 0..p {
                for k in 0..block {
                    let expect = (src * 1000 + r * 100 + k) as f64;
                    assert_eq!(
                        recv[src * block + k], expect,
                        "algo {algo:?} p={p} rank {r} from {src} elem {k}"
                    );
                }
            }
        }
    }

    fn check_ialltoall(p: usize, block: usize) {
        let out = run(p, testnet(), move |c| {
            let r = c.rank();
            let send: Vec<f64> = (0..p * block)
                .map(|i| (r * 1000 + (i / block) * 100 + i % block) as f64)
                .collect();
            let mut recv = vec![0.0; p * block];
            let h = c.ialltoall(&send, block);
            c.advance(1e-6); // a little overlapped "compute"
            c.alltoall_finish(h, &mut recv);
            recv
        });
        for (r, recv) in out.iter().enumerate() {
            for src in 0..p {
                for k in 0..block {
                    let expect = (src * 1000 + r * 100 + k) as f64;
                    assert_eq!(
                        recv[src * block + k], expect,
                        "ialltoall p={p} rank {r} from {src} elem {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn alltoall_pairwise_pow2() {
        check_alltoall(8, 3, AlltoallAlgo::Pairwise);
    }

    #[test]
    fn alltoall_pairwise_non_pow2_falls_back() {
        check_alltoall(6, 2, AlltoallAlgo::Pairwise);
    }

    #[test]
    fn alltoall_ring() {
        check_alltoall(5, 4, AlltoallAlgo::Ring);
        check_alltoall(8, 1, AlltoallAlgo::Ring);
    }

    #[test]
    fn alltoall_bruck() {
        check_alltoall(4, 2, AlltoallAlgo::Bruck);
        check_alltoall(7, 3, AlltoallAlgo::Bruck);
        check_alltoall(8, 5, AlltoallAlgo::Bruck);
    }

    #[test]
    fn ialltoall_delivers_like_alltoall() {
        check_ialltoall(1, 3);
        check_ialltoall(4, 2);
        check_ialltoall(6, 2); // non-power-of-two ring order
        check_ialltoall(8, 5);
    }

    #[test]
    fn overlapping_ialltoalls_do_not_alias() {
        // Two exchanges in flight at once: distinct tag generations and
        // post-order matching must keep them separate.
        let p = 4;
        let out = run(p, testnet(), move |c| {
            let r = c.rank();
            let a: Vec<f64> = (0..p).map(|j| (r * 10 + j) as f64).collect();
            let b: Vec<f64> = (0..p).map(|j| (100 + r * 10 + j) as f64).collect();
            let ha = c.ialltoall(&a, 1);
            let hb = c.ialltoall(&b, 1);
            let mut ra = vec![0.0; p];
            let mut rb = vec![0.0; p];
            // Finish in reverse order of posting, to stress matching.
            c.alltoall_finish(hb, &mut rb);
            c.alltoall_finish(ha, &mut ra);
            (ra, rb)
        });
        for (r, (ra, rb)) in out.iter().enumerate() {
            for src in 0..p {
                assert_eq!(ra[src], (src * 10 + r) as f64);
                assert_eq!(rb[src], (100 + src * 10 + r) as f64);
            }
        }
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let out = run(4, testnet(), |c| {
            // Rank 2 does a lot of local work before the barrier.
            if c.rank() == 2 {
                c.advance(1.0);
            }
            c.barrier();
            c.wtime()
        });
        for &t in &out {
            assert!(t >= 1.0, "clock {t} not dragged past the busy rank");
        }
    }

    #[test]
    fn virtual_time_deterministic_across_runs() {
        let run_once = || {
            run(4, testnet(), |c| {
                let send: Vec<f64> = vec![1.0; 4 * 64];
                let mut recv = vec![0.0; 4 * 64];
                c.alltoall(&send, 64, &mut recv);
                let h = c.ialltoall(&send, 64);
                c.advance(1e-5);
                c.alltoall_finish(h, &mut recv);
                c.barrier();
                c.wtime()
            })
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b);
    }

    #[test]
    fn ethernet_slower_than_myrinet_for_alltoall() {
        let time_on = |net: ClusterNetwork| {
            let out = run(8, net, |c| {
                let block = 8192; // 64 KB per pair
                let send = vec![1.0; 8 * block];
                let mut recv = vec![0.0; 8 * block];
                c.alltoall(&send, block, &mut recv);
                c.barrier();
                c.wtime()
            });
            out.into_iter().fold(0.0f64, f64::max)
        };
        let eth = time_on(cluster(NetId::RoadRunnerEth));
        let myr = time_on(cluster(NetId::RoadRunnerMyr));
        assert!(
            eth > 5.0 * myr,
            "ethernet {eth} should be much slower than myrinet {myr}"
        );
    }

    #[test]
    fn busy_less_than_wall_when_waiting() {
        let out = run(2, testnet(), |c| {
            if c.rank() == 0 {
                c.advance(0.5);
                c.send(1, 3, &[1.0]);
            } else {
                c.recv(Some(0), Some(3));
            }
            (c.busy(), c.wtime())
        });
        let (busy1, wall1) = out[1];
        assert!(busy1 < wall1, "rank 1 waited: busy {busy1} wall {wall1}");
        assert!(wall1 >= 0.5);
    }

    #[test]
    fn send_charges_sender_overhead_only() {
        let out = run(2, testnet(), |c| {
            if c.rank() == 0 {
                c.send(1, 1, &vec![0.0; 100_000]);
                c.wtime()
            } else {
                c.recv(Some(0), Some(1));
                c.wtime()
            }
        });
        // Sender returns long before the (800 KB) message lands.
        assert!(out[0] < out[1], "sender {} receiver {}", out[0], out[1]);
    }
}
