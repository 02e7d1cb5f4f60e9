//! Per-rank flight recorder: a bounded ring of the most recent traced
//! operations, always on, dumped only when something goes wrong.
//!
//! The trace exporter answers "where did the time go" for a *healthy*
//! run; the flight recorder answers "what was this rank doing just
//! before it died". Every [`note`] appends one fixed-size entry to a
//! thread-local ring — no locks, no allocation after warm-up, no mode
//! gate, so it is on even with `NKT_TRACE=off` — and [`dump_current`]
//! writes the ring plus a counter snapshot to
//! `results/FLIGHT_<run>_r<rank>.json` (schema `nkt-flight-1`). Dumps
//! are triggered by the `nkt-stats` health watchdog, by a recv-deadline
//! abort in `nkt-mpi`, and by a checkpoint epoch falling back — every
//! failure ships its own post-mortem.

use crate::export::{keyed, out_dir};
use crate::json::Value;
use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::Mutex;

/// Ring capacity. 256 entries ≈ a few solver steps of MPI traffic —
/// enough to see the pattern leading into a failure without the record
/// cost ever mattering (one array write per traced op).
pub const FLIGHT_CAPACITY: usize = 256;

/// One recorded operation: name/category (static, so recording is
/// allocation-free), virtual-time window, and one numeric argument
/// (bytes moved, or `NaN` when inapplicable).
#[derive(Debug, Clone, Copy)]
pub struct FlightEntry {
    /// Operation name (e.g. `"alltoall"`, `"sendrecv"`).
    pub name: &'static str,
    /// Category (`"mpi"`, `"ckpt"`, `"stats"`).
    pub cat: &'static str,
    /// Virtual-clock start in seconds (`NaN` = none).
    pub vt0: f64,
    /// Virtual-clock end in seconds (`NaN` = none).
    pub vt1: f64,
    /// One numeric payload, typically bytes (`NaN` = none).
    pub arg: f64,
}

struct Ring {
    entries: Vec<FlightEntry>,
    /// Next write position (ring is full once `total >= capacity`).
    head: usize,
    /// Entries ever recorded; `total - entries.len()` were overwritten.
    total: u64,
}

impl Ring {
    const fn new() -> Ring {
        Ring { entries: Vec::new(), head: 0, total: 0 }
    }

    fn push(&mut self, e: FlightEntry) {
        if self.entries.len() < FLIGHT_CAPACITY {
            self.entries.push(e);
            self.head = self.entries.len() % FLIGHT_CAPACITY;
        } else {
            self.entries[self.head] = e;
            self.head = (self.head + 1) % FLIGHT_CAPACITY;
        }
        self.total = self.total.saturating_add(1);
    }

    /// Entries oldest-first.
    fn ordered(&self) -> Vec<FlightEntry> {
        let mut out = Vec::with_capacity(self.entries.len());
        if self.entries.len() < FLIGHT_CAPACITY {
            out.extend_from_slice(&self.entries);
        } else {
            out.extend_from_slice(&self.entries[self.head..]);
            out.extend_from_slice(&self.entries[..self.head]);
        }
        out
    }
}

thread_local! {
    static RING: RefCell<Ring> = const { RefCell::new(Ring::new()) };
}

static RUN_NAME: Mutex<String> = Mutex::new(String::new());

thread_local! {
    static THREAD_RUN: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Names the current run; dump files are `FLIGHT_<run>_r<rank>.json`.
/// Call once per example/test run (examples set it next to their
/// checkpoint run name).
pub fn set_run(name: &str) {
    *RUN_NAME.lock().unwrap() = name.to_string();
}

/// Names the run for *this thread only*, taking precedence over
/// [`set_run`]. Concurrent per-job worlds tag their rank threads with
/// the job name so a failing rank's post-mortem lands under its own
/// job, not whichever run last touched the process-global name. `None`
/// restores the global name.
pub fn set_thread_run(name: Option<&str>) {
    THREAD_RUN.with(|r| *r.borrow_mut() = name.map(str::to_string));
}

/// The run name in effect on this thread: the thread override, else the
/// global [`set_run`] name (empty string when neither is set).
fn effective_run() -> String {
    THREAD_RUN
        .with(|r| r.borrow().clone())
        .unwrap_or_else(|| RUN_NAME.lock().unwrap().clone())
}

/// Records one operation into this thread's ring. Always on — the cost
/// is one bounds check and one array write, so callers (`nkt-mpi`'s
/// traced collectives) do not gate it on the trace mode.
#[inline]
pub fn note(name: &'static str, cat: &'static str, vt0: f64, vt1: f64, arg: f64) {
    RING.with(|r| r.borrow_mut().push(FlightEntry { name, cat, vt0, vt1, arg }));
}

/// Dumps this thread's ring to `FLIGHT_<run>_r<rank>.json` in the trace
/// output directory, tagged with `reason`. Returns the path written.
/// No-op until [`set_run`] names the run — unit tests exercising abort
/// paths must not litter `results/` with anonymous dumps. Infallible by
/// design: a post-mortem writer that panics on a full disk would mask
/// the original failure, so IO errors only print to stderr.
pub fn dump_current(rank: usize, reason: &str) -> Option<PathBuf> {
    if effective_run().is_empty() {
        return None;
    }
    dump_current_to(&out_dir(), rank, reason)
}

/// [`dump_current`] into an explicit directory (tests; skips the
/// [`set_run`] gate).
pub fn dump_current_to(dir: &std::path::Path, rank: usize, reason: &str) -> Option<PathBuf> {
    let run = effective_run();
    let run = if run.is_empty() { "run".to_string() } else { run };
    let (entries, total) = RING.with(|r| {
        let ring = r.borrow();
        (ring.ordered(), ring.total)
    });
    let counters = crate::span::with_buf(|b| b.data.counters.clone());
    let entry = |e: &FlightEntry| Value::from([
        ("name", e.name.into()), ("cat", e.cat.into()),
        ("vt0", e.vt0.into()), ("vt1", e.vt1.into()), ("arg", e.arg.into()),
    ]);
    let doc = Value::from([
        ("schema", "nkt-flight-1".into()),
        ("run", run.as_str().into()),
        ("rank", rank.into()),
        ("reason", reason.into()),
        ("recorded", total.into()),
        ("dropped", (total - entries.len() as u64).into()),
        ("counters", keyed(&counters, |&v| v.into())),
        ("entries", Value::Arr(entries.iter().map(entry).collect())),
    ]);
    match crate::json::write(dir, &format!("FLIGHT_{run}_r{rank}.json"), &doc) {
        Ok((path, _)) => {
            eprintln!("flight rank {rank} ({reason}) -> {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("flight: cannot write {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_most_recent_entries_in_order() {
        let mut r = Ring::new();
        for i in 0..(FLIGHT_CAPACITY as u64 + 10) {
            r.push(FlightEntry {
                name: "op",
                cat: "mpi",
                vt0: i as f64,
                vt1: i as f64 + 0.5,
                arg: f64::NAN,
            });
        }
        let got = r.ordered();
        assert_eq!(got.len(), FLIGHT_CAPACITY);
        assert_eq!(r.total, FLIGHT_CAPACITY as u64 + 10);
        // Oldest surviving entry is #10; newest is the last pushed.
        assert_eq!(got[0].vt0, 10.0);
        assert_eq!(got.last().unwrap().vt0, (FLIGHT_CAPACITY as u64 + 9) as f64);
        // Strictly increasing: the rotation healed the wrap seam.
        for w in got.windows(2) {
            assert!(w[0].vt0 < w[1].vt0);
        }
    }

    #[test]
    fn ring_wraparound_at_exactly_capacity() {
        // The boundary case: exactly FLIGHT_CAPACITY pushes fill the ring
        // with zero drops and head back at 0, so ordered() must return
        // everything in push order without rotating through the seam.
        let mut r = Ring::new();
        for i in 0..FLIGHT_CAPACITY as u64 {
            r.push(FlightEntry { name: "op", cat: "mpi", vt0: i as f64, vt1: i as f64, arg: 0.0 });
        }
        assert_eq!(r.total, FLIGHT_CAPACITY as u64);
        assert_eq!(r.head, 0, "a full ring's next write is slot 0");
        let got = r.ordered();
        assert_eq!(got.len(), FLIGHT_CAPACITY);
        assert_eq!(got[0].vt0, 0.0, "entry 0 survived at exactly capacity");
        assert_eq!(got.last().unwrap().vt0, (FLIGHT_CAPACITY - 1) as f64);
        // One more push overwrites exactly the oldest entry.
        r.push(FlightEntry {
            name: "op",
            cat: "mpi",
            vt0: FLIGHT_CAPACITY as f64,
            vt1: 0.0,
            arg: 0.0,
        });
        let got = r.ordered();
        assert_eq!(got.len(), FLIGHT_CAPACITY);
        assert_eq!(r.total, FLIGHT_CAPACITY as u64 + 1);
        assert_eq!(got[0].vt0, 1.0, "only entry 0 was dropped");
        assert_eq!(got.last().unwrap().vt0, FLIGHT_CAPACITY as f64);
    }

    #[test]
    fn cross_thread_dumps_are_isolated_and_ordered() {
        // Rings are thread-local: two worker threads tagged with distinct
        // scopes and thread-run names must each dump exactly their own
        // entries, oldest-first, no matter how the host interleaves them.
        // Each dump's bytes are a pure function of that thread's pushes,
        // so the files are deterministic across runs.
        let dir = std::env::temp_dir()
            .join(format!("nkt_flight_scope_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let worker = |rank: usize, dir: std::path::PathBuf| {
            std::thread::spawn(move || {
                crate::set_thread_scope(100 + rank as u64);
                set_thread_run(Some(&format!("scope_job_{rank}")));
                // Overfill past one wrap so ordering crosses the seam.
                for i in 0..(FLIGHT_CAPACITY + 5) {
                    note("op", "mpi", (rank * 10_000 + i) as f64, 0.0, rank as f64);
                }
                let path = dump_current_to(&dir, rank, "scope test").expect("dump");
                std::fs::read_to_string(path).unwrap()
            })
        };
        let ha = worker(1, dir.clone());
        let hb = worker(2, dir.clone());
        let (ta, tb) = (ha.join().unwrap(), hb.join().unwrap());
        for (rank, text) in [(1usize, &ta), (2, &tb)] {
            assert!(text.contains(&format!("\"run\": \"scope_job_{rank}\"")), "{text}");
            // Exactly this thread's entries: args are the rank id.
            assert!(text.contains(&format!("\"arg\": {rank}")));
            let other = if rank == 1 { 2 } else { 1 };
            assert!(!text.contains(&format!("\"arg\": {other}")), "foreign entries leaked");
            // Oldest-first: vt0 values strictly increase down the file.
            let vts: Vec<f64> = text
                .lines()
                .filter(|l| l.contains("\"vt0\":"))
                .map(|l| {
                    let v = l.split("\"vt0\": ").nth(1).unwrap();
                    v.split(',').next().unwrap().parse().unwrap()
                })
                .collect();
            assert_eq!(vts.len(), FLIGHT_CAPACITY);
            assert_eq!(vts[0], (rank * 10_000 + 5) as f64, "5 oldest dropped");
            assert!(vts.windows(2).all(|w| w[0] < w[1]), "dump out of order");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dump_writes_schema_run_and_reason() {
        let dir = std::env::temp_dir().join(format!("nkt_flight_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        note("alltoall", "mpi", 1.0, 2.0, 4096.0);
        set_run("flight_unit");
        let path = dump_current_to(&dir, 3, "unit test").expect("dump");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(path.ends_with("FLIGHT_flight_unit_r3.json"));
        assert!(text.contains("\"schema\": \"nkt-flight-1\""));
        assert!(text.contains("\"reason\": \"unit test\""));
        assert!(text.contains("\"name\": \"alltoall\""));
        assert!(text.contains("\"arg\": 4096"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
