//! Thread-local span recorders with dual host/virtual timestamps.
//!
//! A [`Span`] is an RAII guard: creating it marks the enter time, dropping
//! (or [`Span::end`] / [`Span::end_v`]) marks the exit and pushes one
//! completed event into the current thread's buffer. Buffers are strictly
//! thread-local — the hot path takes no locks and allocates only when the
//! event vector grows — and drain into the global collector when the
//! thread ends or on [`crate::flush_thread`].

use crate::{mode, TraceMode};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Structured numeric span arguments (`peer`, `bytes`, `wait`, ...).
/// Names are static so recording stays allocation-free apart from the
/// vector itself; values are `f64` (exact for counts below 2^53).
pub type SpanArgs = Vec<(&'static str, f64)>;

/// One completed span. Host times are microseconds since the process
/// trace epoch; virtual times are model seconds. `NaN` marks an absent
/// timestamp (host-only or virtual-only spans).
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Span name (e.g. a stage name or collective op).
    pub name: &'static str,
    /// Category (`stage`, `step`, `mpi`, `replay`, ...).
    pub cat: &'static str,
    /// Host start, µs since the trace epoch (`NaN` = virtual-only).
    pub ts_us: f64,
    /// Host duration in µs (`NaN` = virtual-only).
    pub dur_us: f64,
    /// Virtual-clock start in seconds (`NaN` = none).
    pub vt0: f64,
    /// Virtual-clock end in seconds (`NaN` = none).
    pub vt1: f64,
    /// Nesting depth at entry (0 = top level on this thread).
    pub depth: u32,
    /// Structured numeric arguments, exported into the Chrome `args`
    /// object next to `vt0`/`vt1` (empty for plain spans).
    pub args: SpanArgs,
}

impl SpanEvent {
    /// Virtual duration in seconds, when both endpoints are present.
    pub fn vdur(&self) -> Option<f64> {
        (self.vt0.is_finite() && self.vt1.is_finite()).then(|| self.vt1 - self.vt0)
    }

    /// Looks up a structured argument by name.
    pub fn arg(&self, name: &str) -> Option<f64> {
        self.args.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// Everything one thread recorded: spans plus its counter/gauge slices.
#[derive(Debug, Default)]
pub struct ThreadData {
    /// Stable per-process thread id (assigned at first recording).
    pub tid: u64,
    /// Isolation scope this thread records under (0 = the ambient
    /// process scope). Concurrent `World`s in one process tag their rank
    /// threads with distinct scopes so
    /// [`crate::export::take_collected_for`] can drain one world's data
    /// without touching another's.
    pub scope: u64,
    /// Rank label, when the thread is an `nkt-mpi` rank.
    pub rank: Option<usize>,
    /// Display name (`rank 3`, ...).
    pub name: Option<String>,
    /// Completed spans, pushed at span *exit* (children precede parents).
    pub events: Vec<SpanEvent>,
    /// Monotonic counters (saturating u64).
    pub counters: Vec<(&'static str, u64)>,
    /// Last-value gauges.
    pub gauges: Vec<(&'static str, f64)>,
    /// Log2-bucketed histograms (message sizes, queue depths).
    pub hists: Vec<(&'static str, crate::metrics::Hist)>,
}

impl ThreadData {
    fn is_empty(&self) -> bool {
        self.events.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
            && self.name.is_none()
    }
}

pub(crate) struct ThreadBuf {
    pub(crate) data: ThreadData,
    pub(crate) depth: u32,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

impl ThreadBuf {
    fn new() -> ThreadBuf {
        ThreadBuf {
            data: ThreadData {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                ..ThreadData::default()
            },
            depth: 0,
        }
    }

    pub(crate) fn take_data(&mut self) -> ThreadData {
        let tid = self.data.tid;
        let scope = self.data.scope;
        std::mem::replace(
            &mut self.data,
            ThreadData { tid, scope, ..ThreadData::default() },
        )
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        // Auto-flush at thread exit so rank threads need no manual step.
        if !self.data.is_empty() {
            crate::export::collect(self.take_data());
        }
    }
}

thread_local! {
    pub(crate) static TLS: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::new());
}

/// Runs `f` with the current thread's buffer.
pub(crate) fn with_buf<R>(f: impl FnOnce(&mut ThreadBuf) -> R) -> R {
    TLS.with(|t| f(&mut t.borrow_mut()))
}

/// Process-wide epoch all host timestamps are relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> f64 {
    epoch().elapsed().as_secs_f64() * 1e6
}

/// Names the current thread in the exported trace and tags it with a
/// rank. No-op when tracing is off.
pub fn set_thread_meta(name: String, rank: Option<usize>) {
    if mode() == TraceMode::Off {
        return;
    }
    with_buf(|b| {
        b.data.name = Some(name);
        b.data.rank = rank;
    });
}

/// The current thread's trace id (for tests filtering collected data).
pub fn current_tid() -> u64 {
    with_buf(|b| b.data.tid)
}

/// Tags the current thread with an isolation scope: everything it
/// records from here on drains into the collector under `scope`, and
/// [`crate::export::take_collected_for`] retrieves exactly the threads
/// of one scope. Unlike [`set_thread_meta`] this is *not* gated on the
/// trace mode — scope identity must be stable even when recording is
/// toggled mid-run. Scope 0 is the ambient process scope.
pub fn set_thread_scope(scope: u64) {
    with_buf(|b| b.data.scope = scope);
}

/// The current thread's isolation scope (0 = ambient).
pub fn current_scope() -> u64 {
    with_buf(|b| b.data.scope)
}

/// An RAII span guard. Inert (zero work on drop) unless spans mode was
/// active at creation.
#[must_use = "a span measures the scope it lives in"]
pub struct Span {
    live: bool,
    name: &'static str,
    cat: &'static str,
    t0: Instant,
    ts0_us: f64,
    vt0: f64,
}

/// Opens a host-time span. One relaxed atomic load when tracing is off.
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> Span {
    span_v(name, cat, f64::NAN)
}

/// Opens a span that additionally carries a virtual-clock start time
/// (close it with [`Span::end_v`] to record the virtual end).
#[inline]
pub fn span_v(name: &'static str, cat: &'static str, vt0: f64) -> Span {
    if mode() < TraceMode::Spans {
        return Span { live: false, name, cat, t0: epoch(), ts0_us: 0.0, vt0 };
    }
    with_buf(|b| b.depth += 1);
    Span { live: true, name, cat, t0: Instant::now(), ts0_us: now_us(), vt0 }
}

impl Span {
    fn finish(&mut self, vt1: f64, args: SpanArgs) {
        if !self.live {
            return;
        }
        self.live = false;
        let dur_us = self.t0.elapsed().as_secs_f64() * 1e6;
        with_buf(|b| {
            b.depth = b.depth.saturating_sub(1);
            let depth = b.depth;
            b.data.events.push(SpanEvent {
                name: self.name,
                cat: self.cat,
                ts_us: self.ts0_us,
                dur_us,
                vt0: self.vt0,
                vt1,
                depth,
                args,
            });
        });
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn end(self) {}

    /// Ends the span, recording the virtual-clock end time.
    pub fn end_v(mut self, vt1: f64) {
        self.finish(vt1, Vec::new());
    }

    /// Ends the span with a virtual end time plus structured arguments.
    pub fn end_v_args(mut self, vt1: f64, args: &[(&'static str, f64)]) {
        // An inert span must stay free: no argument copy on the heap.
        let args = if self.live { args.to_vec() } else { Vec::new() };
        self.finish(vt1, args);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish(f64::NAN, Vec::new());
    }
}

/// Records a completed virtual-time-only span (model replay timelines,
/// where no meaningful host duration exists).
pub fn record_vspan(name: &'static str, cat: &'static str, vt0: f64, vt1: f64) {
    record_vspan_args(name, cat, vt0, vt1, &[]);
}

/// [`record_vspan`] with structured arguments (`peer`, `bytes`, ...).
pub fn record_vspan_args(
    name: &'static str,
    cat: &'static str,
    vt0: f64,
    vt1: f64,
    args: &[(&'static str, f64)],
) {
    if mode() < TraceMode::Spans {
        return;
    }
    with_buf(|b| {
        let depth = b.depth;
        b.data.events.push(SpanEvent {
            name,
            cat,
            ts_us: f64::NAN,
            dur_us: f64::NAN,
            vt0,
            vt1,
            depth,
            args: args.to_vec(),
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_mode;

    #[test]
    fn off_mode_spans_record_nothing() {
        set_mode(TraceMode::Off);
        {
            let s = span("nothing", "test");
            s.end();
        }
        let n = with_buf(|b| b.data.events.len());
        assert_eq!(n, 0);
    }

    #[test]
    fn vdur_requires_both_endpoints() {
        let mut e = SpanEvent {
            name: "x",
            cat: "c",
            ts_us: 0.0,
            dur_us: 1.0,
            vt0: f64::NAN,
            vt1: f64::NAN,
            depth: 0,
            args: vec![("peer", 3.0)],
        };
        assert_eq!(e.vdur(), None);
        assert_eq!(e.arg("peer"), Some(3.0));
        assert_eq!(e.arg("bytes"), None);
        e.vt0 = 1.0;
        assert_eq!(e.vdur(), None);
        e.vt1 = 3.5;
        assert_eq!(e.vdur(), Some(2.5));
    }
}
