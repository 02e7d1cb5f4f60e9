//! # nkt-trace — workspace-wide tracing and metrics
//!
//! The paper's entire contribution is *measurement*: per-stage pies
//! (Figures 12–16), per-machine kernel sweeps, Alltoall saturation. This
//! crate is the observability substrate that lets the reproduction tell
//! the same stories about itself: span timelines, typed counters/gauges,
//! and a Chrome trace-event exporter whose output loads directly in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! ## Architecture
//!
//! * **Thread-local recorders** ([`span`], [`counter_add`], [`gauge_set`])
//!   buffer events without any cross-thread synchronization on the hot
//!   path. Each rank thread of `nkt-mpi` is one recorder; buffers drain
//!   into a global collector when the thread exits (or on explicit
//!   [`flush_thread`]).
//! * **Dual timestamps**: spans always carry host [`std::time::Instant`]
//!   times; spans around virtual-time regions (`nkt-mpi` collectives, the
//!   model replay) additionally carry virtual-clock start/end seconds, so
//!   paper-scale simulated runs produce the same timeline format as
//!   native runs.
//! * **Off-path cost**: every recording entry point starts with a single
//!   relaxed atomic load of the global mode ([`mode`]). With the mode
//!   `Off` (the default) nothing else happens — bench numbers are
//!   unaffected.
//!
//! ## Configuration
//!
//! [`config`] is the workspace's one reader of the environment: a binary
//! parses it once into a [`config::RunConfig`] and applies the trace part
//! — recording mode, summary flag, output directory — through [`init`].
//! Those three stay process-wide switches because the hot path reads
//! them; the mode is `Off` until [`init`] or [`set_mode`].
//!
//! `summary` records spans like `spans` but [`export`] prints a one-line
//! per-stage host/virtual digest instead of writing `TRACE_<run>.json`.
//! The flag lives outside the mode byte and is only consulted at export
//! time, so the recording off-path stays a single relaxed atomic load.

pub mod config;
pub mod export;
pub mod flight;
pub mod gate;
pub mod json;
pub mod metrics;
pub mod span;

pub use export::{
    export, flush_thread, out_dir, results_dir, summary_digest,
    take_collected, take_collected_for,
};
pub use metrics::{
    counter_add, gauge_set, histogram_record, intern_label, merge_counters, merge_gauges,
    merge_hists, thread_counter, thread_counter_prefix_sum, Hist, HIST_BUCKETS,
};
pub use span::{
    current_scope, current_tid, record_vspan, record_vspan_args, set_thread_meta,
    set_thread_scope, span, span_v, Span, SpanArgs, SpanEvent, ThreadData,
};

use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// Recording mode, ordered by how much is captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceMode {
    /// Nothing is recorded (a single relaxed atomic load per call site).
    Off,
    /// Counters and gauges only.
    Counters,
    /// Counters, gauges, and span timelines.
    Spans,
}

static MODE: AtomicU8 = AtomicU8::new(TraceMode::Off as u8);
static DIR_OVERRIDE: Mutex<Option<PathBuf>> = Mutex::new(None);
/// Separate from the mode byte on purpose: recording call sites consult
/// only [`MODE`] (one relaxed load on the off-path); this flag is read
/// exclusively on the cold export path.
static SUMMARY: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Current recording mode: one relaxed atomic load. `Off` until
/// [`init`] or [`set_mode`].
#[inline]
pub fn mode() -> TraceMode {
    match MODE.load(Ordering::Relaxed) {
        0 => TraceMode::Off,
        1 => TraceMode::Counters,
        _ => TraceMode::Spans,
    }
}

/// Overrides the recording mode (tests, embedders).
pub fn set_mode(m: TraceMode) {
    MODE.store(m as u8, Ordering::Relaxed);
}

/// Whether `NKT_TRACE=summary` digest rendering is armed. Only
/// consulted at export time.
pub fn summary_enabled() -> bool {
    SUMMARY.load(Ordering::Relaxed)
}

/// Overrides the summary-digest flag (tests, embedders).
pub fn set_summary(on: bool) {
    SUMMARY.store(on, Ordering::Relaxed);
}

/// Overrides the export directory (None restores the default).
pub fn set_dir(dir: Option<PathBuf>) {
    *DIR_OVERRIDE.lock().unwrap() = dir;
}

pub(crate) fn dir_override() -> Option<PathBuf> {
    DIR_OVERRIDE.lock().unwrap().clone()
}

thread_local! {
    static THREAD_DIR: std::cell::RefCell<Option<PathBuf>> =
        const { std::cell::RefCell::new(None) };
}

/// Overrides the output directory for *this thread only* — it takes
/// precedence over [`set_dir`] in [`out_dir`]. This is
/// how concurrent per-job worlds route their artifacts (STATS, flight
/// dumps, checkpoints resolved through [`out_dir`]) into per-job
/// directories without racing on process-global state; `None` restores
/// the global resolution.
pub fn set_thread_dir(dir: Option<PathBuf>) {
    THREAD_DIR.with(|d| *d.borrow_mut() = dir);
}

pub(crate) fn thread_dir() -> Option<PathBuf> {
    THREAD_DIR.with(|d| d.borrow().clone())
}

/// Applies the trace part of a parsed configuration: recording mode
/// ([`config::RunConfig::trace_mode`]), summary flag, output directory.
pub fn init(cfg: &config::RunConfig) {
    set_mode(cfg.trace_mode());
    set_summary(cfg.summary);
    set_dir(cfg.trace_dir.clone());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_ordering_reflects_detail() {
        assert!(TraceMode::Off < TraceMode::Counters);
        assert!(TraceMode::Counters < TraceMode::Spans);
    }

    #[test]
    fn summary_flag_keeps_off_path_single_load() {
        // The summary flag must not leak into the recording fast path:
        // with mode Off, a span is inert regardless of the flag — the
        // only branch taken is the single relaxed load in mode(). The
        // flag itself lives outside the mode byte and is consulted only
        // by export().
        set_mode(TraceMode::Off);
        set_summary(true);
        let before = span::with_buf(|b| b.data.events.len());
        span("inert", "test").end();
        record_vspan("inert", "test", 0.0, 1.0);
        let after = span::with_buf(|b| b.data.events.len());
        assert_eq!(before, after, "off-path recorded an event");
        set_summary(false);
    }

    #[test]
    fn init_applies_summary_flag() {
        init(&config::RunConfig { summary: true, ..Default::default() });
        assert!(summary_enabled());
        set_summary(false);
    }
}
