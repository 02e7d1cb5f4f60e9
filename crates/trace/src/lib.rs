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
//!   relaxed atomic load of the global mode ([`mode`]). With
//!   `NKT_TRACE=off` (the default) nothing else happens — bench numbers
//!   are unaffected.
//!
//! ## Configuration
//!
//! | env var         | values                   | effect                          |
//! |-----------------|--------------------------|---------------------------------|
//! | `NKT_TRACE`     | `off` \| `counters` \| `spans` \| `summary` | recording mode (default `off`) |
//! | `NKT_TRACE_DIR` | directory path           | where `TRACE_<run>.json` lands (default `<workspace>/results`) |
//!
//! `summary` records spans like `spans` but [`export`] prints a one-line
//! per-stage host/virtual digest instead of writing `TRACE_<run>.json`.
//! The flag lives outside the mode byte and is only consulted at export
//! time, so the recording off-path stays a single relaxed atomic load.
//!
//! The mode is latched from the environment on first use; embedders and
//! tests can override it programmatically via [`set_mode`] /
//! [`init`].

pub mod export;
pub mod flight;
pub mod gate;
pub mod json;
pub mod metrics;
pub mod span;

pub use export::{
    export, flush_thread, json_f64_exact, out_dir, results_dir, summary_digest,
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

/// Trace configuration (the programmatic twin of the env knobs).
#[derive(Debug, Clone, Default)]
pub struct TraceConfig {
    /// Recording mode.
    pub mode: Option<TraceMode>,
    /// Output directory for `TRACE_<run>.json` (None = `NKT_TRACE_DIR`
    /// env, falling back to `<workspace>/results`).
    pub dir: Option<PathBuf>,
    /// `NKT_TRACE=summary`: record spans, but [`export`] prints a
    /// per-stage digest instead of writing the full JSON timeline.
    pub summary: bool,
}

impl TraceConfig {
    /// Reads `NKT_TRACE` and `NKT_TRACE_DIR`.
    pub fn from_env() -> TraceConfig {
        let raw = std::env::var("NKT_TRACE").ok();
        TraceConfig {
            mode: raw.as_deref().map(parse_mode),
            dir: std::env::var("NKT_TRACE_DIR").ok().map(PathBuf::from),
            summary: raw
                .as_deref()
                .is_some_and(|v| v.trim().eq_ignore_ascii_case("summary")),
        }
    }
}

fn parse_mode(v: &str) -> TraceMode {
    match v.trim().to_ascii_lowercase().as_str() {
        "counters" => TraceMode::Counters,
        // `summary` needs the same span stream; only the export-time
        // rendering differs (see TraceConfig::summary).
        "spans" | "on" | "1" | "summary" => TraceMode::Spans,
        _ => TraceMode::Off,
    }
}

const MODE_UNINIT: u8 = u8::MAX;
static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);
static DIR_OVERRIDE: Mutex<Option<PathBuf>> = Mutex::new(None);
/// Separate from the mode byte on purpose: recording call sites consult
/// only [`MODE`] (one relaxed load on the off-path); this flag is read
/// exclusively on the cold export path.
static SUMMARY: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Current recording mode. One relaxed atomic load on the fast path; the
/// first call latches the mode from `NKT_TRACE`.
#[inline]
pub fn mode() -> TraceMode {
    match MODE.load(Ordering::Relaxed) {
        0 => TraceMode::Off,
        1 => TraceMode::Counters,
        2 => TraceMode::Spans,
        _ => init_mode_from_env(),
    }
}

#[cold]
fn init_mode_from_env() -> TraceMode {
    let cfg = TraceConfig::from_env();
    if cfg.summary {
        SUMMARY.store(true, Ordering::Relaxed);
    }
    let m = cfg.mode.unwrap_or(TraceMode::Off);
    // A racing thread may have latched first; either wrote the same
    // env-derived value or an explicit set_mode, which wins.
    let _ = MODE.compare_exchange(
        MODE_UNINIT,
        m as u8,
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    match MODE.load(Ordering::Relaxed) {
        1 => TraceMode::Counters,
        2 => TraceMode::Spans,
        _ => TraceMode::Off,
    }
}

/// Overrides the recording mode (tests, embedders).
pub fn set_mode(m: TraceMode) {
    MODE.store(m as u8, Ordering::Relaxed);
}

/// Whether `NKT_TRACE=summary` digest rendering is armed (see
/// [`TraceConfig::summary`]). Only consulted at export time.
pub fn summary_enabled() -> bool {
    SUMMARY.load(Ordering::Relaxed)
}

/// Overrides the summary-digest flag (tests, embedders).
pub fn set_summary(on: bool) {
    SUMMARY.store(on, Ordering::Relaxed);
}

/// Overrides the export directory (None restores env/default resolution).
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
/// precedence over [`set_dir`] and the env vars in [`out_dir`]. This is
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

/// Applies a [`TraceConfig`]: unset fields keep the current behaviour.
pub fn init(cfg: TraceConfig) {
    if let Some(m) = cfg.mode {
        set_mode(m);
    }
    if cfg.summary {
        set_summary(true);
    }
    if cfg.dir.is_some() {
        set_dir(cfg.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing() {
        assert_eq!(parse_mode("off"), TraceMode::Off);
        assert_eq!(parse_mode("counters"), TraceMode::Counters);
        assert_eq!(parse_mode("spans"), TraceMode::Spans);
        assert_eq!(parse_mode("SPANS"), TraceMode::Spans);
        assert_eq!(parse_mode("summary"), TraceMode::Spans);
        assert_eq!(parse_mode("garbage"), TraceMode::Off);
    }

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
        init(TraceConfig { mode: None, dir: None, summary: true });
        assert!(summary_enabled());
        set_summary(false);
    }
}
