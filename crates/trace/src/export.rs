//! Global collector and Chrome trace-event JSON exporter.
//!
//! Thread buffers drain here (at thread exit or [`flush_thread`]);
//! [`export`] serializes everything collected so far into one
//! `TRACE_<run>.json` using the Chrome trace-event *object* format:
//!
//! ```json
//! { "traceEvents": [...], "displayTimeUnit": "ms", "metrics": {...} }
//! ```
//!
//! Perfetto and `chrome://tracing` load the `traceEvents` array and
//! ignore the extra `metrics` key, so one artifact is both the visual
//! timeline and the machine-readable metrics dump. Host-time spans live
//! on pid 0 ("host"); virtual-only spans (model replay) on pid 1
//! ("virtual"), whose microseconds are *model* microseconds.

use crate::metrics::{merge_counters, merge_gauges, merge_hists, Hist};
use crate::span::{with_buf, SpanEvent, ThreadData};
use crate::{mode, TraceMode};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;

static COLLECTOR: Mutex<Vec<ThreadData>> = Mutex::new(Vec::new());

pub(crate) fn collect(data: ThreadData) {
    COLLECTOR.lock().unwrap().push(data);
}

/// Drains the current thread's buffer into the global collector.
pub fn flush_thread() {
    with_buf(|b| {
        let data = b.take_data();
        if !(data.events.is_empty()
            && data.counters.is_empty()
            && data.gauges.is_empty()
            && data.hists.is_empty())
        {
            collect(data);
        }
    });
}

/// Flushes the current thread, then drains and returns everything
/// collected so far (tests; [`export`] uses it internally).
///
/// The result is sorted by tid: threads land in the collector in exit
/// order, which races between runs, so any consumer that merges
/// last-write-wins state (gauges) across threads would otherwise be
/// order-dependent. Within a thread, entries are already in write order
/// (host-timestamp order), so tid-then-position is a total, reproducible
/// order.
pub fn take_collected() -> Vec<ThreadData> {
    flush_thread();
    let mut threads = std::mem::take(&mut *COLLECTOR.lock().unwrap());
    threads.sort_by_key(|t| t.tid);
    threads
}

/// Flushes the current thread, then drains and returns only the threads
/// recorded under `scope` (see [`crate::set_thread_scope`]), leaving
/// every other scope's data in the collector. This is the isolation
/// primitive for concurrent worlds: each drains its own ranks' data
/// without observing (or losing) a sibling's. Sorted by tid like
/// [`take_collected`].
pub fn take_collected_for(scope: u64) -> Vec<ThreadData> {
    flush_thread();
    let mut coll = COLLECTOR.lock().unwrap();
    let all = std::mem::take(&mut *coll);
    let (mut matched, rest): (Vec<_>, Vec<_>) =
        all.into_iter().partition(|t| t.scope == scope);
    *coll = rest;
    drop(coll);
    matched.sort_by_key(|t| t.tid);
    matched
}

/// Exports everything recorded so far to `TRACE_<run>.json` in the
/// configured directory. Returns the path, or `None` when tracing is
/// off. Drains the collector: a second export only sees newer data.
///
/// Under `NKT_TRACE=summary` no file is written: the per-stage
/// host/virtual digest is printed instead and `None` is returned.
pub fn export(run: &str) -> Option<PathBuf> {
    if mode() == TraceMode::Off {
        return None;
    }
    let threads = take_collected();
    if crate::summary_enabled() {
        print!("{}", summary_digest(run, &threads));
        return None;
    }
    let dir = out_dir();
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("trace: cannot create {}: {e}", dir.display()));
    let path = dir.join(format!("TRACE_{run}.json"));
    let body = chrome_json(&threads);
    std::fs::write(&path, body)
        .unwrap_or_else(|e| panic!("trace: cannot write {}: {e}", path.display()));
    eprintln!(
        "trace '{run}': {} thread(s), {} span(s) -> {}",
        threads.len(),
        threads.iter().map(|t| t.events.len()).sum::<usize>(),
        path.display()
    );
    Some(path)
}

/// The `NKT_TRACE=summary` rendering: one line per stage (first-seen
/// order across tid-sorted threads) with call count, summed host time
/// and summed virtual time, plus a totals line. Spans with category
/// `stage` only — the digest answers "where did the step go" without
/// the full timeline's weight.
pub fn summary_digest(run: &str, threads: &[ThreadData]) -> String {
    let mut rows: Vec<(&str, u64, f64, f64)> = Vec::new(); // name, calls, host_s, virt_s
    for t in threads {
        for e in &t.events {
            if e.cat != "stage" {
                continue;
            }
            let host = if e.dur_us.is_finite() { e.dur_us * 1e-6 } else { 0.0 };
            let virt = e.vdur().unwrap_or(0.0);
            match rows.iter_mut().find(|r| r.0 == e.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += host;
                    r.3 += virt;
                }
                None => rows.push((e.name, 1, host, virt)),
            }
        }
    }
    let mut out = String::new();
    if rows.is_empty() {
        let _ = writeln!(out, "trace summary '{run}': no stage spans recorded");
        return out;
    }
    let (mut th, mut tv, mut tc) = (0.0, 0.0, 0u64);
    for (name, calls, host, virt) in &rows {
        tc += calls;
        th += host;
        tv += virt;
        let _ = writeln!(
            out,
            "trace summary '{run}': {name:<14} calls {calls:>5}  host {:>9.3} ms  virt {:>9.3} ms",
            host * 1e3,
            virt * 1e3,
        );
    }
    let _ = writeln!(
        out,
        "trace summary '{run}': {:<14} calls {tc:>5}  host {:>9.3} ms  virt {:>9.3} ms",
        "total",
        th * 1e3,
        tv * 1e3,
    );
    out
}

/// Serializes collected thread data as Chrome trace-event JSON.
pub fn chrome_json(threads: &[ThreadData]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"traceEvents\": [\n");
    let mut first = true;
    let mut push = |line: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("    ");
        out.push_str(&line);
    };
    push(
        r#"{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"host"}}"#.to_string(),
        &mut out,
    );
    push(
        r#"{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"virtual"}}"#.to_string(),
        &mut out,
    );
    for t in threads {
        if let Some(name) = &t.name {
            for pid in [0u32, 1] {
                push(
                    format!(
                        r#"{{"name":"thread_name","ph":"M","pid":{pid},"tid":{},"args":{{"name":{}}}}}"#,
                        t.tid,
                        json_str(name)
                    ),
                    &mut out,
                );
            }
        }
        for e in &t.events {
            push(event_json(e, t.tid), &mut out);
        }
    }
    out.push_str("\n  ],\n  \"displayTimeUnit\": \"ms\",\n");
    out.push_str(&metrics_json(threads));
    out.push_str("}\n");
    out
}

fn event_json(e: &SpanEvent, tid: u64) -> String {
    // Virtual-only spans render on the "virtual" process with model
    // microseconds; host spans on pid 0 with real microseconds.
    let (pid, ts, dur) = if e.ts_us.is_finite() {
        (0u32, e.ts_us, e.dur_us)
    } else {
        (1u32, e.vt0 * 1e6, (e.vt1 - e.vt0) * 1e6)
    };
    let mut args = format!("{{\"depth\":{}", e.depth);
    if e.vt0.is_finite() {
        let _ = write!(args, ",\"vt0\":{}", json_f64_exact(e.vt0));
    }
    if e.vt1.is_finite() {
        let _ = write!(args, ",\"vt1\":{}", json_f64_exact(e.vt1));
    }
    for (n, v) in &e.args {
        let _ = write!(args, ",{}:{}", json_str(n), json_f64_exact(*v));
    }
    args.push('}');
    format!(
        r#"{{"name":{},"cat":{},"ph":"X","ts":{},"dur":{},"pid":{pid},"tid":{tid},"args":{args}}}"#,
        json_str(e.name),
        json_str(e.cat),
        json_f64(ts),
        json_f64(dur),
    )
}

fn metrics_json(threads: &[ThreadData]) -> String {
    let mut out = String::from("  \"metrics\": {\n    \"per_thread\": [\n");
    for (i, t) in threads.iter().enumerate() {
        let comma = if i + 1 < threads.len() { "," } else { "" };
        let rank = t.rank.map_or("null".to_string(), |r| r.to_string());
        let mut counters = String::new();
        for (j, (n, v)) in t.counters.iter().enumerate() {
            let c = if j + 1 < t.counters.len() { ", " } else { "" };
            let _ = write!(counters, "{}: {v}{c}", json_str(n));
        }
        let mut gauges = String::new();
        for (j, (n, v)) in t.gauges.iter().enumerate() {
            let c = if j + 1 < t.gauges.len() { ", " } else { "" };
            let _ = write!(gauges, "{}: {}{c}", json_str(n), json_f64(*v));
        }
        let mut hists = String::new();
        for (j, (n, h)) in t.hists.iter().enumerate() {
            let c = if j + 1 < t.hists.len() { ", " } else { "" };
            let _ = write!(hists, "{}: {}{c}", json_str(n), hist_json(h));
        }
        let _ = writeln!(
            out,
            "      {{\"tid\": {}, \"rank\": {rank}, \"counters\": {{{counters}}}, \"gauges\": {{{gauges}}}, \"hists\": {{{hists}}}}}{comma}",
            t.tid
        );
    }
    out.push_str("    ],\n    \"counter_totals\": {");
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for t in threads {
        merge_counters(&mut totals, &t.counters);
    }
    for (j, (n, v)) in totals.iter().enumerate() {
        let c = if j + 1 < totals.len() { ", " } else { "" };
        let _ = write!(out, "{}: {v}{c}", json_str(n));
    }
    // Cross-thread gauge merge is last-write-wins in tid order (threads
    // are pre-sorted by take_collected; entries within a thread are in
    // write order), so the totals are independent of thread exit order.
    out.push_str("},\n    \"gauge_totals\": {");
    let mut gtotals: Vec<(&'static str, f64)> = Vec::new();
    let mut by_tid: Vec<&ThreadData> = threads.iter().collect();
    by_tid.sort_by_key(|t| t.tid);
    for t in by_tid {
        merge_gauges(&mut gtotals, &t.gauges);
    }
    for (j, (n, v)) in gtotals.iter().enumerate() {
        let c = if j + 1 < gtotals.len() { ", " } else { "" };
        let _ = write!(out, "{}: {}{c}", json_str(n), json_f64_exact(*v));
    }
    out.push_str("},\n    \"hist_totals\": {");
    let mut htotals: Vec<(&'static str, Hist)> = Vec::new();
    for t in threads {
        merge_hists(&mut htotals, &t.hists);
    }
    for (j, (n, h)) in htotals.iter().enumerate() {
        let c = if j + 1 < htotals.len() { ", " } else { "" };
        let _ = write!(out, "{}: {}{c}", json_str(n), hist_json(h));
    }
    out.push_str("}\n  }\n");
    out
}

/// One histogram as JSON: count/sum plus the sparse nonzero buckets as
/// `[bucket_index, count]` pairs (48 mostly-zero buckets would bloat
/// every per-thread row).
fn hist_json(h: &Hist) -> String {
    let mut out = format!("{{\"count\": {}, \"sum\": {}, \"buckets\": [", h.count, h.sum);
    let mut first = true;
    for (i, &n) in h.buckets.iter().enumerate() {
        if n > 0 {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(out, "[{i}, {n}]");
        }
    }
    out.push_str("]}");
    out
}

/// JSON string escape.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite-checked JSON number (JSON has no NaN/Inf).
pub(crate) fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_string()
    }
}

/// Finite-checked JSON number at full round-trip precision (shortest
/// decimal that parses back to the same `f64`). Used for virtual times
/// and structured span args, where millisecond-rounded values would make
/// offline profiles disagree with in-process ones.
pub fn json_f64_exact(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// The directory trace artifacts go to: the per-thread override from
/// [`crate::set_thread_dir`], else the process-wide override from
/// [`crate::set_dir`] (where [`crate::init`] puts `NKT_TRACE_DIR`), else
/// [`results_dir`]. The flight recorder and `nkt-stats` write next to
/// the trace dump through this, so one knob redirects every
/// observability artifact of a run — and the thread-level layer lets
/// concurrent worlds each have their own.
pub fn out_dir() -> PathBuf {
    crate::thread_dir()
        .or_else(crate::dir_override)
        .unwrap_or_else(results_dir)
}

/// `results/` at the workspace root: walk up from the running crate's
/// manifest dir to the first `Cargo.toml` with a `[workspace]` section
/// (same resolution as the bench harness).
pub fn results_dir() -> PathBuf {
    let start = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|_| std::env::current_dir())
        .unwrap_or_else(|_| PathBuf::from("."));
    let mut dir: &std::path::Path = &start;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.exists() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return dir.join("results");
                }
            }
        }
        match dir.parent() {
            Some(p) => dir = p,
            None => return start.join("results"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(1.5), "1.500");
    }

    #[test]
    fn chrome_json_shape() {
        let t = ThreadData {
            tid: 7,
            scope: 0,
            rank: Some(3),
            name: Some("rank 3".to_string()),
            events: vec![SpanEvent {
                name: "NonLinear",
                cat: "stage",
                ts_us: 10.0,
                dur_us: 5.0,
                vt0: 0.5,
                vt1: 0.75,
                depth: 1,
                args: vec![("peer", 2.0), ("bytes", 4096.0)],
            }],
            counters: vec![("mpi.send.bytes", 1024)],
            gauges: vec![("mpi.recv.pending_peak", 2.0)],
            hists: vec![("mpi.p2p.send.bytes", {
                let mut h = Hist::default();
                h.record(1024);
                h.record(1500);
                h
            })],
        };
        let s = chrome_json(&[t]);
        assert!(s.contains("\"traceEvents\""));
        assert!(s.contains("\"name\":\"NonLinear\""));
        assert!(s.contains("\"cat\":\"stage\""));
        assert!(s.contains("\"vt0\":0.5"));
        assert!(s.contains("\"peer\":2"), "{s}");
        assert!(s.contains("\"bytes\":4096"), "{s}");
        assert!(s.contains("\"mpi.send.bytes\": 1024"));
        assert!(s.contains("\"counter_totals\""));
        assert!(s.contains("\"gauge_totals\""));
        assert!(s.contains("\"rank 3\""));
        // Hists export per-thread and merged, sparse nonzero buckets only.
        assert!(
            s.contains("\"mpi.p2p.send.bytes\": {\"count\": 2, \"sum\": 2524, \"buckets\": [[11, 2]]}"),
            "{s}"
        );
        assert!(s.contains("\"hist_totals\""));
    }

    #[test]
    fn gauge_totals_are_exit_order_independent() {
        // Two threads set the same gauge; whichever exits (collects)
        // last must NOT win — the higher tid must, in both collection
        // orders.
        let mk = |tid: u64, v: f64| ThreadData {
            tid,
            gauges: vec![("g", v)],
            ..ThreadData::default()
        };
        let a = chrome_json(&[mk(2, 20.0), mk(5, 50.0)]);
        let b = chrome_json(&[mk(5, 50.0), mk(2, 20.0)]);
        assert!(a.contains("\"gauge_totals\": {\"g\": 50}"), "{a}");
        assert_eq!(
            a.lines().filter(|l| l.contains("gauge_totals")).next(),
            b.lines().filter(|l| l.contains("gauge_totals")).next()
        );
    }

    /// The collector is process-global and the harness runs tests on
    /// parallel threads: a test that parks `ThreadData` and drains it holds
    /// this, or another test's global drain takes its data first.
    static COLLECTOR_TESTS: Mutex<()> = Mutex::new(());

    #[test]
    fn take_collected_returns_tid_sorted_threads() {
        let _serial = COLLECTOR_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        // Drain any residue, then park data for two synthetic tids in
        // reverse order; take_collected must hand them back sorted.
        let _ = take_collected();
        collect(ThreadData { tid: u64::MAX, ..ThreadData::default() });
        collect(ThreadData { tid: u64::MAX - 1, ..ThreadData::default() });
        let got = take_collected();
        let big: Vec<u64> =
            got.iter().map(|t| t.tid).filter(|&t| t >= u64::MAX - 1).collect();
        assert_eq!(big, vec![u64::MAX - 1, u64::MAX]);
    }

    #[test]
    fn take_collected_for_drains_only_its_scope() {
        // Park data under two synthetic scopes; draining one must return
        // exactly its threads and leave the other's in the collector.
        let _serial = COLLECTOR_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let sa = u64::MAX - 10;
        let sb = u64::MAX - 11;
        collect(ThreadData { tid: 1001, scope: sa, ..ThreadData::default() });
        collect(ThreadData { tid: 1002, scope: sb, ..ThreadData::default() });
        collect(ThreadData { tid: 1003, scope: sa, ..ThreadData::default() });
        let got_a = take_collected_for(sa);
        assert_eq!(got_a.iter().map(|t| t.tid).collect::<Vec<_>>(), vec![1001, 1003]);
        let got_b = take_collected_for(sb);
        assert_eq!(got_b.iter().map(|t| t.tid).collect::<Vec<_>>(), vec![1002]);
        assert!(take_collected_for(sa).is_empty());
    }

    #[test]
    fn summary_digest_aggregates_stage_spans() {
        let ev = |name: &'static str, dur_us: f64, vt0: f64, vt1: f64| SpanEvent {
            name,
            cat: "stage",
            ts_us: 0.0,
            dur_us,
            vt0,
            vt1,
            depth: 0,
            args: Vec::new(),
        };
        let t = ThreadData {
            tid: 1,
            events: vec![
                ev("NonLinear", 1000.0, 0.0, 0.002),
                ev("NonLinear", 3000.0, 0.002, 0.006),
                ev("PressureSolve", 500.0, f64::NAN, f64::NAN),
                SpanEvent { cat: "mpi", ..ev("alltoall", 9.9e6, 0.0, 9.9) },
            ],
            ..ThreadData::default()
        };
        let s = summary_digest("demo", &[t]);
        assert!(s.contains("NonLinear"), "{s}");
        assert!(s.contains("calls     2"), "{s}");
        assert!(s.contains("4.000 ms"), "{s}"); // 1 ms + 3 ms host
        assert!(s.contains("6.000 ms"), "{s}"); // 2 ms + 4 ms virtual
        assert!(s.contains("PressureSolve"), "{s}");
        assert!(s.contains("total"), "{s}");
        assert!(!s.contains("alltoall"), "non-stage spans excluded: {s}");
        assert_eq!(s.lines().count(), 3, "{s}");
        assert!(summary_digest("empty", &[]).contains("no stage spans"));
    }

    #[test]
    fn virtual_only_events_land_on_pid_1() {
        let e = SpanEvent {
            name: "replayed",
            cat: "replay",
            ts_us: f64::NAN,
            dur_us: f64::NAN,
            vt0: 1.0,
            vt1: 2.0,
            depth: 0,
            args: Vec::new(),
        };
        let s = event_json(&e, 4);
        assert!(s.contains("\"pid\":1"), "{s}");
        assert!(s.contains("\"ts\":1000000.000"), "{s}");
        assert!(s.contains("\"dur\":1000000.000"), "{s}");
    }
}
