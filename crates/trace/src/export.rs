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

use crate::json::{self, Value};
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
    let (path, _) = json::write(&out_dir(), &format!("TRACE_{run}.json"), &trace_document(&threads))
        .unwrap_or_else(|e| panic!("trace: cannot write {e}"));
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

/// The Chrome trace-event document of collected thread data.
pub fn trace_document(threads: &[ThreadData]) -> Value {
    let meta = |what: &str, pid: u64, tid: u64, name: &str| Value::from([
        ("name", what.into()), ("ph", "M".into()), ("pid", pid.into()), ("tid", tid.into()),
        ("args", Value::from([("name", name.into())])),
    ]);
    let process = |pid, name| meta("process_name", pid, 0, name);
    let mut events = vec![process(0, "host"), process(1, "virtual")];
    for t in threads {
        if let Some(name) = &t.name {
            events.extend([0, 1].map(|pid| meta("thread_name", pid, t.tid, name)));
        }
        events.extend(t.events.iter().map(|e| event(e, t.tid)));
    }
    Value::from([
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", "ms".into()),
        ("metrics", metrics(threads)),
    ])
}

fn event(e: &SpanEvent, tid: u64) -> Value {
    // Virtual-only spans render on the "virtual" process with model
    // microseconds; host spans on pid 0 with real microseconds.
    let (pid, ts, dur) = if e.ts_us.is_finite() {
        (0u64, e.ts_us, e.dur_us)
    } else {
        (1, e.vt0 * 1e6, (e.vt1 - e.vt0) * 1e6)
    };
    let mut args = vec![("depth".to_string(), e.depth.into())];
    for (name, vt) in [("vt0", e.vt0), ("vt1", e.vt1)] {
        if vt.is_finite() {
            args.push((name.to_string(), vt.into()));
        }
    }
    args.extend(e.args.iter().map(|&(n, v)| (n.to_string(), v.into())));
    Value::from([
        ("name", e.name.into()), ("cat", e.cat.into()), ("ph", "X".into()),
        ("ts", ts.into()), ("dur", dur.into()), ("pid", pid.into()), ("tid", tid.into()),
        ("args", Value::Obj(args)),
    ])
}

fn metrics(threads: &[ThreadData]) -> Value {
    let per_thread = threads.iter().map(|t| Value::from([
        ("tid", t.tid.into()),
        ("rank", t.rank.into()),
        ("counters", keyed(&t.counters, |&v| v.into())),
        ("gauges", keyed(&t.gauges, |&v| v.into())),
        ("hists", keyed(&t.hists, hist)),
    ]));
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for t in threads {
        merge_counters(&mut totals, &t.counters);
    }
    // Cross-thread gauge merge is last-write-wins in tid order (threads
    // are pre-sorted by take_collected; entries within a thread are in
    // write order), so the totals are independent of thread exit order.
    let mut gtotals: Vec<(&'static str, f64)> = Vec::new();
    let mut by_tid: Vec<&ThreadData> = threads.iter().collect();
    by_tid.sort_by_key(|t| t.tid);
    for t in by_tid {
        merge_gauges(&mut gtotals, &t.gauges);
    }
    let mut htotals: Vec<(&'static str, Hist)> = Vec::new();
    for t in threads {
        merge_hists(&mut htotals, &t.hists);
    }
    Value::from([
        ("per_thread", Value::Arr(per_thread.collect())),
        ("counter_totals", keyed(&totals, |&v| v.into())),
        ("gauge_totals", keyed(&gtotals, |&v| v.into())),
        ("hist_totals", keyed(&htotals, hist)),
    ])
}

/// A name-keyed metric table as an object.
pub(crate) fn keyed<T>(pairs: &[(&str, T)], value: impl Fn(&T) -> Value) -> Value {
    Value::Obj(pairs.iter().map(|(n, v)| (n.to_string(), value(v))).collect())
}

/// One histogram: count/sum plus the sparse nonzero buckets as
/// `[bucket_index, count]` pairs (48 mostly-zero buckets would bloat
/// every per-thread row).
fn hist(h: &Hist) -> Value {
    let buckets = h.buckets.iter().enumerate().filter(|&(_, &n)| n > 0);
    Value::from([
        ("count", h.count.into()),
        ("sum", h.sum.into()),
        ("buckets", Value::Arr(buckets.map(|(i, &n)| Value::from(&[i as u64, n][..])).collect())),
    ])
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

    /// Names are escaped and gauges print at shortest round-trip, a
    /// non-finite one as `null` — all through `json::render`.
    #[test]
    fn json_escaping() {
        let t = ThreadData {
            tid: 1,
            name: Some("a\"b\\c".to_string()),
            gauges: vec![("nan", f64::NAN), ("g", 1.5)],
            ..ThreadData::default()
        };
        let s = json::render(&trace_document(&[t]));
        assert!(s.contains("\"name\": \"a\\\"b\\\\c\""), "{s}");
        assert!(s.contains("\"gauges\": {\"nan\": null, \"g\": 1.5}"), "{s}");
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
        let s = json::render(&trace_document(&[t]));
        assert!(s.contains("\"traceEvents\""));
        assert!(s.contains("\"name\": \"NonLinear\""));
        assert!(s.contains("\"cat\": \"stage\""));
        assert!(s.contains("\"ts\": 10, \"dur\": 5"), "{s}");
        assert!(s.contains("\"vt0\": 0.5"));
        assert!(s.contains("\"peer\": 2"), "{s}");
        assert!(s.contains("\"bytes\": 4096"), "{s}");
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
        let a = json::render(&trace_document(&[mk(2, 20.0), mk(5, 50.0)]));
        let b = json::render(&trace_document(&[mk(5, 50.0), mk(2, 20.0)]));
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
        let s = json::render(&event(&e, 4));
        assert!(s.contains("\"pid\": 1"), "{s}");
        assert!(s.contains("\"ts\": 1000000,"), "{s}");
        assert!(s.contains("\"dur\": 1000000,"), "{s}");
    }
}
