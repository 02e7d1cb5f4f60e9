//! End-to-end contract of the trace layer: span nesting and ordering
//! survive the round trip through the Chrome-JSON exporter, counters
//! saturate on overflow and merge across threads, and the off mode
//! records nothing.
//!
//! The recording mode and the collector are process-global, so the tests
//! serialize on a mutex and filter collected data by their own thread
//! ids.

use nkt_trace::{json, TraceMode};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

/// Takes the serialization lock, drains any residue left by other tests,
/// and switches to spans mode.
fn setup() -> std::sync::MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _ = nkt_trace::take_collected();
    nkt_trace::set_mode(TraceMode::Spans);
    guard
}

#[test]
fn span_nesting_and_ordering_roundtrip_chrome_json() {
    let _g = setup();
    let tid = nkt_trace::current_tid();
    {
        let outer = nkt_trace::span("step", "step");
        {
            let s1 = nkt_trace::span("BwdTransform", "stage");
            std::thread::sleep(std::time::Duration::from_millis(2));
            s1.end();
        }
        {
            let s2 = nkt_trace::span_v("NonLinear", "stage", 1.0);
            std::thread::sleep(std::time::Duration::from_millis(2));
            s2.end_v(1.5);
        }
        outer.end();
    }
    nkt_trace::record_vspan("Alltoall", "replay", 0.0, 0.25);

    let collected = nkt_trace::take_collected();
    let mine: Vec<_> = collected.into_iter().filter(|t| t.tid == tid).collect();
    let json_text = json::render(&nkt_trace::export::trace_document(&mine));
    let doc = json::parse(&json_text).expect("exporter output must parse");

    // Pull the X events back out, skipping metadata records.
    let events: Vec<&json::Value> = doc
        .get("traceEvents")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .collect();
    assert_eq!(events.len(), 4, "step + 2 stages + 1 virtual span");

    let find = |name: &str| {
        events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some(name))
            .unwrap_or_else(|| panic!("span '{name}' missing from export"))
    };
    let ts = |e: &json::Value| e.get("ts").unwrap().as_f64().unwrap();
    let dur = |e: &json::Value| e.get("dur").unwrap().as_f64().unwrap();
    let depth =
        |e: &json::Value| e.get("args").unwrap().get("depth").unwrap().as_f64().unwrap() as u32;

    let step = find("step");
    let bwd = find("BwdTransform");
    let nl = find("NonLinear");
    let vrt = find("Alltoall");

    // Nesting: both stages lie strictly inside the step span in host
    // time, and their recorded depths are one below the step's.
    for stage in [bwd, nl] {
        assert!(ts(stage) >= ts(step), "stage starts inside step");
        assert!(
            ts(stage) + dur(stage) <= ts(step) + dur(step) + 1.0,
            "stage ends inside step (1 µs slack)"
        );
        assert_eq!(depth(stage), depth(step) + 1);
    }
    // Ordering: BwdTransform completed before NonLinear began.
    assert!(ts(bwd) + dur(bwd) <= ts(nl));

    // Dual clocks: the virtual endpoints of the NonLinear span survived.
    let args = nl.get("args").unwrap();
    assert_eq!(args.get("vt0").unwrap().as_f64(), Some(1.0));
    assert_eq!(args.get("vt1").unwrap().as_f64(), Some(1.5));

    // The virtual-only span renders on pid 1 with model microseconds.
    assert_eq!(vrt.get("pid").unwrap().as_f64(), Some(1.0));
    assert_eq!(ts(vrt), 0.0);
    assert_eq!(dur(vrt), 250_000.0);
}

#[test]
fn counters_saturate_and_merge_across_threads() {
    let _g = setup();
    let main_tid = nkt_trace::current_tid();

    // Overflow on one thread: adds saturate at u64::MAX, never wrap.
    nkt_trace::counter_add("ovf.bytes", u64::MAX - 5);
    nkt_trace::counter_add("ovf.bytes", 100);
    nkt_trace::counter_add("shared.msgs", 3);
    nkt_trace::gauge_set("depth", 1.0);
    nkt_trace::gauge_set("depth", 4.0); // last write wins

    let worker_tid = std::thread::spawn(|| {
        nkt_trace::set_thread_meta("worker".to_string(), Some(1));
        nkt_trace::counter_add("shared.msgs", 4);
        nkt_trace::current_tid()
        // Thread exit auto-flushes its buffer into the collector.
    })
    .join()
    .unwrap();

    let collected = nkt_trace::take_collected();
    let mine: Vec<_> = collected
        .into_iter()
        .filter(|t| t.tid == main_tid || t.tid == worker_tid)
        .collect();
    assert_eq!(mine.len(), 2, "both threads flushed");

    let main = mine.iter().find(|t| t.tid == main_tid).unwrap();
    let get = |t: &nkt_trace::ThreadData, name: &str| {
        t.counters.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    };
    assert_eq!(get(main, "ovf.bytes"), Some(u64::MAX), "saturating add");
    assert_eq!(main.gauges.iter().find(|(n, _)| *n == "depth").unwrap().1, 4.0);

    let worker = mine.iter().find(|t| t.tid == worker_tid).unwrap();
    assert_eq!(worker.rank, Some(1));
    assert_eq!(worker.name.as_deref(), Some("worker"));

    // Merge semantics: totals sum per name across threads, saturating.
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for t in &mine {
        nkt_trace::merge_counters(&mut totals, &t.counters);
    }
    let total = |name: &str| totals.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
    assert_eq!(total("shared.msgs"), Some(7));
    assert_eq!(total("ovf.bytes"), Some(u64::MAX));

    // The exporter reports the same totals.
    let text = json::render(&nkt_trace::export::trace_document(&mine));
    let doc = json::parse(&text).unwrap();
    let totals_obj = doc.get("metrics").unwrap().get("counter_totals").unwrap();
    assert_eq!(totals_obj.get("shared.msgs").unwrap().as_f64(), Some(7.0));
}

#[test]
fn off_mode_records_nothing_and_export_declines() {
    let _g = setup();
    nkt_trace::set_mode(TraceMode::Off);
    let tid = nkt_trace::current_tid();
    {
        let s = nkt_trace::span("ghost", "stage");
        s.end();
    }
    nkt_trace::counter_add("ghost.bytes", 1);
    assert_eq!(nkt_trace::export("ghost"), None, "off mode writes no file");
    let mine: Vec<_> =
        nkt_trace::take_collected().into_iter().filter(|t| t.tid == tid).collect();
    assert!(
        mine.iter().all(|t| t.events.is_empty() && t.counters.is_empty()),
        "off mode must not record"
    );
}

#[test]
fn counters_mode_records_counters_but_not_spans() {
    let _g = setup();
    nkt_trace::set_mode(TraceMode::Counters);
    let tid = nkt_trace::current_tid();
    {
        let s = nkt_trace::span("notaspan", "stage");
        s.end();
    }
    nkt_trace::counter_add("only.counter", 2);
    let mine: Vec<_> =
        nkt_trace::take_collected().into_iter().filter(|t| t.tid == tid).collect();
    let t = &mine[0];
    assert!(t.events.is_empty());
    assert_eq!(t.counters, vec![("only.counter", 2)]);
}
