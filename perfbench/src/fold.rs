//! Folds one thread's span stream into per-name self times.
//!
//! `nkt-trace` pushes a span when it *exits*, tagged with its nesting
//! depth at entry, so children precede their parent in the stream. A
//! span's self time is its duration minus the durations of its direct
//! children; summed over every span under a root the self times add up
//! to the root's duration exactly, which is what lets the report close
//! the layer sums against the measured step time.

use nektar_repro::trace::SpanEvent;
use std::collections::BTreeMap;

/// Accumulated time of every span sharing one (category, name).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Row {
    /// Duration minus direct children, summed, in µs.
    pub self_us: f64,
    /// Full duration, summed, in µs.
    pub total_us: f64,
    /// Number of spans.
    pub count: u64,
}

/// Self-time table of the spans under the selected roots.
#[derive(Debug, Default)]
pub struct Fold {
    rows: BTreeMap<(&'static str, &'static str), Row>,
    /// Number of root spans folded.
    pub roots: u64,
}

impl Fold {
    /// Folds the descendants of every depth-0 span named `root` (the
    /// root included). Virtual-only spans (no host timestamp) carry no
    /// measured time and are skipped.
    pub fn under_root(events: &[SpanEvent], root: &str) -> Fold {
        let mut out = Fold::default();
        // Spans exited since the last depth-0 exit: they belong to the
        // root that closes next.
        let mut pending: Vec<((&'static str, &'static str), Row)> = Vec::new();
        // child_us[d] = summed duration of depth-d spans whose parent is
        // still open.
        let mut child_us: Vec<f64> = Vec::new();
        for e in events
            .iter()
            .filter(|e| e.ts_us.is_finite() && e.dur_us.is_finite())
        {
            let d = e.depth as usize;
            if child_us.len() < d + 2 {
                child_us.resize(d + 2, 0.0);
            }
            let self_us = e.dur_us - std::mem::take(&mut child_us[d + 1]);
            child_us[d] += e.dur_us;
            pending.push((
                (e.cat, e.name),
                Row {
                    self_us,
                    total_us: e.dur_us,
                    count: 1,
                },
            ));
            if d == 0 {
                child_us[0] = 0.0;
                if e.name == root {
                    out.roots += 1;
                    for (key, r) in pending.drain(..) {
                        let row = out.rows.entry(key).or_default();
                        row.self_us += r.self_us;
                        row.total_us += r.total_us;
                        row.count += r.count;
                    }
                } else {
                    pending.clear();
                }
            }
        }
        out
    }

    /// The row of one (category, name); zero when no such span ran.
    pub fn row(&self, cat: &'static str, name: &'static str) -> Row {
        self.rows.get(&(cat, name)).copied().unwrap_or_default()
    }

    /// Summed self time of a whole category, in µs.
    pub fn cat_self_us(&self, cat: &str) -> f64 {
        self.rows
            .iter()
            .filter(|((c, _), _)| *c == cat)
            .map(|(_, r)| r.self_us)
            .sum()
    }

    /// Summed self time of every folded span, in µs (equals the summed
    /// root durations).
    pub fn total_self_us(&self) -> f64 {
        self.rows.values().map(|r| r.self_us).sum()
    }

    /// Number of spans folded.
    pub fn span_count(&self) -> u64 {
        self.rows.values().map(|r| r.count).sum()
    }

    /// Every row, ordered by (category, name).
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &'static str, Row)> + '_ {
        self.rows.iter().map(|(&(c, n), &r)| (c, n, r))
    }
}

/// Startup self-test on a synthetic stream (see `estimate::self_test`).
pub fn self_test() {
    let ev = |name: &'static str, cat: &'static str, ts: f64, dur: f64, depth: u32| SpanEvent {
        name,
        cat,
        ts_us: ts,
        dur_us: dur,
        vt0: f64::NAN,
        vt1: f64::NAN,
        depth,
        args: Vec::new(),
    };
    // build{stage} ; step{ stage{kernel,kernel}, mpi, vspan } ; step{}
    let events = vec![
        ev("A", "stage", 1.0, 5.0, 1),
        ev("build", "perf", 0.0, 10.0, 0),
        ev("k", "kernel", 21.0, 10.0, 2),
        ev("k", "kernel", 32.0, 20.0, 2),
        ev("A", "stage", 20.0, 40.0, 1),
        ev("allreduce", "mpi", 61.0, 15.0, 1),
        ev("send", "mpi", f64::NAN, f64::NAN, 1),
        ev("step", "perf", 19.0, 60.0, 0),
        ev("step", "perf", 80.0, 7.0, 0),
    ];
    let f = Fold::under_root(&events, "step");
    assert_eq!(f.roots, 2);
    assert_eq!(
        f.row("kernel", "k"),
        Row {
            self_us: 30.0,
            total_us: 30.0,
            count: 2
        }
    );
    assert_eq!(
        f.row("stage", "A"),
        Row {
            self_us: 10.0,
            total_us: 40.0,
            count: 1
        }
    );
    assert_eq!(f.cat_self_us("mpi"), 15.0);
    assert_eq!(f.row("perf", "step").self_us, 5.0 + 7.0);
    assert_eq!(f.total_self_us(), 67.0);
    assert_eq!(f.span_count(), 6);
    assert_eq!(f.row("perf", "build"), Row::default());
}
