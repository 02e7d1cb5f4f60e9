//! The profiler's own event model, decoupled from `nkt-trace`'s
//! recording types so the same analysis runs over in-process
//! [`ThreadData`] and over a `TRACE_<run>.json` read back from disk.

use nkt_trace::json::{parse, Value};
use nkt_trace::ThreadData;

/// One span on a rank's timeline. Virtual times are model seconds
/// (`NaN` = absent); host duration is real seconds (`NaN` for
/// virtual-only spans such as replay tiles and p2p records).
#[derive(Debug, Clone)]
pub struct PSpan {
    /// Span name (stage name, collective op, or the op label of a p2p
    /// message).
    pub name: String,
    /// Category: `stage`, `step`, `mpi`, `mpi.p2p.send`, `mpi.p2p.recv`,
    /// `replay`, ...
    pub cat: String,
    /// Host duration in seconds (`NaN` = virtual-only).
    pub dur_s: f64,
    /// Virtual start (seconds, `NaN` = none).
    pub vt0: f64,
    /// Virtual end.
    pub vt1: f64,
    /// Nesting depth at entry on the recording thread.
    pub depth: u32,
    /// Structured arguments (`peer`, `bytes`, `seq`, `wait`, ...).
    pub args: Vec<(String, f64)>,
}

impl PSpan {
    /// Virtual duration, when both endpoints are present.
    pub fn vdur(&self) -> Option<f64> {
        (self.vt0.is_finite() && self.vt1.is_finite()).then(|| self.vt1 - self.vt0)
    }

    /// Structured-argument lookup.
    pub fn arg(&self, name: &str) -> Option<f64> {
        self.args.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// Everything one rank recorded, in recording order.
#[derive(Debug, Clone)]
pub struct PRank {
    /// MPI rank id.
    pub rank: usize,
    /// The rank's spans in recording (= span-exit) order.
    pub spans: Vec<PSpan>,
}

/// The first element of `rows` that `is` picks, pushed from `new` when
/// there is none: every fold of the analysis buckets this way, so a
/// bucket's position is the order its key first appeared in.
pub(crate) fn entry<'a, T>(
    rows: &'a mut Vec<T>,
    is: impl Fn(&T) -> bool,
    new: impl FnOnce() -> T,
) -> &'a mut T {
    match rows.iter().position(is) {
        Some(i) => &mut rows[i],
        None => {
            rows.push(new());
            rows.last_mut().unwrap()
        }
    }
}

/// Builds rank timelines from in-process collected thread data.
/// Threads without a rank tag (the main thread, helpers) are dropped;
/// several `ThreadData` entries for the same rank (checkpoint restarts,
/// repeated flushes) are concatenated in tid order, which
/// `nkt_trace::take_collected` has already made deterministic.
pub fn from_threads(threads: &[ThreadData]) -> Vec<PRank> {
    let mut out: Vec<PRank> = Vec::new();
    for t in threads {
        let Some(rank) = t.rank else { continue };
        let spans = t.events.iter().map(|e| PSpan {
            name: e.name.to_string(),
            cat: e.cat.to_string(),
            dur_s: e.dur_us * 1e-6,
            vt0: e.vt0,
            vt1: e.vt1,
            depth: e.depth,
            args: e.args.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
        });
        let new = || PRank { rank, spans: Vec::new() };
        entry(&mut out, |r| r.rank == rank, new).spans.extend(spans);
    }
    out.sort_by_key(|r| r.rank);
    out
}

/// Builds rank timelines from an exported `TRACE_<run>.json` document
/// (the offline path). Only events recorded by rank-tagged threads are
/// kept — the `metrics.per_thread` table provides the tid → rank map.
pub fn from_trace_json(text: &str) -> Result<Vec<PRank>, String> {
    let doc = parse(text)?;
    let per_thread = doc
        .get("metrics")
        .and_then(|m| m.get("per_thread"))
        .and_then(Value::as_arr)
        .ok_or("trace json: no metrics.per_thread table")?;
    let mut rank_of_tid: Vec<(f64, usize)> = Vec::new();
    for t in per_thread {
        let tid = t.get("tid").and_then(Value::as_f64).ok_or("per_thread entry without tid")?;
        if let Some(rank) = t.get("rank").and_then(Value::as_f64) {
            rank_of_tid.push((tid, rank as usize));
        }
    }
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("trace json: no traceEvents array")?;
    let mut out: Vec<PRank> = Vec::new();
    for e in events {
        if e.get("ph").and_then(Value::as_str) != Some("X") {
            continue; // metadata records
        }
        let tid = e.get("tid").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let Some(&(_, rank)) = rank_of_tid.iter().find(|(t, _)| *t == tid) else {
            continue;
        };
        let pid = e.get("pid").and_then(Value::as_f64).unwrap_or(0.0);
        let args = e.get("args");
        let get_arg = |k: &str| args.and_then(|a| a.get(k)).and_then(Value::as_f64);
        // Host spans (pid 0) carry a real duration; virtual-only spans
        // (pid 1) reuse ts/dur for *model* microseconds, so their host
        // duration is absent. Virtual endpoints always come from the
        // full-precision `vt0`/`vt1` args, never from the rounded ts.
        let dur_s = if pid == 0.0 {
            e.get("dur").and_then(Value::as_f64).unwrap_or(f64::NAN) * 1e-6
        } else {
            f64::NAN
        };
        let mut extra = Vec::new();
        if let Some(Value::Obj(fields)) = args {
            for (k, v) in fields {
                if k == "depth" || k == "vt0" || k == "vt1" {
                    continue;
                }
                if let Some(x) = v.as_f64() {
                    extra.push((k.clone(), x));
                }
            }
        }
        let span = PSpan {
            name: e.get("name").and_then(Value::as_str).unwrap_or("").to_string(),
            cat: e.get("cat").and_then(Value::as_str).unwrap_or("").to_string(),
            dur_s,
            vt0: get_arg("vt0").unwrap_or(f64::NAN),
            vt1: get_arg("vt1").unwrap_or(f64::NAN),
            depth: get_arg("depth").unwrap_or(0.0) as u32,
            args: extra,
        };
        let new = || PRank { rank, spans: Vec::new() };
        entry(&mut out, |r| r.rank == rank, new).spans.push(span);
    }
    out.sort_by_key(|r| r.rank);
    Ok(out)
}
