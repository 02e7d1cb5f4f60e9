//! Append-only scheduler event timeline: `EVENTS_<run>.jsonl`.
//!
//! One JSON object per line, written at the scheduler's deterministic
//! decision points only (admission order, the ascending-job-id barrier
//! pass, finalization), so two serves of the same batch produce
//! byte-identical files. Every field is a tick count, an exact counter,
//! or a spec string — never a host time.
//!
//! | event      | meaning                                              |
//! |------------|------------------------------------------------------|
//! | `admit`    | first admission of a job into a world slot           |
//! | `resume`   | re-admission after a preemption (restores from ckpt) |
//! | `cut`      | job parked at a checkpoint epoch cut this tick       |
//! | `preempt`  | job evicted at its cut; back to the queue            |
//! | `complete` | job finished; manifest written                       |
//! | `fail`     | job failed (admission IO or slice error)             |
//!
//! `step` is the job's completed step count at the event; `usage` is
//! the job's tenant ledger (rank-steps) *after* any charge the event
//! settled; `preemptions` is the job's lifetime eviction count.

use nkt_trace::json::{parse, render, Value};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// An open append-only event log for one serve run.
#[derive(Debug)]
pub struct EventLog {
    path: PathBuf,
    file: std::fs::File,
    /// A failed append has been reported on stderr.
    reported: bool,
}

impl EventLog {
    /// Creates (truncating) `<root>/EVENTS_<run>.jsonl`.
    pub fn create(root: &Path, run: &str) -> std::io::Result<EventLog> {
        std::fs::create_dir_all(root)?;
        let path = root.join(format!("EVENTS_{run}.jsonl"));
        let file = std::fs::File::create(&path)?;
        Ok(EventLog { path, file, reported: false })
    }

    /// The log's path (for reports and manifests).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one event line. Write failures are reported once on
    /// stderr and otherwise ignored — the schedule must not depend on
    /// the log's health.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record(
        &mut self,
        tick: u64,
        event: &str,
        job: &str,
        tenant: &str,
        step: u64,
        preemptions: u64,
        usage: u64,
    ) {
        let line = render(&Value::from([
            ("tick", tick.into()),
            ("event", event.into()),
            ("job", job.into()),
            ("tenant", tenant.into()),
            ("step", step.into()),
            ("preemptions", preemptions.into()),
            ("usage", usage.into()),
        ]));
        if let Err(e) = self.file.write_all(line.as_bytes()) {
            if !std::mem::replace(&mut self.reported, true) {
                eprintln!("serve: cannot append to {}: {e}", self.path.display());
            }
        }
    }
}


/// Renders an `EVENTS_*.jsonl` document as a human-readable timeline
/// with a per-event tally. Returns an error string for unparseable
/// lines (with the 1-based line number).
pub fn render_events(text: &str) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:<9} {:<20} {:<10} {:>8} {:>8} {:>10}",
        "tick", "event", "job", "tenant", "step", "preempt", "usage"
    );
    let mut tally: Vec<(String, u64)> = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = parse(line).map_err(|e| format!("line {}: {e}", ln + 1))?;
        let s = |key: &str| doc.get(key).and_then(Value::as_str).unwrap_or("?").to_string();
        let n = |key: &str| doc.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let event = s("event");
        let _ = writeln!(
            out,
            "{:>6} {:<9} {:<20} {:<10} {:>8} {:>8} {:>10}",
            n("tick"),
            event,
            s("job"),
            s("tenant"),
            n("step"),
            n("preemptions"),
            n("usage"),
        );
        match tally.iter_mut().find(|(e, _)| *e == event) {
            Some((_, c)) => *c += 1,
            None => tally.push((event, 1)),
        }
    }
    out.push('\n');
    for (e, c) in &tally {
        let _ = writeln!(out, "{e:<9} x{c}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_appends_parseable_lines_and_render_tallies() {
        let dir = std::env::temp_dir().join("nkt_serve_events_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut log = EventLog::create(&dir, "sample").unwrap();
        log.record(0, "admit", "dns \"a\"", "cfd", 0, 0, 0);
        log.record(3, "preempt", "dns \"a\"", "cfd", 120, 1, 480);
        log.record(5, "resume", "dns \"a\"", "cfd", 120, 1, 480);
        log.record(9, "complete", "dns \"a\"", "cfd", 400, 1, 1600);
        let text = std::fs::read_to_string(log.path()).unwrap();
        assert_eq!(text.lines().count(), 4);
        // Every line round-trips through the JSON parser (including the
        // escaped quotes in the job name).
        for line in text.lines() {
            let doc = parse(line).unwrap();
            assert_eq!(doc.get("job").and_then(Value::as_str), Some("dns \"a\""));
        }
        let rendered = render_events(&text).unwrap();
        assert!(rendered.contains("complete"));
        assert!(rendered.contains("admit     x1"));
        assert!(rendered.contains("1600"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A full disk is reported once, not once per event, and recording
    /// goes on (the schedule never sees the log's health).
    #[cfg(target_os = "linux")]
    #[test]
    fn a_failing_log_reports_once() {
        let path = PathBuf::from("/dev/full");
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        let mut log = EventLog { path, file, reported: false };
        let mut reports = 0;
        for tick in 0..3 {
            let before = log.reported;
            log.record(tick, "admit", "j", "t", 0, 0, 0);
            reports += usize::from(log.reported && !before);
        }
        assert!(log.reported);
        assert_eq!(reports, 1);
    }

    #[test]
    fn render_rejects_garbage_with_line_number() {
        let err = render_events("{\"tick\": 0}\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
