//! The profile document: its construction from a run's rank timelines,
//! the deterministic `PROF_<run>.json` document, the human-readable
//! report, and the StageClock self-check.

use crate::attrib::{comm_matrix, op_stats, stage_attributed, stage_stats, MatrixCell, OpStat, StageStat};
use crate::critpath::{critical_path, CpSegment, CriticalPath};
use crate::model::PRank;
use nkt_trace::gate::{parse_schema, Gate, Sense};
use nkt_trace::json::Value;
use std::fmt::Write as _;

/// Schema tag written into every `PROF_<run>.json`.
pub const SCHEMA: &str = "nkt-prof-1";

/// Band of the gated communication-health ratios: 0.02 absolute + 10 %.
/// Profiles are virtual-time-deterministic, so the band is for small
/// intended drifts (a new message, a reordered stage), not for noise.
const BAND: (f64, f64) = (0.02, 0.10);

/// Reads the gated rows back out of a `PROF_<run>.json`: the run-wide
/// wait share (receiver idle over total rank-time) and every stage's
/// imbalance ratio. Both are lower-is-better, so only growth regresses.
pub fn gates(text: &str) -> Result<Vec<Gate>, String> {
    let doc = parse_schema(text, SCHEMA)?;
    let up = |name: String, v: f64| Gate::new(name, v, Sense::Up, BAND.0, BAND.1);
    let mut rows = vec![up("wait_share".to_string(), doc.req_f64("wait_share")?)];
    for s in doc.req_arr("stages")? {
        rows.push(up(format!("imbalance[{}]", s.req_str("stage")?), s.req_f64("imbalance")?));
    }
    Ok(rows)
}

/// A complete post-run profile of one traced run.
///
/// Everything in [`Profile::document`] lives on the virtual
/// timeline and is therefore byte-identical across runs of the same
/// seeded simulation; host-time material (per-stage host sums,
/// [`Profile::stage_attrib`]) is kept only for [`Profile::report`] and
/// for checks against the solvers' own host ledgers.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Run name (`PROF_<run>.json`).
    pub run: String,
    /// Rank ids present, ascending.
    pub ranks: Vec<usize>,
    /// Final virtual time per rank (same order as `ranks`).
    pub rank_ends: Vec<f64>,
    /// Per-op MPI attribution, sorted by op.
    pub ops: Vec<OpStat>,
    /// Communication matrix, sorted by `(src, dst)`; empty edges omitted.
    pub matrix: Vec<MatrixCell>,
    /// Per-stage imbalance on the virtual timeline, sorted by stage.
    pub stages: Vec<StageStat>,
    /// The longest dependency chain through the run.
    pub critical_path: CriticalPath,
    /// Host seconds per stage per rank (report and ledger check only —
    /// **not** serialized).
    pub stage_attrib: Vec<(String, Vec<f64>)>,
}

impl Profile {
    /// The profile of `run` from its rank timelines
    /// ([`crate::from_threads`] or [`crate::from_trace_json`]).
    pub fn from_ranks(run: &str, ranks: &[PRank]) -> Profile {
        let rank_ends = ranks
            .iter()
            .map(|r| {
                r.spans.iter().filter(|s| s.vt1.is_finite()).fold(0.0f64, |m, s| m.max(s.vt1))
            })
            .collect();
        Profile {
            run: run.to_string(),
            rank_ends,
            ops: op_stats(ranks),
            matrix: comm_matrix(ranks),
            stages: stage_stats(ranks),
            critical_path: critical_path(ranks),
            stage_attrib: stage_attributed(ranks),
            ranks: ranks.iter().map(|r| r.rank).collect(),
        }
    }

    /// Σ receiver wait time across all ops (the mpiP headline number).
    pub fn total_wait(&self) -> f64 {
        // max(0) also normalizes the empty sum, which folds from -0.0.
        self.ops.iter().map(|o| o.wait).sum::<f64>().max(0.0)
    }

    /// Wait share: total wait over total rank-time (0 when nothing ran).
    pub fn wait_share(&self) -> f64 {
        let total: f64 = self.rank_ends.iter().sum();
        if total > 0.0 {
            self.total_wait() / total
        } else {
            0.0
        }
    }

    /// The deterministic part of the profile as its `nkt-prof-1`
    /// document (`PROF_<run>.json`): fixed key order, sorted collections,
    /// so two runs of the same seeded simulation render byte-identical
    /// files.
    pub fn document(&self) -> Value {
        let rank_ends = self.ranks.iter().zip(&self.rank_ends).map(|(&r, &e)| {
            Value::from([("rank", r.into()), ("end", e.into())])
        });
        let op = |o: &OpStat| Value::from([
            ("op", o.op.as_str().into()), ("calls", o.calls.into()), ("vtime", o.vtime.into()),
            ("sends", o.sends.into()), ("send_bytes", o.send_bytes.into()),
            ("send_time", o.send_time.into()),
            ("recvs", o.recvs.into()), ("recv_time", o.recv_time.into()),
            ("wait", o.wait.into()), ("wire", o.wire.into()), ("late", o.late.into()),
        ]);
        let cell = |m: &MatrixCell| Value::from([
            ("src", m.src.into()), ("dst", m.dst.into()),
            ("msgs", m.msgs.into()), ("bytes", m.bytes.into()),
        ]);
        let stage = |s: &StageStat| Value::from([
            ("stage", s.stage.as_str().into()),
            ("min", s.min.into()), ("median", s.median.into()), ("max", s.max.into()),
            ("mean", s.mean.into()), ("imbalance", s.imbalance.into()), ("cpu", s.cpu.into()),
            ("per_rank", s.per_rank.as_slice().into()),
        ]);
        let cp = &self.critical_path;
        let segment = |s: &CpSegment| Value::from([
            ("rank", s.rank.into()), ("kind", s.kind.into()), ("from", s.from.into()),
            ("t0", s.t0.into()), ("t1", s.t1.into()),
        ]);
        let part = |(label, t): &(String, f64)| {
            Value::from([("label", label.as_str().into()), ("time", (*t).into())])
        };
        Value::from([
            ("schema", SCHEMA.into()),
            ("run", self.run.as_str().into()),
            ("ranks", self.ranks.len().into()),
            ("total_wait", self.total_wait().into()),
            ("wait_share", self.wait_share().into()),
            ("rank_ends", Value::Arr(rank_ends.collect())),
            ("ops", Value::Arr(self.ops.iter().map(op).collect())),
            ("matrix", Value::Arr(self.matrix.iter().map(cell).collect())),
            ("stages", Value::Arr(self.stages.iter().map(stage).collect())),
            ("critical_path", Value::from([
                ("length", cp.length.into()),
                ("end_rank", cp.end_rank.into()),
                ("segments", Value::Arr(cp.segments.iter().map(segment).collect())),
                ("composition", Value::Arr(cp.composition.iter().map(part).collect())),
            ])),
        ])
    }

    /// Renders the human-readable report: the Table-2/3-style MPI
    /// attribution table, the comm matrix, stage imbalance, and the
    /// critical-path composition.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "nkt-prof — run '{}', {} rank(s)", self.run, self.ranks.len());
        let total_rank_time: f64 = self.rank_ends.iter().sum();
        let _ = writeln!(
            out,
            "total rank-time {:.6} s, wait {:.6} s ({:.1}% of rank-time)",
            total_rank_time,
            self.total_wait(),
            100.0 * self.wait_share(),
        );

        if !self.ops.is_empty() {
            let _ = writeln!(out, "\nMPI time attribution (virtual seconds, all ranks)");
            let _ = writeln!(
                out,
                "  {:<12} {:>7} {:>12} {:>12} {:>7} {:>12} {:>8} {:>10} {:>6}",
                "op", "calls", "time", "wait", "wait%", "wire", "msgs", "KB", "late"
            );
            for o in &self.ops {
                let waitpct = if o.vtime > 0.0 { 100.0 * o.wait / o.vtime } else { 0.0 };
                let _ = writeln!(
                    out,
                    "  {:<12} {:>7} {:>12.6} {:>12.6} {:>6.1}% {:>12.6} {:>8} {:>10.1} {:>6}",
                    o.op,
                    o.calls,
                    o.vtime,
                    o.wait,
                    waitpct,
                    o.wire,
                    o.sends,
                    o.send_bytes as f64 / 1024.0,
                    o.late,
                );
            }
        }

        if !self.matrix.is_empty() {
            let _ = writeln!(out, "\nCommunication matrix (KB sent, src rows -> dst cols)");
            let _ = write!(out, "  {:>5}", "");
            for &d in &self.ranks {
                let _ = write!(out, " {d:>9}");
            }
            out.push('\n');
            for &s in &self.ranks {
                let _ = write!(out, "  {s:>5}");
                for &d in &self.ranks {
                    match self.matrix.iter().find(|c| c.src == s && c.dst == d) {
                        Some(c) => {
                            let _ = write!(out, " {:>9.1}", c.bytes as f64 / 1024.0);
                        }
                        None => {
                            let _ = write!(out, " {:>9}", "-");
                        }
                    }
                }
                out.push('\n');
            }
        }

        if !self.stages.is_empty() {
            let _ = writeln!(out, "\nStage imbalance (virtual timeline, seconds per rank)");
            let _ = writeln!(
                out,
                "  {:<16} {:>12} {:>12} {:>12} {:>8} {:>8}",
                "stage", "min", "median", "max", "imb", "slowest"
            );
            for s in &self.stages {
                let _ = writeln!(
                    out,
                    "  {:<16} {:>12.6} {:>12.6} {:>12.6} {:>8.3} {:>8}",
                    s.stage,
                    s.min,
                    s.median,
                    s.max,
                    s.imbalance,
                    self.ranks[s.slowest_index()],
                );
            }
        }

        if !self.stage_attrib.is_empty() {
            let _ = writeln!(out, "\nStage attributed time (host seconds, summed over ranks)");
            for (name, per_rank) in &self.stage_attrib {
                let _ = writeln!(out, "  {:<16} {:>12.6}", name, per_rank.iter().sum::<f64>());
            }
        }

        let cp = &self.critical_path;
        if !cp.segments.is_empty() {
            let _ = writeln!(
                out,
                "\nCritical path: {:.6} s ending on rank {} ({} segment(s))",
                cp.length,
                cp.end_rank,
                cp.segments.len(),
            );
            for (label, t) in &cp.composition {
                let pct = if cp.length > 0.0 { 100.0 * t / cp.length } else { 0.0 };
                let _ = writeln!(out, "  {label:<16} {t:>12.6} s  {pct:>5.1}%");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_read_the_prof_schema() {
        let text = r#"{"schema":"nkt-prof-1","run":"sample","wait_share":0.125,
            "stages":[{"stage":"NonLinear","imbalance":1.25},
                      {"stage":"PressureSolve","imbalance":1.0}]}"#;
        let up = |name: &str, v| Gate::new(name, v, Sense::Up, 0.02, 0.10);
        assert_eq!(
            gates(text).unwrap(),
            [
                up("wait_share", 0.125),
                up("imbalance[NonLinear]", 1.25),
                up("imbalance[PressureSolve]", 1.0)
            ]
        );
        // A document of another family, or one that lost a gated field,
        // is an error rather than fewer rows.
        for bad in [text.replace("nkt-prof-1", "nkt-stats-1"), text.replace("wait_share", "w")] {
            assert!(gates(&bad).is_err(), "{bad}");
        }
    }
}
