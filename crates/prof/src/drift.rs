//! Measured-vs-modeled drift rows: for every stage, comm op class and
//! compute kernel family observed in a run, the modeled virtual seconds
//! next to the measured host seconds.
//!
//! Only the virtual side (plus exact call/byte/flop counts) is
//! serialized — it is a pure function of the seeded simulation, so
//! `CALIB_<run>.json` stays byte-identical across reruns. The host side
//! and the drift *ratio* live in the printed report only.

use crate::model::{entry, PRank};

/// Canonical virtual compute rate (Mflop/s) every kernel charge in the
/// workspace uses (`fft_virtual_secs`, `elem_virtual_secs`, ...). The
/// modeled seconds of a `kernel`-cat span are its flop count over this.
pub const CANONICAL_MFLOPS: f64 = 100.0;

/// One drift row: a (class, name) bucket summed over all ranks.
#[derive(Debug, Clone, Default)]
pub struct DriftRow {
    /// `stage` (the 7 solver stages), `comm` (MPI op classes), or
    /// `kernel` (dgemm/fft/helmholtz/banded_solve passes).
    pub class: &'static str,
    /// Bucket name (stage name, op name, kernel family).
    pub name: String,
    /// Spans aggregated into this row.
    pub calls: u64,
    /// Modeled virtual seconds (span vdur for stage/comm; flops at the
    /// canonical rate for kernels).
    pub vsecs: f64,
    /// Measured host seconds (sum of finite host durations; report
    /// only — never serialized).
    pub host_s: f64,
    /// Spans in this bucket that carried a finite host duration.
    pub host_calls: u64,
    /// Payload bytes (comm rows; 0 elsewhere).
    pub bytes: u64,
    /// Flop count (kernel rows; 0 elsewhere).
    pub flops: f64,
    /// `vsecs` over the class's total vsecs (0 when the class total is 0).
    pub vshare: f64,
}

impl DriftRow {
    /// Modeled-over-measured drift ratio (`None` without host data).
    pub fn ratio(&self) -> Option<f64> {
        (self.host_s > 0.0).then(|| self.vsecs / self.host_s)
    }
}

fn class_order(class: &str) -> usize {
    match class {
        "stage" => 0,
        "comm" => 1,
        _ => 2,
    }
}

/// Builds the drift rows from rank timelines: buckets by category —
/// `stage` spans by stage name, `mpi` spans by op name (p2p send/recv
/// records fold into `p2p.send`/`p2p.recv` classes), `kernel` spans by
/// family — then fills per-class shares. Rows sort by (class, name).
pub fn drift_rows(ranks: &[PRank]) -> Vec<DriftRow> {
    let mut rows: Vec<DriftRow> = Vec::new();
    let mut bump = |class: &'static str,
                    name: &str,
                    vsecs: f64,
                    host: f64,
                    bytes: u64,
                    flops: f64| {
        let new = || DriftRow { class, name: name.to_string(), ..DriftRow::default() };
        let row = entry(&mut rows, |r| r.class == class && r.name == name, new);
        row.calls += 1;
        row.vsecs += vsecs;
        if host.is_finite() {
            row.host_s += host;
            row.host_calls += 1;
        }
        row.bytes += bytes;
        row.flops += flops;
    };
    for r in ranks {
        for s in &r.spans {
            let vdur = s.vdur().unwrap_or(0.0);
            match s.cat.as_str() {
                "stage" => bump("stage", &s.name, vdur, s.dur_s, 0, 0.0),
                "mpi" => {
                    let bytes = s.arg("bytes").unwrap_or(0.0) as u64;
                    bump("comm", &s.name, vdur, s.dur_s, bytes, 0.0);
                }
                "mpi.p2p.send" => {
                    let bytes = s.arg("bytes").unwrap_or(0.0) as u64;
                    bump("comm", "p2p.send", vdur, s.dur_s, bytes, 0.0);
                }
                "mpi.p2p.recv" => {
                    bump("comm", "p2p.recv", vdur, s.dur_s, 0, 0.0);
                }
                "kernel" => {
                    let flops = s.arg("flops").unwrap_or(0.0);
                    let modeled = flops / (CANONICAL_MFLOPS * 1e6);
                    bump("kernel", &s.name, modeled, s.dur_s, 0, flops);
                }
                _ => {}
            }
        }
    }
    rows.sort_by(|a, b| {
        class_order(a.class)
            .cmp(&class_order(b.class))
            .then_with(|| a.name.cmp(&b.name))
    });
    for class in ["stage", "comm", "kernel"] {
        let total: f64 = rows.iter().filter(|r| r.class == class).map(|r| r.vsecs).sum();
        if total > 0.0 {
            for r in rows.iter_mut().filter(|r| r.class == class) {
                r.vshare = r.vsecs / total;
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PRank, PSpan};

    fn vspan(name: &str, cat: &str, vt0: f64, vt1: f64, args: &[(&str, f64)]) -> PSpan {
        PSpan {
            name: name.to_string(),
            cat: cat.to_string(),
            dur_s: f64::NAN,
            vt0,
            vt1,
            depth: 0,
            args: args.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
        }
    }

    #[test]
    fn buckets_by_class_and_fills_shares() {
        let spans = vec![
            vspan("NonLinear", "stage", 0.0, 3.0, &[]),
            vspan("PressureSolve", "stage", 3.0, 4.0, &[]),
            vspan("alltoall", "mpi", 0.5, 0.7, &[]),
            vspan("alltoall", "mpi", 1.0, 1.2, &[]),
            vspan("allreduce", "mpi", 2.0, 2.6, &[]),
            vspan("send>1", "mpi.p2p.send", 0.0, 0.1, &[("bytes", 4096.0)]),
            vspan("fft", "kernel", 0.0, 0.0, &[("flops", 2e8)]),
        ];
        let rows = drift_rows(&[PRank { rank: 0, spans }]);
        let get = |class: &str, name: &str| {
            rows.iter().find(|r| r.class == class && r.name == name).unwrap()
        };
        let nl = get("stage", "NonLinear");
        assert_eq!(nl.calls, 1);
        assert!((nl.vsecs - 3.0).abs() < 1e-12);
        assert!((nl.vshare - 0.75).abs() < 1e-12);
        let a2a = get("comm", "alltoall");
        assert_eq!(a2a.calls, 2);
        assert!((a2a.vsecs - 0.4).abs() < 1e-12);
        let snd = get("comm", "p2p.send");
        assert_eq!(snd.bytes, 4096);
        // 2e8 flops at the canonical 100 Mflop/s = 2 modeled seconds.
        let fft = get("kernel", "fft");
        assert!((fft.vsecs - 2.0).abs() < 1e-12);
        assert_eq!(fft.vshare, 1.0);
        // Host side absent everywhere -> no ratio, zero host calls.
        assert!(fft.ratio().is_none());
        assert_eq!(fft.host_calls, 0);
        // Sorted: all stage rows before comm rows before kernel rows.
        let classes: Vec<&str> = rows.iter().map(|r| r.class).collect();
        let mut sorted = classes.clone();
        sorted.sort_by_key(|c| super::class_order(c));
        assert_eq!(classes, sorted);
    }
}
