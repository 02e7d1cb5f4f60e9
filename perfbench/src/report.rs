//! The metric tables (the same names, units and directions as
//! `BENCHMARK.json`), the correctness-check ledger, and the two output
//! forms: a table a person reads and the one-line JSON the driver reads.

use crate::host::Fingerprint;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One declared metric: (name, unit, "lower" | "higher").
pub type Def = (&'static str, &'static str, &'static str);

/// What a user of the solvers sees; every workload reports all of them
/// (`--trace 0`).
pub const END_TO_END: &[Def] = &[
    ("setup_s", "s", "lower"),
    ("step_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Share by which each end-to-end metric may worsen before a change is a
/// regression (`bound` in `BENCHMARK.json`), in `END_TO_END` order.
pub const BOUNDS: &[f64] = &[0.25, 0.25, 0.10];

/// One number per layer boundary (`--trace 1`); informational, not
/// gated. A workload that does not run a solver reports 0 for that
/// solver's `nektar.*` rows and, without a two-rank run, for
/// `drive.p2_step_ms` and the `mpi.*_per_step` / `mpi.host_share` rows
/// (the layer was idle).
pub const PER_LAYER: &[Def] = &[
    ("drive.samples", "count", "higher"),
    ("drive.step_ms_p50", "ms", "lower"),
    ("drive.step_ms_p95", "ms", "lower"),
    ("drive.round_spread_pct", "%", "lower"),
    ("drive.setup_spread_pct", "%", "lower"),
    ("drive.p2_step_ms", "ms", "lower"),
    ("drive.smt_slowdown", "ratio", "lower"),
    ("blas.dpbtrf_ms", "ms", "lower"),
    ("blas.dpbtrs_us", "us", "lower"),
    ("blas.dpbtrs_gbps", "GB/s", "higher"),
    ("blas.dgemm_small_gflops", "GFlop/s", "higher"),
    ("fft.real_roundtrip_us", "us", "lower"),
    ("fft.flops_per_step", "count", "lower"),
    ("spectral.assemble_ms", "ms", "lower"),
    ("spectral.factor_ms", "ms", "lower"),
    ("spectral.solve_us", "us", "lower"),
    ("spectral.ndof", "count", "lower"),
    ("spectral.bandwidth", "count", "lower"),
    ("spectral.factor_mb", "MB", "lower"),
    ("mesh.build_ms", "ms", "lower"),
    ("partition.kway_ms", "ms", "lower"),
    ("partition.edge_cut", "count", "lower"),
    ("mpi.world_spawn_us", "us", "lower"),
    ("mpi.pingpong_us", "us", "lower"),
    ("mpi.allreduce_us", "us", "lower"),
    ("mpi.alltoall_us", "us", "lower"),
    ("mpi.msgs_per_step", "count", "lower"),
    ("mpi.bytes_per_step", "B", "lower"),
    ("mpi.host_share", "ratio", "lower"),
    ("gs.setup_ms", "ms", "lower"),
    ("gs.exchange_us", "us", "lower"),
    ("gs.halo_dofs", "count", "lower"),
    ("nektar.serial2d.stage5_ms", "ms", "lower"),
    ("nektar.serial2d.stage7_ms", "ms", "lower"),
    ("nektar.serial2d.other_ms", "ms", "lower"),
    ("nektar.fourier.nonlinear_ms", "ms", "lower"),
    ("nektar.fourier.fft_ms", "ms", "lower"),
    ("nektar.fourier.banded_ms", "ms", "lower"),
    ("nektar.fourier.glue_ms", "ms", "lower"),
    ("nektar.fourier.setup_per_mode_ms", "ms", "lower"),
    ("nektar.ale.helmholtz_ms", "ms", "lower"),
    ("nektar.ale.pcg_iters_per_step", "count", "lower"),
    ("nektar.ale.us_per_pcg_iter", "us", "lower"),
    ("nektar.untraced_share", "ratio", "lower"),
    ("ckpt.write_ms", "ms", "lower"),
    ("ckpt.restore_ms", "ms", "lower"),
    ("ckpt.shard_kb", "kB", "lower"),
    ("ckpt.par_write_ms", "ms", "lower"),
    ("ckpt.par_restore_ms", "ms", "lower"),
    ("ckpt.par_shard_kb", "kB", "lower"),
    ("stats.sample_us", "us", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans_per_step", "count", "lower"),
    ("serve.makespan_s", "s", "lower"),
    ("serve.solo_sum_s", "s", "lower"),
    ("serve.contention_factor", "ratio", "lower"),
    ("serve.resume_cost_s", "s", "lower"),
    ("serve.ticks", "count", "lower"),
    ("serve.preemptions", "count", "lower"),
    ("serve.ckpt_kb_written", "kB", "lower"),
];

/// Measured values by declared name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under a name declared in one of the tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.0 == name),
            "metric {name} is not declared in report.rs / BENCHMARK.json"
        );
        self.0.insert(name, value);
    }

    /// The recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Correctness checks: how many ran and which failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one check; `what` describes it if it failed.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// |a − b| ≤ tol·|b|.
    pub fn expect_close(&mut self, label: &str, a: f64, b: f64, tol: f64) {
        self.expect((a - b).abs() <= tol * b.abs(), || {
            format!("{label}: {a:e} is not within {tol:e} (relative) of {b:e}")
        });
    }
}

/// Everything one run of one workload produced.
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// One line on what was run (rounds × steps, ranks).
    pub shape: String,
    /// Measured metrics.
    pub metrics: Metrics,
    /// Check ledger.
    pub checks: Checks,
    /// Extra table lines (the traced pass's layer fold).
    pub notes: Vec<String>,
}

/// The report a person reads: fingerprint, every metric by name and
/// unit, the checks.
pub fn render_text(o: &Outcome, fp: &Fingerprint, seed: u64, seconds: f64, trace: bool) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== perfbench {} (seed {seed}, --seconds {seconds}, --trace {}) ==",
        o.workload, trace as u8
    );
    let _ = writeln!(
        s,
        "host: {} vCPU, {}, {}, commit {}, smt_slowdown {:.2}",
        fp.nproc, fp.cpu, fp.rustc, fp.commit, fp.smt_slowdown
    );
    let _ = writeln!(s, "run:  {}", o.shape);
    for &(name, unit, _) in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(v) = o.metrics.get(name) {
            let _ = writeln!(s, "  {name:<34} {v:>16.6} {unit}");
        }
    }
    for n in &o.notes {
        let _ = writeln!(s, "  {n}");
    }
    let failed = o.checks.failures.len() as u64;
    let _ = writeln!(
        s,
        "checks: {} attempted, {failed} failed, fail_share {}",
        o.checks.attempted,
        failed as f64 / o.checks.attempted.max(1) as f64
    );
    for f in &o.checks.failures {
        let _ = writeln!(s, "  FAILED {f}");
    }
    s
}

/// The driver's line: `correct`, `attempted`, `failed` and the metrics of
/// the selected table. Errors if an end-to-end metric was not measured
/// or any value is not a finite number; an unmeasured per-layer metric is
/// an idle layer and reads 0.
pub fn render_json(o: &Outcome, trace: bool) -> Result<String, String> {
    let mut s = String::new();
    let failed = o.checks.failures.len();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0 && o.checks.attempted > 0,
        o.checks.attempted.max(1)
    );
    let table = if trace { PER_LAYER } else { END_TO_END };
    for (i, &(name, unit, _)) in table.iter().enumerate() {
        let v = match o.metrics.get(name) {
            Some(v) => v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !v.is_finite() {
            return Err(format!("metric {name} is not a finite number ({v})"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    Ok(s)
}
