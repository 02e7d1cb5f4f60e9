//! # nkt-calib — a "fact or fiction" observatory
//!
//! The paper's title is a question: does the modeled story — kernel
//! rooflines (Figures 1–6), α–β networks (Figures 7–8), overlap
//! estimates (Table 3) — survive contact with a real machine? This
//! crate answers it continuously, for every traced run:
//!
//! * **Drift tracking**: per-stage, per-comm-op and per-kernel rows of
//!   modeled virtual seconds next to measured host seconds, with the
//!   drift ratio in the report.
//! * **Machine-model calibration**: deterministic least-squares fits —
//!   an α–β latency/bandwidth channel recovered from the run's own p2p
//!   spans (compared against the static `nkt-net` catalog), and
//!   Hockney-form `R∞`/`n½` compressions of every `nkt-machine` kernel
//!   curve, checked against a native BLAS sweep in the report.
//! * **Measured overlap windows**: the interior/boundary element split
//!   each split-phase gather-scatter apply actually had, folded per
//!   stage — the Table 3 / Figures 15–16 replays consume these instead
//!   of the analytic `1 − 6/V^{1/3}` estimate.
//!
//! ## Data flow
//!
//! ```text
//! solvers ──spans──▶ nkt-trace ──┬─ take_collected() ─▶ Calibration::build           (in-process)
//!                                └─ TRACE_<run>.json ─▶ Calibration::from_trace_json (offline)
//!                                                          │
//!                                results/CALIB_<run>.json ◀┴▶ Calibration::report()
//! ```
//!
//! Everything serialized lives on the **virtual** timeline (or is an
//! exact counter), so `CALIB_<run>.json` is byte-identical across runs
//! of the same seeded simulation and [`gates`] can hold it against a
//! committed baseline; measured host times appear only in the printed
//! report.
//!
//! `NKT_CALIB` is `nkt_trace::config::RunConfig::calib`; it raises the
//! recording mode to spans like `NKT_PROF` does, so the two observers
//! can share one collector drain.

pub mod document;
pub mod drift;
pub mod fit;
pub mod overlap;

pub use document::{gates, machine_for, net_from_run, Calibration};
pub use drift::{drift_rows, DriftRow, CANONICAL_MFLOPS};
pub use fit::{alpha_beta_fit, host_sweep, kernel_fits, AlphaBetaFit, HostPoint, KernelFit};
pub use overlap::{
    load_windows, merged_coef, overlap_windows, window_at, OverlapWindow, ANALYTIC_COEF,
};

/// Builds the calibration of `run` from already-drained thread data
/// (see `nkt_prof::profile_and_write`), prints the report and writes
/// `CALIB_<run>.json` into [`nkt_trace::out_dir`].
pub fn calibrate_and_write(run: &str, threads: &[nkt_trace::ThreadData]) {
    let c = Calibration::build(run, threads);
    print!("{}", c.report());
    let file = format!("CALIB_{run}.json");
    match nkt_trace::json::write(&nkt_trace::out_dir(), &file, &c.document()) {
        Ok((path, _)) => println!("calib: wrote {}", path.display()),
        Err(e) => eprintln!("calib: cannot write {e}"),
    }
}
