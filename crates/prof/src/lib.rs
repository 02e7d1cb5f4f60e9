//! # nkt-prof — one post-run analysis over nkt-trace
//!
//! The paper's method is layered measurement, each level checked
//! against the next, and its title is a question: does the modeled
//! story — kernel rooflines (Figures 1–6), α–β networks (Figures 7–8),
//! the time attribution of Tables 2 and 3 — survive contact with a real
//! machine? This crate answers both halves for every traced run, as two
//! documents folded from one conversion of the run's spans.
//!
//! **The profile** ([`Profile`], `PROF_<run>.json`): where the seconds
//! of a step go, and how much of that is the network's fault.
//!
//! * **MPI time attribution** (mpiP-style): per-op virtual time split
//!   into protocol overhead, wire latency, and receiver wait, with
//!   late-sender / late-receiver classification per message.
//! * **Communication matrix**: messages and bytes per `(src, dst)` rank
//!   pair — the transpose-heavy NekTar-F pattern is visible at a glance.
//! * **Load imbalance**: per-stage min/median/max/imbalance-ratio across
//!   ranks on the virtual timeline, naming the slowest rank.
//! * **Critical path**: the longest happens-before chain through the
//!   span DAG (edges = matched send/receive pairs that waited),
//!   decomposed into op/stage buckets.
//!
//! **The calibration** ([`Calibration`], `CALIB_<run>.json`): the
//! measured story next to the modeled one.
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
//! nkt-mpi / solvers ──spans──▶ nkt-trace ──┬─ take_collected() ─▶ from_threads     (in-process)
//!                                          └─ TRACE_<run>.json ─▶ from_trace_json  (offline)
//!                                                                    │ &[PRank], converted once
//!                                         ┌──────────────────────────┴────────────┐
//!                                Profile::from_ranks                  Calibration::from_ranks
//!                                         │                                       │
//!                      results/PROF_<run>.json, report()      results/CALIB_<run>.json, report()
//! ```
//!
//! Everything serialized lives on the **virtual** timeline (or is an
//! exact counter), so both documents are byte-identical across runs of
//! the same seeded simulation and [`gates`] / [`calib_gates`] can hold
//! them against committed baselines. Host wall times appear only in the
//! printed reports and in [`Profile::stage_attrib`], which tier-1 holds
//! to the solvers' `StageClock` ledgers.
//!
//! A caller that wants either document records spans, drains the
//! collector once, converts it once and builds the documents asked for:
//! `nkt_bench::baseline::finish` for the committed baselines, the
//! `NKT_PROF` replays of Tables 2 and 3, and `nkt-serve`'s jobs.

pub mod attrib;
pub mod critpath;
pub mod document;
pub mod drift;
pub mod fit;
pub mod model;
pub mod overlap;
pub mod profile;

pub use attrib::{comm_matrix, op_stats, stage_stats, MatrixCell, OpStat, StageStat};
pub use critpath::{critical_path, CpSegment, CriticalPath, MAX_SEGMENTS};
pub use document::{calib_gates, net_from_run, Calibration};
pub use drift::{drift_rows, DriftRow, CANONICAL_MFLOPS};
pub use fit::{alpha_beta_fit, host_sweep, kernel_fits, AlphaBetaFit, HostPoint, KernelFit};
pub use model::{from_threads, from_trace_json, PRank, PSpan};
pub use overlap::{
    load_windows, merged_coef, overlap_windows, window_at, OverlapWindow, ANALYTIC_COEF,
};
pub use profile::{gates, Profile};

/// Filesystem-safe run name: lowercase alphanumerics, everything else
/// collapsed to single underscores (`"RoadRunner eth."` → `"roadrunner_eth"`).
pub fn slug(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_matches('_').to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slug_is_filesystem_safe() {
        assert_eq!(slug("RoadRunner eth."), "roadrunner_eth");
        assert_eq!(slug("Muses, MPICH"), "muses_mpich");
        assert_eq!(slug("T3E"), "t3e");
        assert_eq!(slug("  weird -- name  "), "weird_name");
    }
}
