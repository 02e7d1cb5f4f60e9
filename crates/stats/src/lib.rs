//! # nkt-stats — online turbulence statistics and run health
//!
//! The paper's NekTar-F communication inventory budgets for "Global
//! Addition, min, max for any runtime flow statistics" and "on-the-fly
//! analysis of data"; this crate is that pipeline. Three pieces:
//!
//! * **Time-series recorder** ([`StatsRecorder`]): per-step samples of
//!   kinetic energy, dissipation/enstrophy, the spanwise energy
//!   spectrum, divergence norm, CFL, Reynolds-stress components, and
//!   per-rank MPI traffic counters — persisted as deterministic,
//!   byte-identical `results/STATS_<run>.json` (schema `nkt-stats-1`).
//!   Per-channel [`ChannelAccum`]s (Welford mean/variance, min/max) run
//!   online; the recorder implements `Checkpointable` (riding in the
//!   solver's shard via `nkt_ckpt::TandemMut`), so statistics survive a
//!   restart **bitwise**.
//! * **Health watchdog** ([`check_rules`]): typed rules per sample —
//!   NaN/Inf in state, KE growth ratio, divergence ceiling, CFL bound —
//!   raising a [`HealthError`] that names step/rank/field instead of
//!   letting a diverging run panic somewhere downstream.
//! * **Flight-recorder triggers**: on a watchdog trip each rank dumps
//!   its `nkt_trace::flight` ring to `FLIGHT_<run>_r<rank>.json`
//!   (`nkt-mpi` dumps on recv-deadline aborts and `nkt-ckpt` on epoch
//!   fallbacks independently).
//!
//! The solver-facing sampling glue (which fields to scan, which probes
//! to run) lives in `nektar::stats`; this crate holds the
//! solver-agnostic machinery. [`gates`] names the rows of a
//! `STATS_<run>.json` that `scripts/check_baselines` holds against the
//! committed baselines.
//!
//! ## Configuration
//!
//! | env var      | values          | effect                                          |
//! |--------------|-----------------|-------------------------------------------------|
//! | `NKT_STATS`  | `N` (integer)   | sample every N steps and write `STATS_<run>.json` |
//! | `NKT_HEALTH` | `1` \| `on` \| `true` | evaluate watchdog rules (implies sampling every step when `NKT_STATS` is unset) |

pub mod accum;
pub mod health;
pub mod series;

pub use accum::ChannelAccum;
pub use health::{check_rules, HealthError, RuleLimits};
pub use series::{gates, Sample, StatsRecorder, MPI_COLS, SCHEMA};

use std::sync::OnceLock;

/// Sampling cadence requested via `NKT_STATS`: `Some(n)` = every n
/// steps (`on`/`true` count as 1; `0`/`off`/garbage as off). Latched on
/// first call so one run samples consistently end to end.
pub fn every() -> Option<u64> {
    static EVERY: OnceLock<Option<u64>> = OnceLock::new();
    *EVERY.get_or_init(|| {
        let v = std::env::var("NKT_STATS").ok()?;
        match v.trim().to_ascii_lowercase().as_str() {
            "on" | "true" => Some(1),
            "off" | "" => None,
            s => s.parse::<u64>().ok().filter(|&n| n > 0),
        }
    })
}

/// Whether the health watchdog was requested via `NKT_HEALTH`
/// (`1` / `on` / `true`). Latched on first call.
pub fn health_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        std::env::var("NKT_HEALTH")
            .map(|v| matches!(v.trim().to_ascii_lowercase().as_str(), "1" | "on" | "true"))
            .unwrap_or(false)
    })
}

/// Effective sampling cadence: [`every`], or every step when only the
/// watchdog is on (rules are evaluated at sample points, so health
/// without an explicit cadence means "check every step").
pub fn effective_every() -> Option<u64> {
    every().or_else(|| health_enabled().then_some(1))
}

/// Arms the trace layer for statistics: raises the recording mode to
/// counters so the per-rank collective-invocation column exists (the
/// same pattern as `nkt_prof::prepare` raising to spans). Call once at
/// startup when sampling is on.
pub fn prepare() {
    if nkt_trace::mode() < nkt_trace::TraceMode::Counters {
        nkt_trace::set_mode(nkt_trace::TraceMode::Counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_raises_mode_to_at_least_counters() {
        prepare();
        assert!(nkt_trace::mode() >= nkt_trace::TraceMode::Counters);
    }
}
