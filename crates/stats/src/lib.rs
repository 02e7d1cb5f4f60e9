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
//! The sampling cadence (a baseline row's `stats_every`, or every step
//! under `NKT_HEALTH`) and the watchdog switch arrive as
//! `StatsRecorder::new`'s `every` and the samplers' `health` argument;
//! `nektar::drive::Plan` carries both.

pub mod accum;
pub mod health;
pub mod series;

pub use accum::ChannelAccum;
pub use health::{check_rules, HealthError, RuleLimits};
pub use series::{gates, Sample, StatsRecorder, MPI_COLS, SCHEMA};
