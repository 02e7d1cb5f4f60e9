//! # nkt-serve — a multi-tenant simulation job engine
//!
//! The paper's clusters were shared machines: many users' jobs queued
//! against a fixed pool of nodes, and long DNS runs survived only
//! because they could be stopped and restarted from checkpoints. This
//! crate reproduces that operational layer on top of the workspace's
//! virtual clusters: a **deterministic job queue + scheduler** that runs
//! many concurrent worlds — each job its own `nkt-mpi` `World` with its
//! own net model from the catalog — over the shared host thread pool.
//!
//! * [`spec`] — typed job specifications, parsed from a JSON job file
//!   with the in-repo parser (schema `nkt-serve-jobs-1`).
//! * [`sched`] — gang-scheduled tick loop: admission control
//!   (`max_worlds`), per-tenant fair-share queueing with deterministic
//!   tie-breaking, and priority preemption.
//! * [`runner`] — executes one scheduling slice of a job; preemption is
//!   **checkpoint-backed**: eviction happens only at an `nkt-ckpt` epoch
//!   cut, and the next slice restores that epoch bitwise, so a
//!   preempted-and-resumed job's final state hash and `STATS_` artifact
//!   are byte-identical to an uninterrupted run.
//! * [`store`] — deterministic per-job results store: every artifact
//!   routes into `<root>/<job>/`, inventoried by a byte-deterministic
//!   `MANIFEST_<job>.json` (schema `nkt-serve-1`).
//!
//! Observability rides the existing substrate: `serve.tick`/`serve.cut`
//! spans, `serve.*` counters (admissions, preemptions, queue wait,
//! finished/failed) and a `serve.worlds.running` gauge, all under the
//! process-wide recording mode; what else a job is run with (profile,
//! watchdog, recv deadline) is [`serve_with`]'s [`JobOpts`]. With
//! [`ServeConfig::events`] set, the scheduler also appends its decision
//! timeline (admit/resume/cut/preempt/complete/fail, with
//! tick/tenant/usage) to a byte-deterministic `EVENTS_<run>.jsonl` — see
//! [`events`] and the `serve_report` binary.
//! See `examples/serve_farm.rs` for a mixed batch driven end-to-end and
//! DESIGN.md §15 for the scheduler state machine.

pub mod events;
pub mod sched;
pub mod spec;
pub mod store;

mod runner;

pub use events::{render_events, EventLog};
pub use runner::{JobOpts, JobResult};
pub use sched::{serve, serve_with, JobReport, ServeConfig, ServeError, ServeReport};
pub use spec::{
    load_jobs, parse_jobs, JobSpec, SolverKind, SpecError, SPEC_SCHEMA,
};
pub use store::{manifest_document, ArtifactEntry, ManifestData, Store, MANIFEST_SCHEMA};
