//! # nkt-prof — cluster-wide post-run profiler over nkt-trace
//!
//! The paper's question — *is a PC/Linux cluster a real DNS platform?* —
//! is answered with time attribution tables (Tables 2 and 3): where do
//! the seconds of a NekTar-F or NekTar-ALE step actually go, and how
//! much of that is the network's fault? This crate reproduces that kind
//! of analysis automatically for every traced run:
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
//! ## Data flow
//!
//! ```text
//! nkt-mpi / solvers ──spans──▶ nkt-trace ──┬─ take_collected() ─▶ Profile::build      (in-process)
//!                                          └─ TRACE_<run>.json ─▶ Profile::from_trace_json (offline)
//!                                                                    │
//!                                          results/PROF_<run>.json ◀─┴─▶ Profile::report()
//! ```
//!
//! Everything serialized lives on the **virtual** timeline, so
//! `PROF_<run>.json` is byte-identical across runs of the same seeded
//! simulation; host wall times appear only in the printed report and in
//! the [`Profile::stage_ledger_check`] self-check against `StageClock`
//! ledgers.
//!
//! `NKT_PROF` is `nkt_trace::config::RunConfig::prof`, which also raises
//! the recording mode to spans; the caller that parsed it decides
//! whether to call [`profile_and_write`].

pub mod attrib;
pub mod critpath;
pub mod model;
pub mod profile;

pub use attrib::{comm_matrix, op_stats, stage_stats, MatrixCell, OpStat, StageStat};
pub use critpath::{critical_path, CpSegment, CriticalPath, MAX_SEGMENTS};
pub use model::{from_threads, from_trace_json, PRank, PSpan};
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

/// Builds the profile of `run` from already-drained thread data (the
/// collector drains once; `nkt-calib` reads the same snapshot), prints
/// the report and writes `PROF_<run>.json` into [`nkt_trace::out_dir`].
pub fn profile_and_write(run: &str, threads: &[nkt_trace::ThreadData]) -> Profile {
    let p = Profile::build(run, threads);
    print!("{}", p.report());
    let file = format!("PROF_{run}.json");
    match nkt_trace::json::write(&nkt_trace::out_dir(), &file, &p.document()) {
        Ok((path, _)) => println!("prof: wrote {}", path.display()),
        Err(e) => eprintln!("prof: cannot write {e}"),
    }
    p
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
