//! Typed job specifications and the JSON job-file parser.
//!
//! A job file is a single JSON document (schema `nkt-serve-jobs-1`)
//! parsed with the in-repo parser (`nkt_trace::json`) — no external
//! dependencies:
//!
//! ```json
//! {
//!   "schema": "nkt-serve-jobs-1",
//!   "jobs": [
//!     {"name": "dns_a", "tenant": "cfd", "solver": "fourier",
//!      "ranks": 4, "grid": "2x2", "nz": 8, "net": "roadrunner_myr",
//!      "steps": 12, "priority": 1, "ckpt_every": 3, "stats_every": 2,
//!      "submit_tick": 0}
//!   ]
//! }
//! ```
//!
//! Every field except `name`, `solver` and `steps` has a default; see
//! the README "Serving" section for the full table. Validation happens
//! here, at admission time nothing can fail on a malformed spec.

use nkt_net::NetId;
use nkt_trace::json::{parse, Value};
use std::fmt;
use std::path::Path;

/// Schema tag expected at the top of a job file.
pub const SPEC_SCHEMA: &str = "nkt-serve-jobs-1";

/// Which solver a job runs, plus the solver-specific shape knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Fourier-parallel DNS (`NektarF`): `nz` planes decomposed over a
    /// `pr x pc` process grid (`pc <= 1` = slab, `pc > 1` = pencil).
    Fourier { nz: usize, pr: usize, pc: usize },
    /// Serial 2-D cylinder-wake solver (always 1 rank).
    Serial2d,
    /// 3-D ALE solver on the partitioned wing-box mesh.
    Ale,
}

impl SolverKind {
    /// Stable lowercase name, as written in job files and manifests.
    pub fn name(&self) -> &'static str {
        match self {
            SolverKind::Fourier { .. } => "fourier",
            SolverKind::Serial2d => "serial2d",
            SolverKind::Ale => "ale",
        }
    }
}

/// One validated job: everything the scheduler and runner need.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Unique job name; becomes the per-job directory and artifact stem.
    pub name: String,
    /// Tenant for fair-share accounting.
    pub tenant: String,
    /// Solver and its shape.
    pub solver: SolverKind,
    /// Virtual-cluster size (threads while the job runs).
    pub ranks: usize,
    /// Net model from the catalog for this job's virtual cluster.
    pub net: NetId,
    /// Step budget: the job finishes after this many solver steps.
    pub steps: u64,
    /// Larger = more urgent; a queued job with strictly higher priority
    /// than a running one triggers preemption when no slot is free.
    pub priority: i64,
    /// Checkpoint cadence in steps; 0 disables epochs (and with them
    /// preemption — the job can only be evicted at an epoch cut).
    pub ckpt_every: usize,
    /// Stats sampling cadence in steps; 0 disables the STATS artifact.
    pub stats_every: u64,
    /// Scheduler tick at which the job becomes eligible to run.
    pub submit_tick: u64,
}

/// Typed parse/validation failure for a job file.
#[derive(Debug)]
pub enum SpecError {
    /// The JSON itself did not parse.
    Json(String),
    /// Top-level `schema` missing or not [`SPEC_SCHEMA`].
    Schema(String),
    /// Top level is not an object with a `jobs` array.
    Shape(&'static str),
    /// A job is missing a required field.
    Missing { job: String, field: &'static str },
    /// A job field is present but invalid.
    Bad { job: String, field: &'static str, why: String },
    /// Two jobs share a name.
    Duplicate(String),
    /// Reading the file failed.
    Io(std::io::Error),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "job file is not valid JSON: {e}"),
            SpecError::Schema(s) => {
                write!(f, "job file schema is {s:?}, expected {SPEC_SCHEMA:?}")
            }
            SpecError::Shape(what) => write!(f, "job file shape: {what}"),
            SpecError::Missing { job, field } => {
                write!(f, "job {job:?}: missing required field {field:?}")
            }
            SpecError::Bad { job, field, why } => {
                write!(f, "job {job:?}: bad field {field:?}: {why}")
            }
            SpecError::Duplicate(name) => write!(f, "duplicate job name {name:?}"),
            SpecError::Io(e) => write!(f, "cannot read job file: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Parses and validates a job file from text.
pub fn parse_jobs(text: &str) -> Result<Vec<JobSpec>, SpecError> {
    let doc = parse(text).map_err(SpecError::Json)?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or(SpecError::Shape("missing top-level \"schema\" string"))?;
    if schema != SPEC_SCHEMA {
        return Err(SpecError::Schema(schema.to_string()));
    }
    let jobs = doc
        .get("jobs")
        .and_then(Value::as_arr)
        .ok_or(SpecError::Shape("missing top-level \"jobs\" array"))?;
    let mut out = Vec::with_capacity(jobs.len());
    for (i, j) in jobs.iter().enumerate() {
        out.push(parse_one(j, i)?);
    }
    for (i, a) in out.iter().enumerate() {
        if out[..i].iter().any(|b: &JobSpec| b.name == a.name) {
            return Err(SpecError::Duplicate(a.name.clone()));
        }
    }
    Ok(out)
}

/// [`parse_jobs`] from a file path.
pub fn load_jobs(path: impl AsRef<Path>) -> Result<Vec<JobSpec>, SpecError> {
    let text = std::fs::read_to_string(path).map_err(SpecError::Io)?;
    parse_jobs(&text)
}

fn parse_one(j: &Value, idx: usize) -> Result<JobSpec, SpecError> {
    if j.as_obj().is_none() {
        return Err(SpecError::Shape("every \"jobs\" entry must be an object"));
    }
    let name = match j.get("name").and_then(Value::as_str) {
        Some(n) => n.to_string(),
        None => {
            return Err(SpecError::Missing { job: format!("#{idx}"), field: "name" });
        }
    };
    let bad = |field: &'static str, why: String| SpecError::Bad {
        job: name.clone(),
        field,
        why,
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Err(bad(
            "name",
            format!("{name:?} — must be non-empty [A-Za-z0-9_-] (it names a directory)"),
        ));
    }

    let uint = |field: &'static str, default: Option<u64>| -> Result<u64, SpecError> {
        match j.get(field) {
            None => default.ok_or(SpecError::Missing { job: name.clone(), field }),
            Some(v) => {
                let f = v.as_f64().ok_or_else(|| bad(field, "not a number".into()))?;
                if f < 0.0 || f.fract() != 0.0 || f > u64::MAX as f64 {
                    return Err(bad(field, format!("{f} is not a non-negative integer")));
                }
                Ok(f as u64)
            }
        }
    };

    let tenant = j
        .get("tenant")
        .and_then(Value::as_str)
        .unwrap_or("default")
        .to_string();
    let ranks = uint("ranks", Some(1))? as usize;
    if ranks == 0 {
        return Err(bad("ranks", "must be >= 1".into()));
    }
    let steps = uint("steps", None)?;
    if steps == 0 {
        return Err(bad("steps", "must be >= 1".into()));
    }
    let priority = match j.get("priority") {
        None => 0,
        Some(v) => {
            let f = v.as_f64().ok_or_else(|| bad("priority", "not a number".into()))?;
            if f.fract() != 0.0 {
                return Err(bad("priority", format!("{f} is not an integer")));
            }
            f as i64
        }
    };
    let ckpt_every = uint("ckpt_every", Some(0))? as usize;
    let stats_every = uint("stats_every", Some(0))?;
    let submit_tick = uint("submit_tick", Some(0))?;

    let net = match j.get("net").and_then(Value::as_str) {
        None => NetId::RoadRunnerMyr,
        Some(s) => NetId::parse(s)
            .ok_or_else(|| bad("net", format!("unknown net {s:?} (see NetId::ALL slugs)")))?,
    };

    let solver_name = j
        .get("solver")
        .and_then(Value::as_str)
        .ok_or(SpecError::Missing { job: name.clone(), field: "solver" })?;
    let solver = match solver_name {
        "fourier" => {
            let nz = uint("nz", Some(8))? as usize;
            if nz < 2 || nz % 2 != 0 {
                return Err(bad("nz", format!("{nz} — must be even and >= 2")));
            }
            let (pr, pc) = match j.get("grid").and_then(Value::as_str) {
                None => (ranks, 1),
                Some(g) => nektar::decomp::parse_grid(g).map_err(|_| {
                    bad("grid", format!("{g:?} — expected \"PRxPC\", e.g. \"2x2\""))
                })?,
            };
            if pr * pc != ranks {
                return Err(bad(
                    "grid",
                    format!("{pr}x{pc} does not cover ranks={ranks}"),
                ));
            }
            SolverKind::Fourier { nz, pr, pc }
        }
        "serial2d" => {
            if ranks != 1 {
                return Err(bad("ranks", "serial2d runs on exactly 1 rank".into()));
            }
            SolverKind::Serial2d
        }
        "ale" => SolverKind::Ale,
        other => {
            return Err(bad(
                "solver",
                format!("unknown solver {other:?} (fourier | serial2d | ale)"),
            ));
        }
    };

    Ok(JobSpec {
        name,
        tenant,
        solver,
        ranks,
        net,
        steps,
        priority,
        ckpt_every,
        stats_every,
        submit_tick,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(jobs: &str) -> String {
        format!("{{\"schema\": \"{SPEC_SCHEMA}\", \"jobs\": [{jobs}]}}")
    }

    #[test]
    fn minimal_job_gets_defaults() {
        let specs = parse_jobs(&file(
            r#"{"name": "a", "solver": "serial2d", "steps": 4}"#,
        ))
        .unwrap();
        assert_eq!(specs.len(), 1);
        let s = &specs[0];
        assert_eq!(s.name, "a");
        assert_eq!(s.tenant, "default");
        assert_eq!(s.solver, SolverKind::Serial2d);
        assert_eq!(s.ranks, 1);
        assert_eq!(s.net, NetId::RoadRunnerMyr);
        assert_eq!((s.steps, s.priority), (4, 0));
        assert_eq!((s.ckpt_every, s.stats_every, s.submit_tick), (0, 0, 0));
    }

    #[test]
    fn fourier_grid_and_net_parse() {
        let specs = parse_jobs(&file(
            r#"{"name": "f", "tenant": "cfd", "solver": "fourier", "ranks": 4,
                "grid": "2x2", "nz": 4, "net": "roadrunner_eth", "steps": 6,
                "priority": 2, "ckpt_every": 2, "stats_every": 1, "submit_tick": 3}"#,
        ))
        .unwrap();
        let s = &specs[0];
        assert_eq!(s.solver, SolverKind::Fourier { nz: 4, pr: 2, pc: 2 });
        assert_eq!(s.net, NetId::RoadRunnerEth);
        assert_eq!(s.priority, 2);
        assert_eq!(s.submit_tick, 3);
    }

    #[test]
    fn fourier_grid_defaults_to_slab() {
        let specs = parse_jobs(&file(
            r#"{"name": "f", "solver": "fourier", "ranks": 2, "nz": 4, "steps": 1}"#,
        ))
        .unwrap();
        assert_eq!(specs[0].solver, SolverKind::Fourier { nz: 4, pr: 2, pc: 1 });
    }

    #[test]
    fn rejections_are_typed() {
        assert!(matches!(parse_jobs("not json"), Err(SpecError::Json(_))));
        assert!(matches!(
            parse_jobs(r#"{"schema": "nope", "jobs": []}"#),
            Err(SpecError::Schema(_))
        ));
        assert!(matches!(
            parse_jobs(&file(r#"{"name": "a", "solver": "serial2d"}"#)),
            Err(SpecError::Missing { field: "steps", .. })
        ));
        assert!(matches!(
            parse_jobs(&file(
                r#"{"name": "a", "solver": "fourier", "ranks": 4, "grid": "3x2", "steps": 1}"#
            )),
            Err(SpecError::Bad { field: "grid", .. })
        ));
        assert!(matches!(
            parse_jobs(&file(
                r#"{"name": "a", "solver": "serial2d", "steps": 1, "net": "warpdrive"}"#
            )),
            Err(SpecError::Bad { field: "net", .. })
        ));
        assert!(matches!(
            parse_jobs(&file(
                r#"{"name": "bad/name", "solver": "serial2d", "steps": 1}"#
            )),
            Err(SpecError::Bad { field: "name", .. })
        ));
        let dup = format!(
            "{},{}",
            r#"{"name": "a", "solver": "serial2d", "steps": 1}"#,
            r#"{"name": "a", "solver": "serial2d", "steps": 1}"#
        );
        assert!(matches!(parse_jobs(&file(&dup)), Err(SpecError::Duplicate(_))));
    }

    #[test]
    fn every_net_maps_to_a_machine() {
        for net in NetId::ALL {
            // Panics (unreachable match) would fail the test; also make
            // sure the mapping is consistent with the catalog display
            // name actually resolving.
            let m = nkt_machine::machine(nkt_machine::MachineId::hosting(net));
            assert!(!m.name.is_empty());
        }
    }
}
