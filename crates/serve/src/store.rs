//! Deterministic per-job results store and the `MANIFEST_<job>.json`
//! document.
//!
//! Every job owns one directory under the serve root, named after the
//! job; all of its artifacts (`STATS_`, `CKPT_`, `TRACE_`, `PROF_`,
//! `FLIGHT_`) land there, routed through the per-thread output-dir
//! override in `nkt-trace`. Rank 0 of the finishing slice writes a
//! manifest (schema [`MANIFEST_SCHEMA`]) that inventories the artifacts
//! and records the final state hash. The manifest is **byte
//! deterministic**: no timestamps, artifacts in a fixed order, and
//! content hashes (FNV-1a) of whole files only for files whose bytes are
//! themselves deterministic (STATS, checkpoint shards and manifests —
//! `TRACE_`/`PROF_` carry host wall-clock times, so they are listed by
//! name only).

use crate::spec::JobSpec;
use nkt_trace::json::Value;
use std::io;
use std::path::{Path, PathBuf};

/// Manifest schema tag.
pub const MANIFEST_SCHEMA: &str = "nkt-serve-1";

/// The serve root: one directory per job underneath.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    pub fn new(root: impl Into<PathBuf>) -> Store {
        Store { root: root.into() }
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The per-job artifact directory.
    pub fn job_dir(&self, job: &str) -> PathBuf {
        self.root.join(job)
    }

    /// Where the job's manifest lands.
    pub fn manifest_path(&self, job: &str) -> PathBuf {
        self.job_dir(job).join(format!("MANIFEST_{job}.json"))
    }

    /// Wipes and recreates a job's directory. Called once per job at its
    /// *first* admission in a batch, so re-serving into the same root is
    /// deterministic (no stale epochs from a previous run to restore).
    pub fn reset_job(&self, job: &str) -> io::Result<()> {
        let dir = self.job_dir(job);
        match std::fs::remove_dir_all(&dir) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        std::fs::create_dir_all(&dir)
    }
}

/// One manifest line item. `bytes`/`fnv` are present only for artifacts
/// with deterministic contents.
#[derive(Debug, Clone)]
pub struct ArtifactEntry {
    pub name: String,
    pub bytes: Option<u64>,
    pub fnv: Option<u64>,
}

impl ArtifactEntry {
    /// Name-only entry (artifact exists but carries host timestamps).
    pub fn named(name: impl Into<String>) -> ArtifactEntry {
        ArtifactEntry { name: name.into(), bytes: None, fnv: None }
    }

    /// Entry with size and content hash, from in-memory bytes.
    pub fn hashed(name: impl Into<String>, bytes: &[u8]) -> ArtifactEntry {
        ArtifactEntry {
            name: name.into(),
            bytes: Some(bytes.len() as u64),
            fnv: Some(nkt_ckpt::Fnv1a::digest(bytes)),
        }
    }

    /// [`ArtifactEntry::hashed`] over a file's bytes.
    pub fn hashed_file(dir: &Path, name: impl Into<String>) -> io::Result<ArtifactEntry> {
        let name = name.into();
        let bytes = std::fs::read(dir.join(&name))?;
        Ok(ArtifactEntry::hashed(name, &bytes))
    }
}

/// Everything rank 0 knows at job finish, ready to render.
#[derive(Debug)]
pub struct ManifestData<'a> {
    pub spec: &'a JobSpec,
    /// Display name of the host machine backing the job's net model.
    pub machine: &'static str,
    /// FNV state hash of the solver at the final step.
    pub state_hash: u64,
    /// Steps actually executed (== `spec.steps` for a finished job).
    pub steps_done: u64,
    /// Times this job was evicted and later resumed.
    pub preemptions: u64,
    /// Scheduler ticks the job spent eligible-but-queued.
    pub queue_wait_ticks: u64,
    /// Inventory, already in deterministic order.
    pub artifacts: Vec<ArtifactEntry>,
}

/// The manifest document. Pure function of its input — reruns with
/// identical scheduling render identical bytes.
pub fn manifest_document(m: &ManifestData) -> Value {
    let s = m.spec;
    let mut fields = vec![
        ("schema", MANIFEST_SCHEMA.into()),
        ("job", s.name.as_str().into()),
        ("tenant", s.tenant.as_str().into()),
        ("solver", s.solver.name().into()),
        ("machine", m.machine.into()),
        ("net", s.net.slug().into()),
        ("ranks", s.ranks.into()),
    ];
    if let crate::spec::SolverKind::Fourier { nz, pr, pc } = s.solver {
        fields.extend([("grid", format!("{pr}x{pc}").into()), ("nz", nz.into())]);
    }
    let artifact = |a: &ArtifactEntry| match (a.bytes, a.fnv) {
        (Some(b), Some(h)) => Value::from([
            ("name", a.name.as_str().into()),
            ("bytes", b.into()),
            ("fnv", format!("{h:016x}").into()),
        ]),
        _ => Value::from([("name", a.name.as_str().into())]),
    };
    fields.extend([
        ("steps", s.steps.into()),
        ("priority", s.priority.into()),
        ("ckpt_every", s.ckpt_every.into()),
        ("stats_every", s.stats_every.into()),
        ("steps_done", m.steps_done.into()),
        ("preemptions", m.preemptions.into()),
        ("queue_wait_ticks", m.queue_wait_ticks.into()),
        ("state_hash", format!("{:016x}", m.state_hash).into()),
        ("artifacts", Value::Arr(m.artifacts.iter().map(artifact).collect())),
    ]);
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{parse_jobs, SPEC_SCHEMA};
    use nkt_trace::json::render;

    fn spec() -> JobSpec {
        parse_jobs(&format!(
            "{{\"schema\": \"{SPEC_SCHEMA}\", \"jobs\": [
               {{\"name\": \"m\", \"solver\": \"fourier\", \"ranks\": 2,
                 \"nz\": 4, \"steps\": 5, \"ckpt_every\": 2, \"stats_every\": 1}}]}}"
        ))
        .unwrap()
        .remove(0)
    }

    #[test]
    fn manifest_is_byte_deterministic_and_parses() {
        let s = spec();
        let m = ManifestData {
            spec: &s,
            machine: nkt_machine::MachineId::hosting(s.net).name(),
            state_hash: 0xdead_beef,
            steps_done: 5,
            preemptions: 1,
            queue_wait_ticks: 3,
            artifacts: vec![
                ArtifactEntry::hashed("STATS_m.json", b"{}"),
                ArtifactEntry::named("TRACE_m.json"),
            ],
        };
        let a = render(&manifest_document(&m));
        let b = render(&manifest_document(&m));
        assert_eq!(a, b);
        let doc = nkt_trace::json::parse(&a).expect("manifest parses");
        assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some(MANIFEST_SCHEMA));
        assert_eq!(doc.get("job").and_then(|v| v.as_str()), Some("m"));
        assert_eq!(doc.get("grid").and_then(|v| v.as_str()), Some("2x1"));
        assert_eq!(doc.get("preemptions").and_then(|v| v.as_f64()), Some(1.0));
        let arts = doc.get("artifacts").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(arts.len(), 2);
        assert!(arts[0].get("fnv").is_some());
        assert!(arts[1].get("fnv").is_none());
        assert_eq!(
            doc.get("state_hash").and_then(|v| v.as_str()),
            Some("00000000deadbeef")
        );
    }

    #[test]
    fn reset_job_wipes_stale_artifacts() {
        let root = std::env::temp_dir().join(format!("nkt_serve_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let st = Store::new(&root);
        std::fs::create_dir_all(st.job_dir("j")).unwrap();
        std::fs::write(st.job_dir("j").join("stale.bin"), b"x").unwrap();
        st.reset_job("j").unwrap();
        assert!(st.job_dir("j").exists());
        assert!(!st.job_dir("j").join("stale.bin").exists());
        st.reset_job("never-made").unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }
}
