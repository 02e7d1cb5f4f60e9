//! Checkpoint cadence and file layout. The values come from the caller
//! ([`CkptConfig::new`]); the examples fill them from `NKT_CKPT_EVERY` /
//! `NKT_CKPT_DIR` as parsed by `nkt_trace::config::RunConfig`.
//!
//! Names on disk, for run id `<run>`:
//!
//! * shard:    `CKPT_<run>_r<rank>_e<epoch>.bin`
//! * manifest: `CKPT_<run>_e<epoch>.manifest`
//!
//! The epoch id **is** the step number at which the snapshot was taken,
//! so file listings read chronologically and the restore path can hand
//! the step count straight back to the solver.

use std::path::{Path, PathBuf};

/// Resolved checkpoint policy for one run.
#[derive(Debug, Clone)]
pub struct CkptConfig {
    /// Directory holding shards and manifests.
    pub dir: PathBuf,
    /// Run identifier embedded in filenames (one run's files never
    /// collide with another's in a shared directory).
    pub run: String,
    /// Write an epoch every this many steps; `None` disables writing
    /// (restore still works).
    pub every: Option<usize>,
    /// How many complete epochs to retain; older ones are pruned after a
    /// successful write. Two is the minimum that makes corrupt-newest
    /// fallback possible.
    pub keep: usize,
}

impl CkptConfig {
    /// Policy with explicit values.
    pub fn new(dir: impl Into<PathBuf>, run: &str, every: Option<usize>) -> CkptConfig {
        CkptConfig { dir: dir.into(), run: run.to_string(), every, keep: 2 }
    }

    /// True when checkpointing is enabled at all.
    pub fn enabled(&self) -> bool {
        self.every.is_some()
    }

    /// True when an epoch should be written after completing `step`
    /// (1-based: `step` steps have been taken).
    pub fn should(&self, step: usize) -> bool {
        match self.every {
            Some(n) => step > 0 && step % n == 0,
            None => false,
        }
    }

    /// Shard path for (`epoch`, `rank`).
    pub fn shard_path(&self, epoch: u64, rank: usize) -> PathBuf {
        self.dir.join(format!("CKPT_{}_r{rank}_e{epoch}.bin", self.run))
    }

    /// Manifest path for `epoch`.
    pub fn manifest_path(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("CKPT_{}_e{epoch}.manifest", self.run))
    }

    /// Epochs present for this run (by manifest file), newest first.
    /// I/O errors (missing dir) read as "no epochs".
    pub fn list_epochs(&self) -> Vec<u64> {
        let prefix = format!("CKPT_{}_e", self.run);
        let mut out: Vec<u64> = std::fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter_map(|e| parse_epoch(&e.file_name().to_string_lossy(), &prefix))
                    .collect()
            })
            .unwrap_or_default();
        out.sort_unstable_by(|a, b| b.cmp(a));
        out.dedup();
        out
    }

    /// Removes shard + manifest files for `epoch` (prune path; errors
    /// ignored — a leftover file is rejected or superseded on restore).
    pub fn remove_epoch(&self, epoch: u64, nranks: usize) {
        for rank in 0..nranks {
            std::fs::remove_file(self.shard_path(epoch, rank)).ok();
        }
        std::fs::remove_file(self.manifest_path(epoch)).ok();
    }
}

fn parse_epoch(file_name: &str, prefix: &str) -> Option<u64> {
    file_name.strip_prefix(prefix)?.strip_suffix(".manifest")?.parse().ok()
}

/// Joins `dir` existence concerns for callers: create the checkpoint
/// directory if needed.
pub fn ensure_dir(dir: &Path) -> Result<(), crate::error::CkptError> {
    std::fs::create_dir_all(dir).map_err(|e| crate::error::CkptError::io("create dir", dir, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence() {
        let c = CkptConfig::new("/tmp", "x", Some(3));
        assert!(!c.should(0));
        assert!(!c.should(1));
        assert!(c.should(3));
        assert!(c.should(6));
        let off = CkptConfig::new("/tmp", "x", None);
        assert!(!off.should(3));
        assert!(!off.enabled());
    }

    #[test]
    fn epoch_listing_sorted_desc_and_run_scoped() {
        let dir = nkt_testkit::scratch_dir("ckpt_pol");
        let c = CkptConfig::new(&dir, "runA", Some(1));
        for e in [4u64, 2, 8] {
            std::fs::write(c.manifest_path(e), b"x").unwrap();
        }
        // Another run's manifest must not leak in.
        std::fs::write(dir.join("CKPT_runB_e99.manifest"), b"x").unwrap();
        assert_eq!(c.list_epochs(), vec![8, 4, 2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn filenames() {
        let c = CkptConfig::new("/data", "cyl", Some(1));
        assert_eq!(c.shard_path(40, 3), PathBuf::from("/data/CKPT_cyl_r3_e40.bin"));
        assert_eq!(c.manifest_path(40), PathBuf::from("/data/CKPT_cyl_e40.manifest"));
    }
}
