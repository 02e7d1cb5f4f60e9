//! Coordinated checkpoint epochs over `nkt-mpi`. The protocol is written
//! once ([`write_epoch_on`], [`restore_latest_on`]): given a communicator
//! it runs the collectives below; given `None` (the serial 2-D solver) it
//! writes and reads the same files as rank 0 of 1 and skips them.
//!
//! ## Write protocol (barrier-delimited epoch)
//!
//! 1. **Quiesce.** Every rank enters [`Comm::quiesce`]: a barrier
//!    followed by a drain of any already-delivered messages into the
//!    pending queue. After the barrier, every pre-checkpoint send has
//!    been matched or is sitting in its receiver's queue — nothing is
//!    "on the wire" between ranks, so each rank's solver state plus its
//!    pending queue is a consistent global cut. (The solvers checkpoint
//!    at step boundaries where the pending queues are empty; the drain
//!    is a guard, not a requirement.)
//! 2. **Shard.** Each rank serializes its [`Checkpointable`] state plus
//!    a `meta` section (kind, epoch, step, rank, nranks) and writes
//!    `CKPT_<run>_r<rank>_e<epoch>.bin` atomically.
//! 3. **Agree.** An allreduce-Min over a success flag: if *any* rank
//!    failed its write, every rank gets [`CkptError::PeerFailed`] and
//!    the partial epoch is left manifest-less (invisible to restore).
//! 4. **Manifest.** After a barrier (all shards durably renamed), rank 0
//!    writes `CKPT_<run>_e<epoch>.manifest` recording epoch, step and
//!    shard count. The manifest is the epoch's commit record: restore
//!    only considers epochs that have one.
//! 5. **Prune.** Rank 0 removes epochs beyond the retention window, then
//!    a final barrier releases the ranks.
//!
//! ## Restore protocol
//!
//! Rank 0 lists manifests and broadcasts the candidate epochs, newest
//! first. For each candidate, every rank validates locally (manifest
//! parses, shard count matches the world size, its own shard opens with
//! all CRCs good and meta agreeing) and the ranks allreduce-Min their
//! verdicts: the newest epoch that every rank can read wins. A torn or
//! corrupted newest epoch is thereby skipped *collectively* — no rank
//! restores from an epoch any peer rejected — and the run falls back to
//! the previous one.

use std::path::Path;

use nkt_mpi::prelude::*;

use crate::error::CkptError;
use crate::format::{CkptFile, CkptWriter};
use crate::policy::{ensure_dir, CkptConfig};
use crate::codec::{Dec, Enc};
use crate::traits::Checkpointable;

/// Meta section present in every shard.
const META_SECTION: &str = "meta";
/// Sections in a manifest file.
const MANIFEST_SECTION: &str = "epoch";

/// What a successful restore reports back to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreInfo {
    /// Epoch restored from (== the step the snapshot was taken at).
    pub epoch: u64,
    /// Step count the solver resumes at.
    pub step: u64,
    /// True when the newest on-disk epoch was rejected and an older one
    /// was used.
    pub fell_back: bool,
}

fn meta_section(state: &dyn Checkpointable, epoch: u64, rank: usize, nranks: usize) -> Vec<u8> {
    let mut e = Enc::new();
    let kind = state.kind().as_bytes();
    e.usize(kind.len());
    for &b in kind {
        e.u64(b as u64);
    }
    e.u64(epoch);
    e.u64(state.ckpt_step());
    e.usize(rank);
    e.usize(nranks);
    e.into_bytes()
}

fn check_meta(
    d: &mut Dec<'_>,
    kind: &str,
    epoch: u64,
    rank: usize,
    nranks: usize,
) -> Result<u64, CkptError> {
    let klen = d.len_prefix(64)?;
    let mut kbytes = Vec::with_capacity(klen);
    for _ in 0..klen {
        kbytes.push(d.u64()? as u8);
    }
    let file_kind = String::from_utf8_lossy(&kbytes).into_owned();
    if file_kind != kind {
        return Err(CkptError::StateMismatch {
            what: format!("solver kind: checkpoint is '{file_kind}', restoring into '{kind}'"),
        });
    }
    d.expect_u64(epoch, "epoch")?;
    let step = d.u64()?;
    d.expect_u64(rank as u64, "rank")?;
    d.expect_u64(nranks as u64, "world size")?;
    Ok(step)
}

/// Builds the shard container for one rank.
fn build_shard(state: &dyn Checkpointable, epoch: u64, rank: usize, nranks: usize) -> CkptWriter {
    let mut w = CkptWriter::new();
    w.section(META_SECTION, meta_section(state, epoch, rank, nranks));
    state.write_sections(&mut w);
    w
}

/// Validates one shard file against the expected identity and hands the
/// step count back.
fn open_shard(
    path: &Path,
    kind: &str,
    epoch: u64,
    rank: usize,
    nranks: usize,
) -> Result<(CkptFile, u64), CkptError> {
    let f = CkptFile::open(path)?;
    let mut d = f.dec(META_SECTION)?;
    let step = check_meta(&mut d, kind, epoch, rank, nranks)?;
    d.finish()?;
    Ok((f, step))
}

fn write_manifest(cfg: &CkptConfig, epoch: u64, step: u64, nranks: usize) -> Result<(), CkptError> {
    let mut e = Enc::new();
    e.u64(epoch);
    e.u64(step);
    e.usize(nranks);
    let mut w = CkptWriter::new();
    w.section(MANIFEST_SECTION, e.into_bytes());
    w.write_to(&cfg.manifest_path(epoch))?;
    Ok(())
}

/// Parses a manifest, returning `(step, nranks)` for `epoch`.
fn read_manifest(cfg: &CkptConfig, epoch: u64) -> Result<(u64, usize), CkptError> {
    let f = CkptFile::open(&cfg.manifest_path(epoch))?;
    let mut d = f.dec(MANIFEST_SECTION)?;
    let man_epoch = d.u64()?;
    if man_epoch != epoch {
        return Err(CkptError::Manifest {
            what: format!("file named epoch {epoch} records epoch {man_epoch}"),
        });
    }
    let step = d.u64()?;
    let nranks = d.len_prefix(1 << 20)?;
    d.finish()?;
    Ok((step, nranks))
}

/// Epoch write, called from every rank with the same `step`: the
/// coordinated protocol over `comm`, or with `None` the same files from
/// one process (`rank = 0`, `nranks = 1`) and no collectives. Returns only
/// after the epoch is either fully committed (manifest on disk) or
/// collectively abandoned.
pub fn write_epoch_on(
    mut comm: Option<&mut Comm>,
    cfg: &CkptConfig,
    step: usize,
    state: &dyn Checkpointable,
) -> Result<(), CkptError> {
    let sp = nkt_trace::span_v("ckpt.write", "ckpt", wtime(&comm));
    let result = write_epoch_inner(comm.as_deref_mut(), cfg, step as u64, state);
    sp.end_v(wtime(&comm));
    result
}

/// [`write_epoch_on`] over `comm`. New code calls `write_epoch_on`;
/// `perfbench` compiles against this name.
pub fn write_epoch(
    comm: &mut Comm,
    cfg: &CkptConfig,
    step: usize,
    state: &dyn Checkpointable,
) -> Result<(), CkptError> {
    write_epoch_on(Some(comm), cfg, step, state)
}

/// [`write_epoch_on`] without a communicator. New code calls
/// `write_epoch_on(None, ..)`; `perfbench` compiles against this name.
pub fn write_epoch_serial(
    cfg: &CkptConfig,
    step: usize,
    state: &dyn Checkpointable,
) -> Result<(), CkptError> {
    write_epoch_on(None, cfg, step, state)
}

/// The virtual clock of `comm`; `NaN` (a host-only span) without one.
fn wtime(comm: &Option<&mut Comm>) -> f64 {
    comm.as_ref().map_or(f64::NAN, |c| c.wtime())
}

/// `(rank, nranks)` of `comm`; a serial run is rank 0 of 1.
fn identity(comm: &Option<&mut Comm>) -> (usize, usize) {
    comm.as_ref().map_or((0, 1), |c| (c.rank(), c.size()))
}

/// Whether every rank's `ok` holds (the allreduce-Min of the flags;
/// the flag itself without a communicator).
fn all_ok(comm: &mut Option<&mut Comm>, ok: bool) -> bool {
    let mut flag = [if ok { 1.0 } else { 0.0 }];
    if let Some(c) = comm {
        c.allreduce(&mut flag, ReduceOp::Min);
    }
    flag[0] >= 1.0
}

fn write_epoch_inner(
    mut comm: Option<&mut Comm>,
    cfg: &CkptConfig,
    epoch: u64,
    state: &dyn Checkpointable,
) -> Result<(), CkptError> {
    if let Some(c) = comm.as_deref_mut() {
        c.quiesce();
    }

    let (rank, nranks) = identity(&comm);
    let shard_result: Result<u64, CkptError> = (|| {
        ensure_dir(&cfg.dir)?;
        let w = build_shard(state, epoch, rank, nranks);
        let bytes = w.write_to(&cfg.shard_path(epoch, rank))?;
        Ok(bytes)
    })();

    match (&shard_result, all_ok(&mut comm, shard_result.is_ok())) {
        (Ok(bytes), true) => {
            nkt_trace::counter_add("ckpt.write.bytes", *bytes);
            nkt_trace::counter_add("ckpt.write.shards", 1);
        }
        (Ok(_), false) => {
            // A peer failed; this rank's shard is orphaned (no manifest
            // will name it). Remove it so it cannot confuse a listing.
            std::fs::remove_file(cfg.shard_path(epoch, rank)).ok();
            return Err(CkptError::PeerFailed { epoch });
        }
        (Err(_), _) => return shard_result.map(|_| ()),
    }

    // All shards are durably in place past this barrier; commit.
    if let Some(c) = comm.as_deref_mut() {
        c.barrier();
    }
    let commit = if rank == 0 {
        write_manifest(cfg, epoch, state.ckpt_step(), nranks).map(|()| {
            for old in cfg.list_epochs().into_iter().skip(cfg.keep) {
                cfg.remove_epoch(old, nranks);
            }
        })
    } else {
        Ok(())
    };
    let Some(c) = comm else { return commit };
    let mut commit_ok = [if commit.is_ok() { 1.0 } else { 0.0 }];
    c.bcast(0, &mut commit_ok);
    if commit_ok[0] < 1.0 {
        return Err(CkptError::PeerFailed { epoch });
    }
    Ok(())
}

/// Finds the newest epoch every rank can restore from — collectively
/// over `comm`, or with `None` in one process — and applies it to
/// `state`. Returns [`RestoreInfo`] or [`CkptError::NoValidEpoch`] when
/// nothing on disk survives validation.
pub fn restore_latest_on(
    mut comm: Option<&mut Comm>,
    cfg: &CkptConfig,
    state: &mut dyn Checkpointable,
) -> Result<RestoreInfo, CkptError> {
    let sp = nkt_trace::span_v("ckpt.restore", "ckpt", wtime(&comm));
    let result = restore_latest_inner(comm.as_deref_mut(), cfg, state);
    sp.end_v(wtime(&comm));
    result
}

/// [`restore_latest_on`] over `comm`. New code calls
/// `restore_latest_on`; `perfbench` compiles against this name.
pub fn restore_latest(
    comm: &mut Comm,
    cfg: &CkptConfig,
    state: &mut dyn Checkpointable,
) -> Result<RestoreInfo, CkptError> {
    restore_latest_on(Some(comm), cfg, state)
}

/// [`restore_latest_on`] without a communicator. New code calls
/// `restore_latest_on(None, ..)`; `perfbench` compiles against this name.
pub fn restore_latest_serial(
    cfg: &CkptConfig,
    state: &mut dyn Checkpointable,
) -> Result<RestoreInfo, CkptError> {
    restore_latest_on(None, cfg, state)
}

fn restore_latest_inner(
    mut comm: Option<&mut Comm>,
    cfg: &CkptConfig,
    state: &mut dyn Checkpointable,
) -> Result<RestoreInfo, CkptError> {
    let (rank, nranks) = identity(&comm);

    // Rank 0 lists candidate epochs (newest first) and broadcasts them.
    // Epochs are step numbers — far below 2^53, so the f64 transport the
    // collectives use is exact.
    let mut epochs: Vec<u64> = if rank == 0 { cfg.list_epochs() } else { Vec::new() };
    if let Some(c) = comm.as_deref_mut() {
        let mut count = [epochs.len() as f64];
        c.bcast(0, &mut count);
        let mut buf: Vec<f64> = if rank == 0 {
            epochs.iter().map(|&e| e as f64).collect()
        } else {
            vec![0.0; count[0] as usize]
        };
        c.bcast(0, &mut buf);
        epochs = buf.iter().map(|&e| e as u64).collect();
    }

    let mut tried = Vec::new();
    let mut last_cause: Option<String> = None;
    let mut fell_back = false;
    for &epoch in &epochs {
        tried.push(epoch);
        // Local validation: manifest + own shard, CRCs eager in open().
        let local: Result<(CkptFile, u64), CkptError> = (|| {
            let (step, man_ranks) = read_manifest(cfg, epoch)?;
            if man_ranks != nranks {
                return Err(CkptError::Manifest {
                    what: format!("epoch {epoch} was written by {man_ranks} ranks, world has {nranks}"),
                });
            }
            let (f, shard_step) = open_shard(&cfg.shard_path(epoch, rank), state.kind(), epoch, rank, nranks)?;
            if shard_step != step {
                return Err(CkptError::Manifest {
                    what: format!("epoch {epoch}: shard records step {shard_step}, manifest {step}"),
                });
            }
            Ok((f, step))
        })();

        let agreed = all_ok(&mut comm, local.is_ok());
        match (local, agreed) {
            (Ok((f, step)), true) => {
                state.read_sections(&f)?;
                nkt_trace::counter_add("ckpt.restore.bytes", f.payload_bytes());
                nkt_trace::counter_add("ckpt.restore.shards", 1);
                if fell_back {
                    nkt_trace::counter_add("ckpt.restore.fallbacks", 1);
                    // A fallback means the newest epoch was torn or
                    // corrupted — ship the post-mortem of what this rank
                    // was doing around the failed epoch.
                    nkt_trace::flight::dump_current(rank, "ckpt epoch fell back");
                }
                return Ok(RestoreInfo { epoch, step, fell_back });
            }
            (local, _) => {
                if let Err(e) = local {
                    last_cause.get_or_insert_with(|| format!("rank {rank}: {e}"));
                } else {
                    last_cause.get_or_insert_with(|| format!("epoch {epoch} rejected by a peer rank"));
                }
                fell_back = true;
            }
        }
    }
    Err(CkptError::NoValidEpoch { tried, last_cause })
}
