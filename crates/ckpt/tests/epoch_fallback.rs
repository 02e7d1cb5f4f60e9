//! The coordinated-epoch protocol under damage: a corrupted shard in
//! the newest epoch is CRC-detected on ONE rank, the failure verdict is
//! agreed collectively, and every rank falls back to the previous epoch
//! together; when no epoch survives, the error is a typed
//! [`CkptError::NoValidEpoch`] naming what was tried. Plus a fuzz
//! property: `CkptFile::parse` never panics, whatever the bytes.

use nkt_ckpt::{
    restore_latest_on, write_epoch_on, Checkpointable, CkptConfig, CkptError, CkptFile,
    CkptWriter, Enc,
};
use nkt_net::{cluster, ClusterNetwork, NetId};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn net() -> ClusterNetwork {
    cluster(NetId::T3e)
}

fn run<R: Send, F: Fn(&mut nkt_mpi::Comm) -> R + Sync>(
    p: usize,
    net: ClusterNetwork,
    f: F,
) -> Vec<R> {
    nkt_mpi::World::from_env().ranks(p).net(net).run(f)
}

fn fresh_dir(label: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("nkt_epoch_{label}_{}_{n}", std::process::id()))
}

/// Minimal rank-local state: a payload vector plus a step counter.
struct Toy {
    vals: Vec<f64>,
    step: u64,
}

impl Toy {
    fn at(rank: usize, step: u64) -> Toy {
        Toy { vals: (0..6).map(|i| (rank * 100 + i) as f64 + step as f64 / 8.0).collect(), step }
    }
}

impl Checkpointable for Toy {
    fn kind(&self) -> &'static str {
        "toy"
    }
    fn write_sections(&self, w: &mut CkptWriter) {
        let mut e = Enc::new();
        e.f64s(&self.vals);
        e.u64(self.step);
        w.section("state", e.into_bytes());
    }
    fn read_sections(&mut self, f: &CkptFile) -> Result<(), CkptError> {
        let mut d = f.dec("state")?;
        self.vals = d.f64s()?;
        self.step = d.u64()?;
        d.finish()
    }
    fn ckpt_step(&self) -> u64 {
        self.step
    }
}

/// Flips one bit midway through `path` — inside some payload or table
/// entry, where only the CRC (not the header structure) can notice.
fn flip_mid_byte(path: &Path) {
    let mut bytes = std::fs::read(path).expect("read shard");
    let i = bytes.len() / 2;
    bytes[i] ^= 0x10;
    std::fs::write(path, bytes).expect("rewrite shard");
}

/// Writes epochs 2 and 4 from a 2-rank world into `cfg.dir`.
fn write_two_epochs(cfg: &CkptConfig) {
    run(2, net(), |c| {
        for step in [2usize, 4] {
            let s = Toy::at(c.rank(), step as u64);
            write_epoch_on(Some(c), cfg, step, &s).expect("write_epoch");
        }
    });
}

/// An epoch cut taken while a nonblocking receive is posted and its
/// payload is still in flight: the quiesce inside `write_epoch_on` must
/// bind the message to the posted request (drained, not lost), the
/// epoch must commit, and the wait after the cut must still deliver.
#[test]
fn epoch_cut_preserves_posted_irecv() {
    let dir = fresh_dir("irecv");
    let cfg = CkptConfig::new(&dir, "toyrun", None);
    let out = run(2, net(), |c| {
        let req = (c.rank() == 1).then(|| c.irecv(Some(0), Some(9)));
        if c.rank() == 0 {
            c.send(1, 9, &[4.25, 8.5]);
        }
        let s = Toy::at(c.rank(), 3);
        write_epoch_on(Some(c), &cfg, 3, &s).expect("write_epoch with an irecv posted");
        match req {
            Some(r) => c.wait(&r).data.clone(),
            None => Vec::new(),
        }
    });
    assert_eq!(out[1], vec![4.25, 8.5], "payload must survive the epoch cut");
    let restored = run(2, net(), |c| {
        let mut s = Toy { vals: Vec::new(), step: 0 };
        let info = restore_latest_on(Some(c), &cfg, &mut s).expect("restore after irecv epoch");
        (info.epoch, s.state_hash())
    });
    for (rank, (epoch, hash)) in restored.iter().enumerate() {
        assert_eq!(*epoch, 3, "rank {rank} restored the irecv-cut epoch");
        assert_eq!(*hash, Toy::at(rank, 3).state_hash(), "rank {rank} state not bitwise");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One rank's shard in the newest epoch is corrupted: BOTH ranks must
/// agree to fall back to epoch 2 (the healthy rank included — that is
/// the collective-verdict part of the protocol), and the restored state
/// must be epoch 2's, bitwise.
#[test]
fn corrupt_shard_falls_back_collectively() {
    let dir = fresh_dir("fallback");
    let cfg = CkptConfig::new(&dir, "toyrun", None);
    write_two_epochs(&cfg);
    flip_mid_byte(&cfg.shard_path(4, 1));

    let out: Vec<(u64, u64, bool, u64)> = run(2, net(), |c| {
        let mut s = Toy { vals: Vec::new(), step: 0 };
        let info =
            restore_latest_on(Some(c), &cfg, &mut s).expect("restore must fall back, not fail");
        (info.epoch, info.step, info.fell_back, s.state_hash())
    });
    for (rank, (epoch, step, fell_back, hash)) in out.iter().enumerate() {
        assert_eq!(*epoch, 2, "rank {rank} restored the damaged epoch");
        assert_eq!(*step, 2, "rank {rank} wrong step");
        assert!(*fell_back, "rank {rank} did not report the fallback");
        assert_eq!(*hash, Toy::at(rank, 2).state_hash(), "rank {rank} state not bitwise epoch 2");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A truncated shard (torn write that somehow survived the atomic
/// rename, e.g. disk-full) is detected the same way.
#[test]
fn truncated_shard_falls_back() {
    let dir = fresh_dir("trunc");
    let cfg = CkptConfig::new(&dir, "toyrun", None);
    write_two_epochs(&cfg);
    let shard = cfg.shard_path(4, 0);
    let bytes = std::fs::read(&shard).unwrap();
    std::fs::write(&shard, &bytes[..bytes.len() / 3]).unwrap();

    let out = run(2, net(), |c| {
        let mut s = Toy { vals: Vec::new(), step: 0 };
        restore_latest_on(Some(c), &cfg, &mut s).expect("fallback expected").epoch
    });
    assert_eq!(out, vec![2, 2]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Every epoch damaged: the restore fails with `NoValidEpoch` listing
/// the epochs it tried, newest first, on every rank — no panic, no
/// deadlock, no rank left holding partial state it believes is valid.
#[test]
fn all_epochs_corrupt_is_no_valid_epoch() {
    let dir = fresh_dir("allbad");
    let cfg = CkptConfig::new(&dir, "toyrun", None);
    write_two_epochs(&cfg);
    for epoch in [2u64, 4] {
        flip_mid_byte(&cfg.shard_path(epoch, 0));
    }

    let out: Vec<Vec<u64>> = run(2, net(), |c| {
        let mut s = Toy { vals: Vec::new(), step: 0 };
        match restore_latest_on(Some(c), &cfg, &mut s) {
            Ok(info) => panic!("restored epoch {} from all-corrupt set", info.epoch),
            Err(CkptError::NoValidEpoch { tried, .. }) => tried,
            Err(other) => panic!("expected NoValidEpoch, got: {other}"),
        }
    });
    for tried in &out {
        assert_eq!(*tried, vec![4, 2], "wrong trial order");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Restoring from an empty directory reports `NoValidEpoch` with an
/// empty trial list — the "nothing to resume from, start cold" signal
/// the examples' step loops rely on.
#[test]
fn empty_dir_is_no_valid_epoch_with_empty_tried() {
    let dir = fresh_dir("empty");
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = CkptConfig::new(&dir, "toyrun", None);
    let out = run(2, net(), |c| {
        let mut s = Toy { vals: Vec::new(), step: 0 };
        match restore_latest_on(Some(c), &cfg, &mut s) {
            Err(CkptError::NoValidEpoch { tried, .. }) => tried.is_empty(),
            other => panic!("expected NoValidEpoch, got: {other:?}"),
        }
    });
    assert_eq!(out, vec![true, true]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Old epochs beyond `keep` are pruned by the writer: after epochs
/// 2, 4, 6 with keep = 2, epoch 2's files are gone and a restore lands
/// on 6.
#[test]
fn writer_prunes_beyond_keep() {
    let dir = fresh_dir("prune");
    let cfg = CkptConfig::new(&dir, "toyrun", None);
    run(2, net(), |c| {
        for step in [2usize, 4, 6] {
            let s = Toy::at(c.rank(), step as u64);
            write_epoch_on(Some(c), &cfg, step, &s).expect("write_epoch");
        }
    });
    assert!(!cfg.manifest_path(2).exists(), "epoch 2 manifest should be pruned");
    assert!(!cfg.shard_path(2, 0).exists(), "epoch 2 shard should be pruned");
    assert!(cfg.manifest_path(4).exists() && cfg.manifest_path(6).exists());

    let out = run(2, net(), |c| {
        let mut s = Toy { vals: Vec::new(), step: 0 };
        restore_latest_on(Some(c), &cfg, &mut s).expect("restore").epoch
    });
    assert_eq!(out, vec![6, 6]);
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------------------------------ fuzz

nkt_testkit::prop_check! {
    #![cases(64)]

    /// `CkptFile::parse` is total: arbitrary bytes produce `Ok` or a
    /// typed error, never a panic or an out-of-bounds access.
    fn parse_never_panics_on_noise(bytes in nkt_testkit::vec_len_in(0u64..256, 0..160)) {
        let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        let _ = CkptFile::parse(Path::new("fuzz"), raw);
    }

    /// Nor on a VALID file with one mutation — byte overwritten at an
    /// arbitrary offset. (Exhaustive single-bit coverage lives in the
    /// format unit tests; this drives multi-byte-distance mutations.)
    fn parse_never_panics_on_mutation(pos in 0usize..4096, val in 0u64..256) {
        let toy = Toy::at(1, 7);
        let mut w = CkptWriter::new();
        toy.write_sections(&mut w);
        let mut bytes = w.to_bytes();
        let i = pos % bytes.len();
        bytes[i] = val as u8;
        if let Ok(f) = CkptFile::parse(Path::new("fuzz"), bytes) {
            // Structurally intact: decoding must still be total.
            let mut t = Toy { vals: Vec::new(), step: 0 };
            let _ = t.read_sections(&f);
        }
    }
}
