//! # nkt-ckpt — coordinated checkpoint/restart for the NekTar solvers
//!
//! The paper's production DNS campaigns are multi-day jobs on commodity
//! clusters where node failure is routine; restartability is the
//! difference between "fact" and "fiction" for cheap-hardware DNS. This
//! crate provides:
//!
//! * a **versioned binary container** ([`format`]): `NKTC` magic +
//!   format version + section table + per-section CRC-32, written
//!   atomically (temp file + rename);
//! * a **bitwise-exact codec** ([`codec`]): `f64`s round-trip as raw
//!   IEEE bits so a restored run continues bit-identically;
//! * the [`Checkpointable`] trait ([`traits`]) the three solver state
//!   machines implement, with a deterministic [`state_hash`] over every
//!   section (a shard holds state only, no host time);
//! * one **coordinated epoch protocol** ([`epoch`]): barrier-delimited
//!   quiesce, per-rank shards, a rank-0 manifest as the commit record,
//!   CRC-validated collective restore with fall-back to the previous
//!   epoch on a torn or corrupted set — the serial 2-D solver runs the
//!   same protocol without a communicator, as rank 0 of 1;
//! * env-driven **policy** ([`policy`]): `NKT_CKPT_EVERY` /
//!   `NKT_CKPT_DIR`.
//!
//! Everything is dependency-free (std only, plus the workspace's own
//! `nkt-mpi` and `nkt-trace`), and the restore path never panics on
//! malformed bytes — every failure is a typed [`CkptError`] naming the
//! section and file offset.
//!
//! [`state_hash`]: Checkpointable::state_hash

pub mod codec;
pub mod epoch;
pub mod error;
pub mod format;
pub mod policy;
pub mod tandem;
pub mod traits;

pub use codec::{Dec, Enc};
pub use epoch::{
    restore_latest, restore_latest_on, restore_latest_serial, write_epoch, write_epoch_on,
    write_epoch_serial, RestoreInfo,
};
pub use error::CkptError;
pub use format::{crc32, CkptFile, CkptWriter, FORMAT_VERSION, MAGIC};
pub use policy::CkptConfig;
pub use tandem::TandemMut;
pub use traits::{Checkpointable, Fnv1a};
