//! Umbrella crate for the SC'99 PC/Linux-cluster DNS reproduction.
//!
//! Re-exports every workspace crate so examples and integration tests can
//! use a single dependency. See `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the paper-vs-measured record.

pub mod observe;

pub use nektar;
pub use nkt_blas as blas;
pub use nkt_ckpt as ckpt;
pub use nkt_fft as fft;
pub use nkt_gs as gs;
pub use nkt_machine as machine;
pub use nkt_mesh as mesh;
pub use nkt_mpi as mpi;
pub use nkt_net as net;
pub use nkt_partition as partition;
pub use nkt_poly as poly;
pub use nkt_prof as prof;
pub use nkt_serve as serve;
pub use nkt_spectral as spectral;
pub use nkt_stats as stats;
pub use nkt_trace as trace;
