//! # nektar — spectral/hp element Navier–Stokes solvers
//!
//! Rust re-implementation of the application codes benchmarked in the
//! SC'99 paper (§1.3, §4): the NekTar family.
//!
//! * [`serial2d`] — the serial 2-D incompressible solver used for the
//!   bluff-body single-node benchmark (Table 1, Figure 12), built on the
//!   stiffly-stable splitting scheme ([`splitting`]) with banded direct
//!   Poisson/Helmholtz solves.
//! * [`fourier`] — *NekTar-F*: Fourier × spectral/hp parallel solver
//!   (Table 2, Figures 13–14). One rank per group of Fourier planes;
//!   the nonlinear step transposes with `MPI_Alltoall` exactly as the
//!   paper describes. The transpose itself is [`decomp::Grid`]'s: one
//!   `pr × pc` process grid whose one-column case is the paper's 1-D
//!   slab, and whose row/column sub-communicator exchanges scale past
//!   P = nz.
//! * `plane` — the one seven-stage plane step both 2-D solvers advance
//!   through ("one Fourier mode … corresponds to two spectral/hp element
//!   planes"): the serial solver is one mode of one real plane pair,
//!   NekTar-F every owned mode's cos/sin planes of (u, v, w); stage 2's
//!   products are the one part each brings itself.
//! * [`hex3d`] + [`ale`] — *NekTar-ALE*: fully 3-D hexahedral spectral/hp
//!   discretisation with element-based domain decomposition
//!   (nkt-partition), gather-scatter halo exchange (nkt-gs), diagonally
//!   preconditioned CG, moving-mesh (ALE) terms (Table 3, Figures 15–16).
//! * [`drive`] — the one [`drive::Simulation`] trait and [`drive::drive`]
//!   loop (restore → step / sample / checkpoint-cut) every run of the
//!   three codes goes through, plus the shared demo [`drive::cases`].
//! * [`timers`] — the paper's 7-stage breakdown of a time step
//!   (Figure 12) and CPU-vs-wall ledgers.
//! * [`opstream`] / [`workload`] / [`replay`] — the operation-stream
//!   recorder and the model replay that regenerates the paper's
//!   cross-machine application tables on the `nkt-machine`/`nkt-net`
//!   models (DESIGN.md §2 substitution).

#![allow(clippy::needless_range_loop)]
#![allow(clippy::too_many_arguments)]
pub mod ale;
pub mod decomp;
pub mod drive;
pub mod fourier;
pub mod hex3d;
pub mod opstream;
pub(crate) mod plane;
pub mod replay;
pub mod serial2d;
pub mod splitting;
pub mod stats;
pub mod timers;
pub mod workload;

pub use serial2d::{Serial2dSolver, SolverConfig};
pub use splitting::StifflyStable;
pub use timers::{Stage, StageClock};
