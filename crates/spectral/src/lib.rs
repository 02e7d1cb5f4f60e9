//! # nkt-spectral — the spectral/hp element method
//!
//! Re-implementation of the discretisation underlying NekTar (Karniadakis
//! & Sherwin 1999, paper §1.3 and §4): hierarchical (Jacobi) modal
//! expansions on triangles and quadrilaterals, ordered "vertices first,
//! followed by the edges, and finally the interior" (paper Figure 9), with
//! C0 assembly and the banded symmetric Laplacian of paper Figure 10.
//!
//! * [`basis1d`] — the modified 1-D modal basis
//!   {(1−ξ)/2, (1+ξ)/2, (1−ξ)(1+ξ)/4·P^{1,1}_{k−1}(ξ)}.
//! * [`quadbasis`] / [`tribasis`] — tensor and collapsed-coordinate
//!   expansions with vertex/edge/interior mode classification.
//! * [`element`] — geometric mappings and elemental mass / Laplacian /
//!   Helmholtz matrices evaluated by Gauss-Jacobi quadrature.
//! * [`assembly`] — global C0 numbering (boundary dofs first, paper
//!   Figure 10), edge-orientation sign handling, Dirichlet masks.
//! * [`rcm`] — reverse Cuthill-McKee ordering, which turns the boundary
//!   part of that numbering into a narrow band.
//! * [`solve`] — one shared [`Discretization`] and the global
//!   Helmholtz/Poisson problems on it, statically condensed: interiors
//!   eliminated element by element, the boundary Schur complement solved
//!   in RCM band order by banded direct Cholesky (LAPACK-style `dpbtrf`,
//!   the paper's serial and Fourier solver).

#![allow(clippy::needless_range_loop)]
#![allow(clippy::too_many_arguments)]
pub mod assembly;
pub mod basis1d;
pub mod element;
pub mod quadbasis;
pub mod rcm;
pub mod solve;
pub mod tribasis;

pub use assembly::{Assembly, DofKind};
pub use basis1d::Basis1d;
pub use element::{ElemOps, ElementMatrices};
pub use quadbasis::QuadBasis;
pub use rcm::{boundary_band_order, rcm_order, BandOrder};
pub use solve::{
    Discretization, HelmholtzProblem, PlaneScratch, SolveMethod, SolveShape, SolveStats,
};
pub use tribasis::TriBasis;
