//! # nkt-blas — pure-Rust BLAS / LAPACK subset
//!
//! The SC'99 paper evaluates machines by timing vendor BLAS routines
//! (`dcopy`, `daxpy`, `ddot`, `dgemv`, `dgemm`) because "BLAS routines
//! account for most of the work" in the NekTar DNS code. This crate is the
//! substitute for those vendor libraries: a real, tested implementation of
//! the Level 1/2/3 routines the paper times, plus the LAPACK-style banded
//! and dense factorizations that NekTar's direct Helmholtz/Poisson solvers
//! use (the paper: "A direct solver (LAPACK), utilising the symmetric and
//! banded nature of the matrix").
//!
//! What the solvers themselves run is smaller than any of those: "most of
//! the calls to dgemm are for small n (10 or less)" (Figure 6), and a
//! sum-factorised elemental operation is exactly that — products with a
//! `(P+2) × (P+1)` basis table along one axis of a small tensor. [`sweep`]
//! is that product and the repo's one small-matrix kernel: NekTar-ALE's
//! 3-D elemental operators and the 2-D plane kernels of the serial and
//! Fourier solvers are both made of it.
//!
//! Conventions follow reference BLAS: column-major storage, `lda` leading
//! dimensions, routine names kept (`dgemm`, `dpbtrf`, ...) so the code maps
//! one-to-one onto the paper's vocabulary. Safe Rust throughout; hot loops
//! are written to autovectorize. The crate also owns the workspace's one
//! instruction-set seam, [`isa`]: a kernel body compiled once portably and
//! once for AVX2, picked at run time, giving the same bits in either
//! build. `dpbtrf`, NekTar-ALE's Helmholtz kernel, the lane transform and
//! the condensed interiors run through it.
//!
//! ## Modules
//! * [`level1`] — vector-vector: `dcopy`, `daxpy`, `ddot`, `dscal`, `dnrm2`
//! * [`level2`] — matrix-vector: `dgemv`, `dtrsv`
//! * [`level3`] — matrix-matrix: `dgemm` (blocked + small-n path)
//! * [`mod@sweep`] — the small-matrix kernel: [`sweep`] over an [`Axis`]
//! * [`mod@transform`] — the lane tensor transform: `D` sweeps of every
//!   (element, plane) unit of a pass, [`transform::LANES`] units a block
//! * [`lapack`] — `dpbtrf`/`dpbtrs`/`dpbtrs_multi` (banded Cholesky, over the envelope),
//!   `dpotrf`/`dpotrs` (dense Cholesky)
//! * [`matrix`] — owned column-major and symmetric-banded (envelope) containers
//! * [`isa`] — the portable / AVX2 builds of a [`isa::Kernel`] and the
//!   one host check that picks between them
//!
//! That is every routine something outside this crate calls (or, for
//! `dtrsv` and `dscal`, that `dpotrs` and `dgemv` are built on): a
//! routine nothing reaches is not kept for completeness.

#![allow(clippy::too_many_arguments)]
#![allow(clippy::needless_range_loop)]

pub mod isa;
pub mod lapack;
pub mod level1;
pub mod level2;
pub mod level3;
pub mod matrix;
pub mod sweep;
pub mod transform;

pub use lapack::{dpbtrf, dpbtrs, dpbtrs_multi, dpotrf, dpotrs};
pub use level1::{daxpy, dcopy, ddot, dnrm2, dscal};
pub use level2::{dgemv, dtrsv, Trans, Uplo};
pub use level3::{dgemm, dgemm_small};
pub use matrix::{BandedSym, ColMajor};
pub use sweep::{sweep, Axis};

/// Error type for factorization routines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LapackError {
    /// The leading minor of the given (1-based) order is not positive
    /// definite: the Cholesky factorization could not be completed.
    Singular(usize),
    /// Inconsistent dimensions were passed.
    Dimension(&'static str),
}

impl core::fmt::Display for LapackError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LapackError::Singular(i) => {
                write!(f, "matrix is singular / not positive definite at pivot {i}")
            }
            LapackError::Dimension(msg) => write!(f, "dimension mismatch: {msg}"),
        }
    }
}

impl std::error::Error for LapackError {}
