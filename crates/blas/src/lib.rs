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
//! Conventions follow reference BLAS: column-major storage, `lda` leading
//! dimensions, routine names kept (`dgemm`, `dpbtrf`, ...) so the code maps
//! one-to-one onto the paper's vocabulary. Safe Rust throughout; hot loops
//! are written to autovectorize.
//!
//! ## Modules
//! * [`level1`] — vector-vector: `dcopy`, `daxpy`, `ddot`, `dscal`, ...
//! * [`level2`] — matrix-vector: `dgemv`, `dger`, `dsymv`, `dtrsv`, ...
//! * [`level3`] — matrix-matrix: `dgemm` (blocked + small-n path), `dsyrk`, `dtrsm`
//! * [`lapack`] — `dpbtrf`/`dpbtrs` (banded Cholesky), `dpotrf`/`dpotrs`,
//!   `dgetrf`/`dgetrs` (partial-pivot LU), `dpttrf`/`dpttrs` (tridiagonal)
//! * [`matrix`] — owned column-major and symmetric-banded containers

#![allow(clippy::too_many_arguments)]
#![allow(clippy::needless_range_loop)]

pub mod lapack;
pub mod level1;
pub mod level2;
pub mod level3;
pub mod matrix;

pub use lapack::{
    dgetrf, dgetrs, dpbtrf, dpbtrs, dpbtrs_multi, dpotrf, dpotrs, dpttrf, dpttrs,
};
pub use level1::{dasum, daxpy, dcopy, ddot, dnrm2, drot, dscal, dswap, idamax};
pub use level2::{dgbmv, dgemv, dger, dsbmv, dsymv, dtrmv, dtrsv, Trans, Uplo};
pub use level3::{dgemm, dgemm_small, dsyrk, dtrsm, Side};
pub use matrix::{BandedSym, ColMajor};

/// Error type for factorization routines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LapackError {
    /// The leading minor of the given (1-based) order is not positive
    /// definite (Cholesky), or the pivot at this position is exactly zero
    /// (LU): the factorization could not be completed.
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
