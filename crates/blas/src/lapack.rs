//! LAPACK-style factorizations used by NekTar's direct solvers.
//!
//! The paper (§4.1): "Solution of the Laplacian for the Poisson equation.
//! A direct solver (LAPACK), utilising the symmetric and banded nature of
//! the matrix, is used." — that is [`dpbtrf`]/[`dpbtrs`] here. Dense
//! Cholesky ([`dpotrf`]/[`dpotrs`]) solves the small edge-projection
//! systems of the Dirichlet data.

use crate::level1::{daxpy, ddot};
use crate::level2::{Trans, Uplo};
use crate::matrix::BandedSym;
use crate::LapackError;

/// Cholesky factorization of a symmetric positive-definite **band** matrix
/// in upper `SB` storage: A = UᵀU where U is banded upper triangular.
/// Overwrites the band storage of `a` with U. (LAPACK `dpbtrf`, uplo='U'.)
///
/// # Errors
/// [`LapackError::Singular`] (1-based pivot index) if a non-positive pivot
/// is hit — the matrix is not positive definite.
pub fn dpbtrf(a: &mut BandedSym) -> Result<(), LapackError> {
    let n = a.n();
    let kd = a.kd();
    let ldab = a.ldab();
    let ab = a.ab_mut();
    for j in 0..n {
        // u_jj = sqrt(a_jj - sum_{i<j} u_ij^2) over in-band i.
        let mut d = ab[kd + j * ldab];
        let lo = j.saturating_sub(kd);
        for i in lo..j {
            let u = ab[(kd + i - j) + j * ldab];
            d -= u * u;
        }
        if d <= 0.0 {
            return Err(LapackError::Singular(j + 1));
        }
        let ujj = d.sqrt();
        ab[kd + j * ldab] = ujj;
        // Update column entries of subsequent columns that see row j:
        // for each k in (j, j+kd]: u_jk = (a_jk - sum u_ij u_ik) / u_jj.
        let hi = (j + kd).min(n.saturating_sub(1));
        for kcol in (j + 1)..=hi {
            let mut s = ab[(kd + j - kcol) + kcol * ldab];
            let lo2 = kcol.saturating_sub(kd).max(lo);
            for i in lo2..j {
                s -= ab[(kd + i - j) + j * ldab] * ab[(kd + i - kcol) + kcol * ldab];
            }
            ab[(kd + j - kcol) + kcol * ldab] = s / ujj;
        }
    }
    Ok(())
}

/// Column j of the banded factor U above the diagonal (rows lo..j,
/// contiguous in `SB` storage), its diagonal entry, and lo.
#[inline(always)]
fn factor_column(ab: &[f64], kd: usize, ldab: usize, j: usize) -> (&[f64], f64, usize) {
    let lo = j.saturating_sub(kd);
    let diag = kd + j * ldab;
    (&ab[diag - (j - lo)..diag], ab[diag], lo)
}

/// Solves A x = b given the [`dpbtrf`] factorization (A = UᵀU banded).
/// `b` is overwritten with x. (LAPACK `dpbtrs` single-RHS.)
///
/// Both sweeps read U one stored column at a time — the in-band rows
/// `lo..j` of column j are contiguous in `SB` storage — so the factor is
/// streamed once forward and once backward at unit stride.
pub fn dpbtrs(u: &BandedSym, b: &mut [f64]) -> Result<(), LapackError> {
    let n = u.n();
    if b.len() < n {
        return Err(LapackError::Dimension("dpbtrs: rhs shorter than n"));
    }
    let (kd, ldab, ab) = (u.kd(), u.ldab(), u.ab());
    let column = |j: usize| factor_column(ab, kd, ldab, j);
    // Forward, Uᵀ y = b: y_j = (b_j − U[lo..j, j] · y[lo..j]) / u_jj.
    for j in 0..n {
        let (col, ujj, lo) = column(j);
        b[j] = (b[j] - ddot(col, &b[lo..j])) / ujj;
    }
    // Backward, U x = y, by columns: once x_j is known its column leaves
    // every earlier row, b[lo..j] −= x_j · U[lo..j, j].
    for j in (0..n).rev() {
        let (col, ujj, lo) = column(j);
        let xj = b[j] / ujj;
        b[j] = xj;
        daxpy(-xj, col, &mut b[lo..j]);
    }
    Ok(())
}

/// [`dpbtrs`] for the `nrhs` columns of the column-major `n × nrhs`
/// array `b` (leading dimension `n`) in one forward and one backward
/// sweep over U: each factor column is read once and applied to every
/// right-hand side while it is in cache. Every right-hand side sees
/// exactly the arithmetic of a single [`dpbtrs`] — the same [`ddot`] and
/// [`daxpy`] calls on the same operands — so the columns are bitwise the
/// single solves.
pub fn dpbtrs_multi(u: &BandedSym, b: &mut [f64], nrhs: usize) -> Result<(), LapackError> {
    let n = u.n();
    if b.len() < n * nrhs {
        return Err(LapackError::Dimension("dpbtrs_multi: rhs array too short"));
    }
    if n == 0 {
        return Ok(());
    }
    let (kd, ldab, ab) = (u.kd(), u.ldab(), u.ab());
    let b = &mut b[..n * nrhs];
    for j in 0..n {
        let (col, ujj, lo) = factor_column(ab, kd, ldab, j);
        for x in b.chunks_exact_mut(n) {
            x[j] = (x[j] - ddot(col, &x[lo..j])) / ujj;
        }
    }
    for j in (0..n).rev() {
        let (col, ujj, lo) = factor_column(ab, kd, ldab, j);
        for x in b.chunks_exact_mut(n) {
            let xj = x[j] / ujj;
            x[j] = xj;
            daxpy(-xj, col, &mut x[lo..j]);
        }
    }
    Ok(())
}

/// Dense Cholesky factorization A = UᵀU (upper triangle of the n × n
/// column-major `a` is read and overwritten with U; strict lower triangle
/// is not referenced). (LAPACK `dpotrf`, uplo='U'.)
pub fn dpotrf(n: usize, a: &mut [f64], lda: usize) -> Result<(), LapackError> {
    if lda < n.max(1) || (n > 0 && a.len() < lda * (n - 1) + n) {
        return Err(LapackError::Dimension("dpotrf: bad lda or short a"));
    }
    for j in 0..n {
        let mut d = a[j + j * lda];
        for i in 0..j {
            let u = a[i + j * lda];
            d -= u * u;
        }
        if d <= 0.0 {
            return Err(LapackError::Singular(j + 1));
        }
        let ujj = d.sqrt();
        a[j + j * lda] = ujj;
        for k in (j + 1)..n {
            let mut s = a[j + k * lda];
            for i in 0..j {
                s -= a[i + j * lda] * a[i + k * lda];
            }
            a[j + k * lda] = s / ujj;
        }
    }
    Ok(())
}

/// Solves A x = b from a [`dpotrf`] factorization (A = UᵀU dense upper).
pub fn dpotrs(n: usize, u: &[f64], lda: usize, b: &mut [f64]) -> Result<(), LapackError> {
    if b.len() < n {
        return Err(LapackError::Dimension("dpotrs: rhs shorter than n"));
    }
    crate::level2::dtrsv(Uplo::Upper, Trans::Yes, false, n, u, lda, b);
    crate::level2::dtrsv(Uplo::Upper, Trans::No, false, n, u, lda, b);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{BandedSym, ColMajor};

    /// SPD banded test matrix: diagonally dominant with bandwidth kd.
    fn spd_band(n: usize, kd: usize) -> BandedSym {
        let mut b = BandedSym::zeros(n, kd);
        for j in 0..n {
            for i in j.saturating_sub(kd)..=j {
                if i == j {
                    b.set(i, j, 4.0 + 2.0 * kd as f64 + (j % 3) as f64);
                } else {
                    b.set(i, j, -1.0 / (1.0 + (j - i) as f64));
                }
            }
        }
        b
    }

    #[test]
    fn dpbtrf_dpbtrs_solves_banded_spd() {
        for (n, kd) in [(1, 0), (5, 1), (12, 3), (40, 7), (64, 0)] {
            let a = spd_band(n, kd);
            let x_true: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin() + 1.0).collect();
            let mut b = vec![0.0; n];
            a.matvec(&x_true, &mut b);
            let mut f = a.clone();
            dpbtrf(&mut f).unwrap();
            dpbtrs(&f, &mut b).unwrap();
            for i in 0..n {
                assert!((b[i] - x_true[i]).abs() < 1e-9, "n={n} kd={kd} row {i}");
            }
        }
    }

    /// Bandwidths around the 4-wide dot body (0, 1, 3, 4, 7) and the full
    /// matrix (n − 1 and, for the small n, wider: every column in the
    /// `j < kd` edge), against the dense Cholesky solve of the same matrix.
    #[test]
    fn dpbtrs_matches_dense_solve() {
        for n in [1usize, 2, 5, 37, 130] {
            for kd in [0, 1, 3, 4, 7, n - 1] {
                let a = spd_band(n, kd);
                let rhs: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64 - 5.0) / 3.0).collect();
                let mut dense = a.to_dense().as_slice().to_vec();
                let mut want = rhs.clone();
                dpotrf(n, &mut dense, n).unwrap();
                dpotrs(n, &dense, n, &mut want).unwrap();
                let mut f = a;
                dpbtrf(&mut f).unwrap();
                let mut got = rhs;
                dpbtrs(&f, &mut got).unwrap();
                for i in 0..n {
                    assert!(
                        (got[i] - want[i]).abs() < 1e-12 * (1.0 + want[i].abs()),
                        "n={n} kd={kd} row {i}: {} vs {}",
                        got[i],
                        want[i]
                    );
                }
            }
        }
    }

    #[test]
    fn dpbtrf_factor_reconstructs_matrix() {
        let n = 10;
        let kd = 2;
        let a = spd_band(n, kd);
        let mut f = a.clone();
        dpbtrf(&mut f).unwrap();
        // Rebuild UᵀU from the factored band and compare to A.
        let u = ColMajor::from_fn(n, n, |i, j| if i <= j { f.get(i, j) } else { 0.0 });
        let mut utu = vec![0.0; n * n];
        crate::level3::dgemm(
            Trans::Yes,
            Trans::No,
            n,
            n,
            n,
            1.0,
            u.as_slice(),
            n,
            u.as_slice(),
            n,
            0.0,
            &mut utu,
            n,
        );
        let dense = a.to_dense();
        for j in 0..n {
            for i in 0..n {
                assert!((utu[i + j * n] - dense[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn dpbtrf_rejects_indefinite() {
        let mut b = BandedSym::zeros(3, 1);
        b.set(0, 0, 1.0);
        b.set(1, 1, -1.0); // indefinite
        b.set(2, 2, 1.0);
        assert_eq!(dpbtrf(&mut b), Err(LapackError::Singular(2)));
    }

    /// Every column of the one-sweep multi solve is the single solve to
    /// the bit: one to seven right-hand sides, bandwidths from diagonal to
    /// wider than the matrix, and lengths around `ddot`'s 4-wide body.
    #[test]
    fn dpbtrs_multi_matches_single() {
        for n in [1usize, 8, 37] {
            for kd in [0, 3, n - 1, n + 2] {
                let mut f = spd_band(n, kd);
                dpbtrf(&mut f).unwrap();
                for nrhs in [1usize, 2, 6, 7] {
                    let rhs: Vec<f64> = (0..n * nrhs)
                        .map(|i| if i % 5 == 3 { 0.0 } else { (i as f64 * 0.21).cos() })
                        .collect();
                    let mut multi = rhs.clone();
                    dpbtrs_multi(&f, &mut multi, nrhs).unwrap();
                    for (r, (got, want)) in
                        multi.chunks_exact(n).zip(rhs.chunks_exact(n)).enumerate()
                    {
                        let mut single = want.to_vec();
                        dpbtrs(&f, &mut single).unwrap();
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(got), bits(&single), "n={n} kd={kd} nrhs={nrhs} rhs {r}");
                    }
                }
            }
        }
        let f = spd_band(4, 1);
        assert!(dpbtrs_multi(&f, &mut [0.0; 7], 2).is_err(), "short rhs array");
    }

    #[test]
    fn dpotrf_dpotrs_dense_spd() {
        let n = 9;
        // A = Mᵀ M + n I is SPD.
        let m = ColMajor::from_fn(n, n, |i, j| ((i * n + j) as f64 * 0.113).sin());
        let mut a = vec![0.0; n * n];
        crate::level3::dgemm(
            Trans::Yes,
            Trans::No,
            n,
            n,
            n,
            1.0,
            m.as_slice(),
            n,
            m.as_slice(),
            n,
            0.0,
            &mut a,
            n,
        );
        for i in 0..n {
            a[i + i * n] += n as f64;
        }
        let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 4.0).collect();
        let afull = ColMajor::from_fn(n, n, |i, j| a[i + j * n]);
        let mut b = afull.matvec(&x_true);
        dpotrf(n, &mut a, n).unwrap();
        dpotrs(n, &a, n, &mut b).unwrap();
        for i in 0..n {
            assert!((b[i] - x_true[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn dpotrf_rejects_non_spd() {
        let mut a = vec![1.0, 2.0, 2.0, 1.0]; // eigenvalues 3, -1
        assert!(matches!(dpotrf(2, &mut a, 2), Err(LapackError::Singular(2))));
    }

}
