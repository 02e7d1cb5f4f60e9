//! BLAS Level 2: matrix-vector operations (paper Figure 4 times `dgemv`).
//!
//! Matrices are column-major slices with an explicit leading dimension
//! `lda`, exactly as in reference BLAS, so elemental matrices can be stored
//! once and addressed in sub-blocks.

/// Transposition selector for Level 2/3 routines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use A as stored.
    No,
    /// Use Aᵀ.
    Yes,
}

/// Triangle selector for symmetric/triangular routines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Uplo {
    /// Data is in the upper triangle.
    Upper,
    /// Data is in the lower triangle.
    Lower,
}

/// General matrix-vector product: y ← α·op(A)·x + β·y, with A an m × n
/// column-major matrix with leading dimension `lda`. Paper Figure 4.
///
/// # Panics
/// Panics if the slices are too short for the described shapes.
pub fn dgemv(
    trans: Trans,
    m: usize,
    n: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    x: &[f64],
    beta: f64,
    y: &mut [f64],
) {
    assert!(lda >= m.max(1), "dgemv: lda < m");
    if m > 0 && n > 0 {
        assert!(a.len() >= lda * (n - 1) + m, "dgemv: a too short");
    }
    match trans {
        Trans::No => {
            assert!(x.len() >= n && y.len() >= m, "dgemv: vector too short");
            if beta == 0.0 {
                y[..m].fill(0.0);
            } else if beta != 1.0 {
                crate::level1::dscal(beta, &mut y[..m]);
            }
            // Column-sweep: unit-stride axpy per column (the access pattern
            // vendor BLAS uses for column-major storage).
            for j in 0..n {
                let t = alpha * x[j];
                if t != 0.0 {
                    let col = &a[j * lda..j * lda + m];
                    for (yi, &aij) in y[..m].iter_mut().zip(col) {
                        *yi += t * aij;
                    }
                }
            }
        }
        Trans::Yes => {
            assert!(x.len() >= m && y.len() >= n, "dgemv: vector too short");
            for j in 0..n {
                let col = &a[j * lda..j * lda + m];
                let dot = crate::level1::ddot(col, &x[..m]);
                let prev = if beta == 0.0 { 0.0 } else { beta * y[j] };
                y[j] = prev + alpha * dot;
            }
        }
    }
}

/// Triangular solve op(A)·x = b in place (x enters holding b).
///
/// # Panics
/// Panics on a zero diagonal for non-unit triangles (singular system).
pub fn dtrsv(uplo: Uplo, trans: Trans, unit_diag: bool, n: usize, a: &[f64], lda: usize, x: &mut [f64]) {
    assert!(lda >= n.max(1) && x.len() >= n);
    let diag = |i: usize| -> f64 {
        if unit_diag {
            1.0
        } else {
            let d = a[i + i * lda];
            assert!(d != 0.0, "dtrsv: zero diagonal at {i}");
            d
        }
    };
    match (uplo, trans) {
        (Uplo::Upper, Trans::No) => {
            for i in (0..n).rev() {
                let mut s = x[i];
                for j in (i + 1)..n {
                    s -= a[i + j * lda] * x[j];
                }
                x[i] = s / diag(i);
            }
        }
        (Uplo::Lower, Trans::No) => {
            for i in 0..n {
                let mut s = x[i];
                for j in 0..i {
                    s -= a[i + j * lda] * x[j];
                }
                x[i] = s / diag(i);
            }
        }
        (Uplo::Upper, Trans::Yes) => {
            // Aᵀ is lower triangular: forward substitution over columns of A.
            for i in 0..n {
                let mut s = x[i];
                for j in 0..i {
                    s -= a[j + i * lda] * x[j];
                }
                x[i] = s / diag(i);
            }
        }
        (Uplo::Lower, Trans::Yes) => {
            for i in (0..n).rev() {
                let mut s = x[i];
                for j in (i + 1)..n {
                    s -= a[j + i * lda] * x[j];
                }
                x[i] = s / diag(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::ColMajor;

    fn dense(m: usize, n: usize) -> ColMajor {
        ColMajor::from_fn(m, n, |i, j| ((i + 1) as f64) * 0.3 + (j as f64) * 1.7 - (i as f64 * j as f64) * 0.05)
    }

    fn naive_gemv(trans: Trans, a: &ColMajor, x: &[f64]) -> Vec<f64> {
        match trans {
            Trans::No => (0..a.nrows())
                .map(|i| (0..a.ncols()).map(|j| a[(i, j)] * x[j]).sum())
                .collect(),
            Trans::Yes => (0..a.ncols())
                .map(|j| (0..a.nrows()).map(|i| a[(i, j)] * x[i]).sum())
                .collect(),
        }
    }

    #[test]
    fn dgemv_no_trans_matches_naive() {
        for (m, n) in [(1, 1), (3, 5), (7, 2), (16, 16)] {
            let a = dense(m, n);
            let x: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 1.0).collect();
            let mut y = vec![0.5; m];
            let expect: Vec<f64> = naive_gemv(Trans::No, &a, &x)
                .iter()
                .map(|v| 2.0 * v + 3.0 * 0.5)
                .collect();
            dgemv(Trans::No, m, n, 2.0, a.as_slice(), m, &x, 3.0, &mut y);
            for i in 0..m {
                assert!((y[i] - expect[i]).abs() < 1e-11, "({m},{n}) row {i}");
            }
        }
    }

    #[test]
    fn dgemv_trans_matches_naive() {
        let (m, n) = (6, 4);
        let a = dense(m, n);
        let x: Vec<f64> = (0..m).map(|i| i as f64 - 2.0).collect();
        let mut y = vec![0.0; n];
        dgemv(Trans::Yes, m, n, 1.0, a.as_slice(), m, &x, 0.0, &mut y);
        let expect = naive_gemv(Trans::Yes, &a, &x);
        for j in 0..n {
            assert!((y[j] - expect[j]).abs() < 1e-12);
        }
    }

    #[test]
    fn dgemv_beta_zero_ignores_nan_y() {
        let a = ColMajor::identity(2);
        let mut y = vec![f64::NAN; 2];
        dgemv(Trans::No, 2, 2, 1.0, a.as_slice(), 2, &[1.0, 2.0], 0.0, &mut y);
        assert_eq!(y, vec![1.0, 2.0]);
    }

    #[test]
    fn dgemv_with_submatrix_lda() {
        // A 3x3 viewed as the top-left of a 5-row allocation.
        let lda = 5;
        let mut a = vec![0.0; lda * 3];
        for j in 0..3 {
            for i in 0..3 {
                a[i + j * lda] = (i * 3 + j) as f64;
            }
        }
        let mut y = vec![0.0; 3];
        dgemv(Trans::No, 3, 3, 1.0, &a, lda, &[1.0, 1.0, 1.0], 0.0, &mut y);
        assert_eq!(y, vec![0.0 + 1.0 + 2.0, 3.0 + 4.0 + 5.0, 6.0 + 7.0 + 8.0]);
    }

    /// Triangular matrix-vector product x ← op(A)·x with A unit or non-unit
    /// triangular in the `uplo` triangle: the reference `dtrsv` must invert.
    fn dtrmv(uplo: Uplo, trans: Trans, unit_diag: bool, n: usize, a: &[f64], lda: usize, x: &mut [f64]) {
        assert!(lda >= n.max(1) && x.len() >= n);
        match (uplo, trans) {
            (Uplo::Upper, Trans::No) => {
                for i in 0..n {
                    let mut s = if unit_diag { x[i] } else { a[i + i * lda] * x[i] };
                    for j in (i + 1)..n {
                        s += a[i + j * lda] * x[j];
                    }
                    x[i] = s;
                }
            }
            (Uplo::Lower, Trans::No) => {
                for i in (0..n).rev() {
                    let mut s = if unit_diag { x[i] } else { a[i + i * lda] * x[i] };
                    for j in 0..i {
                        s += a[i + j * lda] * x[j];
                    }
                    x[i] = s;
                }
            }
            (Uplo::Upper, Trans::Yes) => {
                for i in (0..n).rev() {
                    let mut s = if unit_diag { x[i] } else { a[i + i * lda] * x[i] };
                    for j in 0..i {
                        s += a[j + i * lda] * x[j];
                    }
                    x[i] = s;
                }
            }
            (Uplo::Lower, Trans::Yes) => {
                for i in 0..n {
                    let mut s = if unit_diag { x[i] } else { a[i + i * lda] * x[i] };
                    for j in (i + 1)..n {
                        s += a[j + i * lda] * x[j];
                    }
                    x[i] = s;
                }
            }
        }
    }

    #[test]
    fn dtrmv_dtrsv_roundtrip_all_variants() {
        let n = 6;
        let a = ColMajor::from_fn(n, n, |i, j| {
            if i == j {
                2.0 + i as f64
            } else {
                0.1 * ((i * n + j) as f64).sin()
            }
        });
        let x0: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0) * 0.5).collect();
        for uplo in [Uplo::Upper, Uplo::Lower] {
            for trans in [Trans::No, Trans::Yes] {
                for unit in [false, true] {
                    let mut x = x0.clone();
                    dtrmv(uplo, trans, unit, n, a.as_slice(), n, &mut x);
                    dtrsv(uplo, trans, unit, n, a.as_slice(), n, &mut x);
                    for i in 0..n {
                        assert!(
                            (x[i] - x0[i]).abs() < 1e-10,
                            "{uplo:?} {trans:?} unit={unit} row {i}: {} vs {}",
                            x[i],
                            x0[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn dtrsv_singular_panics() {
        let a = vec![0.0; 4];
        let mut x = vec![1.0, 1.0];
        dtrsv(Uplo::Upper, Trans::No, false, 2, &a, 2, &mut x);
    }

}
