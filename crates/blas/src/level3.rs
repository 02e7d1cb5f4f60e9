//! BLAS Level 3: matrix-matrix operations (paper Figures 5–6 time `dgemm`).
//!
//! `dgemm` has two code paths, mirroring the paper's observation that
//! "most of the calls to dgemm() in the NekTar codes are for small n
//! (10 or less)":
//! * [`dgemm_small`] — a register-friendly direct triple loop with no
//!   packing overhead, used automatically below a size threshold;
//! * a cache-blocked kernel with B-panel packing for larger sizes.

use crate::level2::Trans;

/// Block sizes for the packed kernel, sized so an A-block plus a B-panel
/// fit comfortably in a typical 256 KB L2 (the paper's PII has 512 KB).
const MC: usize = 64;
const KC: usize = 128;
const NC: usize = 256;

/// Below this `m·n·k` product the direct small kernel wins (no packing).
const SMALL_THRESHOLD: usize = 32 * 32 * 32;

/// General matrix-matrix product:
/// C ← α·op(A)·op(B) + β·C, with C m × n, op(A) m × k, op(B) k × n,
/// all column-major with explicit leading dimensions.
///
/// # Panics
/// Panics if any slice is too short for its described shape.
#[allow(clippy::too_many_arguments)]
pub fn dgemm(
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    check_dims(transa, transb, m, n, k, a, lda, b, ldb, c, ldc);
    if m == 0 || n == 0 {
        return;
    }
    scale_c(beta, m, n, c, ldc);
    if k == 0 || alpha == 0.0 {
        return;
    }
    if m * n * k <= SMALL_THRESHOLD {
        dgemm_small_kernel(transa, transb, m, n, k, alpha, a, lda, b, ldb, c, ldc);
    } else {
        dgemm_blocked(transa, transb, m, n, k, alpha, a, lda, b, ldb, c, ldc);
    }
}

/// Direct (unblocked) `dgemm` for small matrices — the paper's dominant
/// case (`n ≤ 10` dgemm calls inside NekTar's elemental operations).
/// Always takes the no-packing path regardless of size.
#[allow(clippy::too_many_arguments)]
pub fn dgemm_small(
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    check_dims(transa, transb, m, n, k, a, lda, b, ldb, c, ldc);
    if m == 0 || n == 0 {
        return;
    }
    scale_c(beta, m, n, c, ldc);
    if k == 0 || alpha == 0.0 {
        return;
    }
    dgemm_small_kernel(transa, transb, m, n, k, alpha, a, lda, b, ldb, c, ldc);
}

fn check_dims(
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    let (ar, ac) = match transa {
        Trans::No => (m, k),
        Trans::Yes => (k, m),
    };
    let (br, bc) = match transb {
        Trans::No => (k, n),
        Trans::Yes => (n, k),
    };
    assert!(lda >= ar.max(1), "dgemm: lda too small");
    assert!(ldb >= br.max(1), "dgemm: ldb too small");
    assert!(ldc >= m.max(1), "dgemm: ldc too small");
    if ar > 0 && ac > 0 {
        assert!(a.len() >= lda * (ac - 1) + ar, "dgemm: a too short");
    }
    if br > 0 && bc > 0 {
        assert!(b.len() >= ldb * (bc - 1) + br, "dgemm: b too short");
    }
    if m > 0 && n > 0 {
        assert!(c.len() >= ldc * (n - 1) + m, "dgemm: c too short");
    }
}

#[inline]
fn scale_c(beta: f64, m: usize, n: usize, c: &mut [f64], ldc: usize) {
    if beta == 1.0 {
        return;
    }
    for j in 0..n {
        let col = &mut c[j * ldc..j * ldc + m];
        if beta == 0.0 {
            col.fill(0.0);
        } else {
            for v in col {
                *v *= beta;
            }
        }
    }
}

#[inline]
fn a_elem(transa: Trans, a: &[f64], lda: usize, i: usize, l: usize) -> f64 {
    match transa {
        Trans::No => a[i + l * lda],
        Trans::Yes => a[l + i * lda],
    }
}

#[inline]
fn b_elem(transb: Trans, b: &[f64], ldb: usize, l: usize, j: usize) -> f64 {
    match transb {
        Trans::No => b[l + j * ldb],
        Trans::Yes => b[j + l * ldb],
    }
}

#[allow(clippy::too_many_arguments)]
fn dgemm_small_kernel(
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    match (transa, transb) {
        (Trans::No, Trans::No) => {
            // jli loop order: unit-stride through columns of A and C.
            for j in 0..n {
                for l in 0..k {
                    let t = alpha * b[l + j * ldb];
                    if t != 0.0 {
                        let acol = &a[l * lda..l * lda + m];
                        let ccol = &mut c[j * ldc..j * ldc + m];
                        for (ci, &ail) in ccol.iter_mut().zip(acol) {
                            *ci += t * ail;
                        }
                    }
                }
            }
        }
        (Trans::Yes, Trans::No) => {
            // C(i,j) += alpha * dot(A(:,i), B(:,j)): both unit stride.
            for j in 0..n {
                for i in 0..m {
                    let dot = crate::level1::ddot(&a[i * lda..i * lda + k], &b[j * ldb..j * ldb + k]);
                    c[i + j * ldc] += alpha * dot;
                }
            }
        }
        _ => {
            for j in 0..n {
                for i in 0..m {
                    let mut s = 0.0;
                    for l in 0..k {
                        s += a_elem(transa, a, lda, i, l) * b_elem(transb, b, ldb, l, j);
                    }
                    c[i + j * ldc] += alpha * s;
                }
            }
        }
    }
}

/// Cache-blocked dgemm: packs op(B) panels and op(A) blocks into contiguous
/// scratch so the micro-kernel streams at unit stride regardless of
/// transposition.
#[allow(clippy::too_many_arguments)]
fn dgemm_blocked(
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    let mut apack = vec![0.0f64; MC * KC];
    let mut bpack = vec![0.0f64; KC * NC];

    let mut jc = 0;
    while jc < n {
        let nb = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kb = KC.min(k - pc);
            // Pack op(B)[pc..pc+kb, jc..jc+nb] column-major kb × nb.
            for jj in 0..nb {
                for ll in 0..kb {
                    bpack[ll + jj * kb] = b_elem(transb, b, ldb, pc + ll, jc + jj);
                }
            }
            let mut ic = 0;
            while ic < m {
                let mb = MC.min(m - ic);
                // Pack op(A)[ic..ic+mb, pc..pc+kb] column-major mb × kb.
                match transa {
                    Trans::No => {
                        for ll in 0..kb {
                            let src = &a[(ic) + (pc + ll) * lda..][..mb];
                            apack[ll * mb..ll * mb + mb].copy_from_slice(src);
                        }
                    }
                    Trans::Yes => {
                        for ll in 0..kb {
                            for ii in 0..mb {
                                apack[ii + ll * mb] = a[(pc + ll) + (ic + ii) * lda];
                            }
                        }
                    }
                }
                // Micro: C[ic.., jc..] += alpha * apack * bpack.
                for jj in 0..nb {
                    let ccol = &mut c[(jc + jj) * ldc + ic..(jc + jj) * ldc + ic + mb];
                    for ll in 0..kb {
                        let t = alpha * bpack[ll + jj * kb];
                        if t != 0.0 {
                            let acol = &apack[ll * mb..ll * mb + mb];
                            for (cv, &av) in ccol.iter_mut().zip(acol) {
                                *cv += t * av;
                            }
                        }
                    }
                }
                ic += mb;
            }
            pc += kb;
        }
        jc += nb;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::ColMajor;

    fn naive_gemm(
        transa: Trans,
        transb: Trans,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: &[f64],
        lda: usize,
        b: &[f64],
        ldb: usize,
        beta: f64,
        c0: &[f64],
        ldc: usize,
    ) -> Vec<f64> {
        let mut c = c0.to_vec();
        for j in 0..n {
            for i in 0..m {
                let mut s = 0.0;
                for l in 0..k {
                    s += a_elem(transa, a, lda, i, l) * b_elem(transb, b, ldb, l, j);
                }
                c[i + j * ldc] = beta * c0[i + j * ldc] + alpha * s;
            }
        }
        c
    }

    fn fill(n: usize, seed: f64) -> Vec<f64> {
        (0..n).map(|i| ((i as f64 + seed) * 0.731).sin()).collect()
    }

    #[test]
    fn dgemm_all_transpose_combos_match_naive() {
        let (m, n, k) = (5, 7, 4);
        for &transa in &[Trans::No, Trans::Yes] {
            for &transb in &[Trans::No, Trans::Yes] {
                let (ar, ac) = match transa {
                    Trans::No => (m, k),
                    Trans::Yes => (k, m),
                };
                let (br, bc) = match transb {
                    Trans::No => (k, n),
                    Trans::Yes => (n, k),
                };
                let a = fill(ar * ac, 1.0);
                let b = fill(br * bc, 2.0);
                let c0 = fill(m * n, 3.0);
                let expect = naive_gemm(transa, transb, m, n, k, 1.3, &a, ar, &b, br, 0.7, &c0, m);
                let mut c = c0.clone();
                dgemm(transa, transb, m, n, k, 1.3, &a, ar, &b, br, 0.7, &mut c, m);
                for i in 0..m * n {
                    assert!(
                        (c[i] - expect[i]).abs() < 1e-11,
                        "{transa:?}/{transb:?} elem {i}: {} vs {}",
                        c[i],
                        expect[i]
                    );
                }
            }
        }
    }

    #[test]
    fn dgemm_blocked_path_matches_naive() {
        // Big enough to exceed SMALL_THRESHOLD and span multiple blocks.
        let (m, n, k) = (97, 283, 141);
        let a = fill(m * k, 1.0);
        let b = fill(k * n, 2.0);
        let c0 = fill(m * n, 3.0);
        let expect = naive_gemm(Trans::No, Trans::No, m, n, k, 2.0, &a, m, &b, k, -1.0, &c0, m);
        let mut c = c0.clone();
        dgemm(Trans::No, Trans::No, m, n, k, 2.0, &a, m, &b, k, -1.0, &mut c, m);
        let mut maxerr = 0.0f64;
        for i in 0..m * n {
            maxerr = maxerr.max((c[i] - expect[i]).abs());
        }
        assert!(maxerr < 1e-9, "maxerr {maxerr}");
    }

    #[test]
    fn dgemm_blocked_transposed_path_matches_naive() {
        let (m, n, k) = (70, 60, 90);
        let a = fill(k * m, 4.0); // A is k x m because transa = Yes
        let b = fill(n * k, 5.0); // B is n x k because transb = Yes
        let c0 = vec![0.0; m * n];
        let expect = naive_gemm(Trans::Yes, Trans::Yes, m, n, k, 1.0, &a, k, &b, n, 0.0, &c0, m);
        let mut c = c0.clone();
        dgemm(Trans::Yes, Trans::Yes, m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, m);
        for i in 0..m * n {
            assert!((c[i] - expect[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn dgemm_small_matches_dgemm() {
        for sz in 2..=12 {
            let a = fill(sz * sz, 0.5);
            let b = fill(sz * sz, 1.5);
            let mut c1 = vec![0.0; sz * sz];
            let mut c2 = vec![0.0; sz * sz];
            dgemm(Trans::No, Trans::No, sz, sz, sz, 1.0, &a, sz, &b, sz, 0.0, &mut c1, sz);
            dgemm_small(Trans::No, Trans::No, sz, sz, sz, 1.0, &a, sz, &b, sz, 0.0, &mut c2, sz);
            assert_eq!(c1, c2, "n={sz}");
        }
    }

    #[test]
    fn dgemm_identity_is_noop() {
        let n = 8;
        let eye = ColMajor::identity(n);
        let b = fill(n * n, 9.0);
        let mut c = vec![0.0; n * n];
        dgemm(Trans::No, Trans::No, n, n, n, 1.0, eye.as_slice(), n, &b, n, 0.0, &mut c, n);
        for i in 0..n * n {
            assert!((c[i] - b[i]).abs() < 1e-15);
        }
    }

    #[test]
    fn dgemm_beta_zero_overwrites_nan() {
        let mut c = vec![f64::NAN; 4];
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![3.0, 4.0, 5.0, 6.0];
        dgemm(Trans::No, Trans::No, 2, 2, 2, 1.0, &a, 2, &b, 2, 0.0, &mut c, 2);
        assert_eq!(c, b);
    }

    #[test]
    fn dgemm_zero_k_scales_only() {
        let mut c = vec![2.0; 4];
        // lda must still satisfy lda >= m even when k = 0 (BLAS convention).
        dgemm(Trans::No, Trans::No, 2, 2, 0, 1.0, &[], 2, &[], 1, 0.5, &mut c, 2);
        assert_eq!(c, vec![1.0; 4]);
    }

}
