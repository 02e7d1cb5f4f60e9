//! Property-based tests for nkt-blas: algebraic identities that must hold
//! for all inputs (up to floating-point tolerance).

use nkt_blas::level2::Trans;
use nkt_blas::*;
use nkt_testkit::{prop_assert, prop_check, vec_in, Strategy};

fn vec_strategy(n: usize) -> impl Strategy<Value = Vec<f64>> {
    vec_in(-100.0f64..100.0, n)
}

fn tol(scale: f64) -> f64 {
    1e-9 * (1.0 + scale.abs())
}

prop_check! {
    fn ddot_commutes(n in 1usize..200, seed in 0u64..1000) {
        let x: Vec<f64> = (0..n).map(|i| ((i as u64 + seed) as f64 * 0.713).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i as u64 * 3 + seed) as f64 * 0.137).cos()).collect();
        let a = ddot(&x, &y);
        let b = ddot(&y, &x);
        prop_assert!((a - b).abs() <= tol(a));
    }

    fn daxpy_linearity(x in vec_strategy(64), alpha in -10.0f64..10.0, beta in -10.0f64..10.0) {
        // (alpha + beta) x applied once == alpha x then beta x applied twice.
        let mut y1 = vec![0.0; 64];
        daxpy(alpha + beta, &x, &mut y1);
        let mut y2 = vec![0.0; 64];
        daxpy(alpha, &x, &mut y2);
        daxpy(beta, &x, &mut y2);
        for i in 0..64 {
            prop_assert!((y1[i] - y2[i]).abs() <= tol(x[i] * (alpha.abs() + beta.abs())));
        }
    }

    fn dnrm2_scaling(x in vec_strategy(50), c in -20.0f64..20.0) {
        let n0 = dnrm2(&x);
        let scaled: Vec<f64> = x.iter().map(|v| c * v).collect();
        let n1 = dnrm2(&scaled);
        prop_assert!((n1 - c.abs() * n0).abs() <= tol(n1) * 10.0);
    }

    fn dnrm2_triangle_inequality(x in vec_strategy(40), y in vec_strategy(40)) {
        let sum: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        prop_assert!(dnrm2(&sum) <= dnrm2(&x) + dnrm2(&y) + 1e-9);
    }

    fn cauchy_schwarz(x in vec_strategy(40), y in vec_strategy(40)) {
        let d = ddot(&x, &y).abs();
        prop_assert!(d <= dnrm2(&x) * dnrm2(&y) * (1.0 + 1e-12) + 1e-9);
    }

    fn dgemv_matches_manual(m in 1usize..20, n in 1usize..20, seed in 0u64..100) {
        let a: Vec<f64> = (0..m * n).map(|i| ((i as u64 + seed) as f64 * 0.311).sin()).collect();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0).recip()).collect();
        let mut y = vec![0.0; m];
        dgemv(Trans::No, m, n, 1.0, &a, m, &x, 0.0, &mut y);
        for i in 0..m {
            let mut s = 0.0;
            for j in 0..n {
                s += a[i + j * m] * x[j];
            }
            prop_assert!((y[i] - s).abs() <= tol(s));
        }
    }

    fn dgemm_transpose_identity(m in 1usize..12, n in 1usize..12, k in 1usize..12, seed in 0u64..100) {
        // (A B)^T == B^T A^T: compute both and compare.
        let a: Vec<f64> = (0..m * k).map(|i| ((i as u64 * 7 + seed) as f64 * 0.19).sin()).collect();
        let b: Vec<f64> = (0..k * n).map(|i| ((i as u64 * 3 + seed) as f64 * 0.41).cos()).collect();
        let mut ab = vec![0.0; m * n];
        dgemm(Trans::No, Trans::No, m, n, k, 1.0, &a, m, &b, k, 0.0, &mut ab, m);
        // C2 = B^T A^T computed via transposed inputs, result n x m.
        let mut c2 = vec![0.0; n * m];
        dgemm(Trans::Yes, Trans::Yes, n, m, k, 1.0, &b, k, &a, m, 0.0, &mut c2, n);
        for i in 0..m {
            for j in 0..n {
                prop_assert!((ab[i + j * m] - c2[j + i * n]).abs() <= 1e-9);
            }
        }
    }

    fn banded_cholesky_solve_recovers(n in 1usize..40, kd in 0usize..6, seed in 0u64..50) {
        let kd = kd.min(n.saturating_sub(1));
        let mut m = BandedSym::zeros(n, kd);
        for j in 0..n {
            for i in j.saturating_sub(kd)..=j {
                if i == j {
                    m.set(i, j, 3.0 + 2.0 * kd as f64);
                } else {
                    m.set(i, j, ((i + 2 * j + seed as usize) as f64 * 0.3).sin() * 0.4);
                }
            }
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).sin()).collect();
        let mut b = vec![0.0; n];
        m.matvec(&x_true, &mut b);
        let mut f = m.clone();
        dpbtrf(&mut f).unwrap();
        dpbtrs(&f, &mut b).unwrap();
        for i in 0..n {
            prop_assert!((b[i] - x_true[i]).abs() < 1e-7, "row {i}: {} vs {}", b[i], x_true[i]);
        }
    }
}
