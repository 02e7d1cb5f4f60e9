//! BLAS Level 1: vector-vector operations.
//!
//! These are the kernels the paper sweeps in Figures 1–3 (`dcopy`, `daxpy`,
//! `ddot`). All routines take plain slices; lengths are taken from the
//! shorter operand where reference BLAS would take an explicit `n`, and
//! there are no `incx`/`incy` arguments: every caller is unit-stride, so
//! the loops stay bounds-check free and autovectorizable.

/// y ← x (vector copy). Paper Figure 1.
///
/// # Panics
/// Panics if `y.len() < x.len()`.
#[inline]
pub fn dcopy(x: &[f64], y: &mut [f64]) {
    y[..x.len()].copy_from_slice(x);
}

/// y ← αx + y. Paper Figure 2.
///
/// # Panics
/// Panics if `y.len() < x.len()`.
#[inline]
pub fn daxpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    // `zip` elides bounds checks; the loop autovectorizes.
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * *xi;
    }
}

/// Returns xᵀy. Paper Figure 3.
///
/// Accumulates in four independent partial sums so the floating-point
/// dependency chain does not serialize the loop (same trick vendor BLAS
/// uses; changes rounding relative to a naive loop by O(n·eps)).
#[inline]
pub fn ddot(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len().min(y.len());
    let (x, y) = (&x[..n], &y[..n]);
    let mut s = [0.0f64; 4];
    let chunks = n / 4;
    for i in 0..chunks {
        let b = 4 * i;
        s[0] += x[b] * y[b];
        s[1] += x[b + 1] * y[b + 1];
        s[2] += x[b + 2] * y[b + 2];
        s[3] += x[b + 3] * y[b + 3];
    }
    let mut tail = 0.0;
    for i in 4 * chunks..n {
        tail += x[i] * y[i];
    }
    (s[0] + s[1]) + (s[2] + s[3]) + tail
}

/// x ← αx.
#[inline]
pub fn dscal(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Returns ‖x‖₂ with scaling to avoid overflow/underflow (LAPACK `dnrm2`
/// style two-pass: find max magnitude, then scaled sum of squares).
pub fn dnrm2(x: &[f64]) -> f64 {
    let amax = x.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    if amax == 0.0 || !amax.is_finite() {
        return amax;
    }
    let mut ssq = 0.0;
    for &v in x {
        let t = v / amax;
        ssq += t * t;
    }
    amax * ssq.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64 + 1.0).collect()
    }

    #[test]
    fn dcopy_copies() {
        let x = seq(17);
        let mut y = vec![0.0; 17];
        dcopy(&x, &mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn dcopy_allows_longer_destination() {
        let x = seq(3);
        let mut y = vec![9.0; 5];
        dcopy(&x, &mut y);
        assert_eq!(y, vec![1.0, 2.0, 3.0, 9.0, 9.0]);
    }

    #[test]
    fn daxpy_basic() {
        let x = seq(5);
        let mut y = vec![1.0; 5];
        daxpy(2.0, &x, &mut y);
        assert_eq!(y, vec![3.0, 5.0, 7.0, 9.0, 11.0]);
    }

    #[test]
    fn daxpy_alpha_zero_is_identity() {
        let x = seq(9);
        let mut y = seq(9);
        let y0 = y.clone();
        daxpy(0.0, &x, &mut y);
        assert_eq!(y, y0);
    }

    #[test]
    fn ddot_matches_naive() {
        for n in [0, 1, 3, 4, 7, 64, 129] {
            let x = seq(n);
            let y: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            let got = ddot(&x, &y);
            assert!((got - naive).abs() <= 1e-10 * (1.0 + naive.abs()), "n={n}");
        }
    }

    #[test]
    fn ddot_empty_is_zero() {
        assert_eq!(ddot(&[], &[]), 0.0);
    }

    #[test]
    fn dscal_scales() {
        let mut x = seq(6);
        dscal(-0.5, &mut x);
        assert_eq!(x, vec![-0.5, -1.0, -1.5, -2.0, -2.5, -3.0]);
    }

    #[test]
    fn dnrm2_pythagorean() {
        assert!((dnrm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn dnrm2_no_overflow_for_huge_entries() {
        let big = 1e200;
        let n = dnrm2(&[big, big]);
        assert!((n - big * std::f64::consts::SQRT_2).abs() / n < 1e-15);
    }

    #[test]
    fn dnrm2_zero_vector() {
        assert_eq!(dnrm2(&[0.0; 8]), 0.0);
        assert_eq!(dnrm2(&[]), 0.0);
    }

}
