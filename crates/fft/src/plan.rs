//! FFT plans: precomputed twiddles + bit-reversal for radix-2 sizes,
//! Bluestein chirp-z fallback for everything else.

use crate::complex::Complex64;

/// A reusable FFT plan for a fixed length.
///
/// Forward transform convention: X_k = Σ_n x_n e^{−2πi kn/N} (unnormalized).
/// [`FftPlan::inverse`] applies the conjugate transform *and* divides by N,
/// so `inverse(forward(x)) == x`.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    kind: PlanKind,
}

#[derive(Debug, Clone)]
enum PlanKind {
    /// Iterative radix-2 with precomputed per-stage twiddles.
    Radix2 {
        /// Bit-reversal permutation.
        rev: Vec<u32>,
        /// Twiddles w^j for each stage, concatenated (stage of half-size m
        /// contributes m factors e^{-πi j/m}).
        twiddles: Vec<Complex64>,
    },
    /// Bluestein chirp-z: x_k → chirp · conv(chirp·x, inverse-chirp) via a
    /// padded radix-2 FFT of length ≥ 2n−1.
    Bluestein {
        inner: Box<FftPlan>,
        /// chirp_j = e^{−πi j²/n}.
        chirp: Vec<Complex64>,
        /// Forward FFT of the zero-padded conjugate-chirp kernel.
        kernel_fft: Vec<Complex64>,
    },
}

impl FftPlan {
    /// Builds a plan for length `n` (any n ≥ 1).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "FftPlan: length must be >= 1");
        if n.is_power_of_two() {
            Self::new_radix2(n)
        } else {
            Self::new_bluestein(n)
        }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the plan length is 1 (transform is the identity).
    pub fn is_empty(&self) -> bool {
        false
    }

    fn new_radix2(n: usize) -> Self {
        let bits = n.trailing_zeros();
        let mut rev = vec![0u32; n];
        for i in 0..n {
            rev[i] = (i as u32).reverse_bits() >> (32 - bits.max(1));
        }
        if n == 1 {
            rev[0] = 0;
        }
        // Stage with butterfly half-width m uses twiddles e^{-πi j/m}, j<m.
        let mut twiddles = Vec::new();
        let mut m = 1;
        while m < n {
            for j in 0..m {
                twiddles.push(Complex64::cis(-core::f64::consts::PI * j as f64 / m as f64));
            }
            m <<= 1;
        }
        FftPlan { n, kind: PlanKind::Radix2 { rev, twiddles } }
    }

    fn new_bluestein(n: usize) -> Self {
        let m = (2 * n - 1).next_power_of_two();
        let inner = FftPlan::new_radix2(m);
        // chirp_j = e^{-πi j^2 / n}; index j^2 mod 2n to avoid overflow.
        let chirp: Vec<Complex64> = (0..n)
            .map(|j| {
                let idx = (j * j) % (2 * n);
                Complex64::cis(-core::f64::consts::PI * idx as f64 / n as f64)
            })
            .collect();
        // Kernel b_j = conj(chirp_|j|) arranged circularly on length m.
        let mut kernel = vec![Complex64::ZERO; m];
        kernel[0] = chirp[0].conj();
        for j in 1..n {
            let c = chirp[j].conj();
            kernel[j] = c;
            kernel[m - j] = c;
        }
        inner.forward(&mut kernel);
        FftPlan {
            n,
            kind: PlanKind::Bluestein { inner: Box::new(inner), chirp, kernel_fft: kernel },
        }
    }

    /// In-place forward DFT.
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn forward(&self, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.n, "FftPlan::forward: wrong length");
        match &self.kind {
            PlanKind::Radix2 { rev, twiddles } => radix2_inplace(data, rev, twiddles),
            PlanKind::Bluestein { inner, chirp, kernel_fft } => {
                let n = self.n;
                let m = inner.len();
                let mut a = vec![Complex64::ZERO; m];
                for j in 0..n {
                    a[j] = data[j] * chirp[j];
                }
                inner.forward(&mut a);
                for (av, kv) in a.iter_mut().zip(kernel_fft) {
                    *av *= *kv;
                }
                inner.inverse(&mut a);
                for k in 0..n {
                    data[k] = a[k] * chirp[k];
                }
            }
        }
    }

    /// In-place inverse DFT (normalized by 1/N).
    pub fn inverse(&self, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.n, "FftPlan::inverse: wrong length");
        // inverse(x) = conj(forward(conj(x))) / N.
        for v in data.iter_mut() {
            *v = v.conj();
        }
        self.forward(data);
        let s = 1.0 / self.n as f64;
        for v in data.iter_mut() {
            *v = v.conj().scale(s);
        }
    }

    /// Forward transform of `batch` contiguous signals of length `n` stored
    /// back-to-back in `data` (the NekTar-F "Nxy 1D FFTs" pattern).
    pub fn forward_batch(&self, data: &mut [Complex64]) {
        assert!(data.len().is_multiple_of(self.n), "forward_batch: length not a multiple of n");
        for chunk in data.chunks_exact_mut(self.n) {
            self.forward(chunk);
        }
    }

    /// Inverse transform of back-to-back signals.
    pub fn inverse_batch(&self, data: &mut [Complex64]) {
        assert!(data.len().is_multiple_of(self.n), "inverse_batch: length not a multiple of n");
        for chunk in data.chunks_exact_mut(self.n) {
            self.inverse(chunk);
        }
    }
}

fn radix2_inplace(data: &mut [Complex64], rev: &[u32], twiddles: &[Complex64]) {
    let n = data.len();
    if n == 1 {
        return;
    }
    for i in 0..n {
        let j = rev[i] as usize;
        if i < j {
            data.swap(i, j);
        }
    }
    let mut m = 1;
    let mut toff = 0;
    while m < n {
        let stage = &twiddles[toff..toff + m];
        for block in data.chunks_exact_mut(2 * m) {
            let (lo, hi) = block.split_at_mut(m);
            for ((u, v), &w) in lo.iter_mut().zip(hi).zip(stage) {
                let t = *v * w;
                let a = *u;
                *u = a + t;
                *v = a - t;
            }
        }
        toff += m;
        m <<= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(x: &[Complex64]) -> Vec<Complex64> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut s = Complex64::ZERO;
                for (j, &xj) in x.iter().enumerate() {
                    s += xj * Complex64::cis(-2.0 * core::f64::consts::PI * (k * j) as f64 / n as f64);
                }
                s
            })
            .collect()
    }

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.9).sin(), (i as f64 * 0.31).cos()))
            .collect()
    }

    #[test]
    fn matches_naive_dft_power_of_two() {
        for n in [1usize, 2, 4, 8, 16, 64] {
            let x = signal(n);
            let expect = naive_dft(&x);
            let mut got = x.clone();
            FftPlan::new(n).forward(&mut got);
            for i in 0..n {
                assert!(
                    (got[i].re - expect[i].re).abs() < 1e-9
                        && (got[i].im - expect[i].im).abs() < 1e-9,
                    "n={n} bin {i}"
                );
            }
        }
    }

    #[test]
    fn matches_naive_dft_arbitrary_sizes() {
        for n in [3usize, 5, 6, 7, 12, 15, 31, 100] {
            let x = signal(n);
            let expect = naive_dft(&x);
            let mut got = x.clone();
            FftPlan::new(n).forward(&mut got);
            for i in 0..n {
                assert!(
                    (got[i].re - expect[i].re).abs() < 1e-8
                        && (got[i].im - expect[i].im).abs() < 1e-8,
                    "n={n} bin {i}: {:?} vs {:?}",
                    got[i],
                    expect[i]
                );
            }
        }
    }

    #[test]
    fn roundtrip_many_sizes() {
        for n in [1usize, 2, 3, 7, 8, 16, 24, 31, 128] {
            let x = signal(n);
            let mut y = x.clone();
            let plan = FftPlan::new(n);
            plan.forward(&mut y);
            plan.inverse(&mut y);
            for i in 0..n {
                assert!(
                    (y[i].re - x[i].re).abs() < 1e-10 && (y[i].im - x[i].im).abs() < 1e-10,
                    "n={n} elem {i}"
                );
            }
        }
    }

    #[test]
    fn delta_transforms_to_constant() {
        let n = 16;
        let mut x = vec![Complex64::ZERO; n];
        x[0] = Complex64::ONE;
        FftPlan::new(n).forward(&mut x);
        for v in &x {
            assert!((v.re - 1.0).abs() < 1e-12 && v.im.abs() < 1e-12);
        }
    }

    #[test]
    fn constant_transforms_to_delta() {
        let n = 8;
        let mut x = vec![Complex64::ONE; n];
        FftPlan::new(n).forward(&mut x);
        assert!((x[0].re - n as f64).abs() < 1e-12);
        for v in &x[1..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn parseval_holds() {
        let n = 32;
        let x = signal(n);
        let mut y = x.clone();
        FftPlan::new(n).forward(&mut y);
        let ex: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        assert!((ex - ey).abs() < 1e-9 * ex);
    }

    #[test]
    fn single_frequency_lands_in_right_bin() {
        let n = 64;
        let k0 = 5;
        let mut x: Vec<Complex64> = (0..n)
            .map(|j| Complex64::cis(2.0 * core::f64::consts::PI * (k0 * j) as f64 / n as f64))
            .collect();
        FftPlan::new(n).forward(&mut x);
        for (k, v) in x.iter().enumerate() {
            if k == k0 {
                assert!((v.re - n as f64).abs() < 1e-9);
            } else {
                assert!(v.abs() < 1e-9, "leakage at bin {k}");
            }
        }
    }

    #[test]
    fn batch_matches_individual() {
        let n = 16;
        let batch = 5;
        let plan = FftPlan::new(n);
        let mut all: Vec<Complex64> = signal(n * batch);
        let mut parts: Vec<Vec<Complex64>> =
            all.chunks(n).map(|c| c.to_vec()).collect();
        plan.forward_batch(&mut all);
        for (b, part) in parts.iter_mut().enumerate() {
            plan.forward(part);
            for i in 0..n {
                let g = all[b * n + i];
                assert!((g.re - part[i].re).abs() < 1e-12 && (g.im - part[i].im).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn linearity() {
        let n = 24;
        let plan = FftPlan::new(n);
        let x = signal(n);
        let y: Vec<Complex64> = signal(n).iter().map(|v| v.conj()).collect();
        let mut fx = x.clone();
        let mut fy = y.clone();
        plan.forward(&mut fx);
        plan.forward(&mut fy);
        let mut sum: Vec<Complex64> = x.iter().zip(&y).map(|(a, b)| *a + *b).collect();
        plan.forward(&mut sum);
        for i in 0..n {
            let e = fx[i] + fy[i];
            assert!((sum[i].re - e.re).abs() < 1e-9 && (sum[i].im - e.im).abs() < 1e-9);
        }
    }
}
