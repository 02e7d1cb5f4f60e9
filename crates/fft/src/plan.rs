//! FFT plans: precomputed twiddles + bit-reversal for radix-2 sizes,
//! Bluestein chirp-z fallback for everything else.
//!
//! There is one transform body. It runs `L` independent signals as the
//! lanes of split re/im blocks: entry `j` of a signal is `re[j][lane]`,
//! `im[j][lane]`. Every lane performs the scalar transform's IEEE
//! operations in the scalar order, so the lane count (and the vector width
//! it compiles to) changes no bit. [`FftPlan::forward`] and
//! [`FftPlan::inverse`] are its `L = 1` instance.

use crate::complex::{neg, Complex64, Lanes};

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

/// An iterative radix-2 transform of a power-of-two length.
#[derive(Debug, Clone)]
struct Radix2 {
    /// Bit-reversal permutation.
    rev: Vec<u32>,
    /// Twiddles w^j for each stage, concatenated (stage of half-size m
    /// contributes m factors e^{-πi j/m}).
    twiddles: Vec<Complex64>,
}

#[derive(Debug, Clone)]
enum PlanKind {
    Radix2(Radix2),
    /// Bluestein chirp-z: x_k → chirp · conv(chirp·x, inverse-chirp) via a
    /// padded radix-2 FFT of length m ≥ 2n−1.
    Bluestein {
        inner: Radix2,
        m: usize,
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
        let kind = if n.is_power_of_two() {
            PlanKind::Radix2(Radix2::new(n))
        } else {
            bluestein_plan(n)
        };
        FftPlan { n, kind }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false: a plan has length ≥ 1 (the companion of [`Self::len`]).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Lane blocks of scratch, per re/im half, that [`Self::forward_lanes`]
    /// and [`Self::inverse_lanes`] take: the padded length of a Bluestein
    /// plan, 0 for a radix-2 one.
    pub(crate) fn scratch_len(&self) -> usize {
        match &self.kind {
            PlanKind::Radix2(_) => 0,
            PlanKind::Bluestein { m, .. } => *m,
        }
    }

    /// In-place forward DFT.
    ///
    /// Runs the lane body at `L = 1` on a split copy of `data`, which it
    /// allocates: the per-step transforms go through
    /// [`crate::RealFft`]'s lane forms instead.
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn forward(&self, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.n, "FftPlan::forward: wrong length");
        self.on_split_copy(data, |re, im, s| self.forward_lanes(re, im, s));
    }

    /// In-place inverse DFT (normalized by 1/N).
    pub fn inverse(&self, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.n, "FftPlan::inverse: wrong length");
        self.on_split_copy(data, |re, im, s| self.inverse_lanes(re, im, s));
    }

    /// Runs `body` on one-lane split copies of `data` and writes them back.
    fn on_split_copy(
        &self,
        data: &mut [Complex64],
        body: impl FnOnce(&mut [[f64; 1]], &mut [[f64; 1]], &mut [[f64; 1]]),
    ) {
        let mut re: Vec<[f64; 1]> = data.iter().map(|c| [c.re]).collect();
        let mut im: Vec<[f64; 1]> = data.iter().map(|c| [c.im]).collect();
        let mut scratch = vec![[0.0]; 2 * self.scratch_len()];
        body(&mut re, &mut im, &mut scratch);
        for ((c, r), i) in data.iter_mut().zip(&re).zip(&im) {
            *c = Complex64::new(r[0], i[0]);
        }
    }

    /// In-place forward DFT of `L` signals, the lanes of `re` / `im`
    /// (`len()` blocks each). `scratch` holds 2·`scratch_len()` blocks;
    /// what it held is ignored.
    #[inline(always)]
    pub(crate) fn forward_lanes<const L: usize>(
        &self,
        re: &mut [[f64; L]],
        im: &mut [[f64; L]],
        scratch: &mut [[f64; L]],
    ) {
        match &self.kind {
            PlanKind::Radix2(r) => r.forward(re, im),
            PlanKind::Bluestein { inner, m, chirp, kernel_fft } => {
                let (ar, ai) = scratch[..2 * m].split_at_mut(*m);
                bluestein(inner, chirp, kernel_fft, re, im, ar, ai);
            }
        }
    }

    /// In-place inverse DFT (normalized by 1/N) of `L` signals; operands
    /// as [`Self::forward_lanes`].
    #[inline(always)]
    pub(crate) fn inverse_lanes<const L: usize>(
        &self,
        re: &mut [[f64; L]],
        im: &mut [[f64; L]],
        scratch: &mut [[f64; L]],
    ) {
        // inverse(x) = conj(forward(conj(x))) / n.
        conj(im);
        self.forward_lanes(re, im, scratch);
        conj_scale(self.n, re, im);
    }
}

/// Bluestein's forward transform of `re` / `im` (`chirp.len()` blocks)
/// through the padded convolution in `ar` / `ai`.
///
/// The one body, generic over `L` like the rest, but not inlined: its
/// three pointwise products draw LLVM's loop vectorizer, whose runtime
/// alias checks cost ≈ 2 500 instructions per inlined copy, in every
/// kernel of every build. Out of line, a non-power-of-two half length
/// runs in the baseline build; NekTar-F's power-of-two ones never call it.
#[inline(never)]
fn bluestein<const L: usize>(
    inner: &Radix2,
    chirp: &[Complex64],
    kernel_fft: &[Complex64],
    re: &mut [[f64; L]],
    im: &mut [[f64; L]],
    ar: &mut [[f64; L]],
    ai: &mut [[f64; L]],
) {
    for (j, &c) in chirp.iter().enumerate() {
        (Lanes::at(re, im, j) * c).put(ar, ai, j);
    }
    ar[chirp.len()..].fill([0.0; L]);
    ai[chirp.len()..].fill([0.0; L]);
    inner.forward(ar, ai);
    for (j, &k) in kernel_fft.iter().enumerate() {
        (Lanes::at(ar, ai, j) * k).put(ar, ai, j);
    }
    conj(ai);
    inner.forward(ar, ai);
    conj_scale(ar.len(), ar, ai);
    for (j, &c) in chirp.iter().enumerate() {
        (Lanes::at(ar, ai, j) * c).put(re, im, j);
    }
}

/// Conjugates split values: negates their imaginary lanes.
#[inline(always)]
fn conj<const L: usize>(im: &mut [[f64; L]]) {
    for v in im.iter_mut() {
        *v = neg(*v);
    }
}

/// Conjugates split values, then scales them by 1/n: an inverse
/// transform's last step.
#[inline(always)]
fn conj_scale<const L: usize>(n: usize, re: &mut [[f64; L]], im: &mut [[f64; L]]) {
    let s = 1.0 / n as f64;
    for j in 0..re.len() {
        Lanes::at(re, im, j).conj().scale(s).put(re, im, j);
    }
}

impl Radix2 {
    fn new(n: usize) -> Self {
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
        Radix2 { rev, twiddles }
    }

    /// The one butterfly loop: bit-reversal, then the stages in place.
    #[inline(always)]
    fn forward<const L: usize>(&self, re: &mut [[f64; L]], im: &mut [[f64; L]]) {
        let n = re.len();
        if n == 1 {
            return;
        }
        for (i, &j) in self.rev.iter().enumerate() {
            let j = j as usize;
            if i < j {
                re.swap(i, j);
                im.swap(i, j);
            }
        }
        let mut m = 1;
        let mut toff = 0;
        while m < n {
            let stage = &self.twiddles[toff..toff + m];
            for base in (0..n).step_by(2 * m) {
                for (j, &w) in stage.iter().enumerate() {
                    let (u, v) = (base + j, base + j + m);
                    let t = Lanes::at(re, im, v) * w;
                    let a = Lanes::at(re, im, u);
                    (a + t).put(re, im, u);
                    (a - t).put(re, im, v);
                }
            }
            toff += m;
            m <<= 1;
        }
    }
}

fn bluestein_plan(n: usize) -> PlanKind {
    let m = (2 * n - 1).next_power_of_two();
    let inner = Radix2::new(m);
    // chirp_j = e^{-πi j^2 / n}; index j^2 mod 2n to avoid overflow.
    let chirp: Vec<Complex64> = (0..n)
        .map(|j| {
            let idx = (j * j) % (2 * n);
            Complex64::cis(-core::f64::consts::PI * idx as f64 / n as f64)
        })
        .collect();
    // Kernel b_j = conj(chirp_|j|) arranged circularly on length m.
    let (mut re, mut im) = (vec![[0.0]; m], vec![[0.0]; m]);
    let mut put = |j: usize, c: Complex64| (re[j], im[j]) = ([c.re], [c.im]);
    put(0, chirp[0].conj());
    for j in 1..n {
        put(j, chirp[j].conj());
        put(m - j, chirp[j].conj());
    }
    inner.forward(&mut re, &mut im);
    let kernel_fft = re.iter().zip(&im).map(|(r, i)| Complex64::new(r[0], i[0])).collect();
    PlanKind::Bluestein { inner, m, chirp, kernel_fft }
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
