//! Real-input FFT via the N/2 complex packing trick.
//!
//! A length-N real signal is packed into an N/2 complex signal, transformed
//! with one half-length complex FFT, then unpacked with the split formulas.
//! This is the classic memory-saving layout the paper alludes to: "the real
//! and imaginary parts of a Fourier mode sharing the same matrices".

use crate::complex::Complex64;
use crate::plan::FftPlan;

/// Plan for forward/inverse real FFTs of even length `n`.
///
/// The half-complex spectrum layout is `n/2 + 1` bins: bin 0 (DC) and bin
/// n/2 (Nyquist) are purely real; bins 1..n/2 are general complex. The
/// remaining bins of the full spectrum are the conjugate mirror and are not
/// stored.
#[derive(Debug, Clone)]
pub struct RealFft {
    n: usize,
    half: FftPlan,
    /// Unpack twiddles e^{-πi k/(n/2)} for k in 0..n/2.
    w: Vec<Complex64>,
}

impl RealFft {
    /// Builds a plan for even length `n ≥ 2`.
    ///
    /// # Panics
    /// Panics if `n` is odd or < 2.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2 && n.is_multiple_of(2), "RealFft: n must be even and >= 2");
        let nh = n / 2;
        let w = (0..nh)
            .map(|k| Complex64::cis(-core::f64::consts::PI * k as f64 / nh as f64))
            .collect();
        RealFft { n, half: FftPlan::new(nh), w }
    }

    /// Signal length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when empty (never; kept for clippy symmetry).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of stored spectrum bins (`n/2 + 1`).
    pub fn spectrum_len(&self) -> usize {
        self.n / 2 + 1
    }

    /// Length of the scratch [`Self::forward_with`] and
    /// [`Self::inverse_with`] take (`n/2`).
    pub fn scratch_len(&self) -> usize {
        self.n / 2
    }

    /// Forward real-to-complex transform.
    /// X_k = Σ x_n e^{−2πi kn/N} for k = 0..=n/2.
    pub fn forward(&self, x: &[f64], spectrum: &mut [Complex64]) {
        self.forward_with(x, spectrum, &mut vec![Complex64::ZERO; self.scratch_len()]);
    }

    /// [`Self::forward`] with caller scratch `z` ([`Self::scratch_len`]
    /// values, contents ignored): a batch of transforms allocates once —
    /// and not at all when `n/2` is a power of two (a Bluestein half plan
    /// still allocates its padded convolution).
    pub fn forward_with(&self, x: &[f64], spectrum: &mut [Complex64], z: &mut [Complex64]) {
        assert_eq!(x.len(), self.n, "RealFft::forward: wrong input length");
        assert!(
            spectrum.len() >= self.spectrum_len(),
            "RealFft::forward: spectrum buffer too short"
        );
        let nh = self.n / 2;
        // Pack x into complex pairs z_j = x_{2j} + i x_{2j+1}.
        let z = &mut z[..nh];
        for (zj, pair) in z.iter_mut().zip(x.chunks_exact(2)) {
            *zj = Complex64::new(pair[0], pair[1]);
        }
        self.half.forward(z);
        // Unpack: X_k = (Z_k + conj(Z_{nh-k}))/2 + w_k (Z_k - conj(Z_{nh-k}))/(2i)
        for k in 0..=nh {
            let zk = if k == nh { z[0] } else { z[k] };
            let zm = if k == 0 { z[0] } else { z[nh - k] };
            let even = (zk + zm.conj()).scale(0.5);
            let odd = (zk - zm.conj()).scale(0.5);
            // odd/(i) = -i*odd.
            let odd_rot = Complex64::new(odd.im, -odd.re);
            let wk = if k == nh {
                Complex64::new(-1.0, 0.0)
            } else {
                self.w[k]
            };
            spectrum[k] = even + wk * odd_rot;
        }
    }

    /// Inverse complex-to-real transform, normalized so that
    /// `inverse(forward(x)) == x`.
    pub fn inverse(&self, spectrum: &[Complex64], x: &mut [f64]) {
        self.inverse_with(spectrum, x, &mut vec![Complex64::ZERO; self.scratch_len()]);
    }

    /// [`Self::inverse`] into caller scratch `z` ([`Self::scratch_len`]
    /// values, contents ignored).
    pub fn inverse_with(&self, spectrum: &[Complex64], x: &mut [f64], z: &mut [Complex64]) {
        assert!(
            spectrum.len() >= self.spectrum_len(),
            "RealFft::inverse: spectrum buffer too short"
        );
        assert_eq!(x.len(), self.n, "RealFft::inverse: wrong output length");
        let nh = self.n / 2;
        // Repack into half-length complex spectrum:
        // Z_k = (X_k + conj(X_{nh-k})) + i w_k^{-1} ... inverse of the unpack.
        let z = &mut z[..nh];
        for k in 0..nh {
            let xk = spectrum[k];
            let xm = spectrum[nh - k].conj();
            let even = xk + xm;
            let diff = xk - xm;
            // Z_k = even/... : invert X_k = E + w O' with O' = -i O:
            // E = (X_k + conj(X_{nh-k}))/2, w_k O' = (X_k - conj(X_{nh-k}))/2.
            let e = even.scale(0.5);
            let wo = diff.scale(0.5);
            let o_rot = wo * self.w[k].conj(); // O' = -i O
            let o = Complex64::new(-o_rot.im, o_rot.re); // O = i * O'
            z[k] = e + o;
        }
        self.half.inverse(z);
        for j in 0..nh {
            x[2 * j] = z[j].re;
            x[2 * j + 1] = z[j].im;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_real_dft(x: &[f64]) -> Vec<Complex64> {
        let n = x.len();
        (0..=n / 2)
            .map(|k| {
                let mut s = Complex64::ZERO;
                for (j, &xj) in x.iter().enumerate() {
                    s += Complex64::cis(-2.0 * core::f64::consts::PI * (k * j) as f64 / n as f64)
                        .scale(xj);
                }
                s
            })
            .collect()
    }

    #[test]
    fn forward_matches_naive() {
        for n in [2usize, 4, 8, 16, 32, 12, 20] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.77).sin() + 0.3).collect();
            let plan = RealFft::new(n);
            let mut sp = vec![Complex64::ZERO; plan.spectrum_len()];
            plan.forward(&x, &mut sp);
            let expect = naive_real_dft(&x);
            for k in 0..=n / 2 {
                assert!(
                    (sp[k].re - expect[k].re).abs() < 1e-9
                        && (sp[k].im - expect[k].im).abs() < 1e-9,
                    "n={n} bin {k}: {:?} vs {:?}",
                    sp[k],
                    expect[k]
                );
            }
        }
    }

    #[test]
    fn dc_and_nyquist_are_real() {
        let n = 16;
        let x: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let plan = RealFft::new(n);
        let mut sp = vec![Complex64::ZERO; plan.spectrum_len()];
        plan.forward(&x, &mut sp);
        assert!(sp[0].im.abs() < 1e-12);
        assert!(sp[n / 2].im.abs() < 1e-12);
    }

    #[test]
    fn roundtrip() {
        for n in [2usize, 4, 6, 8, 16, 30, 64] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).sin() - 0.5 * (i as f64)).collect();
            let plan = RealFft::new(n);
            let mut sp = vec![Complex64::ZERO; plan.spectrum_len()];
            plan.forward(&x, &mut sp);
            let mut y = vec![0.0; n];
            plan.inverse(&sp, &mut y);
            for i in 0..n {
                assert!((y[i] - x[i]).abs() < 1e-10, "n={n} elem {i}: {} vs {}", y[i], x[i]);
            }
        }
    }

    #[test]
    fn scratch_forms_ignore_what_the_scratch_held() {
        for n in [2usize, 8, 12, 32] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9).cos() + 0.1 * i as f64).collect();
            let plan = RealFft::new(n);
            let mut want = vec![Complex64::ZERO; plan.spectrum_len()];
            plan.forward(&x, &mut want);
            let mut z = vec![Complex64::new(f64::NAN, 7.0); plan.scratch_len()];
            let mut got = vec![Complex64::ZERO; plan.spectrum_len()];
            plan.forward_with(&x, &mut got, &mut z);
            let bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
                v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
            };
            assert_eq!(bits(&got), bits(&want), "forward, n={n}");
            let (mut back, mut back_with) = (vec![0.0; n], vec![0.0; n]);
            plan.inverse(&want, &mut back);
            plan.inverse_with(&want, &mut back_with, &mut z);
            assert_eq!(
                back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                back_with.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "inverse, n={n}"
            );
        }
    }

    #[test]
    fn cosine_lands_in_single_bin() {
        let n = 32;
        let k0 = 3;
        let x: Vec<f64> = (0..n)
            .map(|j| (2.0 * core::f64::consts::PI * (k0 * j) as f64 / n as f64).cos())
            .collect();
        let plan = RealFft::new(n);
        let mut sp = vec![Complex64::ZERO; plan.spectrum_len()];
        plan.forward(&x, &mut sp);
        for k in 0..=n / 2 {
            if k == k0 {
                assert!((sp[k].re - n as f64 / 2.0).abs() < 1e-9);
            } else {
                assert!(sp[k].abs() < 1e-9, "bin {k}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn odd_length_rejected() {
        RealFft::new(9);
    }
}
