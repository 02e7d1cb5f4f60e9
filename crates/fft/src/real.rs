//! Real-input FFT via the N/2 complex packing trick.
//!
//! A length-N real signal is packed into an N/2 complex signal, transformed
//! with one half-length complex FFT, then unpacked with the split formulas.
//! This is the classic memory-saving layout the paper alludes to: "the real
//! and imaginary parts of a Fourier mode sharing the same matrices".
//!
//! Pack, half transform and unpack are one body over `L` signals as lanes
//! ([`RealFft::forward_lanes`], [`RealFft::inverse_lanes`]); the
//! slice-at-a-time forms are its `L = 1` instance.

use crate::complex::{Complex64, Lanes};
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
    /// [`Self::inverse_with`] take: `n/2` complex values, plus the padded
    /// convolution length when `n/2` is not a power of two. The lane forms
    /// take twice as many lane blocks.
    pub fn scratch_len(&self) -> usize {
        self.n / 2 + self.half.scratch_len()
    }

    /// Forward real-to-complex transform.
    /// X_k = Σ x_n e^{−2πi kn/N} for k = 0..=n/2.
    pub fn forward(&self, x: &[f64], spectrum: &mut [Complex64]) {
        self.forward_with(x, spectrum, &mut vec![Complex64::ZERO; self.scratch_len()]);
    }

    /// [`Self::forward`] with caller scratch `z` ([`Self::scratch_len`]
    /// values, contents ignored): it allocates nothing.
    pub fn forward_with(&self, x: &[f64], spectrum: &mut [Complex64], z: &mut [Complex64]) {
        assert_eq!(x.len(), self.n, "RealFft::forward: wrong input length");
        assert!(
            spectrum.len() >= self.spectrum_len(),
            "RealFft::forward: spectrum buffer too short"
        );
        self.forward_lanes(
            |j| [x[j]],
            |k, re, im| spectrum[k] = Complex64::new(re[0], im[0]),
            one_lane(z),
        );
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
        self.inverse_lanes(
            |k| ([spectrum[k].re], [spectrum[k].im]),
            |j, v| x[j] = v[0],
            one_lane(z),
        );
    }

    /// Forward transforms of `L` real signals at once, each one lane:
    /// `x(j)` is sample `j` of every lane (`j < n`, each asked for once),
    /// and `bin(k, re, im)` receives spectrum bin `k` (`k = 0..=n/2`, in
    /// order). `scratch` holds 2·[`Self::scratch_len`] blocks; what it held
    /// is ignored. Each lane performs the `L = 1` operations in the same
    /// order, so every lane's bits are those of [`Self::forward`].
    #[inline(always)]
    pub fn forward_lanes<const L: usize>(
        &self,
        x: impl Fn(usize) -> [f64; L],
        mut bin: impl FnMut(usize, [f64; L], [f64; L]),
        scratch: &mut [[f64; L]],
    ) {
        let nh = self.n / 2;
        let (z, rest) = scratch.split_at_mut(2 * nh);
        let (zr, zi) = z.split_at_mut(nh);
        // Pack x into complex pairs z_j = x_{2j} + i x_{2j+1}.
        for j in 0..self.n {
            let half = if j % 2 == 0 { &mut *zr } else { &mut *zi };
            half[j / 2] = x(j);
        }
        self.half.forward_lanes(zr, zi, rest);
        // Unpack: X_k = (Z_k + conj(Z_{nh-k}))/2 + w_k (Z_k - conj(Z_{nh-k}))/(2i)
        for k in 0..=nh {
            let (k0, m0) = (if k == nh { 0 } else { k }, if k == 0 { 0 } else { nh - k });
            let wk = if k == nh { Complex64::new(-1.0, 0.0) } else { self.w[k] };
            let (zk, zm) = (Lanes::at(zr, zi, k0), Lanes::at(zr, zi, m0));
            let even = (zk + zm.conj()).scale(0.5);
            let odd = (zk - zm.conj()).scale(0.5);
            let xk = even + odd.over_i() * wk;
            bin(k, xk.re, xk.im);
        }
    }

    /// Inverse transforms of `L` spectra at once, normalized as
    /// [`Self::inverse`]: `bin(k)` is spectrum bin `k` of every lane (`k =
    /// 0..=n/2`, each asked for once), and `x(j, v)` receives sample `j`
    /// (`j < n`, in order). Scratch and bits as [`Self::forward_lanes`].
    #[inline(always)]
    pub fn inverse_lanes<const L: usize>(
        &self,
        bin: impl Fn(usize) -> ([f64; L], [f64; L]),
        mut x: impl FnMut(usize, [f64; L]),
        scratch: &mut [[f64; L]],
    ) {
        let nh = self.n / 2;
        let (z, rest) = scratch.split_at_mut(2 * nh);
        let (zr, zi) = z.split_at_mut(nh);
        // Repack into the half-length spectrum ([`repack`]): bins 0..nh
        // into z, the Nyquist bin aside, then in place, bins k and nh - k
        // making Z_k and Z_{nh-k}.
        let mut nyquist = Lanes { re: [0.0; L], im: [0.0; L] };
        for k in 0..=nh {
            let (re, im) = bin(k);
            if k < nh {
                (zr[k], zi[k]) = (re, im);
            } else {
                nyquist = Lanes { re, im };
            }
        }
        repack(Lanes::at(zr, zi, 0), nyquist, self.w[0]).put(zr, zi, 0);
        for k in 1..=nh / 2 {
            let (xk, xm) = (Lanes::at(zr, zi, k), Lanes::at(zr, zi, nh - k));
            repack(xk, xm, self.w[k]).put(zr, zi, k);
            if k != nh - k {
                repack(xm, xk, self.w[nh - k]).put(zr, zi, nh - k);
            }
        }
        self.half.inverse_lanes(zr, zi, rest);
        for j in 0..self.n {
            x(j, if j % 2 == 0 { zr[j / 2] } else { zi[j / 2] });
        }
    }
}

/// Half-length bin Z_k from spectrum bins X_k and X_{nh-k}, inverting the
/// forward unpack: E = (X_k + conj(X_{nh-k}))/2,
/// w_k O' = (X_k - conj(X_{nh-k}))/2, O' = -i O, Z_k = E + O.
#[inline(always)]
fn repack<const L: usize>(xk: Lanes<L>, xm: Lanes<L>, w: Complex64) -> Lanes<L> {
    let xm = xm.conj();
    let o_rot = (xk - xm).scale(0.5) * w.conj();
    (xk + xm).scale(0.5) + o_rot.times_i()
}

/// `z` as one-lane scratch: 2·`z.len()` blocks over the same memory.
fn one_lane(z: &mut [Complex64]) -> &mut [[f64; 1]] {
    // SAFETY: `Complex64` is `repr(C)` {re, im}: two f64s without padding,
    // aligned as f64, so its memory is 2·len `[f64; 1]`s, borrowed as `z` is.
    unsafe { std::slice::from_raw_parts_mut(z.as_mut_ptr().cast(), 2 * z.len()) }
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

    /// Four lanes against the `L = 1` slice forms, bit for bit, both
    /// directions, radix-2 and Bluestein half lengths: `nl` live lanes (a
    /// masked last block when `nl < 4`: the other lanes load zeros and are
    /// not read), NaN-filled scratch.
    #[test]
    fn four_lanes_equal_one_lane_bit_for_bit() {
        let sample = |l: usize, j: usize| ((7 * l + 3 * j) as f64 * 0.37).sin() + 0.25 * l as f64;
        for n in [2usize, 4, 6, 8, 12, 20, 32, 64] {
            let plan = RealFft::new(n);
            let nb = plan.spectrum_len();
            for nl in 1..=4 {
                let live = |l: usize, v: f64| if l < nl { v } else { 0.0 };
                let mut scratch = vec![[f64::NAN; 4]; 2 * plan.scratch_len()];
                let mut bins = vec![([0.0; 4], [0.0; 4]); nb];
                plan.forward_lanes(
                    |j| std::array::from_fn(|l| live(l, sample(l, j))),
                    |k, re, im| bins[k] = (re, im),
                    &mut scratch,
                );
                // Spectra of the live lanes, scaled so the inverse has work.
                let spec = |l: usize, k: usize| {
                    Complex64::new(1.5 * bins[k].0[l] - 0.5, bins[k].1[l] + 0.125 * k as f64)
                };
                scratch.fill([f64::NAN; 4]);
                let mut back = vec![[0.0; 4]; n];
                plan.inverse_lanes(
                    |k| {
                        let c: [Complex64; 4] = std::array::from_fn(|l| spec(l, k));
                        (
                            std::array::from_fn(|l| live(l, c[l].re)),
                            std::array::from_fn(|l| live(l, c[l].im)),
                        )
                    },
                    |j, v| back[j] = v,
                    &mut scratch,
                );
                for l in 0..nl {
                    let x: Vec<f64> = (0..n).map(|j| sample(l, j)).collect();
                    let mut want = vec![Complex64::ZERO; nb];
                    plan.forward(&x, &mut want);
                    for (k, w) in want.iter().enumerate() {
                        let got = (bins[k].0[l].to_bits(), bins[k].1[l].to_bits());
                        assert_eq!(got, (w.re.to_bits(), w.im.to_bits()), "n {n} lane {l} bin {k}");
                    }
                    let sp: Vec<Complex64> = (0..nb).map(|k| spec(l, k)).collect();
                    let mut want = vec![0.0; n];
                    plan.inverse(&sp, &mut want);
                    for (j, w) in want.iter().enumerate() {
                        assert_eq!(back[j][l].to_bits(), w.to_bits(), "n {n} lane {l} sample {j}");
                    }
                }
            }
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
