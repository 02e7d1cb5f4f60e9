//! The small-matrix kernel: one axis of a small tensor contracted with a
//! small dense matrix, no packing, no `α`/`β` — what a sum-factorised
//! elemental operation is made of (see the crate documentation).

/// The layout of one [`sweep`]: `x` is a `pre × n_in × post` tensor and
/// `y` a `pre × n_out × post` one, first index fastest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Axis {
    /// Product of the extents before the contracted axis.
    pub pre: usize,
    /// Extent of the contracted axis in `x`.
    pub n_in: usize,
    /// Its extent in `y`.
    pub n_out: usize,
    /// Product of the extents after it.
    pub post: usize,
}

impl Axis {
    /// The `D` axes of an `n_inᴰ → n_outᴰ` tensor-product transform applied
    /// first index first: each sweep sees the axes before it already at
    /// `n_out`.
    #[inline(always)]
    pub fn tensor<const D: usize>(n_in: usize, n_out: usize) -> [Axis; D] {
        std::array::from_fn(|d| Axis {
            pre: n_out.pow(d as u32),
            n_in,
            n_out,
            post: n_in.pow((D - 1 - d) as u32),
        })
    }
}

/// The 1-D sweep every elemental operator is made of: contracts one axis
/// of `x` with the column-major `n_out × n_in` matrix `a`,
/// `y[p, o, c] (+)= Σ_i a[o, i] · x[p, i, c]` — `+=` when `ADD`. Sums run
/// in ascending `i` from the first product (no zero seed, no zero skip),
/// and the innermost loop is always the contiguous one. Inlined into
/// callers whose mode count is a constant, every trip count is known.
///
/// With `L > 1` lanes, `x` and `y` hold `L` tensors stored lane-fastest
/// (`x[p, i, c]` is lane `p % L`'s) and each output of a block of lanes
/// is summed in registers. `a` holds `mats` matrices: 1 shared by every
/// lane, or `L` interleaved entry by entry (lane `l`'s `a[o, i]` at
/// `a[(o + i·n_out)·L + l]`). Each output is the sum a one-lane sweep of
/// its tensor and matrix forms, in the same order.
///
/// # Panics
/// If `a`, `x` or `y` is shorter than `ax`, `L` and `mats` describe, `L`
/// does not divide `pre`, or `mats` is neither 1 nor `L`.
#[inline(always)]
pub fn sweep<const ADD: bool, const L: usize>(
    a: &[f64],
    mats: usize,
    ax: Axis,
    x: &[f64],
    y: &mut [f64],
) {
    let Axis { pre, n_in, n_out, post } = ax;
    assert!(pre % L == 0 && (mats == 1 || mats == L), "{L} lanes, {mats} matrices, pre = {pre}");
    let a = &a[..n_out * n_in * mats];
    let x = &x[..pre * n_in * post];
    let y = &mut y[..pre * n_out * post];
    // Term `i` of a sum: the first is stored, unless adding.
    let term = |y: &mut f64, i: usize, t: f64| *y = if i == 0 && !ADD { t } else { *y + t };
    for (xc, yc) in x.chunks_exact(pre * n_in).zip(y.chunks_exact_mut(pre * n_out)) {
        if L > 1 {
            for (o, yo) in yc.chunks_exact_mut(pre).enumerate() {
                for (p, yl) in yo.chunks_exact_mut(L).enumerate() {
                    let mut acc: [f64; L] = std::array::from_fn(|l| if ADD { yl[l] } else { 0.0 });
                    for i in 0..n_in {
                        let al = &a[(o + i * n_out) * mats..][..mats];
                        let xl = &xc[i * pre + p * L..][..L];
                        for (l, acc) in acc.iter_mut().enumerate() {
                            term(acc, i, al[l % mats] * xl[l]);
                        }
                    }
                    yl.copy_from_slice(&acc);
                }
            }
        } else if pre == 1 {
            // Contiguous axis: y_c (+)= A x_c, one column of A per term.
            for (i, &xv) in xc.iter().enumerate() {
                let col = &a[i * n_out..(i + 1) * n_out];
                for (yo, &av) in yc.iter_mut().zip(col) {
                    term(yo, i, av * xv);
                }
            }
        } else {
            for (o, yo) in yc.chunks_exact_mut(pre).enumerate() {
                for (i, xi) in xc.chunks_exact(pre).enumerate() {
                    let av = a[o + i * n_out];
                    for (yp, &xp) in yo.iter_mut().zip(xi) {
                        term(yp, i, av * xp);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dgemm, Trans};
    use nkt_testkit::Rng;

    fn random(rng: &mut Rng, n: usize) -> Vec<f64> {
        (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect()
    }

    /// `sweep` over `ax` against `dgemm` (no transposes, column-major):
    /// `Y_c = A·X_c` per `post` slab when the axis is contiguous,
    /// `Y_c = X_c·Aᵀ` (with Aᵀ formed here) when `pre` rows ride along.
    fn check_against_dgemm<const ADD: bool>(ax: Axis, rng: &mut Rng) {
        let Axis { pre, n_in, n_out, post } = ax;
        let a = random(rng, n_out * n_in);
        let x = random(rng, pre * n_in * post);
        let y0 = random(rng, pre * n_out * post);
        // A sweep that overwrites must not read what was there.
        let mut y = if ADD { y0.clone() } else { vec![f64::NAN; y0.len()] };
        sweep::<ADD, 1>(&a, 1, ax, &x, &mut y);
        let mut want = y0;
        let beta = if ADD { 1.0 } else { 0.0 };
        let at: Vec<f64> = (0..n_in * n_out).map(|k| a[k / n_in + (k % n_in) * n_out]).collect();
        for (xc, wc) in x.chunks_exact(pre * n_in).zip(want.chunks_exact_mut(pre * n_out)) {
            if pre == 1 {
                dgemm(Trans::No, Trans::No, n_out, 1, n_in, 1.0, &a, n_out, xc, n_in, beta, wc, n_out);
            } else {
                dgemm(Trans::No, Trans::No, pre, n_out, n_in, 1.0, xc, pre, &at, n_in, beta, wc, pre);
            }
        }
        for (k, (g, w)) in y.iter().zip(&want).enumerate() {
            assert!((g - w).abs() <= 1e-14 * n_in as f64, "{ax:?} ADD {ADD}, entry {k}: {g} vs {w}");
        }
    }

    #[test]
    fn sweep_equals_dgemm_on_every_layout() {
        let mut rng = Rng::new(0x5eed_b1a5);
        for n_in in 2..=10 {
            for n_out in 2..=10 {
                for (pre, post) in [(1, 1), (1, 7), (5, 1), (3, 4), (n_out, n_in)] {
                    let ax = Axis { pre, n_in, n_out, post };
                    check_against_dgemm::<false>(ax, &mut rng);
                    check_against_dgemm::<true>(ax, &mut rng);
                }
            }
        }
    }

    /// `L` lanes, with one shared matrix or one each, are `L` one-lane
    /// sweeps of the de-interleaved tensors, bit for bit, with `ADD` and
    /// without.
    fn check_lanes<const L: usize>(rng: &mut Rng) {
        for (pre, n_in, n_out, post) in [(1, 3, 3, 9), (3, 3, 4, 3), (16, 5, 2, 1)] {
            for mats in [1, L] {
                let ax = Axis { pre: pre * L, n_in, n_out, post };
                let (a, x) = (random(rng, n_out * n_in * mats), random(rng, pre * L * n_in * post));
                let y0 = random(rng, pre * L * n_out * post);
                let (mut y, mut y_add) = (vec![f64::NAN; y0.len()], y0.clone());
                sweep::<false, L>(&a, mats, ax, &x, &mut y);
                sweep::<true, L>(&a, mats, ax, &x, &mut y_add);
                let one = Axis { pre, ..ax };
                let lane = |v: &[f64], l: usize, n: usize| -> Vec<f64> {
                    v.iter().skip(l % n).step_by(n).copied().collect()
                };
                let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
                for l in 0..L {
                    let (al, xl) = (lane(&a, l, mats), lane(&x, l, L));
                    let (mut want, mut want_add) = (vec![f64::NAN; y0.len() / L], lane(&y0, l, L));
                    sweep::<false, 1>(&al, 1, one, &xl, &mut want);
                    sweep::<true, 1>(&al, 1, one, &xl, &mut want_add);
                    let what = format!("{L} lanes, {mats} matrices, {one:?}, lane {l}");
                    assert_eq!(bits(&lane(&y, l, L)), bits(&want), "{what}");
                    assert_eq!(bits(&lane(&y_add, l, L)), bits(&want_add), "{what}, ADD");
                }
            }
        }
    }

    #[test]
    fn lanes_are_independent_one_lane_sweeps() {
        let mut rng = Rng::new(0x1a7e5);
        check_lanes::<2>(&mut rng);
        check_lanes::<3>(&mut rng);
        check_lanes::<8>(&mut rng);
    }

    #[test]
    fn zeros_take_no_shortcut_and_sums_have_no_zero_seed() {
        for pre in [1, 2] {
            let ax = Axis { pre, n_in: 2, n_out: 2, post: 1 };
            // 0 · ∞ is NaN: a skipped zero term would leave 3.0.
            let a = [f64::INFINITY, 1.0, 3.0, 1.0];
            let x: Vec<f64> = [0.0, 1.0].iter().flat_map(|&v| vec![v; pre]).collect();
            let mut y = vec![0.0; 2 * pre];
            sweep::<false, 1>(&a, 1, ax, &x, &mut y);
            assert!(y[0].is_nan() && y[pre] == 1.0, "pre {pre}: {y:?}");
            // (−0) + (−0) is −0, but 0 + (−0) is +0: the first product is
            // stored, not added to a zero.
            let x = vec![-0.0; 2 * pre];
            sweep::<false, 1>(&[1.0; 4], 1, ax, &x, &mut y);
            assert!(y.iter().all(|v| *v == 0.0 && v.is_sign_negative()), "pre {pre}: {y:?}");
        }
    }

    #[test]
    fn tensor_axes_chain_from_n_in_to_n_out() {
        assert_eq!(
            Axis::tensor::<3>(4, 6),
            [
                Axis { pre: 1, n_in: 4, n_out: 6, post: 16 },
                Axis { pre: 6, n_in: 4, n_out: 6, post: 4 },
                Axis { pre: 36, n_in: 4, n_out: 6, post: 1 },
            ]
        );
        assert_eq!(Axis::tensor::<2>(5, 3)[1], Axis { pre: 3, n_in: 5, n_out: 3, post: 1 });
    }

    /// Three sweeps along `Axis::tensor`'s axes, first index first, are
    /// `(m[2] ⊗ m[1] ⊗ m[0]) x`.
    #[test]
    fn three_tensor_sweeps_are_the_kronecker_product() {
        let mut rng = Rng::new(7);
        let (n_in, n_out) = (3, 4);
        let m: Vec<Vec<f64>> = (0..3).map(|_| random(&mut rng, n_out * n_in)).collect();
        let x = random(&mut rng, n_in.pow(3));
        let mut out = vec![f64::NAN; n_out.pow(3)];
        let [ax, ay, az] = Axis::tensor(n_in, n_out);
        let mut t1 = vec![f64::NAN; n_out * n_in * n_in];
        let mut t2 = vec![f64::NAN; n_out * n_out * n_in];
        sweep::<false, 1>(&m[0], 1, ax, &x, &mut t1);
        sweep::<false, 1>(&m[1], 1, ay, &t1, &mut t2);
        sweep::<false, 1>(&m[2], 1, az, &t2, &mut out);
        for (o, got) in out.iter().enumerate() {
            let (o0, o1, o2) = (o % n_out, o / n_out % n_out, o / (n_out * n_out));
            let mut want = 0.0;
            for (i, xv) in x.iter().enumerate() {
                let (i0, i1, i2) = (i % n_in, i / n_in % n_in, i / (n_in * n_in));
                want += m[0][o0 + i0 * n_out] * m[1][o1 + i1 * n_out] * m[2][o2 + i2 * n_out] * xv;
            }
            assert!((got - want).abs() < 1e-13, "entry {o}: {got} vs {want}");
        }
    }
}
