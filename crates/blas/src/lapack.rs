//! LAPACK-style factorizations used by NekTar's direct solvers.
//!
//! The paper (§4.1): "Solution of the Laplacian for the Poisson equation.
//! A direct solver (LAPACK), utilising the symmetric and banded nature of
//! the matrix, is used." — that is [`dpbtrf`]/[`dpbtrs`] here. Dense
//! Cholesky ([`dpotrf`]/[`dpotrs`]) solves the small edge-projection
//! systems of the Dirichlet data.
//!
//! Both run over the envelope [`BandedSym`] stores — each column from its
//! first structural row — and give the bits of the full band's
//! factorization and solve, which the tests keep as their oracles.
//! [`dpbtrf`] is row-blocked and is the one routine here that runs
//! through [`crate::isa`]; the solves stream a factor once per sweep.

use crate::isa::{self, Kernel};
use crate::level1::{daxpy, ddot};
use crate::level2::{Trans, Uplo};
use crate::matrix::BandedSym;
use crate::LapackError;

/// Rows of U that [`dpbtrf`] finishes together before the entries below
/// them take their updates.
const NB: usize = 4;

/// Cholesky factorization of a symmetric positive-definite band matrix
/// in upper envelope storage ([`BandedSym`]): A = UᵀU where U is upper
/// triangular with A's envelope — Cholesky fills nothing above a
/// column's first nonzero. Overwrites the stored entries of `a` with U.
/// (LAPACK `dpbtrf`, uplo='U', over the envelope.)
///
/// Right-looking, rows in groups of four, one pass over the stored
/// columns the group reaches, in ascending order: a column's entries in
/// the group's rows (contiguous) are finished first — each minus the
/// group's earlier rows' terms, then divided by its pivot, or, on the
/// diagonal, its square root the pivot — and gathered into a small buffer
/// of the group's rows; then the column's entries below the group take
/// all the group's updates with one load and one store, down the column.
/// Every entry of U is its entry of A minus `u_ij · u_ik` for exactly the
/// rows i that both columns store, one `mul` then one `sub` each, in
/// ascending i, then divided by its pivot: the operations, and so the
/// bits, of the unblocked left-looking loop over the band, less the terms
/// with a factor above a column's first row — a +0.0 that the band
/// subtracts as a `±0.0` product, which leaves any entry but −0.0
/// unchanged. Runs at the host's vector width ([`crate::isa`]).
///
/// # Errors
/// [`LapackError::Singular`] (1-based pivot index) if a non-positive pivot
/// is hit — the matrix is not positive definite. The matrix then holds a
/// partial factor: the columns left of the pivot are U's, and the entries
/// right of it have taken some of their updates.
pub fn dpbtrf(a: &mut BandedSym) -> Result<(), LapackError> {
    isa::dispatch(BandFactor::new(a))
}

/// [`dpbtrf`]'s operands: the packed entries, each column's first stored
/// row and diagonal offset, and the bandwidth.
struct BandFactor<'a> {
    ab: &'a mut [f64],
    top: &'a [usize],
    diag: &'a [usize],
    kd: usize,
}

impl<'a> BandFactor<'a> {
    fn new(a: &'a mut BandedSym) -> Self {
        let kd = a.kd();
        let (ab, top, diag) = a.packed_mut();
        BandFactor { ab, top, diag, kd }
    }
}

impl Kernel for BandFactor<'_> {
    type Output = Result<(), LapackError>;

    #[inline(always)]
    fn run(self) -> Self::Output {
        let BandFactor { ab, top, diag, kd } = self;
        let n = top.len();
        // A(i, k), top_k ≤ i ≤ k, is ab[diag_k + i − k]: a column's rows
        // are contiguous.
        let at = |i: usize, k: usize| diag[k] + i - k;
        // rows[t·w + c] = u(i0 + t, i0 + c): the group's finished rows,
        // 0 where column i0 + c does not store row i0 + t.
        let w = kd + NB;
        let mut rows = vec![0.0; NB * w];
        for i0 in (0..n).step_by(NB) {
            let i1 = (i0 + NB).min(n);
            let nb = i1 - i0;
            for k in i0..=(i1 - 1 + kd).min(n - 1) {
                let c = k - i0;
                // Column k stores the group's rows t0.., tk of them on or
                // above its diagonal.
                let t0 = (top[k].max(i0) - i0).min(nb);
                let tk = nb.min(c + 1);
                for t in 0..t0 {
                    rows[t * w + c] = 0.0;
                }
                for t in t0..tk {
                    let mut v = ab[at(i0 + t, k)];
                    for s in t0..t {
                        v -= rows[s * w + t] * rows[s * w + c];
                    }
                    if t == c {
                        if v <= 0.0 {
                            return Err(LapackError::Singular(k + 1));
                        }
                        v = v.sqrt();
                    } else {
                        v /= rows[t * w + t];
                    }
                    ab[at(i0 + t, k)] = v;
                    rows[t * w + c] = v;
                }
                if k < i1 || t0 == nb {
                    continue;
                }
                // Column k below the group, rows i1..=k, takes the updates
                // of the group's rows it stores.
                let col = &mut ab[at(i1, k)..=at(k, k)];
                let row = |t: usize| &rows[t * w + nb..=t * w + c];
                if t0 == 0 && nb == NB {
                    let [r0, r1, r2, r3] = [0, 1, 2, 3].map(row);
                    let [s0, s1, s2, s3] = [r0, r1, r2, r3].map(|r| r[r.len() - 1]);
                    let terms = col.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3);
                    for ((((a, x0), x1), x2), x3) in terms {
                        *a = *a - x0 * s0 - x1 * s1 - x2 * s2 - x3 * s3;
                    }
                } else {
                    for r in (t0..nb).map(row) {
                        let s = r[r.len() - 1];
                        for (a, x) in col.iter_mut().zip(r) {
                            *a -= x * s;
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Column j of the factor U above the diagonal (its stored rows
/// top..j, contiguous), its diagonal entry, and top.
#[inline(always)]
fn factor_column(u: &BandedSym, j: usize) -> (&[f64], f64, usize) {
    let (col, ujj) = u.column(j).split_at(j - u.top(j));
    (col, ujj[0], u.top(j))
}

/// Solves A x = b given the [`dpbtrf`] factorization (A = UᵀU).
/// `b` is overwritten with x. (LAPACK `dpbtrs` single-RHS:
/// [`dpbtrs_multi`] with one column.)
pub fn dpbtrs(u: &BandedSym, b: &mut [f64]) -> Result<(), LapackError> {
    dpbtrs_multi(u, b, 1)
}

/// Solves A X = B for the `nrhs` columns of the column-major `n × nrhs`
/// array `b` (leading dimension `n`) given the [`dpbtrf`] factorization,
/// in one forward and one backward sweep over U: each factor column is
/// read once, at unit stride from its first stored row, and applied to
/// every right-hand side while it is in cache. Every right-hand side sees
/// the same [`ddot`] and [`daxpy`] calls on the same operands, so the
/// columns are bitwise the single solves.
///
/// Against the same sweeps over the full band: a column starts at the
/// band's first row plus a multiple of four, so each stored term keeps
/// its lane of [`ddot`]'s four partial sums (and the tail its terms), and
/// the skipped terms are `±0.0` products that a lane, starting at +0.0,
/// absorbs. The forward sweep is therefore the band's to the bit. The
/// back sweep skips adding `(−x_j)·(+0.0)` to the rows above column j's
/// first: an identity unless that row holds −0.0, where the band's sum
/// gives +0.0. So on finite input the solution is the band's bit for bit,
/// except that an exactly-zero entry may be −0.0 where the band's is +0.0
/// (from a −0.0 right-hand-side entry).
pub fn dpbtrs_multi(u: &BandedSym, b: &mut [f64], nrhs: usize) -> Result<(), LapackError> {
    let n = u.n();
    if b.len() < n * nrhs {
        return Err(LapackError::Dimension("dpbtrs_multi: rhs array too short"));
    }
    if n == 0 {
        return Ok(());
    }
    let b = &mut b[..n * nrhs];
    // Forward, Uᵀ y = b: y_j = (b_j − U[top..j, j] · y[top..j]) / u_jj.
    for j in 0..n {
        let (col, ujj, top) = factor_column(u, j);
        for x in b.chunks_exact_mut(n) {
            x[j] = (x[j] - ddot(col, &x[top..j])) / ujj;
        }
    }
    // Backward, U x = y, by columns: once x_j is known its column leaves
    // every earlier row, b[top..j] −= x_j · U[top..j, j].
    for j in (0..n).rev() {
        let (col, ujj, top) = factor_column(u, j);
        for x in b.chunks_exact_mut(n) {
            let xj = x[j] / ujj;
            x[j] = xj;
            daxpy(-xj, col, &mut x[top..j]);
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
    use crate::isa::Isa;
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

    /// The unblocked left-looking loop [`dpbtrf`] replaced, kept as the
    /// oracle it must equal bit for bit: u_jk = (a_jk − Σ u_ij·u_ik) / u_jj
    /// over the in-band i < j in ascending order. `a` is a full band.
    fn dpbtrf_unblocked(a: &mut BandedSym) -> Result<(), LapackError> {
        let (n, kd) = (a.n(), a.kd());
        for j in 0..n {
            // u_jj = sqrt(a_jj - sum_{i<j} u_ij^2) over in-band i.
            let mut d = a.get(j, j);
            let lo = j.saturating_sub(kd);
            for i in lo..j {
                let u = a.get(i, j);
                d -= u * u;
            }
            if d <= 0.0 {
                return Err(LapackError::Singular(j + 1));
            }
            let ujj = d.sqrt();
            a.set(j, j, ujj);
            // Update column entries of subsequent columns that see row j:
            // for each k in (j, j+kd]: u_jk = (a_jk - sum u_ij u_ik) / u_jj.
            let hi = (j + kd).min(n.saturating_sub(1));
            for kcol in (j + 1)..=hi {
                let mut s = a.get(j, kcol);
                let lo2 = kcol.saturating_sub(kd).max(lo);
                for i in lo2..j {
                    s -= a.get(i, j) * a.get(i, kcol);
                }
                a.set(j, kcol, s / ujj);
            }
        }
        Ok(())
    }

    /// The sweeps of [`dpbtrs_multi`] before the envelope, kept as the
    /// oracle of the envelope's: `u`'s entries copied into LAPACK `SB`
    /// storage, `(kd + 1) × n` with A(i, j) at `kd + i − j + j·(kd + 1)`,
    /// and every column swept from its band row `lo = j − kd`.
    fn band_solve_reference(u: &BandedSym, b: &mut [f64], nrhs: usize) {
        let (n, kd, ldab) = (u.n(), u.kd(), u.kd() + 1);
        let mut ab = vec![0.0; ldab * n];
        for j in 0..n {
            for i in j.saturating_sub(kd)..=j {
                ab[kd + i - j + j * ldab] = u.get(i, j);
            }
        }
        let factor_column = |j: usize| {
            let lo = j.saturating_sub(kd);
            let diag = kd + j * ldab;
            (&ab[diag - (j - lo)..diag], ab[diag], lo)
        };
        let b = &mut b[..n * nrhs];
        for j in 0..n {
            let (col, ujj, lo) = factor_column(j);
            for x in b.chunks_exact_mut(n) {
                x[j] = (x[j] - ddot(col, &x[lo..j])) / ujj;
            }
        }
        for j in (0..n).rev() {
            let (col, ujj, lo) = factor_column(j);
            for x in b.chunks_exact_mut(n) {
                let xj = x[j] / ujj;
                x[j] = xj;
                daxpy(-xj, col, &mut x[lo..j]);
            }
        }
    }

    /// A diagonally dominant band whose off-diagonal entries are in
    /// (−0.9, 0.9), two in seven of them an exact +0.0 or −0.0 — or, with
    /// `neg_zeros`, every one −0.0, so that U's are too. Either way an
    /// out-of-band zero subtracted, or two terms swapped, shows in the
    /// bits (−0.0 − (−0.0) is +0.0).
    fn band_with_zeros(n: usize, kd: usize, neg_zeros: bool) -> BandedSym {
        let mut b = BandedSym::zeros(n, kd);
        for j in 0..n {
            for i in j.saturating_sub(kd)..j {
                let v = match (i * 31 + j * 17) % 7 {
                    _ if neg_zeros => -0.0,
                    0 => 0.0,
                    1 => -0.0,
                    _ => ((i * 7 + j * 3) as f64 * 0.37).sin() * 0.9,
                };
                b.set(i, j, v);
            }
            b.set(j, j, 2.0 * kd as f64 + 1.5 + (j % 3) as f64);
        }
        b
    }

    /// Both builds of the row-blocked [`dpbtrf`] against the unblocked loop,
    /// every stored bit: orders around the row group of four and past it,
    /// bandwidths 0–9, n − 1 and n + 2, exact signed zeros inside the band
    /// (some, or every off-diagonal entry), and a negative pivot inside a
    /// group, on a group boundary and on the last row, which must give the
    /// same `Singular` index.
    #[test]
    fn dpbtrf_equals_the_unblocked_loop_bit_for_bit() {
        let bits = |b: &BandedSym| b.ab().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in [0usize, 1, 2, 3, 4, 5, 8, 9, 37, 130] {
            for kd in (0..=9).chain([n.saturating_sub(1), n + 2]) {
                let cases = [None, Some(5), Some(4), Some(8), n.checked_sub(1)];
                for (bad, neg_zeros) in cases.into_iter().flat_map(|p| [(p, false), (p, true)]) {
                    if bad.is_some_and(|p| p >= n) {
                        continue;
                    }
                    let mut a = band_with_zeros(n, kd, neg_zeros);
                    if let Some(p) = bad {
                        a.set(p, p, -0.5);
                    }
                    let mut want = a.clone();
                    let ok = dpbtrf_unblocked(&mut want);
                    assert_eq!(ok.is_ok(), bad.is_none());
                    for isa in Isa::available() {
                        let mut got = a.clone();
                        let res = isa.run(BandFactor::new(&mut got));
                        let case = format!("{isa:?}, n {n}, kd {kd}, {bad:?}, {neg_zeros}");
                        assert_eq!(res, ok, "{case}");
                        assert!(res.is_err() || bits(&got) == bits(&want), "{case}");
                    }
                }
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

    /// A diagonally dominant SPD matrix whose column j is structurally
    /// nonzero from row `first[j]`, as its envelope and as the full band
    /// of the same kd: off-diagonal entries in (−0.9, 0.9), one in five an
    /// exact +0.0 (a condensed matrix stores no −0.0).
    fn envelope_and_band(first: &[usize]) -> (BandedSym, BandedSym) {
        let mut env = BandedSym::envelope(first);
        let mut band = BandedSym::zeros(first.len(), env.kd());
        let pivot = 2.0 * env.kd() as f64 + 1.5;
        for (j, &f) in first.iter().enumerate() {
            for i in f..=j {
                let v = match (i * 31 + j * 17) % 5 {
                    _ if i == j => pivot + (j % 3) as f64,
                    0 => 0.0,
                    _ => ((i * 7 + j * 3) as f64 * 0.37).sin() * 0.9,
                };
                env.set(i, j, v);
                band.set(i, j, v);
            }
        }
        (env, band)
    }

    /// The envelope factor and solve against the full band's, every bit,
    /// in every build: orders 0–130, first rows drawn up to 0, 1, 3, 4, 7,
    /// 13 and n rows above the diagonal (kd < 4 and kd past the 4-wide
    /// `ddot` body; non-monotone), every third column or every column
    /// diagonal-only, one to three right-hand sides with +0.0 entries.
    #[test]
    fn envelope_factor_and_solve_equal_the_full_band_bit_for_bit() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |m: usize| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % m
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in [0usize, 1, 2, 3, 4, 5, 8, 9, 37, 130] {
            for reach in [0, 1, 3, 4, 7, 13, n] {
                for diagonal_every in [3, 1] {
                    let first: Vec<usize> = (0..n)
                        .map(|j| if j % diagonal_every == 0 { j } else { j - draw(reach.min(j) + 1) })
                        .collect();
                    let (env, band) = envelope_and_band(&first);
                    let kd = band.kd();
                    let mut want = band;
                    dpbtrf_unblocked(&mut want).unwrap();
                    for isa in Isa::available() {
                        let case = format!("{isa:?}, n {n}, reach {reach}, every {diagonal_every}");
                        let mut got = env.clone();
                        assert_eq!(isa.run(BandFactor::new(&mut got)), Ok(()), "{case}");
                        for j in 0..n {
                            for i in j.saturating_sub(kd)..=j {
                                let (g, w) = (got.get(i, j), want.get(i, j));
                                assert_eq!(g.to_bits(), w.to_bits(), "{case}: U({i},{j})");
                            }
                        }
                        for nrhs in 1..=3 {
                            let rhs: Vec<f64> = (0..n * nrhs)
                                .map(|i| if i % 4 == 1 { 0.0 } else { (i as f64 * 0.29).cos() })
                                .collect();
                            let (mut x, mut x_band) = (rhs.clone(), rhs);
                            dpbtrs_multi(&got, &mut x, nrhs).unwrap();
                            band_solve_reference(&want, &mut x_band, nrhs);
                            assert_eq!(bits(&x), bits(&x_band), "{case}, nrhs {nrhs}");
                        }
                    }
                }
            }
        }
    }

    /// The one place the envelope's bits leave the band's: the sign of an
    /// exactly-zero solution entry. Column 5 stores its diagonal only (its
    /// first row is four past the band's `lo`, 1), and row 1's right-hand
    /// side is −0.0 with solution 0. The band's back sweep adds
    /// `(−x₅)·(+0.0)` = +0.0 to it (x₅ < 0) and returns +0.0; the
    /// envelope skips that term and returns −0.0. Every other entry is the
    /// band's to the bit.
    #[test]
    fn a_negative_zero_rhs_entry_with_a_zero_solution_is_the_one_divergence() {
        let mut u = BandedSym::envelope(&[0, 0, 0, 0, 0, 5]);
        assert_eq!((u.kd(), u.top(5)), (4, 5));
        for j in 0..6 {
            u.set(j, j, 1.0);
        }
        dpbtrf(&mut u).unwrap();
        let rhs = [1.0, -0.0, 1.0, 1.0, 1.0, -2.0];
        let (mut x, mut x_band) = (rhs, rhs);
        dpbtrs_multi(&u, &mut x, 1).unwrap();
        band_solve_reference(&u, &mut x_band, 1);
        assert_eq!((x[1].to_bits(), x_band[1].to_bits()), ((-0.0f64).to_bits(), 0));
        for i in [0, 2, 3, 4, 5] {
            assert_eq!(x[i].to_bits(), x_band[i].to_bits(), "row {i}");
        }
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
