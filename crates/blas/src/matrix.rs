//! Owned matrix containers: column-major dense and symmetric-banded.
//!
//! The paper's Poisson/Helmholtz solvers exploit "the symmetric and banded
//! nature" of the spectral/hp Laplacian (Figure 10); [`BandedSym`] is the
//! storage those solvers factor with [`crate::dpbtrf`]: the upper band,
//! packed by columns from each column's first structural row.

/// Dense column-major matrix (the BLAS/LAPACK native layout).
///
/// Element (i, j) lives at `data[i + j * nrows]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColMajor {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl ColMajor {
    /// Creates an `nrows × ncols` zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self { nrows, ncols, data: vec![0.0; nrows * ncols] }
    }

    /// Creates the n × n identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a row-major closure (convenient for assembling test
    /// matrices: `ColMajor::from_fn(3, 3, |i, j| ...)`).
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(nrows, ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Flat column-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat column-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Column `j` as a contiguous slice.
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> ColMajor {
        ColMajor::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)])
    }

    /// Matrix-vector product y = A x using [`crate::level2::dgemv`].
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        crate::level2::dgemv(
            crate::level2::Trans::No,
            self.nrows,
            self.ncols,
            1.0,
            &self.data,
            self.nrows,
            x,
            0.0,
            &mut y,
        );
        y
    }

    /// Maximum absolute elementwise difference against another matrix.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &ColMajor) -> f64 {
        assert_eq!((self.nrows, self.ncols), (other.nrows, other.ncols));
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()))
    }
}

impl core::ops::Index<(usize, usize)> for ColMajor {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[i + j * self.nrows]
    }
}

impl core::ops::IndexMut<(usize, usize)> for ColMajor {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[i + j * self.nrows]
    }
}

/// Symmetric matrix in packed **envelope** (profile, skyline) storage of
/// its upper triangle: column j stores rows `top_j..=j` contiguously,
/// diagonal last, and every A(i, j) with `i < top_j` is a structural zero
/// that is not stored.
///
/// The LAPACK `SB` band with `kd` super-diagonals is the case
/// `top_j = lo_j = max(0, j − kd)` ([`BandedSym::zeros`]). An envelope
/// ([`BandedSym::envelope`]) starts column j at its first structural row
/// `first_j` rounded down to `lo_j` plus a multiple of four, so that its
/// rows fall in the same lanes of [`crate::ddot`]'s four partial sums as
/// in the band: that alignment is what keeps [`crate::dpbtrs_multi`] on
/// an envelope bitwise the band's solve (see [`crate::lapack`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BandedSym {
    kd: usize,
    /// First stored row of each column.
    top: Vec<usize>,
    /// Offset of each column's diagonal in `ab`.
    diag: Vec<usize>,
    /// The stored entries, column after column.
    ab: Vec<f64>,
}

impl BandedSym {
    /// Creates an n × n zero matrix with `kd` super-diagonals, every one
    /// stored: the full band.
    pub fn zeros(n: usize, kd: usize) -> Self {
        Self::with_tops(kd, (0..n).map(|j| j.saturating_sub(kd)).collect())
    }

    /// Creates a zero matrix whose column j has its first structural
    /// nonzero at row `first[j]`; `kd` is the largest `j − first[j]`.
    ///
    /// # Panics
    /// If some `first[j] > j`.
    pub fn envelope(first: &[usize]) -> Self {
        let width = |(j, &f): (usize, &usize)| j.checked_sub(f).expect("first[j] ≤ j");
        let kd = first.iter().enumerate().map(width).max().unwrap_or(0);
        let top = first.iter().enumerate().map(|(j, &f)| {
            let lo = j.saturating_sub(kd);
            lo + (f - lo) / 4 * 4
        });
        Self::with_tops(kd, top.collect())
    }

    fn with_tops(kd: usize, top: Vec<usize>) -> Self {
        let mut len = 0;
        let diag = top.iter().enumerate().map(|(j, &t)| {
            len += j + 1 - t;
            len - 1
        });
        let diag = diag.collect();
        Self { kd, top, diag, ab: vec![0.0; len] }
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.top.len()
    }

    /// Number of super-diagonals: no column stores a row above `j − kd`.
    pub fn kd(&self) -> usize {
        self.kd
    }

    /// First stored row of column `j`.
    pub fn top(&self, j: usize) -> usize {
        self.top[j]
    }

    /// The stored entries, packed column after column (column j: rows
    /// `top(j)..=j`).
    pub fn ab(&self) -> &[f64] {
        &self.ab
    }

    /// Column `j`'s stored rows `top(j)..=j`, diagonal last.
    pub(crate) fn column(&self, j: usize) -> &[f64] {
        &self.ab[self.diag[j] + self.top[j] - j..=self.diag[j]]
    }

    /// The stored entries, with each column's first row and the offset of
    /// its diagonal.
    pub(crate) fn packed_mut(&mut self) -> (&mut [f64], &[usize], &[usize]) {
        (&mut self.ab, &self.top, &self.diag)
    }

    /// Offset of A(i, j) (either triangle) in `ab`, if it is stored.
    fn offset(&self, i: usize, j: usize) -> Option<usize> {
        let (i, j) = (i.min(j), i.max(j));
        (i >= self.top[j]).then(|| self.diag[j] + i - j)
    }

    /// Offset of a stored A(i, j).
    ///
    /// # Panics
    /// If (i, j) is outside the envelope.
    fn entry(&self, i: usize, j: usize) -> usize {
        self.offset(i, j).unwrap_or_else(|| panic!("BandedSym: ({i},{j}) is outside the envelope"))
    }

    /// Whether A(i, j) is stored (either triangle).
    pub fn stores(&self, i: usize, j: usize) -> bool {
        self.offset(i, j).is_some()
    }

    /// Reads A(i, j); returns 0 outside the envelope. Symmetric access:
    /// callers may pass either triangle.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.offset(i, j).map_or(0.0, |k| self.ab[k])
    }

    /// Adds `v` to A(i, j) (and by symmetry A(j, i)).
    ///
    /// # Panics
    /// Panics if (i, j) is outside the envelope.
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        let k = self.entry(i, j);
        self.ab[k] += v;
    }

    /// Sets A(i, j) (and A(j, i)).
    ///
    /// # Panics
    /// Panics if (i, j) is outside the envelope.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let k = self.entry(i, j);
        self.ab[k] = v;
    }

    /// Dense expansion (testing / small problems).
    pub fn to_dense(&self) -> ColMajor {
        ColMajor::from_fn(self.n(), self.n(), |i, j| self.get(i, j))
    }

    /// y ← A x over the stored entries (symmetric band matvec,
    /// `dsbmv`-like).
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        let n = self.n();
        assert!(x.len() >= n && y.len() >= n);
        y[..n].fill(0.0);
        for j in 0..n {
            // Diagonal + super-diagonal entries of column j couple rows top..=j.
            for (i, &a) in (self.top[j]..=j).zip(self.column(j)) {
                y[i] += a * x[j];
                if i != j {
                    y[j] += a * x[i];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colmajor_index_roundtrip() {
        let mut m = ColMajor::zeros(3, 2);
        m[(2, 1)] = 7.0;
        assert_eq!(m[(2, 1)], 7.0);
        assert_eq!(m.as_slice()[2 + 3], 7.0);
    }

    #[test]
    fn identity_matvec_is_identity() {
        let m = ColMajor::identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(m.matvec(&x), x);
    }

    #[test]
    fn transpose_involution() {
        let m = ColMajor::from_fn(3, 5, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn banded_get_set_symmetric() {
        let mut b = BandedSym::zeros(5, 2);
        b.set(1, 3, 4.0);
        assert_eq!(b.get(1, 3), 4.0);
        assert_eq!(b.get(3, 1), 4.0);
        assert_eq!(b.get(0, 4), 0.0); // outside band
    }

    #[test]
    #[should_panic]
    fn banded_set_outside_band_panics() {
        let mut b = BandedSym::zeros(5, 1);
        b.set(0, 3, 1.0);
    }

    /// kd is the widest column; each column starts at `lo_j = j − kd` plus
    /// a multiple of four at or above its first row, and packs only that.
    #[test]
    fn envelope_starts_each_column_on_a_lane_of_the_band() {
        let first = [0, 0, 1, 3, 0, 5, 6, 1, 8];
        let mut b = BandedSym::envelope(&first);
        assert_eq!((b.n(), b.kd()), (9, 6));
        let tops: Vec<usize> = (0..9).map(|j| b.top(j)).collect();
        assert_eq!(tops, [0, 0, 0, 0, 0, 4, 4, 1, 6]);
        assert_eq!(b.ab().len(), 30);
        b.set(6, 8, 2.0);
        b.add(8, 6, 0.5);
        assert_eq!(b.get(6, 8), 2.5);
        assert_eq!(b.get(5, 8), 0.0);
        assert!(b.stores(4, 5) && !b.stores(5, 3) && !b.stores(8, 0));
        let zeros = BandedSym::zeros(4, 2);
        assert_eq!((zeros.ab().len(), zeros.top(3)), (3 + 3 + 2 + 1, 1));
    }

    #[test]
    #[should_panic(expected = "outside the envelope")]
    fn envelope_set_above_the_first_row_panics() {
        let mut b = BandedSym::envelope(&[0, 0, 1, 3, 0, 5, 6, 1, 8]);
        b.set(5, 8, 1.0);
    }

    #[test]
    fn banded_matvec_matches_dense() {
        let n = 8;
        let kd = 3;
        let mut b = BandedSym::zeros(n, kd);
        for j in 0..n {
            for i in j.saturating_sub(kd)..=j {
                b.set(i, j, (1 + i + 2 * j) as f64);
            }
        }
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut y = vec![0.0; n];
        b.matvec(&x, &mut y);
        let yd = b.to_dense().matvec(&x);
        for i in 0..n {
            assert!((y[i] - yd[i]).abs() < 1e-12, "row {i}: {} vs {}", y[i], yd[i]);
        }
    }
}
