//! Owned matrix containers: column-major dense and symmetric-banded.
//!
//! The paper's Poisson/Helmholtz solvers exploit "the symmetric and banded
//! nature" of the spectral/hp Laplacian (Figure 10); [`BandedSym`] is the
//! LAPACK `SB` (symmetric band, upper) storage those solvers factor with
//! [`crate::dpbtrf`].

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

/// Symmetric banded matrix in LAPACK `SB` **upper** storage.
///
/// An n × n symmetric matrix with bandwidth `kd` (number of super-diagonals)
/// is stored in a `(kd+1) × n` column-major array `ab` with
/// `A(i,j) = ab[kd + i - j, j]` for `max(0, j-kd) ≤ i ≤ j`.
#[derive(Debug, Clone, PartialEq)]
pub struct BandedSym {
    n: usize,
    kd: usize,
    /// `(kd + 1) × n` column-major band storage.
    ab: Vec<f64>,
}

impl BandedSym {
    /// Creates an n × n zero matrix with `kd` super-diagonals.
    pub fn zeros(n: usize, kd: usize) -> Self {
        Self { n, kd, ab: vec![0.0; (kd + 1) * n] }
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of super-diagonals.
    pub fn kd(&self) -> usize {
        self.kd
    }

    /// Raw band storage (`(kd+1) × n`, column-major).
    pub fn ab(&self) -> &[f64] {
        &self.ab
    }

    /// Mutable raw band storage.
    pub fn ab_mut(&mut self) -> &mut [f64] {
        &mut self.ab
    }

    /// Leading dimension of the band storage (`kd + 1`).
    pub fn ldab(&self) -> usize {
        self.kd + 1
    }

    /// Reads A(i, j); returns 0 outside the band. Symmetric access: callers
    /// may pass either triangle.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (i, j) = if i <= j { (i, j) } else { (j, i) };
        if j - i > self.kd {
            0.0
        } else {
            self.ab[(self.kd + i - j) + j * (self.kd + 1)]
        }
    }

    /// Adds `v` to A(i, j) (and by symmetry A(j, i)).
    ///
    /// # Panics
    /// Panics if |i − j| exceeds the bandwidth.
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        let (i, j) = if i <= j { (i, j) } else { (j, i) };
        assert!(j - i <= self.kd, "BandedSym::add outside band: ({i},{j}) kd={}", self.kd);
        self.ab[(self.kd + i - j) + j * (self.kd + 1)] += v;
    }

    /// Sets A(i, j) (and A(j, i)).
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let (i, j) = if i <= j { (i, j) } else { (j, i) };
        assert!(j - i <= self.kd, "BandedSym::set outside band: ({i},{j}) kd={}", self.kd);
        self.ab[(self.kd + i - j) + j * (self.kd + 1)] = v;
    }

    /// Dense expansion (testing / small problems).
    pub fn to_dense(&self) -> ColMajor {
        ColMajor::from_fn(self.n, self.n, |i, j| self.get(i, j))
    }

    /// y ← A x exploiting the band (symmetric band matvec, `dsbmv`-like).
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert!(x.len() >= self.n && y.len() >= self.n);
        y[..self.n].fill(0.0);
        for j in 0..self.n {
            let lo = j.saturating_sub(self.kd);
            // Diagonal + super-diagonal entries of column j couple rows lo..=j.
            for i in lo..=j {
                let a = self.ab[(self.kd + i - j) + j * (self.kd + 1)];
                y[i] += a * x[j];
                if i != j {
                    y[j] += a * x[i];
                }
            }
        }
    }

    /// Builds from a dense symmetric matrix, taking bandwidth `kd`.
    ///
    /// # Panics
    /// Panics (in debug) if the dense matrix has entries outside the band.
    pub fn from_dense(a: &ColMajor, kd: usize) -> Self {
        assert_eq!(a.nrows(), a.ncols());
        let n = a.nrows();
        let mut b = Self::zeros(n, kd);
        for j in 0..n {
            for i in 0..n {
                let v = a[(i, j)];
                if i <= j {
                    if j - i <= kd {
                        b.set(i, j, v);
                    } else {
                        debug_assert!(v == 0.0, "entry ({i},{j}) outside band is nonzero");
                    }
                }
            }
        }
        b
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

    #[test]
    fn from_dense_roundtrip() {
        let n = 6;
        let kd = 2;
        let dense = ColMajor::from_fn(n, n, |i, j| {
            let d = i.abs_diff(j);
            if d <= kd {
                1.0 / (1.0 + d as f64) + if i == j { 3.0 } else { 0.0 }
            } else {
                0.0
            }
        });
        let band = BandedSym::from_dense(&dense, kd);
        assert_eq!(band.to_dense(), dense);
    }
}
