//! Minimal double-precision complex number (keeps the crate
//! dependency-free; only the operations the transforms need).

use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components, laid out as `[re, im]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// Zero.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates `re + im·i`.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// e^{iθ} = cos θ + i sin θ.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Self { re: c, im: s }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self { re: self.re, im: -self.im }
    }

    /// Squared magnitude |z|².
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude |z|.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Self { re: self.re * s, im: self.im * s }
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, o: Complex64) -> Complex64 {
        Complex64::new(self.re + o.re, self.im + o.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, o: Complex64) -> Complex64 {
        Complex64::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, o: Complex64) -> Complex64 {
        Complex64::new(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, o: Complex64) -> Complex64 {
        let d = o.norm_sqr();
        Complex64::new(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, o: Complex64) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, o: Complex64) {
        self.re -= o.re;
        self.im -= o.im;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, o: Complex64) {
        *self = *self * o;
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Complex64::new(re, 0.0)
    }
}

/// `L` complex numbers as split re/im lanes, the value type of the lane
/// transform body: every operation is [`Complex64`]'s, lane by lane.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lanes<const L: usize> {
    pub(crate) re: [f64; L],
    pub(crate) im: [f64; L],
}

impl<const L: usize> Lanes<L> {
    /// Entry `j` of split storage.
    #[inline(always)]
    pub(crate) fn at(re: &[[f64; L]], im: &[[f64; L]], j: usize) -> Self {
        Lanes { re: re[j], im: im[j] }
    }

    /// Stores into entry `j` of split storage.
    #[inline(always)]
    pub(crate) fn put(self, re: &mut [[f64; L]], im: &mut [[f64; L]], j: usize) {
        (re[j], im[j]) = (self.re, self.im);
    }

    /// Complex conjugate.
    #[inline(always)]
    pub(crate) fn conj(self) -> Self {
        Lanes { re: self.re, im: neg(self.im) }
    }

    /// Scales by a real factor.
    #[inline(always)]
    pub(crate) fn scale(self, s: f64) -> Self {
        Lanes {
            re: core::array::from_fn(|l| self.re[l] * s),
            im: core::array::from_fn(|l| self.im[l] * s),
        }
    }

    /// `(-im, re)`: multiplied by `i`.
    #[inline(always)]
    pub(crate) fn times_i(self) -> Self {
        Lanes { re: neg(self.im), im: self.re }
    }

    /// `(im, -re)`: divided by `i`.
    #[inline(always)]
    pub(crate) fn over_i(self) -> Self {
        Lanes { re: self.im, im: neg(self.re) }
    }
}

/// Each lane negated (`array::map` is not inlined across codegen units).
#[inline(always)]
pub(crate) fn neg<const L: usize>(v: [f64; L]) -> [f64; L] {
    core::array::from_fn(|l| -v[l])
}

impl<const L: usize> Add for Lanes<L> {
    type Output = Self;
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        Lanes {
            re: core::array::from_fn(|l| self.re[l] + o.re[l]),
            im: core::array::from_fn(|l| self.im[l] + o.im[l]),
        }
    }
}

impl<const L: usize> Sub for Lanes<L> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        Lanes {
            re: core::array::from_fn(|l| self.re[l] - o.re[l]),
            im: core::array::from_fn(|l| self.im[l] - o.im[l]),
        }
    }
}

/// Lanes times one complex factor, as `Complex64 * Complex64` per lane.
impl<const L: usize> Mul<Complex64> for Lanes<L> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, o: Complex64) -> Self {
        Lanes {
            re: core::array::from_fn(|l| self.re[l] * o.re - self.im[l] * o.im),
            im: core::array::from_fn(|l| self.re[l] * o.im + self.im[l] * o.re),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(3.0, -4.0);
        assert_eq!(z + Complex64::ZERO, z);
        assert_eq!(z * Complex64::ONE, z);
        assert_eq!(z - z, Complex64::ZERO);
        assert_eq!(Complex64::I * Complex64::I, Complex64::new(-1.0, 0.0));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex64::new(1.5, 2.5);
        let b = Complex64::new(-0.7, 0.2);
        let c = a * b / b;
        assert!((c.re - a.re).abs() < 1e-14 && (c.im - a.im).abs() < 1e-14);
    }

    #[test]
    fn abs_and_norm() {
        let z = Complex64::new(3.0, 4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
    }

    #[test]
    fn cis_is_unit_circle() {
        for k in 0..8 {
            let th = k as f64 * 0.9;
            let z = Complex64::cis(th);
            assert!((z.abs() - 1.0).abs() < 1e-15);
            assert!((z.re - th.cos()).abs() < 1e-15);
        }
    }

    #[test]
    fn conj_properties() {
        let a = Complex64::new(2.0, 3.0);
        let b = Complex64::new(-1.0, 0.5);
        let lhs = (a * b).conj();
        let rhs = a.conj() * b.conj();
        assert!((lhs.re - rhs.re).abs() < 1e-15 && (lhs.im - rhs.im).abs() < 1e-15);
    }
}
