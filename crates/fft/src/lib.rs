//! # nkt-fft — fast Fourier transforms for the Fourier-parallel solver
//!
//! NekTar-F (paper §4.2.1) resolves the homogeneous spanwise direction
//! with Fourier modes: its nonlinear step performs "Nxy 1D inverse FFTs
//! for each velocity component" between two `MPI_Alltoall` transposes.
//! This crate provides those transforms:
//!
//! * [`Complex64`] — a minimal complex type (no external dependency).
//! * [`FftPlan`] — precomputed twiddle factors + bit-reversal permutation
//!   for an iterative radix-2 Cooley-Tukey transform; arbitrary sizes fall
//!   back to Bluestein's algorithm (chirp-z via a padded power-of-two FFT).
//! * [`RealFft`] — real-to-half-complex transforms using the N/2 complex
//!   packing trick, the layout NekTar-F stores its Fourier planes in
//!   ("the real and imaginary parts of a Fourier mode share the same
//!   matrices").
//! * The lane batch for the Nxy-many transforms per step:
//!   [`RealFft::forward_lanes`] / [`RealFft::inverse_lanes`] run `L`
//!   signals as the lanes of one vector, in caller scratch, each lane bit
//!   for bit the one-signal transform. The transform body is written once,
//!   generic over `L`; the slice forms are its `L = 1` instance.

#![allow(clippy::needless_range_loop)]
#![allow(clippy::too_many_arguments)]
mod complex;
mod plan;
mod real;

pub use complex::Complex64;
pub use plan::FftPlan;
pub use real::RealFft;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_api_smoke() {
        let plan = FftPlan::new(8);
        let mut data: Vec<Complex64> = (0..8).map(|i| Complex64::new(i as f64, 0.0)).collect();
        let orig = data.clone();
        plan.forward(&mut data);
        plan.inverse(&mut data);
        for (a, b) in data.iter().zip(&orig) {
            assert!((a.re - b.re).abs() < 1e-12 && (a.im - b.im).abs() < 1e-12);
        }
    }
}
