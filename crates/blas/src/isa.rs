//! The one instruction-set seam: a kernel body compiled twice, once for
//! the portable target and once with AVX2 enabled, and run in whichever
//! build the host supports.
//!
//! A kernel is a value implementing [`Kernel`] whose `run` is
//! `#[inline(always)]`. [`dispatch`] calls it directly (the portable build)
//! or inside `run_avx2`, a `#[target_feature(enable = "avx2")]` function,
//! so each build inlines its own copy of the body (LLVM does not inline a
//! body across the target-feature boundary on its own). The
//! feature check is std's cached feature word, read in one place,
//! [`Isa::host`]. Only `avx2` is enabled — not `fma`, not AVX-512 — and
//! Rust emits no floating-point contraction and LLVM keeps the source's
//! operation order without fast-math, so the two builds of a body give
//! the same bits: only the vector width differs. [`Isa::available`] and
//! [`Isa::run`] let a test hold the builds to each other.

/// A kernel body the seam compiles once per instruction set. Implement
/// `run` with `#[inline(always)]`: without it the AVX2 trampoline calls a
/// baseline build.
pub trait Kernel {
    /// What the body returns.
    type Output;
    /// The body.
    fn run(self) -> Self::Output;
}

/// An instruction set a [`Kernel`] is compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// The target's baseline (SSE2 on x86-64).
    Portable,
    /// x86-64 with AVX2: four f64 lanes to a ymm register.
    Avx2,
}

impl Isa {
    /// The widest instruction set this host runs.
    #[inline]
    pub fn host() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
        Isa::Portable
    }

    /// Every instruction set this host runs, portable first.
    pub fn available() -> Vec<Isa> {
        let mut isas = vec![Isa::Portable];
        if Isa::host() == Isa::Avx2 {
            isas.push(Isa::Avx2);
        }
        isas
    }

    /// Runs `kernel` compiled for `self`.
    ///
    /// # Panics
    /// If `self` is [`Isa::Avx2`] and the host does not support it.
    /// Inlined, so that a caller that has matched on `self` builds only
    /// the arm it takes.
    #[inline(always)]
    pub fn run<K: Kernel>(self, kernel: K) -> K::Output {
        match self {
            Isa::Portable => kernel.run(),
            Isa::Avx2 => {
                assert!(Isa::host() == Isa::Avx2, "this host has no AVX2");
                #[cfg(target_arch = "x86_64")]
                // SAFETY: the host supports AVX2, asserted above.
                return unsafe { run_avx2(kernel) };
                #[cfg(not(target_arch = "x86_64"))]
                unreachable!()
            }
        }
    }
}

/// Runs `kernel` in the widest build the host supports.
#[inline]
pub fn dispatch<K: Kernel>(kernel: K) -> K::Output {
    Isa::host().run(kernel)
}

/// The AVX2 build of `kernel`'s body.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<K: Kernel>(kernel: K) -> K::Output {
    kernel.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sum<'a>(&'a [f64]);

    impl Kernel for Sum<'_> {
        type Output = f64;
        #[inline(always)]
        fn run(self) -> f64 {
            self.0.iter().sum()
        }
    }

    #[test]
    fn every_available_build_runs_the_body() {
        let x = [0.5, 1.25, -2.0];
        assert_eq!(Isa::available()[0], Isa::Portable);
        for isa in Isa::available() {
            assert_eq!(isa.run(Sum(&x)), -0.25, "{isa:?}");
        }
        assert_eq!(dispatch(Sum(&x)), -0.25);
    }
}
