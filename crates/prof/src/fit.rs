//! Deterministic least-squares calibration fits.
//!
//! * **α–β channel fits**: every `mpi.p2p.send` span records its payload
//!   size and modeled `arrival` time; `arrival − vt1` is the wire part
//!   (latency + bytes/bandwidth + any link queueing), so a linear fit of
//!   that delay against bytes recovers the effective latency (α, µs) and
//!   bandwidth (β, MB/s) the run actually experienced — emitted next to
//!   the static `nkt-net` channel constants.
//! * **Kernel family fits**: the paper's Figures 1–6 sweeps all follow
//!   `r(n) ≈ R∞ · n / (n + n½)` (sustained rate saturating at R∞ with
//!   half-performance size n½, Hockney's form). Fitting the workspace's
//!   roofline model curves onto that form compresses each machine×kernel
//!   pair into two numbers comparable against measured host sweeps.
//!
//! Both fits run over fixed sample grids / deterministic span streams
//! with fixed summation order, so their outputs serialize byte-stably.

use nkt_machine::{Kernel, Machine};
use nkt_net::Channel;
use crate::model::PRank;

/// Least-squares line `y = intercept + slope·x`. Returns `None` when
/// there are fewer than two samples or no spread in x.
fn lsq_line(xs: &[f64], ys: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return None;
    }
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    let det = n * sxx - sx * sx;
    if det.abs() < 1e-12 * sxx.max(1.0) {
        return None;
    }
    let slope = (n * sxy - sx * sy) / det;
    let intercept = (sy - slope * sx) / n;
    Some((intercept, slope))
}

/// A fitted α–β point-to-point channel.
#[derive(Debug, Clone)]
pub struct AlphaBetaFit {
    /// Channel label (`p2p` — all point-to-point traffic of the run).
    pub channel: String,
    /// Messages the fit saw.
    pub samples: u64,
    /// Fitted one-way latency, microseconds.
    pub alpha_us: f64,
    /// Fitted asymptotic bandwidth, MB/s (0 when the run's message
    /// sizes had no spread to fit a slope from).
    pub beta_mbs: f64,
    /// Worst fit residual, microseconds (link queueing shows up here).
    pub max_resid_us: f64,
    /// Static `nkt-net` catalog constants for the run's network
    /// (`None` when the run name names no catalog entry).
    pub static_alpha_us: Option<f64>,
    pub static_beta_mbs: Option<f64>,
}

/// Fits one α–β channel over every p2p send in the run. The sample
/// stream (bytes, arrival − vt1) is deterministic — both numbers live on
/// the virtual timeline.
pub fn alpha_beta_fit(ranks: &[PRank], statics: Option<&Channel>) -> Option<AlphaBetaFit> {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for r in ranks {
        for s in &r.spans {
            if s.cat != "mpi.p2p.send" {
                continue;
            }
            let (Some(bytes), Some(arrival)) = (s.arg("bytes"), s.arg("arrival")) else {
                continue;
            };
            if !s.vt1.is_finite() {
                continue;
            }
            xs.push(bytes);
            ys.push((arrival - s.vt1) * 1e6);
        }
    }
    if xs.is_empty() {
        return None;
    }
    // y_us = α_us + bytes/β_mbs: with β in MB/s (1e6 B/s), the wire term
    // for `bytes` payload is exactly `bytes/β` microseconds.
    let (alpha_us, beta_mbs, max_resid_us) = match lsq_line(&xs, &ys) {
        Some((a, b)) if b > 0.0 => {
            let resid = xs
                .iter()
                .zip(&ys)
                .map(|(x, y)| (y - (a + b * x)).abs())
                .fold(0.0f64, f64::max);
            (a, 1.0 / b, resid)
        }
        _ => {
            // Uniform message size (or a flat line): no slope to invert —
            // report the mean delay as pure latency.
            let mean = ys.iter().sum::<f64>() / ys.len() as f64;
            let resid = ys.iter().map(|y| (y - mean).abs()).fold(0.0f64, f64::max);
            (mean, 0.0, resid)
        }
    };
    Some(AlphaBetaFit {
        channel: "p2p".to_string(),
        samples: xs.len() as u64,
        alpha_us,
        beta_mbs,
        max_resid_us,
        static_alpha_us: statics.map(|c| c.latency_us),
        static_beta_mbs: statics.map(|c| c.bandwidth_mbs),
    })
}

/// A kernel family's model curve compressed to Hockney form.
#[derive(Debug, Clone)]
pub struct KernelFit {
    /// Family name (`dcopy` ... `dgemm`).
    pub kernel: &'static str,
    /// `mbs` for dcopy, `mflops` for the rest.
    pub unit: &'static str,
    /// Asymptotic sustained rate R∞.
    pub r_inf: f64,
    /// Half-performance operand size n½.
    pub n_half: f64,
    /// Grid points fitted.
    pub points: u64,
    /// Worst relative error of the Hockney form against the model curve.
    pub max_rel_err: f64,
}

/// The fixed operand-size grid per family (vector lengths for level 1,
/// square dimensions for level 2/3) — the paper's Figures 1–6 x-axes.
pub fn fit_grid(k: Kernel) -> &'static [usize] {
    match k {
        Kernel::Dcopy | Kernel::Daxpy | Kernel::Ddot => {
            &[256, 1024, 4096, 16384, 65536, 262144, 1048576]
        }
        Kernel::Dgemv => &[16, 32, 64, 128, 256, 512],
        Kernel::Dgemm => &[4, 8, 16, 32, 64, 128, 256],
    }
}

fn model_rate(m: &Machine, k: Kernel, n: usize) -> f64 {
    let p = m.kernel_rate(k, n);
    if k == Kernel::Dcopy {
        p.mbs
    } else {
        p.mflops
    }
}

/// Fits `r(n) = R∞·n/(n + n½)` to the machine-model curve of every
/// kernel family via the linearization `1/r = 1/R∞ + (n½/R∞)·(1/n)`.
pub fn kernel_fits(m: &Machine) -> Vec<KernelFit> {
    Kernel::ALL
        .iter()
        .map(|&k| {
            let grid = fit_grid(k);
            let rates: Vec<f64> = grid.iter().map(|&n| model_rate(m, k, n)).collect();
            let xs: Vec<f64> = grid.iter().map(|&n| 1.0 / n as f64).collect();
            let ys: Vec<f64> = rates.iter().map(|&r| 1.0 / r.max(1e-9)).collect();
            let (r_inf, n_half) = match lsq_line(&xs, &ys) {
                Some((c0, c1)) if c0 > 0.0 => (1.0 / c0, (c1 / c0).max(0.0)),
                _ => (rates.iter().fold(0.0f64, |a, &b| a.max(b)), 0.0),
            };
            let max_rel_err = grid
                .iter()
                .zip(&rates)
                .map(|(&n, &r)| {
                    let fit = r_inf * n as f64 / (n as f64 + n_half);
                    if r > 0.0 {
                        (fit - r).abs() / r
                    } else {
                        0.0
                    }
                })
                .fold(0.0f64, f64::max);
            KernelFit {
                kernel: k.name(),
                unit: if k == Kernel::Dcopy { "mbs" } else { "mflops" },
                r_inf,
                n_half,
                points: grid.len() as u64,
                max_rel_err,
            }
        })
        .collect()
}

/// One measured host operating point (report only — host timings are
/// not deterministic and never serialize).
#[derive(Debug, Clone)]
pub struct HostPoint {
    pub kernel: &'static str,
    pub n: usize,
    /// Measured host rate (MB/s for dcopy, Mflop/s otherwise).
    pub measured: f64,
    /// The modeled machine's predicted rate at the same size.
    pub modeled: f64,
}

/// Runs a small native BLAS sweep — one mid-grid size per Figure 1–6
/// family — and pairs each measured host rate with the machine-model
/// prediction, so the report can print a measured-vs-modeled ratio for
/// every family.
pub fn host_sweep(m: &Machine) -> Vec<HostPoint> {
    use nkt_blas::{daxpy, dcopy, ddot, dgemm, dgemv, Trans};
    use std::time::Instant;

    let mut out = Vec::new();
    let mut point = |k: Kernel, n: usize, flops_or_bytes: f64, reps: usize, run: &mut dyn FnMut()| {
        run(); // warm caches and the allocator before timing
        let t0 = Instant::now();
        for _ in 0..reps {
            run();
        }
        let secs = t0.elapsed().as_secs_f64().max(1e-9) / reps as f64;
        out.push(HostPoint {
            kernel: k.name(),
            n,
            measured: flops_or_bytes / secs / 1e6,
            modeled: model_rate(m, k, n),
        });
    };

    let n1 = 65536usize;
    let x = vec![1.0f64; n1];
    let mut y = vec![2.0f64; n1];
    point(Kernel::Dcopy, n1, 16.0 * n1 as f64, 64, &mut || dcopy(&x, &mut y));
    point(Kernel::Daxpy, n1, 2.0 * n1 as f64, 64, &mut || daxpy(1.0e-9, &x, &mut y));
    let mut acc = 0.0f64;
    point(Kernel::Ddot, n1, 2.0 * n1 as f64, 64, &mut || acc += ddot(&x, &y));
    std::hint::black_box(acc);

    let n2 = 128usize;
    let a = vec![1.0e-3f64; n2 * n2];
    let xv = vec![1.0f64; n2];
    let mut yv = vec![0.0f64; n2];
    point(Kernel::Dgemv, n2, 2.0 * (n2 * n2) as f64, 32, &mut || {
        dgemv(Trans::No, n2, n2, 1.0, &a, n2, &xv, 0.0, &mut yv)
    });

    let n3 = 64usize;
    let ga = vec![1.0e-3f64; n3 * n3];
    let gb = vec![1.0e-3f64; n3 * n3];
    let mut gc = vec![0.0f64; n3 * n3];
    point(Kernel::Dgemm, n3, 2.0 * (n3 * n3 * n3) as f64, 8, &mut || {
        dgemm(Trans::No, Trans::No, n3, n3, n3, 1.0, &ga, n3, &gb, n3, 0.0, &mut gc, n3)
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nkt_machine::{machine, MachineId};
    use crate::model::{PRank, PSpan};

    fn send(bytes: f64, vt1: f64, arrival: f64) -> PSpan {
        PSpan {
            name: "send".to_string(),
            cat: "mpi.p2p.send".to_string(),
            dur_s: f64::NAN,
            vt0: vt1 - 1e-6,
            vt1,
            depth: 0,
            args: vec![("bytes".to_string(), bytes), ("arrival".to_string(), arrival)],
        }
    }

    #[test]
    fn alpha_beta_recovers_a_clean_channel() {
        // Synthesize sends through an exact α = 50 µs, β = 100 MB/s
        // channel: delay_us = 50 + bytes/100.
        let spans = (1..=6)
            .map(|i| {
                let bytes = (i * 10_000) as f64;
                send(bytes, i as f64, i as f64 + (50.0 + bytes / 100.0) * 1e-6)
            })
            .collect();
        let fit = alpha_beta_fit(&[PRank { rank: 0, spans }], None).unwrap();
        assert_eq!(fit.samples, 6);
        assert!((fit.alpha_us - 50.0).abs() < 1e-3, "alpha {}", fit.alpha_us);
        assert!((fit.beta_mbs - 100.0).abs() < 1e-3, "beta {}", fit.beta_mbs);
        assert!(fit.max_resid_us < 1e-3);
    }

    #[test]
    fn alpha_beta_degenerates_to_latency_on_uniform_sizes() {
        let spans = (1..=4).map(|i| send(8.0, i as f64, i as f64 + 20e-6)).collect();
        let fit = alpha_beta_fit(&[PRank { rank: 0, spans }], None).unwrap();
        assert_eq!(fit.beta_mbs, 0.0);
        assert!((fit.alpha_us - 20.0).abs() < 1e-6);
    }

    #[test]
    fn kernel_fits_cover_all_figure_families_and_track_the_model() {
        let m = machine(MachineId::RoadRunner);
        let fits = kernel_fits(&m);
        let names: Vec<&str> = fits.iter().map(|f| f.kernel).collect();
        assert_eq!(names, vec!["dcopy", "daxpy", "ddot", "dgemv", "dgemm"]);
        for f in &fits {
            assert!(f.r_inf > 0.0, "{}: nonpositive R_inf", f.kernel);
            assert!(f.n_half >= 0.0);
            // The roofline curves are cache-laddered, not exactly
            // Hockney-shaped; the two-parameter fit is a summary, so
            // give it a loose but bounded band.
            assert!(f.max_rel_err < 1.5, "{}: rel err {}", f.kernel, f.max_rel_err);
        }
    }
}
