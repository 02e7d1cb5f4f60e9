//! Runtime flow statistics — the paper's NekTar-F communication inventory
//! includes "Global Addition, min, max for any runtime flow statistics".
//! This module is the one sampler that drives `nkt_stats::StatsRecorder`
//! from `drive`'s loop, and each solver's probe behind it.
//!
//! The per-sample protocol, [`sample`], is written once for the three
//! solvers and is fixed — see `nkt_stats::series` for why the order
//! matters for restart byte-identity:
//!
//! 1. collect the per-rank MPI counter rows (folds the solver-only
//!    ledger first, so the sampler's own traffic never pollutes it);
//! 2. scan the state for NaN/Inf (collective agreement: every rank
//!    raises the identical typed error);
//! 3. run the solver's probe ([`Simulation::probe`]: collective,
//!    deterministic);
//! 4. push the sample;
//! 5. evaluate the watchdog rules (pure, no communication);
//! 6. re-baseline the recorder past the sampler's traffic.
//!
//! Without a communicator (the serial solver) steps 1 and 6 have nothing
//! to do and the scan's agreement is the rank's own answer. On a watchdog
//! trip each rank dumps its flight-recorder ring
//! (`FLIGHT_<run>_r<rank>.json`) before the typed error propagates out.

use crate::ale::NektarAle;
use crate::drive::{Ctx, Serial, Simulation};
use crate::fourier::{energy_terms, NektarF};
use crate::serial2d::Serial2dSolver;
use nkt_mpi::prelude::*;
use nkt_spectral::Discretization;
use nkt_stats::{check_rules, HealthError, RuleLimits, StatsRecorder};

/// Channels sampled for NekTar-F runs, in column order.
pub const FOURIER_CHANNELS: &[&str] = &[
    "ke", "dissipation", "divergence", "cfl", "umag_min", "umag_max", "umag_mean", "uu", "vv",
    "ww", "uv", "uw", "vw",
];

/// Channels sampled for the serial 2-D solver.
pub const SERIAL2D_CHANNELS: &[&str] = &[
    "ke", "enstrophy", "divergence", "cfl", "umag_min", "umag_max", "umag_mean", "uu", "vv", "uv",
];

/// Channels sampled for NekTar-ALE runs.
pub const ALE_CHANNELS: &[&str] = &["ke", "volume"];

/// What a solver's probe measured: globally reduced, identical on every
/// rank.
pub struct Probe {
    /// One value per channel, in [`Simulation::CHANNELS`] order (`ke`
    /// first).
    pub scalars: Vec<f64>,
    /// The spanwise energy spectrum E_k (empty without a homogeneous
    /// direction).
    pub spectrum: Vec<f64>,
    /// Divergence and CFL number for the watchdog's rules; `None` when
    /// the solver measures neither.
    pub div_cfl: Option<(f64, f64)>,
}

/// Takes one stats sample of `sim` (collective over `ctx`): MPI counter
/// rows, finiteness scan, the solver's probe, watchdog rules. `health`
/// gates the scan and rules; either way the sample is recorded. On a trip
/// this rank dumps its flight ring and the identical typed error returns
/// on every rank.
pub fn sample<S: Simulation>(
    sim: &mut S,
    ctx: &mut S::Ctx,
    rec: &mut StatsRecorder,
    step: u64,
    limits: &RuleLimits,
    health: bool,
) -> Result<(), HealthError> {
    let mpi = ctx.comm().map_or_else(Vec::new, |c| rec.collect(c));
    if health {
        if let Some((rank, f)) = agree_non_finite(ctx, sim.non_finite(), S::FIELDS.len()) {
            return trip(ctx, HealthError::NonFinite { step, rank, field: S::FIELDS[f] });
        }
    }
    let ke_prev = rec.prev_ke();
    let Probe { scalars, spectrum, div_cfl } = sim.probe(ctx);
    let ke = scalars[0];
    rec.push(step, scalars, spectrum, mpi);
    if health {
        let (div, cfl) = div_cfl.unzip();
        if let Err(e) = check_rules(step, limits, ke, ke_prev, div, cfl) {
            return trip(ctx, e);
        }
    }
    if let Some(c) = ctx.comm() {
        rec.rebaseline(c);
    }
    Ok(())
}

/// One serial-2-D sample: [`sample`] without a communicator (the MPI rows
/// are empty).
pub fn sample_serial2d(
    solver: &mut Serial2dSolver,
    rec: &mut StatsRecorder,
    step: u64,
    limits: &RuleLimits,
    health: bool,
) -> Result<(), HealthError> {
    sample(solver, &mut Serial, rec, step, limits, health)
}

/// Agrees on the first non-finite `(rank, field)` of the world, given this
/// rank's first bad field: each rank encodes `rank * nfields + field` (or
/// +∞ when clean) and the world takes the minimum, so every rank raises
/// the **identical** `HealthError::NonFinite` — no rank runs ahead into a
/// later collective while others abort. Without a communicator the rank's
/// own answer stands.
fn agree_non_finite(
    ctx: &mut impl Ctx,
    local: Option<usize>,
    nfields: usize,
) -> Option<(usize, usize)> {
    let Some(comm) = ctx.comm() else { return local.map(|f| (0, f)) };
    let mut code = [local.map_or(f64::INFINITY, |f| (comm.rank() * nfields + f) as f64)];
    comm.allreduce(&mut code, ReduceOp::Min);
    let code = code[0].is_finite().then_some(code[0] as usize)?;
    Some((code / nfields, code % nfields))
}

/// Dumps this rank's flight ring and returns `err`.
fn trip(ctx: &mut impl Ctx, err: HealthError) -> Result<(), HealthError> {
    nkt_trace::flight::dump_current(ctx.rank(), &err.to_string());
    Err(err)
}

/// Running min, max, sum and count of a rank's speed samples |u|, the
/// `umag_*` channels.
#[derive(Clone, Copy)]
pub(crate) struct Speeds {
    min: f64,
    max: f64,
    sum: f64,
    n: usize,
}

impl Default for Speeds {
    fn default() -> Speeds {
        Speeds { min: f64::INFINITY, max: f64::NEG_INFINITY, sum: 0.0, n: 0 }
    }
}

impl Speeds {
    pub fn push(&mut self, speed: f64) {
        self.min = self.min.min(speed);
        self.max = self.max.max(speed);
        self.sum += speed;
        self.n += 1;
    }

    /// `[min, max, mean]` of this rank's samples.
    pub fn local(self) -> [f64; 3] {
        [self.min, self.max, mean(self.sum, self.n as f64)]
    }

    /// `[min, max, mean]` over every rank's samples. One fused
    /// `allreduce_minmaxsum` — bitwise identical to the three separate
    /// allreduces the paper's pattern implies (asserted by
    /// `fused_minmaxsum_bitwise_matches_three_allreduces`), at a third of
    /// the collective count.
    pub fn global(self, comm: &mut Comm) -> [f64; 3] {
        let (mut mn, mut mx, mut sum) = ([self.min], [self.max], [self.sum, self.n as f64]);
        comm.allreduce_minmaxsum(&mut mn, &mut mx, &mut sum);
        [mn[0], mx[0], mean(sum[0], sum[1])]
    }
}

fn mean(sum: f64, n: f64) -> f64 {
    if n > 0.0 {
        sum / n
    } else {
        0.0
    }
}

/// Smallest element length scale sqrt(∫_e 1) of a 2-D mesh — the `h`
/// in the CFL estimate. Rank-identical for NekTar-F's replicated mesh.
fn min_elem_h(disc: &Discretization) -> f64 {
    disc.ops
        .iter()
        .map(|op| op.geom.jw.iter().sum::<f64>().sqrt())
        .fold(f64::INFINITY, f64::min)
}

/// The serial solver's probe, from its one pass over the quadrature
/// points ([`Serial2dSolver::flow_sums`]). No communication.
pub(crate) fn serial2d_probe(solver: &mut Serial2dSolver) -> Probe {
    let f = solver.flow_sums();
    let [umin, umax, umean] = f.speeds.local();
    let cfl = umax * solver.cfg.dt / min_elem_h(&solver.disc);
    let [uu, vv, uv] = f.moments;
    Probe {
        scalars: vec![f.ke, f.enstrophy, f.div, cfl, umin, umax, umean, uu, vv, uv],
        spectrum: Vec::new(),
        div_cfl: Some((f.div, cfl)),
    }
}

/// NekTar-F's probe (collective). One pass over every owned mode's value
/// and gradient planes, each transformed once into the step's scratch,
/// accumulates every channel; four collectives, in a fixed order, reduce
/// them. Pencil grids replicate each mode block over the grid's columns:
/// only primary ranks contribute, or every sum inflates `pc`-fold.
///
/// Per mode k (measure: ∫cos² = ∫sin² = Lz/2 for k>0; ∫1 = Lz for k=0):
/// * energy: [`energy_terms`], summed once over all modes (`ke`) and once
///   per mode (the spectrum E_k);
/// * dissipation ε = ν ∫ Σ_c |∇u_c|², with the spanwise derivative
///   entering as β²(a² + b²);
/// * divergence planes: cos = ∂x u_a + ∂y v_a + β w_b,
///   sin = ∂x u_b + ∂y v_b − β w_a (∂z of `a cos βz + b sin βz` is
///   `βb cos βz − βa sin βz`);
/// * Reynolds moments ⟨u_i u_j⟩: cross-mode z-integrals vanish, so mode
///   k contributes `a_i a_j + b_i b_j` under its measure; normalised by
///   the volume V = Lz · area;
/// * speeds |u_plane| = sqrt(Σ_c plane_c²) at every point of every cos
///   and sin plane.
pub(crate) fn fourier_probe(solver: &mut NektarF, comm: &mut Comm) -> Probe {
    let (lz, nu, nq) = (solver.cfg.lz, solver.cfg.nu, solver.disc.nquad_total());
    let mut ke = [0.0];
    let mut spectrum = vec![0.0; solver.cfg.nz / 2];
    let mut buf = [0.0f64; 8]; // [eps, div², uu, vv, ww, uv, uw, vw]
    let mut speeds = Speeds::default();
    let owned = if solver.is_primary() { solver.my_modes.len() } else { 0 };
    let disc = solver.disc.clone();
    for mi in 0..owned {
        let k = solver.my_modes.start + mi;
        let (beta, measure) = (solver.beta(k), if k == 0 { lz } else { 0.5 * lz });
        let (vals, grad) = solver.quad_planes(mi, true);
        for t in energy_terms(&disc, lz, k, vals) {
            ke[0] += t;
            spectrum[k] += t;
        }
        // Plane i = 2c + (0 cos | 1 sin) of component c, at point p.
        let (gx, gy) = grad.split_at(6 * nq);
        let at = |planes: &[f64], c: usize, ab: usize, p: usize| planes[(2 * c + ab) * nq + p];
        for (p, jw) in disc.quad_weights().enumerate() {
            let w = jw * measure;
            let [qa, qb] = [0, 1].map(|ab| [0, 1, 2].map(|c| at(vals, c, ab, p)));
            let [gxa, gxb] = [0, 1].map(|ab| [0, 1, 2].map(|c| at(gx, c, ab, p)));
            let [gya, gyb] = [0, 1].map(|ab| [0, 1, 2].map(|c| at(gy, c, ab, p)));
            let mut grad2 = 0.0;
            for c in 0..3 {
                grad2 += gxa[c] * gxa[c] + gya[c] * gya[c];
                grad2 += gxb[c] * gxb[c] + gyb[c] * gyb[c];
                grad2 += beta * beta * (qa[c] * qa[c] + qb[c] * qb[c]);
            }
            buf[0] += nu * w * grad2;
            let div_a = gxa[0] + gya[1] + beta * qb[2];
            let div_b = gxb[0] + gyb[1] - beta * qa[2];
            buf[1] += w * (div_a * div_a + div_b * div_b);
            let pair = |i: usize, j: usize| qa[i] * qa[j] + qb[i] * qb[j];
            let pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)];
            for (b, (i, j)) in buf[2..].iter_mut().zip(pairs) {
                *b += w * pair(i, j);
            }
            for q in [qa, qb] {
                speeds.push((q[0] * q[0] + q[1] * q[1] + q[2] * q[2]).sqrt());
            }
        }
    }
    comm.allreduce(&mut ke, ReduceOp::Sum);
    comm.allreduce(&mut spectrum, ReduceOp::Sum);
    comm.allreduce(&mut buf, ReduceOp::Sum);
    let [umin, umax, umean] = speeds.global(comm);
    // Σ jw of the (replicated) 2-D cross-section, element by element.
    let area: f64 = disc.ops.iter().map(|op| op.geom.jw.iter().sum::<f64>()).sum();
    let [uu, vv, ww, uv, uw, vw] = std::array::from_fn(|i| buf[2 + i] / (lz * area));
    let (eps, div) = (buf[0], buf[1].sqrt());
    let cfl = umax * solver.cfg.dt / min_elem_h(&disc);
    Probe {
        scalars: vec![ke[0], eps, div, cfl, umin, umax, umean, uu, vv, ww, uv, uw, vw],
        spectrum,
        div_cfl: Some((div, cfl)),
    }
}

/// NekTar-ALE's probe (collective): kinetic energy and the mesh volume,
/// the ALE invariant.
pub(crate) fn ale_probe(solver: &mut NektarAle, comm: &mut Comm) -> Probe {
    let ke = solver.kinetic_energy(comm);
    let volume = solver.total_volume(comm);
    Probe { scalars: vec![ke, volume], spectrum: Vec::new(), div_cfl: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fourier::FourierConfig;
    use nkt_mesh::rect_quads;
    use nkt_net::{cluster, NetId};

    fn run<R: Send, F: Fn(&mut Comm) -> R + Sync>(
        p: usize,
        net: nkt_net::ClusterNetwork,
        f: F,
    ) -> Vec<R> {
        World::builder().ranks(p).net(net).run(f)
    }

    #[test]
    fn min_max_mean_across_ranks() {
        let out = run(4, cluster(NetId::T3e), |c| {
            let r = c.rank() as f64;
            let mut speeds = Speeds::default();
            speeds.push(r);
            speeds.push(r + 10.0);
            speeds.global(c)
        });
        for &[mn, mx, mean] in &out {
            assert_eq!(mn, 0.0);
            assert_eq!(mx, 13.0);
            // Values: 0,10,1,11,2,12,3,13 -> mean 6.5.
            assert!((mean - 6.5).abs() < 1e-12);
        }
    }

    #[test]
    fn fused_minmaxsum_bitwise_matches_three_allreduces() {
        // The fused collective must traverse the identical reduction tree
        // as three separate allreduces — same operand order, same
        // rounding, bitwise-equal results on every rank.
        let out = run(4, cluster(NetId::T3e), |c| {
            let r = c.rank() as f64;
            // Deliberately awkward values: rounding-sensitive sums.
            let local = [0.1 * r + 0.3, r * 1e-13 + 1.0 / 3.0, -r, 7.77 / (r + 1.0)];
            let mut mn = [local.iter().copied().fold(f64::INFINITY, f64::min)];
            let mut mx = [local.iter().copied().fold(f64::NEG_INFINITY, f64::max)];
            let mut sum = [local.iter().sum::<f64>(), local.len() as f64];
            let (fmn, fmx, fsum) = {
                let mut a = mn;
                let mut b = mx;
                let mut s = sum;
                c.allreduce_minmaxsum(&mut a, &mut b, &mut s);
                (a[0], b[0], s)
            };
            c.allreduce(&mut mn, ReduceOp::Min);
            c.allreduce(&mut mx, ReduceOp::Max);
            c.allreduce(&mut sum, ReduceOp::Sum);
            (
                fmn.to_bits() == mn[0].to_bits(),
                fmx.to_bits() == mx[0].to_bits(),
                fsum[0].to_bits() == sum[0].to_bits() && fsum[1].to_bits() == sum[1].to_bits(),
            )
        });
        for &(mn_ok, mx_ok, sum_ok) in &out {
            assert!(mn_ok && mx_ok && sum_ok, "fused allreduce diverged from separate ops");
        }
    }

    fn mesh() -> nkt_mesh::Mesh2d {
        rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2)
    }

    fn cfg() -> FourierConfig {
        FourierConfig {
            order: 3,
            dt: 1e-3,
            nu: 0.05,
            nz: 8,
            lz: 2.0 * std::f64::consts::PI,
            scheme_order: 2,
        }
    }

    fn psi_field(x: [f64; 3]) -> [f64; 3] {
        let pi = std::f64::consts::PI;
        let (sx, cx) = (pi * x[0]).sin_cos();
        let (sy, cy) = (pi * x[1]).sin_cos();
        let env = 1.0 + 0.5 * x[2].cos() + 0.25 * (2.0 * x[2]).sin();
        [
            2.0 * pi * sx * sx * sy * cy * env,
            -2.0 * pi * sx * cx * sy * sy * env,
            0.0,
        ]
    }

    #[test]
    fn spectrum_sums_to_total_energy() {
        let mesh = mesh();
        let cfg = cfg();
        let out = run(2, cluster(NetId::T3e), move |c| {
            let mut s = NektarF::new(c, &mesh, cfg.clone());
            s.set_initial(psi_field);
            let spec = s.probe(c).spectrum;
            let total = s.kinetic_energy(c);
            (spec, total)
        });
        for (spec, total) in &out {
            let sum: f64 = spec.iter().sum();
            assert!(
                (sum - total).abs() < 1e-9 * (1.0 + total),
                "spectrum sum {sum} vs total {total}"
            );
            // Modes 0, 1, 2 carry energy; mode 3 does not.
            assert!(spec[0] > 0.0 && spec[1] > 0.0 && spec[2] > 0.0);
            assert!(spec[3].abs() < 1e-12 * (1.0 + total));
        }
    }

    #[test]
    fn fourier_probes_match_reference_physics() {
        // On a divergence-free field the divergence channel sits at the
        // splitting-error floor, dissipation is positive, and the
        // diagonal Reynolds stresses are non-negative with uu + vv + ww
        // recovering 2·KE / V.
        let mesh = mesh();
        let cfg = cfg();
        let out = run(2, cluster(NetId::T3e), move |c| {
            let mut s = NektarF::new(c, &mesh, cfg.clone());
            s.set_initial(psi_field);
            let probe = s.probe(c);
            let channel = |name| {
                let i = FOURIER_CHANNELS.iter().position(|&ch| ch == name).expect("a channel");
                probe.scalars[i]
            };
            let (eps, div) = (channel("dissipation"), channel("divergence"));
            let m = [channel("uu"), channel("vv"), channel("ww")];
            let ke = s.kinetic_energy(c);
            (eps, div, m, ke, s.cfg.lz)
        });
        for (eps, div, m, ke, lz) in &out {
            assert!(*eps > 0.0, "dissipation {eps}");
            // The analytic field is divergence-free; the projected one
            // carries only projection error, so its divergence must be
            // small *relative to the gradient norm* ‖∇u‖ = sqrt(ε/ν).
            let grad_norm = (eps / 0.05).sqrt();
            assert!(
                *div < 0.02 * grad_norm,
                "divergence {div} not small vs gradient norm {grad_norm}"
            );
            assert!(m[0] >= 0.0 && m[1] >= 0.0 && m[2] >= 0.0);
            let vol = lz * 1.0; // unit-square cross-section
            let trace = m[0] + m[1] + m[2];
            assert!(
                (trace - 2.0 * ke / vol).abs() < 1e-9 * (1.0 + trace),
                "tr(uu) {trace} vs 2·KE/V {}",
                2.0 * ke / vol
            );
        }
    }

    #[test]
    fn sample_fourier_records_channels_and_respects_pencil_primaries() {
        // The same physical state sampled on a slab (2 ranks) and a 4×2
        // pencil grid must produce identical global scalars — primary
        // gating keeps replicas from inflating mode sums.
        let mesh = mesh();
        let cfg = cfg();
        let sample_with = |p: usize, pr: usize, pc: usize| -> Vec<f64> {
            let mesh = mesh.clone();
            let cfg = cfg.clone();
            run(p, cluster(NetId::T3e), move |c| {
                let mut s =
                    NektarF::try_new_with_grid(c, &mesh, cfg.clone(), pr, pc).unwrap();
                s.set_initial(psi_field);
                let mut rec = StatsRecorder::new(FOURIER_CHANNELS.to_vec(), 1, c.size());
                sample(&mut s, c, &mut rec, 1, &RuleLimits::default(), true).unwrap();
                rec.samples()[0].scalars.clone()
            })[0]
            .clone()
        };
        let slab = sample_with(2, 2, 1);
        let pencil = sample_with(8, 4, 2);
        assert_eq!(slab.len(), FOURIER_CHANNELS.len());
        for (i, (a, b)) in slab.iter().zip(&pencil).enumerate() {
            assert!(
                (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
                "channel {} differs: slab {a} vs pencil {b}",
                FOURIER_CHANNELS[i]
            );
        }
    }

    #[test]
    fn nan_in_state_raises_identical_typed_error_on_all_ranks() {
        let mesh = mesh();
        let cfg = cfg();
        let out = run(2, cluster(NetId::T3e), move |c| {
            let mut s = NektarF::new(c, &mesh, cfg.clone());
            s.set_initial(psi_field);
            if c.rank() == 1 {
                s.fields[0][1].a[0] = f64::NAN; // v-field on rank 1
            }
            let mut rec = StatsRecorder::new(FOURIER_CHANNELS.to_vec(), 1, c.size());
            sample(&mut s, c, &mut rec, 7, &RuleLimits::default(), true)
        });
        for r in &out {
            match r {
                Err(HealthError::NonFinite { step, rank, field }) => {
                    assert_eq!(*step, 7);
                    assert_eq!(*rank, 1);
                    assert_eq!(*field, "v");
                }
                other => panic!("expected NonFinite on every rank, got {other:?}"),
            }
        }
    }

    #[test]
    fn serial_sampler_fills_all_channels() {
        use crate::serial2d::SolverConfig;
        let scfg = SolverConfig { order: 4, dt: 1e-3, nu: 0.05, scheme_order: 2, advect: true };
        let mut s = Serial2dSolver::new(mesh(), scfg, |_| 0.0, |_| 0.0);
        let pi = std::f64::consts::PI;
        s.set_initial(
            move |x| (pi * x[0]).sin() * (pi * x[1]).cos(),
            move |x| -(pi * x[0]).cos() * (pi * x[1]).sin(),
        );
        let mut rec = StatsRecorder::new(SERIAL2D_CHANNELS.to_vec(), 1, 1);
        sample_serial2d(&mut s, &mut rec, 1, &RuleLimits::default(), true).unwrap();
        let sample = &rec.samples()[0];
        assert_eq!(sample.scalars.len(), SERIAL2D_CHANNELS.len());
        let ke = rec.accum("ke").unwrap().mean;
        assert!(ke > 0.0);
        let umax = rec.accum("umag_max").unwrap().mean;
        let umin = rec.accum("umag_min").unwrap().mean;
        assert!(umax >= umin && umin >= 0.0);
        // Serial watchdog trips on an injected NaN naming the field.
        s.u[0] = f64::NAN;
        let err = sample_serial2d(&mut s, &mut rec, 2, &RuleLimits::default(), true).unwrap_err();
        assert!(matches!(err, HealthError::NonFinite { step: 2, rank: 0, field: "u" }), "{err}");
    }
}
