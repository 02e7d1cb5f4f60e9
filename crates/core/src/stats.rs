//! Runtime flow statistics — the paper's NekTar-F communication inventory
//! includes "Global Addition, min, max for any runtime flow statistics"
//! and "Gather, for possible tracking of flow variables during on-the-fly
//! analysis of data". This module provides those diagnostics for the
//! solvers, plus the sampling glue that drives `nkt_stats::StatsRecorder`
//! from the step loops.
//!
//! The per-sample protocol (`sample_fourier` / `sample_serial2d` /
//! `sample_ale`) is fixed — see `nkt_stats::series` for why the order
//! matters for restart byte-identity:
//!
//! 1. collect the per-rank MPI counter rows (folds the solver-only
//!    ledger first, so the sampler's own traffic never pollutes it);
//! 2. scan the state for NaN/Inf (collective agreement: every rank
//!    raises the identical typed error);
//! 3. run the physics probes (collective, deterministic);
//! 4. push the sample;
//! 5. evaluate the watchdog rules (pure, no communication);
//! 6. re-baseline the recorder past the sampler's traffic.
//!
//! On a watchdog trip each rank dumps its flight-recorder ring
//! (`FLIGHT_<run>_r<rank>.json`) before the typed error propagates out.

use crate::ale::NektarAle;
use crate::fourier::NektarF;
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

/// Global min/max/mean of a rank-local sample set. One fused
/// `allreduce_minmaxsum` — bitwise identical to the three separate
/// allreduces the paper's pattern implies (asserted by
/// `fused_minmaxsum_bitwise_matches_three_allreduces`), at a third of
/// the collective count.
pub fn global_min_max_mean(comm: &mut Comm, local: &[f64]) -> (f64, f64, f64) {
    let mut mn = [local.iter().copied().fold(f64::INFINITY, f64::min)];
    let mut mx = [local.iter().copied().fold(f64::NEG_INFINITY, f64::max)];
    let mut sum = [local.iter().sum::<f64>(), local.len() as f64];
    comm.allreduce_minmaxsum(&mut mn, &mut mx, &mut sum);
    let mean = if sum[1] > 0.0 { sum[0] / sum[1] } else { 0.0 };
    (mn[0], mx[0], mean)
}

/// Spanwise (Fourier-mode) kinetic-energy spectrum of a NekTar-F state:
/// E_k = ½ Σ_c ∫ (|a_k|² + |b_k|²) weighted by the z-measure — the
/// standard DNS diagnostic for how energy distributes over the
/// homogeneous direction. Collective: every rank receives the full
/// spectrum (allreduce).
pub fn spanwise_energy_spectrum(solver: &mut NektarF, comm: &mut Comm) -> Vec<f64> {
    let nmodes = solver.cfg.nz / 2;
    let mut spec = vec![0.0; nmodes];
    // Pencil grids replicate each mode block over the grid's columns:
    // only the primary replica contributes, or E_k inflates pc-fold.
    if solver.is_primary() {
        for (mi, k) in solver.my_modes.clone().enumerate() {
            spec[k] = solver.mode_energy(mi);
        }
    }
    comm.allreduce(&mut spec, ReduceOp::Sum);
    spec
}

/// Point probe: gathers the (rank, value) samples of a diagnostic onto
/// rank 0 ("Sends (all but processor 0) and Receives (processor 0) for
/// output of the solution field").
pub fn gather_probe(comm: &mut Comm, value: f64) -> Option<Vec<f64>> {
    comm.gather(0, &[value]).map(|rows| rows.into_iter().map(|r| r[0]).collect())
}

/// Smallest element length scale sqrt(∫_e 1) of a 2-D mesh — the `h`
/// in the CFL estimate. Rank-identical for NekTar-F's replicated mesh.
fn min_elem_h(disc: &Discretization) -> f64 {
    disc.ops
        .iter()
        .map(|op| op.geom.jw.iter().sum::<f64>().sqrt())
        .fold(f64::INFINITY, f64::min)
}

// ---------------------------------------------------------------------
// NekTar-F probes
// ---------------------------------------------------------------------

/// Area of the (replicated) 2-D cross-section, Σ jw.
fn xy_area(solver: &NektarF) -> f64 {
    solver.disc.ops.iter().map(|op| op.geom.jw.iter().sum::<f64>()).sum()
}

/// Local plane-amplitude samples |u_plane| = sqrt(Σ_c plane_c²) at every
/// quadrature point of every owned mode plane (cos and sin). Primary
/// ranks only, so pencil replicas don't double-count the mean.
fn fourier_plane_amplitudes(solver: &NektarF) -> Vec<f64> {
    if !solver.is_primary() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for mi in 0..solver.my_modes.len() {
        let qa: Vec<Vec<f64>> =
            (0..3).map(|c| solver.disc.to_quad(&solver.fields[mi][c].a)).collect();
        let qb: Vec<Vec<f64>> =
            (0..3).map(|c| solver.disc.to_quad(&solver.fields[mi][c].b)).collect();
        for q in 0..solver.disc.nquad_total() {
            let ma = qa.iter().map(|v| v[q] * v[q]).sum::<f64>().sqrt();
            let mb = qb.iter().map(|v| v[q] * v[q]).sum::<f64>().sqrt();
            out.push(ma);
            out.push(mb);
        }
    }
    out
}

/// One-pass volume sums for NekTar-F, reduced in a single allreduce:
/// returns `(dissipation, divergence_norm, [uu, vv, ww, uv, uw, vw])`.
///
/// Per mode k (measure: ∫cos² = ∫sin² = Lz/2 for k>0; ∫1 = Lz for k=0):
/// * dissipation ε = ν ∫ Σ_c |∇u_c|², with the spanwise derivative
///   entering as β²(a² + b²);
/// * divergence planes: cos = ∂x u_a + ∂y v_a + β w_b,
///   sin = ∂x u_b + ∂y v_b − β w_a (∂z of `a cos βz + b sin βz` is
///   `βb cos βz − βa sin βz`);
/// * Reynolds moments ⟨u_i u_j⟩: cross-mode z-integrals vanish, so mode
///   k contributes `a_i a_j + b_i b_j` under its measure; normalised by
///   the volume V = Lz · area.
fn fourier_volume_sums(solver: &mut NektarF, comm: &mut Comm) -> (f64, f64, [f64; 6]) {
    let lz = solver.cfg.lz;
    let nu = solver.cfg.nu;
    let mut buf = [0.0f64; 8]; // [eps, div², uu, vv, ww, uv, uw, vw]
    if solver.is_primary() {
        for (mi, k) in solver.my_modes.clone().enumerate() {
            let beta = solver.beta(k);
            let measure = if k == 0 { lz } else { 0.5 * lz };
            let qa: Vec<Vec<f64>> =
                (0..3).map(|c| solver.disc.to_quad(&solver.fields[mi][c].a)).collect();
            let qb: Vec<Vec<f64>> =
                (0..3).map(|c| solver.disc.to_quad(&solver.fields[mi][c].b)).collect();
            let ga: Vec<(Vec<f64>, Vec<f64>)> =
                (0..3).map(|c| solver.disc.grad_quad(&solver.fields[mi][c].a)).collect();
            let gb: Vec<(Vec<f64>, Vec<f64>)> =
                (0..3).map(|c| solver.disc.grad_quad(&solver.fields[mi][c].b)).collect();
            for (ei, op) in solver.disc.ops.iter().enumerate() {
                let geom = &op.geom;
                for (q, p) in solver.disc.quad_range(ei).enumerate() {
                    let w = geom.jw[q] * measure;
                    let mut grad2 = 0.0;
                    for c in 0..3 {
                        grad2 += ga[c].0[p] * ga[c].0[p] + ga[c].1[p] * ga[c].1[p];
                        grad2 += gb[c].0[p] * gb[c].0[p] + gb[c].1[p] * gb[c].1[p];
                        grad2 += beta * beta * (qa[c][p] * qa[c][p] + qb[c][p] * qb[c][p]);
                    }
                    buf[0] += nu * w * grad2;
                    let div_a = ga[0].0[p] + ga[1].1[p] + beta * qb[2][p];
                    let div_b = gb[0].0[p] + gb[1].1[p] - beta * qa[2][p];
                    buf[1] += w * (div_a * div_a + div_b * div_b);
                    let pair = |i: usize, j: usize| qa[i][p] * qa[j][p] + qb[i][p] * qb[j][p];
                    buf[2] += w * pair(0, 0);
                    buf[3] += w * pair(1, 1);
                    buf[4] += w * pair(2, 2);
                    buf[5] += w * pair(0, 1);
                    buf[6] += w * pair(0, 2);
                    buf[7] += w * pair(1, 2);
                }
            }
        }
    }
    comm.allreduce(&mut buf, ReduceOp::Sum);
    let vol = lz * xy_area(solver);
    let mut moments = [0.0; 6];
    for (m, &s) in moments.iter_mut().zip(&buf[2..8]) {
        *m = s / vol;
    }
    (buf[0], buf[1].sqrt(), moments)
}

// ---------------------------------------------------------------------
// NaN/Inf scans with collective agreement
// ---------------------------------------------------------------------

/// Finds the first non-finite entry and agrees on it globally: each rank
/// encodes `rank * nfields + field` (or +∞ when clean) and the world
/// takes the minimum, so every rank raises the **identical**
/// `HealthError::NonFinite` — no rank runs ahead into a later collective
/// while others abort.
fn agree_non_finite(
    comm: &mut Comm,
    step: u64,
    local_field: Option<usize>,
    names: &'static [&'static str],
) -> Result<(), HealthError> {
    let nfields = names.len();
    let mut code = [local_field
        .map(|f| (comm.rank() * nfields + f) as f64)
        .unwrap_or(f64::INFINITY)];
    comm.allreduce(&mut code, ReduceOp::Min);
    if code[0].is_finite() {
        let c = code[0] as usize;
        return Err(HealthError::NonFinite {
            step,
            rank: c / nfields,
            field: names[c % nfields],
        });
    }
    Ok(())
}

const FOURIER_FIELDS: &[&str] = &["u", "v", "w"];
const ALE_FIELDS: &[&str] = &["u", "v", "w", "p"];
const SERIAL_FIELDS: &[&str] = &["u", "v", "p"];

/// Collective NaN/Inf scan of the NekTar-F modal state.
pub fn check_finite_fourier(
    solver: &NektarF,
    comm: &mut Comm,
    step: u64,
) -> Result<(), HealthError> {
    let mut bad = None;
    'scan: for comps in &solver.fields {
        for (c, mc) in comps.iter().enumerate() {
            if mc.a.iter().chain(mc.b.iter()).any(|v| !v.is_finite()) {
                bad = Some(c);
                break 'scan;
            }
        }
    }
    agree_non_finite(comm, step, bad, FOURIER_FIELDS)
}

/// Collective NaN/Inf scan of the NekTar-ALE modal state.
pub fn check_finite_ale(
    solver: &NektarAle,
    comm: &mut Comm,
    step: u64,
) -> Result<(), HealthError> {
    let mut bad = None;
    for (c, field) in solver.u.iter().enumerate() {
        if field.iter().any(|v| !v.is_finite()) {
            bad = Some(c);
            break;
        }
    }
    if bad.is_none() && solver.p.iter().any(|v| !v.is_finite()) {
        bad = Some(3);
    }
    agree_non_finite(comm, step, bad, ALE_FIELDS)
}

/// NaN/Inf scan of the serial solver state (no communication).
pub fn check_finite_serial(solver: &Serial2dSolver, step: u64) -> Result<(), HealthError> {
    let fields = [&solver.u, &solver.v, &solver.p];
    for (c, f) in fields.iter().enumerate() {
        if f.iter().any(|v| !v.is_finite()) {
            return Err(HealthError::NonFinite { step, rank: 0, field: SERIAL_FIELDS[c] });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Samplers
// ---------------------------------------------------------------------

fn dump_flight(rank: usize, err: &HealthError) {
    nkt_trace::flight::dump_current(rank, &err.to_string());
}

/// Takes one NekTar-F sample (collective): MPI counter rows, finiteness
/// scan, physics probes, watchdog rules. `health` gates the scan and
/// rules; either way the sample is recorded. On a trip this rank dumps
/// its flight ring and the identical typed error returns on every rank.
pub fn sample_fourier(
    solver: &mut NektarF,
    comm: &mut Comm,
    rec: &mut StatsRecorder,
    step: u64,
    limits: &RuleLimits,
    health: bool,
) -> Result<(), HealthError> {
    let mpi = rec.collect(comm);
    if health {
        if let Err(e) = check_finite_fourier(solver, comm, step) {
            dump_flight(comm.rank(), &e);
            return Err(e);
        }
    }
    let ke_prev = rec.prev_ke();
    let ke = solver.kinetic_energy(comm);
    let spectrum = spanwise_energy_spectrum(solver, comm);
    let (eps, div, m) = fourier_volume_sums(solver, comm);
    let amps = fourier_plane_amplitudes(solver);
    let (umin, umax, umean) = global_min_max_mean(comm, &amps);
    let cfl = umax * solver.cfg.dt / min_elem_h(&solver.disc);
    let scalars =
        [ke, eps, div, cfl, umin, umax, umean, m[0], m[1], m[2], m[3], m[4], m[5]];
    rec.push(step, &scalars, spectrum, mpi);
    if health {
        if let Err(e) = check_rules(step, limits, ke, ke_prev, Some(div), Some(cfl)) {
            dump_flight(comm.rank(), &e);
            return Err(e);
        }
    }
    rec.rebaseline(comm);
    Ok(())
}

/// Serial-solver volume sums: `(enstrophy, [uu, vv, uv])` plus the
/// amplitude samples for the min/max/mean channels.
fn serial_sums(solver: &Serial2dSolver) -> (f64, [f64; 3], Vec<f64>) {
    let disc = &solver.disc;
    let (uq, vq) = (disc.to_quad(&solver.u), disc.to_quad(&solver.v));
    let (_, duy) = disc.grad_quad(&solver.u);
    let (dvx, _) = disc.grad_quad(&solver.v);
    let mut ens = 0.0;
    let mut sums = [0.0f64; 3];
    let mut area = 0.0;
    let mut amps = Vec::with_capacity(uq.len());
    for (q, w) in disc.quad_weights().enumerate() {
        let (uu, vv) = (uq[q], vq[q]);
        let omega = dvx[q] - duy[q];
        ens += w * omega * omega;
        sums[0] += w * uu * uu;
        sums[1] += w * vv * vv;
        sums[2] += w * uu * vv;
        area += w;
        amps.push((uu * uu + vv * vv).sqrt());
    }
    let mut moments = [0.0; 3];
    for (m, s) in moments.iter_mut().zip(&sums) {
        *m = s / area;
    }
    (ens, moments, amps)
}

/// Takes one serial-2-D sample (no communication; the MPI rows are
/// empty).
pub fn sample_serial2d(
    solver: &Serial2dSolver,
    rec: &mut StatsRecorder,
    step: u64,
    limits: &RuleLimits,
    health: bool,
) -> Result<(), HealthError> {
    if health {
        if let Err(e) = check_finite_serial(solver, step) {
            dump_flight(0, &e);
            return Err(e);
        }
    }
    let ke_prev = rec.prev_ke();
    let ke = solver.kinetic_energy();
    let div = solver.divergence_norm();
    let (ens, m, amps) = serial_sums(solver);
    let n = amps.len() as f64;
    let umin = amps.iter().copied().fold(f64::INFINITY, f64::min);
    let umax = amps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let umean = if n > 0.0 { amps.iter().sum::<f64>() / n } else { 0.0 };
    let cfl = umax * solver.cfg.dt / min_elem_h(&solver.disc);
    let scalars = [ke, ens, div, cfl, umin, umax, umean, m[0], m[1], m[2]];
    rec.push(step, &scalars, Vec::new(), Vec::new());
    if health {
        if let Err(e) = check_rules(step, limits, ke, ke_prev, Some(div), Some(cfl)) {
            dump_flight(0, &e);
            return Err(e);
        }
    }
    Ok(())
}

/// Takes one NekTar-ALE sample (collective): kinetic energy and mesh
/// volume (the ALE invariant) plus the counter rows and health scan.
pub fn sample_ale(
    solver: &mut NektarAle,
    comm: &mut Comm,
    rec: &mut StatsRecorder,
    step: u64,
    limits: &RuleLimits,
    health: bool,
) -> Result<(), HealthError> {
    let mpi = rec.collect(comm);
    if health {
        if let Err(e) = check_finite_ale(solver, comm, step) {
            dump_flight(comm.rank(), &e);
            return Err(e);
        }
    }
    let ke_prev = rec.prev_ke();
    let ke = solver.kinetic_energy(comm);
    let vol = solver.total_volume(comm);
    rec.push(step, &[ke, vol], Vec::new(), mpi);
    if health {
        if let Err(e) = check_rules(step, limits, ke, ke_prev, None, None) {
            dump_flight(comm.rank(), &e);
            return Err(e);
        }
    }
    rec.rebaseline(comm);
    Ok(())
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
            global_min_max_mean(c, &[r, r + 10.0])
        });
        for &(mn, mx, mean) in &out {
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
            let spec = spanwise_energy_spectrum(&mut s, c);
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
    fn probe_gathers_on_root() {
        let out = run(3, cluster(NetId::T3e), |c| gather_probe(c, c.rank() as f64 * 2.0));
        assert_eq!(out[0], Some(vec![0.0, 2.0, 4.0]));
        assert_eq!(out[1], None);
        assert_eq!(out[2], None);
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
            let (eps, div, m) = fourier_volume_sums(&mut s, c);
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
                sample_fourier(&mut s, c, &mut rec, 1, &RuleLimits::default(), true)
                    .unwrap();
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
            sample_fourier(&mut s, c, &mut rec, 7, &RuleLimits::default(), true)
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
        sample_serial2d(&s, &mut rec, 1, &RuleLimits::default(), true).unwrap();
        let sample = &rec.samples()[0];
        assert_eq!(sample.scalars.len(), SERIAL2D_CHANNELS.len());
        let ke = rec.accum("ke").unwrap().mean;
        assert!(ke > 0.0);
        let umax = rec.accum("umag_max").unwrap().mean;
        let umin = rec.accum("umag_min").unwrap().mean;
        assert!(umax >= umin && umin >= 0.0);
        // Serial watchdog trips on an injected NaN naming the field.
        s.u[0] = f64::NAN;
        let err = sample_serial2d(&s, &mut rec, 2, &RuleLimits::default(), true)
            .unwrap_err();
        assert!(matches!(err, HealthError::NonFinite { step: 2, rank: 0, field: "u" }), "{err}");
    }
}
