//! Serial 2-D incompressible Navier–Stokes solver — the code timed in
//! Table 1 and Figure 12.
//!
//! A step is the paper's seven regions (§4.1, [`Stage`]) run by the
//! `plane` module over one mode of one real plane pair (u, v) — NekTar-F's
//! k = 0 cosine planes, to the bit — with the pointwise `−(u·∇)u` as its
//! stage 2 and the lift of the Dirichlet data in stage 7. A warmed step
//! allocates nothing.
//!
//! Boundary conditions follow the paper's bluff-body setup: Dirichlet
//! velocity at inflow and walls, natural (zero-flux) at outflow and
//! sides; pressure is Dirichlet-zero at the outflow (or pinned at one dof
//! when no outflow exists).

use crate::opstream::{Recorder, WorkItem};
use crate::plane::{split_planes, PlaneStep, Seam};
use crate::splitting::Layout;
use crate::stats::Speeds;
use crate::timers::{Stage, StageClock};
use nkt_ckpt::CkptError;
use nkt_mesh::Mesh2d;
use nkt_spectral::{Discretization, HelmholtzProblem};
use std::sync::Arc;

/// Solver configuration.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Polynomial order of the expansion.
    pub order: usize,
    /// Time step.
    pub dt: f64,
    /// Kinematic viscosity ν = 1/Re.
    pub nu: f64,
    /// Splitting-scheme order (paper uses 2).
    pub scheme_order: usize,
    /// Include the advection term (disable for Stokes testing).
    pub advect: bool,
}

/// The serial solver state.
pub struct Serial2dSolver {
    /// Configuration.
    pub cfg: SolverConfig,
    /// Mesh, bases, dof map and elemental operators of every problem.
    pub(crate) disc: Arc<Discretization>,
    /// Pressure Poisson problem (λ = 0, Dirichlet at outflow / pinned).
    pub pressure: HelmholtzProblem,
    /// Viscous Helmholtz problem (λ = γ₀/(νΔt), Dirichlet velocity).
    pub viscous: HelmholtzProblem,
    /// Velocity modal coefficients.
    pub u: Vec<f64>,
    /// v-component modal coefficients.
    pub v: Vec<f64>,
    /// Pressure modal coefficients (empty until the first step).
    pub p: Vec<f64>,
    /// Dirichlet values of u and v on the velocity problem.
    ud_u: Vec<f64>,
    ud_v: Vec<f64>,
    /// History rings, ramp problems, workspace and every stage but the
    /// products.
    plane: PlaneStep,
    /// Per-stage timing.
    pub clock: StageClock,
    /// Operation-stream recorder.
    pub recorder: Recorder,
}

/// The serial diagnostics' sums ([`Serial2dSolver::flow_sums`]).
pub(crate) struct FlowSums {
    /// ½∫|u|².
    pub ke: f64,
    /// ∫ω², ω = ∂x v − ∂y u.
    pub enstrophy: f64,
    /// ‖∇·u‖ in L2.
    pub div: f64,
    /// ⟨uu⟩, ⟨vv⟩, ⟨uv⟩: ∫ u_i u_j over the area.
    pub moments: [f64; 3],
    /// |u| at every quadrature point.
    pub speeds: Speeds,
}

/// The serial solver's stage 2: `−(u·∇)u` point by point (none in Stokes mode).
struct Pointwise<'a> {
    disc: &'a Discretization,
    advect: bool,
}

impl Seam for Pointwise<'_> {
    fn advects(&self) -> bool {
        self.advect
    }

    fn products(&mut self, vel: &[f64], grad: &[f64], nl: &mut [f64], rec: &mut Recorder) {
        let nq = self.disc.nquad_total();
        let (u, v) = vel.split_at(nq);
        let (gx, gy) = grad.split_at(2 * nq);
        for (c, n) in nl.chunks_exact_mut(nq).enumerate() {
            let (dx, dy) = (&gx[c * nq..(c + 1) * nq], &gy[c * nq..(c + 1) * nq]);
            for q in 0..nq {
                n[q] = -(u[q] * dx[q] + v[q] * dy[q]);
            }
        }
        rec.work_per_elem(self.disc, Stage::NonLinear, |_, nq| WorkItem::Stream {
            flops: 6.0 * nq as f64,
            bytes: 48.0 * nq as f64,
            ws: 48 * nq,
        });
    }

    fn record_weighting(&self, rec: &mut Recorder, _: Layout, j: usize) {
        rec.work_per_elem(self.disc, Stage::StifflyStable, |_, nq| WorkItem::Stream {
            flops: 8.0 * j as f64 * nq as f64,
            bytes: 32.0 * j as f64 * nq as f64,
            ws: 32 * nq,
        });
    }
}

impl Serial2dSolver {
    /// Builds the solver on `mesh` with Dirichlet velocity data
    /// (`g_u`, `g_v`) applied on Inflow and Wall boundaries.
    pub fn new(
        mesh: Mesh2d,
        cfg: SolverConfig,
        g_u: impl Fn([f64; 2]) -> f64,
        g_v: impl Fn([f64; 2]) -> f64,
    ) -> Serial2dSolver {
        let disc = Discretization::new(mesh, cfg.order);
        let plane = PlaneStep::new(&disc, cfg.scheme_order, cfg.dt, cfg.nu, vec![0.0], 2, 1);
        let (pressure, viscous) = plane.problems(&disc, 0);
        let ndof = disc.asm.ndof;
        let (ud_u, ud_v) = (viscous.dirichlet_values(&g_u), viscous.dirichlet_values(&g_v));
        Serial2dSolver {
            cfg,
            disc,
            pressure,
            viscous,
            u: vec![0.0; ndof],
            v: vec![0.0; ndof],
            p: Vec::new(),
            ud_u,
            ud_v,
            plane,
            clock: StageClock::new(),
            recorder: Recorder::disabled(),
        }
    }

    /// Sets the initial velocity by global L2 projection.
    pub fn set_initial(
        &mut self,
        f_u: impl Fn([f64; 2]) -> f64,
        f_v: impl Fn([f64; 2]) -> f64,
    ) {
        self.u = self.disc.l2_project(f_u);
        self.v = self.disc.l2_project(f_v);
        self.plane.hist.reset();
    }

    /// Recomputes the velocity Dirichlet data (time-dependent boundary
    /// conditions: call before each step with the data at t^{n+1}).
    pub fn update_dirichlet(
        &mut self,
        g_u: impl Fn([f64; 2]) -> f64,
        g_v: impl Fn([f64; 2]) -> f64,
    ) {
        self.ud_u = self.viscous.dirichlet_values(&g_u);
        self.ud_v = self.viscous.dirichlet_values(&g_v);
    }

    /// Number of global velocity dofs.
    pub fn ndof(&self) -> usize {
        self.disc.asm.ndof
    }

    /// Advances one time step. Returns the per-stage times of this step.
    pub fn step(&mut self) -> StageClock {
        let sc = self.plane.step::<1, 2>(
            &self.disc,
            &mut [&mut self.u, &mut self.v],
            std::slice::from_mut(&mut self.pressure),
            std::slice::from_mut(&mut self.viscous),
            Some([&self.ud_u[..], &self.ud_v[..]]),
            &mut self.p,
            &mut Pointwise { disc: &self.disc, advect: self.cfg.advect },
            &mut self.recorder,
        );
        self.clock.merge(&sc);
        sc
    }

    /// L2 error of the velocity against an exact pair.
    pub fn velocity_error(
        &self,
        exact_u: impl Fn([f64; 2]) -> f64,
        exact_v: impl Fn([f64; 2]) -> f64,
    ) -> f64 {
        let eu = self.disc.l2_error(&self.u, exact_u);
        let ev = self.disc.l2_error(&self.v, exact_v);
        (eu * eu + ev * ev).sqrt()
    }

    /// Total kinetic energy ½∫|u|².
    pub fn kinetic_energy(&mut self) -> f64 {
        self.flow_sums().ke
    }

    /// L2 norm of the velocity divergence (a splitting-scheme health
    /// metric: should stay small).
    pub fn divergence_norm(&mut self) -> f64 {
        self.flow_sums().div
    }

    /// Every sum the serial diagnostics read, from one pass over the
    /// quadrature points: the values and gradients of both fields in one
    /// plane-kernel call, into the step's scratch planes (never its history), so a warmed
    /// call allocates nothing and records nothing.
    pub(crate) fn flow_sums(&mut self) -> FlowSums {
        let (disc, plane) = (&self.disc, &mut self.plane);
        let nq = disc.nquad_total();
        let (fields, (gx, gy)) = ([&self.u, &self.v], plane.grad[..4 * nq].split_at_mut(2 * nq));
        let vals = Some(&mut plane.planes[..2 * nq]);
        disc.quad_planes_into(2, |i| fields[i], vals, Some([gx, gy]), &mut plane.scratch);
        let [uq, vq] = split_planes(&mut plane.planes, nq);
        let [ux, vx, uy, vy] = split_planes(&mut plane.grad, nq);
        let (mut ke, mut enstrophy, mut d2, mut area) = (0.0, 0.0, 0.0, 0.0);
        let mut sums = [0.0f64; 3];
        let mut speeds = Speeds::default();
        for (q, w) in disc.quad_weights().enumerate() {
            let (u, v) = (uq[q], vq[q]);
            ke += 0.5 * w * (u * u + v * v);
            let d = ux[q] + vy[q];
            d2 += w * d * d;
            let omega = vx[q] - uy[q];
            enstrophy += w * omega * omega;
            sums[0] += w * u * u;
            sums[1] += w * v * v;
            sums[2] += w * u * v;
            area += w;
            speeds.push((u * u + v * v).sqrt());
        }
        FlowSums { ke, enstrophy, div: d2.sqrt(), moments: sums.map(|s| s / area), speeds }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> usize {
        self.plane.hist.steps
    }
}

impl nkt_ckpt::Checkpointable for Serial2dSolver {
    fn kind(&self) -> &'static str {
        "serial2d"
    }

    fn write_sections(&self, w: &mut nkt_ckpt::CkptWriter) {
        // "fields": dof-count guard, then the modal coefficient vectors.
        // The Dirichlet value vectors ride along: they are fixed by the
        // boundary data at construction, but persisting them makes the
        // shard self-describing about what the run was solving.
        let mut e = nkt_ckpt::Enc::new();
        e.usize(self.disc.asm.ndof);
        for field in [&self.u, &self.v, &self.p, &self.ud_u, &self.ud_v] {
            e.f64s(field);
        }
        w.section("fields", e.into_bytes());

        self.plane.hist.write_sections(w);
    }

    fn read_sections(&mut self, f: &nkt_ckpt::CkptFile) -> Result<(), CkptError> {
        // Every count and length is held to this solver's: a step indexes
        // these vectors without looking at them.
        let ndof = self.disc.asm.ndof;
        let mut d = f.dec("fields")?;
        d.expect_u64(ndof as u64, "serial2d dof count")?;
        let fields = [&mut self.u, &mut self.v, &mut self.p, &mut self.ud_u, &mut self.ud_v];
        for (field, name) in fields.into_iter().zip(["u", "v", "p", "ud_u", "ud_v"]) {
            *field = d.f64s()?;
            // No pressure before the first step: `p` alone may be empty.
            if field.len() != ndof && !(name == "p" && field.is_empty()) {
                let what = format!("serial2d {name}: {} values, {ndof} dofs", field.len());
                return Err(CkptError::StateMismatch { what });
            }
        }
        d.finish()?;

        self.plane.hist.read_sections(f)
    }

    fn ckpt_step(&self) -> u64 {
        self.plane.hist.steps as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opstream::direct_solve_items;
    use nkt_mesh::rect_quads;

    #[allow(clippy::type_complexity)]
    fn taylor_green(nu: f64) -> (
        impl Fn([f64; 2], f64) -> f64 + Copy,
        impl Fn([f64; 2], f64) -> f64 + Copy,
    ) {
        let pi = std::f64::consts::PI;
        let u = move |x: [f64; 2], t: f64| {
            (pi * x[0]).sin() * (pi * x[1]).cos() * (-2.0 * pi * pi * nu * t).exp()
        };
        let v = move |x: [f64; 2], t: f64| {
            -(pi * x[0]).cos() * (pi * x[1]).sin() * (-2.0 * pi * pi * nu * t).exp()
        };
        (u, v)
    }

    /// Taylor-Green vortex: exact unsteady Navier-Stokes solution. With
    /// Dirichlet data from the exact solution the solver should track it.
    #[test]
    fn taylor_green_tracks_exact_solution() {
        let nu = 0.05;
        let (ex_u, ex_v) = taylor_green(nu);
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
        let cfg = SolverConfig { order: 6, dt: 2e-3, nu, scheme_order: 2, advect: true };
        // Time-dependent BCs would need per-step updates; on this domain
        // the exact velocity is zero on the boundary at all times
        // (cos(pi x) sin(pi y) vanishes on integer boundaries) — so static
        // zero Dirichlet data is exact.
        let mut s = Serial2dSolver::new(mesh, cfg, |x| ex_u(x, 0.0), |x| ex_v(x, 0.0));
        s.set_initial(|x| ex_u(x, 0.0), |x| ex_v(x, 0.0));
        let n = 25;
        for k in 0..n {
            let tn = (k + 1) as f64 * 2e-3;
            s.update_dirichlet(|x| ex_u(x, tn), |x| ex_v(x, tn));
            s.step();
        }
        let t = n as f64 * 2e-3;
        let err = s.velocity_error(|x| ex_u(x, t), |x| ex_v(x, t));
        // Field magnitude is O(1) over a 2x2 domain: demand < 1% L2.
        assert!(err < 2e-2, "Taylor-Green L2 error {err}");
    }

    /// Taylor–Green under p-refinement at a fixed small Δt: the L2 error
    /// falls from each order to the next until it meets the Δt² splitting
    /// floor. A kernel that reassociates passes; one that is wrong at some
    /// order does not converge through it.
    #[test]
    fn taylor_green_converges_under_p_refinement() {
        let (nu, dt, n) = (0.05, 5e-4, 20);
        let (ex_u, ex_v) = taylor_green(nu);
        let errs: Vec<f64> = (3..=7)
            .map(|order| {
                let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
                let cfg = SolverConfig { order, dt, nu, scheme_order: 2, advect: true };
                let mut s = Serial2dSolver::new(mesh, cfg, |x| ex_u(x, 0.0), |x| ex_v(x, 0.0));
                s.set_initial(|x| ex_u(x, 0.0), |x| ex_v(x, 0.0));
                for k in 0..n {
                    let tn = (k + 1) as f64 * dt;
                    s.update_dirichlet(|x| ex_u(x, tn), |x| ex_v(x, tn));
                    s.step();
                }
                let t = n as f64 * dt;
                s.velocity_error(|x| ex_u(x, t), |x| ex_v(x, t))
            })
            .collect();
        // What the dense-table kernels read, orders 3–7; orders 8 and 9
        // read 1.18e-7, the splitting floor order 7 has already met.
        const PINNED: [f64; 5] = [2.27e-3, 1.75e-4, 1.08e-5, 7.3e-7, 1.22e-7];
        for (i, (&e, &pin)) in errs.iter().zip(&PINNED).enumerate() {
            assert!(e < 2.0 * pin, "order {}: L2 error {e} against {pin}", i + 3);
        }
        for (i, w) in errs.windows(2).enumerate() {
            assert!(w[1] < w[0], "order {} -> {}: {} !< {}", i + 3, i + 4, w[1], w[0]);
        }
        assert!(errs[0] / errs[4] >= 10.0, "overall fall {errs:?}");
    }

    #[test]
    fn kinetic_energy_decays_at_viscous_rate() {
        let nu = 0.1;
        let (ex_u, ex_v) = taylor_green(nu);
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
        let cfg = SolverConfig { order: 5, dt: 2e-3, nu, scheme_order: 2, advect: true };
        let mut s = Serial2dSolver::new(mesh, cfg, |x| ex_u(x, 0.0), |x| ex_v(x, 0.0));
        s.set_initial(|x| ex_u(x, 0.0), |x| ex_v(x, 0.0));
        let e0 = s.kinetic_energy();
        let n = 20;
        for k in 0..n {
            let tn = (k + 1) as f64 * 2e-3;
            s.update_dirichlet(|x| ex_u(x, tn), |x| ex_v(x, tn));
            s.step();
        }
        let t = n as f64 * 2e-3;
        let expect = e0 * (-4.0 * std::f64::consts::PI.powi(2) * nu * t).exp();
        let e1 = s.kinetic_energy();
        assert!(
            (e1 - expect).abs() / expect < 0.05,
            "energy {e1} vs expected {expect}"
        );
    }

    #[test]
    fn divergence_stays_small() {
        let nu = 0.05;
        let (ex_u, ex_v) = taylor_green(nu);
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
        let cfg = SolverConfig { order: 5, dt: 2e-3, nu, scheme_order: 2, advect: true };
        let mut s = Serial2dSolver::new(mesh, cfg, |x| ex_u(x, 0.0), |x| ex_v(x, 0.0));
        s.set_initial(|x| ex_u(x, 0.0), |x| ex_v(x, 0.0));
        for k in 0..10 {
            let tn = (k + 1) as f64 * 2e-3;
            s.update_dirichlet(|x| ex_u(x, tn), |x| ex_v(x, tn));
            s.step();
        }
        let div = s.divergence_norm();
        assert!(div < 0.1, "divergence {div}");
    }

    #[test]
    fn stokes_mode_disables_advection() {
        // Pure diffusion of the same field (advection off): TG velocity is
        // also an exact Stokes solution (its nonlinear term is ∇q of a scalar q,
        // absorbed into pressure; without advection the pressure is zero
        // and diffusion acts alone) — decay rate identical.
        let nu = 0.1;
        let (ex_u, ex_v) = taylor_green(nu);
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
        let cfg = SolverConfig { order: 5, dt: 2e-3, nu, scheme_order: 2, advect: false };
        let mut s = Serial2dSolver::new(mesh, cfg, |x| ex_u(x, 0.0), |x| ex_v(x, 0.0));
        s.set_initial(|x| ex_u(x, 0.0), |x| ex_v(x, 0.0));
        for k in 0..20 {
            let tn = (k + 1) as f64 * 2e-3;
            s.update_dirichlet(|x| ex_u(x, tn), |x| ex_v(x, tn));
            s.step();
        }
        let t = 20.0 * 2e-3;
        let err = s.velocity_error(|x| ex_u(x, t), |x| ex_v(x, t));
        assert!(err < 2e-2, "Stokes decay error {err}");
    }

    #[test]
    fn stage_clock_populated_and_solves_dominate() {
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 3, 3);
        let cfg = SolverConfig { order: 6, dt: 1e-3, nu: 0.01, scheme_order: 2, advect: true };
        let mut s = Serial2dSolver::new(mesh, cfg, |_| 0.0, |_| 0.0);
        s.set_initial(
            |x| (std::f64::consts::PI * x[0]).sin(),
            |x| -(std::f64::consts::PI * x[1]).sin(),
        );
        for _ in 0..2 {
            s.step();
        }
        s.recorder = Recorder::enabled();
        s.step();
        // Host time: every stage ran and the shares are shares. Which
        // stage a host favours is not this test's to say.
        let p = s.clock.percentages();
        assert!(p.iter().all(|&share| share > 0.0), "a stage took no time: {p:?}");
        assert!((p.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        // Paper Figure 12: "matrix inversions account for 60% of the total
        // CPU time" — held where it is deterministic, the recorded op
        // stream of that step replayed on the paper's Pentium II. (At
        // paper scale `results/fig12_serial_stages.txt` holds 66%.)
        let rec = s.recorder.take().unwrap();
        let machine = nkt_machine::machine(nkt_machine::MachineId::Muses);
        let pct = crate::replay::replay_serial(&rec, &machine).percentages();
        let solves = pct[Stage::PressureSolve.index()] + pct[Stage::ViscousSolve.index()];
        assert!(solves > 30.0, "solves only {solves}% of the replayed step");
    }

    #[test]
    fn recorder_captures_op_stream() {
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
        let cfg = SolverConfig { order: 4, dt: 1e-3, nu: 0.01, scheme_order: 2, advect: true };
        let mut s = Serial2dSolver::new(mesh, cfg, |_| 0.0, |_| 0.0);
        s.set_initial(|_| 1.0, |_| 0.0);
        s.recorder = Recorder::enabled();
        s.step();
        let rec = s.recorder.take().unwrap();
        assert!(rec.total_flops() > 0.0);
        // Stages 5 and 7 are one direct solve each: one pressure
        // right-hand side, two velocity ones.
        let stage = |st: Stage| -> Vec<WorkItem> {
            rec.work.iter().filter(|(s, _)| *s == st).map(|&(_, w)| w).collect()
        };
        let solve = |prob, nrhs| direct_solve_items(prob, nrhs).collect::<Vec<_>>();
        assert_eq!(stage(Stage::PressureSolve), solve(&s.pressure, 1));
        assert_eq!(stage(Stage::ViscousSolve), solve(&s.viscous, 2));
    }

    #[test]
    fn diagnostics_leave_the_op_stream_alone() {
        // A STATS sample taken mid-run must not inflate the NonLinear
        // stage the replay charges: only `step` records.
        use crate::stats::{sample_serial2d, SERIAL2D_CHANNELS};
        use nkt_stats::{RuleLimits, StatsRecorder};
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
        let cfg = SolverConfig { order: 4, dt: 1e-3, nu: 0.01, scheme_order: 2, advect: true };
        let mut s = Serial2dSolver::new(mesh, cfg, |_| 0.0, |_| 0.0);
        s.set_initial(|x| x[1], |x| -x[0]);
        s.recorder = Recorder::enabled();
        let mut stats = StatsRecorder::new(SERIAL2D_CHANNELS.to_vec(), 1, 1);
        sample_serial2d(&mut s, &mut stats, 0, &RuleLimits::default(), true).unwrap();
        assert!(s.divergence_norm().is_finite() && s.kinetic_energy() > 0.0);
        let rec = s.recorder.take().unwrap();
        assert!(rec.work.is_empty(), "diagnostics recorded {} work items", rec.work.len());
    }

    #[test]
    fn pressure_viscous_and_ramp_share_one_discretization() {
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
        let cfg = SolverConfig { order: 4, dt: 1e-3, nu: 0.01, scheme_order: 3, advect: true };
        let s = Serial2dSolver::new(mesh, cfg, |_| 0.0, |_| 0.0);
        let ramp = &s.plane.ramp[0];
        assert_eq!(ramp.len(), 2);
        for prob in [&s.pressure, &s.viscous].into_iter().chain(ramp) {
            assert!(Arc::ptr_eq(prob.discretization(), &s.disc));
        }
        // The four problems and the solver's own handle.
        assert_eq!(Arc::strong_count(&s.disc), 5);
        // The no-outflow pressure pin stayed on the pressure problem.
        assert!(s.pressure.dirichlet()[0] && s.pressure.ndirichlet() == 1);
        assert_eq!(s.viscous.dirichlet(), ramp[0].dirichlet());
    }

    #[test]
    fn bluff_body_short_run_stays_finite() {
        let mesh = nkt_mesh::bluff_body_mesh(1);
        let cfg = SolverConfig { order: 3, dt: 5e-3, nu: 0.01, scheme_order: 2, advect: true };
        // Laminar unit inflow (the paper's setup).
        let mut s = Serial2dSolver::new(
            mesh,
            cfg,
            |x| if x[0] < -14.0 { 1.0 } else { 0.0 },
            |_| 0.0,
        );
        s.set_initial(|_| 1.0, |_| 0.0);
        for _ in 0..5 {
            s.step();
        }
        let e = s.kinetic_energy();
        assert!(e.is_finite() && e > 0.0, "energy {e}");
        for &c in s.u.iter().chain(s.v.iter()) {
            assert!(c.is_finite());
        }
    }
}
