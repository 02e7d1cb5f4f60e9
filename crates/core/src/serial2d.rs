//! Serial 2-D incompressible Navier–Stokes solver — the code timed in
//! Table 1 and Figure 12.
//!
//! Per step (the paper's 7 regions, §4.1):
//! 1. modal → quadrature transform of the velocity,
//! 2. nonlinear terms N(u) = −(u·∇)u at quadrature points,
//! 3. stiffly-stable weighting with previous steps,
//! 4. pressure Poisson right-hand side,
//! 5. banded direct Poisson solve,
//! 6. viscous Helmholtz right-hand side,
//! 7. banded direct Helmholtz solves (u and v).
//!
//! Boundary conditions follow the paper's bluff-body setup: Dirichlet
//! velocity at inflow and walls, natural (zero-flux) at outflow and
//! sides; pressure is Dirichlet-zero at the outflow (or pinned at one dof
//! when no outflow exists).

use crate::opstream::{Recorder, WorkItem};
use crate::splitting::StifflyStable;
use crate::timers::{Stage, StageClock, StageTimer};
use nkt_mesh::{BoundaryTag, Mesh2d};
use nkt_spectral::{Discretization, HelmholtzProblem, SolveMethod};
use std::collections::VecDeque;

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

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig { order: 6, dt: 1e-3, nu: 0.01, scheme_order: 2, advect: true }
    }
}

/// Per-element quadrature-space field (velocity components, nonlinear
/// terms, ...).
type QField = Vec<Vec<f64>>;

/// The serial solver state.
pub struct Serial2dSolver {
    /// Configuration.
    pub cfg: SolverConfig,
    scheme: StifflyStable,
    /// Pressure Poisson problem (λ = 0, Dirichlet at outflow / pinned).
    pub pressure: HelmholtzProblem,
    /// Viscous Helmholtz problem (λ = γ₀/(νΔt), Dirichlet velocity).
    pub viscous: HelmholtzProblem,
    /// Ramp-up problems for the first steps: index j-1 holds the order-j
    /// scheme's Helmholtz matrix (the BDF startup uses lower orders).
    ramp: Vec<HelmholtzProblem>,
    /// Velocity modal coefficients.
    pub u: Vec<f64>,
    /// v-component modal coefficients.
    pub v: Vec<f64>,
    /// Pressure modal coefficients.
    pub p: Vec<f64>,
    /// Dirichlet values for u on the velocity problem.
    ud_u: Vec<f64>,
    ud_v: Vec<f64>,
    /// History of velocity quadrature values (newest front), per component.
    hist_uq: VecDeque<(QField, QField)>,
    /// History of nonlinear terms (newest front).
    hist_n: VecDeque<(QField, QField)>,
    /// Per-stage timing.
    pub clock: StageClock,
    /// Operation-stream recorder.
    pub recorder: Recorder,
    steps_taken: usize,
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
        let scheme = StifflyStable::new(cfg.scheme_order);
        let lambda = scheme.gamma0 / (cfg.nu * cfg.dt);
        // Pressure, viscous and ramp problems differ only in λ and tags:
        // members of one discretization.
        let disc = Discretization::new(mesh, cfg.order);
        let mut pressure = HelmholtzProblem::member(&disc, 0.0, &[BoundaryTag::Outflow]);
        if pressure.ndirichlet() == 0 {
            pressure.pin_dof(0);
        }
        const VEL_DIRICHLET: &[BoundaryTag] =
            &[BoundaryTag::Inflow, BoundaryTag::Wall, BoundaryTag::Side];
        let mut viscous = HelmholtzProblem::member(&disc, lambda, VEL_DIRICHLET);
        // Factor here, not inside the first host-timed stage 5 / stage 7.
        // The ramp problems stay lazy: a resumed run never solves them.
        pressure.factorize();
        viscous.factorize();
        // Startup (ramp) matrices: the first steps run lower-order BDF
        // with their own gamma0, hence their own Helmholtz constant.
        let ramp: Vec<HelmholtzProblem> = (1..cfg.scheme_order)
            .map(|j| {
                let lam_j = StifflyStable::new(j).gamma0 / (cfg.nu * cfg.dt);
                HelmholtzProblem::member(&disc, lam_j, VEL_DIRICHLET)
            })
            .collect();
        let ndof = viscous.asm.ndof;
        let ud_u = viscous.dirichlet_values(&g_u);
        let ud_v = viscous.dirichlet_values(&g_v);
        Serial2dSolver {
            cfg,
            scheme,
            pressure,
            viscous,
            ramp,
            u: vec![0.0; ndof],
            v: vec![0.0; ndof],
            p: vec![0.0; 0],
            ud_u,
            ud_v,
            hist_uq: VecDeque::new(),
            hist_n: VecDeque::new(),
            clock: StageClock::new(),
            recorder: Recorder::disabled(),
            steps_taken: 0,
        }
    }

    /// Sets the initial velocity by global L2 projection.
    pub fn set_initial(
        &mut self,
        f_u: impl Fn([f64; 2]) -> f64,
        f_v: impl Fn([f64; 2]) -> f64,
    ) {
        self.u = self.viscous.l2_project(f_u);
        self.v = self.viscous.l2_project(f_v);
        self.hist_uq.clear();
        self.hist_n.clear();
        self.steps_taken = 0;
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
        self.viscous.asm.ndof
    }

    /// Transforms modal coefficients to quadrature values (stage 1 kernel).
    #[allow(clippy::wrong_self_convention)]
    fn to_quadrature(&mut self, coeffs: &[f64]) -> QField {
        let prob = &self.viscous;
        let mut out = Vec::with_capacity(prob.mesh.nelems());
        for ei in 0..prob.mesh.nelems() {
            let basis = prob.basis(ei);
            let nm = basis.nmodes();
            let nq = basis.nquad();
            let mut local = vec![0.0; nm];
            prob.asm.gather(ei, coeffs, &mut local);
            let mut vals = vec![0.0; nq];
            for (m, &c) in local.iter().enumerate() {
                if c != 0.0 {
                    let vm = &basis.val()[m];
                    for q in 0..nq {
                        vals[q] += c * vm[q];
                    }
                }
            }
            self.recorder.work(
                Stage::BwdTransform,
                WorkItem::Gemm { m: nq, n: 1, k: nm },
            );
            out.push(vals);
        }
        out
    }

    /// Physical-space gradient of a modal field (∂x, ∂y at quadrature).
    pub(crate) fn gradient(&mut self, coeffs: &[f64], stage: Stage) -> (QField, QField) {
        let prob = &self.viscous;
        let ne = prob.mesh.nelems();
        let mut gx_all = Vec::with_capacity(ne);
        let mut gy_all = Vec::with_capacity(ne);
        for ei in 0..ne {
            let basis = prob.basis(ei);
            let geom = &prob.ops[ei].geom;
            let nm = basis.nmodes();
            let nq = basis.nquad();
            let mut local = vec![0.0; nm];
            prob.asm.gather(ei, coeffs, &mut local);
            let mut gx = vec![0.0; nq];
            let mut gy = vec![0.0; nq];
            for (m, &c) in local.iter().enumerate() {
                if c != 0.0 {
                    let d1 = &basis.dxi1()[m];
                    let d2 = &basis.dxi2()[m];
                    for q in 0..nq {
                        let [a, b, cc, d] = geom.dxi_dx[q];
                        gx[q] += c * (d1[q] * a + d2[q] * cc);
                        gy[q] += c * (d1[q] * b + d2[q] * d);
                    }
                }
            }
            self.recorder.work(stage, WorkItem::Gemm { m: nq, n: 2, k: nm });
            gx_all.push(gx);
            gy_all.push(gy);
        }
        (gx_all, gy_all)
    }

    /// Advances one time step. Returns the per-stage times of this step.
    pub fn step(&mut self) -> StageClock {
        let step_span = nkt_trace::span("step", "step");
        let mut step_clock = StageClock::new();
        let dt = self.cfg.dt;
        let nu = self.cfg.nu;
        let ne = self.viscous.mesh.nelems();

        // Stage 1: modal -> quadrature transform of the velocity.
        let u_mod = self.u.clone();
        let v_mod = self.v.clone();
        let t0 = StageTimer::start(Stage::BwdTransform);
        let uq = self.to_quadrature(&u_mod);
        let vq = self.to_quadrature(&v_mod);
        step_clock.add(Stage::BwdTransform, t0.stop());

        // Stage 2: nonlinear terms at quadrature points.
        let t0 = StageTimer::start(Stage::NonLinear);
        let (nun, nvn) = if self.cfg.advect {
            let (dux, duy) = self.gradient(&u_mod, Stage::NonLinear);
            let (dvx, dvy) = self.gradient(&v_mod, Stage::NonLinear);
            let mut nun = Vec::with_capacity(ne);
            let mut nvn = Vec::with_capacity(ne);
            for ei in 0..ne {
                let nq = uq[ei].len();
                let mut a = vec![0.0; nq];
                let mut b = vec![0.0; nq];
                for q in 0..nq {
                    a[q] = -(uq[ei][q] * dux[ei][q] + vq[ei][q] * duy[ei][q]);
                    b[q] = -(uq[ei][q] * dvx[ei][q] + vq[ei][q] * dvy[ei][q]);
                }
                self.recorder.work(
                    Stage::NonLinear,
                    WorkItem::Stream {
                        flops: 6.0 * nq as f64,
                        bytes: 48.0 * nq as f64,
                        ws: 48 * nq,
                    },
                );
                nun.push(a);
                nvn.push(b);
            }
            (nun, nvn)
        } else {
            let zeros: QField = uq.iter().map(|v| vec![0.0; v.len()]).collect();
            (zeros.clone(), zeros)
        };
        step_clock.add(Stage::NonLinear, t0.stop());

        // Push history (newest at the front).
        self.hist_uq.push_front((uq, vq));
        self.hist_n.push_front((nun, nvn));
        let j = self.scheme.order.min(self.hist_uq.len());
        while self.hist_uq.len() > self.scheme.order {
            self.hist_uq.pop_back();
        }
        while self.hist_n.len() > self.scheme.order {
            self.hist_n.pop_back();
        }
        // Effective scheme ramps up over the first steps.
        let eff = StifflyStable::new(j);

        // Stage 3: stiffly-stable weighting: uhat = sum alpha u + dt sum
        // beta N, all in quadrature space.
        let t0 = StageTimer::start(Stage::StifflyStable);
        let mut uhat: QField = Vec::with_capacity(ne);
        let mut vhat: QField = Vec::with_capacity(ne);
        for ei in 0..ne {
            let nq = self.hist_uq[0].0[ei].len();
            let mut a = vec![0.0; nq];
            let mut b = vec![0.0; nq];
            for (lvl, ((huq, hvq), (hnu, hnv))) in
                self.hist_uq.iter().zip(self.hist_n.iter()).enumerate().take(j)
            {
                let al = eff.alpha[lvl];
                let be = eff.beta[lvl] * dt;
                for q in 0..nq {
                    a[q] += al * huq[ei][q] + be * hnu[ei][q];
                    b[q] += al * hvq[ei][q] + be * hnv[ei][q];
                }
            }
            self.recorder.work(
                Stage::StifflyStable,
                WorkItem::Stream {
                    flops: 8.0 * j as f64 * nq as f64,
                    bytes: 32.0 * j as f64 * nq as f64,
                    ws: 32 * nq,
                },
            );
            uhat.push(a);
            vhat.push(b);
        }
        step_clock.add(Stage::StifflyStable, t0.stop());

        // Stage 4: pressure RHS (integration by parts):
        // rhs_i = (1/dt) ∫ uhat·∇φ_i.
        let t0 = StageTimer::start(Stage::PressureRhs);
        let mut prhs = vec![0.0; self.pressure.asm.ndof];
        for ei in 0..ne {
            let basis = self.pressure.basis(ei);
            let geom = &self.pressure.ops[ei].geom;
            let nm = basis.nmodes();
            let nq = basis.nquad();
            let mut local = vec![0.0; nm];
            for (m, lm) in local.iter_mut().enumerate() {
                let d1 = &basis.dxi1()[m];
                let d2 = &basis.dxi2()[m];
                let mut s = 0.0;
                for q in 0..nq {
                    let [a, b, cc, d] = geom.dxi_dx[q];
                    let gpx = d1[q] * a + d2[q] * cc;
                    let gpy = d1[q] * b + d2[q] * d;
                    s += geom.jw[q] * (uhat[ei][q] * gpx + vhat[ei][q] * gpy);
                }
                *lm = s / dt;
            }
            self.pressure.asm.scatter_add(ei, &local, &mut prhs);
            self.recorder.work(Stage::PressureRhs, WorkItem::Gemm { m: nm, n: 2, k: nq });
        }
        step_clock.add(Stage::PressureRhs, t0.stop());

        // Stage 5: pressure solve (banded direct).
        let t0 = StageTimer::start(Stage::PressureSolve);
        let pzero = vec![0.0; self.pressure.asm.ndof];
        let (pnew, _) = self.pressure.solve_with_rhs(prhs, &pzero, SolveMethod::BandedDirect);
        self.p = pnew;
        self.recorder.work(
            Stage::PressureSolve,
            WorkItem::BandedSolve {
                n: self.pressure.asm.ndof,
                kd: self.pressure.matrix.kd(),
            },
        );
        step_clock.add(Stage::PressureSolve, t0.stop());

        // Stage 6: viscous RHS: u** = uhat - dt ∇p; rhs = (1/(nu dt)) ∫ u** φ.
        let t0 = StageTimer::start(Stage::ViscousRhs);
        let p_mod = self.p.clone();
        let (gpx, gpy) = {
            // Gradient of pressure uses the pressure problem's assembly.
            let prob = &self.pressure;
            let mut gx_all = Vec::with_capacity(ne);
            let mut gy_all = Vec::with_capacity(ne);
            for ei in 0..ne {
                let basis = prob.basis(ei);
                let geom = &prob.ops[ei].geom;
                let nm = basis.nmodes();
                let nq = basis.nquad();
                let mut local = vec![0.0; nm];
                prob.asm.gather(ei, &p_mod, &mut local);
                let mut gx = vec![0.0; nq];
                let mut gy = vec![0.0; nq];
                for (m, &c) in local.iter().enumerate() {
                    if c != 0.0 {
                        let d1 = &basis.dxi1()[m];
                        let d2 = &basis.dxi2()[m];
                        for q in 0..nq {
                            let [a, b, cc, d] = geom.dxi_dx[q];
                            gx[q] += c * (d1[q] * a + d2[q] * cc);
                            gy[q] += c * (d1[q] * b + d2[q] * d);
                        }
                    }
                }
                self.recorder.work(Stage::ViscousRhs, WorkItem::Gemm { m: nq, n: 2, k: nm });
                gx_all.push(gx);
                gy_all.push(gy);
            }
            (gx_all, gy_all)
        };
        let scale = 1.0 / (nu * dt);
        let mut urhs = vec![0.0; self.viscous.asm.ndof];
        let mut vrhs = vec![0.0; self.viscous.asm.ndof];
        for ei in 0..ne {
            let basis = self.viscous.basis(ei);
            let geom = &self.viscous.ops[ei].geom;
            let nm = basis.nmodes();
            let nq = basis.nquad();
            let mut lu = vec![0.0; nm];
            let mut lv = vec![0.0; nm];
            for m in 0..nm {
                let vm = &basis.val()[m];
                let mut su = 0.0;
                let mut sv = 0.0;
                for q in 0..nq {
                    let ustar = uhat[ei][q] - dt * gpx[ei][q];
                    let vstar = vhat[ei][q] - dt * gpy[ei][q];
                    su += geom.jw[q] * ustar * vm[q];
                    sv += geom.jw[q] * vstar * vm[q];
                }
                lu[m] = scale * su;
                lv[m] = scale * sv;
            }
            self.viscous.asm.scatter_add(ei, &lu, &mut urhs);
            self.viscous.asm.scatter_add(ei, &lv, &mut vrhs);
            self.recorder.work(Stage::ViscousRhs, WorkItem::Gemm { m: nm, n: 2, k: nq });
        }
        step_clock.add(Stage::ViscousRhs, t0.stop());

        // Stage 7: viscous Helmholtz solves for u and v (using the ramp
        // matrix while the BDF history is still filling).
        let t0 = StageTimer::start(Stage::ViscousSolve);
        let ud = self.ud_u.clone();
        let vd = self.ud_v.clone();
        let solver = if j < self.scheme.order {
            &mut self.ramp[j - 1]
        } else {
            &mut self.viscous
        };
        let (unew, _) = solver.solve_with_rhs(urhs, &ud, SolveMethod::BandedDirect);
        let (vnew, _) = solver.solve_with_rhs(vrhs, &vd, SolveMethod::BandedDirect);
        self.u = unew;
        self.v = vnew;
        for _ in 0..2 {
            self.recorder.work(
                Stage::ViscousSolve,
                WorkItem::BandedSolve {
                    n: self.viscous.asm.ndof,
                    kd: self.viscous.matrix.kd(),
                },
            );
        }
        step_clock.add(Stage::ViscousSolve, t0.stop());

        step_span.end();
        self.clock.merge(&step_clock);
        self.steps_taken += 1;
        step_clock
    }

    /// L2 error of the velocity against an exact pair.
    pub fn velocity_error(
        &self,
        exact_u: impl Fn([f64; 2]) -> f64,
        exact_v: impl Fn([f64; 2]) -> f64,
    ) -> f64 {
        let eu = self.viscous.l2_error(&self.u, exact_u);
        let ev = self.viscous.l2_error(&self.v, exact_v);
        (eu * eu + ev * ev).sqrt()
    }

    /// Total kinetic energy ½∫|u|².
    pub fn kinetic_energy(&self) -> f64 {
        let prob = &self.viscous;
        let mut e = 0.0;
        for ei in 0..prob.mesh.nelems() {
            let basis = prob.basis(ei);
            let geom = &prob.ops[ei].geom;
            let mut lu = vec![0.0; basis.nmodes()];
            let mut lv = vec![0.0; basis.nmodes()];
            prob.asm.gather(ei, &self.u, &mut lu);
            prob.asm.gather(ei, &self.v, &mut lv);
            for q in 0..basis.nquad() {
                let mut uu = 0.0;
                let mut vv = 0.0;
                for m in 0..basis.nmodes() {
                    uu += lu[m] * basis.val()[m][q];
                    vv += lv[m] * basis.val()[m][q];
                }
                e += 0.5 * geom.jw[q] * (uu * uu + vv * vv);
            }
        }
        e
    }

    /// L2 norm of the velocity divergence (a splitting-scheme health
    /// metric: should stay small).
    pub fn divergence_norm(&mut self) -> f64 {
        let u_mod = self.u.clone();
        let v_mod = self.v.clone();
        let (dux, _) = self.gradient(&u_mod, Stage::NonLinear);
        let (_, dvy) = self.gradient(&v_mod, Stage::NonLinear);
        let prob = &self.viscous;
        let mut d2 = 0.0;
        for ei in 0..prob.mesh.nelems() {
            let geom = &prob.ops[ei].geom;
            for q in 0..dux[ei].len() {
                let d = dux[ei][q] + dvy[ei][q];
                d2 += geom.jw[q] * d * d;
            }
        }
        d2.sqrt()
    }

    /// Steps taken so far.
    pub fn steps(&self) -> usize {
        self.steps_taken
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
        e.usize(self.viscous.asm.ndof);
        e.f64s(&self.u);
        e.f64s(&self.v);
        e.f64s(&self.p);
        e.f64s(&self.ud_u);
        e.f64s(&self.ud_v);
        w.section("fields", e.into_bytes());

        // "hist": the stiffly-stable history ring (velocity and
        // nonlinear-term quadrature fields, newest first).
        let mut e = nkt_ckpt::Enc::new();
        e.usize(self.hist_uq.len());
        for (uq, vq) in &self.hist_uq {
            e.vecs(uq);
            e.vecs(vq);
        }
        e.usize(self.hist_n.len());
        for (nu, nv) in &self.hist_n {
            e.vecs(nu);
            e.vecs(nv);
        }
        w.section("hist", e.into_bytes());

        let mut e = nkt_ckpt::Enc::new();
        e.usize(self.steps_taken);
        w.section("steps", e.into_bytes());

        let mut e = nkt_ckpt::Enc::new();
        for t in self.clock.totals {
            e.f64(t);
        }
        w.section(nkt_ckpt::CLOCK_SECTION, e.into_bytes());
    }

    fn read_sections(&mut self, f: &nkt_ckpt::CkptFile) -> Result<(), nkt_ckpt::CkptError> {
        let mut d = f.dec("fields")?;
        d.expect_u64(self.viscous.asm.ndof as u64, "serial2d dof count")?;
        self.u = d.f64s()?;
        self.v = d.f64s()?;
        self.p = d.f64s()?;
        self.ud_u = d.f64s()?;
        self.ud_v = d.f64s()?;
        d.finish()?;

        let mut d = f.dec("hist")?;
        let n_uq = d.len_prefix(64)?;
        self.hist_uq.clear();
        for _ in 0..n_uq {
            let uq = d.vecs()?;
            let vq = d.vecs()?;
            self.hist_uq.push_back((uq, vq));
        }
        let n_n = d.len_prefix(64)?;
        self.hist_n.clear();
        for _ in 0..n_n {
            let nu = d.vecs()?;
            let nv = d.vecs()?;
            self.hist_n.push_back((nu, nv));
        }
        d.finish()?;

        let mut d = f.dec("steps")?;
        self.steps_taken = d.u64()? as usize;
        d.finish()?;

        let mut d = f.dec(nkt_ckpt::CLOCK_SECTION)?;
        for t in self.clock.totals.iter_mut() {
            *t = d.f64()?;
        }
        d.finish()?;
        Ok(())
    }

    fn ckpt_step(&self) -> u64 {
        self.steps_taken as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // also an exact Stokes solution (its nonlinear term is a gradient,
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
        for _ in 0..3 {
            s.step();
        }
        let p = s.clock.percentages();
        let total: f64 = p.iter().sum();
        assert!((total - 100.0).abs() < 1e-9);
        // Paper Figure 12: "matrix inversions account for 60% of the total
        // CPU time" — direct solves (stages 5 + 7) must be the dominant
        // cost here too.
        let solves = p[Stage::PressureSolve.index()] + p[Stage::ViscousSolve.index()];
        assert!(solves > 30.0, "solves only {solves}% of step");
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
        // 3 banded solves per step: 1 pressure + 2 velocity.
        let solves = rec
            .work
            .iter()
            .filter(|(_, w)| matches!(w, WorkItem::BandedSolve { .. }))
            .count();
        assert_eq!(solves, 3);
    }

    #[test]
    fn pressure_viscous_and_ramp_share_one_discretization() {
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
        let cfg = SolverConfig { order: 4, dt: 1e-3, nu: 0.01, scheme_order: 3, advect: true };
        let s = Serial2dSolver::new(mesh, cfg, |_| 0.0, |_| 0.0);
        let disc = s.viscous.discretization();
        assert_eq!(s.ramp.len(), 2);
        for prob in std::iter::once(&s.pressure).chain(&s.ramp) {
            assert!(std::sync::Arc::ptr_eq(prob.discretization(), disc));
        }
        assert_eq!(std::sync::Arc::strong_count(disc), 4);
        // The no-outflow pressure pin stayed on the pressure problem.
        assert!(s.pressure.dirichlet()[0] && s.pressure.ndirichlet() == 1);
        assert_eq!(s.viscous.dirichlet(), s.ramp[0].dirichlet());
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
