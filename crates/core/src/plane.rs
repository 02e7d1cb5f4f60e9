//! One plane step: the seven stages of a time step (paper §4.1) over
//! `nmodes` modes of `ncomp` components × `nphase` spectral/hp planes —
//! the serial solver's one mode of (u, v) × one real plane, NekTar-F's
//! owned modes of (u, v, w) × (cos, sin) ("one Fourier mode … corresponds
//! to two spectral/hp element planes"). Stage 2's products are the one
//! seam ([`Seam`]); what else differs is data: λ per mode, the serial
//! solver's Dirichlet lift and the w/β coupling when `ncomp = 3`.

use crate::opstream::{direct_solve_span_args, Recorder, WorkItem};
use crate::splitting::{History, Layout, StifflyStable};
use crate::timers::{Stage, StageClock, StageTimer};
use nkt_mesh::BoundaryTag;
use nkt_spectral::{Discretization, HelmholtzProblem, PlaneScratch};
use std::sync::Arc;

/// `N` disjoint planes of `nq` points from the front of `buf`.
pub(crate) fn split_planes<const N: usize>(buf: &mut [f64], nq: usize) -> [&mut [f64]; N] {
    let mut planes = buf.chunks_exact_mut(nq);
    std::array::from_fn(|_| planes.next().expect("a buffer of at least N planes"))
}

/// ∂z (a cos βz + b sin βz) = βb cos βz − βa sin βz: the planes (a, b) of
/// `src` into those of `dst`.
fn dz(beta: f64, src: &[f64], dst: &mut [f64]) {
    let ((a, b), (da, db)) = (src.split_at(src.len() / 2), dst.split_at_mut(dst.len() / 2));
    for (((da, db), &a), &b) in da.iter_mut().zip(db).zip(a).zip(b) {
        (*da, *db) = (beta * b, -beta * a);
    }
}

/// A solver's modal coefficients, read in stages 1–2, then overwritten by
/// the viscous right-hand sides and solved in place.
pub(crate) trait Coeffs<const PL: usize> {
    /// Mode `mi`'s `ncomp × nphase` vectors, component-major.
    fn mode(&mut self, mi: usize) -> [&mut [f64]; PL];

    /// Vector `i` of mode `mi`'s.
    fn plane(&self, mi: usize, i: usize) -> &[f64];
}

impl<const N: usize> Coeffs<N> for [&mut Vec<f64>; N] {
    fn mode(&mut self, _mi: usize) -> [&mut [f64]; N] {
        self.each_mut().map(|v| v.as_mut_slice())
    }

    fn plane(&self, _mi: usize, i: usize) -> &[f64] {
        self[i]
    }
}

/// Stage 2's products, the one stage the two solvers run differently.
pub(crate) trait Seam {
    /// The virtual clock if stage 2 communicates, NaN otherwise.
    fn wtime(&self) -> f64 {
        f64::NAN
    }

    /// False in Stokes mode: no derivatives, no items, a zero level.
    fn advects(&self) -> bool {
        true
    }

    /// The nonlinear level from this step's velocity level and its
    /// derivatives (∂x, ∂y, for three components ∂z: a level each),
    /// recorded.
    fn products(&mut self, vel: &[f64], grad: &[f64], nl: &mut [f64], rec: &mut Recorder);

    /// Records stage 3 over `j` levels in the solver's own shape (one item
    /// an element or one a rank: `workload.rs` mirrors each).
    fn record_weighting(&self, rec: &mut Recorder, l: Layout, j: usize);
}

/// The history, ramp problems and workspace of a 2-D solver's step.
pub(crate) struct PlaneStep {
    dt: f64,
    nu: f64,
    /// Each mode's spanwise wavenumber β.
    betas: Vec<f64>,
    /// Each mode's start-up viscous problems: index j − 1 holds the
    /// order-j scheme's. Lazy: a resumed run never solves them.
    pub ramp: Vec<Vec<HelmholtzProblem>>,
    /// Quadrature-space velocity and nonlinear-term levels, the scheme and
    /// the steps taken.
    pub hist: History,
    /// Stage 2's derivatives: a level a direction, a direction a component.
    /// Between steps, the stats probes' gradient planes.
    pub grad: Vec<f64>,
    /// The weighted level û.
    hat: Vec<f64>,
    /// A mode's planes: ∂z ŵ (or zero) in stage 4; ∂x p, ∂y p (and p) in
    /// stage 6, overwritten in place by u*, v* (and w*). Between steps,
    /// the stats probes' value planes.
    pub planes: Vec<f64>,
    band: Vec<f64>,
    pub scratch: PlaneScratch,
}

/// `xs` through one direct solve of `prob`, in place, inside a
/// `banded_solve` kernel span, recorded under `stage`.
fn solve(
    prob: &mut HelmholtzProblem,
    xs: &mut [&mut [f64]],
    lift: Option<&[&[f64]]>,
    band: &mut Vec<f64>,
    stage: Stage,
    rec: &mut Recorder,
) {
    let span = nkt_trace::span("banded_solve", "kernel");
    prob.solve_banded_in_place(xs, lift, band);
    if nkt_trace::mode() == nkt_trace::TraceMode::Spans {
        span.end_v_args(f64::NAN, &direct_solve_span_args(prob, xs.len()));
    }
    rec.direct_solve(stage, prob, xs.len());
}

impl PlaneStep {
    /// One mode a wavenumber in `betas`, every buffer and ramp problem
    /// built here.
    pub fn new(
        disc: &Arc<Discretization>,
        scheme_order: usize,
        dt: f64,
        nu: f64,
        betas: Vec<f64>,
        ncomp: usize,
        nphase: usize,
    ) -> PlaneStep {
        assert!(ncomp == 2 || (ncomp == 3 && nphase == 2), "w couples a cos/sin pair");
        let layout = Layout { nmodes: betas.len(), ncomp, nphase, nq: disc.nquad_total() };
        let nplanes = ncomp * nphase;
        let mut plane = PlaneStep {
            dt,
            nu,
            betas,
            ramp: Vec::new(),
            hist: History::new(scheme_order, layout),
            grad: vec![0.0; ncomp * layout.level_len()],
            hat: vec![0.0; layout.level_len()],
            planes: vec![0.0; nplanes * layout.nq],
            band: vec![0.0; nplanes * disc.asm.nboundary],
            scratch: disc.plane_scratch(),
        };
        let ramp = |mi| (1..scheme_order).map(|j| plane.viscous(disc, mi, j)).collect();
        plane.ramp = (0..layout.nmodes).map(ramp).collect();
        plane
    }

    /// Mode `mi`'s viscous problem under the order-`j` scheme: λ = β² +
    /// γ₀/νΔt, Dirichlet velocity.
    fn viscous(&self, disc: &Arc<Discretization>, mi: usize, j: usize) -> HelmholtzProblem {
        let beta = self.betas[mi];
        let lambda = beta * beta + StifflyStable::new(j).gamma0 / (self.nu * self.dt);
        let tags = [BoundaryTag::Inflow, BoundaryTag::Wall, BoundaryTag::Side];
        HelmholtzProblem::member(disc, lambda, &tags)
    }

    /// Mode `mi`'s pressure (λ = β², Dirichlet at the outflow, dof 0 pinned
    /// if β = 0 leaves none) and viscous problems, factored here, not
    /// inside a host-timed stage.
    pub fn problems(
        &self,
        disc: &Arc<Discretization>,
        mi: usize,
    ) -> (HelmholtzProblem, HelmholtzProblem) {
        let beta = self.betas[mi];
        let mut pressure = HelmholtzProblem::member(disc, beta * beta, &[BoundaryTag::Outflow]);
        if pressure.ndirichlet() == 0 && beta == 0.0 {
            pressure.pin_dof(0);
        }
        let mut viscous = self.viscous(disc, mi, self.hist.scheme.order);
        pressure.factorize();
        viscous.factorize();
        (pressure, viscous)
    }

    /// One time step of `PH` planes a component, `PL` a mode. Stage 7
    /// imposes `lift` (a vector a plane) if given; `p` is left holding the
    /// last mode's pressure. Returns the step's stage times (host seconds).
    pub fn step<const PH: usize, const PL: usize>(
        &mut self,
        disc: &Discretization,
        coeffs: &mut (impl Coeffs<PL> + ?Sized),
        pressure: &mut [HelmholtzProblem],
        viscous: &mut [HelmholtzProblem],
        lift: Option<[&[f64]; PL]>,
        p: &mut Vec<f64>,
        seam: &mut impl Seam,
        rec: &mut Recorder,
    ) -> StageClock {
        let l = self.hist.layout;
        assert_eq!((l.nphase, l.ncomp * l.nphase), (PH, PL), "the layout's planes");
        let step_span = nkt_trace::span_v("step", "step", seam.wtime());
        let mut sc = StageClock::new();
        let (dt, nu, nq, ndof) = (self.dt, self.nu, l.nq, disc.asm.ndof);
        let order = self.hist.scheme.order;
        // This step's velocity and nonlinear planes are the next history
        // level: written in place, never copied.
        let (mut vel, mut nonlin) = self.hist.levels();

        // Stage 1: modal -> quadrature, every plane of the level in one
        // call (level plane `i` is component i / (nmodes·PH), mode
        // i / PH % nmodes, phase i % PH).
        let t0 = StageTimer::start(Stage::BwdTransform);
        let nplanes = l.nmodes * PL;
        let cf = &*coeffs;
        let plane = |i: usize| cf.plane(i / PH % l.nmodes, i / (l.nmodes * PH) * PH + i % PH);
        disc.quad_planes_into(nplanes, plane, Some(&mut vel), None, &mut self.scratch);
        let values = |nm, nq| WorkItem::Gemm { m: nq, n: PH, k: nm };
        (0..l.nmodes * l.ncomp).for_each(|_| rec.work_per_elem(disc, Stage::BwdTransform, values));
        sc.add(Stage::BwdTransform, t0.stop());

        // Stage 2: derivatives of every plane, then the solver's products.
        let t0 = StageTimer::start_v(Stage::NonLinear, seam.wtime());
        if seam.advects() {
            let (gx, rest) = self.grad.split_at_mut(l.level_len());
            let (gy, gz) = rest.split_at_mut(l.level_len());
            disc.quad_planes_into(nplanes, plane, None, Some([gx, gy]), &mut self.scratch);
            if rec.rec.is_some() {
                for _ in 0..l.nmodes * l.ncomp {
                    for ei in 0..disc.mesh.nelems() {
                        let basis = disc.basis(ei);
                        let derivs = WorkItem::Gemm { m: basis.nquad(), n: 2, k: basis.nmodes() };
                        (0..PH).for_each(|_| rec.work(Stage::NonLinear, derivs));
                    }
                }
            }
            // ∂z of every cos/sin pair (a 2-D flow has none).
            let pairs = vel.chunks_exact(2 * nq).zip(gz.chunks_exact_mut(2 * nq));
            for (i, (v, d)) in pairs.enumerate() {
                dz(self.betas[i % l.nmodes], v, d);
            }
            seam.products(&vel, &self.grad, &mut nonlin, rec);
        } else {
            nonlin.fill(0.0);
        }
        sc.add(Stage::NonLinear, t0.stop_v(seam.wtime()));

        // History push: `j` levels are in effect, fewer than the scheme's
        // order over the first steps.
        let j = self.hist.push(vel, nonlin);

        // Stage 3: û = Σ α u + Δt Σ β N, all in quadrature space.
        let t0 = StageTimer::start(Stage::StifflyStable);
        self.hist.weight(dt, &mut self.hat);
        seam.record_weighting(rec, l, j);
        sc.add(Stage::StifflyStable, t0.stop());

        // Stages 4-7 per mode.
        for mi in 0..l.nmodes {
            let beta = self.betas[mi];
            let hat = |c, ab| &self.hat[l.at(c, mi, ab)];

            // Stage 4: pressure right-hand sides (1/Δt) ∫ û·∇φ, with ∂z ŵ
            // formed once per point.
            let t0 = StageTimer::start(Stage::PressureRhs);
            let dzw = &mut self.planes[..PH * nq];
            if l.ncomp == 3 {
                dz(beta, &self.hat[l.at(2, mi, 0).start..][..PH * nq], dzw);
            } else {
                dzw.fill(0.0);
            }
            p.clear();
            p.resize(PH * ndof, 0.0);
            let f0: [&[f64]; PH] = split_planes::<PH>(dzw, nq).map(|f| &*f);
            let [hu, hv] = [0, 1].map(|c| std::array::from_fn(|ab| hat(c, ab)));
            disc.weak_div_add(hu, hv, f0, dt, split_planes(p, ndof), &mut self.scratch);
            let weak = |nm, nq| WorkItem::Gemm { m: nm, n: 2 * PH, k: nq };
            rec.work_per_elem(disc, Stage::PressureRhs, weak);
            sc.add(Stage::PressureRhs, t0.stop());

            // Stage 5: the pressure solves against one factor ("the real and
            // imaginary parts of a Fourier mode sharing the same
            // matrices"), in place: `p` now holds the pressure.
            let t0 = StageTimer::start(Stage::PressureSolve);
            let xs = &mut split_planes::<PH>(p, ndof);
            solve(&mut pressure[mi], xs, None, &mut self.band, Stage::PressureSolve, rec);
            sc.add(Stage::PressureSolve, t0.stop());

            // Stage 6: viscous right-hand sides (1/νΔt) ∫ u**·φ, with
            // u** = û − Δt ∇p formed once per point over the planes of ∇p.
            let t0 = StageTimer::start(Stage::ViscousRhs);
            // ∇p of every phase and, for three components, p's values (in
            // stage 2's derivatives, dead by now) from one gather, then ∂z p.
            let pq: [&[f64]; PH] = split_planes::<PH>(p, ndof).map(|f| &*f);
            let (gx, rest) = self.planes.split_at_mut(PH * nq);
            let (gy, pz) = rest.split_at_mut(PH * nq);
            let pw = (l.ncomp == 3).then(|| &mut self.grad[..PH * nq]);
            disc.quad_planes_into(PH, |ab| pq[ab], pw, Some([gx, gy]), &mut self.scratch);
            if l.ncomp == 3 {
                dz(beta, &self.grad[..PH * nq], pz);
            }
            for (i, star) in self.planes.chunks_exact_mut(nq).enumerate() {
                for (s, &h) in star.iter_mut().zip(hat(i / PH, i % PH)) {
                    *s = h - dt * *s;
                }
            }
            let mut rhs = coeffs.mode(mi);
            rhs.iter_mut().for_each(|r| r.fill(0.0));
            let ustar: [&[f64]; PL] = split_planes::<PL>(&mut self.planes, nq).map(|f| &*f);
            disc.weak_mass_add(ustar, 1.0 / (nu * dt), rhs, &mut self.scratch);
            // In the replay model's units: ∇p of every phase and a weak form
            // of every plane (p's own value planes ride along).
            let derivs = |nm, nq| WorkItem::Gemm { m: nq, n: 2 * PH, k: nm };
            let weak = |nm, nq| WorkItem::Gemm { m: nm, n: PL, k: nq };
            rec.work_per_elem(disc, Stage::ViscousRhs, derivs);
            rec.work_per_elem(disc, Stage::ViscousRhs, weak);
            sc.add(Stage::ViscousRhs, t0.stop());

            // Stage 7: the viscous solves of every plane against one factor
            // (the ramp's while the history is still filling).
            let t0 = StageTimer::start(Stage::ViscousSolve);
            let prob = if j < order { &mut self.ramp[mi][j - 1] } else { &mut viscous[mi] };
            let lift = lift.as_ref().map(|lift| &lift[..]);
            solve(prob, &mut coeffs.mode(mi), lift, &mut self.band, Stage::ViscousSolve, rec);
            sc.add(Stage::ViscousSolve, t0.stop());
        }
        step_span.end_v(seam.wtime());
        sc
    }
}
