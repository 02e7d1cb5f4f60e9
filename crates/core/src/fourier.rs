//! NekTar-F: Fourier × spectral/hp parallel Navier–Stokes solver
//! (paper §4.2.1, Table 2, Figures 13–14).
//!
//! The spanwise (z) direction is homogeneous and expanded in Fourier
//! modes; the x–y plane uses the 2-D spectral/hp discretisation. Mode k
//! is carried as a cos/sin pair of 2-D planes ("one Fourier mode ...
//! corresponds to two spectral/hp element planes"). Ranks own contiguous
//! blocks of modes; the nonlinear step performs the paper's sequence:
//!
//! * Global Exchange (Alltoall) of velocity (and gradient) planes,
//! * Nxy 1-D inverse FFTs per field,
//! * pointwise nonlinear products in physical z space,
//! * Nxy 1-D FFTs of the nonlinear terms,
//! * Global Exchange back.
//!
//! Poisson/Helmholtz solves are per-mode 2-D banded direct solves with
//! λ_k = β_k² (+ γ₀/νΔt), β_k = 2πk/L_z — "direct solvers may be
//! employed for the solution of 2D Helmholtz problems on each processor".

use crate::decomp::{parse_grid, Decomposition, FourierCfgError, Pencil2D, Slab, TransposeCtx};
use crate::opstream::{Recorder, WorkItem};
use crate::splitting::StifflyStable;
use crate::timers::{Stage, StageClock, StageTimer};
use nkt_fft::{Complex64, RealFft};
use nkt_mesh::{BoundaryTag, Mesh2d};
use nkt_mpi::prelude::*;
use nkt_spectral::{Discretization, HelmholtzProblem, SolveMethod};
use std::collections::VecDeque;
use std::sync::Arc;

/// Configuration for a NekTar-F run.
#[derive(Debug, Clone)]
pub struct FourierConfig {
    /// Polynomial order of the x–y expansion.
    pub order: usize,
    /// Time step.
    pub dt: f64,
    /// Kinematic viscosity.
    pub nu: f64,
    /// Number of real z-planes (must be even; modes = nz/2, Nyquist
    /// dropped).
    pub nz: usize,
    /// Spanwise period L_z (paper: 2π for the bluff-body runs).
    pub lz: f64,
    /// Splitting order.
    pub scheme_order: usize,
}

impl Default for FourierConfig {
    fn default() -> Self {
        FourierConfig {
            order: 4,
            dt: 1e-3,
            nu: 0.01,
            nz: 8,
            lz: 2.0 * std::f64::consts::PI,
            scheme_order: 2,
        }
    }
}

/// A field for one Fourier mode at quadrature points: cos (`a`) and sin
/// (`b`) plane values.
#[derive(Debug, Clone, Default)]
pub struct ModePlane {
    /// Cosine-plane values.
    pub a: Vec<f64>,
    /// Sine-plane values.
    pub b: Vec<f64>,
}

/// Modal (assembled, global-dof) coefficients for one mode: cos/sin.
#[derive(Debug, Clone, Default)]
pub struct ModeCoeffs {
    /// Cosine-plane coefficients.
    pub a: Vec<f64>,
    /// Sine-plane coefficients.
    pub b: Vec<f64>,
}

/// Per-rank NekTar-F solver state.
pub struct NektarF {
    /// Configuration.
    pub cfg: FourierConfig,
    scheme: StifflyStable,
    /// Mode/point layout and transpose plan ([`Slab`] or [`Pencil2D`]).
    decomp: Box<dyn Decomposition>,
    /// Modes owned by this rank (global indices, contiguous; mirror of
    /// the decomposition's block for direct access).
    pub my_modes: std::ops::Range<usize>,
    /// Mesh, bases, dof map and elemental operators of the x–y plane:
    /// one per rank, shared by every per-mode problem below.
    pub(crate) disc: Arc<Discretization>,
    /// Per owned mode: pressure problem (λ = β²).
    pub(crate) pressure: Vec<HelmholtzProblem>,
    /// Per owned mode: viscous problem (λ = β² + γ₀/(νΔt)).
    pub(crate) viscous: Vec<HelmholtzProblem>,
    /// Ramp-order viscous problems (first steps), per owned mode.
    ramp: Vec<Vec<HelmholtzProblem>>,
    /// Modal coefficients per mode per component [u, v, w].
    pub fields: Vec<[ModeCoeffs; 3]>,
    /// History of quadrature-space velocity (per mode, per component).
    hist_vel: VecDeque<Vec<[ModePlane; 3]>>,
    /// History of nonlinear terms.
    hist_n: VecDeque<Vec<[ModePlane; 3]>>,
    /// Quadrature points per plane (flattened element-major).
    pub(crate) nq_total: usize,
    /// Per-element (offset, nq) into the flattened quadrature vector.
    pub(crate) elem_off: Vec<(usize, usize)>,
    /// Stage clock (host compute seconds + virtual comm seconds).
    pub clock: StageClock,
    /// Recorder for the model replay.
    pub recorder: Recorder,
    /// Pipeline the transpose exchanges against per-field FFT work
    /// (`NKT_OVERLAP`, default on). Results are bitwise identical either
    /// way; only the virtual wall clock changes.
    pub overlap: bool,
    /// Alltoall algorithm for the blocking transpose path
    /// (`NKT_A2A_ALGO`: pairwise | ring | bruck).
    pub a2a_algo: AlltoallAlgo,
    steps_taken: usize,
}

impl NektarF {
    /// Builds the per-rank solver. Collective over `comm`: modes are
    /// block-distributed over ranks ("a straightforward mapping of
    /// Fourier modes to P processors").
    ///
    /// Panicking wrapper over [`NektarF::try_new`] for callers that
    /// treat a bad grid as a bug.
    pub fn new(comm: &mut Comm, mesh: &Mesh2d, cfg: FourierConfig) -> NektarF {
        NektarF::try_new(comm, mesh, cfg).unwrap_or_else(|e| panic!("NektarF::new: {e}"))
    }

    /// [`NektarF::new`] with a typed error instead of a panic. The
    /// decomposition comes from `NKT_GRID` (`PRxPC`, e.g. `4x2` →
    /// [`Pencil2D`]); unset means the paper's [`Slab`] layout.
    pub fn try_new(
        comm: &mut Comm,
        mesh: &Mesh2d,
        cfg: FourierConfig,
    ) -> Result<NektarF, FourierCfgError> {
        match std::env::var("NKT_GRID") {
            Ok(spec) => {
                let (pr, pc) = parse_grid(&spec)?;
                NektarF::try_new_with_grid(comm, mesh, cfg, pr, pc)
            }
            Err(_) => NektarF::try_new_with_grid(comm, mesh, cfg, comm.size(), 1),
        }
    }

    /// Builds the solver on an explicit `pr × pc` process grid. `pc = 1`
    /// is the slab decomposition (one world alltoall per transpose);
    /// `pc > 1` is the 2-D pencil decomposition (DESIGN.md §13), which
    /// admits `P` up to `pc` times the mode count.
    pub fn try_new_with_grid(
        comm: &mut Comm,
        mesh: &Mesh2d,
        cfg: FourierConfig,
        pr: usize,
        pc: usize,
    ) -> Result<NektarF, FourierCfgError> {
        if cfg.nz < 2 || !cfg.nz.is_multiple_of(2) {
            return Err(FourierCfgError::OddNz { nz: cfg.nz });
        }
        let nmodes = cfg.nz / 2;
        if pr == 0 || pc == 0 || pr * pc != comm.size() {
            return Err(FourierCfgError::GridMismatch { pr, pc, p: comm.size() });
        }
        let decomp: Box<dyn Decomposition> = if pc == 1 {
            Box::new(Slab::new(comm, nmodes)?)
        } else {
            Box::new(Pencil2D::new(comm, pr, pc, nmodes)?)
        };
        let my_modes = decomp.my_modes();
        let mpp = my_modes.len();
        let scheme = StifflyStable::new(cfg.scheme_order);
        let vel_tags = [BoundaryTag::Inflow, BoundaryTag::Wall, BoundaryTag::Side];
        // The per-mode problems differ only in λ: one discretization, and
        // 1 + scheme_order members of it per owned mode.
        let disc = Discretization::new(mesh.clone(), cfg.order);
        let mut pressure = Vec::with_capacity(mpp);
        let mut viscous = Vec::with_capacity(mpp);
        let mut ramp = Vec::with_capacity(mpp);
        for k in my_modes.clone() {
            let beta = 2.0 * std::f64::consts::PI * k as f64 / cfg.lz;
            let mut pp = HelmholtzProblem::member(&disc, beta * beta, &[BoundaryTag::Outflow]);
            // The k = 0 pressure problem is pure-Neumann Poisson when the
            // mesh has no outflow: pin its null space.
            if pp.ndirichlet() == 0 && beta == 0.0 {
                pp.pin_dof(0);
            }
            let lam_v = beta * beta + scheme.gamma0 / (cfg.nu * cfg.dt);
            let mut vp = HelmholtzProblem::member(&disc, lam_v, &vel_tags);
            // Factor here, not inside the first host-timed solve stages.
            // The ramp problems stay lazy: a resumed run never solves them.
            pp.factorize();
            vp.factorize();
            pressure.push(pp);
            viscous.push(vp);
            let ramps: Vec<HelmholtzProblem> = (1..cfg.scheme_order)
                .map(|j| {
                    let lam_j =
                        beta * beta + StifflyStable::new(j).gamma0 / (cfg.nu * cfg.dt);
                    HelmholtzProblem::member(&disc, lam_j, &vel_tags)
                })
                .collect();
            ramp.push(ramps);
        }
        let mut elem_off = Vec::with_capacity(mesh.nelems());
        let mut off = 0usize;
        for ei in 0..mesh.nelems() {
            let nq = disc.basis(ei).nquad();
            elem_off.push((off, nq));
            off += nq;
        }
        let ndof = disc.asm.ndof;
        let fields = (0..mpp)
            .map(|_| {
                [
                    ModeCoeffs { a: vec![0.0; ndof], b: vec![0.0; ndof] },
                    ModeCoeffs { a: vec![0.0; ndof], b: vec![0.0; ndof] },
                    ModeCoeffs { a: vec![0.0; ndof], b: vec![0.0; ndof] },
                ]
            })
            .collect();
        Ok(NektarF {
            cfg,
            scheme,
            decomp,
            my_modes,
            disc,
            pressure,
            viscous,
            ramp,
            fields,
            hist_vel: VecDeque::new(),
            hist_n: VecDeque::new(),
            nq_total: off,
            elem_off,
            clock: StageClock::new(),
            recorder: Recorder::disabled(),
            overlap: std::env::var("NKT_OVERLAP").map_or(true, |v| v != "0"),
            a2a_algo: std::env::var("NKT_A2A_ALGO")
                .ok()
                .and_then(|v| AlltoallAlgo::parse(&v))
                .unwrap_or(AlltoallAlgo::Pairwise),
            steps_taken: 0,
        })
    }

    /// Selects the pipelined (`true`) or blocking (`false`) transpose,
    /// overriding the `NKT_OVERLAP` environment default.
    pub fn set_overlap(&mut self, on: bool) {
        self.overlap = on;
    }

    /// Selects the alltoall algorithm used by the blocking transpose,
    /// overriding the `NKT_A2A_ALGO` environment default.
    pub fn set_alltoall_algo(&mut self, algo: AlltoallAlgo) {
        self.a2a_algo = algo;
    }

    /// Spanwise wavenumber of global mode `k`.
    pub fn beta(&self, k: usize) -> f64 {
        2.0 * std::f64::consts::PI * k as f64 / self.cfg.lz
    }

    /// Degrees of freedom per rank (all owned planes × components).
    pub fn local_dof(&self) -> usize {
        self.my_modes.len() * 2 * 3 * self.disc.asm.ndof
    }

    /// Sets the initial velocity from a physical-space function
    /// `f([x,y,z]) -> [u,v,w]` by z-DFT sampling + per-mode 2-D L2
    /// projection: `f` is sampled once per (quadrature point, plane) and
    /// one forward FFT per (point, component) yields the coefficient of
    /// every owned mode at that point.
    pub fn set_initial(&mut self, f: impl Fn([f64; 3]) -> [f64; 3]) {
        let nz = self.cfg.nz;
        let lz = self.cfg.lz;
        let nq = self.nq_total;
        let mpp = self.my_modes.len();
        let fft = RealFft::new(nz);
        // Plane (mi, c, cos | sin) is row (mi·3 + c)·2 + (0 | 1) of `planes`,
        // element-major quadrature values like every other plane here.
        let mut planes = vec![0.0; mpp * 3 * 2 * nq];
        let mut lines = [vec![0.0; nz], vec![0.0; nz], vec![0.0; nz]];
        let mut sp = vec![Complex64::ZERO; fft.spectrum_len()];
        for (q, x) in self.disc.quad_points().enumerate() {
            for j in 0..nz {
                let v = f([x[0], x[1], lz * j as f64 / nz as f64]);
                for (line, vc) in lines.iter_mut().zip(v) {
                    line[j] = vc;
                }
            }
            for (c, line) in lines.iter().enumerate() {
                forward_fft(&fft, line, &mut sp);
                for (mi, k) in self.my_modes.clone().enumerate() {
                    let row = (mi * 3 + c) * 2;
                    let (a, b) = mode_coeffs(&sp, k, nz);
                    planes[row * nq + q] = a;
                    planes[(row + 1) * nq + q] = b;
                }
            }
        }
        let mut rows = planes.chunks_exact(nq);
        for comps in self.fields.iter_mut() {
            for mc in comps.iter_mut() {
                mc.a = self.disc.l2_project_quad(rows.next().expect("a row per plane"));
                mc.b = self.disc.l2_project_quad(rows.next().expect("a row per plane"));
            }
        }
        self.hist_vel.clear();
        self.hist_n.clear();
        self.steps_taken = 0;
    }

    /// Quadrature values of the modal field `coeffs` on one plane.
    pub(crate) fn to_quad(&self, coeffs: &[f64]) -> Vec<f64> {
        let disc = &*self.disc;
        let mut out = vec![0.0; self.nq_total];
        for ei in 0..disc.mesh.nelems() {
            let basis = disc.basis(ei);
            let (off, nq) = self.elem_off[ei];
            let mut local = vec![0.0; basis.nmodes()];
            disc.asm.gather(ei, coeffs, &mut local);
            for (m, &c) in local.iter().enumerate() {
                if c != 0.0 {
                    let vm = &basis.val()[m];
                    for q in 0..nq {
                        out[off + q] += c * vm[q];
                    }
                }
            }
        }
        out
    }

    /// Quadrature values of (∂x, ∂y) of the modal field `coeffs`.
    pub(crate) fn grad_quad(&self, coeffs: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let disc = &*self.disc;
        let mut gx = vec![0.0; self.nq_total];
        let mut gy = vec![0.0; self.nq_total];
        for ei in 0..disc.mesh.nelems() {
            let basis = disc.basis(ei);
            let geom = &disc.ops[ei].geom;
            let (off, nq) = self.elem_off[ei];
            let mut local = vec![0.0; basis.nmodes()];
            disc.asm.gather(ei, coeffs, &mut local);
            for (m, &c) in local.iter().enumerate() {
                if c != 0.0 {
                    let d1 = &basis.dxi1()[m];
                    let d2 = &basis.dxi2()[m];
                    for q in 0..nq {
                        let [ja, jb, jc, jd] = geom.dxi_dx[q];
                        gx[off + q] += c * (d1[q] * ja + d2[q] * jc);
                        gy[off + q] += c * (d1[q] * jb + d2[q] * jd);
                    }
                }
            }
        }
        (gx, gy)
    }

    /// The decomposition's short name ("slab" / "pencil").
    pub fn decomp_name(&self) -> &'static str {
        self.decomp.name()
    }

    /// `(rows, cols)` of the process grid (slab: `(P, 1)`).
    pub fn grid(&self) -> (usize, usize) {
        self.decomp.grid()
    }

    /// True on the one rank per mode block whose diagnostics count
    /// (pencil grids replicate modes across `pc` columns; summing every
    /// rank's contribution would inflate mode sums `pc`-fold).
    pub fn is_primary(&self) -> bool {
        self.decomp.is_primary()
    }

    /// Advances one time step (collective). Returns this step's stage
    /// times (host compute seconds; the NonLinear stage additionally
    /// carries the virtual communication time).
    pub fn step(&mut self, comm: &mut Comm) -> StageClock {
        let step_span = nkt_trace::span_v("step", "step", comm.wtime());
        let mut sc = StageClock::new();
        let dt = self.cfg.dt;
        let nu = self.cfg.nu;
        let mpp = self.my_modes.len();

        // Stage 1: modal -> quadrature for u, v, w (cos & sin planes).
        let t0 = StageTimer::start(Stage::BwdTransform);
        let mut vel: Vec<[ModePlane; 3]> = Vec::with_capacity(mpp);
        for mi in 0..mpp {
            let mut comps: [ModePlane; 3] = Default::default();
            for (c, comp) in comps.iter_mut().enumerate() {
                comp.a = self.to_quad(&self.fields[mi][c].a);
                comp.b = self.to_quad(&self.fields[mi][c].b);
                for ei in 0..self.disc.mesh.nelems() {
                    let basis = self.disc.basis(ei);
                    self.recorder.work(
                        Stage::BwdTransform,
                        WorkItem::Gemm { m: basis.nquad(), n: 2, k: basis.nmodes() },
                    );
                }
            }
            vel.push(comps);
        }
        sc.add(Stage::BwdTransform, t0.stop());

        // Stage 2: nonlinear terms via the Alltoall/FFT sandwich.
        let wall0 = comm.wtime();
        let t0 = StageTimer::start_v(Stage::NonLinear, wall0);
        let mut mode_fields: Vec<Vec<ModePlane>> = (0..12).map(|_| Vec::with_capacity(mpp)).collect();
        for mi in 0..mpp {
            let k = self.my_modes.start + mi;
            let beta = self.beta(k);
            for c in 0..3 {
                mode_fields[c].push(vel[mi][c].clone());
                let (gxa, gya) = self.grad_quad(&self.fields[mi][c].a);
                let (gxb, gyb) = self.grad_quad(&self.fields[mi][c].b);
                for ei in 0..self.disc.mesh.nelems() {
                    let basis = self.disc.basis(ei);
                    for _ in 0..2 {
                        self.recorder.work(
                            Stage::NonLinear,
                            WorkItem::Gemm { m: basis.nquad(), n: 2, k: basis.nmodes() },
                        );
                    }
                }
                mode_fields[3 + c].push(ModePlane { a: gxa, b: gxb });
                mode_fields[6 + c].push(ModePlane { a: gya, b: gyb });
                let dza: Vec<f64> = vel[mi][c].b.iter().map(|&v| beta * v).collect();
                let dzb: Vec<f64> = vel[mi][c].a.iter().map(|&v| -beta * v).collect();
                mode_fields[9 + c].push(ModePlane { a: dza, b: dzb });
            }
        }
        let mut ctx = TransposeCtx {
            nz: self.cfg.nz,
            nq_total: self.nq_total,
            overlap: self.overlap,
            algo: self.a2a_algo,
            recorder: &mut self.recorder,
        };
        let phys = self.decomp.to_phys(comm, &mut ctx, &mode_fields);
        let npts = phys[0].len();
        let nz = self.cfg.nz;
        let mut nl = vec![vec![vec![0.0; nz]; npts]; 3];
        for pt in 0..npts {
            for j in 0..nz {
                let u = phys[0][pt][j];
                let v = phys[1][pt][j];
                let w = phys[2][pt][j];
                for c in 0..3 {
                    nl[c][pt][j] = -(u * phys[3 + c][pt][j]
                        + v * phys[6 + c][pt][j]
                        + w * phys[9 + c][pt][j]);
                }
            }
        }
        self.recorder.work(
            Stage::NonLinear,
            WorkItem::Stream {
                flops: 18.0 * (npts * nz) as f64,
                bytes: 8.0 * 15.0 * (npts * nz) as f64,
                ws: 8 * 15 * (npts * nz).max(1),
            },
        );
        let mut ctx = TransposeCtx {
            nz: self.cfg.nz,
            nq_total: self.nq_total,
            overlap: self.overlap,
            algo: self.a2a_algo,
            recorder: &mut self.recorder,
        };
        let nl_modes = self.decomp.to_modes(comm, &mut ctx, &nl);
        let mut nonlin: Vec<[ModePlane; 3]> = Vec::with_capacity(mpp);
        for mi in 0..mpp {
            nonlin.push([
                nl_modes[0][mi].clone(),
                nl_modes[1][mi].clone(),
                nl_modes[2][mi].clone(),
            ]);
        }
        let virt = comm.wtime() - wall0;
        let host = t0.stop_v(comm.wtime());
        sc.add(Stage::NonLinear, host + virt);

        // History push with startup ramp.
        self.hist_vel.push_front(vel);
        self.hist_n.push_front(nonlin);
        let j = self.scheme.order.min(self.hist_vel.len());
        while self.hist_vel.len() > self.scheme.order {
            self.hist_vel.pop_back();
        }
        while self.hist_n.len() > self.scheme.order {
            self.hist_n.pop_back();
        }
        let eff = StifflyStable::new(j);

        // Stage 3: stiffly-stable weighting.
        let t0 = StageTimer::start(Stage::StifflyStable);
        let mut hat: Vec<[ModePlane; 3]> = Vec::with_capacity(mpp);
        for mi in 0..mpp {
            let mut comps: [ModePlane; 3] = Default::default();
            for (c, comp) in comps.iter_mut().enumerate() {
                let mut a = vec![0.0; self.nq_total];
                let mut b = vec![0.0; self.nq_total];
                for lvl in 0..j {
                    let al = eff.alpha[lvl];
                    let be = eff.beta[lvl] * dt;
                    let hv = &self.hist_vel[lvl][mi][c];
                    let hn = &self.hist_n[lvl][mi][c];
                    for q in 0..self.nq_total {
                        a[q] += al * hv.a[q] + be * hn.a[q];
                        b[q] += al * hv.b[q] + be * hn.b[q];
                    }
                }
                *comp = ModePlane { a, b };
            }
            hat.push(comps);
        }
        self.recorder.work(
            Stage::StifflyStable,
            WorkItem::Stream {
                flops: (8 * j * mpp * 6 * self.nq_total) as f64,
                bytes: (32 * j * mpp * 6 * self.nq_total) as f64,
                ws: 32 * self.nq_total,
            },
        );
        sc.add(Stage::StifflyStable, t0.stop());

        // Stages 4-7 per owned mode.
        let mut new_fields: Vec<[ModeCoeffs; 3]> = Vec::with_capacity(mpp);
        let disc = &*self.disc;
        let ndof = disc.asm.ndof;
        for mi in 0..mpp {
            let k = self.my_modes.start + mi;
            let beta = self.beta(k);

            // Stage 4: pressure RHS (cos and sin planes).
            let t0 = StageTimer::start(Stage::PressureRhs);
            let mut rhs_a = vec![0.0; ndof];
            let mut rhs_b = vec![0.0; ndof];
            for ei in 0..disc.mesh.nelems() {
                let basis = disc.basis(ei);
                let geom = &disc.ops[ei].geom;
                let (off, nq) = self.elem_off[ei];
                let nm = basis.nmodes();
                let mut la = vec![0.0; nm];
                let mut lb = vec![0.0; nm];
                for m in 0..nm {
                    let d1 = &basis.dxi1()[m];
                    let d2 = &basis.dxi2()[m];
                    let vm = &basis.val()[m];
                    let mut sa = 0.0;
                    let mut sb = 0.0;
                    for q in 0..nq {
                        let [ja, jb, jc, jd] = geom.dxi_dx[q];
                        let gpx = d1[q] * ja + d2[q] * jc;
                        let gpy = d1[q] * jb + d2[q] * jd;
                        let dzw_a = beta * hat[mi][2].b[off + q];
                        let dzw_b = -beta * hat[mi][2].a[off + q];
                        sa += geom.jw[q]
                            * (hat[mi][0].a[off + q] * gpx
                                + hat[mi][1].a[off + q] * gpy
                                - dzw_a * vm[q]);
                        sb += geom.jw[q]
                            * (hat[mi][0].b[off + q] * gpx
                                + hat[mi][1].b[off + q] * gpy
                                - dzw_b * vm[q]);
                    }
                    la[m] = sa / dt;
                    lb[m] = sb / dt;
                }
                disc.asm.scatter_add(ei, &la, &mut rhs_a);
                disc.asm.scatter_add(ei, &lb, &mut rhs_b);
            }
            sc.add(Stage::PressureRhs, t0.stop());

            // Stage 5: two pressure solves (cos/sin share the factor —
            // "the real and imaginary parts of a Fourier mode sharing the
            // same matrices").
            let t0 = StageTimer::start(Stage::PressureSolve);
            let zeros = vec![0.0; ndof];
            let kdp = self.pressure[mi].matrix.kd();
            let ksp = nkt_trace::span("banded_solve", "kernel");
            let (pa, _) =
                self.pressure[mi].solve_with_rhs(rhs_a, &zeros, SolveMethod::BandedDirect);
            let (pb, _) =
                self.pressure[mi].solve_with_rhs(rhs_b, &zeros, SolveMethod::BandedDirect);
            ksp.end_v_args(
                f64::NAN,
                &[
                    ("n", ndof as f64),
                    ("kd", kdp as f64),
                    ("solves", 2.0),
                    ("flops", 2.0 * 4.0 * ndof as f64 * (kdp + 1) as f64),
                ],
            );
            for _ in 0..2 {
                self.recorder
                    .work(Stage::PressureSolve, WorkItem::BandedSolve { n: ndof, kd: kdp });
            }
            sc.add(Stage::PressureSolve, t0.stop());

            // Stage 6: viscous RHS from u** = uhat − dt ∇p.
            let t0 = StageTimer::start(Stage::ViscousRhs);
            let (gpx_a, gpy_a) = self.grad_quad(&pa);
            let (gpx_b, gpy_b) = self.grad_quad(&pb);
            let pq_a = self.to_quad(&pa);
            let pq_b = self.to_quad(&pb);
            let scale = 1.0 / (nu * dt);
            let mut rhs: [(Vec<f64>, Vec<f64>); 3] = [
                (vec![0.0; ndof], vec![0.0; ndof]),
                (vec![0.0; ndof], vec![0.0; ndof]),
                (vec![0.0; ndof], vec![0.0; ndof]),
            ];
            for ei in 0..disc.mesh.nelems() {
                let basis = disc.basis(ei);
                let geom = &disc.ops[ei].geom;
                let (off, nq) = self.elem_off[ei];
                let nm = basis.nmodes();
                let mut locals = vec![vec![0.0; nm]; 6];
                for m in 0..nm {
                    let vm = &basis.val()[m];
                    let mut acc = [0.0f64; 6];
                    for q in 0..nq {
                        let w = geom.jw[q];
                        let ustar_a = hat[mi][0].a[off + q] - dt * gpx_a[off + q];
                        let ustar_b = hat[mi][0].b[off + q] - dt * gpx_b[off + q];
                        let vstar_a = hat[mi][1].a[off + q] - dt * gpy_a[off + q];
                        let vstar_b = hat[mi][1].b[off + q] - dt * gpy_b[off + q];
                        let wstar_a =
                            hat[mi][2].a[off + q] - dt * (beta * pq_b[off + q]);
                        let wstar_b =
                            hat[mi][2].b[off + q] - dt * (-beta * pq_a[off + q]);
                        acc[0] += w * ustar_a * vm[q];
                        acc[1] += w * ustar_b * vm[q];
                        acc[2] += w * vstar_a * vm[q];
                        acc[3] += w * vstar_b * vm[q];
                        acc[4] += w * wstar_a * vm[q];
                        acc[5] += w * wstar_b * vm[q];
                    }
                    for (s, l) in locals.iter_mut().enumerate() {
                        l[m] = scale * acc[s];
                    }
                }
                disc.asm.scatter_add(ei, &locals[0], &mut rhs[0].0);
                disc.asm.scatter_add(ei, &locals[1], &mut rhs[0].1);
                disc.asm.scatter_add(ei, &locals[2], &mut rhs[1].0);
                disc.asm.scatter_add(ei, &locals[3], &mut rhs[1].1);
                disc.asm.scatter_add(ei, &locals[4], &mut rhs[2].0);
                disc.asm.scatter_add(ei, &locals[5], &mut rhs[2].1);
            }
            sc.add(Stage::ViscousRhs, t0.stop());

            // Stage 7: six Helmholtz solves (3 components × cos/sin).
            let t0 = StageTimer::start(Stage::ViscousSolve);
            let ud = vec![0.0; ndof];
            let solver = if j < self.scheme.order {
                &mut self.ramp[mi][j - 1]
            } else {
                &mut self.viscous[mi]
            };
            let mut comps: [ModeCoeffs; 3] = Default::default();
            let rhs_taken = rhs;
            let kdv = solver.matrix.kd();
            let ksp = nkt_trace::span("banded_solve", "kernel");
            for (c, (ra, rb)) in rhs_taken.into_iter().enumerate() {
                let (na, _) = solver.solve_with_rhs(ra, &ud, SolveMethod::BandedDirect);
                let (nb, _) = solver.solve_with_rhs(rb, &ud, SolveMethod::BandedDirect);
                comps[c] = ModeCoeffs { a: na, b: nb };
            }
            ksp.end_v_args(
                f64::NAN,
                &[
                    ("n", ndof as f64),
                    ("kd", kdv as f64),
                    ("solves", 6.0),
                    ("flops", 6.0 * 4.0 * ndof as f64 * (kdv + 1) as f64),
                ],
            );
            for _ in 0..6 {
                self.recorder
                    .work(Stage::ViscousSolve, WorkItem::BandedSolve { n: ndof, kd: kdv });
            }
            sc.add(Stage::ViscousSolve, t0.stop());
            new_fields.push(comps);
        }
        self.fields = new_fields;
        step_span.end_v(comm.wtime());
        self.clock.merge(&sc);
        self.steps_taken += 1;
        sc
    }

    /// Kinetic energy carried by one *owned* mode (local index `mi`):
    /// ½ Σ_c ∫ plane energies with the spanwise measure.
    pub fn mode_energy(&self, mi: usize) -> f64 {
        let k = self.my_modes.start + mi;
        let mut e = 0.0;
        for c in 0..3 {
            let qa = self.to_quad(&self.fields[mi][c].a);
            let qb = self.to_quad(&self.fields[mi][c].b);
            for ei in 0..self.disc.mesh.nelems() {
                let geom = &self.disc.ops[ei].geom;
                let (off, nq) = self.elem_off[ei];
                for q in 0..nq {
                    e += 0.5
                        * geom.jw[q]
                        * if k == 0 {
                            self.cfg.lz * qa[off + q] * qa[off + q]
                        } else {
                            0.5 * self.cfg.lz
                                * (qa[off + q] * qa[off + q] + qb[off + q] * qb[off + q])
                        };
                }
            }
        }
        e
    }

    /// Total kinetic energy ½∫|u|² over the 3-D domain (collective).
    /// Only primary ranks contribute — pencil grids replicate each mode
    /// block across `pc` columns (see [`NektarF::is_primary`]).
    pub fn kinetic_energy(&mut self, comm: &mut Comm) -> f64 {
        let mut local = 0.0;
        let owned = if self.is_primary() { self.my_modes.len() } else { 0 };
        for mi in 0..owned {
            let k = self.my_modes.start + mi;
            for c in 0..3 {
                let qa = self.to_quad(&self.fields[mi][c].a);
                let qb = self.to_quad(&self.fields[mi][c].b);
                for ei in 0..self.disc.mesh.nelems() {
                    let geom = &self.disc.ops[ei].geom;
                    let (off, nq) = self.elem_off[ei];
                    for q in 0..nq {
                        // ∫ cos² = ∫ sin² = Lz/2 for k>0; ∫ 1 = Lz for k=0.
                        local += 0.5
                            * geom.jw[q]
                            * if k == 0 {
                                self.cfg.lz * qa[off + q] * qa[off + q]
                            } else {
                                0.5 * self.cfg.lz
                                    * (qa[off + q] * qa[off + q] + qb[off + q] * qb[off + q])
                            };
                    }
                }
            }
        }
        let mut buf = [local];
        comm.allreduce(&mut buf, nkt_mpi::ReduceOp::Sum);
        buf[0]
    }

    /// Steps taken.
    pub fn steps(&self) -> usize {
        self.steps_taken
    }
}

/// The (cos, sin) coefficients of Fourier mode `k` in the forward
/// spectrum `sp` of `nz` real samples. Mode 0 has no sine part.
fn mode_coeffs(sp: &[Complex64], k: usize, nz: usize) -> (f64, f64) {
    if k == 0 {
        (sp[0].re / nz as f64, 0.0)
    } else {
        (2.0 * sp[k].re / nz as f64, -2.0 * sp[k].im / nz as f64)
    }
}

/// `fft.forward`, counted under test: how many transforms a set-up runs
/// is asserted there.
fn forward_fft(fft: &RealFft, x: &[f64], sp: &mut [Complex64]) {
    #[cfg(test)]
    tests::FORWARD_FFTS.with(|n| n.set(n.get() + 1));
    fft.forward(x, sp);
}

fn write_planes(e: &mut nkt_ckpt::Enc, levels: &VecDeque<Vec<[ModePlane; 3]>>) {
    e.usize(levels.len());
    for level in levels {
        e.usize(level.len());
        for comps in level {
            for mp in comps {
                e.f64s(&mp.a);
                e.f64s(&mp.b);
            }
        }
    }
}

fn read_planes(
    d: &mut nkt_ckpt::Dec<'_>,
    nmodes: usize,
) -> Result<VecDeque<Vec<[ModePlane; 3]>>, nkt_ckpt::CkptError> {
    let nlevels = d.len_prefix(64)?;
    let mut out = VecDeque::with_capacity(nlevels);
    for _ in 0..nlevels {
        d.expect_u64(nmodes as u64, "fourier history mode count")?;
        let mut level = Vec::with_capacity(nmodes);
        for _ in 0..nmodes {
            let mut comps: [ModePlane; 3] = Default::default();
            for mp in comps.iter_mut() {
                mp.a = d.f64s()?;
                mp.b = d.f64s()?;
            }
            level.push(comps);
        }
        out.push_back(level);
    }
    Ok(out)
}

impl nkt_ckpt::Checkpointable for NektarF {
    fn kind(&self) -> &'static str {
        "fourier"
    }

    fn write_sections(&self, w: &mut nkt_ckpt::CkptWriter) {
        // "fields": rank-layout guards (mode block, dof count, plane
        // size), then per-mode cos/sin modal coefficients for u, v, w.
        let mut e = nkt_ckpt::Enc::new();
        e.usize(self.my_modes.start);
        e.usize(self.my_modes.len());
        e.usize(self.disc.asm.ndof);
        e.usize(self.nq_total);
        for comps in &self.fields {
            for mc in comps {
                e.f64s(&mc.a);
                e.f64s(&mc.b);
            }
        }
        w.section("fields", e.into_bytes());

        let mut e = nkt_ckpt::Enc::new();
        write_planes(&mut e, &self.hist_vel);
        write_planes(&mut e, &self.hist_n);
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
        d.expect_u64(self.my_modes.start as u64, "fourier mode-block start")?;
        d.expect_u64(self.my_modes.len() as u64, "fourier mode-block length")?;
        d.expect_u64(self.disc.asm.ndof as u64, "fourier dof count")?;
        d.expect_u64(self.nq_total as u64, "fourier plane quadrature size")?;
        for comps in self.fields.iter_mut() {
            for mc in comps.iter_mut() {
                mc.a = d.f64s()?;
                mc.b = d.f64s()?;
            }
        }
        d.finish()?;

        let mut d = f.dec("hist")?;
        self.hist_vel = read_planes(&mut d, self.my_modes.len())?;
        self.hist_n = read_planes(&mut d, self.my_modes.len())?;
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
    use nkt_net::{cluster, ClusterNetwork, NetId};

    fn run<R: Send, F: Fn(&mut Comm) -> R + Sync>(p: usize, net: ClusterNetwork, f: F) -> Vec<R> {
        World::builder().ranks(p).net(net).run(f)
    }

    fn mesh() -> Mesh2d {
        rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2)
    }

    fn cfg() -> FourierConfig {
        FourierConfig {
            order: 4,
            dt: 1e-3,
            nu: 0.05,
            nz: 8,
            lz: 2.0 * std::f64::consts::PI,
            scheme_order: 2,
        }
    }

    /// Divergence-free initial field: 2-D Taylor-Green modulated by
    /// cos(z) with w = 0.
    fn init_field(x: [f64; 3]) -> [f64; 3] {
        let pi = std::f64::consts::PI;
        [
            (pi * x[0]).sin() * (pi * x[1]).cos() * x[2].cos(),
            -(pi * x[0]).cos() * (pi * x[1]).sin() * x[2].cos(),
            0.0,
        ]
    }

    thread_local! {
        /// Forward FFTs `forward_fft` has run on this (rank) thread.
        pub(super) static FORWARD_FFTS: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
    }

    impl NektarF {
        /// The reference `set_initial` is held to: one length-`nz` DFT of
        /// freshly sampled values per (mode, component, plane, quadrature
        /// point *and basis mode*), inside the projection's closure.
        fn set_initial_per_mode_dft(&mut self, f: impl Fn([f64; 3]) -> [f64; 3]) {
            let nz = self.cfg.nz;
            let fft = RealFft::new(nz);
            let lz = self.cfg.lz;
            for (mi, k) in self.my_modes.clone().enumerate() {
                for c in 0..3 {
                    let coeff = |x: [f64; 2]| {
                        let vals: Vec<f64> = (0..nz)
                            .map(|j| f([x[0], x[1], lz * j as f64 / nz as f64])[c])
                            .collect();
                        let mut sp = vec![Complex64::ZERO; fft.spectrum_len()];
                        forward_fft(&fft, &vals, &mut sp);
                        mode_coeffs(&sp, k, nz)
                    };
                    self.fields[mi][c].a = self.disc.l2_project(|x| coeff(x).0);
                    self.fields[mi][c].b = self.disc.l2_project(|x| coeff(x).1);
                }
            }
        }
    }

    /// A field with energy in every component and in z-harmonics 0-5,
    /// both phases.
    fn busy_field(x: [f64; 3]) -> [f64; 3] {
        let [u, v, _] = psi_field([x[0], x[1], 0.0]);
        let z = x[2];
        [
            u * (1.0 + 0.3 * z.cos() + 0.2 * (2.0 * z).sin() + 0.1 * (5.0 * z + 0.4).cos()),
            v * (0.7 - 0.4 * (z + 1.1).sin() + 0.15 * (3.0 * z).cos()),
            x[0] * (1.0 - x[1]) * ((z - 0.3).sin() + 0.25 * (4.0 * z).cos()),
        ]
    }

    fn field_bits(s: &NektarF) -> Vec<u64> {
        s.fields
            .iter()
            .flatten()
            .flat_map(|mc| mc.a.iter().chain(&mc.b))
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn set_initial_equals_the_per_mode_dft_reference_bit_for_bit() {
        for nz in [8usize, 16, 32] {
            for (pr, pc) in [(1usize, 1usize), (2, 1), (2, 2)] {
                let same = run(pr * pc, cluster(NetId::T3e), move |c| {
                    let cfg = FourierConfig { nz, ..cfg() };
                    let mut s = NektarF::try_new_with_grid(c, &mesh(), cfg, pr, pc).unwrap();
                    s.set_initial(busy_field);
                    let got = field_bits(&s);
                    s.set_initial_per_mode_dft(busy_field);
                    assert!(got.iter().any(|&b| b != 0), "fields left empty");
                    got == field_bits(&s)
                });
                assert!(same.iter().all(|&ok| ok), "nz {nz}, grid {pr}x{pc}: {same:?}");
            }
        }
    }

    #[test]
    fn set_initial_recovers_a_single_harmonic() {
        // f = A(x,y)·(1 + a·cos(z + φ)): mode 0 is proj A, mode 1 is
        // (a cos φ, −a sin φ)·proj A, every other coefficient is zero.
        let (a, phi) = (0.3, 0.7);
        // Unit-size amplitudes, so 1e-12 is a relative bound too.
        let amp = |x: [f64; 2]| {
            let [u, v, _] = psi_field([x[0], x[1], 0.0]);
            [u / 6.0, v / 6.0, x[0] * x[1]]
        };
        let out = run(2, cluster(NetId::T3e), move |c| {
            let mut s = NektarF::new(c, &mesh(), FourierConfig { nz: 16, ..cfg() });
            s.set_initial(|x| amp([x[0], x[1]]).map(|v| v * (1.0 + a * (x[2] + phi).cos())));
            let mut worst = 0.0f64;
            for (mi, k) in s.my_modes.clone().enumerate() {
                for comp in 0..3 {
                    let proj = s.disc.l2_project(|x| amp(x)[comp]);
                    let (wa, wb) = match k {
                        0 => (1.0, 0.0),
                        1 => (a * phi.cos(), -a * phi.sin()),
                        _ => (0.0, 0.0),
                    };
                    let got = &s.fields[mi][comp];
                    for ((&p, &ga), &gb) in proj.iter().zip(&got.a).zip(&got.b) {
                        worst = worst.max((ga - wa * p).abs()).max((gb - wb * p).abs());
                    }
                }
            }
            worst
        });
        for &worst in &out {
            assert!(worst < 1e-12, "off by {worst}");
        }
    }

    #[test]
    fn set_initial_samples_each_point_once_per_plane() {
        // fourier_slab's shape: 324 points a plane, nz 32. One rank owns
        // 16 modes, each of two ranks 8 — the sampling does not care.
        for p in [1usize, 2] {
            let out = run(p, cluster(NetId::T3e), |c| {
                let cfg = FourierConfig { nz: 32, ..cfg() };
                let mut s = NektarF::new(c, &rect_quads(0.0, 1.0, 0.0, 1.0, 3, 3), cfg);
                let calls = std::cell::Cell::new(0usize);
                FORWARD_FFTS.with(|n| n.set(0));
                s.set_initial(|x| {
                    calls.set(calls.get() + 1);
                    busy_field(x)
                });
                (s.nq_total, calls.get(), FORWARD_FFTS.with(|n| n.get()))
            });
            for &(nq, calls, ffts) in &out {
                assert_eq!(nq, 324);
                assert_eq!(calls, nq * 32, "field evaluations (10 368)");
                assert_eq!(ffts, 3 * nq, "forward FFTs (972)");
            }
        }
    }

    #[test]
    fn every_per_mode_problem_shares_the_rank_discretization() {
        let out = run(1, cluster(NetId::T3e), |c| {
            let cfg = FourierConfig { nz: 32, ..cfg() };
            let s = NektarF::new(c, &rect_quads(0.0, 1.0, 0.0, 1.0, 3, 3), cfg);
            let shared = s
                .pressure
                .iter()
                .chain(&s.viscous)
                .chain(s.ramp.iter().flatten())
                .filter(|p| Arc::ptr_eq(p.discretization(), &s.disc))
                .count();
            // One elemental mass/stiffness pair per element, built once:
            // the only other owner of the discretization is the solver.
            (shared, Arc::strong_count(&s.disc), s.disc.ops.len())
        });
        assert_eq!(out[0], (48, 49, 9));
    }

    #[test]
    fn zero_grid_dimension_is_a_grid_mismatch() {
        for p in [1usize, 2] {
            let out = run(p, cluster(NetId::T3e), move |c| {
                [(p, 0), (0, p), (0, 0)].map(|(pr, pc)| {
                    NektarF::try_new_with_grid(c, &mesh(), cfg(), pr, pc).err()
                })
            });
            for errs in &out {
                for (err, (pr, pc)) in errs.iter().zip([(p, 0), (0, p), (0, 0)]) {
                    assert_eq!(*err, Some(FourierCfgError::GridMismatch { pr, pc, p }));
                }
            }
        }
    }

    #[test]
    fn initial_projection_energy() {
        let out = run(2, cluster(NetId::T3e), |c| {
            let mut s = NektarF::new(c, &mesh(), cfg());
            s.set_initial(init_field);
            s.kinetic_energy(c)
        });
        // Each 2-D component integrates to 1/4 over the unit square; the
        // z factor ∫cos² over [0, 2π) = π. E = 0.5 (1/4 + 1/4) π.
        let expect = 0.25 * std::f64::consts::PI;
        for &e in &out {
            assert!((e - expect).abs() / expect < 1e-6, "E={e} vs {expect}");
        }
    }

    #[test]
    fn parallel_invariance_p1_p2_p4() {
        let energies: Vec<Vec<f64>> = [1usize, 2, 4]
            .iter()
            .map(|&p| {
                run(p, cluster(NetId::T3e), |c| {
                    let mut s = NektarF::new(c, &mesh(), cfg());
                    s.set_initial(init_field);
                    let mut es = Vec::new();
                    for _ in 0..3 {
                        s.step(c);
                        es.push(s.kinetic_energy(c));
                    }
                    es
                })[0]
                    .clone()
            })
            .collect();
        for step in 0..3 {
            let e1 = energies[0][step];
            for pe in &energies[1..] {
                assert!(
                    (pe[step] - e1).abs() < 1e-9 * (1.0 + e1),
                    "step {step}: P=1 {e1} vs {}",
                    pe[step]
                );
            }
        }
    }

    /// Stream-function field vanishing on the whole boundary (valid for
    /// the solver's homogeneous Dirichlet walls), divergence-free.
    fn psi_field(x: [f64; 3]) -> [f64; 3] {
        let pi = std::f64::consts::PI;
        let (sx, cx) = (pi * x[0]).sin_cos();
        let (sy, cy) = (pi * x[1]).sin_cos();
        [
            2.0 * pi * sx * sx * sy * cy * x[2].cos(),
            -2.0 * pi * sx * cx * sy * sy * x[2].cos(),
            0.0,
        ]
    }

    #[test]
    fn k0_mode_matches_serial_2d_solver() {
        // With all energy in the k = 0 Fourier mode and w = 0, NekTar-F
        // integrates exactly the 2-D equations: its energy history must
        // match the serial solver's (scaled by the spanwise length).
        use crate::serial2d::{Serial2dSolver, SolverConfig};
        let c2 = cfg();
        let lz = c2.lz;
        let f2d = |x: [f64; 2]| psi_field([x[0], x[1], 0.0]);
        let serial_hist: Vec<f64> = {
            let scfg = SolverConfig {
                order: c2.order,
                dt: c2.dt,
                nu: c2.nu,
                scheme_order: c2.scheme_order,
                advect: true,
            };
            let mut s = Serial2dSolver::new(mesh(), scfg, |_| 0.0, |_| 0.0);
            s.set_initial(|x| f2d(x)[0], |x| f2d(x)[1]);
            (0..4)
                .map(|_| {
                    s.step();
                    s.kinetic_energy()
                })
                .collect()
        };
        let fourier_hist = run(2, cluster(NetId::T3e), |c| {
            let mut s = NektarF::new(c, &mesh(), cfg());
            s.set_initial(|x| psi_field([x[0], x[1], 0.0]));
            (0..4)
                .map(|_| {
                    s.step(c);
                    s.kinetic_energy(c)
                })
                .collect::<Vec<f64>>()
        })[0]
            .clone();
        for step in 0..4 {
            let e3 = fourier_hist[step];
            let e2 = serial_hist[step] * lz;
            assert!(
                (e3 - e2).abs() < 1e-8 * (1.0 + e2),
                "step {step}: 3-D {e3} vs serial x Lz {e2}"
            );
        }
    }

    #[test]
    fn three_d_field_energy_decays_monotonically() {
        let out = run(2, cluster(NetId::T3e), |c| {
            let mut s = NektarF::new(c, &mesh(), cfg());
            s.set_initial(psi_field);
            let mut es = vec![s.kinetic_energy(c)];
            for _ in 0..5 {
                s.step(c);
                es.push(s.kinetic_energy(c));
            }
            es
        });
        for es in &out {
            for w in es.windows(2) {
                assert!(w[1] < w[0] && w[1] > 0.0, "energy not decaying: {es:?}");
            }
        }
    }

    #[test]
    fn two_alltoalls_per_step_recorded() {
        let out = run(2, cluster(NetId::T3e), |c| {
            let mut s = NektarF::new(c, &mesh(), cfg());
            s.set_initial(psi_field);
            s.recorder = Recorder::enabled();
            s.step(c);
            let rec = s.recorder.take().unwrap();
            (rec.alltoall_count(), rec.total_flops())
        });
        for &(a2a, flops) in &out {
            assert_eq!(a2a, 2, "forward + backward global exchange");
            assert!(flops > 0.0);
        }
    }

    #[test]
    fn nonlinear_time_higher_on_ethernet() {
        // Figure 14's finding: on the ethernet cluster step 2 balloons
        // ("step 2 takes as much as 60% of the time"). Compare the
        // absolute stage-2 time (host compute is identical; the virtual
        // Alltoall time differs).
        // Virtual network time only (comm.wtime advances solely through
        // message charging) — host compute noise excluded.
        let stage2_secs = |net| {
            let out = run(4, net, |c| {
                let mut s = NektarF::new(c, &mesh(), cfg());
                s.set_initial(init_field);
                s.step(c);
                c.wtime()
            });
            out.into_iter().fold(0.0f64, f64::max)
        };
        let eth = stage2_secs(cluster(NetId::RoadRunnerEth));
        let myr = stage2_secs(cluster(NetId::RoadRunnerMyr));
        assert!(
            eth > 1.5 * myr,
            "ethernet nonlinear stage {eth}s !>> myrinet {myr}s"
        );
    }

    #[test]
    fn pipelined_transpose_is_bitwise_identical_to_blocking() {
        // The overlap path is pure scheduling: at every rank count and
        // under every blocking alltoall algorithm, two steps must leave
        // byte-identical state (FNV digest over all numerical sections).
        use nkt_ckpt::Checkpointable;
        let hashes = |p: usize, overlap: bool, algo: AlltoallAlgo| -> Vec<u64> {
            run(p, cluster(NetId::RoadRunnerEth), move |c| {
                let mut s = NektarF::new(c, &mesh(), FourierConfig { nz: 16, ..cfg() });
                s.set_overlap(overlap);
                s.set_alltoall_algo(algo);
                s.set_initial(init_field);
                s.step(c);
                s.step(c);
                s.state_hash()
            })
        };
        for p in [1usize, 2, 4, 8] {
            let reference = hashes(p, false, AlltoallAlgo::Pairwise);
            for algo in [AlltoallAlgo::Pairwise, AlltoallAlgo::Ring, AlltoallAlgo::Bruck] {
                assert_eq!(
                    hashes(p, false, algo),
                    reference,
                    "blocking algo {algo:?} diverged at p={p}"
                );
                assert_eq!(
                    hashes(p, true, algo),
                    reference,
                    "pipelined path diverged at p={p} (algo {algo:?})"
                );
            }
        }
    }

    #[test]
    fn overlap_hides_transpose_wire_time_at_np8() {
        // The acceptance ablation: on the RoadRunner ethernet model at
        // np = 8, the pipelined transpose must shave modeled wall-clock
        // off the step while charging the exact same CPU (busy) time and
        // producing the exact same state.
        use nkt_ckpt::Checkpointable;
        let measure = |overlap: bool| {
            run(8, cluster(NetId::RoadRunnerEth), move |c| {
                let mut s = NektarF::new(c, &mesh(), FourierConfig { nz: 16, ..cfg() });
                s.set_overlap(overlap);
                s.set_initial(init_field);
                s.step(c);
                (c.wtime(), c.busy(), s.state_hash())
            })
        };
        let blocking = measure(false);
        let pipelined = measure(true);
        for (b, o) in blocking.iter().zip(&pipelined) {
            assert_eq!(b.1, o.1, "busy must be identical charge for charge");
            assert_eq!(b.2, o.2, "state must be bitwise identical");
        }
        let wall = |v: &[(f64, f64, u64)]| v.iter().fold(0.0f64, |m, t| m.max(t.0));
        assert!(
            wall(&pipelined) < wall(&blocking),
            "overlap should reduce modeled wall: {} vs {}",
            wall(&pipelined),
            wall(&blocking)
        );
    }

    #[test]
    fn weak_scaling_setup_matches_paper_layout() {
        // Two planes (one mode) per processor, as in Table 2.
        let out = run(4, cluster(NetId::T3e), |c| {
            let cfg = FourierConfig { nz: 8, ..cfg() };
            let s = NektarF::new(c, &mesh(), cfg);
            (s.my_modes.clone(), s.local_dof())
        });
        for (r, (modes, _)) in out.iter().enumerate() {
            assert_eq!(modes.clone().count(), 1, "one mode per rank");
            assert_eq!(modes.start, r);
        }
    }
}
