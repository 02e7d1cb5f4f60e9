//! NekTar-ALE: fully 3-D Navier–Stokes with moving geometry
//! (paper §4.2.2, Table 3, Figures 15–16).
//!
//! Built on the [`crate::hex3d`] distributed discretisation: element-based
//! domain decomposition (nkt-partition), gather-scatter halo exchange
//! (nkt-gs), and CG solves — velocity, pressure, mass and mesh velocity
//! alike — preconditioned by Jacobi in the nodal (GLL) basis, whose
//! diagonal each solve builds from the mesh as it stands. One numbering
//! and one matrix-free operator, with its one gather-scatter, serve every
//! solve: each passes its member `[λ, kc]` of kc·K + λM and its Dirichlet
//! pattern (velocity, pressure or mesh velocity). The two ALE extras the
//! paper describes are both present:
//!
//! * "a term is added in the non-linear step, associated with the updating
//!   of the positions of the vertices of each element" — advection uses
//!   the relative velocity (u − w_mesh) and vertex positions move each
//!   step;
//! * "An extra Helmholtz solve ... associated with the calculation of the
//!   velocity of the moving mesh" — a Laplace solve with the body-motion
//!   Dirichlet data runs every step.
//!
//! **Motion model (substitution, see DESIGN.md):** mesh deformation is
//! plane-wise along x (each x-plane of vertices translates rigidly), which
//! keeps every element an axis-aligned box — the class the rectilinear
//! operators support. The mesh-velocity Helmholtz solve still runs at full
//! cost; the prescribed plane-wise field drives both the ALE advection
//! term and the vertex updates so the two stay consistent.

use crate::hex3d::{elem_box, Dirichlet, HexHelmholtz, HexNumbering, HexWorkspace, LAPLACE, MASS};
use crate::opstream::{Recorder, WorkItem};
use crate::splitting::{History, Layout, StifflyStable};
use crate::timers::{Stage, StageClock, StageTimer};
use nkt_mesh::{BoundaryTag, Mesh3d};
use nkt_mpi::prelude::*;

/// ALE solver configuration.
#[derive(Debug, Clone)]
pub struct AleConfig {
    /// Polynomial order (paper: 4 for the flapping wing).
    pub order: usize,
    /// Time step.
    pub dt: f64,
    /// Kinematic viscosity (paper: Re = 1000).
    pub nu: f64,
    /// Splitting order.
    pub scheme_order: usize,
    /// Include advection.
    pub advect: bool,
    /// Plane-wise flapping amplitude (0 = static mesh).
    pub motion_amp: f64,
    /// Flapping angular frequency.
    pub motion_omega: f64,
    /// PCG relative tolerance.
    pub pcg_tol: f64,
    /// PCG iteration cap.
    pub pcg_max_iter: usize,
}

impl Default for AleConfig {
    fn default() -> Self {
        AleConfig {
            order: 3,
            dt: 1e-3,
            nu: 1e-3,
            scheme_order: 2,
            advect: true,
            motion_amp: 0.0,
            motion_omega: 2.0 * std::f64::consts::PI,
            pcg_tol: 1e-8,
            pcg_max_iter: 400,
        }
    }
}

/// Per-rank NekTar-ALE solver.
pub struct NektarAle {
    /// Configuration.
    pub cfg: AleConfig,
    /// The (current) mesh; vertex positions move under the ALE motion.
    pub mesh: Mesh3d,
    /// Initial x-coordinates of every vertex (motion reference).
    verts0_x: Vec<f64>,
    /// Their smallest and largest value.
    x_range: (f64, f64),
    /// The one operator: every solve and transform runs on it, and its
    /// `gs` is the solver's gather-scatter.
    pub vel_op: HexHelmholtz,
    /// The viscous λ of the order-j scheme, γ₀(j)/(νΔt), at index j − 1:
    /// the ramp's, then the scheme's own.
    lambdas: Vec<f64>,
    /// Velocity Dirichlet pattern: Inflow, Wall and Side faces, 0.
    vel_bc: Dirichlet,
    /// Pressure Dirichlet pattern: the outflow, 0.
    press_bc: Dirichlet,
    /// Mesh-velocity Dirichlet pattern (the ALE extra solve): every tagged
    /// face, 0 on the outer boundary.
    mesh_bc: Dirichlet,
    /// Indices into `mesh_bc`'s values of its rows on Wall (body) faces,
    /// which carry the body speed.
    wall: Vec<usize>,
    /// Velocity modal coefficients (3 components, rank-local dofs).
    pub u: [Vec<f64>; 3],
    /// Pressure coefficients.
    pub p: Vec<f64>,
    /// Velocity and nonlinear-term levels at the quadrature points (one
    /// mode of three components, every owned element's nq³ points a
    /// plane) and the steps taken.
    hist: History,
    /// Per owned element: motion shape factor at (lo, hi) x-faces.
    motion_shape: Vec<(f64, f64)>,
    /// Simulated time.
    pub time: f64,
    /// Stage clock (host seconds of the steps this process ran).
    pub clock: StageClock,
    /// Recorder for model replay.
    pub recorder: Recorder,
    /// PCG iteration counts of the last step (pressure, velocity,
    /// mesh-velocity).
    pub last_iters: (usize, usize, usize),
    /// Whether every PCG solve of the last step reached `pcg_tol` (not
    /// checkpointed: a restored run reports `true` until its next step).
    pub last_converged: bool,
    /// Solve and transform buffers, shared by every solve.
    ws: HexWorkspace,
    /// The step's other buffers.
    bufs: StepBuffers,
}

/// What a step computes into besides the history levels, kept from step
/// to step so that a warmed step allocates nothing: gradients (also the
/// weighted integrands the projections read, and the velocity a
/// kinetic-energy sample reads), the weighted level û (three
/// components, as a history level) and mesh velocity at the quadrature
/// points, the pressure and viscous right-hand sides, and the
/// mesh-velocity solve's zero right-hand side and iterate. Each is sized
/// on first use and zeroed or overwritten before it is read.
#[derive(Default)]
struct StepBuffers {
    g: [Vec<f64>; 3],
    hat: Vec<f64>,
    wmesh: Vec<f64>,
    prhs: Vec<f64>,
    vrhs: [Vec<f64>; 3],
    zero: Vec<f64>,
    eta: Vec<f64>,
}

/// `v` as `n` zeros, in the storage it already has.
fn zeroed(v: &mut Vec<f64>, n: usize) -> &mut Vec<f64> {
    v.clear();
    v.resize(n, 0.0);
    v
}

/// Motion shape: 0 at the domain x-extents, 1 in the central band (where
/// the wing sits), linear ramps between.
fn motion_shape_fn(x: f64, x_min: f64, x_max: f64) -> f64 {
    let mid_lo = x_min + 0.3 * (x_max - x_min);
    let mid_hi = x_min + 0.5 * (x_max - x_min);
    if x <= x_min || x >= x_max {
        0.0
    } else if x < mid_lo {
        (x - x_min) / (mid_lo - x_min)
    } else if x <= mid_hi {
        1.0
    } else {
        (x_max - x) / (x_max - mid_hi)
    }
}

impl NektarAle {
    /// Builds the solver (collective). `part` assigns elements to ranks.
    pub fn new(comm: &mut Comm, mesh: Mesh3d, part: &[u8], cfg: AleConfig) -> NektarAle {
        use BoundaryTag::{Inflow, Outflow, Side, Wall};
        let num = HexNumbering::build(&mesh, cfg.order);
        let vel_op = HexHelmholtz::new(comm, &mesh, &num, part);
        let lambdas = (1..=cfg.scheme_order)
            .map(|j| StifflyStable::new(j).gamma0 / (cfg.nu * cfg.dt))
            .collect();
        // Checked on the global set: a rank may hold no outflow dof.
        let outflow = num.tagged(&mesh, &[Outflow]);
        assert!(!outflow.is_empty(), "pressure problem needs an outflow boundary (or pin)");
        let press_bc = vel_op.dirichlet(&outflow);
        let vel_bc = vel_op.dirichlet(&num.tagged(&mesh, &[Inflow, Wall, Side]));
        let mesh_bc = vel_op.dirichlet(&num.tagged(&mesh, &[Inflow, Outflow, Side, Wall]));
        let body = num.tagged(&mesh, &[Wall]);
        let wall = (mesh_bc.rows().iter().enumerate())
            .filter(|&(_, &l)| body.contains(&vel_op.local_gids[l]))
            .map(|(k, _)| k)
            .collect();
        let n = vel_op.nlocal();
        let x_min = mesh.verts.iter().map(|v| v[0]).fold(f64::MAX, f64::min);
        let x_max = mesh.verts.iter().map(|v| v[0]).fold(f64::MIN, f64::max);
        let motion_shape: Vec<(f64, f64)> = vel_op
            .my_elems
            .iter()
            .map(|&e| {
                let (lo, hi) = elem_box(&mesh, e).expect("box");
                (
                    motion_shape_fn(lo[0], x_min, x_max),
                    motion_shape_fn(hi[0], x_min, x_max),
                )
            })
            .collect();
        let verts0_x = mesh.verts.iter().map(|v| v[0]).collect();
        let nq3 = vel_op.op1.basis.nquad().pow(3);
        let layout = Layout { nmodes: 1, ncomp: 3, nphase: 1, nq: vel_op.my_elems.len() * nq3 };
        NektarAle {
            hist: History::new(cfg.scheme_order, layout),
            cfg,
            mesh,
            verts0_x,
            x_range: (x_min, x_max),
            vel_op,
            lambdas,
            vel_bc,
            press_bc,
            mesh_bc,
            wall,
            u: [vec![0.0; n], vec![0.0; n], vec![0.0; n]],
            p: Vec::new(),
            motion_shape,
            time: 0.0,
            clock: StageClock::new(),
            recorder: Recorder::disabled(),
            last_iters: (0, 0, 0),
            last_converged: true,
            ws: HexWorkspace::default(),
            bufs: StepBuffers::default(),
        }
    }

    /// Quadrature points per element.
    fn nq3(&self) -> usize {
        self.vel_op.op1.basis.nquad().pow(3)
    }

    /// Sets the initial velocity by parallel L2 projection (mass-matrix
    /// PCG solve). Collective. Its solves count toward `last_converged`
    /// and `ale.pcg.unconverged` as a step's do.
    pub fn set_initial(&mut self, comm: &mut Comm, f: impl Fn([f64; 3]) -> [f64; 3]) {
        let (tol, max_iter) = (self.cfg.pcg_tol, self.cfg.pcg_max_iter);
        let mut unconverged = 0;
        for c in 0..3 {
            let mut rhs = vec![0.0; self.vel_op.nlocal()];
            self.project_rhs(&mut rhs, |x| f(x)[c]);
            self.vel_op.gs.exchange(comm, &mut rhs, ReduceOp::Sum);
            let mut x = vec![0.0; self.vel_op.nlocal()];
            let (ws, rec) = (&mut self.ws, &mut Recorder::disabled());
            let (op, bc) = (&self.vel_op, &self.vel_bc);
            let out = op.pcg(comm, MASS, bc, &rhs, &mut x, tol, max_iter, ws, rec);
            unconverged += u64::from(!out.converged);
            self.u[c] = x;
        }
        self.note_unconverged(unconverged);
        self.hist.reset();
        self.time = 0.0;
    }

    /// Builds ∫ f φ elementwise into `rhs` (local, unsummed).
    fn project_rhs(&mut self, rhs: &mut [f64], f: impl Fn([f64; 3]) -> f64) {
        let NektarAle { vel_op, mesh, ws, bufs, .. } = self;
        let op = &vel_op.op1;
        let nq = op.basis.nquad();
        let nq3 = nq * nq * nq;
        let fq = &mut bufs.g[0];
        fq.resize(vel_op.my_elems.len() * nq3, 0.0);
        for ((&e, fe), [hx, hy, hz]) in
            vel_op.my_elems.iter().zip(fq.chunks_exact_mut(nq3)).zip(&vel_op.scales)
        {
            let (lo, _) = elem_box(mesh, e).expect("box");
            let jac = hx * hy * hz / 8.0;
            // Evaluate f at the tensor points once.
            for qz in 0..nq {
                for qy in 0..nq {
                    for qx in 0..nq {
                        let x = [
                            lo[0] + hx * (op.basis.z[qx] + 1.0) / 2.0,
                            lo[1] + hy * (op.basis.z[qy] + 1.0) / 2.0,
                            lo[2] + hz * (op.basis.z[qz] + 1.0) / 2.0,
                        ];
                        fe[qx + qy * nq + qz * nq * nq] =
                            f(x) * op.basis.w[qx] * op.basis.w[qy] * op.basis.w[qz] * jac;
                    }
                }
            }
        }
        // Project: rhs_m += sum_q B_m(q) fq(q), sum-factorized.
        vel_op.project_pass(&[fq], false, rhs, &mut ws.elem);
    }

    /// Quadrature values of the three velocity components on all owned
    /// elements (`nq³` per element) into `outs`, one pass a component.
    fn vel_to_quad(
        op: &HexHelmholtz,
        u: &[Vec<f64>; 3],
        outs: [&mut [f64]; 3],
        scratch: &mut Vec<f64>,
    ) {
        for (u, out) in u.iter().zip(outs) {
            op.quad_pass(u, false, &mut [out], scratch);
        }
    }

    /// Physical-space gradient of `op`'s field `coeffs` at the quadrature
    /// points, one component per entry of `g`: one pass.
    fn grad_quad(op: &HexHelmholtz, coeffs: &[f64], g: &mut [Vec<f64>; 3], scratch: &mut Vec<f64>) {
        let n = op.my_elems.len() * op.op1.basis.nquad().pow(3);
        let [g0, g1, g2] = g.each_mut().map(|gd| {
            gd.resize(n, 0.0);
            &mut gd[..]
        });
        op.quad_pass(coeffs, true, &mut [g0, g1, g2], scratch);
    }

    /// Mesh velocity (x-component) at the quadrature points of owned
    /// elements under the plane-wise flapping motion, into `out`: it
    /// varies along x only, so each element's first row of nq points is
    /// computed and copied to the others.
    fn mesh_velocity_quad(&self, out: &mut Vec<f64>) {
        let z = &self.vel_op.op1.basis.z;
        let nq3 = self.nq3();
        let speed = self.cfg.motion_amp * self.cfg.motion_omega * (self.cfg.motion_omega * self.time).cos();
        zeroed(out, self.vel_op.my_elems.len() * nq3);
        if speed == 0.0 {
            return;
        }
        for (oe, &(s_lo, s_hi)) in out.chunks_exact_mut(nq3).zip(&self.motion_shape) {
            let (row, rest) = oe.split_at_mut(z.len());
            for (o, zq) in row.iter_mut().zip(z) {
                let t = (zq + 1.0) / 2.0;
                let s = s_lo + (s_hi - s_lo) * t;
                *o = speed * s;
            }
            rest.chunks_exact_mut(z.len()).for_each(|r| r.copy_from_slice(row));
        }
    }

    /// Advances one step. Collective. Returns the step's stage times
    /// (host seconds).
    pub fn step(&mut self, comm: &mut Comm) -> StageClock {
        let step_span = nkt_trace::span_v("step", "step", comm.wtime());
        let mut sc = StageClock::new();
        let (dt, nu) = (self.cfg.dt, self.cfg.nu);
        let (tol, max_iter) = (self.cfg.pcg_tol, self.cfg.pcg_max_iter);
        let nq3 = self.nq3();
        let ne = self.vel_op.my_elems.len();
        let n = ne * nq3;
        let mut b = std::mem::take(&mut self.bufs);

        // Stage 1: modal -> quadrature, into the level the history drops.
        let t0 = StageTimer::start(Stage::BwdTransform);
        let (mut uq, mut nl) = self.hist.levels();
        let (u0, rest) = uq.split_at_mut(n);
        let (u1, u2) = rest.split_at_mut(n);
        Self::vel_to_quad(&self.vel_op, &self.u, [u0, u1, u2], &mut self.ws.elem);
        let nm1 = self.cfg.order + 1;
        for _ in 0..3 * ne {
            self.recorder.work(
                Stage::BwdTransform,
                WorkItem::Gemm { m: nq3, n: 1, k: nm1 * nm1 * nm1 },
            );
        }
        sc.add(Stage::BwdTransform, t0.stop());

        // Stage 2: nonlinear + ALE terms; vertex position update.
        let t0 = StageTimer::start(Stage::NonLinear);
        if self.cfg.advect {
            self.mesh_velocity_quad(&mut b.wmesh);
            let (wmesh, g) = (&b.wmesh, &mut b.g);
            let (u, v, w) = (&uq[..n], &uq[n..2 * n], &uq[2 * n..]);
            for c in 0..3 {
                Self::grad_quad(&self.vel_op, &self.u[c], g, &mut self.ws.elem);
                let [gx, gy, gz] = g.each_ref().map(|gd| &gd[..n]);
                let vel = u.iter().zip(&wmesh[..n]).zip(v).zip(w);
                let terms = nl[c * n..][..n].iter_mut().zip(vel).zip(gx.iter().zip(gy).zip(gz));
                for ((nl, (((u, wm), v), w)), ((gx, gy), gz)) in terms {
                    // Relative (ALE) advection velocity in x.
                    let ax = u - wm;
                    *nl = -(ax * gx + v * gy + w * gz);
                }
            }
            self.recorder.work(
                Stage::NonLinear,
                WorkItem::Stream {
                    flops: 21.0 * (ne * nq3) as f64,
                    bytes: 8.0 * 16.0 * (ne * nq3) as f64,
                    ws: 8 * 16 * nq3,
                },
            );
        } else {
            nl.fill(0.0);
        }
        // Vertex updates ("updating of the positions of the vertices").
        if self.cfg.motion_amp != 0.0 {
            let (x_min, x_max) = self.x_range;
            let disp = self.cfg.motion_amp * (self.cfg.motion_omega * (self.time + dt)).sin();
            for (v, x0) in self.verts0_x.iter().enumerate() {
                self.mesh.verts[v][0] = x0 + disp * motion_shape_fn(*x0, x_min, x_max);
            }
            // Refresh element scales (elements stay axis-aligned boxes).
            for le in 0..ne {
                let e = self.vel_op.my_elems[le];
                let (lo, hi) = elem_box(&self.mesh, e).expect("motion broke the box property");
                self.vel_op.scales[le] = [hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]];
            }
        }
        sc.add(Stage::NonLinear, t0.stop());

        // History push: `j` levels are in effect, fewer than the scheme's
        // order over the first steps.
        let j = self.hist.push(uq, nl);

        // Stage 3: stiffly-stable weighting (quadrature space).
        let t0 = StageTimer::start(Stage::StifflyStable);
        b.hat.resize(3 * n, 0.0);
        self.hist.weight(dt, &mut b.hat);
        self.recorder.work(
            Stage::StifflyStable,
            WorkItem::Stream {
                flops: (12 * j * ne * nq3) as f64,
                bytes: (48 * j * ne * nq3) as f64,
                ws: 48 * nq3,
            },
        );
        sc.add(Stage::StifflyStable, t0.stop());

        // Stage 4: pressure RHS = (1/dt) ∫ uhat·∇φ.
        let t0 = StageTimer::start(Stage::PressureRhs);
        let prhs = zeroed(&mut b.prhs, self.vel_op.nlocal());
        self.divergence_rhs(&b.hat, 1.0 / dt, &mut b.g, prhs);
        self.vel_op.gs.exchange(comm, prhs, ReduceOp::Sum);
        sc.add(Stage::PressureRhs, t0.stop());

        // Stage 5: pressure PCG solve.
        let t0 = StageTimer::start_v(Stage::PressureSolve, comm.wtime());
        // Warm start from the previous step's pressure.
        self.p.resize(self.vel_op.nlocal(), 0.0);
        let (op, bc, ws, rec) = (&self.vel_op, &self.press_bc, &mut self.ws, &mut self.recorder);
        let pit = op.pcg(comm, LAPLACE, bc, &b.prhs, &mut self.p, tol, max_iter, ws, rec);
        sc.add(Stage::PressureSolve, t0.stop_v(comm.wtime()));

        // Stage 6: viscous RHS from u** = uhat - dt ∇p.
        let t0 = StageTimer::start(Stage::ViscousRhs);
        let (hat, g, vrhs) = (&b.hat, &mut b.g, &mut b.vrhs);
        Self::grad_quad(&self.vel_op, &self.p, g, &mut self.ws.elem);
        let scale = 1.0 / (nu * dt);
        let op = &self.vel_op;
        for (c, (gc, v)) in g.iter_mut().zip(vrhs.iter_mut()).enumerate() {
            // u** = û − Δt ∇p, weighted in place of ∇p, then projected.
            let (gc, hat_c) = (&mut gc[..n], &hat[c * n..][..n]);
            let elems = gc.chunks_exact_mut(nq3).zip(hat_c.chunks_exact(nq3)).zip(&op.scales);
            for ((ge, he), [hx, hy, hz]) in elems {
                let jac = hx * hy * hz / 8.0;
                for ((gq, hq), [wx, wy, wz]) in ge.iter_mut().zip(he).zip(&op.op1.wpts) {
                    let ustar = hq - dt * *gq;
                    *gq = ustar * wx * wy * wz * jac * scale;
                }
            }
            op.project_pass(&[gc], false, zeroed(v, op.nlocal()), &mut self.ws.elem);
        }
        if self.vel_op.gs_overlap {
            // Split-phase pipeline: post all three component exchanges,
            // then drain in post order — each component's wire time
            // accrues while the previous ones drain. Per component the
            // combine order is unchanged, so the result is bitwise
            // identical to the blocking loop below.
            let [v0, v1, v2] = vrhs;
            let e0 = self.vel_op.gs.start(comm, v0, ReduceOp::Sum);
            let e1 = self.vel_op.gs.start(comm, v1, ReduceOp::Sum);
            let e2 = self.vel_op.gs.start(comm, v2, ReduceOp::Sum);
            e0.finish(comm, v0);
            e1.finish(comm, v1);
            e2.finish(comm, v2);
        } else {
            for c in 0..3 {
                self.vel_op.gs.exchange(comm, &mut vrhs[c], ReduceOp::Sum);
            }
        }
        sc.add(Stage::ViscousRhs, t0.stop());

        // Stage 7: three velocity Helmholtz PCG solves + the ALE extra
        // mesh-velocity Helmholtz solve.
        let t0 = StageTimer::start_v(Stage::ViscousSolve, comm.wtime());
        // The order-j scheme's λ: the ramp's while the history is filling.
        let coefs = [self.lambdas[j - 1], 1.0];
        let mut vit = 0usize;
        let mut unconverged = u64::from(!pit.converged);
        // The previous velocity is the initial guess.
        let (op, ws, rec) = (&self.vel_op, &mut self.ws, &mut self.recorder);
        for (rhs, x) in vrhs.iter().zip(self.u.iter_mut()) {
            let out = op.pcg(comm, coefs, &self.vel_bc, rhs, x, tol, max_iter, ws, rec);
            vit += out.iters;
            unconverged += u64::from(!out.converged);
        }
        // ALE extra: mesh-velocity Laplace solve (Dirichlet: body speed on
        // the wall, zero — as built — on the outer boundary).
        let mit = if self.cfg.motion_amp != 0.0 {
            let speed = self.cfg.motion_amp
                * self.cfg.motion_omega
                * (self.cfg.motion_omega * (self.time + dt)).cos();
            let values = self.mesh_bc.values_mut();
            self.wall.iter().for_each(|&k| values[k] = speed);
            let n = op.nlocal();
            let (zero, eta) = (zeroed(&mut b.zero, n), zeroed(&mut b.eta, n));
            let out = op.pcg(comm, LAPLACE, &self.mesh_bc, zero, eta, tol, max_iter, ws, rec);
            unconverged += u64::from(!out.converged);
            out.iters
        } else {
            0
        };
        sc.add(Stage::ViscousSolve, t0.stop_v(comm.wtime()));
        self.bufs = b;
        step_span.end_v(comm.wtime());
        self.last_iters = (pit.iters, vit, mit);
        self.note_unconverged(unconverged);
        self.time += dt;
        self.clock.merge(&sc);
        sc
    }

    /// Records whether the last batch of solves all converged, and counts
    /// the ones that did not.
    fn note_unconverged(&mut self, unconverged: u64) {
        self.last_converged = unconverged == 0;
        if unconverged > 0 {
            nkt_trace::counter_add("ale.pcg.unconverged", unconverged);
        }
    }

    /// Assembles rhs_m += c · ∫ hat·∇φ_m over owned elements, each
    /// element's three directions in turn; `hat` is shaped as a history
    /// level, and `fq` takes the weighted integrand of each direction.
    fn divergence_rhs(&mut self, hat: &[f64], c: f64, fq: &mut [Vec<f64>; 3], rhs: &mut [f64]) {
        let NektarAle { vel_op: op, ws, recorder, .. } = self;
        let nq3 = op.op1.basis.nquad().pow(3);
        let n = hat.len() / 3;
        for (d, fd) in fq.iter_mut().enumerate() {
            fd.resize(n, 0.0);
            let elems = fd.chunks_exact_mut(nq3).zip(hat[d * n..][..n].chunks_exact(nq3));
            for ((fe, he), h) in elems.zip(&op.scales) {
                let jac = h[0] * h[1] * h[2] / 8.0;
                for ((f, hq), [wx, wy, wz]) in fe.iter_mut().zip(he).zip(&op.op1.wpts) {
                    let wq = wx * wy * wz * jac * c;
                    *f = hq * wq * 2.0 / h[d];
                }
            }
        }
        let [f0, f1, f2] = fq.each_ref().map(|f| &f[..n]);
        op.project_pass(&[f0, f1, f2], true, rhs, &mut ws.elem);
        for _ in 0..op.my_elems.len() {
            recorder.work(Stage::PressureRhs, WorkItem::Gemm { m: nq3, n: 3, k: op.op1.nm });
        }
    }

    /// Total kinetic energy (collective): the velocity at the quadrature
    /// points goes through the step's gradient buffers.
    pub fn kinetic_energy(&mut self, comm: &mut Comm) -> f64 {
        let n = self.hist.layout.nq;
        let NektarAle { vel_op: op, u, ws, bufs, .. } = self;
        let [u0, u1, u2] = bufs.g.each_mut().map(|gd| {
            gd.resize(n, 0.0);
            &mut gd[..]
        });
        Self::vel_to_quad(op, u, [u0, u1, u2], &mut ws.elem);
        let [uq, vq, wq] = bufs.g.each_ref().map(|gd| &gd[..n]);
        let nq3 = op.op1.basis.nquad().pow(3);
        let mut local = 0.0;
        let elems = uq.chunks_exact(nq3).zip(vq.chunks_exact(nq3)).zip(wq.chunks_exact(nq3));
        for (((ue, ve), we), [hx, hy, hz]) in elems.zip(&op.scales) {
            let jac = hx * hy * hz / 8.0;
            for (((u, v), w3), [wx, wy, wz]) in ue.iter().zip(ve).zip(we).zip(&op.op1.wpts) {
                let w = wx * wy * wz * jac;
                local += 0.5 * w * (u * u + v * v + w3 * w3);
            }
        }
        let mut buf = [local];
        comm.allreduce(&mut buf, ReduceOp::Sum);
        buf[0]
    }

    /// Total mesh volume (collective) — conserved by the plane-wise
    /// motion.
    pub fn total_volume(&mut self, comm: &mut Comm) -> f64 {
        let local: f64 = self
            .vel_op
            .scales
            .iter()
            .map(|[hx, hy, hz]| hx * hy * hz)
            .sum();
        let mut buf = [local];
        comm.allreduce(&mut buf, ReduceOp::Sum);
        buf[0]
    }

    /// Steps taken.
    pub fn steps(&self) -> usize {
        self.hist.steps
    }

    /// Turns split-phase halo/compute overlap on or off (on at
    /// construction; off is the reference of `ablation_gs_overlap`).
    /// Both settings produce bitwise-identical states (see
    /// [`HexHelmholtz::apply`]); only the virtual wall-clock differs.
    pub fn set_gs_overlap(&mut self, on: bool) {
        self.vel_op.set_gs_overlap(on);
    }
}

impl nkt_ckpt::Checkpointable for NektarAle {
    fn kind(&self) -> &'static str {
        "ale"
    }

    fn write_sections(&self, w: &mut nkt_ckpt::CkptWriter) {
        // "fields": dof-count guards (velocity, then pressure: both the
        // one operator's), then velocity and pressure modal coefficients.
        let mut e = nkt_ckpt::Enc::new();
        e.usize(self.vel_op.nlocal());
        e.usize(self.vel_op.nlocal());
        for c in &self.u {
            e.f64s(c);
        }
        e.f64s(&self.p);
        w.section("fields", e.into_bytes());

        // "mesh": the moving-mesh state — simulated time, vertex
        // positions, per-element scales, and the last solve iteration
        // counts (observability only, but kept so a restored run reports
        // what the interrupted one would).
        let mut e = nkt_ckpt::Enc::new();
        e.f64(self.time);
        e.usize(self.mesh.verts.len());
        self.mesh.verts.iter().flatten().for_each(|&c| e.f64(c));
        e.usize(self.vel_op.scales.len());
        self.vel_op.scales.iter().flatten().for_each(|&c| e.f64(c));
        e.usize(self.last_iters.0);
        e.usize(self.last_iters.1);
        e.usize(self.last_iters.2);
        w.section("mesh", e.into_bytes());

        self.hist.write_sections(w);
    }

    fn read_sections(&mut self, f: &nkt_ckpt::CkptFile) -> Result<(), nkt_ckpt::CkptError> {
        // Every count and length is held to this solver's: a step indexes
        // these vectors without looking at them.
        let n = self.vel_op.nlocal();
        let mut d = f.dec("fields")?;
        d.expect_u64(n as u64, "ale velocity dof count")?;
        d.expect_u64(n as u64, "ale pressure dof count")?;
        for c in self.u.iter_mut() {
            d.f64s_into(c, "ale velocity size")?;
        }
        self.p = d.f64s()?;
        // No pressure before the first step: `p` may be empty.
        if !self.p.is_empty() && self.p.len() != n {
            let what = format!("ale p: {} values, {n} dofs", self.p.len());
            return Err(nkt_ckpt::CkptError::StateMismatch { what });
        }
        d.finish()?;

        let mut d = f.dec("mesh")?;
        self.time = d.f64()?;
        d.expect_u64(self.mesh.verts.len() as u64, "ale vertex count")?;
        for c in self.mesh.verts.iter_mut().flatten() {
            *c = d.f64()?;
        }
        d.expect_u64(self.vel_op.scales.len() as u64, "ale element count")?;
        for s in self.vel_op.scales.iter_mut() {
            *s = [d.f64()?, d.f64()?, d.f64()?];
        }
        self.last_iters =
            (d.u64()? as usize, d.u64()? as usize, d.u64()? as usize);
        d.finish()?;

        self.hist.read_sections(f)
    }

    fn ckpt_step(&self) -> u64 {
        self.hist.steps as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nkt_mesh::box_hexes;
    use nkt_net::{cluster, NetId};
    use nkt_partition::{partition_kway, Graph, PartitionOptions};

    fn run<R: Send, F: Fn(&mut Comm) -> R + Sync>(
        p: usize,
        net: nkt_net::ClusterNetwork,
        f: F,
    ) -> Vec<R> {
        World::builder().ranks(p).net(net).run(f)
    }

    fn small_mesh() -> Mesh3d {
        box_hexes(0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 2, 2, 2)
    }

    fn cfg() -> AleConfig {
        AleConfig {
            order: 3,
            dt: 2e-3,
            nu: 0.05,
            scheme_order: 2,
            advect: true,
            motion_amp: 0.0,
            ..Default::default()
        }
    }

    /// Divergence-free field vanishing on the whole box boundary.
    fn psi_field(x: [f64; 3]) -> [f64; 3] {
        let pi = std::f64::consts::PI;
        let (sx, cx) = (pi * x[0]).sin_cos();
        let (sy, cy) = (pi * x[1]).sin_cos();
        let gz = (pi * x[2]).sin().powi(2);
        [
            2.0 * pi * sx * sx * sy * cy * gz,
            -2.0 * pi * sx * cx * sy * sy * gz,
            0.0,
        ]
    }

    fn partition_for(mesh: &Mesh3d, p: usize) -> Vec<u8> {
        let g = Graph::from_edges(mesh.nelems(), &mesh.dual_edges());
        partition_kway(&g, p, &PartitionOptions::default())
    }

    #[test]
    fn tensor_roundtrip_consistency() {
        // The quadrature values of a constant-one vertex combination are
        // 1, and its gradient 0, on a one-element operator.
        let mesh = box_hexes(0.0, 2.0, 0.0, 1.0, 0.0, 0.5, 1, 1, 1);
        let numbering = HexNumbering::build(&mesh, 3);
        run(1, cluster(NetId::T3e), |c| {
            let op = HexHelmholtz::new(c, &mesh, &numbering, &[0]);
            let nm = op.op1.nm;
            let mut x = vec![0.0; op.nlocal()];
            // u = 1 is the sum of all 8 vertex modes:
            // (psi_0 + psi_P) = 1 in each direction.
            for k in [0, nm - 1] {
                for j in [0, nm - 1] {
                    for i in [0, nm - 1] {
                        x[op.elem_dofs(0)[i + j * nm + k * nm * nm]] = 1.0;
                    }
                }
            }
            let scratch = &mut Vec::new();
            let mut q = vec![vec![f64::NAN; op.op1.basis.nquad().pow(3)]; 3];
            op.quad_pass(&x, false, &mut [&mut q[0]], scratch);
            for &v in &q[0] {
                assert!((v - 1.0).abs() < 1e-13, "{v}");
            }
            let [q0, q1, q2] = &mut q[..] else { unreachable!() };
            op.quad_pass(&x, true, &mut [q0, q1, q2], scratch);
            for v in q.iter().flatten() {
                assert!(v.abs() < 1e-12);
            }
        });
    }

    #[test]
    fn initial_projection_energy() {
        let mesh = small_mesh();
        let part = partition_for(&mesh, 2);
        let out = run(2, cluster(NetId::T3e), |c| {
            let mut s = NektarAle::new(c, mesh.clone(), &part, cfg());
            s.set_initial(c, psi_field);
            s.kinetic_energy(c)
        });
        // Reference energy via dense quadrature of the analytic field.
        let mut expect = 0.0;
        let n = 24;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let x = [
                        (i as f64 + 0.5) / n as f64,
                        (j as f64 + 0.5) / n as f64,
                        (k as f64 + 0.5) / n as f64,
                    ];
                    let v = psi_field(x);
                    expect +=
                        0.5 * (v[0] * v[0] + v[1] * v[1]) / (n * n * n) as f64;
                }
            }
        }
        for &e in &out {
            assert!((e - expect).abs() / expect < 0.01, "E={e} vs {expect}");
        }
    }

    #[test]
    fn parallel_invariance_p1_vs_p2() {
        let mesh = small_mesh();
        let run_with = |p: usize| -> Vec<f64> {
            let part = partition_for(&mesh, p);
            run(p, cluster(NetId::T3e), |c| {
                let mut s = NektarAle::new(c, mesh.clone(), &part, cfg());
                s.set_initial(c, psi_field);
                let mut es = Vec::new();
                for _ in 0..3 {
                    s.step(c);
                    es.push(s.kinetic_energy(c));
                }
                es
            })[0]
                .clone()
        };
        let e1 = run_with(1);
        let e2 = run_with(2);
        for step in 0..3 {
            assert!(
                (e1[step] - e2[step]).abs() < 1e-6 * (1.0 + e1[step]),
                "step {step}: {} vs {}",
                e1[step],
                e2[step]
            );
        }
    }

    #[test]
    fn energy_decays_monotonically() {
        let mesh = small_mesh();
        let part = partition_for(&mesh, 2);
        let out = run(2, cluster(NetId::T3e), |c| {
            let mut s = NektarAle::new(c, mesh.clone(), &part, cfg());
            s.set_initial(c, psi_field);
            let mut es = vec![s.kinetic_energy(c)];
            for _ in 0..4 {
                s.step(c);
                es.push(s.kinetic_energy(c));
            }
            es
        });
        for es in &out {
            for w in es.windows(2) {
                assert!(w[1] < w[0] && w[1] > 0.0, "{es:?}");
            }
        }
    }

    #[test]
    fn moving_mesh_conserves_volume_and_stays_finite() {
        let mesh = box_hexes(0.0, 4.0, 0.0, 1.0, 0.0, 1.0, 4, 2, 2);
        let part = partition_for(&mesh, 2);
        let mcfg = AleConfig { motion_amp: 0.05, ..cfg() };
        let out = run(2, cluster(NetId::T3e), |c| {
            let mut s = NektarAle::new(c, mesh.clone(), &part, mcfg.clone());
            s.set_initial(c, |_| [0.1, 0.0, 0.0]);
            let v0 = s.total_volume(c);
            for _ in 0..3 {
                s.step(c);
            }
            let v1 = s.total_volume(c);
            let e = s.kinetic_energy(c);
            let (pit, vit, mit) = s.last_iters;
            (v0, v1, e, pit, vit, mit)
        });
        for &(v0, v1, e, _pit, _vit, _mit) in &out {
            assert!((v0 - 4.0).abs() < 1e-10);
            assert!((v1 - 4.0).abs() < 1e-9, "volume drifted: {v1}");
            assert!(e.is_finite());
        }
    }

    #[test]
    fn pcg_solves_dominate_step_time() {
        // Figures 15-16: stages b (pressure) + c (Helmholtz solves) carry
        // ~90% of the ALE step; here the shares are host seconds.
        let mesh = small_mesh();
        let part = partition_for(&mesh, 1);
        let out = run(1, cluster(NetId::T3e), |c| {
            let mut s = NektarAle::new(c, mesh.clone(), &part, cfg());
            s.set_initial(c, psi_field);
            for _ in 0..2 {
                s.step(c);
            }
            s.clock.ale_group_percentages()
        });
        let (a, b, cc) = out[0];
        assert!(b + cc > 50.0, "solves only {b}+{cc}% (a = {a}%)");
    }

    /// Whether each local dof of `s` lies on a Wall face of its current
    /// mesh, from geometry alone: a mode's anchor — per axis the low end,
    /// the high end or the middle of its element's box — lies in the
    /// closed rectangle of some Wall face.
    fn wall_dofs(s: &NektarAle) -> Vec<bool> {
        let walls: Vec<[[f64; 3]; 2]> = (s.mesh.faces.iter())
            .filter(|f| f.tag == Some(BoundaryTag::Wall))
            .map(|f| {
                let xs = f.v.map(|v| s.mesh.verts[v]);
                let lo = [0, 1, 2].map(|d| xs.iter().map(|x| x[d]).fold(f64::MAX, f64::min));
                let hi = [0, 1, 2].map(|d| xs.iter().map(|x| x[d]).fold(f64::MIN, f64::max));
                [lo, hi]
            })
            .collect();
        let within = |x: [f64; 3], [lo, hi]: &[[f64; 3]; 2]| {
            (0..3).all(|d| lo[d] - 1e-12 <= x[d] && x[d] <= hi[d] + 1e-12)
        };
        let (op, nm1) = (&s.vel_op, s.cfg.order + 1);
        let mut wall = vec![false; op.nlocal()];
        for (le, &e) in op.my_elems.iter().enumerate() {
            let (lo, hi) = elem_box(&s.mesh, e).expect("box");
            for (m, &l) in op.elem_dofs(le).iter().enumerate() {
                let idx = [m % nm1, m / nm1 % nm1, m / (nm1 * nm1)];
                let x = [0, 1, 2].map(|d| match idx[d] {
                    0 => lo[d],
                    i if i == s.cfg.order => hi[d],
                    _ => (lo[d] + hi[d]) / 2.0,
                });
                wall[l] = walls.iter().any(|w| within(x, w));
            }
        }
        wall
    }

    /// The flapping-wing mesh has Wall faces; the ALE extra Helmholtz
    /// solve must do real work there, on its Dirichlet data: after a
    /// step, every constrained row of its iterate holds the body speed on
    /// a Wall dof (found from the mesh's Wall faces) and 0 on the others.
    #[test]
    fn wing_mesh_mesh_velocity_solve_runs() {
        let mesh = nkt_mesh::wing_box_mesh(1);
        let part = partition_for(&mesh, 2);
        let mcfg = AleConfig { motion_amp: 0.02, order: 2, ..cfg() };
        let out = run(2, cluster(NetId::T3e), |c| {
            let mut s = NektarAle::new(c, mesh.clone(), &part, mcfg.clone());
            s.set_initial(c, |_| [0.1, 0.0, 0.0]);
            s.step(c);
            let (pit, vit, mit) = s.last_iters;
            let e = s.kinetic_energy(c);
            let speed = s.cfg.motion_amp * s.cfg.motion_omega * (s.cfg.motion_omega * s.time).cos();
            assert!(speed != 0.0);
            let (wall, eta) = (wall_dofs(&s), &s.bufs.eta);
            let rows = s.mesh_bc.rows();
            for &l in rows {
                let want = if wall[l] { speed } else { 0.0 };
                assert!(eta[l] == want, "rank {}, row {l}: {} vs {want}", c.rank(), eta[l]);
            }
            let walls = rows.iter().filter(|&&l| wall[l]).count();
            (pit, vit, mit, e, walls, rows.len() - walls)
        });
        for &(pit, vit, mit, e, _, _) in &out {
            assert!(mit > 0, "mesh-velocity solve trivial: {mit}");
            assert!(pit > 0 && vit > 0);
            assert!(e.is_finite() && e > 0.0);
        }
        let (walls, others) = out.iter().fold((0, 0), |(w, o), r| (w + r.4, o + r.5));
        assert!(walls > 0 && others > 0, "{walls} Wall rows, {others} others");
    }

    /// The solves are accurate enough whatever the preconditioner: ten
    /// steps of the wing demo at its `pcg_tol` of 1e-6 end within 1e-3
    /// (relative) of the kinetic energy the same run reaches at 1e-12.
    #[test]
    fn wing_energy_at_the_demo_tolerance_matches_a_tight_solve() {
        let energy = |pcg_tol: f64| {
            let case = crate::drive::cases::wing(1);
            let case = crate::drive::cases::WingCase {
                cfg: AleConfig { pcg_tol, pcg_max_iter: 20_000, ..case.cfg },
                ..case
            };
            run(1, cluster(NetId::T3e), |c| {
                let mut s = case.build(c);
                for _ in 0..10 {
                    s.step(c);
                    assert!(s.last_converged, "tol {pcg_tol}: {:?}", s.last_iters);
                }
                s.kinetic_energy(c)
            })[0]
        };
        let (loose, tight) = (energy(1e-6), energy(1e-12));
        assert!((loose - tight).abs() <= 1e-3 * tight, "{loose} vs {tight}");
    }

    /// Split-phase gather-scatter is pure scheduling over a whole step:
    /// two steps of the wing demo on two ranks — the Helmholtz applies and
    /// the viscous RHS's three pipelined component exchanges — end in the
    /// same state, bit for bit, and charge the same busy time with it on
    /// and off (the same charges at other virtual times: ulp-level drift,
    /// as in `ablation_gs_overlap`).
    #[test]
    fn a_two_rank_wing_step_is_bitwise_equal_with_gs_overlap_on_and_off() {
        use crate::drive::cases::{wing, WingCase};
        use nkt_ckpt::Checkpointable;
        let two_steps = |gs_overlap: bool| {
            let case = WingCase { gs_overlap, ..wing(2) };
            run(2, cluster(NetId::T3e), |c| {
                let mut s = case.build(c);
                s.step(c);
                s.step(c);
                (s.state_hash(), c.busy())
            })
        };
        let pairs = two_steps(false).into_iter().zip(two_steps(true));
        for (rank, ((hash_off, busy_off), (hash_on, busy_on))) in pairs.enumerate() {
            assert_eq!(hash_off, hash_on, "rank {rank}: state hash");
            let drift = (busy_off - busy_on).abs();
            assert!(drift <= 1e-12 * busy_off, "rank {rank}: busy {busy_off} vs {busy_on}");
        }
    }

    #[test]
    fn recorder_sees_gemm_and_gs_traffic() {
        let mesh = small_mesh();
        let part = partition_for(&mesh, 2);
        let out = run(2, cluster(NetId::T3e), |c| {
            let mut s = NektarAle::new(c, mesh.clone(), &part, cfg());
            s.set_initial(c, psi_field);
            s.recorder = Recorder::enabled();
            s.step(c);
            let rec = s.recorder.take().unwrap();
            (rec.work.len(), rec.comm.len())
        });
        for &(w, cm) in &out {
            assert!(w > 0, "no work recorded");
            assert!(cm > 0, "no comm recorded");
        }
    }
}
