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
//! Every other stage is the `plane` module's, the serial solver's too,
//! over the owned modes' (u, v, w) × (cos, sin) planes.

use crate::decomp::{FourierCfgError, Grid, ToModes, TransposeCtx, LANES};
use crate::opstream::{Recorder, WorkItem};
use crate::plane::{Coeffs, PlaneStep, Seam};
use crate::splitting::Layout;
use crate::timers::{Stage, StageClock};
use nkt_blas::isa::dispatch;
use nkt_fft::RealFft;
use nkt_mesh::Mesh2d;
use nkt_mpi::prelude::*;
use nkt_spectral::{Discretization, HelmholtzProblem};
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

/// Modal (assembled, global-dof) coefficients for one mode: cos/sin.
#[derive(Debug, Clone, Default)]
pub struct ModeCoeffs {
    /// Cosine-plane coefficients.
    pub a: Vec<f64>,
    /// Sine-plane coefficients.
    pub b: Vec<f64>,
}

/// The six coefficient vectors of every owned mode: u, v, w × cos, sin.
impl Coeffs<6> for [[ModeCoeffs; 3]] {
    fn mode(&mut self, mi: usize) -> [&mut [f64]; 6] {
        let [u, v, w] = &mut self[mi];
        [&mut u.a, &mut u.b, &mut v.a, &mut v.b, &mut w.a, &mut w.b]
    }

    fn plane(&self, mi: usize, i: usize) -> &[f64] {
        let c = &self[mi][i / 2];
        if i.is_multiple_of(2) { &c.a } else { &c.b }
    }
}

/// Spanwise wavenumber β = 2πk/L_z of global mode `k`.
fn wavenumber(k: usize, lz: f64) -> f64 {
    2.0 * std::f64::consts::PI * k as f64 / lz
}

/// Per-rank NekTar-F solver state.
pub struct NektarF {
    /// Configuration.
    pub cfg: FourierConfig,
    /// Process grid: mode/point layout and transpose plan.
    grid: Grid,
    /// Modes owned by this rank (global indices, contiguous; mirror of
    /// the grid's block for direct access).
    pub my_modes: std::ops::Range<usize>,
    /// Mesh, bases, dof map and elemental operators of the x–y plane:
    /// one per rank, shared by every per-mode problem below.
    pub(crate) disc: Arc<Discretization>,
    /// Per owned mode: pressure problem (λ = β²).
    pub(crate) pressure: Vec<HelmholtzProblem>,
    /// Per owned mode: viscous problem (λ = β² + γ₀/(νΔt)).
    pub(crate) viscous: Vec<HelmholtzProblem>,
    /// Modal coefficients per mode per component [u, v, w].
    pub fields: Vec<[ModeCoeffs; 3]>,
    /// The last owned mode's pressure (cos, sin) after a step.
    p: Vec<f64>,
    /// History rings, ramp problems, workspace and every stage but the
    /// exchange.
    plane: PlaneStep,
    /// The exchange's 12 transposed fields, then 3 nonlinear terms, each
    /// `[z][point]` at this rank's points.
    phys: Vec<f64>,
    /// Stage clock (host seconds of the steps this process ran).
    pub clock: StageClock,
    /// Recorder for the model replay.
    pub recorder: Recorder,
    /// Pipeline the transpose exchanges against per-field FFT work
    /// (on until [`NektarF::set_overlap`]). Results are bitwise identical
    /// either way; only the virtual wall clock changes.
    pub overlap: bool,
}

/// NekTar-F's stage 2: u, v, w and their nine derivatives to physical
/// z-columns, the products there, and the nonlinear terms back.
struct Exchange<'a> {
    comm: &'a mut Comm,
    grid: &'a mut Grid,
    overlap: bool,
    phys: &'a mut [f64],
}

impl Seam for Exchange<'_> {
    fn wtime(&self) -> f64 {
        self.comm.wtime()
    }

    fn products(&mut self, vel: &[f64], grad: &[f64], nl: &mut [f64], rec: &mut Recorder) {
        let mut ctx = TransposeCtx { overlap: self.overlap, recorder: rec };
        // u, v, w straight from this step's level, then ∂x, ∂y, ∂z of each.
        let flen = vel.len() / 3;
        let fields: [&[f64]; 12] = std::array::from_fn(|f| {
            let (buf, f) = if f < 3 { (vel, f) } else { (grad, f - 3) };
            &buf[f * flen..(f + 1) * flen]
        });
        let plen = self.phys.len() / 15;
        let (phys, phys_nl) = self.phys.split_at_mut(12 * plen);
        self.grid.to_phys(self.comm, &mut ctx, &fields, phys);
        let field = |f: usize| &phys[f * plen..(f + 1) * plen];
        let (u, v, w) = (field(0), field(1), field(2));
        for c in 0..3 {
            let (dx, dy, dz) = (field(3 + c), field(6 + c), field(9 + c));
            for (o, n) in phys_nl[c * plen..(c + 1) * plen].iter_mut().enumerate() {
                *n = -(u[o] * dx[o] + v[o] * dy[o] + w[o] * dz[o]);
            }
        }
        ctx.recorder.work(
            Stage::NonLinear,
            WorkItem::Stream {
                flops: 18.0 * plen as f64,
                bytes: 8.0 * 15.0 * plen as f64,
                ws: 8 * 15 * plen.max(1),
            },
        );
        self.grid.to_modes(self.comm, &mut ctx, phys_nl, nl);
    }

    fn record_weighting(&self, rec: &mut Recorder, l: Layout, j: usize) {
        let (flops, bytes) = ((8 * j * l.level_len()) as f64, (32 * j * l.level_len()) as f64);
        rec.work(Stage::StifflyStable, WorkItem::Stream { flops, bytes, ws: 32 * l.nq });
    }
}

impl NektarF {
    /// Builds the per-rank solver on the paper's slab, a `P × 1` grid
    /// ("a straightforward mapping of Fourier modes to P processors"),
    /// pipelined transpose, pairwise alltoall — whatever the shell
    /// exports. Collective over `comm`. Panicking wrapper over
    /// [`NektarF::try_new_with_grid`] for callers that treat a bad
    /// configuration as a bug.
    pub fn new(comm: &mut Comm, mesh: &Mesh2d, cfg: FourierConfig) -> NektarF {
        let p = comm.size();
        NektarF::try_new_with_grid(comm, mesh, cfg, p, 1)
            .unwrap_or_else(|e| panic!("NektarF::new: {e}"))
    }

    /// Builds the solver on an explicit `pr × pc` process grid. `pc = 1`
    /// is the slab (one world alltoall per transpose); `pc > 1` is the
    /// 2-D pencil (DESIGN.md §13), which admits `P` up to `pc` times the
    /// mode count.
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
        // The per-mode problems differ only in λ: one discretization, and
        // 1 + scheme_order members of it per owned mode.
        let disc = Discretization::new(mesh.clone(), cfg.order);
        let nq_total = disc.nquad_total();
        let grid = Grid::new(comm, pr, pc, nmodes, nq_total)?;
        let my_modes = grid.my_modes();
        let mpp = my_modes.len();
        let betas = my_modes.clone().map(|k| wavenumber(k, cfg.lz)).collect();
        let plane = PlaneStep::new(&disc, cfg.scheme_order, cfg.dt, cfg.nu, betas, 3, 2);
        let (pressure, viscous) = (0..mpp).map(|mi| plane.problems(&disc, mi)).unzip();
        let ndof = disc.asm.ndof;
        let phys_len = grid.my_points().len() * cfg.nz;
        let zeros = || ModeCoeffs { a: vec![0.0; ndof], b: vec![0.0; ndof] };
        let fields = (0..mpp).map(|_| [zeros(), zeros(), zeros()]).collect();
        Ok(NektarF {
            cfg,
            grid,
            my_modes,
            disc,
            pressure,
            viscous,
            fields,
            p: vec![0.0; 2 * ndof],
            phys: vec![0.0; 15 * phys_len],
            plane,
            clock: StageClock::new(),
            recorder: Recorder::disabled(),
            overlap: true,
        })
    }

    /// Selects the pipelined (`true`, the constructors' choice) or
    /// blocking (`false`) transpose; the blocking one is the reference
    /// of `ablation_overlap` and of the bitwise tests.
    pub fn set_overlap(&mut self, on: bool) {
        self.overlap = on;
    }

    /// Spanwise wavenumber of global mode `k`.
    pub fn beta(&self, k: usize) -> f64 {
        wavenumber(k, self.cfg.lz)
    }

    /// Sets the initial velocity from a physical-space function
    /// `f([x,y,z]) -> [u,v,w]` by z-DFT sampling + per-mode 2-D L2
    /// projection: `f` is sampled once per (quadrature point, plane), and
    /// the forward z-transforms of a block of [`LANES`] points, one per
    /// component, yield the coefficient of every owned mode there.
    pub fn set_initial(&mut self, f: impl Fn([f64; 3]) -> [f64; 3]) {
        let nz = self.cfg.nz;
        let lz = self.cfg.lz;
        let nq = self.disc.nquad_total();
        let mpp = self.my_modes.len();
        let fft = RealFft::new(nz);
        let mut scratch = vec![[0.0; LANES]; 2 * fft.scratch_len()];
        // Plane (c, mi, cos | sin) is row (c·mpp + mi)·2 + (0 | 1) of
        // `planes`, element-major quadrature values like every other plane
        // here; `block` holds one block's samples, `[c][z][point]`.
        let mut planes = vec![0.0; 3 * mpp * 2 * nq];
        let mut block = vec![0.0; 3 * nz * LANES];
        let points: Vec<[f64; 2]> = self.disc.quad_points().collect();
        for (b, xs) in points.chunks(LANES).enumerate() {
            let (q0, nl) = (b * LANES, xs.len());
            for (l, x) in xs.iter().enumerate() {
                for j in 0..nz {
                    let v = f([x[0], x[1], lz * j as f64 / nz as f64]);
                    for (c, vc) in v.into_iter().enumerate() {
                        block[(c * nz + j) * nl + l] = vc;
                    }
                }
            }
            for (c, phys) in block[..3 * nz * nl].chunks_exact(nz * nl).enumerate() {
                let out = &mut planes[c * mpp * 2 * nq + q0..];
                let (modes, scratch) = (self.my_modes.clone(), &mut scratch[..]);
                forward_lines(ToModes { fft: &fft, phys, modes, run: nq, out, scratch });
            }
        }
        let mut rows = planes.chunks_exact(nq);
        for c in 0..3 {
            for comps in self.fields.iter_mut() {
                let mc = &mut comps[c];
                mc.a = self.disc.l2_project_quad(rows.next().expect("a row per plane"));
                mc.b = self.disc.l2_project_quad(rows.next().expect("a row per plane"));
            }
        }
        self.plane.hist.reset();
    }

    /// The decomposition's short name ("slab" / "pencil").
    pub fn decomp_name(&self) -> &'static str {
        self.grid.name()
    }

    /// `(rows, cols)` of the process grid (slab: `(P, 1)`).
    pub fn grid(&self) -> (usize, usize) {
        self.grid.grid()
    }

    /// True on the one rank per mode block whose diagnostics count
    /// (pencil grids replicate modes across `pc` columns; summing every
    /// rank's contribution would inflate mode sums `pc`-fold).
    pub fn is_primary(&self) -> bool {
        self.grid.is_primary()
    }

    /// Advances one time step (collective). Returns this step's stage
    /// times (host seconds; the transposes' virtual time is on the stage
    /// span).
    pub fn step(&mut self, comm: &mut Comm) -> StageClock {
        let mut exchange = Exchange {
            comm,
            grid: &mut self.grid,
            overlap: self.overlap,
            phys: &mut self.phys,
        };
        let sc = self.plane.step::<2, 6>(
            &self.disc,
            &mut self.fields[..],
            &mut self.pressure,
            &mut self.viscous,
            None,
            &mut self.p,
            &mut exchange,
            &mut self.recorder,
        );
        self.clock.merge(&sc);
        sc
    }

    /// Total kinetic energy ½∫|u|² over the 3-D domain (collective), in
    /// the step's own planes: a warmed call allocates only what its
    /// `allreduce` does. Only primary ranks contribute — pencil grids
    /// replicate each mode block across `pc` columns (see
    /// [`NektarF::is_primary`]).
    pub fn kinetic_energy(&mut self, comm: &mut Comm) -> f64 {
        // One running sum over every owned mode, not a sum of per-mode
        // sums: the `ke` channel is held to the bit.
        let mut local = [0.0];
        let owned = if self.is_primary() { self.my_modes.len() } else { 0 };
        let (disc, lz) = (self.disc.clone(), self.cfg.lz);
        for mi in 0..owned {
            let k = self.my_modes.start + mi;
            let (vals, _) = self.quad_planes(mi, false);
            energy_terms(&disc, lz, k, vals).for_each(|t| local[0] += t);
        }
        comm.allreduce(&mut local, nkt_mpi::ReduceOp::Sum);
        local[0]
    }

    /// Owned mode `mi`'s six planes (u, v, w × cos, sin, in that order) at
    /// the quadrature points, in the step's scratch, and with `grad` their
    /// ∂x then their ∂y, twelve planes at the front of stage 2's
    /// derivatives (empty without). Never the history rings.
    pub(crate) fn quad_planes(&mut self, mi: usize, grad: bool) -> (&[f64], &[f64]) {
        let (disc, plane) = (&self.disc, &mut self.plane);
        let nq = disc.nquad_total();
        let ng = if grad { 12 * nq } else { 0 };
        let (gx, gy) = plane.grad[..ng].split_at_mut(ng / 2);
        let [u, v, w] = &self.fields[mi];
        let coefs = [&u.a, &u.b, &v.a, &v.b, &w.a, &w.b];
        let (vals, grad) = (Some(&mut plane.planes[..6 * nq]), grad.then_some([gx, gy]));
        disc.quad_planes_into(6, |i| coefs[i], vals, grad, &mut plane.scratch);
        (&plane.planes, &plane.grad[..ng])
    }

    /// Steps taken.
    pub fn steps(&self) -> usize {
        self.plane.hist.steps
    }
}

/// The kinetic-energy terms of Fourier mode `k`, whose six value planes
/// are `vals` ([`NektarF::quad_planes`]), component by component, point
/// by point: ½ w × the plane energies under the spanwise measure (∫ cos² =
/// ∫ sin² = Lz/2 for k > 0; ∫ 1 = Lz for k = 0).
pub(crate) fn energy_terms<'a>(
    disc: &'a Discretization,
    lz: f64,
    k: usize,
    vals: &'a [f64],
) -> impl Iterator<Item = f64> + 'a {
    let nq = disc.nquad_total();
    vals.chunks_exact(2 * nq).take(3).flat_map(move |ab| {
        let (a, b) = ab.split_at(nq);
        disc.quad_weights().zip(a).zip(b).map(move |((w, &a), &b)| {
            0.5 * w * if k == 0 { lz * a * a } else { 0.5 * lz * (a * a + b * b) }
        })
    })
}

/// Runs the forward z-transforms of `kernel`, counted under test: how
/// many lines a set-up transforms is asserted there.
fn forward_lines(kernel: ToModes<'_, LANES>) {
    #[cfg(test)]
    tests::FORWARD_FFTS.with(|n| n.set(n.get() + kernel.phys.len() / kernel.fft.len()));
    dispatch(kernel);
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
        e.usize(self.plane.hist.layout.nq);
        for comps in &self.fields {
            for mc in comps {
                e.f64s(&mc.a);
                e.f64s(&mc.b);
            }
        }
        w.section("fields", e.into_bytes());

        self.plane.hist.write_sections(w);
    }

    fn read_sections(&mut self, f: &nkt_ckpt::CkptFile) -> Result<(), nkt_ckpt::CkptError> {
        let mut d = f.dec("fields")?;
        d.expect_u64(self.my_modes.start as u64, "fourier mode-block start")?;
        d.expect_u64(self.my_modes.len() as u64, "fourier mode-block length")?;
        d.expect_u64(self.disc.asm.ndof as u64, "fourier dof count")?;
        d.expect_u64(self.plane.hist.layout.nq as u64, "fourier plane quadrature size")?;
        for comps in self.fields.iter_mut() {
            for mc in comps.iter_mut() {
                d.f64s_into(&mut mc.a, "fourier mode coefficients")?;
                d.f64s_into(&mut mc.b, "fourier mode coefficients")?;
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
    use crate::decomp::mode_coeffs;
    use nkt_fft::Complex64;
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
        /// Lines `forward_lines` has transformed on this (rank) thread.
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
                        fft.forward(&vals, &mut sp);
                        let ([a], [b]) = mode_coeffs(k, nz, [sp[k].re], [sp[k].im]);
                        (a, b)
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
                (s.plane.hist.layout.nq, calls.get(), FORWARD_FFTS.with(|n| n.get()))
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
                .chain(s.plane.ramp.iter().flatten())
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
        // integrates exactly the 2-D equations, in the same arithmetic:
        // after four steps its k = 0 cosine planes are the serial
        // solver's u and v bit for bit, on one rank and on two, and every
        // other plane of every mode (k = 0's sine planes and w, all of
        // k ≥ 1) has not moved from zero.
        use crate::serial2d::{Serial2dSolver, SolverConfig};
        let c2 = cfg();
        let f2d = |x: [f64; 2]| psi_field([x[0], x[1], 0.0]);
        let scfg = SolverConfig {
            order: c2.order,
            dt: c2.dt,
            nu: c2.nu,
            scheme_order: c2.scheme_order,
            advect: true,
        };
        let mut s = Serial2dSolver::new(mesh(), scfg, |_| 0.0, |_| 0.0);
        s.set_initial(|x| f2d(x)[0], |x| f2d(x)[1]);
        for _ in 0..4 {
            s.step();
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for p in [1usize, 2] {
            let ranks = run(p, cluster(NetId::T3e), |c| {
                let mut f = NektarF::new(c, &mesh(), cfg());
                f.set_initial(|x| psi_field([x[0], x[1], 0.0]));
                for _ in 0..4 {
                    f.step(c);
                }
                f.my_modes.clone().zip(f.fields).collect::<Vec<_>>()
            });
            let mut seen = Vec::new();
            for (k, [u, v, w]) in ranks.into_iter().flatten() {
                let mut zero = vec![("u.b", u.b), ("v.b", v.b), ("w.a", w.a), ("w.b", w.b)];
                if k == 0 {
                    assert_eq!(bits(&u.a), bits(&s.u), "{p} rank(s): k = 0 u cosine plane");
                    assert_eq!(bits(&v.a), bits(&s.v), "{p} rank(s): k = 0 v cosine plane");
                } else {
                    zero.extend([("u.a", u.a), ("v.a", v.a)]);
                }
                for (name, plane) in zero {
                    assert!(plane.iter().all(|&x| x == 0.0), "{p} rank(s): k = {k} {name} moved");
                }
                seen.push(k);
            }
            assert_eq!(seen, [0, 1, 2, 3], "{p} rank(s): every mode, once");
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
        // The overlap path is pure scheduling: at every rank count two
        // steps must leave byte-identical state (FNV digest over all
        // numerical sections) to the blocking path's.
        use nkt_ckpt::Checkpointable;
        let hashes = |p: usize, overlap: bool| -> Vec<u64> {
            run(p, cluster(NetId::RoadRunnerEth), move |c| {
                let mut s = NektarF::new(c, &mesh(), FourierConfig { nz: 16, ..cfg() });
                s.set_overlap(overlap);
                s.set_initial(init_field);
                s.step(c);
                s.step(c);
                s.state_hash()
            })
        };
        for p in [1usize, 2, 4, 8] {
            assert_eq!(hashes(p, true), hashes(p, false), "pipelined path diverged at p={p}");
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
            s.my_modes.clone()
        });
        for (r, modes) in out.iter().enumerate() {
            assert_eq!(modes.clone().count(), 1, "one mode per rank");
            assert_eq!(modes.start, r);
        }
    }
}
