//! Global Helmholtz / Poisson solver on a 2-D spectral/hp mesh.
//!
//! Weak form: find u with u = g on Γ_D such that
//! ∫ ∇u·∇v + λ∫ u v = ∫ f v for all v vanishing on Γ_D (Neumann
//! boundaries are natural). λ = 0 gives the pressure Poisson equation of
//! the splitting scheme; λ > 0 the viscous Helmholtz step.
//!
//! Everything that does not depend on λ or on the Dirichlet tags — mesh,
//! bases, dof numbering, elemental mass/stiffness matrices, the band
//! ordering and the mass factor — is one [`Discretization`], built once
//! and shared (`Arc`) by every [`HelmholtzProblem`] on it: NekTar-F's
//! per-mode problems differ only in λ = β² (+ γ₀/νΔt).
//!
//! Every solve is statically condensed — what the paper's Figure 10
//! orders "the boundary degrees of freedom … first followed by the
//! interior degrees of freedom" for. An element's interior modes couple
//! to nothing outside it, so they are eliminated element by element
//! ([`Condensed`]) and only the Schur complement on the vertex and edge
//! dofs is assembled into a band, factored and swept: interior forward
//! elimination → Dirichlet lift → boundary band solve → interior
//! back-substitution. No `ndof`-sized matrix exists.
//!
//! [`Discretization`] also carries the *plane kernels* both 2-D solvers
//! step through (modal → quadrature values and gradients, weak divergence
//! and mass forms back), sum-factorised: every contraction is one
//! [`nkt_blas::transform`] pass with a reference-element table
//! ([`RefTables`]), four (element, plane) units a lane block.

use crate::assembly::Assembly;
use crate::basis1d::sweep_matrices;
use crate::element::{elem_geometry, ElemOps, ElementMatrices, Expansion};
use crate::quadbasis::QuadBasis;
use crate::rcm::{boundary_band_order, BandOrder};
use crate::tribasis::TriBasis;
use nkt_blas::isa::{Isa, Kernel};
use nkt_blas::transform::{scratch_len, transform, Pass, Run, Steps, LANES};
use nkt_blas::{ddot, dpbtrf, dpbtrs_multi, dpotrf, dpotrs, BandedSym};
use nkt_mesh::{BoundaryTag, ElemKind, Mesh2d};
use nkt_poly::quadrature::zwglj;
use std::borrow::Cow;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Linear solver choice: the banded direct solve of the serial and
/// Fourier codes. (NekTar-ALE's diagonally preconditioned CG runs on its
/// own matrix-free 3-D operators, `nektar::hex3d::HexHelmholtz::pcg`.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolveMethod {
    /// Banded symmetric Cholesky (`dpbtrf`/`dpbtrs`) of the boundary system.
    BandedDirect,
}

/// Statistics from a solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Free (non-Dirichlet) dofs.
    pub nfree: usize,
    /// Semi-bandwidth of the boundary system in its RCM band order.
    pub bandwidth: usize,
}

/// The λ- and tag-independent half of a Helmholtz problem: mesh, bases,
/// dof numbering, per-element geometry and mass/stiffness matrices, the
/// band ordering, and the (lazily) factored global mass matrix.
///
/// **Ordering contract.** `asm`, every right-hand side, `u_d` and every
/// returned coefficient vector are in *assembly* order (Figure 10:
/// vertices, edges, interiors), all `asm.ndof` long. Band matrices — a
/// problem's `matrix`, its factor, the mass factor — hold the boundary
/// (vertex and edge) dofs only, `asm.nboundary` rows, in *band* order:
/// the reverse-Cuthill-McKee permutation of the boundary system
/// ([`boundary_band_order`]) that makes the band narrow, row `pos[d]`
/// belonging to assembly dof `d`. The permutation is private to this
/// module; `solve_with_rhs`, `l2_project_quad` and `pin_dof` map in and
/// out.
pub struct Discretization {
    /// The mesh.
    pub mesh: Mesh2d,
    /// Polynomial order.
    pub order: usize,
    quad_basis: Option<QuadBasis>,
    tri_basis: Option<TriBasis>,
    /// The same bases as sweep matrices, by `ElemOps::basis_id`.
    tables: [Option<RefTables>; 2],
    /// Every element's index, `0..nelems`: the plane kernels' units.
    ids: Vec<usize>,
    /// Global dof map.
    pub asm: Assembly,
    /// Per-element operators.
    pub ops: Vec<ElemOps>,
    /// Start of each element's points in an element-major quadrature
    /// vector, and their total (`nelems + 1` entries).
    quad_off: Vec<usize>,
    /// Band row of each boundary-class dof (`asm.nboundary` entries).
    pos: Vec<usize>,
    /// First structural row of each band column: the envelope every
    /// Schur complement assembled at `pos` is stored and factored in (its
    /// semi-bandwidth is the largest `j − first[j]`).
    first: Vec<usize>,
    /// The condensed global mass matrix with its Schur band factored
    /// (filled by the first L2 projection).
    mass: OnceLock<(Condensed, BandedSym)>,
}

/// Which function of a mode a transform evaluates at the points, in the
/// order a triangle's three tables are stored.
#[derive(Clone, Copy, PartialEq)]
enum Part {
    Value,
    Dxi1,
    Dxi2,
}

/// One element kind's basis on the reference element as sweep matrices. A quadrilateral's φ_pq = ψ_p·ψ_q factors: a transform is two
/// sweeps of the 1-D tables `[B, D]` (values ψ and derivatives ψ′,
/// `(P+2) × (P+1)`) over the (p, q) tensor of its coefficients. A
/// triangle's collapsed-coordinate basis is kept whole: one sweep of the
/// dense `[φ, ∂ξ₁φ, ∂ξ₂φ]`. Nothing here depends on the element's
/// geometry — the kernels apply `dxi_dx` and `jw` per point — so one set
/// per kind serves every element.
struct RefTables {
    /// Sweeps per transform: 2 (quadrilateral) or 1 (triangle).
    dim: usize,
    /// Modes and points one sweep contracts: per direction, or all.
    nm: usize,
    nq: usize,
    /// Modal → quadrature, column-major `nq × nm`.
    to_quad: Vec<Vec<f64>>,
    /// Quadrature → modal: their transposes.
    to_modal: Vec<Vec<f64>>,
    /// Where each local mode sits in the tensor the sweeps run over:
    /// `p + q·nm` for φ_pq, the mode's own index in a triangle.
    slot: Vec<usize>,
}

impl RefTables {
    fn new(dim: usize, rows: &[&[Vec<f64>]], slot: Vec<usize>) -> RefTables {
        let (nm, nq) = (rows[0].len(), rows[0][0].len());
        let (to_quad, to_modal) = rows.iter().map(|t| sweep_matrices(t).into()).unzip();
        RefTables { dim, nm, nq, to_quad, to_modal, slot }
    }

    fn quad(basis: &QuadBasis) -> RefTables {
        let psi = basis.basis1d();
        let slot = basis.mode_pairs().iter().map(|&(p, q)| p + q * psi.nmodes()).collect();
        RefTables::new(2, &[&psi.val, &psi.dval], slot)
    }

    fn tri(basis: &TriBasis) -> RefTables {
        RefTables::new(1, &[&basis.val, &basis.dxi1, &basis.dxi2], (0..basis.nmodes()).collect())
    }

    /// Modes of an element, and its quadrature points.
    fn size(&self) -> (usize, usize) {
        (self.nm.pow(self.dim as u32), self.nq.pow(self.dim as u32))
    }

    /// The matrices of `part`, one per sweep, out of `to_quad` or
    /// `to_modal`: ∂ξ₁(ψ_p·ψ_q) is D along the first axis and B along the
    /// second. `dim` is the caller's (constant) copy of `self.dim`.
    #[inline(always)]
    fn factors(tables: &[Vec<f64>], dim: usize, part: Part) -> [&[f64]; 2] {
        let first = if dim == 2 { usize::from(part == Part::Dxi1) } else { part as usize };
        [&tables[first], &tables[usize::from(part == Part::Dxi2)]]
    }
}

/// Scratch of the plane kernels ([`Discretization::quad_planes_into`] and
/// the weak forms): one lane transform's tiles, sized once for the
/// largest element of a discretization.
pub struct PlaneScratch {
    tile: Vec<f64>,
    /// Modes and points of the largest element it was sized for.
    size: (usize, usize),
    /// The build the kernels run in: the host's widest.
    isa: Isa,
}

/// The plane kernels' steps from modes to points: each plane's signed
/// coefficients in at their slots, its values and the chain rule of its
/// two reference derivatives through `dxi_dx` out (output tiles in that
/// order, those asked for only). Plane `p` of an output is
/// `p·nquad_total..` of it.
struct Eval<'a, 'b> {
    disc: &'a Discretization,
    coeffs: &'a dyn Fn(usize) -> &'b [f64],
    val: Option<&'a mut [f64]>,
    grad: Option<[&'a mut [f64]; 2]>,
}

impl Steps for Eval<'_, '_> {
    const WAYS: [bool; 3] = [true, false, false];

    #[inline(always)]
    fn gather(&mut self, run: &Run, _: usize, x: &mut [f64]) {
        let (ei, n) = (run.elem, run.count);
        let mut cs: [&[f64]; LANES] = [&[]; LANES];
        run.lanes().for_each(|(p, l)| cs[l - run.lane] = (self.coeffs)(p));
        let slots = &self.disc.tables(ei).slot;
        for (&(g, sign), &slot) in self.disc.asm.elem_dofs[ei].iter().zip(slots) {
            let xs = x[slot * LANES + run.lane..][..n].iter_mut();
            xs.zip(&cs[..n]).for_each(|(x, c)| *x = sign * c[g]);
        }
    }

    #[inline(always)]
    fn scatter(&mut self, run: &Run, y: &[f64]) {
        let (r, total) = (self.disc.quad_range(run.elem), self.disc.nquad_total());
        let mut tiles = y.chunks_exact(r.len() * LANES);
        if let Some(val) = &mut self.val {
            let yv = tiles.next().expect("a value tile");
            for (p, l) in run.lanes() {
                let out = val[p * total + r.start..][..r.len()].iter_mut();
                out.enumerate().for_each(|(q, o)| *o = yv[q * LANES + l]);
            }
        }
        if let Some([gx, gy]) = &mut self.grad {
            let (y1, y2) = (tiles.next().expect("a ∂ξ₁ tile"), tiles.next().expect("a ∂ξ₂ tile"));
            let jac = &self.disc.ops[run.elem].geom.dxi_dx;
            for (p, l) in run.lanes() {
                let (gx, gy) = (&mut gx[p * total + r.start..], &mut gy[p * total + r.start..]);
                for (q, &[ja, jb, jc, jd]) in jac.iter().enumerate() {
                    let (a, b) = (y1[q * LANES + l], y2[q * LANES + l]);
                    (gx[q], gy[q]) = (a * ja + b * jc, a * jb + b * jd);
                }
            }
        }
    }
}

/// A weak form's point coefficients, plane `p` of a field at `[p]`.
enum Form<'a> {
    /// Of ∂ξ₁φ, ∂ξ₂φ and φ (output tiles summed in that order), from
    /// `jw`, `dxi_dx` and `(fx, fy, f0)`; the sums divided by `divisor`.
    Div { fx: &'a [&'a [f64]], fy: &'a [&'a [f64]], f0: &'a [&'a [f64]], divisor: f64 },
    /// Of φ, `scale·jw·f`.
    Mass { f: &'a [&'a [f64]], scale: f64 },
}

/// The plane kernels' steps from points to modes: each plane's point
/// coefficients in, its elemental sums scatter-added through the signed
/// slots into `out[p]` element by element.
struct Weak<'a, 'b> {
    disc: &'a Discretization,
    form: Form<'a>,
    out: &'a mut [&'b mut [f64]],
}

impl Steps for Weak<'_, '_> {
    const WAYS: [bool; 3] = [false, true, false];

    #[inline(always)]
    fn gather(&mut self, run: &Run, k: usize, x: &mut [f64]) {
        let (r, geom) = (self.disc.quad_range(run.elem), &self.disc.ops[run.elem].geom);
        for (p, l) in run.lanes() {
            let pts = geom.jw.iter().zip(&geom.dxi_dx).enumerate();
            let at = |q: usize| q * LANES + l;
            match self.form {
                Form::Div { fx, fy, f0, .. } => {
                    let (fx, fy, f0) = (&fx[p][r.clone()], &fy[p][r.clone()], &f0[p][r.clone()]);
                    match k {
                        0 => pts.for_each(|(q, (&w, &[ja, jb, _, _]))| {
                            x[at(q)] = w * (fx[q] * ja + fy[q] * jb)
                        }),
                        1 => pts.for_each(|(q, (&w, &[_, _, jc, jd]))| {
                            x[at(q)] = w * (fx[q] * jc + fy[q] * jd)
                        }),
                        _ => pts.for_each(|(q, (&w, _))| x[at(q)] = -(w * f0[q])),
                    }
                }
                Form::Mass { f, scale } => {
                    let f = &f[p][r.clone()];
                    pts.for_each(|(q, (&w, _))| x[at(q)] = scale * (w * f[q]));
                }
            }
        }
    }

    #[inline(always)]
    fn scatter(&mut self, run: &Run, y: &[f64]) {
        let (dofs, slots) = (&self.disc.asm.elem_dofs[run.elem], &self.disc.tables(run.elem).slot);
        let divisor = match self.form {
            Form::Div { divisor, .. } => Some(divisor),
            Form::Mass { .. } => None,
        };
        for (p, l) in run.lanes() {
            let out = &mut self.out[p];
            for (&(g, sign), &slot) in dofs.iter().zip(slots) {
                let v = y[slot * LANES + l];
                out[g] += sign * divisor.map_or(v, |d| v / d);
            }
        }
    }
}

/// The interior half of a statically condensed operator: per element,
/// what eliminates its interior modes from a right-hand side and restores
/// them from the boundary solution. The boundary half — the Schur
/// complement Σₑ (A_bb − A_bi A_ii⁻¹ A_ib), summed into a band in the
/// discretization's boundary order — is built beside it by
/// [`Discretization::condense`] and kept by the owner: a problem's
/// `matrix` and factor, or the mass factor.
struct Condensed {
    /// Per element, back to back: the `dpotrf` factor of the interior
    /// block A_ii (nᵢ × nᵢ), then the coupling block A_ii⁻¹A_ib with the
    /// edge signs folded in (nᵢ × n_b), both column-major. An element
    /// with no interior mode (an order-2 triangle) holds nothing.
    blocks: Vec<f64>,
    /// Start of each element's blocks (`nelems + 1` entries).
    off: Vec<usize>,
    /// Doubles of the interior passes' lane tile: [`LANES`] × the largest nᵢ.
    tile: usize,
}

/// One element's share of a [`Condensed`] operator.
#[derive(Clone, Default)]
struct ElemBlocks<'a> {
    /// The element's boundary dofs (the signs are already in `coupling`).
    boundary: &'a [(usize, f64)],
    /// Its interior dofs, nᵢ > 0 of them.
    interior: std::ops::Range<usize>,
    /// `dpotrf` factor of A_ii.
    factor: &'a [f64],
    /// A_ii⁻¹A_ib, one column of nᵢ per boundary dof.
    coupling: &'a [f64],
}

impl ElemBlocks<'_> {
    /// (nᵢ, n_b): the counts a lane block shares.
    fn shape(&self) -> (usize, usize) {
        (self.interior.len(), self.boundary.len())
    }
}

impl Condensed {
    /// The blocks of every element that has interior modes.
    fn elems<'a>(&'a self, asm: &'a Assembly) -> impl Iterator<Item = ElemBlocks<'a>> {
        asm.elem_dofs.iter().zip(self.off.windows(2)).filter_map(move |(dofs, w)| {
            // The blocks hold nᵢ² + nᵢ n_b = nᵢ (nᵢ + n_b) doubles.
            let ni = (w[1] - w[0]) / dofs.len();
            let (factor, coupling) = self.blocks[w[0]..w[1]].split_at(ni * ni);
            let (boundary, interior) = dofs.split_at(dofs.len() - ni);
            let start = interior.first()?.0;
            Some(ElemBlocks { boundary, interior: start..start + ni, factor, coupling })
        })
    }

    /// Interior forward elimination (`back` false), in place on every
    /// assembly-order right-hand side of `xs`: the boundary part loses
    /// A_bi A_ii⁻¹ f_i and f_i becomes A_ii⁻¹ f_i. Or the interior
    /// back-substitution (`back`): with the boundary solution in place,
    /// each element's A_ii⁻¹ f_i loses A_ii⁻¹A_ib u_b. [`LANES`] (element,
    /// right-hand side) units at a time ([`Interior`]); `tile` holds at
    /// least `self.tile` doubles.
    fn pass(&self, isa: Isa, asm: &Assembly, xs: &mut [&mut [f64]], tile: &mut [f64], back: bool) {
        let op = self;
        match isa {
            Isa::Portable => isa.run(Interior::<false> { op, asm, xs, tile, back }),
            Isa::Avx2 => isa.run(Interior::<true> { op, asm, xs, tile, back }),
        }
    }
}

/// [`Condensed::pass`] in one build, with compile-time counts (`FIXED`)
/// or without, as [`nkt_blas::transform::transform`] takes them.
struct Interior<'a, 'b, const FIXED: bool> {
    op: &'a Condensed,
    asm: &'a Assembly,
    xs: &'a mut [&'b mut [f64]],
    tile: &'a mut [f64],
    back: bool,
}

impl<const FIXED: bool> Kernel for Interior<'_, '_, FIXED> {
    type Output = ();

    /// [`LANES`] (element, right-hand side) units a lane block,
    /// element-major and right-hand-side-minor, a block ending early where
    /// the element shape (nᵢ, n_b) changes. The counts of the
    /// quadrilateral orders the solvers run (2–4) are compile-time
    /// constants of the one body [`interior_block`] if `FIXED`; any other
    /// shape takes it with its own. An order-4 block of one element
    /// (NekTar-F's six viscous right-hand sides) takes its `ONE` arm; the
    /// units are element-major, so the first and last share an element
    /// only if all do.
    #[inline(always)]
    fn run(self) {
        let Interior { op, asm, xs, tile, back } = self;
        let (nrhs, mut elems) = (xs.len(), op.elems(asm));
        let (mut next, mut r) = (elems.next().filter(|_| nrhs > 0), 0);
        let mut units: [(ElemBlocks, usize); LANES] = Default::default();
        while let Some(shape) = next.as_ref().map(ElemBlocks::shape) {
            let mut n = 0;
            while let Some(e) = next.as_ref().filter(|e| n < LANES && e.shape() == shape) {
                units[n] = (e.clone(), r);
                (n, r) = (n + 1, r + 1);
                if r == nrhs {
                    (next, r) = (elems.next(), 0);
                }
            }
            let u = &units[..n];
            match (FIXED, shape) {
                (true, (1, 8)) => interior_block::<1, 8, false>(back, u, xs, tile),
                (true, (4, 12)) => interior_block::<4, 12, false>(back, u, xs, tile),
                (true, (9, 16)) if nrhs >= LANES && u[0].0.interior == u[n - 1].0.interior => {
                    interior_block::<9, 16, true>(back, u, xs, tile)
                }
                (true, (9, 16)) => interior_block::<9, 16, false>(back, u, xs, tile),
                _ => interior_block::<0, 0, false>(back, u, xs, tile),
            }
        }
    }
}

/// The interior pass of one lane block: up to [`LANES`] (element,
/// right-hand side) units of one shape, each lane reading its own
/// element's factor and coupling where they are stored. Each unit runs
/// what it ran alone: forward, `ddot`'s four partial sums and its tail
/// for each boundary dof, subtracted unit by unit (so a boundary dof two
/// elements of the block share takes their terms in element order), then
/// `dpotrs`'s two `dtrsv` sweeps, a latency-bound chain run across the
/// lanes on the tile `f` (entry-major); back, `daxpy` for each boundary
/// dof, each lane on its own interior (lane-major). A block of `ONE`
/// element broadcasts its factor to the `dpotrs` lanes and runs its
/// `daxpy`s across the lanes of the tile, each coupling entry broadcast.
/// The unused lanes of a short block repeat its first unit: computed,
/// never stored.
#[inline(always)]
fn interior_block<const NI: usize, const NB: usize, const ONE: bool>(
    back: bool,
    units: &[(ElemBlocks, usize)],
    xs: &mut [&mut [f64]],
    f: &mut [f64],
) {
    const L: usize = LANES;
    let (ni, nb) = if NI == 0 { units[0].0.shape() } else { (NI, NB) };
    let (unit, f) = (|l: usize| units.get(l).unwrap_or(&units[0]), &mut f[..ni * L]);
    if back && !ONE {
        let c: [&[f64]; L] = std::array::from_fn(|l| &unit(l).0.coupling[..ni * nb]);
        let g: [&[(usize, f64)]; L] = std::array::from_fn(|l| &unit(l).0.boundary[..nb]);
        let x: [&[f64]; L] = std::array::from_fn(|l| &*xs[unit(l).1]);
        for (l, fl) in f.chunks_exact_mut(ni).enumerate() {
            fl.copy_from_slice(&x[l][unit(l).0.interior.start..][..ni]);
        }
        for b in 0..nb {
            for (l, fl) in f.chunks_exact_mut(ni).enumerate() {
                let alpha = -x[l][g[l][b].0];
                fl.iter_mut().zip(&c[l][b * ni..][..ni]).for_each(|(v, &ck)| *v += alpha * ck);
            }
        }
        for ((e, r), fl) in units.iter().zip(f.chunks_exact(ni)) {
            xs[*r][e.interior.start..][..ni].copy_from_slice(fl);
        }
        return;
    }
    if !ONE || !back {
        for (e, r) in units {
            let (xb, xi) = xs[*r].split_at_mut(e.interior.start);
            let xi = &xi[..ni];
            for (&(g, _), c) in e.boundary[..nb].iter().zip(e.coupling[..ni * nb].chunks_exact(ni))
            {
                let (body, tail) = c.split_at(ni / 4 * 4);
                let mut s = [0.0; 4];
                for (c4, x4) in body.chunks_exact(4).zip(xi.chunks_exact(4)) {
                    (0..4).for_each(|p| s[p] += c4[p] * x4[p]);
                }
                let t = tail.iter().zip(&xi[body.len()..]).fold(0.0, |t, (&ck, &v)| t + ck * v);
                xb[g] -= (s[0] + s[1]) + (s[2] + s[3]) + t;
            }
        }
    }
    for l in 0..L {
        let (e, r) = unit(l);
        xs[*r][e.interior.start..][..ni].iter().enumerate().for_each(|(k, &v)| f[k * L + l] = v);
    }
    if ONE && back {
        let e = &units[0].0;
        for (&(g, _), c) in e.boundary[..nb].iter().zip(e.coupling[..ni * nb].chunks_exact(ni)) {
            let alpha: [f64; L] = std::array::from_fn(|l| -xs[unit(l).1][g]);
            for (fk, &ck) in f.chunks_exact_mut(L).zip(c) {
                (0..L).for_each(|l| fk[l] += alpha[l] * ck);
            }
        }
    } else {
        // `dpotrs`: Uᵀ y = f_i forward, then U x = y backward, U the upper
        // `dpotrf` factor of A_ii.
        let u: [&[f64]; L] =
            std::array::from_fn(|l| &unit(if ONE { 0 } else { l }).0.factor[..ni * ni]);
        let diag = |i: usize| -> [f64; L] { std::array::from_fn(|l| u[l][i + i * ni]) };
        for i in 0..ni {
            let (mut s, d): ([f64; L], _) = (std::array::from_fn(|l| f[i * L + l]), diag(i));
            for j in 0..i {
                (0..L).for_each(|l| s[l] -= u[l][j + i * ni] * f[j * L + l]);
            }
            (0..L).for_each(|l| f[i * L + l] = s[l] / d[l]);
        }
        for i in (0..ni).rev() {
            let (mut s, d): ([f64; L], _) = (std::array::from_fn(|l| f[i * L + l]), diag(i));
            for j in i + 1..ni {
                (0..L).for_each(|l| s[l] -= u[l][i + j * ni] * f[j * L + l]);
            }
            (0..L).for_each(|l| f[i * L + l] = s[l] / d[l]);
        }
    }
    for (l, (e, r)) in units.iter().enumerate() {
        xs[*r][e.interior.start..][..ni]
            .iter_mut()
            .enumerate()
            .for_each(|(k, v)| *v = f[k * L + l]);
    }
}

/// The boundary system one direct solve of a [`HelmholtzProblem`] sweeps.
/// With [`Assembly::interior`] per element it is everything the solve
/// executes: what an op-stream recorder charges and a replay model is
/// held to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveShape {
    /// Order of the factored boundary (Schur-complement) band.
    pub nboundary: usize,
    /// Its semi-bandwidth.
    pub kd: usize,
}

/// One Helmholtz problem on a [`Discretization`]: λ, its own Dirichlet
/// mask, the condensed operator and the factor of its boundary band. Many
/// right-hand sides can be solved against one factorization, and any
/// number of problems can share one discretization
/// ([`HelmholtzProblem::member`]).
///
/// Dereferences to the discretization, so `prob.mesh`, `prob.order`,
/// `prob.asm`, `prob.ops`, `prob.basis(ei)` and the projection / error
/// routines read the shared half.
pub struct HelmholtzProblem {
    disc: Arc<Discretization>,
    /// Helmholtz constant λ (0 = Poisson).
    pub lambda: f64,
    /// The boundary Schur complement of −∇² + λ in band order, Dirichlet
    /// and pinned rows (always vertex or edge dofs) replaced by identity;
    /// `matrix.n() == asm.nboundary`.
    pub matrix: BandedSym,
    /// The interior blocks of the same operator.
    interior: Condensed,
    /// Per dof: constrained by a Dirichlet tag or [`Self::pin_dof`].
    dirichlet: Vec<bool>,
    /// How many dofs `dirichlet` constrains.
    ndirichlet: usize,
    /// Cholesky factor of `matrix` (filled by [`Self::factorize`]).
    factor: Option<BandedSym>,
    /// Coupling of free to Dirichlet dofs that the identity rows removed
    /// from `matrix`: `(band row of the free dof, Dirichlet dof, Schur
    /// entry)`.
    lift: Vec<(usize, usize, f64)>,
    dirichlet_tags: Vec<BoundaryTag>,
}

impl Discretization {
    /// Builds bases, dof map, elemental operators and the band ordering
    /// for `mesh` at polynomial order `order`.
    pub fn new(mesh: Mesh2d, order: usize) -> Arc<Discretization> {
        let has_quad = mesh.elems.iter().any(|e| e.kind == ElemKind::Quad);
        let has_tri = mesh.elems.iter().any(|e| e.kind == ElemKind::Tri);
        let quad_basis = has_quad.then(|| QuadBasis::new(order));
        let tri_basis = has_tri.then(|| TriBasis::new(order));
        let basis_of = |kind: ElemKind| -> &dyn Expansion {
            match kind {
                ElemKind::Quad => quad_basis.as_ref().expect("quad basis built"),
                ElemKind::Tri => tri_basis.as_ref().expect("tri basis built"),
                ElemKind::Hex => panic!("2-D solver on hex mesh"),
            }
        };
        let asm = Assembly::build(&mesh, |ei| basis_of(mesh.elems[ei].kind));
        let mut ops = Vec::with_capacity(mesh.nelems());
        for ei in 0..mesh.nelems() {
            let basis = basis_of(mesh.elems[ei].kind);
            let geom = elem_geometry(basis, &mesh, ei);
            let mats = ElementMatrices::build(basis, &geom);
            let basis_id = match mesh.elems[ei].kind {
                ElemKind::Quad => 0,
                ElemKind::Tri => 1,
                ElemKind::Hex => unreachable!(),
            };
            ops.push(ElemOps { basis_id, geom, mats });
        }
        let BandOrder { pos, first, .. } = boundary_band_order(&asm);
        let mut quad_off = vec![0usize; ops.len() + 1];
        for (ei, op) in ops.iter().enumerate() {
            quad_off[ei + 1] = quad_off[ei] + op.geom.jw.len();
        }
        let tables =
            [quad_basis.as_ref().map(RefTables::quad), tri_basis.as_ref().map(RefTables::tri)];
        Arc::new(Discretization {
            mesh,
            order,
            quad_basis,
            tri_basis,
            tables,
            ids: (0..ops.len()).collect(),
            asm,
            ops,
            quad_off,
            pos,
            first,
            mass: OnceLock::new(),
        })
    }

    /// The expansion basis for element `ei`.
    pub fn basis(&self, ei: usize) -> &dyn Expansion {
        match self.mesh.elems[ei].kind {
            ElemKind::Quad => self.quad_basis.as_ref().expect("quad basis"),
            ElemKind::Tri => self.tri_basis.as_ref().expect("tri basis"),
            ElemKind::Hex => unreachable!(),
        }
    }

    /// Quadrature points of all elements together: the length of an
    /// element-major quadrature-value vector.
    pub fn nquad_total(&self) -> usize {
        self.quad_off[self.ops.len()]
    }

    /// Element `ei`'s points in an element-major quadrature vector.
    pub fn quad_range(&self, ei: usize) -> std::ops::Range<usize> {
        self.quad_off[ei]..self.quad_off[ei + 1]
    }

    /// Statically condenses the operator whose elemental matrices are
    /// `elem(ei)` (nm × nm, column-major, SPD on the interior modes): the
    /// per-element interior blocks, and the Schur complement summed into
    /// a band at the rows `pos` gives each boundary dof, stored over its
    /// envelope `first`.
    fn condense<'a>(&'a self, elem: impl Fn(usize) -> Cow<'a, [f64]>) -> (Condensed, BandedSym) {
        let (asm, pos) = (&self.asm, &self.pos);
        let mut band = BandedSym::envelope(&self.first);
        let mut blocks = Vec::new();
        let mut off = Vec::with_capacity(asm.elem_dofs.len() + 1);
        for (ei, dofs) in asm.elem_dofs.iter().enumerate() {
            off.push(blocks.len());
            let h = elem(ei);
            let nm = dofs.len();
            let ni = asm.interior(ei).len();
            let nb = nm - ni;
            // Rows nb.. of column c of `h`: A_ii's column, or A_ib's.
            let interior_rows = |c: usize| &h[nb + c * nm..(c + 1) * nm];
            for c in nb..nm {
                blocks.extend_from_slice(interior_rows(c));
            }
            for (a, &(_, sa)) in dofs[..nb].iter().enumerate() {
                blocks.extend(interior_rows(a).iter().map(|v| sa * v));
            }
            let (factor, coupling) = blocks[off[ei]..].split_at_mut(ni * ni);
            if ni > 0 {
                dpotrf(ni, factor, ni).expect("interior block of an SPD operator must be SPD");
                for column in coupling.chunks_exact_mut(ni) {
                    dpotrs(ni, factor, ni, column).expect("interior solve");
                }
            }
            for b in 0..nb {
                let (gb, sb) = dofs[b];
                let cb = &coupling[b * ni..(b + 1) * ni];
                for a in 0..=b {
                    let (ga, sa) = dofs[a];
                    // Off-diagonal elemental pairs contribute to both (a,b)
                    // and (b,a); symmetric storage holds one copy, and `add`
                    // takes either triangle.
                    let schur = sa * sb * h[a + b * nm] - sa * ddot(interior_rows(a), cb);
                    band.add(pos[ga], pos[gb], schur);
                }
            }
        }
        off.push(blocks.len());
        let tile =
            LANES * (0..asm.elem_dofs.len()).map(|ei| asm.interior(ei).len()).max().unwrap_or(0);
        (Condensed { blocks, off, tile }, band)
    }

    /// Solves a condensed system in place for every assembly-order
    /// right-hand side in `xs`: interior forward elimination, then
    /// `constrain(i, b)` on the band-order boundary part `b` of `xs[i]`,
    /// `boundary` on all of those back to back in `band` (the band-order
    /// scratch, grown on first use, with the interior passes' lane tile
    /// after them), interior back-substitution.
    fn solve_condensed(
        &self,
        op: &Condensed,
        xs: &mut [&mut [f64]],
        band: &mut Vec<f64>,
        mut constrain: impl FnMut(usize, &mut [f64]),
        boundary: impl FnOnce(&mut [f64]),
    ) {
        let (nb, isa) = (self.asm.nboundary, Isa::host());
        band.resize(xs.len() * nb + op.tile, 0.0);
        let (band, tile) = band.split_at_mut(xs.len() * nb);
        op.pass(isa, &self.asm, xs, tile, false);
        for (i, (x, b)) in xs.iter().zip(band.chunks_exact_mut(nb)).enumerate() {
            for (&r, &v) in self.pos.iter().zip(x.iter()) {
                b[r] = v;
            }
            constrain(i, b);
        }
        boundary(band);
        for (x, b) in xs.iter_mut().zip(band.chunks_exact(nb)) {
            for (&r, v) in self.pos.iter().zip(x.iter_mut()) {
                *v = b[r];
            }
        }
        op.pass(isa, &self.asm, xs, tile, true);
    }

    /// Physical coordinates of every quadrature point, element-major —
    /// the order of a quadrature-value vector.
    pub fn quad_points(&self) -> impl Iterator<Item = [f64; 2]> + '_ {
        self.ops.iter().flat_map(|op| op.geom.x.iter().copied())
    }

    /// Quadrature weight × Jacobian of every quadrature point, in the
    /// same order.
    pub fn quad_weights(&self) -> impl Iterator<Item = f64> + '_ {
        self.ops.iter().flat_map(|op| op.geom.jw.iter().copied())
    }

    /// `f` at every quadrature point, element-major.
    fn sample(&self, f: impl Fn([f64; 2]) -> f64) -> Vec<f64> {
        self.quad_points().map(f).collect()
    }

    /// The global load vector ∫ f φ from the element-major quadrature
    /// values `fq` of f.
    fn load_vector(&self, fq: &[f64]) -> Vec<f64> {
        assert_eq!(fq.len(), self.nquad_total(), "one value per quadrature point");
        let mut rhs = vec![0.0; self.asm.ndof];
        self.weak_mass_add([fq], 1.0, [&mut rhs], &mut self.plane_scratch());
        rhs
    }

    /// Global L2 projection onto the expansion of the function whose
    /// element-major quadrature values are `fq` ([`Self::nquad_total`] of
    /// them): solves M c = ∫ f φ with the (unconstrained) mass matrix,
    /// condensed and factored on first use.
    pub fn l2_project_quad(&self, fq: &[f64]) -> Vec<f64> {
        let (mass, factor) = self.mass.get_or_init(|| {
            let (mass, mut schur) = self.condense(|ei| self.ops[ei].mats.mass.as_slice().into());
            dpbtrf(&mut schur).expect("global mass matrix must be SPD");
            (mass, schur)
        });
        let mut c = self.load_vector(fq);
        let solve = |b: &mut [f64]| dpbtrs_multi(factor, b, 1).expect("mass solve");
        self.solve_condensed(mass, &mut [&mut c[..]], &mut Vec::new(), |_, _| {}, solve);
        c
    }

    /// Global L2 projection of `f` onto the expansion.
    pub fn l2_project(&self, f: impl Fn([f64; 2]) -> f64) -> Vec<f64> {
        self.l2_project_quad(&self.sample(f))
    }

    /// L2 error of a coefficient vector against an exact solution.
    pub fn l2_error(&self, coeffs: &[f64], exact: impl Fn([f64; 2]) -> f64) -> f64 {
        let uq = self.to_quad(coeffs);
        let mut err2 = 0.0;
        for ((u, x), w) in uq.iter().zip(self.quad_points()).zip(self.quad_weights()) {
            let d = u - exact(x);
            err2 += w * d * d;
        }
        err2.sqrt()
    }

    /// The sweep tables of element `ei`'s kind.
    fn tables(&self, ei: usize) -> &RefTables {
        self.tables[self.ops[ei].basis_id].as_ref().expect("tables of every kind in the mesh")
    }

    /// Modes and quadrature points of the largest element.
    fn max_size(&self) -> (usize, usize) {
        let sizes = || self.tables.iter().flatten().map(RefTables::size);
        (sizes().map(|s| s.0).max().unwrap_or(0), sizes().map(|s| s.1).max().unwrap_or(0))
    }

    /// Scratch for the plane kernels: the tiles of the largest lane
    /// transform an element of this discretization runs.
    pub fn plane_scratch(&self) -> PlaneScratch {
        let len = |t: &RefTables| match t.dim {
            2 => scratch_len::<2>(t.nm, t.nq, 3).max(scratch_len::<2>(t.nq, t.nm, 3)),
            _ => scratch_len::<1>(t.nm, t.nq, 3).max(scratch_len::<1>(t.nq, t.nm, 3)),
        };
        let tile = vec![0.0; self.tables.iter().flatten().map(len).max().unwrap_or(0)];
        PlaneScratch { tile, size: self.max_size(), isa: Isa::host() }
    }

    /// Runs the plane kernel `steps` over `planes` planes of every element,
    /// element-major: one lane transform a maximal run of elements of one
    /// kind (in element order, so that every sum keeps it), of the tables
    /// `parts` to the points (`to_quad`) or back.
    ///
    /// # Panics
    /// If `ws` is not a [`Self::plane_scratch`] of this discretization.
    fn planes_pass(
        &self,
        to_quad: bool,
        parts: &[Part],
        (shared, sum): (bool, bool),
        planes: usize,
        steps: &mut impl Steps,
        ws: &mut PlaneScratch,
    ) {
        assert!(
            ws.size == self.max_size(),
            "scratch built for {:?} (modes, points) an element: this order-{} discretization has {:?}",
            ws.size,
            self.order,
            self.max_size()
        );
        let mut start = 0;
        while start < self.ops.len() {
            let kind = self.ops[start].basis_id;
            let end = (start..self.ops.len())
                .find(|&ei| self.ops[ei].basis_id != kind)
                .unwrap_or(self.ops.len());
            let (t, elems, isa, scratch) =
                (self.tables(start), &self.ids[start..end], ws.isa, &mut ws.tile[..]);
            let (tables, n) =
                if to_quad { (&t.to_quad, [t.nm, t.nq]) } else { (&t.to_modal, [t.nq, t.nm]) };
            let tabs = |k: usize| RefTables::factors(tables, t.dim, parts[k]);
            if t.dim == 2 {
                let tabs: [_; 3] = std::array::from_fn(|k| tabs(k.min(parts.len() - 1)));
                let tabs = &tabs[..parts.len()];
                transform(isa, Pass { n, tabs, shared, sum, elems, planes, steps, scratch });
            } else {
                let tabs: [_; 3] = std::array::from_fn(|k| [tabs(k.min(parts.len() - 1))[0]]);
                let tabs = &tabs[..parts.len()];
                transform(isa, Pass { n, tabs, shared, sum, elems, planes, steps, scratch });
            }
            start = end;
        }
    }

    /// Quadrature values (into `val`) and physical gradients (into `grad`,
    /// the two reference derivatives then the chain rule through the
    /// element's `dxi_dx` point by point) of the `planes` modal fields
    /// `coeffs(p)`, one gather of each element's planes serving both.
    /// Plane `p` of an output is its `p`-th [`Self::nquad_total`] values,
    /// overwritten.
    ///
    /// # Panics
    /// If neither output is asked for, an output is not `planes` planes
    /// long, or `ws` is not a [`Self::plane_scratch`] of this
    /// discretization.
    pub fn quad_planes_into<'b>(
        &self,
        planes: usize,
        coeffs: impl Fn(usize) -> &'b [f64],
        val: Option<&mut [f64]>,
        grad: Option<[&mut [f64]; 2]>,
        ws: &mut PlaneScratch,
    ) {
        assert!(val.is_some() || grad.is_some(), "values, gradients or both");
        let len = planes * self.nquad_total();
        let outs = val.iter().map(|v| v.len()).chain(grad.iter().flatten().map(|g| g.len()));
        assert!(
            outs.into_iter().all(|n| n == len),
            "{planes} planes of one value per quadrature point"
        );
        let parts = [Part::Value, Part::Dxi1, Part::Dxi2];
        let parts = &parts[usize::from(val.is_none())..if grad.is_some() { 3 } else { 1 }];
        let steps = &mut Eval { disc: self, coeffs: &coeffs, val, grad };
        self.planes_pass(true, parts, (true, false), planes, steps, ws);
    }

    /// Quadrature values of the modal field `coeffs`, element-major, into
    /// a fresh vector (diagnostics; a step brings its own buffers).
    pub fn to_quad(&self, coeffs: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.nquad_total()];
        self.quad_planes_into(1, |_| coeffs, Some(&mut out), None, &mut self.plane_scratch());
        out
    }

    /// Quadrature values of (∂x, ∂y) of the modal field `coeffs`, like
    /// [`Self::to_quad`].
    pub fn grad_quad(&self, coeffs: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let (mut gx, mut gy) = (vec![0.0; self.nquad_total()], vec![0.0; self.nquad_total()]);
        self.quad_planes_into(
            1,
            |_| coeffs,
            None,
            Some([&mut gx, &mut gy]),
            &mut self.plane_scratch(),
        );
        (gx, gy)
    }

    /// Weak divergence of `N` plane triples at once: adds to `out[s]`, for
    /// every global mode φ, `(∫ fx[s]·∂xφ + fy[s]·∂yφ − f0[s]·φ) / divisor`.
    /// `jw` and `dxi_dx` are folded into per-point coefficients of ∂ξ₁φ,
    /// ∂ξ₂φ and φ, whose three transposed transforms sum in one tile.
    pub fn weak_div_add<const N: usize>(
        &self,
        fx: [&[f64]; N],
        fy: [&[f64]; N],
        f0: [&[f64]; N],
        divisor: f64,
        mut out: [&mut [f64]; N],
        ws: &mut PlaneScratch,
    ) {
        let form = Form::Div { fx: &fx, fy: &fy, f0: &f0, divisor };
        let steps = &mut Weak { disc: self, form, out: &mut out };
        self.planes_pass(
            false,
            &[Part::Dxi1, Part::Dxi2, Part::Value],
            (false, true),
            N,
            steps,
            ws,
        );
    }

    /// Weak mass form of `N` planes at once: adds `scale · ∫ f[s]·φ` to
    /// `out[s]` for every global mode φ.
    pub fn weak_mass_add<const N: usize>(
        &self,
        f: [&[f64]; N],
        scale: f64,
        mut out: [&mut [f64]; N],
        ws: &mut PlaneScratch,
    ) {
        let steps = &mut Weak { disc: self, form: Form::Mass { f: &f, scale }, out: &mut out };
        self.planes_pass(false, &[Part::Value], (true, false), N, steps, ws);
    }
}

impl Deref for HelmholtzProblem {
    type Target = Discretization;

    fn deref(&self) -> &Discretization {
        &self.disc
    }
}

impl HelmholtzProblem {
    /// Builds a discretization for this one problem and assembles it.
    /// `dirichlet_tags` lists the essential boundary tags; all other
    /// boundaries are natural (zero-flux Neumann — the paper's
    /// outflow/sides).
    pub fn new(mesh: Mesh2d, order: usize, lambda: f64, dirichlet_tags: &[BoundaryTag]) -> Self {
        HelmholtzProblem::member(&Discretization::new(mesh, order), lambda, dirichlet_tags)
    }

    /// Condenses the problem (−∇² + λ) with essential boundaries
    /// `dirichlet_tags` on the shared discretization `disc`.
    ///
    /// Each element is condensed from its own `Lₑ + λMₑ`, not from a
    /// shared condensed `K` and `M`: the Schur complement is not linear
    /// in λ, and a member must equal the problem built alone.
    pub fn member(disc: &Arc<Discretization>, lambda: f64, dirichlet_tags: &[BoundaryTag]) -> Self {
        let (interior, matrix) = disc.condense(|ei| disc.ops[ei].mats.helmholtz(lambda).into());
        let mut prob = HelmholtzProblem {
            disc: Arc::clone(disc),
            lambda,
            matrix,
            interior,
            dirichlet: vec![false; disc.asm.ndof],
            ndirichlet: 0,
            factor: None,
            lift: Vec::new(),
            dirichlet_tags: dirichlet_tags.to_vec(),
        };
        let mask = disc.asm.dirichlet_mask(&disc.mesh, |tag| dirichlet_tags.contains(&tag));
        prob.constrain((0..disc.asm.nboundary).filter(|&d| mask[d]));
        prob
    }

    /// Constrains every dof of `dofs` (boundary-class, not yet
    /// constrained): its row and column of `matrix` become the identity,
    /// and the coupling to free dofs removed there moves to `lift`, to
    /// come back per solve on the right-hand side.
    fn constrain(&mut self, dofs: impl Iterator<Item = usize>) {
        let pos = &self.disc.pos;
        for d in dofs {
            self.dirichlet[d] = true;
            self.ndirichlet += 1;
            let r = pos[d];
            let kd = self.matrix.kd();
            for i in r.saturating_sub(kd)..=(r + kd).min(self.matrix.n() - 1) {
                if !self.matrix.stores(i, r) {
                    continue;
                }
                let k = self.matrix.get(i, r);
                if i != r && k != 0.0 {
                    self.lift.push((i, d, k));
                }
                self.matrix.set(i, r, 0.0);
            }
            self.matrix.set(r, r, 1.0);
        }
        // A row constrained here, or earlier, is not a free dof's.
        let mut fixed = vec![false; pos.len()];
        for (d, &r) in pos.iter().enumerate() {
            fixed[r] = self.dirichlet[d];
        }
        self.lift.retain(|&(row, _, _)| !fixed[row]);
        self.factor = None;
    }

    /// The boundary system a direct solve of this problem sweeps.
    pub fn solve_shape(&self) -> SolveShape {
        SolveShape { nboundary: self.matrix.n(), kd: self.matrix.kd() }
    }

    /// The discretization this problem shares with its siblings.
    pub fn discretization(&self) -> &Arc<Discretization> {
        &self.disc
    }

    /// Per dof: constrained by a Dirichlet tag or [`Self::pin_dof`].
    pub fn dirichlet(&self) -> &[bool] {
        &self.dirichlet
    }

    /// Number of Dirichlet-constrained dofs.
    pub fn ndirichlet(&self) -> usize {
        self.ndirichlet
    }

    /// Builds the global load vector ∫ f φ + Dirichlet lift for boundary
    /// data `g`, then solves. Returns (global coefficients, stats).
    pub fn solve(
        &mut self,
        f: impl Fn([f64; 2]) -> f64,
        g: impl Fn([f64; 2]) -> f64,
        method: SolveMethod,
    ) -> (Vec<f64>, SolveStats) {
        let rhs = self.load_vector(&self.sample(f));
        let u_d = self.dirichlet_values(&g);
        self.solve_with_rhs(rhs, &u_d, method)
    }

    /// Computes the Dirichlet dof values: vertex dofs take g directly;
    /// edge-mode dofs take the 1-D L2 projection of the residual along
    /// each essential edge.
    pub fn dirichlet_values(&self, g: &impl Fn([f64; 2]) -> f64) -> Vec<f64> {
        let modes_per_edge = self.order.saturating_sub(1);
        let edge_base = self.mesh.nverts();
        let mut u_d = vec![0.0; self.asm.ndof];
        let rule = zwglj(self.order + 3, 0.0, 0.0);
        for (edge_id, edge) in self.mesh.edges.iter().enumerate() {
            let Some(tag) = edge.tag else { continue };
            if !self.dirichlet_tags.contains(&tag) {
                continue;
            }
            let a = self.mesh.verts[edge.v[0]];
            let b = self.mesh.verts[edge.v[1]];
            let ga = g(a);
            let gb = g(b);
            u_d[edge.v[0]] = ga;
            u_d[edge.v[1]] = gb;
            if modes_per_edge == 0 {
                continue;
            }
            // Project the non-linear residual onto the bubble modes.
            let nb = modes_per_edge;
            let mut mass = vec![0.0; nb * nb];
            let mut load = vec![0.0; nb];
            for (q, &t) in rule.z.iter().enumerate() {
                let x = [
                    0.5 * (1.0 - t) * a[0] + 0.5 * (1.0 + t) * b[0],
                    0.5 * (1.0 - t) * a[1] + 0.5 * (1.0 + t) * b[1],
                ];
                let lin = 0.5 * (1.0 - t) * ga + 0.5 * (1.0 + t) * gb;
                let resid = g(x) - lin;
                let w = rule.w[q];
                let vals: Vec<f64> =
                    (1..=nb).map(|k| crate::basis1d::eval_mode(self.order, k, t)).collect();
                for i in 0..nb {
                    load[i] += w * vals[i] * resid;
                    for j in 0..nb {
                        mass[i + j * nb] += w * vals[i] * vals[j];
                    }
                }
            }
            nkt_blas::dpotrf(nb, &mut mass, nb).expect("edge mass SPD");
            nkt_blas::dpotrs(nb, &mass, nb, &mut load).expect("edge projection");
            for (k, &c) in load.iter().enumerate() {
                u_d[edge_base + edge_id * modes_per_edge + k] = c;
            }
        }
        u_d
    }

    /// Does the work a first direct solve would otherwise do lazily:
    /// factors `matrix`. A solver that wants that cost outside its timed
    /// steps calls this once after its last [`Self::pin_dof`].
    pub fn factorize(&mut self) {
        if self.factor.is_none() {
            let mut f = self.matrix.clone();
            dpbtrf(&mut f).expect("boundary Schur complement must be SPD");
            self.factor = Some(f);
        }
    }

    /// On the band-order boundary right-hand side `b`: moves known
    /// boundary data across, b_f −= S_fd u_d, then makes the identity rows
    /// return u_d. `None` is homogeneous data: `x − k·0.0` is `x`, so the
    /// lift is skipped outright.
    fn impose_dirichlet(&self, b: &mut [f64], u_d: Option<&[f64]>) {
        if let Some(u_d) = u_d {
            for &(row, d, k) in &self.lift {
                b[row] -= k * u_d[d];
            }
        }
        for (d, &r) in self.disc.pos.iter().enumerate() {
            if self.dirichlet[d] {
                b[r] = u_d.map_or(0.0, |u_d| u_d[d]);
            }
        }
    }

    /// The one solve pipeline: every right-hand side of `xs` through the
    /// condensed operator, the boundary system by one sweep of its factor.
    fn solve_in_place(
        &mut self,
        xs: &mut [&mut [f64]],
        u_d: Option<&[&[f64]]>,
        band: &mut Vec<f64>,
    ) {
        let ndof = self.asm.ndof;
        for x in xs.iter() {
            assert_eq!(x.len(), ndof, "rhs: one value per dof, in assembly order");
        }
        if let Some(u_d) = u_d {
            assert_eq!(u_d.len(), xs.len(), "u_d: boundary data per right-hand side");
            for d in u_d {
                assert_eq!(d.len(), ndof, "u_d: one value per dof, in assembly order");
            }
        }
        self.factorize();
        let (this, nrhs) = (&*self, xs.len());
        let constrain = |i: usize, b: &mut [f64]| this.impose_dirichlet(b, u_d.map(|u_d| u_d[i]));
        let boundary = |band: &mut [f64]| {
            dpbtrs_multi(this.factor.as_ref().expect("factored above"), band, nrhs)
                .expect("banded solve");
        };
        this.disc.solve_condensed(&this.interior, xs, band, constrain, boundary);
    }

    /// Direct solves of K u = rhs for every right-hand side in `xs` at
    /// once, each overwritten by its solution, with Dirichlet values
    /// `u_d[i]` imposed on `xs[i]` (`None`: homogeneous on all of them).
    /// One sweep of the boundary factor serves all of `xs`
    /// ([`dpbtrs_multi`]); `band` is the band-order scratch, grown on
    /// first use and reusable across problems. Each solution equals
    /// [`Self::solve_with_rhs`]'s to the bit.
    ///
    /// # Panics
    /// If a right-hand side or a `u_d[i]` is not `asm.ndof` long.
    pub fn solve_banded_in_place(
        &mut self,
        xs: &mut [&mut [f64]],
        u_d: Option<&[&[f64]]>,
        band: &mut Vec<f64>,
    ) {
        self.solve_in_place(xs, u_d, band);
    }

    /// Solves K u = rhs with Dirichlet values `u_d` imposed.
    ///
    /// # Panics
    /// If `rhs` or `u_d` is not `asm.ndof` long.
    pub fn solve_with_rhs(
        &mut self,
        mut rhs: Vec<f64>,
        u_d: &[f64],
        method: SolveMethod,
    ) -> (Vec<f64>, SolveStats) {
        let SolveMethod::BandedDirect = method;
        self.solve_in_place(&mut [&mut rhs[..]], Some(&[u_d]), &mut Vec::new());
        let nfree = self.asm.ndof - self.ndirichlet();
        (rhs, SolveStats { nfree, bandwidth: self.matrix.kd() })
    }

    /// Pins dof `d` to a Dirichlet value (used to remove the null space of
    /// the pure-Neumann pressure Poisson problem). Discards the factor:
    /// call before [`Self::factorize`] or the first solve.
    ///
    /// # Panics
    /// If `d` is not a vertex or edge dof: an interior dof has no row in
    /// the condensed system (and never carries a null space).
    pub fn pin_dof(&mut self, d: usize) {
        assert!(
            d < self.asm.nboundary,
            "pin_dof({d}): only a vertex or edge dof can be pinned, not {}",
            self.asm.kinds.get(d).map_or("one past the last dof".into(), |k| format!("{k:?}"))
        );
        if !self.dirichlet[d] {
            self.constrain(std::iter::once(d));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nkt_mesh::{rect_quads, rect_tris};

    const ALL_DIRICHLET: &[BoundaryTag] =
        &[BoundaryTag::Wall, BoundaryTag::Inflow, BoundaryTag::Outflow, BoundaryTag::Side];

    #[test]
    fn poisson_quads_manufactured_solution() {
        // -∇²u = f with u = sin(pi x) sin(pi y) on [0,1]²; f = 2pi²u.
        let exact =
            |x: [f64; 2]| (std::f64::consts::PI * x[0]).sin() * (std::f64::consts::PI * x[1]).sin();
        let f = move |x: [f64; 2]| 2.0 * std::f64::consts::PI.powi(2) * exact(x);
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 3, 3);
        let mut prob = HelmholtzProblem::new(mesh, 6, 0.0, ALL_DIRICHLET);
        let (u, stats) = prob.solve(f, |_| 0.0, SolveMethod::BandedDirect);
        let err = prob.l2_error(&u, exact);
        assert!(err < 1e-5, "L2 error {err}");
        assert!(stats.nfree > 0);
    }

    #[test]
    fn poisson_spectral_convergence_in_p() {
        let exact =
            |x: [f64; 2]| (std::f64::consts::PI * x[0]).sin() * (std::f64::consts::PI * x[1]).sin();
        let f = move |x: [f64; 2]| 2.0 * std::f64::consts::PI.powi(2) * exact(x);
        let mut last = f64::MAX;
        for p in [2usize, 4, 6, 8] {
            let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
            let mut prob = HelmholtzProblem::new(mesh, p, 0.0, ALL_DIRICHLET);
            let (u, _) = prob.solve(f, |_| 0.0, SolveMethod::BandedDirect);
            let err = prob.l2_error(&u, exact);
            assert!(err < last, "p={p}: {err} !< {last}");
            last = err;
        }
        assert!(last < 1e-7, "final error {last}");
    }

    #[test]
    fn poisson_triangles() {
        let exact =
            |x: [f64; 2]| (std::f64::consts::PI * x[0]).sin() * (std::f64::consts::PI * x[1]).sin();
        let f = move |x: [f64; 2]| 2.0 * std::f64::consts::PI.powi(2) * exact(x);
        let mesh = rect_tris(0.0, 1.0, 0.0, 1.0, 3, 3);
        let mut prob = HelmholtzProblem::new(mesh, 5, 0.0, ALL_DIRICHLET);
        let (u, _) = prob.solve(f, |_| 0.0, SolveMethod::BandedDirect);
        let err = prob.l2_error(&u, exact);
        assert!(err < 1e-4, "L2 error {err}");
    }

    #[test]
    fn helmholtz_with_lambda() {
        // (-∇² + λ)u = f, u = cos(pi x)cos(pi y) (pure Neumann via exact
        // normal derivative zero on [0,1]² boundary!), λ = 5.
        let lam = 5.0;
        let pi = std::f64::consts::PI;
        let exact = move |x: [f64; 2]| (pi * x[0]).cos() * (pi * x[1]).cos();
        let f = move |x: [f64; 2]| (2.0 * pi * pi + lam) * exact(x);
        // Neumann everywhere: no Dirichlet tags -> lambda>0 keeps it SPD.
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 3, 3);
        let mut prob = HelmholtzProblem::new(mesh, 6, lam, &[]);
        let (u, _) = prob.solve(f, |_| 0.0, SolveMethod::BandedDirect);
        let err = prob.l2_error(&u, exact);
        assert!(err < 1e-5, "L2 error {err}");
    }

    #[test]
    fn nonzero_dirichlet_data() {
        // u = 1 + x + y is in the basis for p >= 1: Laplace equation
        // reproduces it exactly from its boundary trace.
        let exact = |x: [f64; 2]| 1.0 + x[0] + 2.0 * x[1];
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
        let mut prob = HelmholtzProblem::new(mesh, 3, 0.0, ALL_DIRICHLET);
        let (u, _) = prob.solve(|_| 0.0, exact, SolveMethod::BandedDirect);
        let err = prob.l2_error(&u, exact);
        assert!(err < 1e-10, "L2 error {err}");
    }

    #[test]
    fn curved_dirichlet_data_projected() {
        // Boundary data quadratic along edges exercises the edge
        // projection: u = x² - y² is harmonic.
        let exact = |x: [f64; 2]| x[0] * x[0] - x[1] * x[1];
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
        let mut prob = HelmholtzProblem::new(mesh, 4, 0.0, ALL_DIRICHLET);
        let (u, _) = prob.solve(|_| 0.0, exact, SolveMethod::BandedDirect);
        let err = prob.l2_error(&u, exact);
        assert!(err < 1e-9, "L2 error {err}");
    }

    #[test]
    fn load_vector_samples_f_once_per_quadrature_point() {
        let mesh = rect_tris(0.0, 1.0, 0.0, 1.0, 2, 3);
        let mut prob = HelmholtzProblem::new(mesh, 4, 1.0, &[]);
        let nq = prob.nquad_total();
        assert_eq!(nq, (0..prob.mesh.nelems()).map(|ei| prob.basis(ei).nquad()).sum());
        let calls = std::cell::Cell::new(0usize);
        let f = |x: [f64; 2]| {
            calls.set(calls.get() + 1);
            x[0] - x[1]
        };
        prob.l2_project(f);
        assert_eq!(calls.get(), nq);
        prob.solve(f, |_| 0.0, SolveMethod::BandedDirect);
        assert_eq!(calls.get(), 2 * nq);
    }

    #[test]
    fn members_share_one_mass_factor() {
        let f = |x: [f64; 2]| (3.0 * x[0]).sin() + x[1] * x[1];
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
        let alone = HelmholtzProblem::new(mesh.clone(), 4, 7.0, ALL_DIRICHLET).l2_project(f);
        let disc = Discretization::new(mesh, 4);
        let a = HelmholtzProblem::member(&disc, 7.0, ALL_DIRICHLET);
        let b = HelmholtzProblem::member(&disc, 0.5, &[]);
        assert!(disc.mass.get().is_none(), "factored before any projection");
        assert_eq!(a.l2_project(f), alone);
        let first = disc.mass.get().expect("factored by the projection").1.ab().as_ptr();
        assert_eq!(b.l2_project(f), alone);
        assert_eq!(disc.l2_project_quad(&disc.sample(f)), alone);
        assert_eq!(disc.mass.get().unwrap().1.ab().as_ptr(), first);
        assert!(Arc::ptr_eq(a.discretization(), b.discretization()));
    }

    /// A skewed (non-affine) quadrilateral sharing an edge with a
    /// triangle: both bases, and a Jacobian that varies point to point.
    fn skewed_mesh() -> Mesh2d {
        use nkt_mesh::Elem2d;
        let verts = vec![[0.0, 0.0], [1.0, 0.0], [1.2, 1.1], [-0.1, 0.9], [2.0, 0.2]];
        let elems = vec![
            Elem2d { kind: ElemKind::Quad, verts: vec![0, 1, 2, 3] },
            Elem2d { kind: ElemKind::Tri, verts: vec![1, 4, 2] },
        ];
        let mesh = Mesh2d::new(verts, elems, |mid| {
            if mid[0] < 0.0 {
                BoundaryTag::Inflow
            } else {
                BoundaryTag::Wall
            }
        });
        mesh.validate().unwrap();
        mesh
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Plane `i` of a deterministic family of quadrature-value vectors.
    fn plane(disc: &Discretization, i: usize) -> Vec<f64> {
        (0..disc.nquad_total()).map(|q| ((q * (i + 3)) as f64 * 0.37 + i as f64).sin()).collect()
    }

    /// The loops `NektarF` ran before the plane kernels existed, over the
    /// dense per-mode tables of the bases: the reference the sum-factorised
    /// kernels are held to, by tolerance.
    mod naive {
        use super::*;

        pub fn to_quad(disc: &Discretization, coeffs: &[f64]) -> Vec<f64> {
            let mut out = vec![0.0; disc.nquad_total()];
            for ei in 0..disc.mesh.nelems() {
                let basis = disc.basis(ei);
                let off = disc.quad_range(ei).start;
                let mut local = vec![0.0; basis.nmodes()];
                disc.asm.gather(ei, coeffs, &mut local);
                for (m, &c) in local.iter().enumerate() {
                    if c != 0.0 {
                        let vm = &basis.val()[m];
                        for q in 0..basis.nquad() {
                            out[off + q] += c * vm[q];
                        }
                    }
                }
            }
            out
        }

        pub fn grad_quad(disc: &Discretization, coeffs: &[f64]) -> (Vec<f64>, Vec<f64>) {
            let mut gx = vec![0.0; disc.nquad_total()];
            let mut gy = vec![0.0; disc.nquad_total()];
            for ei in 0..disc.mesh.nelems() {
                let basis = disc.basis(ei);
                let geom = &disc.ops[ei].geom;
                let off = disc.quad_range(ei).start;
                let mut local = vec![0.0; basis.nmodes()];
                disc.asm.gather(ei, coeffs, &mut local);
                for (m, &c) in local.iter().enumerate() {
                    if c != 0.0 {
                        let d1 = &basis.dxi1()[m];
                        let d2 = &basis.dxi2()[m];
                        for q in 0..basis.nquad() {
                            let [ja, jb, jc, jd] = geom.dxi_dx[q];
                            gx[off + q] += c * (d1[q] * ja + d2[q] * jc);
                            gy[off + q] += c * (d1[q] * jb + d2[q] * jd);
                        }
                    }
                }
            }
            (gx, gy)
        }

        /// Stage 4's pressure right-hand side for one plane.
        pub fn weak_div(
            disc: &Discretization,
            (fx, fy, f0): (&[f64], &[f64], &[f64]),
            dt: f64,
        ) -> Vec<f64> {
            let mut rhs = vec![0.0; disc.asm.ndof];
            for ei in 0..disc.mesh.nelems() {
                let basis = disc.basis(ei);
                let geom = &disc.ops[ei].geom;
                let off = disc.quad_range(ei).start;
                let mut la = vec![0.0; basis.nmodes()];
                for m in 0..basis.nmodes() {
                    let d1 = &basis.dxi1()[m];
                    let d2 = &basis.dxi2()[m];
                    let vm = &basis.val()[m];
                    let mut sa = 0.0;
                    for q in 0..basis.nquad() {
                        let [ja, jb, jc, jd] = geom.dxi_dx[q];
                        let gpx = d1[q] * ja + d2[q] * jc;
                        let gpy = d1[q] * jb + d2[q] * jd;
                        sa += geom.jw[q]
                            * (fx[off + q] * gpx + fy[off + q] * gpy - f0[off + q] * vm[q]);
                    }
                    la[m] = sa / dt;
                }
                disc.asm.scatter_add(ei, &la, &mut rhs);
            }
            rhs
        }

        /// Stage 6's viscous right-hand side for one plane.
        pub fn weak_mass(disc: &Discretization, f: &[f64], scale: f64) -> Vec<f64> {
            let mut rhs = vec![0.0; disc.asm.ndof];
            for ei in 0..disc.mesh.nelems() {
                let basis = disc.basis(ei);
                let geom = &disc.ops[ei].geom;
                let off = disc.quad_range(ei).start;
                let mut local = vec![0.0; basis.nmodes()];
                for m in 0..basis.nmodes() {
                    let vm = &basis.val()[m];
                    let mut acc = 0.0;
                    for q in 0..basis.nquad() {
                        let w = geom.jw[q];
                        acc += w * f[off + q] * vm[q];
                    }
                    local[m] = scale * acc;
                }
                disc.asm.scatter_add(ei, &local, &mut rhs);
            }
            rhs
        }
    }

    /// Coefficients with exact zeros and a negative zero among them.
    fn coeffs_with_zeros(disc: &Discretization) -> Vec<f64> {
        (0..disc.asm.ndof)
            .map(|d| match d % 7 {
                2 => 0.0,
                5 => -0.0,
                _ => (d as f64 * 0.61).cos(),
            })
            .collect()
    }

    /// `got` equals `want` to `tol` relative to the largest `|want|`.
    fn assert_close(got: &[f64], want: &[f64], tol: f64, what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        let scale = want.iter().fold(0.0f64, |m, w| m.max(w.abs()));
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!((g - w).abs() <= tol * scale, "{what}, entry {i}: {g} vs {w} (scale {scale})");
        }
    }

    /// Gate (i): the four kernels against the dense loops, by tolerance.
    /// Orders 2–8 reach the paper's order 8 and orders no kernel is
    /// specialised for.
    #[test]
    fn plane_kernels_equal_the_naive_loops_within_tolerance() {
        for order in 2..=8 {
            let disc = Discretization::new(skewed_mesh(), order);
            let mut ws = disc.plane_scratch();
            let coeffs = coeffs_with_zeros(&disc);
            // Stale values in the outputs must not survive.
            let mut q = vec![f64::NAN; disc.nquad_total()];
            disc.quad_planes_into(1, |_| &coeffs, Some(&mut q), None, &mut ws);
            assert_close(
                &q,
                &naive::to_quad(&disc, &coeffs),
                1e-13,
                &format!("to_quad, order {order}"),
            );
            let (mut gx, mut gy) = (vec![f64::NAN; q.len()], vec![f64::NAN; q.len()]);
            disc.quad_planes_into(1, |_| &coeffs, None, Some([&mut gx, &mut gy]), &mut ws);
            let (wx, wy) = naive::grad_quad(&disc, &coeffs);
            assert_close(&gx, &wx, 1e-13, &format!("grad_quad x, order {order}"));
            assert_close(&gy, &wy, 1e-13, &format!("grad_quad y, order {order}"));

            let f: Vec<Vec<f64>> = (0..6).map(|i| plane(&disc, i)).collect();
            let mut out = vec![vec![0.0; disc.asm.ndof]; 2];
            let [o0, o1] = &mut out[..] else { unreachable!() };
            disc.weak_div_add(
                [&f[0], &f[1]],
                [&f[2], &f[3]],
                [&f[4], &f[5]],
                1e-3,
                [&mut o0[..], &mut o1[..]],
                &mut ws,
            );
            for s in 0..2 {
                let want = naive::weak_div(&disc, (&f[s], &f[2 + s], &f[4 + s]), 1e-3);
                assert_close(&out[s], &want, 1e-13, &format!("weak_div plane {s}, order {order}"));
            }
            let mut out = vec![vec![0.0; disc.asm.ndof]; 6];
            let [o0, o1, o2, o3, o4, o5] = &mut out[..] else { unreachable!() };
            disc.weak_mass_add(
                std::array::from_fn(|s| &f[s][..]),
                1.0 / (0.02 * 1e-3),
                [&mut o0[..], &mut o1[..], &mut o2[..], &mut o3[..], &mut o4[..], &mut o5[..]],
                &mut ws,
            );
            for s in 0..6 {
                let want = naive::weak_mass(&disc, &f[s], 1.0 / (0.02 * 1e-3));
                assert_close(&out[s], &want, 1e-13, &format!("weak_mass plane {s}, order {order}"));
            }
        }
    }

    /// Gate (ii): the weak forms are the adjoints of the transforms under
    /// the quadrature inner product — a statement about the kernels alone,
    /// with no table of the reference loops in it.
    #[test]
    fn weak_forms_are_the_adjoints_of_the_transforms() {
        let mut rng = nkt_testkit::Rng::new(0x5eed_ad01);
        for order in 2..=8 {
            let disc = Discretization::new(skewed_mesh(), order);
            let mut ws = disc.plane_scratch();
            let mut random =
                |n: usize| -> Vec<f64> { (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect() };
            let c = random(disc.asm.ndof);
            let [fx, fy, f0] = [(); 3].map(|_| random(disc.nquad_total()));
            let cq = disc.to_quad(&c);
            let (cx, cy) = disc.grad_quad(&c);
            let jw: Vec<f64> = disc.quad_weights().collect();
            // ⟨a, b⟩ beside Σ|aᵢbᵢ|, the scale a relative tolerance refers to.
            let dot = |a: &[f64], b: &[f64]| {
                a.iter().zip(b).fold((0.0, 0.0), |(s, m), (x, y)| (s + x * y, m + (x * y).abs()))
            };

            let mut m = vec![0.0; disc.asm.ndof];
            disc.weak_mass_add([&f0], 1.0, [&mut m[..]], &mut ws);
            let (lhs, scale) = dot(&m, &c);
            let rhs: f64 = (0..jw.len()).map(|q| jw[q] * f0[q] * cq[q]).sum();
            assert!((lhs - rhs).abs() <= 1e-12 * scale, "mass, order {order}: {lhs} vs {rhs}");

            let divisor = 2e-3;
            let mut d = vec![0.0; disc.asm.ndof];
            disc.weak_div_add([&fx], [&fy], [&f0], divisor, [&mut d[..]], &mut ws);
            let (lhs, scale) = dot(&d, &c);
            let rhs: f64 = (0..jw.len())
                .map(|q| jw[q] * (fx[q] * cx[q] + fy[q] * cy[q] - f0[q] * cq[q]))
                .sum();
            assert!(
                (divisor * lhs - rhs).abs() <= 1e-12 * divisor * scale,
                "divergence, order {order}: {} vs {rhs}",
                divisor * lhs
            );
        }
    }

    /// Gate (iii): every monomial xᵃyᵇ, a + b ≤ p, lies in the expansion
    /// of the skewed (bilinearly mapped) quadrilateral and of the triangle,
    /// so its projection reproduces it and its analytic gradient at every
    /// quadrature point.
    #[test]
    fn monomials_up_to_the_order_are_reproduced_with_their_gradients() {
        for order in 2..=8 {
            let disc = Discretization::new(skewed_mesh(), order);
            let pts: Vec<[f64; 2]> = disc.quad_points().collect();
            // The projection's mass solve sets the floor: 1.3e-11 at order
            // 7 and 1.2e-10 at order 8 on the dense-table kernels.
            let tol = if order < 8 { 1e-10 } else { 3e-10 };
            for a in 0..=order as i32 {
                for b in 0..=order as i32 - a {
                    let f = |[x, y]: [f64; 2]| x.powi(a) * y.powi(b);
                    let dx = |[x, y]: [f64; 2]| {
                        if a == 0 {
                            0.0
                        } else {
                            a as f64 * x.powi(a - 1) * y.powi(b)
                        }
                    };
                    let dy = |[x, y]: [f64; 2]| {
                        if b == 0 {
                            0.0
                        } else {
                            b as f64 * x.powi(a) * y.powi(b - 1)
                        }
                    };
                    let c = disc.l2_project(f);
                    let (gx, gy) = disc.grad_quad(&c);
                    // Value and both derivatives against one scale: the
                    // gradient of a constant is zero to round-off of 1.
                    let got = [disc.to_quad(&c), gx, gy].concat();
                    let want: Vec<f64> = [&f as &dyn Fn([f64; 2]) -> f64, &dx, &dy]
                        .iter()
                        .flat_map(|g| pts.iter().map(move |&x| g(x)))
                        .collect();
                    assert_close(&got, &want, tol, &format!("x^{a} y^{b}, order {order}"));
                }
            }
        }
    }

    /// No table is per element: a kind's sweep matrices serve every
    /// element of the mesh, and a kind the mesh lacks has none.
    #[test]
    fn basis_tables_are_per_kind_not_per_element() {
        let doubles = |d: &Discretization| -> Vec<usize> {
            let len = |t: &RefTables| t.to_quad.iter().chain(&t.to_modal).map(Vec::len).sum();
            d.tables.iter().map(|t| t.as_ref().map_or(0, len)).collect()
        };
        // [B, D] and transposes at 6 × 5; no triangle tables.
        assert_eq!(
            doubles(&Discretization::new(rect_quads(0.0, 1.0, 0.0, 1.0, 1, 1), 4)),
            [120, 0]
        );
        assert_eq!(
            doubles(&Discretization::new(rect_quads(0.0, 1.0, 0.0, 1.0, 3, 3), 4)),
            [120, 0]
        );
        // [φ, ∂ξ₁φ, ∂ξ₂φ] and transposes, 15 modes at 36 points, once.
        assert_eq!(
            doubles(&Discretization::new(rect_tris(0.0, 1.0, 0.0, 1.0, 2, 2), 4)),
            [0, 3240]
        );
        assert_eq!(doubles(&Discretization::new(skewed_mesh(), 4)), [120, 3240]);
    }

    #[test]
    #[should_panic(expected = "scratch built for (9, 16) (modes, points)")]
    fn a_scratch_of_another_discretization_is_refused_at_entry() {
        let small = Discretization::new(skewed_mesh(), 2);
        let disc = Discretization::new(skewed_mesh(), 3);
        let mut q = vec![0.0; disc.nquad_total()];
        let coeffs = vec![1.0; disc.asm.ndof];
        disc.quad_planes_into(1, |_| &coeffs, Some(&mut q), None, &mut small.plane_scratch());
    }

    #[test]
    fn in_place_multi_solve_equals_solve_with_rhs_bit_for_bit() {
        let disc = Discretization::new(skewed_mesh(), 4);
        let ndof = disc.asm.ndof;
        let rhs = |i: usize| -> Vec<f64> {
            (0..ndof).map(|d| ((d * (i + 2)) as f64 * 0.13).sin()).collect()
        };
        // Boundary data of right-hand side `i`: different for each.
        let data = |i: usize| -> Vec<f64> {
            (0..ndof).map(|d| 1.0 + (d as f64 * 0.4 + i as f64).cos()).collect()
        };
        let tagged =
            || HelmholtzProblem::member(&disc, 3.0, &[BoundaryTag::Inflow, BoundaryTag::Wall]);
        let pinned = || {
            let mut p = HelmholtzProblem::member(&disc, 0.0, &[]);
            p.pin_dof(0);
            p
        };
        let zeros = vec![0.0; ndof];
        let check = |what: &str, build: &dyn Fn() -> HelmholtzProblem, with_data: bool| {
            // One scratch across shapes, as a solver reuses it.
            let mut band = Vec::new();
            for nrhs in [6usize, 2, 1] {
                let mut xs: Vec<Vec<f64>> = (0..nrhs).map(rhs).collect();
                let mut views: Vec<&mut [f64]> = xs.iter_mut().map(|x| &mut x[..]).collect();
                let u_d: Vec<Vec<f64>> = (0..nrhs).map(data).collect();
                let u_d: Vec<&[f64]> = u_d.iter().map(|d| &d[..]).collect();
                build().solve_banded_in_place(&mut views, with_data.then_some(&u_d[..]), &mut band);
                let mut single = build();
                for (i, got) in xs.iter().enumerate() {
                    let (want, _) = single.solve_with_rhs(
                        rhs(i),
                        if with_data { u_d[i] } else { &zeros },
                        SolveMethod::BandedDirect,
                    );
                    assert_eq!(bits(got), bits(&want), "{what}: rhs {i} of {nrhs}");
                }
            }
        };
        check("zero data", &tagged, false);
        check("data per right-hand side", &tagged, true);
        check("pinned dof", &pinned, false);
    }

    #[test]
    fn every_member_and_the_mass_factor_hold_the_boundary_band_only() {
        // Order-2 triangles have no interior mode: nothing to eliminate.
        for (mesh, order) in [(skewed_mesh(), 4), (rect_tris(0.0, 1.0, 0.0, 1.0, 2, 2), 2)] {
            let disc = Discretization::new(mesh, order);
            let (nb, kd) = (disc.asm.nboundary, boundary_band_order(&disc.asm).kd);
            let mut pinned = HelmholtzProblem::member(&disc, 0.0, &[]);
            pinned.pin_dof(0);
            for prob in [&pinned, &HelmholtzProblem::member(&disc, 40.0, &[BoundaryTag::Wall])] {
                assert_eq!((prob.matrix.n(), prob.matrix.kd()), (nb, kd));
                assert_eq!(prob.solve_shape(), SolveShape { nboundary: nb, kd });
            }
            disc.l2_project(|x| x[0]);
            assert_eq!(disc.mass.get().expect("factored by the projection").1.n(), nb);
            assert_eq!(disc.pos.len(), nb);
        }
    }

    #[test]
    #[should_panic(expected = "only a vertex or edge dof can be pinned, not Interior(0)")]
    fn pinning_an_interior_dof_is_refused_by_kind() {
        let mut prob = HelmholtzProblem::new(skewed_mesh(), 4, 0.0, &[]);
        prob.pin_dof(prob.asm.nboundary);
    }

    #[test]
    #[should_panic(expected = "u_d: one value per dof")]
    fn boundary_data_of_the_wrong_length_is_refused_at_entry() {
        let mut prob = HelmholtzProblem::new(skewed_mesh(), 4, 1.0, &[BoundaryTag::Wall]);
        let ndof = prob.asm.ndof;
        prob.solve_with_rhs(vec![0.0; ndof], &vec![0.0; ndof - 1], SolveMethod::BandedDirect);
    }

    /// Quads on the left half, triangles on the right.
    fn mixed_mesh() -> Mesh2d {
        use nkt_mesh::{Elem2d, Mesh2d};
        let q = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
        let mut verts = q.verts.clone();
        let mut elems = q.elems.clone();
        // Append a triangulated strip x in [1, 1.5].
        let v_base = verts.len();
        verts.push([1.5, 0.0]);
        verts.push([1.5, 0.5]);
        verts.push([1.5, 1.0]);
        // Right-edge vertices of the quad mesh at x=1: find them.
        let right: Vec<usize> =
            (0..v_base).filter(|&i| (q.verts[i][0] - 1.0).abs() < 1e-12).collect();
        assert_eq!(right.len(), 3);
        let mut r = right.clone();
        r.sort_by(|&a, &b| q.verts[a][1].partial_cmp(&q.verts[b][1]).unwrap());
        for s in 0..2 {
            let (a, b) = (r[s], r[s + 1]);
            let (c, d) = (v_base + s, v_base + s + 1);
            elems.push(Elem2d { kind: ElemKind::Tri, verts: vec![a, c, d] });
            elems.push(Elem2d { kind: ElemKind::Tri, verts: vec![a, d, b] });
        }
        let mesh = Mesh2d::new(verts, elems, |_| BoundaryTag::Wall);
        mesh.validate().unwrap();
        mesh
    }

    /// Every member's band and the mass band, stored over the envelope,
    /// factor and solve to the bits of a full-band copy of the same Schur
    /// complement: a condensed band stores no −0.0, and these right-hand
    /// sides hold +0.0 but no −0.0. On the wake mesh the envelope is at
    /// most 40 % of the band.
    #[test]
    fn envelope_factor_and_solve_equal_a_full_band_rebuild_bit_for_bit() {
        let wake = [BoundaryTag::Inflow, BoundaryTag::Wall, BoundaryTag::Side];
        let wall = [BoundaryTag::Wall];
        for (mesh, tags) in [
            (skewed_mesh(), &wall[..]),
            (mixed_mesh(), &wall[..]),
            (nkt_mesh::bluff_body_mesh(1), &wake[..]),
        ] {
            let is_wake = tags.len() == 3;
            let disc = Discretization::new(mesh, 4);
            let mut pressure = HelmholtzProblem::member(&disc, 0.0, &[]);
            pressure.pin_dof(0);
            let viscous = HelmholtzProblem::member(&disc, 40.0, tags);
            let (_, mass) = disc.condense(|ei| disc.ops[ei].mats.mass.as_slice().into());
            for (what, a) in
                [("pressure", &pressure.matrix), ("viscous", &viscous.matrix), ("mass", &mass)]
            {
                let (n, kd) = (a.n(), a.kd());
                assert_eq!(kd, boundary_band_order(&disc.asm).kd);
                let mut full = BandedSym::zeros(n, kd);
                for j in 0..n {
                    for i in a.top(j)..=j {
                        full.set(i, j, a.get(i, j));
                    }
                }
                let mut envelope = a.clone();
                dpbtrf(&mut envelope).expect("SPD");
                dpbtrf(&mut full).expect("SPD");
                for j in 0..n {
                    for i in j.saturating_sub(kd)..=j {
                        let (e, f) = (envelope.get(i, j), full.get(i, j));
                        assert_eq!(e.to_bits(), f.to_bits(), "{what}: U({i},{j})");
                    }
                }
                let nrhs = 2;
                let rhs: Vec<f64> = (0..n * nrhs)
                    .map(|i| if i % 7 == 0 { 0.0 } else { (i as f64 * 0.37).sin() })
                    .collect();
                let (mut x, mut x_full) = (rhs.clone(), rhs);
                dpbtrs_multi(&envelope, &mut x, nrhs).expect("solve");
                dpbtrs_multi(&full, &mut x_full, nrhs).expect("solve");
                assert_eq!(bits(&x), bits(&x_full), "{what}");
                let share = a.ab().len() as f64 / ((kd + 1) * n) as f64;
                assert!(
                    !is_wake || share <= 0.40,
                    "{what}: the envelope is {share:.3} of the band"
                );
            }
        }
    }

    /// The per-element loops the lane kernels replaced, kept as the
    /// reference they must equal bit for bit: one element and its planes
    /// back to back at a time through one-lane sweeps, and the interior
    /// passes one right-hand side at a time through `ddot`, `dpotrs` and
    /// `daxpy`.
    mod per_element {
        use super::*;
        use nkt_blas::{daxpy, sweep, Axis};

        /// `out (+)= M x` for `planes` coefficient tensors back to back,
        /// where M is `m[0]` (`dim` 1) or `m[1] ⊗ m[0]` (`dim` 2).
        fn transform<const ADD: bool>(
            m: [&[f64]; 2],
            dim: usize,
            (n_in, n_out): (usize, usize),
            planes: usize,
            x: &[f64],
            out: &mut [f64],
        ) {
            if dim == 1 {
                sweep::<ADD, 1>(m[0], 1, Axis { pre: 1, n_in, n_out, post: planes }, x, out);
            } else {
                let [first, second] = Axis::tensor::<2>(n_in, n_out);
                let mut mid = vec![0.0; planes * n_out * n_in];
                sweep::<false, 1>(
                    m[0],
                    1,
                    Axis { post: first.post * planes, ..first },
                    x,
                    &mut mid,
                );
                sweep::<ADD, 1>(m[1], 1, Axis { post: planes, ..second }, &mid, out);
            }
        }

        fn gather(disc: &Discretization, ei: usize, coeffs: &[f64]) -> Vec<f64> {
            let mut x = vec![0.0; disc.tables(ei).size().0];
            for (&(g, sign), &slot) in disc.asm.elem_dofs[ei].iter().zip(&disc.tables(ei).slot) {
                x[slot] = sign * coeffs[g];
            }
            x
        }

        fn scatter_add(disc: &Discretization, ei: usize, x: &[f64], out: &mut [f64]) {
            for (&(g, sign), &slot) in disc.asm.elem_dofs[ei].iter().zip(&disc.tables(ei).slot) {
                out[g] += sign * x[slot];
            }
        }

        pub fn to_quad(disc: &Discretization, coeffs: &[f64]) -> Vec<f64> {
            let mut out = vec![0.0; disc.nquad_total()];
            for ei in 0..disc.mesh.nelems() {
                let t = disc.tables(ei);
                let m = RefTables::factors(&t.to_quad, t.dim, Part::Value);
                let x = gather(disc, ei, coeffs);
                transform::<false>(m, t.dim, (t.nm, t.nq), 1, &x, &mut out[disc.quad_range(ei)]);
            }
            out
        }

        pub fn grad_quad(disc: &Discretization, coeffs: &[f64]) -> (Vec<f64>, Vec<f64>) {
            let (mut gx, mut gy) = (vec![0.0; disc.nquad_total()], vec![0.0; disc.nquad_total()]);
            for (ei, op) in disc.ops.iter().enumerate() {
                let t = disc.tables(ei);
                let x = gather(disc, ei, coeffs);
                let r = disc.quad_range(ei);
                let (gx, gy) = (&mut gx[r.clone()], &mut gy[r]);
                for (part, d) in [(Part::Dxi1, &mut *gx), (Part::Dxi2, &mut *gy)] {
                    let m = RefTables::factors(&t.to_quad, t.dim, part);
                    transform::<false>(m, t.dim, (t.nm, t.nq), 1, &x, d);
                }
                for ((x, y), &[ja, jb, jc, jd]) in gx.iter_mut().zip(gy).zip(&op.geom.dxi_dx) {
                    (*x, *y) = (*x * ja + *y * jc, *x * jb + *y * jd);
                }
            }
            (gx, gy)
        }

        pub fn weak_div(
            disc: &Discretization,
            f: [&[&[f64]]; 3],
            divisor: f64,
            out: &mut [Vec<f64>],
        ) {
            let [fx, fy, f0] = f;
            let n = fx.len();
            for (ei, op) in disc.ops.iter().enumerate() {
                let t = disc.tables(ei);
                let r = disc.quad_range(ei);
                let (nme, nqe) = t.size();
                let (mut c1, mut c2, mut c0) =
                    (vec![0.0; n * nqe], vec![0.0; n * nqe], vec![0.0; n * nqe]);
                for s in 0..n {
                    let (fx, fy, f0) = (&fx[s][r.clone()], &fy[s][r.clone()], &f0[s][r.clone()]);
                    for (q, (&w, &[ja, jb, jc, jd])) in
                        op.geom.jw.iter().zip(&op.geom.dxi_dx).enumerate()
                    {
                        c1[s * nqe + q] = w * (fx[q] * ja + fy[q] * jb);
                        c2[s * nqe + q] = w * (fx[q] * jc + fy[q] * jd);
                        c0[s * nqe + q] = -(w * f0[q]);
                    }
                }
                let mut x = vec![0.0; n * nme];
                let m = |part| RefTables::factors(&t.to_modal, t.dim, part);
                transform::<false>(m(Part::Dxi1), t.dim, (t.nq, t.nm), n, &c1, &mut x);
                transform::<true>(m(Part::Dxi2), t.dim, (t.nq, t.nm), n, &c2, &mut x);
                transform::<true>(m(Part::Value), t.dim, (t.nq, t.nm), n, &c0, &mut x);
                x.iter_mut().for_each(|v| *v /= divisor);
                for (x, out) in x.chunks_exact(nme).zip(out.iter_mut()) {
                    scatter_add(disc, ei, x, out);
                }
            }
        }

        pub fn weak_mass(disc: &Discretization, f: &[&[f64]], scale: f64, out: &mut [Vec<f64>]) {
            let n = f.len();
            for (ei, op) in disc.ops.iter().enumerate() {
                let t = disc.tables(ei);
                let r = disc.quad_range(ei);
                let (nme, nqe) = t.size();
                let mut wf = vec![0.0; n * nqe];
                for (wf, f) in wf.chunks_exact_mut(nqe).zip(f) {
                    for ((t, &w), &v) in wf.iter_mut().zip(&op.geom.jw).zip(&f[r.clone()]) {
                        *t = scale * (w * v);
                    }
                }
                let mut x = vec![0.0; n * nme];
                let m = RefTables::factors(&t.to_modal, t.dim, Part::Value);
                transform::<false>(m, t.dim, (t.nq, t.nm), n, &wf, &mut x);
                for (x, out) in x.chunks_exact(nme).zip(out.iter_mut()) {
                    scatter_add(disc, ei, x, out);
                }
            }
        }

        pub fn eliminate(op: &Condensed, asm: &Assembly, xs: &mut [Vec<f64>]) {
            for e in op.elems(asm) {
                let ni = e.interior.len();
                for x in xs.iter_mut() {
                    let (xb, xi) = x.split_at_mut(e.interior.start);
                    let fi = &mut xi[..ni];
                    for (&(g, _), c) in e.boundary.iter().zip(e.coupling.chunks_exact(ni)) {
                        xb[g] -= ddot(c, fi);
                    }
                    dpotrs(ni, e.factor, ni, fi).expect("interior block factored at assembly");
                }
            }
        }

        pub fn back_substitute(op: &Condensed, asm: &Assembly, xs: &mut [Vec<f64>]) {
            for e in op.elems(asm) {
                let ni = e.interior.len();
                for x in xs.iter_mut() {
                    let (xb, xi) = x.split_at_mut(e.interior.start);
                    for (&(g, _), c) in e.boundary.iter().zip(e.coupling.chunks_exact(ni)) {
                        daxpy(-xb[g], c, &mut xi[..ni]);
                    }
                }
            }
        }
    }

    /// Planes of random values with exact zeros and a negative zero.
    fn random_planes(rng: &mut nkt_testkit::Rng, n: usize, len: usize) -> Vec<Vec<f64>> {
        let value = |rng: &mut nkt_testkit::Rng, i: usize| match i % 11 {
            3 => 0.0,
            7 => -0.0,
            _ => rng.range_f64(-1.0, 1.0),
        };
        (0..n).map(|_| (0..len).map(|i| value(rng, i)).collect()).collect()
    }

    /// Order-2 triangles (no interior mode), the skewed quadrilateral
    /// beside a triangle, quadrilaterals then triangles, and nine
    /// quadrilaterals (the compile-time counts at orders 2–4).
    fn lane_meshes(order: usize) -> Vec<Mesh2d> {
        let mut meshes = vec![skewed_mesh(), mixed_mesh(), rect_quads(0.0, 1.0, 0.0, 1.0, 3, 3)];
        if order == 2 {
            meshes.push(rect_tris(0.0, 1.0, 0.0, 1.0, 2, 2));
        }
        meshes
    }

    /// The weak forms of `N` planes in the build `isa` against the
    /// per-element loops, onto nonzero outputs.
    fn check_weak_forms<const N: usize>(
        disc: &Discretization,
        isa: Isa,
        rng: &mut nkt_testkit::Rng,
        what: &str,
    ) {
        let nq = disc.nquad_total();
        let (f, y0) = (random_planes(rng, 3 * N, nq), random_planes(rng, N, disc.asm.ndof));
        let plane = |i: usize| -> [&[f64]; N] { std::array::from_fn(|s| &f[i * N + s][..]) };
        let mut ws = disc.plane_scratch();
        ws.isa = isa;
        let (mut got, mut want) = (y0.clone(), y0.clone());
        let mut outs = got.iter_mut().map(|o| &mut o[..]);
        disc.weak_div_add(
            plane(0),
            plane(1),
            plane(2),
            3e-3,
            std::array::from_fn(|_| outs.next().unwrap()),
            &mut ws,
        );
        per_element::weak_div(disc, [&plane(0), &plane(1), &plane(2)], 3e-3, &mut want);
        for s in 0..N {
            assert_eq!(bits(&got[s]), bits(&want[s]), "weak_div, {what}, {N} planes, plane {s}");
        }
        let (mut got, mut want) = (y0.clone(), y0);
        let mut outs = got.iter_mut().map(|o| &mut o[..]);
        disc.weak_mass_add(
            plane(1),
            1.0 / 3e-5,
            std::array::from_fn(|_| outs.next().unwrap()),
            &mut ws,
        );
        per_element::weak_mass(disc, &plane(1), 1.0 / 3e-5, &mut want);
        for s in 0..N {
            assert_eq!(bits(&got[s]), bits(&want[s]), "weak_mass, {what}, {N} planes, plane {s}");
        }
    }

    /// The lane plane kernels against the per-element loops they
    /// replaced, bit for bit, in every build the host has: values and
    /// gradients together and apart, and both weak forms, of 1–9 planes
    /// (blocks that straddle elements, short last blocks) at orders 2–8,
    /// on meshes of both kinds whose lane transforms break at a kind.
    #[test]
    fn lane_plane_kernels_equal_the_per_element_loops_bit_for_bit() {
        let mut rng = nkt_testkit::Rng::new(0x001a_7e2d);
        for order in 2..=8 {
            for (m, mesh) in lane_meshes(order).into_iter().enumerate() {
                let disc = Discretization::new(mesh, order);
                let nq = disc.nquad_total();
                for isa in Isa::available() {
                    let what = format!("{isa:?}, mesh {m}, order {order}");
                    let mut ws = disc.plane_scratch();
                    ws.isa = isa;
                    for planes in 1..=9 {
                        let c = random_planes(&mut rng, planes, disc.asm.ndof);
                        let mut out = [(); 3].map(|_| vec![f64::NAN; planes * nq]);
                        let [val, gx, gy] = &mut out;
                        disc.quad_planes_into(
                            planes,
                            |p| &c[p],
                            Some(val),
                            Some([gx, gy]),
                            &mut ws,
                        );
                        let mut apart = [(); 3].map(|_| vec![f64::NAN; planes * nq]);
                        let [v2, gx2, gy2] = &mut apart;
                        disc.quad_planes_into(planes, |p| &c[p], Some(v2), None, &mut ws);
                        disc.quad_planes_into(planes, |p| &c[p], None, Some([gx2, gy2]), &mut ws);
                        for (p, c) in c.iter().enumerate() {
                            let r = p * nq..(p + 1) * nq;
                            let (wx, wy) = per_element::grad_quad(&disc, c);
                            let case = format!("{what}, {planes} planes, plane {p}");
                            assert_eq!(
                                bits(&out[0][r.clone()]),
                                bits(&per_element::to_quad(&disc, c)),
                                "value, {case}"
                            );
                            assert_eq!(bits(&out[1][r.clone()]), bits(&wx), "∂x, {case}");
                            assert_eq!(bits(&out[2][r.clone()]), bits(&wy), "∂y, {case}");
                            for (k, a) in apart.iter().enumerate() {
                                assert_eq!(
                                    bits(&a[r.clone()]),
                                    bits(&out[k][r.clone()]),
                                    "output {k} apart, {case}"
                                );
                            }
                        }
                    }
                    check_weak_forms::<1>(&disc, isa, &mut rng, &what);
                    check_weak_forms::<2>(&disc, isa, &mut rng, &what);
                    check_weak_forms::<3>(&disc, isa, &mut rng, &what);
                    check_weak_forms::<4>(&disc, isa, &mut rng, &what);
                    check_weak_forms::<5>(&disc, isa, &mut rng, &what);
                    check_weak_forms::<6>(&disc, isa, &mut rng, &what);
                    check_weak_forms::<7>(&disc, isa, &mut rng, &what);
                    check_weak_forms::<8>(&disc, isa, &mut rng, &what);
                    check_weak_forms::<9>(&disc, isa, &mut rng, &what);
                }
            }
        }
    }

    /// The interior passes, four (element, right-hand side) units a lane
    /// block, against the one-element, one-right-hand-side loops, bit for
    /// bit, in every build the host has: 1–7 right-hand sides (blocks that
    /// straddle elements and share their boundary dofs, short last
    /// blocks, blocks broken at a change of shape), orders 2–8, the
    /// Helmholtz and the mass operators, and order-2 triangles, which have
    /// no interior mode.
    #[test]
    fn interior_lanes_equal_the_one_rhs_loops_bit_for_bit() {
        let mut rng = nkt_testkit::Rng::new(0x001a_7ec0);
        for order in 2..=8 {
            for (m, mesh) in lane_meshes(order).into_iter().enumerate() {
                let disc = Discretization::new(mesh, order);
                let helmholtz = disc.condense(|ei| disc.ops[ei].mats.helmholtz(5.0).into()).0;
                let mass = disc.condense(|ei| disc.ops[ei].mats.mass.as_slice().into()).0;
                for (o, op) in [helmholtz, mass].iter().enumerate() {
                    for isa in Isa::available() {
                        for nrhs in 1..=7 {
                            let what = format!(
                                "{isa:?}, mesh {m}, order {order}, operator {o}, {nrhs} rhs"
                            );
                            let xs = random_planes(&mut rng, nrhs, disc.asm.ndof);
                            let mut tile = vec![f64::NAN; op.tile];
                            for back in [false, true] {
                                let mut want = xs.clone();
                                if back {
                                    per_element::back_substitute(op, &disc.asm, &mut want);
                                } else {
                                    per_element::eliminate(op, &disc.asm, &mut want);
                                }
                                let mut got = xs.clone();
                                let mut views: Vec<&mut [f64]> =
                                    got.iter_mut().map(|x| &mut x[..]).collect();
                                op.pass(isa, &disc.asm, &mut views, &mut tile, back);
                                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                                    assert_eq!(bits(g), bits(w), "{what}, back {back}, rhs {i}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn mixed_tri_quad_mesh() {
        let mesh = mixed_mesh();
        let exact = |x: [f64; 2]| 1.0 + 2.0 * x[0] - x[1];
        let mut prob = HelmholtzProblem::new(mesh, 3, 0.0, ALL_DIRICHLET);
        let (u, _) = prob.solve(|_| 0.0, exact, SolveMethod::BandedDirect);
        let err = prob.l2_error(&u, exact);
        assert!(err < 1e-9, "mixed-mesh error {err}");
    }
}
