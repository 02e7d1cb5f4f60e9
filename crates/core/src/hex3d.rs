//! 3-D spectral/hp discretisation on hexahedral meshes — the substrate
//! for NekTar-ALE (paper §4.2.2).
//!
//! The expansion is the tensor product of the modified 1-D modal basis in
//! all three directions, with modes classified vertex / edge / face /
//! interior. Elemental mass and stiffness matrices are built from the 1-D
//! matrices (exact for the *rectilinear* — axis-aligned box — elements the
//! structured generators produce; this restriction is asserted and
//! documented in DESIGN.md). The global solver is matrix-free: elemental
//! operator application + gather-scatter halo exchange + preconditioned
//! conjugate gradients, the stack the paper describes for the ALE code ("a
//! diagonally preconditioned conjugate gradient iterative solver is
//! predominantly used"). CG iterates in the nodal basis at the GLL points,
//! which spans the same C0 space with the same dofs per entity and whose
//! mass matrix its diagonal scales well: `pcg` solves TᵀAT x̃ = Tᵀb, T the
//! change of basis V⁻¹ applied element by element, with the paper's Jacobi
//! — a pointwise scale by 1/D — as the one preconditioner of every solve
//! ([`HexHelmholtz::pcg`], DESIGN §8).

use crate::opstream::{CommItem, Recorder, WorkItem};
use crate::timers::Stage;
use nkt_blas::isa::{dispatch, Isa, Kernel};
use nkt_blas::transform::{transform, Pass, Run, Steps, LANES};
use nkt_blas::{sweep, Axis};
use nkt_gs::{GsHandle, GsStrategy};
use nkt_mesh::{BoundaryTag, Mesh3d};
use nkt_mpi::prelude::*;
use nkt_poly::quadrature::zwglj;
use nkt_spectral::basis1d::{sweep_matrices, Basis1d};
use std::collections::{HashMap, HashSet};

/// 1-D building blocks: mass and stiffness matrices of the modified
/// basis on [−1, 1], the basis tables as [`sweep`] matrices, the
/// quadrature weights of every point of an element, and the change to
/// the nodal basis at the GLL points with the two matrices in it.
#[derive(Debug, Clone)]
pub struct Oper1d {
    /// Number of modes (P + 1).
    pub nm: usize,
    /// Mass matrix, column-major nm × nm.
    pub mass: Vec<f64>,
    /// Stiffness matrix ∫ψ'ψ'.
    pub stiff: Vec<f64>,
    /// Basis tables (for quadrature evaluation).
    pub basis: Basis1d,
    /// Modal → quadrature: `[B, D]`, column-major nq × nm
    /// (`B[q + i·nq]` = ψ_i(z_q), `D` = ψ_i'(z_q)).
    to_quad: [Vec<f64>; 2],
    /// Quadrature → modal: `[Bᵀ, Dᵀ]`, column-major nm × nq.
    to_modal: [Vec<f64>; 2],
    /// The 1-D weights `[w(qx), w(qy), w(qz)]` of each of an element's
    /// nq³ points `q = qx + qy·nq + qz·nq²`, kept as three factors so a
    /// weighted integrand multiplies them in the order it always has.
    pub(crate) wpts: Vec<[f64; 3]>,
    /// The change of basis as sweep tables `[V⁻ᵀ, V⁻¹, V]`, column-major
    /// nm × nm, where `V[i + j·nm]` = ψ_j(ξ_i) at the P + 1 GLL nodes ξ_i:
    /// V takes modal coefficients to nodal values, V⁻¹ back, and V⁻ᵀ a
    /// modal right-hand side to the nodal basis.
    nodal: [Vec<f64>; 3],
    /// The nodal mass and stiffness `[M̃, K̃]` = `[V⁻ᵀMV⁻¹, V⁻ᵀKV⁻¹]`,
    /// column-major nm × nm and exactly symmetric.
    nodal_mats: [Vec<f64>; 2],
}

impl Oper1d {
    /// Builds the order-`p` 1-D operators.
    pub fn new(p: usize) -> Oper1d {
        let basis = Basis1d::with_gll(p);
        let nm = p + 1;
        let nq = basis.nquad();
        let mut mass = vec![0.0; nm * nm];
        let mut stiff = vec![0.0; nm * nm];
        for i in 0..nm {
            for jm in 0..nm {
                let mut ms = 0.0;
                let mut ks = 0.0;
                for q in 0..nq {
                    ms += basis.w[q] * basis.val[i][q] * basis.val[jm][q];
                    ks += basis.w[q] * basis.dval[i][q] * basis.dval[jm][q];
                }
                mass[i + jm * nm] = ms;
                stiff[i + jm * nm] = ks;
            }
        }
        let ([b, bt], [d, dt]) = (sweep_matrices(&basis.val), sweep_matrices(&basis.dval));
        let (to_quad, to_modal) = ([b, d], [bt, dt]);
        let wpts = (0..nq.pow(3)).map(|q| [q % nq, q / nq % nq, q / (nq * nq)].map(|i| basis.w[i]));
        let wpts = wpts.collect();
        let nodes = zwglj(nm, 0.0, 0.0);
        let [v, _] = sweep_matrices(&Basis1d::tabulate(p, &nodes.z, &nodes.w).val);
        let vi = invert(nm, v.clone());
        let vit: Vec<f64> = (0..nm * nm).map(|k| vi[k / nm + k % nm * nm]).collect();
        // (V⁻ᵀAV⁻¹)_ij = Σ_ab V⁻¹_ai A_ab V⁻¹_bj, for i ≤ j and mirrored.
        let nodal_mat = |a: &[f64]| -> Vec<f64> {
            let col = |i| &vi[i * nm..][..nm];
            let entry = |i, j| (0..nm * nm).map(|k| col(i)[k % nm] * a[k] * col(j)[k / nm]).sum();
            (0..nm * nm).map(|k| entry((k % nm).min(k / nm), (k % nm).max(k / nm))).collect()
        };
        let nodal_mats = [nodal_mat(&mass), nodal_mat(&stiff)];
        Oper1d { nm, mass, stiff, basis, to_quad, to_modal, wpts, nodal: [vit, vi, v], nodal_mats }
    }

    /// Scratch doubles the elemental operations of this order need: the
    /// larger of the Helmholtz kernel's (for each of [`LANES`] elements:
    /// two element vectors, four intermediates, three scaled 1-D
    /// matrices; and one element vector to scatter from) and a
    /// [`hex_pass`]'s of three outputs, either way.
    pub fn scratch_len(&self) -> usize {
        let (nm, nq) = (self.nm, self.basis.nquad());
        let pass = |n_in, n_out| nkt_blas::transform::scratch_len::<3>(n_in, n_out, 3);
        (LANES * (6 * nm.pow(3) + 3 * nm * nm) + nm.pow(3)).max(pass(nm, nq)).max(pass(nq, nm))
    }

    /// The x, y and z sweep tables of one output of a transform to the
    /// quadrature points (`to_quad`) or back to the modes: B (Bᵀ) in
    /// every direction, D (Dᵀ) in direction `deriv` if given.
    fn tables(&self, to_quad: bool, deriv: Option<usize>) -> [&[f64]; 3] {
        let t = if to_quad { &self.to_quad } else { &self.to_modal };
        [0, 1, 2].map(|d| &t[usize::from(deriv == Some(d))][..])
    }
}

/// The inverse of the column-major n × n matrix `a`, by Gauss–Jordan
/// elimination with partial pivoting. A row of `a` that is a unit vector
/// (V's rows at the two end nodes) stays one in the inverse, exactly:
/// every elimination step adds 0 times a finite row to it.
fn invert(n: usize, mut a: Vec<f64>) -> Vec<f64> {
    let mut inv: Vec<f64> = (0..n * n).map(|k| f64::from(k % (n + 1) == 0)).collect();
    for c in 0..n {
        let piv = (c..n).max_by(|&i, &j| a[i + c * n].abs().total_cmp(&a[j + c * n].abs()));
        let piv = piv.expect("a nonempty column");
        for m in [&mut a, &mut inv] {
            (0..n).for_each(|k| m.swap(c + k * n, piv + k * n));
        }
        let d = a[c + c * n];
        assert!(d != 0.0, "singular matrix");
        for m in [&mut a, &mut inv] {
            (0..n).for_each(|k| m[c + k * n] /= d);
        }
        for i in (0..n).filter(|&i| i != c) {
            let f = a[i + c * n];
            for m in [&mut a, &mut inv] {
                (0..n).for_each(|k| m[i + k * n] -= f * m[c + k * n]);
            }
        }
    }
    inv
}

/// Local-mode triple ordering for a hex of order P: lexicographic in
/// (p, q, r) — simple and orientation-free for the structured meshes we
/// support.
#[derive(Debug, Clone)]
pub struct HexNumbering {
    /// Polynomial order.
    pub p: usize,
    /// Global dof id per element per local mode.
    pub elem_dofs: Vec<Vec<u64>>,
    /// Total number of distinct global dofs.
    pub ndof_global: u64,
}

/// Classifies each (p, q, r) index as lying on a vertex/edge/face/interior
/// of the reference hex: returns, per axis, whether the index is at the
/// low end (0), high end (1) or interior (2).
fn axis_class(i: usize, p: usize) -> usize {
    if i == 0 {
        0
    } else if i == p {
        1
    } else {
        2
    }
}

/// The (p, q, r) mode triple at each of a hex's eight vertices, in the
/// mesh's local vertex order, at order `p` (at `p = 1`, the corners).
fn hex_vertices(p: usize) -> [(usize, usize, usize); 8] {
    [(0, 0, 0), (p, 0, 0), (p, p, 0), (0, p, 0), (0, 0, p), (p, 0, p), (p, p, p), (0, p, p)]
}

impl HexNumbering {
    /// Builds a global C0 numbering for an order-`p` expansion on `mesh`,
    /// free of boundary conditions (see [`HexNumbering::tagged`]).
    ///
    /// # Panics
    /// Panics if any element is not an axis-aligned box (the supported
    /// class — see module docs).
    pub fn build(mesh: &Mesh3d, p: usize) -> HexNumbering {
        for ei in 0..mesh.nelems() {
            assert!(
                elem_box(mesh, ei).is_some(),
                "element {ei} is not an axis-aligned box"
            );
        }
        // Canonical geometric keying: each dof is identified by its
        // "anchor" — (entity kind, sorted vertex ids, local index within
        // the entity). For axis-aligned structured meshes the shared
        // entities have consistent parameterizations, so identical keys
        // mean identical basis functions.
        let mut key_to_id: HashMap<(u64, u64, u64, u64, u64), u64> = HashMap::new();
        let (nm1, vidx) = (p + 1, hex_vertices(p));
        let class = |i: [usize; 3]| i.map(|i| axis_class(i, p));
        let mut elem_dofs = Vec::with_capacity(mesh.nelems());
        for el in &mesh.elems {
            let mut dofs = Vec::with_capacity(nm1 * nm1 * nm1);
            for m in 0..nm1 * nm1 * nm1 {
                let idx = [m % nm1, m / nm1 % nm1, m / (nm1 * nm1)];
                let cls = class(idx);
                // The entity holding the mode contains every hex vertex
                // whose per-axis class matches on its non-interior axes;
                // within it, the mode's interior-axis offsets, packed.
                let matches =
                    |v: [usize; 3]| class(v).iter().zip(&cls).all(|(&a, &c)| c == 2 || a == c);
                let mut corners: Vec<u64> = (vidx.iter().zip(&el.verts))
                    .filter(|(&(i, j, k), _)| matches([i, j, k]))
                    .map(|(_, &v)| v as u64)
                    .collect();
                corners.sort_unstable();
                corners.dedup();
                let mut key = [u64::MAX; 4];
                key.iter_mut().zip(&corners).for_each(|(k, &c)| *k = c);
                let interior = idx.iter().zip(&cls).filter(|(_, &c)| c == 2);
                let intra = interior.fold(0, |a, (&i, _)| a * nm1 as u64 + i as u64);
                // Element-interior modes must stay private.
                let full_key = if cls == [2; 3] {
                    (u64::MAX - 1, elem_dofs.len() as u64, intra, 0, 0)
                } else {
                    (key[0], key[1], key[2], key[3], intra)
                };
                let next_id = key_to_id.len() as u64;
                dofs.push(*key_to_id.entry(full_key).or_insert(next_id));
            }
            elem_dofs.push(dofs);
        }
        HexNumbering { p, elem_dofs, ndof_global: key_to_id.len() as u64 }
    }

    /// The global dofs whose modes lie in a boundary face of `mesh` tagged
    /// with any of `tags`: the same set on every rank, from the whole mesh.
    pub fn tagged(&self, mesh: &Mesh3d, tags: &[BoundaryTag]) -> HashSet<u64> {
        // Local face `fi` (matched by vertex set) fixes axis 2 − fi/2 at
        // its low end (even `fi`) or its high end.
        let local_faces =
            [[0, 1, 2, 3], [4, 5, 6, 7], [0, 1, 5, 4], [3, 2, 6, 7], [0, 3, 7, 4], [1, 2, 6, 5]];
        let (p, nm1) = (self.p, self.p + 1);
        let mut tagged = HashSet::new();
        for f in mesh.faces.iter().filter(|f| f.tag.is_some_and(|t| tags.contains(&t))) {
            let ei = f.elems[0];
            for (fi, lf) in local_faces.iter().enumerate() {
                let mut vs = lf.map(|l| mesh.elems[ei].verts[l]);
                vs.sort_unstable();
                if vs == f.v {
                    let (axis, end) = (2 - fi / 2, fi % 2 * p);
                    for (m, &g) in self.elem_dofs[ei].iter().enumerate() {
                        if [m % nm1, m / nm1 % nm1, m / (nm1 * nm1)][axis] == end {
                            tagged.insert(g);
                        }
                    }
                }
            }
        }
        tagged
    }

    /// Number of local modes per element.
    pub fn modes_per_elem(&self) -> usize {
        (self.p + 1).pow(3)
    }
}

/// Returns the (lo, hi) corners if element `ei` is an axis-aligned box.
pub fn elem_box(mesh: &Mesh3d, ei: usize) -> Option<([f64; 3], [f64; 3])> {
    let vs = || mesh.elems[ei].verts.iter().map(|&v| mesh.verts[v]);
    let mut lo = vs().next()?;
    let mut hi = lo;
    for v in vs() {
        for d in 0..3 {
            lo[d] = lo[d].min(v[d]);
            hi[d] = hi[d].max(v[d]);
        }
    }
    // Each vertex must sit on a corner of the bounding box, in the
    // standard ordering.
    for (a, (i, j, k)) in vs().zip(hex_vertices(1)) {
        let b = [[lo, hi][i][0], [lo, hi][j][1], [lo, hi][k][2]];
        for d in 0..3 {
            if (a[d] - b[d]).abs() > 1e-12 {
                return None;
            }
        }
    }
    Some((lo, hi))
}

/// `[λ, kc]` of the mass matrix, the member of kc·K + λM an L2 projection solves.
pub const MASS: [f64; 2] = [1.0, 0.0];

/// `[λ, kc]` of the Laplacian −∇², the pressure and mesh-velocity solves.
pub const LAPLACE: [f64; 2] = [0.0, 1.0];

/// One Dirichlet pattern: the local dofs it constrains, ascending and fixed
/// by [`HexHelmholtz::dirichlet`], and the value each takes.
#[derive(Debug, Clone)]
pub struct Dirichlet {
    rows: Vec<usize>,
    values: Vec<f64>,
}

impl Dirichlet {
    /// The constrained local dofs, ascending: [`HexHelmholtz::apply`]'s identity rows.
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// The values of the constrained dofs, one per row (0 as built).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }
}

/// The distributed Helmholtz operators kc·K + λM on a partitioned hex mesh
/// (matrix-free, per-rank element storage): every apply and solve takes
/// its member `[λ, kc]` and its [`Dirichlet`] pattern.
pub struct HexHelmholtz {
    /// Polynomial order.
    pub p: usize,
    /// Elements owned by this rank (global element ids).
    pub my_elems: Vec<usize>,
    /// Per owned element: (hx, hy, hz) box sizes.
    pub scales: Vec<[f64; 3]>,
    /// Local dof (index into this rank's vector) of every mode of every
    /// owned element, flat: element `le` owns
    /// `elem_local[le * nm³..(le + 1) * nm³]` ([`HexHelmholtz::elem_dofs`]).
    pub elem_local: Vec<usize>,
    /// Every owned element in order, `0..my_elems.len()`: the element
    /// list of a pass over all of them.
    elem_all: Vec<usize>,
    /// Global ids of this rank's local dofs.
    pub local_gids: Vec<u64>,
    /// 1-D operators.
    pub op1: Oper1d,
    /// Gather-scatter handle over shared dofs.
    pub gs: GsHandle,
    /// Inverse multiplicity of each local dof (for global dot products).
    pub weight: Vec<f64>,
    /// The change of basis' W: one over the number of elements (on any
    /// rank) sharing each local dof.
    elem_weight: Vec<f64>,
    /// Owned-element indices (into `elem_local`) touching at least one
    /// rank-shared dof. These run *before* the halo exchange is posted.
    pub elem_boundary: Vec<usize>,
    /// Owned-element indices touching no shared dof: their work fills
    /// the overlap window between `gs.start` and `finish`.
    pub elem_interior: Vec<usize>,
    /// Whether [`HexHelmholtz::apply`] overlaps the halo exchange with
    /// interior elemental work (on until
    /// [`HexHelmholtz::set_gs_overlap`]). Either setting produces
    /// bitwise-identical results.
    pub gs_overlap: bool,
}

impl HexHelmholtz {
    /// Builds the distributed operator. Collective. `part[e]` gives the
    /// owning rank per element (from `nkt-partition`).
    pub fn new(
        comm: &mut Comm,
        mesh: &Mesh3d,
        numbering: &HexNumbering,
        part: &[u8],
    ) -> HexHelmholtz {
        let me = comm.rank() as u8;
        let p = numbering.p;
        let op1 = Oper1d::new(p);
        let my_elems: Vec<usize> =
            (0..mesh.nelems()).filter(|&e| part[e] == me).collect();
        // Local dof table: union of owned elements' dofs.
        let mut gid_to_local: HashMap<u64, usize> = HashMap::new();
        let mut local_gids: Vec<u64> = Vec::new();
        let nm3 = numbering.modes_per_elem();
        let mut elem_local = Vec::with_capacity(my_elems.len() * nm3);
        let mut scales = Vec::with_capacity(my_elems.len());
        for &e in &my_elems {
            let (lo, hi) = elem_box(mesh, e).expect("validated axis-aligned");
            scales.push([hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]]);
            elem_local.extend(numbering.elem_dofs[e].iter().map(|&g| {
                *gid_to_local.entry(g).or_insert_with(|| {
                    local_gids.push(g);
                    local_gids.len() - 1
                })
            }));
        }
        let gs = GsHandle::try_setup(comm, &local_gids, GsStrategy::Hybrid)
            .expect("hex numbering produces a consistent sharer table");
        // Multiplicity: GS-sum of ones.
        let mut ones = vec![1.0; local_gids.len()];
        gs.exchange(comm, &mut ones, ReduceOp::Sum);
        let weight: Vec<f64> = ones.iter().map(|&m| 1.0 / m).collect();
        // Classify owned elements: an element is "boundary" iff any of
        // its dofs is rank-shared. Boundary work must complete before
        // the halo exchange is posted; interior work fills the window.
        let mut is_halo = vec![false; local_gids.len()];
        for l in gs.halo_locals() {
            is_halo[l] = true;
        }
        let (elem_boundary, elem_interior) = (0..my_elems.len())
            .partition(|&le| elem_local[le * nm3..][..nm3].iter().any(|&l| is_halo[l]));
        let mut count = vec![0.0; local_gids.len()];
        elem_local.iter().for_each(|&l| count[l] += 1.0);
        gs.exchange(comm, &mut count, ReduceOp::Sum);
        let elem_weight = count.iter().map(|&m| 1.0 / m).collect();
        HexHelmholtz {
            p,
            elem_all: (0..my_elems.len()).collect(),
            my_elems,
            scales,
            elem_local,
            local_gids,
            op1,
            gs,
            weight,
            elem_weight,
            elem_boundary,
            elem_interior,
            gs_overlap: true,
        }
    }

    /// The pattern constraining this rank's local dofs among the global
    /// dofs `gids` (e.g. [`HexNumbering::tagged`]), every value 0.
    pub fn dirichlet(&self, gids: &HashSet<u64>) -> Dirichlet {
        let rows: Vec<usize> =
            (0..self.nlocal()).filter(|&l| gids.contains(&self.local_gids[l])).collect();
        Dirichlet { values: vec![0.0; rows.len()], rows }
    }

    /// Number of local dofs on this rank.
    pub fn nlocal(&self) -> usize {
        self.local_gids.len()
    }

    /// Modes per element, (P + 1)³.
    fn nm3(&self) -> usize {
        (self.p + 1).pow(3)
    }

    /// Local dofs of owned element `le`, one per mode.
    pub fn elem_dofs(&self, le: usize) -> &[usize] {
        &self.elem_local[le * self.nm3()..(le + 1) * self.nm3()]
    }

    /// The kernel's [`helm_coefs`] of owned element `le` for the member
    /// `[λ, kc]`.
    fn elem_coefs(&self, le: usize, [lambda, kc]: [f64; 2]) -> [f64; 4] {
        helm_coefs(self.scales[le], lambda, kc)
    }

    /// D, the assembled diagonal of the member `coefs` in the nodal basis,
    /// into `diag`: from the diagonals of the M̃ and K̃ the kernel applies
    /// and the coefficients of each element's current box, GS-summed, with
    /// the rows of `bc` 1. Collective.
    fn nodal_diag(&self, comm: &mut Comm, coefs: [f64; 2], bc: &Dirichlet, diag: &mut Vec<f64>) {
        let nm = self.op1.nm;
        let [md, kd] = self.op1.nodal_mats.each_ref().map(|a| move |i: usize| a[i * (nm + 1)]);
        diag.clear();
        diag.resize(self.nlocal(), 0.0);
        for (le, locals) in self.elem_local.chunks_exact(self.nm3()).enumerate() {
            let [a, b, c, d] = self.elem_coefs(le, coefs);
            for (k, plane) in locals.chunks_exact(nm * nm).enumerate() {
                for (j, row) in plane.chunks_exact(nm).enumerate() {
                    for (i, &l) in row.iter().enumerate() {
                        diag[l] += a * kd(i) * md(j) * md(k)
                            + b * md(i) * kd(j) * md(k)
                            + c * md(i) * md(j) * kd(k)
                            + d * md(i) * md(j) * md(k);
                    }
                }
            }
        }
        self.gs.exchange(comm, diag, ReduceOp::Sum);
        for &l in &bc.rows {
            diag[l] = 1.0;
        }
    }

    /// Toggles halo/compute overlap in [`HexHelmholtz::apply`]. Results
    /// are bitwise identical either way; only the virtual-clock schedule
    /// differs.
    pub fn set_gs_overlap(&mut self, on: bool) {
        self.gs_overlap = on;
    }

    /// Virtual-clock cost of one elemental operator application, at the
    /// canonical 100 Mflop/s the other virtual compute charges use (e.g.
    /// `fft_virtual_secs`). This is the *model's* charge — the four
    /// tensor terms applied one by one, 4 × 3 sweeps × 2·nm⁴ flops — not
    /// a count of what [`apply_elems`] runs (7 shared sweeps, over
    /// [`LANES`] elements at a time): like the recorder's `Gemm` item it
    /// is deliberately unchanged, so every virtual-time artifact (Table 3,
    /// Figures 15–16, PROF/CALIB) holds.
    fn elem_virtual_secs(&self) -> f64 {
        let nm = (self.p + 1) as f64;
        24.0 * nm * nm * nm * nm / 1e8
    }

    /// Grows `scratch` to what this operator's elemental work needs.
    fn fit(&self, scratch: &mut Vec<f64>) {
        if scratch.len() < self.op1.scratch_len() {
            scratch.resize(self.op1.scratch_len(), 0.0);
        }
    }

    /// Quadrature values of the field `x` on every owned element, nq³
    /// per element into `outs[0]` — or, with `grad`, its physical
    /// gradient, direction `d` into `outs[d]` (the metric (v·2)/h_d makes
    /// each reference derivative physical).
    pub(crate) fn quad_pass(
        &self,
        x: &[f64],
        grad: bool,
        outs: &mut [&mut [f64]],
        scratch: &mut Vec<f64>,
    ) {
        let metric = grad.then_some(&self.scales[..]);
        self.pass(true, grad, Gather::Dofs(x), Scatter::Points(outs, metric), scratch);
    }

    /// Scatter-adds every owned element's projection Σ_q fq(q) φ_m(q) of
    /// the weighted quadrature values `fq[0]` (nq³ per element) into the
    /// local vector `rhs` — or, with `grad`, Σ_d Σ_q fq[d](q) ∂_d φ_m(q),
    /// each element's three directions added in turn.
    pub(crate) fn project_pass(
        &self,
        fq: &[&[f64]],
        grad: bool,
        rhs: &mut [f64],
        scratch: &mut Vec<f64>,
    ) {
        self.pass(false, grad, Gather::Points(fq), Scatter::Dofs(rhs), scratch);
    }

    /// One [`hex_pass`] over every owned element, to the
    /// quadrature points (`to_quad`) or back to the modes: of the values,
    /// or with `grad` of the reference derivative in each direction.
    fn pass(
        &self,
        to_quad: bool,
        grad: bool,
        gather: Gather,
        scatter: Scatter,
        scratch: &mut Vec<f64>,
    ) {
        self.fit(scratch);
        let (op, outs) = (&self.op1, if grad { 3 } else { 1 });
        let tabs = [0, 1, 2].map(|d| op.tables(to_quad, grad.then_some(d)));
        let n = if to_quad { [op.nm, op.basis.nquad()] } else { [op.basis.nquad(), op.nm] };
        let (tabs, elems, dofs) = (&tabs[..outs], &self.elem_all[..], &self.elem_local[..]);
        hex_pass(Isa::host(), n, tabs, elems, dofs, gather, scatter, scratch);
    }

    /// Applies the assembled member `coefs` = `[λ, kc]`: y =
    /// GS-sum(elemental (kc·K + λM) x), with the rows of `bc` replaced by
    /// identity, in the modal basis (A) or, if `nodal`, the nodal one
    /// (TᵀAT, which [`HexHelmholtz::pcg`] iterates on). Collective.
    ///
    /// `scratch` is the caller's elemental work buffer (grown here on
    /// first use, never shrunk), so repeated applies touch no heap.
    #[allow(clippy::too_many_arguments)]
    pub fn apply(
        &self,
        nodal: bool,
        comm: &mut Comm,
        coefs: [f64; 2],
        bc: &Dirichlet,
        x: &[f64],
        y: &mut [f64],
        scratch: &mut Vec<f64>,
        rec: &mut Recorder,
    ) {
        self.fit(scratch);
        let nm1 = self.p + 1;
        let item = WorkItem::Gemm { m: nm1 * nm1, n: nm1, k: nm1 };
        let elem_coefs = |le| self.elem_coefs(le, coefs);
        let op = &self.op1;
        let [m, k] = if nodal { op.nodal_mats.each_ref() } else { [&op.mass, &op.stiff] };
        self.assemble(comm, "helmholtz", self.elem_virtual_secs(), item, y, rec, |elems, y| {
            apply_elems(nm1, [m, k], elems, &self.elem_local, elem_coefs, x, y, scratch);
        });
        for &l in &bc.rows {
            y[l] = x[l];
        }
    }

    /// y = GS-sum(Σ_e R_eᵀ T_e R_e x), T_e the change-of-basis sweep table
    /// `table` (V⁻ᵀ, V⁻¹ or V) on each element: one [`basis_elems`] pass,
    /// charged 6·nm⁴ flops and one `Gemm` item an element under
    /// `kernel/basis` spans. Collective.
    fn transform(
        &self,
        comm: &mut Comm,
        table: &[f64],
        x: &[f64],
        y: &mut [f64],
        scratch: &mut Vec<f64>,
        rec: &mut Recorder,
    ) {
        self.fit(scratch);
        let nm1 = self.p + 1;
        let esecs = 6.0 * (nm1 as f64).powi(4) / 1e8;
        let item = WorkItem::Gemm { m: nm1, n: 3 * nm1 * nm1, k: nm1 };
        self.assemble(comm, "basis", esecs, item, y, rec, |elems, y| {
            basis_elems(nm1, table, elems, &self.elem_local, x, y, scratch);
        });
    }

    /// Zeroes `y`, runs `pass` — elemental work scatter-adding into `y`,
    /// `esecs` of virtual time and one `item` of the op stream an element
    /// — over the boundary elements, then the interior ones, each under a
    /// `kernel/<name>` span, and GS-sums `y`. Collective.
    ///
    /// Both overlap settings run the *same* boundary-then-interior
    /// element schedule, so every dof accumulates its contributions in
    /// the same floating-point order and the two modes stay bitwise
    /// identical; only the exchange posting point moves. Shared dofs
    /// receive contributions exclusively from boundary elements, so
    /// their values are final when the exchange is posted and the
    /// interior sweep (which touches no shared dof) fills the window.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        &self,
        comm: &mut Comm,
        name: &'static str,
        esecs: f64,
        item: WorkItem,
        y: &mut [f64],
        rec: &mut Recorder,
        mut pass: impl FnMut(&[usize], &mut [f64]),
    ) {
        y.fill(0.0);
        let mut timed = |comm: &mut Comm, elems: &[usize], y: &mut [f64]| {
            let ksp = nkt_trace::span_v(name, "kernel", comm.wtime());
            pass(elems, y);
            for _ in elems {
                rec.work(Stage::PressureSolve, item);
            }
            let secs = esecs * elems.len() as f64;
            comm.advance(secs);
            ksp.end_v_args(comm.wtime(), &[("elems", elems.len() as f64), ("flops", secs * 1e8)]);
        };
        let (nb, ni) = (self.elem_boundary.len(), self.elem_interior.len());
        timed(comm, &self.elem_boundary, y);
        let overlap = if self.gs_overlap {
            let w0 = comm.wtime();
            let ex = self.gs.start(comm, y, ReduceOp::Sum);
            timed(comm, &self.elem_interior, y);
            ex.finish(comm, y);
            // The measured overlap window: how many elements this pass
            // really had available to hide the exchange behind, consumed
            // per stage by the calibration in nkt-prof (`gs.window` records).
            nkt_trace::record_vspan_args(
                "gs.window",
                "gs",
                w0,
                comm.wtime(),
                &[("interior", ni as f64), ("boundary", nb as f64)],
            );
            if self.my_elems.is_empty() {
                0.0
            } else {
                ni as f64 / self.my_elems.len() as f64
            }
        } else {
            timed(comm, &self.elem_interior, y);
            self.gs.exchange(comm, y, ReduceOp::Sum);
            0.0
        };
        rec.comm(
            Stage::PressureSolve,
            CommItem::GsExchange { neighbors: 2, bytes: 8 * self.nlocal().min(1024), overlap },
        );
    }

    /// Global (deduplicated) dot product. Collective.
    pub fn dot(&self, comm: &mut Comm, a: &[f64], b: &[f64]) -> f64 {
        let mut s = [0.0];
        for ((&w, &ai), &bi) in self.weight.iter().zip(a).zip(b) {
            s[0] += w * ai * bi;
        }
        comm.allreduce(&mut s, ReduceOp::Sum);
        s[0]
    }

    /// Solves (kc·K + λM) x = b, the member `coefs` = `[λ, kc]`, with the
    /// rows of `bc` held at its values, by CG in the nodal (GLL) basis,
    /// preconditioned by Jacobi. With x = T x̃, T = W GS-sum(Σ_e R_eᵀ V_e⁻¹
    /// R_e) the change of basis (exact: a shared modal coefficient depends
    /// only on the trace), it runs CG on TᵀAT x̃ = Tᵀb — the kernel with the
    /// nodal M̃ and K̃ — with z = D⁻¹r, D the nodal diagonal it first builds
    /// from the elements' current boxes ([`HexHelmholtz::nodal_diag`]). In
    /// exact arithmetic these are the iterates of CG on A preconditioned by
    /// T D⁻¹ Tᵀ. A solve makes three [`HexHelmholtz::transform`] passes:
    /// x̃₀ = W GS-sum(Σ V x) and b̃ = GS-sum(Σ V⁻ᵀ W b), whose pattern rows
    /// are x̃₀'s, in; x = T x̃, whose pattern rows then take `bc`'s values
    /// again, exactly, out. The stopping test reads the nodal residual.
    /// `b` must be GS-consistent (already summed); `x` enters as the
    /// initial guess. Collective. The start reduces `[b̃·b̃, r·z, r·r]` in
    /// one allreduce; an iteration sends one gs exchange and reduces `p·Ap`,
    /// then `[r·r, r·z]` in one allreduce.
    ///
    /// Every vector the iteration needs lives in `ws`, so a solve
    /// allocates nothing beyond what `nkt-gs` / `nkt-mpi` do per message.
    /// Returns the iteration count and whether the residual reached
    /// `tol`: hitting `max_iter` or a breakdown (`p·Ap ≤ 0`) is reported,
    /// not passed off as a solve.
    #[allow(clippy::too_many_arguments)]
    pub fn pcg(
        &self,
        comm: &mut Comm,
        coefs: [f64; 2],
        bc: &Dirichlet,
        b: &[f64],
        x: &mut [f64],
        tol: f64,
        max_iter: usize,
        ws: &mut HexWorkspace,
        rec: &mut Recorder,
    ) -> PcgOutcome {
        let n = self.nlocal();
        let HexWorkspace { bb, xt, r, ap, z, pv, dinv, elem } = ws;
        for v in [&mut *bb, &mut *xt, &mut *r, &mut *ap, &mut *z, &mut *pv] {
            v.resize(n, 0.0);
        }
        self.nodal_diag(comm, coefs, bc, dinv);
        dinv.iter_mut().for_each(|d| *d = 1.0 / *d);
        let ([vit, vi, v], w) = (&self.op1.nodal, &self.elem_weight[..n]);
        // In: x̃₀ = T⁻¹x and b̃ = Tᵀb, whose pattern rows are x̃₀'s, so r̃ is 0 there.
        for (&l, &val) in bc.rows.iter().zip(&bc.values) {
            x[l] = val;
        }
        self.transform(comm, v, x, xt, elem, rec);
        xt.iter_mut().zip(w).for_each(|(xi, wi)| *xi *= wi);
        z.iter_mut().zip(b).zip(w).for_each(|((zi, bi), wi)| *zi = bi * wi);
        self.transform(comm, vit, z, bb, elem, rec);
        for &l in &bc.rows {
            bb[l] = xt[l];
        }
        self.apply(true, comm, coefs, bc, xt, ap, elem, rec);
        // Cut to `n` once, so the passes below index without bounds checks.
        let (xt, r, z, ap, pv) = (&mut xt[..n], &mut r[..n], &mut z[..n], &mut ap[..n], &mut pv[..n]);
        let (bb, dinv, weight) = (&bb[..n], &dinv[..n], &self.weight[..n]);
        // One pass: r̃₀, z = r/D and the local parts of b̃·b̃, r·z and r·r,
        // each accumulated in index order exactly as `dot` would, then
        // reduced together.
        let mut s = [0.0; 3];
        for i in 0..n {
            let ri = bb[i] - ap[i];
            (r[i], z[i]) = (ri, ri * dinv[i]);
            s[0] += weight[i] * bb[i] * bb[i];
            s[1] += weight[i] * ri * z[i];
            s[2] += weight[i] * ri * ri;
        }
        comm.allreduce(&mut s, ReduceOp::Sum);
        pv.copy_from_slice(z);
        let (bnorm, mut rz, rnorm) = (s[0].sqrt().max(1e-300), s[1], s[2].sqrt());
        let out = 'cg: {
            if rnorm / bnorm <= tol {
                break 'cg PcgOutcome { iters: 0, converged: true };
            }
            for it in 1..=max_iter {
                self.apply(true, comm, coefs, bc, pv, ap, elem, rec);
                let pap = self.dot(comm, pv, ap);
                if pap <= 0.0 {
                    break 'cg PcgOutcome { iters: it, converged: false };
                }
                let alpha = rz / pap;
                // One pass: the x/r update, z = r/D and the local parts of
                // r·r and r·z, each accumulated in index order exactly as
                // `dot` would, then reduced together.
                let mut s = [0.0; 2];
                for i in 0..n {
                    xt[i] += alpha * pv[i];
                    let ri = r[i] - alpha * ap[i];
                    let zi = ri * dinv[i];
                    (r[i], z[i]) = (ri, zi);
                    s[0] += weight[i] * ri * ri;
                    s[1] += weight[i] * ri * zi;
                }
                comm.allreduce(&mut s, ReduceOp::Sum);
                if s[0].sqrt() / bnorm <= tol {
                    break 'cg PcgOutcome { iters: it, converged: true };
                }
                let beta = s[1] / rz;
                rz = s[1];
                for (p, &zi) in pv.iter_mut().zip(&*z) {
                    *p = zi + beta * *p;
                }
            }
            PcgOutcome { iters: max_iter, converged: false }
        };
        // Out: x = T x̃ gives the pattern's values back only to rounding.
        self.transform(comm, vi, xt, x, elem, rec);
        x.iter_mut().zip(w).for_each(|(xi, wi)| *xi *= wi);
        for (&l, &val) in bc.rows.iter().zip(&bc.values) {
            x[l] = val;
        }
        out
    }
}

/// What a [`HexHelmholtz::pcg`] solve did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcgOutcome {
    /// Iterations taken.
    pub iters: usize,
    /// Whether the relative residual reached the tolerance.
    pub converged: bool,
}

/// The buffers of one [`HexHelmholtz::pcg`] solve (`bb, xt, r, ap, z,
/// pv`, nodal), its preconditioner's 1/D and the elemental scratch of
/// [`HexHelmholtz::apply`]. Lives as long as the solver that owns it and
/// is shared by all its solves; every buffer is sized on first use and
/// overwritten before it is read.
#[derive(Debug, Default)]
pub struct HexWorkspace {
    bb: Vec<f64>,
    xt: Vec<f64>,
    r: Vec<f64>,
    ap: Vec<f64>,
    z: Vec<f64>,
    pv: Vec<f64>,
    dinv: Vec<f64>,
    /// Element-local scratch, also lent to the ALE stage transforms.
    pub(crate) elem: Vec<f64>,
}

/// Coefficients of the four tensor terms of the elemental operator
/// kc·K + λM on an hx × hy × hz box, in the order Kₓ⊗M_y⊗M_z,
/// Mₓ⊗K_y⊗M_z, Mₓ⊗M_y⊗K_z, Mₓ⊗M_y⊗M_z.
pub fn helm_coefs([hx, hy, hz]: [f64; 3], lambda: f64, kc: f64) -> [f64; 4] {
    let (sx, sy, sz) = (hx / 2.0, hy / 2.0, hz / 2.0);
    [kc * sy * sz / sx, kc * sx * sz / sy, kc * sx * sy / sz, lambda * sx * sy * sz]
}

/// Scatter-adds the elemental Helmholtz operator of every element `e` of
/// `elems` — [`helm_coefs`] `coefs(e)` of the 1-D `mats` `[M, K]` (nm × nm,
/// modal or nodal), local dofs `dofs[e·nm³..][..nm³]` — applied to `x`
/// into `y`, by sum factorisation with shared
/// intermediates: 7 sweeps, 14·nm⁴ flops, where the four terms taken one
/// by one cost 12 and 24·nm⁴:
///
/// ```text
/// u = Mₓ x          v = (a·Kₓ + d·Mₓ) x
/// w = M_y u         s = M_y v + b·K_y u
/// y = M_z s + c·K_z w
/// ```
///
/// [`LANES`] elements at a time: each block is gathered into mode-major,
/// element-minor tiles and every sweep runs over all lanes at once, each
/// lane with its own scaled matrices. Every value sees the operations a
/// lone element would, in the same order, and the block is scatter-added
/// element by element in list order; the unused lanes of a short last
/// block are computed and never read. `scratch` holds at least
/// `LANES·(6·nm³ + 3·nm²) + nm³` doubles. The mode counts of the orders the
/// solvers run (2–4) are compile-time constants of the one body below;
/// any other order takes the same body with the count `nm`, and
/// each runs at the host's vector width through [`nkt_blas::isa`].
#[allow(clippy::too_many_arguments)]
fn apply_elems(
    nm: usize,
    mats: [&[f64]; 2],
    elems: &[usize],
    dofs: &[usize],
    coefs: impl Fn(usize) -> [f64; 4],
    x: &[f64],
    y: &mut [f64],
    scratch: &mut [f64],
) {
    match nm {
        3 => dispatch(ApplyElems::<_, 3>(nm, mats, elems, dofs, coefs, x, y, scratch)),
        4 => dispatch(ApplyElems::<_, 4>(nm, mats, elems, dofs, coefs, x, y, scratch)),
        5 => dispatch(ApplyElems::<_, 5>(nm, mats, elems, dofs, coefs, x, y, scratch)),
        _ => dispatch(ApplyElems::<_, 0>(nm, mats, elems, dofs, coefs, x, y, scratch)),
    }
}

/// [`apply_elems`]'s operands, in its order, for the mode count `NM`
/// (`0`: read from the first).
struct ApplyElems<'a, C, const NM: usize>(
    usize,
    [&'a [f64]; 2],
    &'a [usize],
    &'a [usize],
    C,
    &'a [f64],
    &'a mut [f64],
    &'a mut [f64],
);

impl<C: Fn(usize) -> [f64; 4], const NM: usize> Kernel for ApplyElems<'_, C, NM> {
    type Output = ();

    /// The one body of [`apply_elems`], inlined into both builds.
    #[inline(always)]
    fn run(self) {
        let Self(nm, [mass, stiff], elems, dofs, coefs, x, y, scratch) = self;
        const L: usize = LANES;
        let nm = if NM == 0 { nm } else { NM };
        let (n2, n3) = (nm * nm, nm * nm * nm);
        let (mass, stiff) = (&mass[..n2], &stiff[..n2]);
        let mut rest = scratch;
        let mut take = |n: usize| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(n);
            rest = tail;
            head
        };
        let (cx, by, cz) = (take(n2 * L), take(n2 * L), take(n2 * L));
        // Six calls, not `[(); 6].map(..)`: `array::map` is not inlined
        // across codegen units, and out of line it cost ≈ 9 % of a step.
        let n3l = n3 * L;
        let [xt, u, v, w, s, yt] =
            [take(n3l), take(n3l), take(n3l), take(n3l), take(n3l), take(n3l)];
        let ye = take(n3);
        let [ax, ay, az] = Axis::tensor(nm, nm).map(|a| Axis { pre: a.pre * L, ..a });
        let mut coef = [[0.0; L]; 4];
        for block in elems.chunks(L) {
            for (e, &le) in block.iter().enumerate() {
                [coef[0][e], coef[1][e], coef[2][e], coef[3][e]] = coefs(le);
                for (m, &l) in dofs[le * n3..][..n3].iter().enumerate() {
                    xt[m * L + e] = x[l];
                }
            }
            let [a, b, c, d] = &coef;
            let lane_mats = cx.chunks_exact_mut(L).zip(by.chunks_exact_mut(L));
            for (i, ((cxi, byi), czi)) in lane_mats.zip(cz.chunks_exact_mut(L)).enumerate() {
                for e in 0..L {
                    cxi[e] = a[e] * stiff[i] + d[e] * mass[i];
                    byi[e] = b[e] * stiff[i];
                    czi[e] = c[e] * stiff[i];
                }
            }
            sweep::<false, L>(mass, 1, ax, xt, u);
            sweep::<false, L>(cx, L, ax, xt, v);
            sweep::<false, L>(mass, 1, ay, u, w);
            sweep::<false, L>(mass, 1, ay, v, s);
            sweep::<true, L>(by, L, ay, u, s);
            sweep::<false, L>(mass, 1, az, s, yt);
            sweep::<true, L>(cz, L, az, w, yt);
            for (e, &le) in block.iter().enumerate() {
                for (m, ym) in ye.iter_mut().enumerate() {
                    *ym = yt[m * L + e];
                }
                for (&l, ym) in dofs[le * n3..][..n3].iter().zip(&*ye) {
                    y[l] += ym;
                }
            }
        }
    }
}

/// Scatter-adds T ⊗ T ⊗ T x_e of every element `e` of `elems` (local dofs
/// `dofs[e·nm³..][..nm³]`) into `y`, where `table` is the column-major
/// nm × nm sweep table T — [`Oper1d`]'s V⁻ᵀ, V⁻¹ or V: one [`hex_pass`],
/// three sweeps of the one table, 6·nm⁴ flops.
fn basis_elems(
    nm: usize,
    table: &[f64],
    elems: &[usize],
    dofs: &[usize],
    x: &[f64],
    y: &mut [f64],
    scratch: &mut [f64],
) {
    let (tabs, gather, scatter) = (&[[table; 3]], Gather::Dofs(x), Scatter::Dofs(y));
    hex_pass(Isa::host(), [nm, nm], tabs, elems, dofs, gather, scatter, scratch);
}

/// What a [`hex_pass`] reads of each element.
#[derive(Clone, Copy)]
enum Gather<'a> {
    /// Its modes' values in a dof vector, through its local dofs: the
    /// input of every output.
    Dofs(&'a [f64]),
    /// Values at its points, `n_in³` an element (owned element `le` at
    /// `le·n_in³`): output `k` reads the `k`-th.
    Points(&'a [&'a [f64]]),
}

/// Where a [`hex_pass`] puts each element's outputs.
enum Scatter<'a, 'b> {
    /// Output `k` of owned element `le` into `outs[k][le·n_out³..]`; with
    /// a metric `h` (the elements' box sizes), as (v·2)/h[le][k], a
    /// reference derivative in direction `k` made physical.
    Points(&'a mut [&'b mut [f64]], Option<&'a [[f64; 3]]>),
    /// Every output scatter-added into a dof vector through the element's
    /// local dofs: element by element in list order, then output by
    /// output.
    Dofs(&'a mut [f64]),
}

/// A hex pass's per-lane steps: one plane an element, its modes through
/// `dofs` (nm³ each) on the dof side and `points` values on the other.
struct HexSteps<'a, 'b> {
    modes: usize,
    points: usize,
    dofs: &'a [usize],
    gather: Gather<'a>,
    scatter: Scatter<'a, 'b>,
}

impl Steps for HexSteps<'_, '_> {
    #[inline(always)]
    fn gather(&mut self, run: &Run, k: usize, x: &mut [f64]) {
        let (le, e) = (run.elem, run.lane);
        match self.gather {
            Gather::Dofs(v) => {
                let md = self.dofs[le * self.modes..][..self.modes].iter();
                md.enumerate().for_each(|(m, &l)| x[m * LANES + e] = v[l]);
            }
            Gather::Points(fq) => {
                let fe = fq[k][le * self.points..][..self.points].iter();
                fe.enumerate().for_each(|(q, &f)| x[q * LANES + e] = f);
            }
        }
    }

    #[inline(always)]
    fn scatter(&mut self, run: &Run, y: &[f64]) {
        let (le, e) = (run.elem, run.lane);
        match &mut self.scatter {
            Scatter::Points(outs, metric) => {
                let n = self.points;
                for (k, (out, yk)) in outs.iter_mut().zip(y.chunks_exact(n * LANES)).enumerate() {
                    let out = out[le * n..][..n].iter_mut().enumerate();
                    if let Some(h) = metric {
                        let hk = h[le][k];
                        out.for_each(|(q, o)| *o = yk[q * LANES + e] * 2.0 / hk);
                    } else {
                        out.for_each(|(q, o)| *o = yk[q * LANES + e]);
                    }
                }
            }
            Scatter::Dofs(v) => {
                let n = self.modes;
                for yk in y.chunks_exact(n * LANES) {
                    for (m, &l) in self.dofs[le * n..][..n].iter().enumerate() {
                        v[l] += yk[m * LANES + e];
                    }
                }
            }
        }
    }
}

/// Runs the elemental tensor transform of every element of `elems`
/// through [`nkt_blas::transform`] in the build `isa`: for every output
/// `k`, the three sweeps of `tabs[k]` (x, then y, then z) take the
/// element's `n_in³` input to `n_out³` values — modes to quadrature
/// points, points to modes, or modes to modes, `[n_in, n_out]` = `n` —
/// [`LANES`] elements a block. `scratch` holds at least
/// [`nkt_blas::transform::scratch_len`] doubles of three outputs
/// ([`Oper1d::scratch_len`]).
#[allow(clippy::too_many_arguments)]
fn hex_pass(
    isa: Isa,
    n: [usize; 2],
    tabs: &[[&[f64]; 3]],
    elems: &[usize],
    dofs: &[usize],
    gather: Gather,
    scatter: Scatter,
    scratch: &mut [f64],
) {
    let shared = matches!(gather, Gather::Dofs(_));
    if let Gather::Points(fq) = gather {
        assert_eq!(fq.len(), tabs.len(), "one input per output");
    }
    let [modes, points] = [n[0].min(n[1]), n[0].max(n[1])].map(|c| c * c * c);
    let steps = &mut HexSteps { modes, points, dofs, gather, scatter };
    let (sum, planes) = (false, 1);
    transform(isa, Pass { n, tabs, shared, sum, elems, planes, steps, scratch });
}

#[cfg(test)]
mod tests {
    use super::*;
    use nkt_blas::isa::Isa;
    use nkt_mesh::box_hexes;
    use nkt_net::{cluster, NetId};
    use nkt_partition::{partition_kway, Graph, PartitionOptions};
    use nkt_testkit::{one_of, prop_assert, prop_check, Rng};

    fn run<R: Send, F: Fn(&mut Comm) -> R + Sync>(
        p: usize,
        net: nkt_net::ClusterNetwork,
        f: F,
    ) -> Vec<R> {
        World::builder().ranks(p).net(net).run(f)
    }

    #[test]
    fn oper1d_spd() {
        let op = Oper1d::new(4);
        let mut m = op.mass.clone();
        nkt_blas::dpotrf(op.nm, &mut m, op.nm).expect("1-D mass SPD");
        // Stiffness annihilates constants: K (vertex sum) = 0 row sums
        // for the constant function = psi_0 + psi_P.
        let nm = op.nm;
        for i in 0..nm {
            let s = op.stiff[i] + op.stiff[i + (nm - 1) * nm];
            assert!(s.abs() < 1e-12, "row {i}: {s}");
        }
    }

    /// The dense oracle: one entry of the elemental kc·K + λM matrix on
    /// an hx × hy × hz box, straight from the tensor definition.
    fn elem_entry(
        op: &Oper1d,
        [hx, hy, hz]: [f64; 3],
        (lambda, kc): (f64, f64),
        [i1, j1, k1]: [usize; 3],
        [i2, j2, k2]: [usize; 3],
    ) -> f64 {
        let nm = op.nm;
        let m = |a: usize, b: usize| op.mass[a + b * nm];
        let k = |a: usize, b: usize| op.stiff[a + b * nm];
        let (sx, sy, sz) = (hx / 2.0, hy / 2.0, hz / 2.0);
        // K = Kx My Mz (sy sz / sx) + Mx Ky Mz (sx sz / sy) + Mx My Kz (sx sy / sz)
        // M = Mx My Mz (sx sy sz)
        kc * (k(i1, i2) * m(j1, j2) * m(k1, k2) * (sy * sz / sx)
            + m(i1, i2) * k(j1, j2) * m(k1, k2) * (sx * sz / sy)
            + m(i1, i2) * m(j1, j2) * k(k1, k2) * (sx * sy / sz))
            + lambda * m(i1, i2) * m(j1, j2) * m(k1, k2) * (sx * sy * sz)
    }

    fn triple(m: usize, n: usize) -> [usize; 3] {
        [m % n, (m / n) % n, m / (n * n)]
    }

    /// The lane kernel against the dense matrix on every row of every
    /// element: lists of 1, L − 1, L, L + 1 and 2L + 3 elements, each with
    /// its own box and (λ, kc), at orders 2–5 (the three compile-time
    /// mode counts and the runtime one). Element `e` owns the dof block
    /// `n − 1 − e`, so neither gather nor scatter is the identity. The
    /// unused lanes of a short last block hold NaN (the scratch starts as
    /// NaN) or the block before's elements; either reaching `y` fails.
    #[test]
    fn apply_elems_matches_entries() {
        let mut rng = Rng::new(0x1a9e5);
        for order in 2..=5 {
            let op = Oper1d::new(order);
            let (nm, n3) = (op.nm, op.nm.pow(3));
            for n in [1, LANES - 1, LANES, LANES + 1, 2 * LANES + 3] {
                let elem: Vec<([f64; 3], f64, f64)> = (0..n)
                    .map(|_| {
                        let h = [(); 3].map(|_| rng.range_f64(0.1, 3.0));
                        (h, rng.range_f64(0.0, 50.0), [0.0, 1.0, 0.37][rng.below(3) as usize])
                    })
                    .collect();
                let (dofs, elems) = reversed_blocks(n, n3);
                let x: Vec<f64> = (0..n * n3).map(|_| rng.range_f64(-1.0, 1.0)).collect();
                let (mut y, mut scratch) = (vec![0.0; n * n3], vec![f64::NAN; op.scratch_len()]);
                let coefs = |e: usize| helm_coefs(elem[e].0, elem[e].1, elem[e].2);
                let mats = [&op.mass[..], &op.stiff];
                apply_elems(nm, mats, &elems, &dofs, coefs, &x, &mut y, &mut scratch);
                for (e, &(h, lambda, kc)) in elem.iter().enumerate() {
                    let d = &dofs[e * n3..][..n3];
                    for row in 0..n3 {
                        let (mut s, mut scale) = (0.0, 0.0);
                        for col in 0..n3 {
                            let (r, c) = (triple(row, nm), triple(col, nm));
                            let t = elem_entry(&op, h, (lambda, kc), r, c) * x[d[col]];
                            s += t;
                            scale += t.abs();
                        }
                        let got = y[d[row]];
                        assert!(
                            (got - s).abs() <= 1e-10 * scale,
                            "order {order}, {n} elements, element {e} row {row}: {got} vs {s}"
                        );
                    }
                }
            }
        }
    }

    /// Element `e` of `n` owning dof block `n − 1 − e` (neither gather
    /// nor scatter is the identity), and the list of all `n`.
    fn reversed_blocks(n: usize, n3: usize) -> (Vec<usize>, Vec<usize>) {
        ((0..n).rev().flat_map(|b| b * n3..(b + 1) * n3).collect(), (0..n).collect())
    }

    /// The V pass of [`basis_elems`] gives a modal field's values at the
    /// GLL nodes (tabulated straight from the basis, one element at a
    /// time) and the V⁻¹ pass recovers the field from them, each to 1e-13,
    /// and ⟨V⁻ᵀx, y⟩ = ⟨x, V⁻¹y⟩ to 1e-13: at
    /// orders 1–5 (the three compile-time mode counts and the `NM = 0`
    /// body) and lists of 1, L − 1, L + 1 and 2L + 3 elements, NaN scratch.
    #[test]
    fn basis_elems_round_trips_nodal_values() {
        let mut rng = Rng::new(0x9a11);
        for order in 1..=5 {
            let op = Oper1d::new(order);
            let (nm, n3) = (op.nm, op.nm.pow(3));
            let nodes = nkt_poly::quadrature::zwglj(nm, 0.0, 0.0);
            let psi = Basis1d::tabulate(order, &nodes.z, &nodes.w).val;
            let [vit, vi, v] = &op.nodal;
            for n in [1, LANES - 1, LANES + 1, 2 * LANES + 3] {
                let (dofs, elems) = reversed_blocks(n, n3);
                let x: Vec<f64> = (0..n * n3).map(|_| rng.range_f64(-1.0, 1.0)).collect();
                let mut nodal = vec![0.0; n * n3];
                for d in dofs.chunks_exact(n3) {
                    for (node, &l) in d.iter().enumerate() {
                        let [a, b, c] = triple(node, nm);
                        nodal[l] = (0..n3)
                            .map(|m| {
                                let [i, j, k] = triple(m, nm);
                                psi[i][a] * psi[j][b] * psi[k][c] * x[d[m]]
                            })
                            .sum();
                    }
                }
                let case = format!("order {order}, {n} elements");
                let mut scratch = vec![f64::NAN; op.scratch_len()];
                let mut got = vec![0.0; n * n3];
                basis_elems(nm, v, &elems, &dofs, &x, &mut got, &mut scratch);
                for (i, (g, want)) in got.iter().zip(&nodal).enumerate() {
                    assert!((g - want).abs() <= 1e-13, "{case}, node {i}: {g} vs {want}");
                }
                got.fill(0.0);
                basis_elems(nm, vi, &elems, &dofs, &nodal, &mut got, &mut scratch);
                for (i, (g, want)) in got.iter().zip(&x).enumerate() {
                    assert!((g - want).abs() <= 1e-13, "{case}, dof {i}: {g} vs {want}");
                }
                let y: Vec<f64> = (0..n * n3).map(|_| rng.range_f64(-1.0, 1.0)).collect();
                let (mut vtx, mut vy) = (vec![0.0; n * n3], vec![0.0; n * n3]);
                basis_elems(nm, vit, &elems, &dofs, &x, &mut vtx, &mut scratch);
                basis_elems(nm, vi, &elems, &dofs, &y, &mut vy, &mut scratch);
                let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(a, b)| a * b).sum::<f64>();
                let (lhs, rhs) = (dot(&vtx, &y), dot(&x, &vy));
                assert!((lhs - rhs).abs() <= 1e-13 * lhs.abs().max(1.0), "{case}: {lhs} vs {rhs}");
            }
        }
    }

    /// Runs mode count `NM`'s kernels — [`apply_elems`]'s, then
    /// [`basis_elems`]'s with V⁻ᵀ, V⁻¹ and V, on `x` — in every build the
    /// host has (the portable one and, with AVX2, the AVX2 one) on `coef`'s
    /// elements (element `e` owning dof block `n − 1 − e`) from the same
    /// `y0` and NaN scratch; fails unless every output is the same bits.
    /// Returns whether the AVX2 build ran.
    fn builds_agree<const NM: usize>(
        op: &Oper1d,
        coef: &[[f64; 4]],
        x: &[f64],
        y0: &[f64],
    ) -> bool {
        let (n, n3) = (coef.len(), op.nm.pow(3));
        let (dofs, elems) = reversed_blocks(n, n3);
        let mut isas = 0;
        for table in [None, Some(0), Some(1), Some(2)] {
            let case = format!("order {}, {n} elements, table {table:?}", op.nm - 1);
            let runs: Vec<Vec<u64>> = Isa::available()
                .into_iter()
                .map(|isa| {
                    let (mut y, mut scratch) = (y0.to_vec(), vec![f64::NAN; op.scratch_len()]);
                    let (coefs, y, s) = (|e: usize| coef[e], &mut y[..], &mut scratch[..]);
                    if let Some(t) = table {
                        let tabs = &[[&op.nodal[t][..]; 3]];
                        run_pass(
                            isa,
                            [op.nm; 2],
                            tabs,
                            &elems,
                            &dofs,
                            Gather::Dofs(x),
                            Scatter::Dofs(y),
                        );
                    } else {
                        let mats = [&op.mass[..], &op.stiff];
                        isa.run(ApplyElems::<_, NM>(op.nm, mats, &elems, &dofs, coefs, x, y, s));
                    }
                    assert!(y.iter().all(|v| v.is_finite()), "{isa:?}, {case}");
                    y.iter().map(|v| v.to_bits()).collect()
                })
                .collect();
            assert!(runs.iter().all(|r| *r == runs[0]), "{case}");
            isas = runs.len();
        }
        isas > 1
    }

    /// The AVX2 builds of the kernels against the portable ones, every
    /// output to the bit: lists of 1, L − 1, L, L + 1 and 2L + 3 elements,
    /// each with its own box and (λ, kc), at orders 2–4 (the three compile-time
    /// mode counts) and 1 and 5 (the `NM = 0` body), NaN scratch, `y`
    /// starting from nonzero values. On a host without AVX2 only the
    /// portable body runs, and the test says so.
    #[test]
    fn avx2_kernel_equals_the_portable_one_bit_for_bit() {
        let mut rng = Rng::new(0xa5e2);
        let mut avx2 = false;
        for order in 1..=5 {
            let op = Oper1d::new(order);
            let n3 = op.nm.pow(3);
            for n in [1, LANES - 1, LANES, LANES + 1, 2 * LANES + 3] {
                let coef: Vec<[f64; 4]> = (0..n)
                    .map(|_| {
                        let h = [(); 3].map(|_| rng.range_f64(0.1, 3.0));
                        let kc = [0.0, 1.0, 0.37][rng.below(3) as usize];
                        helm_coefs(h, rng.range_f64(0.0, 50.0), kc)
                    })
                    .collect();
                let x: Vec<f64> = (0..n * n3).map(|_| rng.range_f64(-1.0, 1.0)).collect();
                let y0: Vec<f64> = (0..n * n3).map(|_| rng.range_f64(-1.0, 1.0)).collect();
                avx2 = match op.nm {
                    3 => builds_agree::<3>(&op, &coef, &x, &y0),
                    4 => builds_agree::<4>(&op, &coef, &x, &y0),
                    5 => builds_agree::<5>(&op, &coef, &x, &y0),
                    _ => builds_agree::<0>(&op, &coef, &x, &y0),
                };
            }
        }
        if !avx2 {
            eprintln!("no AVX2 on this host: only the portable kernel ran");
        }
    }

    /// The per-element kernel the lanes replaced — one element's seven
    /// sweeps, with its own scaled matrices — kept as the reference they
    /// must equal bit for bit.
    fn apply_elem(op: &Oper1d, [a, b, c, d]: [f64; 4], x: &[f64], y: &mut [f64]) {
        let (nm, mass, stiff) = (op.nm, &op.mass[..], &op.stiff[..]);
        let cx: Vec<f64> = stiff.iter().zip(mass).map(|(k, m)| a * k + d * m).collect();
        let by: Vec<f64> = stiff.iter().map(|k| b * k).collect();
        let cz: Vec<f64> = stiff.iter().map(|k| c * k).collect();
        let mut t = vec![vec![0.0; nm.pow(3)]; 4];
        let [u, v, w, s] = &mut t[..] else { unreachable!() };
        let [ax, ay, az] = Axis::tensor(nm, nm);
        sweep::<false, 1>(mass, 1, ax, x, u);
        sweep::<false, 1>(&cx, 1, ax, x, v);
        sweep::<false, 1>(mass, 1, ay, u, w);
        sweep::<false, 1>(mass, 1, ay, v, s);
        sweep::<true, 1>(&by, 1, ay, u, s);
        sweep::<false, 1>(mass, 1, az, s, y);
        sweep::<true, 1>(&cz, 1, az, w, y);
    }

    /// `apply` against [`apply_elem`] element by element in the same
    /// boundary-then-interior order, then the exchange and the identity
    /// rows: equal to the bit on `wing_box_mesh(1)`, on 1 and 2 ranks,
    /// with the halo exchange overlapped and not.
    #[test]
    fn apply_equals_the_per_element_kernel_bit_for_bit() {
        let mesh = nkt_mesh::wing_box_mesh(1);
        let numbering = HexNumbering::build(&mesh, 2);
        let tagged = numbering.tagged(&mesh, &[BoundaryTag::Inflow, BoundaryTag::Wall]);
        for ranks in [1, 2] {
            let dual = Graph::from_edges(mesh.nelems(), &mesh.dual_edges());
            let part = partition_kway(&dual, ranks, &PartitionOptions::default());
            run(ranks, cluster(NetId::T3e), |c| {
                let mut h = HexHelmholtz::new(c, &mesh, &numbering, &part);
                let (coefs, bc) = ([250.0, 1.0], h.dirichlet(&tagged));
                let x: Vec<f64> = h.local_gids.iter().map(|&g| (g as f64 * 0.37).sin()).collect();
                let mut want = vec![0.0; h.nlocal()];
                let mut ye = vec![0.0; h.nm3()];
                for &le in h.elem_boundary.iter().chain(&h.elem_interior) {
                    let xe: Vec<f64> = h.elem_dofs(le).iter().map(|&l| x[l]).collect();
                    apply_elem(&h.op1, h.elem_coefs(le, coefs), &xe, &mut ye);
                    for (&l, v) in h.elem_dofs(le).iter().zip(&ye) {
                        want[l] += v;
                    }
                }
                h.gs.exchange(c, &mut want, ReduceOp::Sum);
                for &l in &bc.rows {
                    want[l] = x[l];
                }
                let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
                for overlap in [true, false] {
                    h.set_gs_overlap(overlap);
                    let mut got = vec![f64::NAN; h.nlocal()];
                    let (scratch, rec) = (&mut Vec::new(), &mut Recorder::disabled());
                    h.apply(false, c, coefs, &bc, &x, &mut got, scratch, rec);
                    assert!(bits(&got) == bits(&want), "{ranks} rank(s), overlap {overlap}");
                }
            });
        }
    }

    /// A whole λ > 0 solve — its applies and its three changes of basis,
    /// one exchange each — gives the same iterate,
    /// bit for bit, with the halo exchange overlapped and not, on 2 ranks.
    #[test]
    fn a_two_rank_solve_is_bitwise_equal_with_overlap_on_and_off() {
        let mesh = nkt_mesh::wing_box_mesh(1);
        let numbering = HexNumbering::build(&mesh, 2);
        let tagged = numbering.tagged(&mesh, &[BoundaryTag::Inflow, BoundaryTag::Wall]);
        let dual = Graph::from_edges(mesh.nelems(), &mesh.dual_edges());
        let part = partition_kway(&dual, 2, &PartitionOptions::default());
        run(2, cluster(NetId::T3e), |c| {
            let mut h = HexHelmholtz::new(c, &mesh, &numbering, &part);
            let bc = h.dirichlet(&tagged);
            let b: Vec<f64> = h.local_gids.iter().map(|&g| (g as f64 * 0.11).cos()).collect();
            let solve = |h: &HexHelmholtz, c: &mut Comm| {
                let (mut x, mut ws) = (vec![0.0; h.nlocal()], HexWorkspace::default());
                let rec = &mut Recorder::disabled();
                let out = h.pcg(c, [250.0, 1.0], &bc, &b, &mut x, 1e-10, 500, &mut ws, rec);
                (out, x.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            };
            let on = solve(&h, c);
            h.set_gs_overlap(false);
            assert!(on.0.converged, "{:?}", on.0);
            assert!(on == solve(&h, c), "rank {}", c.rank());
        });
    }

    /// Runs one [`hex_pass`] in the build `isa`, on NaN scratch.
    fn run_pass(
        isa: Isa,
        n: [usize; 2],
        tabs: &[[&[f64]; 3]],
        elems: &[usize],
        dofs: &[usize],
        gather: Gather,
        scatter: Scatter,
    ) {
        let scratch = &mut vec![f64::NAN; nkt_blas::transform::scratch_len::<3>(n[0], n[1], 3)];
        hex_pass(isa, n, tabs, elems, dofs, gather, scatter, scratch);
    }

    /// Quadrature values of one element's modes `x` (`deriv`: the
    /// reference derivative in that direction), through [`hex_pass`].
    fn elem_to_quad(op: &Oper1d, x: &[f64], deriv: Option<usize>) -> Vec<f64> {
        let (nm, nq) = (op.nm, op.basis.nquad());
        let (dofs, mut out) = ((0..nm.pow(3)).collect::<Vec<_>>(), vec![f64::NAN; nq.pow(3)]);
        let scatter = Scatter::Points(&mut [&mut out[..]], None);
        run_pass(
            Isa::host(),
            [nm, nq],
            &[op.tables(true, deriv)],
            &[0],
            &dofs,
            Gather::Dofs(x),
            scatter,
        );
        out
    }

    /// One element's projection Σ_q fq(q) φ_m(q) (∂φ_m in `deriv`),
    /// through [`hex_pass`].
    fn elem_to_modal(op: &Oper1d, fq: &[f64], deriv: Option<usize>) -> Vec<f64> {
        let (nm, nq) = (op.nm, op.basis.nquad());
        let (dofs, mut out) = ((0..nm.pow(3)).collect::<Vec<_>>(), vec![0.0; nm.pow(3)]);
        let (tabs, gather) = (&[op.tables(false, deriv)], Gather::Points(&[fq]));
        run_pass(Isa::host(), [nq, nm], tabs, &[0], &dofs, gather, Scatter::Dofs(&mut out));
        out
    }

    prop_check! {
        #![cases(48)]

        /// One element to the quadrature points and back (plain and with
        /// a derivative in each direction) against the tabulated basis,
        /// every output entry.
        fn transforms_match_tabulated_basis(
            order in 1usize..7,
            deriv in one_of(&[None, Some(0usize), Some(1), Some(2)]),
            seed in 0u64..u64::MAX,
        ) {
            let op = Oper1d::new(order);
            let (nm, nq) = (op.nm, op.basis.nquad());
            let (n3, q3) = (nm.pow(3), nq.pow(3));
            // φ_m (or its `deriv`-direction derivative) at point q.
            let phi = |m: usize, q: usize| -> f64 {
                let (mi, qi) = (triple(m, nm), triple(q, nq));
                (0..3)
                    .map(|d| {
                        let t = if deriv == Some(d) { &op.basis.dval } else { &op.basis.val };
                        t[mi[d]][qi[d]]
                    })
                    .product()
            };
            let mut rng = Rng::new(seed);
            let x: Vec<f64> = (0..n3).map(|_| rng.range_f64(-1.0, 1.0)).collect();
            let uq = elem_to_quad(&op, &x, deriv);
            for q in 0..q3 {
                let terms: Vec<f64> = (0..n3).map(|m| phi(m, q) * x[m]).collect();
                let (s, scale) = (terms.iter().sum::<f64>(), terms.iter().map(|t| t.abs()).sum::<f64>());
                prop_assert!((uq[q] - s).abs() <= 1e-10 * scale, "to_quad {deriv:?} point {q}");
            }
            let fq: Vec<f64> = (0..q3).map(|_| rng.range_f64(-1.0, 1.0)).collect();
            let proj = elem_to_modal(&op, &fq, deriv);
            for m in 0..n3 {
                let terms: Vec<f64> = (0..q3).map(|q| phi(m, q) * fq[q]).collect();
                let (s, scale) = (terms.iter().sum::<f64>(), terms.iter().map(|t| t.abs()).sum::<f64>());
                prop_assert!((proj[m] - s).abs() <= 1e-10 * scale, "to_modal {deriv:?} mode {m}");
            }
        }
    }

    /// The per-element transform the lane pass replaced — the three
    /// one-lane sweeps of `m` taking an `n_in³` tensor to an `n_out³` one —
    /// kept as the reference it must equal bit for bit.
    fn sweep3(m: [&[f64]; 3], n_in: usize, n_out: usize, x: &[f64], out: &mut [f64]) {
        let [ax, ay, az] = Axis::tensor(n_in, n_out);
        let mut t1 = vec![0.0; n_out * n_in * n_in];
        let mut t2 = vec![0.0; n_out * n_out * n_in];
        sweep::<false, 1>(m[0], 1, ax, x, &mut t1);
        sweep::<false, 1>(m[1], 1, ay, &t1, &mut t2);
        sweep::<false, 1>(m[2], 1, az, &t2, out);
    }

    /// Every way [`hex_pass`] runs in the solver against the
    /// per-element [`sweep3`] loop nests it replaced, in every build the
    /// host has, every output to the bit: the values and the physical
    /// gradient ((v·2)/h of each reference derivative) at the quadrature
    /// points, and projections scatter-adding one and three directions
    /// (element by element, then direction by direction) onto nonzero
    /// values. Orders 2–4 (the compile-time counts) and 6 (the runtime
    /// body); 1, L + 1 and 2L + 3 elements (a full block and short last
    /// ones), each with its own box; element `e` owns dof block
    /// `n − 1 − e`, whole or overlapping half of the next element's (so
    /// the order in which a shared dof's contributions arrive shows); NaN
    /// scratch.
    #[test]
    fn transform_equals_the_per_element_sweeps_bit_for_bit() {
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        let mut rng = Rng::new(0x7a5f);
        for order in [2, 3, 4, 6] {
            let op = Oper1d::new(order);
            let (nm, nq) = (op.nm, op.basis.nquad());
            let (n3, q3) = (nm.pow(3), nq.pow(3));
            let numberings = [1, LANES + 1, 2 * LANES + 3].map(|n| {
                [false, true].map(|shared| {
                    let (dofs, elems) = reversed_blocks(n, n3);
                    let step = if shared { n3 / 2 } else { n3 };
                    (n, dofs.iter().map(|l| l / n3 * step + l % n3).collect::<Vec<_>>(), elems)
                })
            });
            for (n, dofs, elems) in numberings.into_iter().flatten() {
                let ndof = dofs.iter().max().map_or(0, |l| l + 1);
                let mut random = |len: usize| -> Vec<f64> {
                    (0..len).map(|_| rng.range_f64(-1.0, 1.0)).collect()
                };
                let (x, y0) = (random(ndof), random(ndof));
                let fq = [random(n * q3), random(n * q3), random(n * q3)];
                let h: Vec<[f64; 3]> =
                    (0..n).map(|_| [(); 3].map(|_| rng.range_f64(0.1, 3.0))).collect();
                let case =
                    |what: &str| format!("order {order}, {n} elements on {ndof} dofs, {what}");
                // The references, one element at a time.
                let elem_x =
                    |e: usize| -> Vec<f64> { dofs[e * n3..][..n3].iter().map(|&l| x[l]).collect() };
                let mut want_val = vec![0.0; n * q3];
                let mut want_grad = vec![vec![0.0; n * q3]; 3];
                let (mut want_one, mut want_three) = (y0.clone(), y0.clone());
                let mut proj = vec![0.0; n3];
                for e in 0..n {
                    let xe = elem_x(e);
                    sweep3(op.tables(true, None), nm, nq, &xe, &mut want_val[e * q3..][..q3]);
                    for (d, wg) in want_grad.iter_mut().enumerate() {
                        let wg = &mut wg[e * q3..][..q3];
                        sweep3(op.tables(true, Some(d)), nm, nq, &xe, wg);
                        wg.iter_mut().for_each(|v| *v = *v * 2.0 / h[e][d]);
                    }
                    sweep3(op.tables(false, None), nq, nm, &fq[0][e * q3..][..q3], &mut proj);
                    for (&l, p) in dofs[e * n3..][..n3].iter().zip(&proj) {
                        want_one[l] += p;
                    }
                    for (d, fd) in fq.iter().enumerate() {
                        sweep3(op.tables(false, Some(d)), nq, nm, &fd[e * q3..][..q3], &mut proj);
                        for (&l, p) in dofs[e * n3..][..n3].iter().zip(&proj) {
                            want_three[l] += p;
                        }
                    }
                }
                let quad = |d| op.tables(true, d);
                let modal = |d| op.tables(false, d);
                let (to_q, to_m, elems, dofs) = ([nm, nq], [nq, nm], &elems[..], &dofs[..]);
                for isa in Isa::available() {
                    let mut val = vec![f64::NAN; n * q3];
                    let scatter = Scatter::Points(&mut [&mut val[..]], None);
                    run_pass(isa, to_q, &[quad(None)], elems, dofs, Gather::Dofs(&x), scatter);
                    assert!(bits(&val) == bits(&want_val), "{isa:?}, {}", case("values"));
                    let mut grad = vec![vec![f64::NAN; n * q3]; 3];
                    if let [g0, g1, g2] = &mut grad[..] {
                        let (tabs, scatter) = (
                            [0, 1, 2].map(|k| quad(Some(k))),
                            Scatter::Points(&mut [g0, g1, g2], Some(&h)),
                        );
                        run_pass(isa, to_q, &tabs, elems, dofs, Gather::Dofs(&x), scatter);
                    }
                    let ok = bits(&grad.concat()) == bits(&want_grad.concat());
                    assert!(ok, "{isa:?}, {}", case("gradient"));
                    let mut one = y0.clone();
                    let gather = Gather::Points(&[&fq[0]]);
                    run_pass(
                        isa,
                        to_m,
                        &[modal(None)],
                        elems,
                        dofs,
                        gather,
                        Scatter::Dofs(&mut one),
                    );
                    assert!(bits(&one) == bits(&want_one), "{isa:?}, {}", case("one direction"));
                    let mut three = y0.clone();
                    let (tabs, gather) = (
                        [0, 1, 2].map(|k| modal(Some(k))),
                        Gather::Points(&[&fq[0], &fq[1], &fq[2]]),
                    );
                    run_pass(isa, to_m, &tabs, elems, dofs, gather, Scatter::Dofs(&mut three));
                    let ok = bits(&three) == bits(&want_three);
                    assert!(ok, "{isa:?}, {}", case("three directions"));
                }
            }
        }
    }

    /// ⟨Ax, y⟩ = ⟨x, Ay⟩ through the assembled, exchanged `apply`, in the
    /// modal basis and in the nodal one (TᵀAT, which CG runs on), on fields
    /// that vanish on the Dirichlet dofs (whose rows are identity), for a
    /// λ > 0 and a λ = 0 operator.
    fn apply_symmetry_test(p_ranks: usize) {
        let mesh = box_hexes(0.0, 2.0, 0.0, 1.0, 0.0, 1.5, 3, 2, 2);
        let numbering = HexNumbering::build(&mesh, 3);
        let tagged = numbering.tagged(&mesh, &[BoundaryTag::Inflow, BoundaryTag::Side]);
        let dual = Graph::from_edges(mesh.nelems(), &mesh.dual_edges());
        let part = partition_kway(&dual, p_ranks, &PartitionOptions::default());
        let out = run(p_ranks, cluster(NetId::T3e), |c| {
            let h = HexHelmholtz::new(c, &mesh, &numbering, &part);
            let bc = h.dirichlet(&tagged);
            [7.5, 0.0].map(|lambda| symmetry_probe(c, &h, &bc, [lambda, 1.0]))
        });
        let ops = ["modal", "nodal"].into_iter().cycle();
        for (op, (axy, xay)) in ops.zip(out.into_iter().flatten().flatten()) {
            assert!(axy.abs() > 1.0, "degenerate {op} probe: {axy}");
            assert!((axy - xay).abs() <= 1e-12 * axy.abs(), "{op}, P={p_ranks}: {axy} vs {xay}");
        }
    }

    /// (⟨Ax, y⟩, ⟨x, Ay⟩) of `h`'s member `coefs` with pattern `bc`, in the
    /// modal and the nodal basis, for two fields vanishing on its rows.
    /// Collective.
    fn symmetry_probe(
        c: &mut Comm,
        h: &HexHelmholtz,
        bc: &Dirichlet,
        coefs: [f64; 2],
    ) -> [(f64, f64); 2] {
        // GS-consistent by construction: a function of the global id.
        let field = |phase: f64| -> Vec<f64> {
            let mut f: Vec<f64> =
                h.local_gids.iter().map(|&g| (g as f64 * 0.37 + phase).sin()).collect();
            bc.rows.iter().for_each(|&l| f[l] = 0.0);
            f
        };
        let (x, y) = (field(0.0), field(1.3));
        let (mut ax, mut ay) = (vec![0.0; h.nlocal()], vec![0.0; h.nlocal()]);
        let (mut scratch, mut rec) = (Vec::new(), Recorder::disabled());
        [false, true].map(|nodal| {
            h.apply(nodal, c, coefs, bc, &x, &mut ax, &mut scratch, &mut rec);
            h.apply(nodal, c, coefs, bc, &y, &mut ay, &mut scratch, &mut rec);
            (h.dot(c, &ax, &y), h.dot(c, &x, &ay))
        })
    }

    /// D, as `nodal_diag` builds it, is the diagonal of the assembled
    /// nodal operator TᵀAT probed with unit vectors, to 1e-13 relative,
    /// and 1 on the pattern's rows: a 2 × 2 × 2 box of unequal sides at
    /// orders 2–4, on 2 ranks, for a λ > 0 and a λ = 0 member.
    #[test]
    fn the_nodal_diagonal_is_the_nodal_operators() {
        let mesh = box_hexes(0.0, 2.0, 0.0, 1.0, 0.0, 1.5, 2, 2, 2);
        let dual = Graph::from_edges(mesh.nelems(), &mesh.dual_edges());
        let part = partition_kway(&dual, 2, &PartitionOptions::default());
        for order in 2..=4 {
            let numbering = HexNumbering::build(&mesh, order);
            let tagged = numbering.tagged(&mesh, &[BoundaryTag::Inflow, BoundaryTag::Side]);
            run(2, cluster(NetId::T3e), |c| {
                let h = HexHelmholtz::new(c, &mesh, &numbering, &part);
                let bc = h.dirichlet(&tagged);
                let (mut x, mut y) = (vec![0.0; h.nlocal()], vec![0.0; h.nlocal()]);
                let mut diag = Vec::new();
                let (scratch, rec) = (&mut Vec::new(), &mut Recorder::disabled());
                for coefs in [[7.5, 1.0], LAPLACE] {
                    h.nodal_diag(c, coefs, &bc, &mut diag);
                    for g in 0..numbering.ndof_global {
                        for (xi, &gi) in x.iter_mut().zip(&h.local_gids) {
                            *xi = f64::from(gi == g);
                        }
                        h.apply(true, c, coefs, &bc, &x, &mut y, scratch, rec);
                        if let Some(l) = h.local_gids.iter().position(|&gi| gi == g) {
                            let (d, a) = (diag[l], y[l]);
                            let case = format!("order {order}, {coefs:?}, dof {g}");
                            assert!((d - a).abs() <= 1e-13 * a.abs(), "{case}: {d} vs {a}");
                        }
                    }
                    assert!(bc.rows.iter().all(|&l| diag[l] == 1.0), "order {order}, {coefs:?}");
                }
            });
        }
    }

    #[test]
    fn apply_is_symmetric_single_rank() {
        apply_symmetry_test(1);
    }

    #[test]
    fn apply_is_symmetric_two_ranks() {
        apply_symmetry_test(2);
    }

    /// One solve on `wing_box_mesh(1)` at `order` from zero to 1e-6, of
    /// the member `coefs` of the operator with Dirichlet faces
    /// `tags`, on the fixed right-hand side b_g = cos(0.11 g).
    fn wing_solve(order: usize, tags: &[BoundaryTag], coefs: [f64; 2]) -> PcgOutcome {
        let mesh = nkt_mesh::wing_box_mesh(1);
        let numbering = HexNumbering::build(&mesh, order);
        let tagged = numbering.tagged(&mesh, tags);
        let part = vec![0u8; mesh.nelems()];
        let out = run(1, cluster(NetId::T3e), |c| {
            let h = HexHelmholtz::new(c, &mesh, &numbering, &part);
            let bc = h.dirichlet(&tagged);
            let b: Vec<f64> = h.local_gids.iter().map(|&g| (g as f64 * 0.11).cos()).collect();
            let mut x = vec![0.0; h.nlocal()];
            let mut ws = HexWorkspace::default();
            h.pcg(c, coefs, &bc, &b, &mut x, 1e-6, 2000, &mut ws, &mut Recorder::disabled())
        });
        out[0]
    }

    /// The wing's mass matrix (the ALE's L2 projection) converges in ≤ 40
    /// iterations at orders 2, 3 and 4 (modal Jacobi took 428 at order 2;
    /// the element inverse 93 / 105 / 332).
    #[test]
    fn a_wing_mass_solve_takes_few_iterations() {
        let tags = [BoundaryTag::Inflow, BoundaryTag::Wall, BoundaryTag::Side];
        for order in 2..=4 {
            let out = wing_solve(order, &tags, MASS);
            assert!(out.converged && out.iters <= 40, "order {order}: {out:?}");
        }
    }

    /// The wing's pressure Poisson operator (λ = 0, Dirichlet at the
    /// outflow) converges in ≤ 80 iterations at order 2 (modal Jacobi
    /// took 164).
    #[test]
    fn a_wing_pressure_solve_takes_few_iterations() {
        let out = wing_solve(2, &[BoundaryTag::Outflow], LAPLACE);
        assert!(out.converged && out.iters <= 80, "{out:?}");
    }

    /// The wing's four kinds of solve, order 2 on one rank — the mass
    /// projection, the pressure Poisson solve (Outflow), the mesh-velocity
    /// Laplace solve (all four faces, zero right-hand side, the Wall rows
    /// at a nonzero speed) and the ramp velocity member (λ = 1/(ν Δt) of
    /// the demo): a solve to 1e-8 from a nonzero guess agrees with one to
    /// 1e-13 from zero to 1e-6 relative, the modal residual of the tight
    /// one, b − Ax through `apply`, is below 1e-9 of b, and both hold the
    /// pattern's rows at its values bit for bit.
    #[test]
    fn a_loose_wing_solve_agrees_with_a_tight_one() {
        use BoundaryTag::{Inflow, Outflow, Side, Wall};
        let mesh = nkt_mesh::wing_box_mesh(1);
        let numbering = HexNumbering::build(&mesh, 2);
        let wall = numbering.tagged(&mesh, &[Wall]);
        let part = vec![0u8; mesh.nelems()];
        let solves: [(&str, [f64; 2], &[BoundaryTag], bool); 4] = [
            ("mass", MASS, &[Inflow, Wall, Side], false),
            ("pressure", LAPLACE, &[Outflow], false),
            ("mesh velocity", LAPLACE, &[Inflow, Wall, Side, Outflow], true),
            ("ramp velocity", [1.0 / (1e-3 * 2e-3), 1.0], &[Inflow, Wall, Side], false),
        ];
        for (name, coefs, tags, moving) in solves {
            let tagged = numbering.tagged(&mesh, tags);
            run(1, cluster(NetId::T3e), |c| {
                let h = HexHelmholtz::new(c, &mesh, &numbering, &part);
                let mut bc = h.dirichlet(&tagged);
                let gids = |f: fn(f64) -> f64| -> Vec<f64> {
                    h.local_gids.iter().map(|&g| f(g as f64)).collect()
                };
                let b = if moving { vec![0.0; h.nlocal()] } else { gids(|g| (g * 0.11).cos()) };
                if moving {
                    for (&l, v) in bc.rows.iter().zip(&mut bc.values) {
                        *v = if wall.contains(&h.local_gids[l]) { 0.3 } else { 0.0 };
                    }
                }
                let (mut ws, rec) = (HexWorkspace::default(), &mut Recorder::disabled());
                let mut solve = |tol: f64, mut x: Vec<f64>| {
                    let out = h.pcg(c, coefs, &bc, &b, &mut x, tol, 5000, &mut ws, rec);
                    assert!(out.converged, "{name} at {tol}: {out:?}");
                    for (&l, &v) in bc.rows.iter().zip(&bc.values) {
                        assert!(x[l].to_bits() == v.to_bits(), "{name}, row {l}: {} vs {v}", x[l]);
                    }
                    x
                };
                let loose = solve(1e-8, gids(|g| (g * 0.37).sin()));
                let tight = solve(1e-13, vec![0.0; h.nlocal()]);
                let diff: Vec<f64> = loose.iter().zip(&tight).map(|(a, b)| a - b).collect();
                let norm = |c: &mut Comm, v: &[f64]| h.dot(c, v, v).sqrt();
                let (err, scale) = (norm(c, &diff), norm(c, &tight));
                assert!(err <= 1e-6 * scale, "{name}: |loose - tight| {err} vs |tight| {scale}");
                let mut bb = b.clone();
                bc.rows.iter().zip(&bc.values).for_each(|(&l, &v)| bb[l] = v);
                let mut ax = vec![0.0; h.nlocal()];
                h.apply(false, c, coefs, &bc, &tight, &mut ax, &mut ws.elem, rec);
                let res: Vec<f64> = bb.iter().zip(&ax).map(|(b, a)| b - a).collect();
                let (res, bnorm) = (norm(c, &res), norm(c, &bb));
                assert!(res <= 1e-9 * bnorm, "{name}: |b - Ax| {res} vs |b| {bnorm}");
            });
        }
    }

    #[test]
    fn numbering_counts_on_two_hexes() {
        let mesh = box_hexes(0.0, 2.0, 0.0, 1.0, 0.0, 1.0, 2, 1, 1);
        let p = 3;
        let n = HexNumbering::build(&mesh, p);
        // Expected: 12 vertices + 20 edges*(p-1) + 11 faces*(p-1)^2 +
        // 2 interiors*(p-1)^3.
        let expect = 12 + 20 * (p - 1) as u64 + 11 * ((p - 1) * (p - 1)) as u64
            + 2 * ((p - 1) * (p - 1) * (p - 1)) as u64;
        assert_eq!(n.ndof_global, expect);
    }

    #[test]
    fn shared_face_dofs_coincide() {
        let mesh = box_hexes(0.0, 2.0, 0.0, 1.0, 0.0, 1.0, 2, 1, 1);
        let p = 2;
        let n = HexNumbering::build(&mesh, p);
        // Count how many dofs appear in both elements: a full face worth:
        // (p+1)^2 distinct dofs.
        use std::collections::HashSet;
        let a: HashSet<u64> = n.elem_dofs[0].iter().copied().collect();
        let b: HashSet<u64> = n.elem_dofs[1].iter().copied().collect();
        let shared = a.intersection(&b).count();
        assert_eq!(shared, (p + 1) * (p + 1));
    }

    fn poisson_box_test(p_ranks: usize) {
        // -∇²u = 3π² sin(πx)sin(πy)sin(πz) on the unit box, u = 0 on ∂Ω.
        let pi = std::f64::consts::PI;
        let order = 3;
        let mesh = box_hexes(0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 2, 2, 2);
        let tags = [BoundaryTag::Inflow, BoundaryTag::Outflow, BoundaryTag::Side];
        let numbering = HexNumbering::build(&mesh, order);
        let tagged = numbering.tagged(&mesh, &tags);
        let dual = Graph::from_edges(mesh.nelems(), &mesh.dual_edges());
        let part = partition_kway(&dual, p_ranks, &PartitionOptions::default());
        let errs = run(p_ranks, cluster(NetId::T3e), |c| {
            let h = HexHelmholtz::new(c, &mesh, &numbering, &part);
            let mut rec = Recorder::disabled();
            // RHS: ∫ f φ per element via quadrature (tensor GLL).
            let mut b = vec![0.0; h.nlocal()];
            build_rhs(&h, &mesh, &numbering, &mut b, |x| {
                3.0 * pi * pi * (pi * x[0]).sin() * (pi * x[1]).sin() * (pi * x[2]).sin()
            });
            h.gs.exchange(c, &mut b, ReduceOp::Sum);
            let mut x = vec![0.0; h.nlocal()];
            let mut ws = HexWorkspace::default();
            let bc = h.dirichlet(&tagged);
            let out = h.pcg(c, LAPLACE, &bc, &b, &mut x, 1e-10, 500, &mut ws, &mut rec);
            assert!(out.converged, "PCG did not converge: {out:?}");
            // Check at element vertices (vertex dofs are interpolatory).
            let mut max_err = 0.0f64;
            for (le, &e) in h.my_elems.iter().enumerate() {
                let el = &mesh.elems[e];
                let nm1 = h.p + 1;
                for (lv, (i, j, k)) in hex_vertices(h.p).into_iter().enumerate() {
                    let m = i + j * nm1 + k * nm1 * nm1;
                    let l = h.elem_dofs(le)[m];
                    let xyz = mesh.verts[el.verts[lv]];
                    let exact =
                        (pi * xyz[0]).sin() * (pi * xyz[1]).sin() * (pi * xyz[2]).sin();
                    max_err = max_err.max((x[l] - exact).abs());
                }
            }
            max_err
        });
        for &e in &errs {
            assert!(e < 0.02, "P={p_ranks}: vertex error {e}");
        }
    }

    /// Builds ∫ f φ elementwise using tensor GLL quadrature.
    fn build_rhs(
        h: &HexHelmholtz,
        mesh: &Mesh3d,
        _numbering: &HexNumbering,
        b: &mut [f64],
        f: impl Fn([f64; 3]) -> f64,
    ) {
        let op = &h.op1;
        let nq = op.basis.nquad();
        let nm1 = h.p + 1;
        for (le, &e) in h.my_elems.iter().enumerate() {
            let (lo, _) = elem_box(mesh, e).expect("box");
            let [hx, hy, hz] = h.scales[le];
            let jac = hx * hy * hz / 8.0;
            for m in 0..nm1 * nm1 * nm1 {
                let (i, j, k) = (m % nm1, (m / nm1) % nm1, m / (nm1 * nm1));
                let mut s = 0.0;
                for qz in 0..nq {
                    for qy in 0..nq {
                        for qx in 0..nq {
                            let x = [
                                lo[0] + hx * (op.basis.z[qx] + 1.0) / 2.0,
                                lo[1] + hy * (op.basis.z[qy] + 1.0) / 2.0,
                                lo[2] + hz * (op.basis.z[qz] + 1.0) / 2.0,
                            ];
                            s += op.basis.w[qx]
                                * op.basis.w[qy]
                                * op.basis.w[qz]
                                * f(x)
                                * op.basis.val[i][qx]
                                * op.basis.val[j][qy]
                                * op.basis.val[k][qz];
                        }
                    }
                }
                b[h.elem_dofs(le)[m]] += jac * s;
            }
        }
    }

    #[test]
    fn parallel_poisson_single_rank() {
        poisson_box_test(1);
    }

    #[test]
    fn parallel_poisson_two_ranks() {
        poisson_box_test(2);
    }

    #[test]
    fn parallel_poisson_four_ranks() {
        poisson_box_test(4);
    }

    #[test]
    fn helmholtz_lambda_shifts_solution() {
        // (-∇² + λ)u = (3π² + λ) sin sin sin has the same solution for
        // any λ — a strong consistency check on the λ plumbing.
        let pi = std::f64::consts::PI;
        let order = 3;
        let mesh = box_hexes(0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 2, 2, 2);
        let tags = [BoundaryTag::Inflow, BoundaryTag::Outflow, BoundaryTag::Side];
        let numbering = HexNumbering::build(&mesh, order);
        let tagged = numbering.tagged(&mesh, &tags);
        let part = vec![0u8; mesh.nelems()];
        let lam = 25.0;
        let err = run(1, cluster(NetId::T3e), |c| {
            let h = HexHelmholtz::new(c, &mesh, &numbering, &part);
            let mut rec = Recorder::disabled();
            let mut b = vec![0.0; h.nlocal()];
            build_rhs(&h, &mesh, &numbering, &mut b, |x| {
                (3.0 * pi * pi + lam)
                    * (pi * x[0]).sin()
                    * (pi * x[1]).sin()
                    * (pi * x[2]).sin()
            });
            h.gs.exchange(c, &mut b, ReduceOp::Sum);
            let mut x = vec![0.0; h.nlocal()];
            let ws = &mut HexWorkspace::default();
            let bc = h.dirichlet(&tagged);
            let out = h.pcg(c, [lam, 1.0], &bc, &b, &mut x, 1e-10, 500, ws, &mut rec);
            assert!(out.converged, "{out:?}");
            // Probe the center vertex value: u(.5,.5,.5) = 1.
            let mut best = f64::MAX;
            for (le, &e) in h.my_elems.iter().enumerate() {
                let el = &mesh.elems[e];
                let nm1 = h.p + 1;
                for (lv, (i, j, k)) in hex_vertices(h.p).into_iter().enumerate() {
                    let xyz = mesh.verts[el.verts[lv]];
                    if (xyz[0] - 0.5).abs() < 1e-12
                        && (xyz[1] - 0.5).abs() < 1e-12
                        && (xyz[2] - 0.5).abs() < 1e-12
                    {
                        let m = i + j * nm1 + k * nm1 * nm1;
                        best = x[h.elem_dofs(le)[m]];
                    }
                }
            }
            (best - 1.0).abs()
        });
        assert!(err[0] < 0.02, "center error {}", err[0]);
    }
}
