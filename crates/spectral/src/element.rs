//! Expansion trait, geometric mappings and elemental operators.

use nkt_mesh::{ElemKind, Mesh2d};

/// Classification of a local mode (paper Figure 9: "we label the vertices
/// first, followed by the edges, and finally the interior").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeClass {
    /// Attached to local vertex `i`.
    Vertex(usize),
    /// The k-th hierarchical mode (k ≥ 1) on local edge `e`.
    Edge(usize, usize),
    /// Interior (bubble) mode — no inter-element coupling.
    Interior,
}

/// A tabulated 2-D expansion basis on a reference element.
pub trait Expansion {
    /// Polynomial order P.
    fn order(&self) -> usize;
    /// Total number of modes.
    fn nmodes(&self) -> usize;
    /// Total quadrature points.
    fn nquad(&self) -> usize;
    /// Reference coordinates of quadrature points.
    fn xi(&self) -> &[[f64; 2]];
    /// Quadrature weights in the reference measure dξ₁dξ₂.
    fn wq(&self) -> &[f64];
    /// Mode values at quadrature points.
    fn val(&self) -> &[Vec<f64>];
    /// ∂/∂ξ₁ tables.
    fn dxi1(&self) -> &[Vec<f64>];
    /// ∂/∂ξ₂ tables.
    fn dxi2(&self) -> &[Vec<f64>];
    /// Mode classifications, aligned with `val`.
    fn class(&self) -> &[ModeClass];
    /// Local vertex count.
    fn nverts(&self) -> usize;
    /// Local edge count.
    fn nedges(&self) -> usize;
    /// Local vertex at which edge `e`'s intrinsic parameterization starts.
    fn edge_intrinsic_start(&self, edge: usize) -> usize;
}

/// Geometric data at each quadrature point of a mapped element.
#[derive(Debug, Clone)]
pub struct ElemGeom {
    /// |det J| × reference quadrature weight (physical measure weights).
    pub jw: Vec<f64>,
    /// ∂ξ₁/∂x, ∂ξ₁/∂y, ∂ξ₂/∂x, ∂ξ₂/∂y at each point.
    pub dxi_dx: Vec<[f64; 4]>,
    /// Physical coordinates of the quadrature points.
    pub x: Vec<[f64; 2]>,
}

/// Computes the mapping data for a straight-sided element of the mesh.
///
/// Triangles use the affine map from the reference triangle
/// {(−1,−1),(1,−1),(−1,1)}; quadrilaterals the bilinear map.
///
/// # Panics
/// Panics if the Jacobian determinant is non-positive anywhere (tangled
/// element).
pub fn elem_geometry(basis: &dyn Expansion, mesh: &Mesh2d, ei: usize) -> ElemGeom {
    let el = &mesh.elems[ei];
    let nq = basis.nquad();
    let mut jw = Vec::with_capacity(nq);
    let mut dxi_dx = Vec::with_capacity(nq);
    let mut xs = Vec::with_capacity(nq);
    for (q, &[xi1, xi2]) in basis.xi().iter().enumerate() {
        let (x, j) = match el.kind {
            ElemKind::Tri => {
                let v0 = mesh.verts[el.verts[0]];
                let v1 = mesh.verts[el.verts[1]];
                let v2 = mesh.verts[el.verts[2]];
                let l0 = -0.5 * (xi1 + xi2);
                let l1 = 0.5 * (1.0 + xi1);
                let l2 = 0.5 * (1.0 + xi2);
                let x =
                    [l0 * v0[0] + l1 * v1[0] + l2 * v2[0], l0 * v0[1] + l1 * v1[1] + l2 * v2[1]];
                // dX/dxi is constant for the affine triangle.
                let dxdxi1 = [0.5 * (v1[0] - v0[0]), 0.5 * (v1[1] - v0[1])];
                let dxdxi2 = [0.5 * (v2[0] - v0[0]), 0.5 * (v2[1] - v0[1])];
                (x, [dxdxi1[0], dxdxi2[0], dxdxi1[1], dxdxi2[1]])
            }
            ElemKind::Quad => {
                let v: Vec<[f64; 2]> = el.verts.iter().map(|&i| mesh.verts[i]).collect();
                let n = [
                    0.25 * (1.0 - xi1) * (1.0 - xi2),
                    0.25 * (1.0 + xi1) * (1.0 - xi2),
                    0.25 * (1.0 + xi1) * (1.0 + xi2),
                    0.25 * (1.0 - xi1) * (1.0 + xi2),
                ];
                let dn1 = [
                    -0.25 * (1.0 - xi2),
                    0.25 * (1.0 - xi2),
                    0.25 * (1.0 + xi2),
                    -0.25 * (1.0 + xi2),
                ];
                let dn2 = [
                    -0.25 * (1.0 - xi1),
                    -0.25 * (1.0 + xi1),
                    0.25 * (1.0 + xi1),
                    0.25 * (1.0 - xi1),
                ];
                let mut x = [0.0; 2];
                let mut dxdxi1 = [0.0; 2];
                let mut dxdxi2 = [0.0; 2];
                for i in 0..4 {
                    for d in 0..2 {
                        x[d] += n[i] * v[i][d];
                        dxdxi1[d] += dn1[i] * v[i][d];
                        dxdxi2[d] += dn2[i] * v[i][d];
                    }
                }
                (x, [dxdxi1[0], dxdxi2[0], dxdxi1[1], dxdxi2[1]])
            }
            ElemKind::Hex => panic!("elem_geometry: 2-D basis on a hex element"),
        };
        // j = [dx/dxi1, dx/dxi2; dy/dxi1, dy/dxi2]
        let det = j[0] * j[3] - j[1] * j[2];
        assert!(det > 0.0, "element {ei}: non-positive Jacobian {det} at point {q}");
        let inv = [j[3] / det, -j[1] / det, -j[2] / det, j[0] / det];
        // dxi/dx = inv: [dxi1/dx, dxi1/dy; dxi2/dx, dxi2/dy]
        dxi_dx.push(inv);
        jw.push(basis.wq()[q] * det);
        xs.push(x);
    }
    ElemGeom { jw, dxi_dx, x: xs }
}

/// Elemental matrices: mass, Laplacian (stiffness) and their Helmholtz
/// combination, dense column-major `nm × nm`.
#[derive(Debug, Clone)]
pub struct ElementMatrices {
    /// Number of modes.
    pub nm: usize,
    /// Mass matrix ∫ φᵢφⱼ dΩ.
    pub mass: Vec<f64>,
    /// Stiffness matrix ∫ ∇φᵢ·∇φⱼ dΩ.
    pub laplace: Vec<f64>,
}

/// Mode pairs [`ElementMatrices::build`] sums side by side.
const PAIRS: usize = 8;

impl ElementMatrices {
    /// Computes mass and stiffness for one mapped element, [`PAIRS`] mode
    /// pairs `(i0.., j)` at a time over q-major tables: each pair is its
    /// own chain summed over the points in order, so every entry has the
    /// bits of a loop over that pair alone (lanes past `j` are not stored).
    pub fn build(basis: &dyn Expansion, geom: &ElemGeom) -> ElementMatrices {
        let (nm, nq) = (basis.nmodes(), basis.nquad());
        let s = nm.div_ceil(PAIRS) * PAIRS;
        // Row q holds every mode's value and physical gradient at point q.
        let (mut v, mut gx, mut gy) = (vec![0.0; nq * s], vec![0.0; nq * s], vec![0.0; nq * s]);
        for m in 0..nm {
            let (vm, d1, d2) = (&basis.val()[m], &basis.dxi1()[m], &basis.dxi2()[m]);
            for q in 0..nq {
                let [a, b, c, d] = geom.dxi_dx[q];
                v[q * s + m] = vm[q];
                gx[q * s + m] = d1[q] * a + d2[q] * c;
                gy[q * s + m] = d1[q] * b + d2[q] * d;
            }
        }
        let (mut mass, mut laplace) = (vec![0.0; nm * nm], vec![0.0; nm * nm]);
        for j in 0..nm {
            for i0 in (0..=j).step_by(PAIRS) {
                let (mut ms, mut ls) = ([0.0; PAIRS], [0.0; PAIRS]);
                for (r, &w) in (0..).step_by(s).zip(&geom.jw) {
                    let (vj, xj, yj) = (v[r + j], gx[r + j], gy[r + j]);
                    let (vi, xi, yi) =
                        (&v[r + i0..][..PAIRS], &gx[r + i0..][..PAIRS], &gy[r + i0..][..PAIRS]);
                    for l in 0..PAIRS {
                        ms[l] += w * vi[l] * vj;
                        ls[l] += w * (xi[l] * xj + yi[l] * yj);
                    }
                }
                for (i, (m, l)) in (i0..=j).zip(ms.into_iter().zip(ls)) {
                    (mass[i + j * nm], mass[j + i * nm]) = (m, m);
                    (laplace[i + j * nm], laplace[j + i * nm]) = (l, l);
                }
            }
        }
        ElementMatrices { nm, mass, laplace }
    }

    /// Helmholtz matrix L + λM.
    pub fn helmholtz(&self, lambda: f64) -> Vec<f64> {
        self.laplace.iter().zip(&self.mass).map(|(l, m)| l + lambda * m).collect()
    }
}

/// Per-element operator bundle cached by the solvers: basis reference
/// index, geometry and matrices.
#[derive(Debug, Clone)]
pub struct ElemOps {
    /// Which cached basis this element uses (index into the solver's
    /// basis table, one per element kind present).
    pub basis_id: usize,
    /// Mapped geometry.
    pub geom: ElemGeom,
    /// Elemental matrices.
    pub mats: ElementMatrices,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadbasis::QuadBasis;
    use crate::tribasis::TriBasis;
    use nkt_mesh::{rect_quads, rect_tris, BoundaryTag, Elem2d};

    /// The loop [`ElementMatrices::build`] replaced: each mode pair one
    /// quadrature loop on two accumulators, over mode-major tables.
    fn build_pairwise(basis: &dyn Expansion, geom: &ElemGeom) -> ElementMatrices {
        let nm = basis.nmodes();
        let nq = basis.nquad();
        // Physical gradients per mode: gx[m][q], gy[m][q].
        let mut gx = vec![vec![0.0; nq]; nm];
        let mut gy = vec![vec![0.0; nq]; nm];
        for m in 0..nm {
            let d1 = &basis.dxi1()[m];
            let d2 = &basis.dxi2()[m];
            for q in 0..nq {
                let [a, b, c, d] = geom.dxi_dx[q];
                gx[m][q] = d1[q] * a + d2[q] * c;
                gy[m][q] = d1[q] * b + d2[q] * d;
            }
        }
        let mut mass = vec![0.0; nm * nm];
        let mut laplace = vec![0.0; nm * nm];
        for j in 0..nm {
            for i in 0..=j {
                let mut ms = 0.0;
                let mut ls = 0.0;
                let vi = &basis.val()[i];
                let vj = &basis.val()[j];
                for q in 0..nq {
                    let w = geom.jw[q];
                    ms += w * vi[q] * vj[q];
                    ls += w * (gx[i][q] * gx[j][q] + gy[i][q] * gy[j][q]);
                }
                mass[i + j * nm] = ms;
                mass[j + i * nm] = ms;
                laplace[i + j * nm] = ls;
                laplace[j + i * nm] = ls;
            }
        }
        ElementMatrices { nm, mass, laplace }
    }

    /// [`ElementMatrices::build`] against the pair loop it replaced, bit
    /// for bit, on quadrilaterals and triangles at orders 1–9.
    #[test]
    fn element_matrices_equal_the_pair_loop_bit_for_bit() {
        // Quadrilaterals bent by (x, y) ↦ (x + 0.3xy, y + 0.2x²): no longer
        // parallelograms, so the bilinear map's Jacobian varies.
        let mut skewed = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
        for v in &mut skewed.verts {
            *v = [v[0] + 0.3 * v[0] * v[1], v[1] + 0.2 * v[0] * v[0]];
        }
        let g = elem_geometry(&QuadBasis::new(2), &skewed, 3);
        assert!(g.dxi_dx.iter().any(|d| d != &g.dxi_dx[0]), "the Jacobian must vary");
        let mixed = Mesh2d::new(
            vec![[0.0, 0.0], [1.0, 0.0], [1.2, 1.1], [-0.1, 0.9], [2.0, 0.2]],
            vec![
                Elem2d { kind: ElemKind::Quad, verts: vec![0, 1, 2, 3] },
                Elem2d { kind: ElemKind::Tri, verts: vec![1, 4, 2] },
            ],
            |_| BoundaryTag::Wall,
        );
        let tris = rect_tris(0.0, 1.0, 0.0, 0.5, 1, 1);
        let bits = |m: &ElementMatrices| -> Vec<u64> {
            m.mass.iter().chain(&m.laplace).map(|v| v.to_bits()).collect()
        };
        // Orders 1–9: 4–100 quadrilateral and 3–55 triangle modes, some
        // fewer than the pairs a block sums and most not a multiple of it.
        for order in 1..=9 {
            let (quad, tri) = (QuadBasis::new(order), TriBasis::new(order));
            for (k, mesh) in [&skewed, &mixed, &tris].into_iter().enumerate() {
                for ei in 0..mesh.nelems() {
                    let basis: &dyn Expansion = match mesh.elems[ei].kind {
                        ElemKind::Quad => &quad,
                        _ => &tri,
                    };
                    let geom = elem_geometry(basis, mesh, ei);
                    let (got, want) =
                        (ElementMatrices::build(basis, &geom), build_pairwise(basis, &geom));
                    assert_eq!(got.nm, want.nm);
                    assert!(bits(&got) == bits(&want), "mesh {k}, order {order}, element {ei}");
                }
            }
        }
    }

    #[test]
    fn quad_geometry_unit_square_measure() {
        let mesh = rect_quads(0.0, 2.0, 0.0, 1.0, 2, 1); // two 1x1 cells
        let basis = QuadBasis::new(3);
        let g = elem_geometry(&basis, &mesh, 0);
        let area: f64 = g.jw.iter().sum();
        assert!((area - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tri_geometry_measure() {
        let mesh = rect_tris(0.0, 1.0, 0.0, 1.0, 1, 1);
        let basis = TriBasis::new(4);
        let total: f64 =
            (0..2).map(|e| elem_geometry(&basis, &mesh, e).jw.iter().sum::<f64>()).sum();
        assert!((total - 1.0).abs() < 1e-10, "{total}");
    }

    #[test]
    fn mass_matrix_integrates_constants() {
        // 1^T M 1 = sum over modes of vertex-mode coefficients that
        // represent u = 1: with vertex modes = bilinear partition of
        // unity, u = 1 is all-vertex-coefficients 1, others 0.
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 1, 1);
        let basis = QuadBasis::new(4);
        let geom = elem_geometry(&basis, &mesh, 0);
        let m = ElementMatrices::build(&basis, &geom);
        let mut coef = vec![0.0; m.nm];
        for i in 0..4 {
            coef[i] = 1.0;
        }
        // c^T M c = ∫ 1 dΩ = 1.
        let mut mc = vec![0.0; m.nm];
        nkt_blas::dgemv(nkt_blas::Trans::No, m.nm, m.nm, 1.0, &m.mass, m.nm, &coef, 0.0, &mut mc);
        let v: f64 = coef.iter().zip(&mc).map(|(a, b)| a * b).sum();
        assert!((v - 1.0).abs() < 1e-12, "{v}");
    }

    #[test]
    fn laplacian_annihilates_constants() {
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 1, 1);
        let basis = QuadBasis::new(4);
        let geom = elem_geometry(&basis, &mesh, 0);
        let m = ElementMatrices::build(&basis, &geom);
        let mut coef = vec![0.0; m.nm];
        for i in 0..4 {
            coef[i] = 1.0;
        }
        let mut lc = vec![0.0; m.nm];
        nkt_blas::dgemv(
            nkt_blas::Trans::No,
            m.nm,
            m.nm,
            1.0,
            &m.laplace,
            m.nm,
            &coef,
            0.0,
            &mut lc,
        );
        for v in lc {
            assert!(v.abs() < 1e-11, "{v}");
        }
    }

    #[test]
    fn laplacian_spd_on_interior_block() {
        // The full Laplacian is singular (constants); the interior-interior
        // block must be SPD (paper Figure 10 shows its banded structure).
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 1, 1);
        let basis = QuadBasis::new(5);
        let geom = elem_geometry(&basis, &mesh, 0);
        let m = ElementMatrices::build(&basis, &geom);
        let interior: Vec<usize> =
            (0..m.nm).filter(|&i| matches!(basis.class()[i], ModeClass::Interior)).collect();
        let ni = interior.len();
        let mut sub = vec![0.0; ni * ni];
        for (a, &i) in interior.iter().enumerate() {
            for (b, &j) in interior.iter().enumerate() {
                sub[a + b * ni] = m.laplace[i + j * m.nm];
            }
        }
        nkt_blas::dpotrf(ni, &mut sub, ni).expect("interior Laplacian block must be SPD");
    }

    #[test]
    fn stretched_quad_jacobian() {
        let mesh = rect_quads(0.0, 4.0, 0.0, 1.0, 1, 1); // 4x1 element
        let basis = QuadBasis::new(2);
        let g = elem_geometry(&basis, &mesh, 0);
        let area: f64 = g.jw.iter().sum();
        assert!((area - 4.0).abs() < 1e-12);
        // dxi1/dx = 1/2 for the reference->physical stretch of 2 in x... (4 wide: dx/dxi1 = 2)
        for d in &g.dxi_dx {
            assert!((d[0] - 0.5).abs() < 1e-13); // dxi1/dx
            assert!((d[3] - 2.0).abs() < 1e-13); // dxi2/dy
        }
    }
}
