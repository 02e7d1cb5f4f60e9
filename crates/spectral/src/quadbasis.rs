//! Tensor-product modal basis on the reference quadrilateral
//! [−1,1]², with modes ordered vertices → edges → interior (paper
//! Figure 9, right).

use crate::basis1d::Basis1d;
use crate::element::{Expansion, ModeClass};

/// Quadrilateral expansion: φ_{pq}(ξ₁,ξ₂) = ψ_p(ξ₁)·ψ_q(ξ₂).
///
/// Local geometry convention (matches `nkt-mesh` CCW ordering):
/// vertices v0=(−1,−1), v1=(1,−1), v2=(1,1), v3=(−1,1); edges
/// e0: v0→v1, e1: v1→v2, e2: v2→v3, e3: v3→v0.
#[derive(Debug, Clone)]
pub struct QuadBasis {
    order: usize,
    /// The 1-D basis both directions are tabulated from.
    basis1d: Basis1d,
    /// The 1-D indices (p, q) of each local mode.
    modes: Vec<(usize, usize)>,
    /// Reference coordinates of the tensor quadrature points.
    pub xi: Vec<[f64; 2]>,
    /// Quadrature weights (reference measure dξ₁dξ₂).
    pub wq: Vec<f64>,
    /// `val[m][q]`: mode m at point q.
    pub val: Vec<Vec<f64>>,
    /// ∂φ/∂ξ₁ tables.
    pub dxi1: Vec<Vec<f64>>,
    /// ∂φ/∂ξ₂ tables.
    pub dxi2: Vec<Vec<f64>>,
    class: Vec<ModeClass>,
}

impl QuadBasis {
    /// Builds the order-`p` quad basis tabulated on (p+2)² GLL points.
    pub fn new(p: usize) -> QuadBasis {
        assert!(p >= 1, "QuadBasis: order must be >= 1");
        let b = Basis1d::with_gll(p);
        let nq = b.nquad();
        // Mode ordering: vertices, then edges, then interior.
        // 1-D index pairs for the four vertices.
        let vpairs = [(0, 0), (p, 0), (p, p), (0, p)];
        let mut modes: Vec<(usize, usize)> = vpairs.to_vec();
        let mut class: Vec<ModeClass> = (0..4).map(ModeClass::Vertex).collect();
        // Edges: e0 bottom (k,0), e1 right (P,k), e2 top (k,P), e3 left (0,k).
        for k in 1..p {
            modes.push((k, 0));
            class.push(ModeClass::Edge(0, k));
        }
        for k in 1..p {
            modes.push((p, k));
            class.push(ModeClass::Edge(1, k));
        }
        for k in 1..p {
            modes.push((k, p));
            class.push(ModeClass::Edge(2, k));
        }
        for k in 1..p {
            modes.push((0, k));
            class.push(ModeClass::Edge(3, k));
        }
        for pp in 1..p {
            for qq in 1..p {
                modes.push((pp, qq));
                class.push(ModeClass::Interior);
            }
        }
        let nm = modes.len();
        debug_assert_eq!(nm, (p + 1) * (p + 1));
        let npts = nq * nq;
        let mut xi = Vec::with_capacity(npts);
        let mut wq = Vec::with_capacity(npts);
        for j in 0..nq {
            for i in 0..nq {
                xi.push([b.z[i], b.z[j]]);
                wq.push(b.w[i] * b.w[j]);
            }
        }
        let mut val = vec![vec![0.0; npts]; nm];
        let mut dxi1 = vec![vec![0.0; npts]; nm];
        let mut dxi2 = vec![vec![0.0; npts]; nm];
        for (m, &(pp, qq)) in modes.iter().enumerate() {
            for j in 0..nq {
                for i in 0..nq {
                    let q = i + j * nq;
                    val[m][q] = b.val[pp][i] * b.val[qq][j];
                    dxi1[m][q] = b.dval[pp][i] * b.val[qq][j];
                    dxi2[m][q] = b.val[pp][i] * b.dval[qq][j];
                }
            }
        }
        QuadBasis { order: p, basis1d: b, modes, xi, wq, val, dxi1, dxi2, class }
    }

    /// Quadrature points per direction.
    pub fn nquad1(&self) -> usize {
        self.basis1d.nquad()
    }

    /// The 1-D basis ψ whose products the modes are; point `i + j·nquad1`
    /// is (zᵢ, zⱼ) of its rule.
    pub fn basis1d(&self) -> &Basis1d {
        &self.basis1d
    }

    /// The pair (p, q) of each local mode φ_m = ψ_p(ξ₁)·ψ_q(ξ₂), in local
    /// (vertices, edges, interior) order: what takes an elemental vector
    /// to the (p, q) tensor a sum-factorised transform sweeps.
    pub fn mode_pairs(&self) -> &[(usize, usize)] {
        &self.modes
    }
}

impl Expansion for QuadBasis {
    fn order(&self) -> usize {
        self.order
    }

    fn nmodes(&self) -> usize {
        self.val.len()
    }

    fn nquad(&self) -> usize {
        self.xi.len()
    }

    fn xi(&self) -> &[[f64; 2]] {
        &self.xi
    }

    fn wq(&self) -> &[f64] {
        &self.wq
    }

    fn val(&self) -> &[Vec<f64>] {
        &self.val
    }

    fn dxi1(&self) -> &[Vec<f64>] {
        &self.dxi1
    }

    fn dxi2(&self) -> &[Vec<f64>] {
        &self.dxi2
    }

    fn class(&self) -> &[ModeClass] {
        &self.class
    }

    fn nverts(&self) -> usize {
        4
    }

    fn nedges(&self) -> usize {
        4
    }

    /// The local vertex at which each edge's *intrinsic* parameterization
    /// starts (the direction of increasing reference coordinate): e0
    /// starts at v0 (+ξ₁), e1 at v1 (+ξ₂), e2 at v3 (+ξ₁), e3 at v0 (+ξ₂).
    fn edge_intrinsic_start(&self, edge: usize) -> usize {
        match edge {
            0 => 0,
            1 => 1,
            2 => 3,
            3 => 0,
            _ => panic!("quad has 4 edges"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_counts_and_ordering() {
        let p = 4;
        let b = QuadBasis::new(p);
        assert_eq!(b.nmodes(), 25);
        // Paper Figure 9 ordering: first 4 are vertices, then 4*(p-1)
        // edge modes, then interior.
        for m in 0..4 {
            assert!(matches!(b.class()[m], ModeClass::Vertex(_)));
        }
        for m in 4..4 + 4 * (p - 1) {
            assert!(matches!(b.class()[m], ModeClass::Edge(_, _)), "mode {m}");
        }
        for m in 4 + 4 * (p - 1)..b.nmodes() {
            assert!(matches!(b.class()[m], ModeClass::Interior));
        }
    }

    #[test]
    fn mode_pairs_factor_every_table() {
        let b = QuadBasis::new(4);
        let (psi, nq) = (b.basis1d(), b.nquad1());
        assert_eq!(b.mode_pairs().len(), b.nmodes());
        for (m, &(p, q)) in b.mode_pairs().iter().enumerate() {
            for j in 0..nq {
                for i in 0..nq {
                    let at = i + j * nq;
                    assert_eq!(b.val[m][at], psi.val[p][i] * psi.val[q][j]);
                    assert_eq!(b.dxi1[m][at], psi.dval[p][i] * psi.val[q][j]);
                    assert_eq!(b.dxi2[m][at], psi.val[p][i] * psi.dval[q][j]);
                }
            }
        }
    }

    #[test]
    fn quadrature_integrates_area() {
        let b = QuadBasis::new(3);
        let area: f64 = b.wq.iter().sum();
        assert!((area - 4.0).abs() < 1e-12);
    }

    #[test]
    fn vertex_modes_partition_unity() {
        let b = QuadBasis::new(5);
        for q in 0..b.nquad() {
            let s: f64 = (0..4).map(|m| b.val[m][q]).sum();
            assert!((s - 1.0).abs() < 1e-13);
        }
    }

    #[test]
    fn edge_modes_vanish_on_other_edges() {
        let p = 4;
        let b = QuadBasis::new(p);
        // Bottom-edge mode (k, 0) must vanish where xi2 = +1... checked at
        // quadrature points on the top row (xi2 = 1 is a GLL point).
        let nq = b.nquad1();
        for m in 0..b.nmodes() {
            if let ModeClass::Edge(0, _) = b.class()[m] {
                for i in 0..nq {
                    let top = i + (nq - 1) * nq;
                    assert!(b.val[m][top].abs() < 1e-13);
                }
            }
        }
    }

    #[test]
    fn interior_modes_vanish_on_boundary() {
        let b = QuadBasis::new(4);
        let nq = b.nquad1();
        for m in 0..b.nmodes() {
            if matches!(b.class()[m], ModeClass::Interior) {
                for i in 0..nq {
                    for &q in &[i, i + (nq - 1) * nq, i * nq, i * nq + nq - 1] {
                        assert!(b.val[m][q].abs() < 1e-12, "mode {m} point {q}");
                    }
                }
            }
        }
    }

    #[test]
    fn derivatives_consistent_with_values() {
        // d/dxi1 of the v1 vertex mode psi_P(x1)psi_0(x2) = 0.5*psi_0(x2).
        let b = QuadBasis::new(3);
        for q in 0..b.nquad() {
            let expect = 0.5 * 0.5 * (1.0 - b.xi[q][1]);
            assert!((b.dxi1[1][q] - expect).abs() < 1e-13);
        }
    }
}
