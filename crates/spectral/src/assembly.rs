//! Global C0 assembly: dof numbering, edge-orientation signs, and the
//! Dirichlet mask a set of essential boundary tags selects.
//!
//! Numbering follows the paper (Figure 10): "the boundary degrees of
//! freedom were ordered first followed by the interior degrees of
//! freedom" — mesh vertices, then mesh-edge modes, then per-element
//! interior modes.

use crate::basis1d::edge_reversal_sign;
use crate::element::{Expansion, ModeClass};
use nkt_mesh::{BoundaryTag, Mesh2d};

/// What a global dof is attached to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DofKind {
    /// Mesh vertex.
    Vertex(usize),
    /// k-th hierarchical mode of mesh edge `e`.
    EdgeMode(usize, usize),
    /// Interior mode of an element.
    Interior(usize),
}

/// The global dof map for a uniform-order discretisation of a 2-D mesh.
/// It depends on the mesh and the order only, so every Helmholtz problem
/// on one discretisation shares it; which dofs are constrained is each
/// problem's own [`Assembly::dirichlet_mask`].
#[derive(Debug, Clone)]
pub struct Assembly {
    /// Total global dofs.
    pub ndof: usize,
    /// Dofs 0..nboundary are vertex/edge ("boundary-class") dofs.
    pub nboundary: usize,
    /// Per element, per local mode: (global dof, orientation sign).
    pub elem_dofs: Vec<Vec<(usize, f64)>>,
    /// What each dof is attached to.
    pub kinds: Vec<DofKind>,
}

impl Assembly {
    /// Builds the dof map. `basis_for(e)` supplies each element's
    /// expansion (same polynomial order everywhere).
    ///
    /// # Panics
    /// Panics if elements sharing an edge disagree on the number of edge
    /// modes.
    pub fn build<'a>(mesh: &Mesh2d, basis_for: impl Fn(usize) -> &'a dyn Expansion) -> Assembly {
        let nv = mesh.nverts();
        let ne = mesh.edges.len();
        // Uniform edge-mode count from any element.
        let p = basis_for(0).order();
        let modes_per_edge = p.saturating_sub(1);
        let edge_base = nv;
        let interior_base = nv + ne * modes_per_edge;
        let mut kinds: Vec<DofKind> = (0..nv).map(DofKind::Vertex).collect();
        for e in 0..ne {
            for k in 1..=modes_per_edge {
                kinds.push(DofKind::EdgeMode(e, k));
            }
        }
        let mut next_interior = interior_base;
        let mut elem_dofs = Vec::with_capacity(mesh.nelems());
        for ei in 0..mesh.nelems() {
            let basis = basis_for(ei);
            assert_eq!(basis.order(), p, "mixed orders not supported");
            let el = &mesh.elems[ei];
            let mut dofs = Vec::with_capacity(basis.nmodes());
            for &cls in basis.class() {
                match cls {
                    ModeClass::Vertex(lv) => dofs.push((el.verts[lv], 1.0)),
                    ModeClass::Edge(le, k) => {
                        let (edge_id, _) = mesh.elem_edges[ei][le];
                        let edge = &mesh.edges[edge_id];
                        // Intrinsic start vertex of the local edge param.
                        let start = el.verts[basis.edge_intrinsic_start(le)];
                        let sign = if start == edge.v[0] {
                            1.0
                        } else {
                            debug_assert_eq!(start, edge.v[1], "edge/vertex mismatch");
                            edge_reversal_sign(k)
                        };
                        dofs.push((edge_base + edge_id * modes_per_edge + (k - 1), sign));
                    }
                    ModeClass::Interior => {
                        kinds.push(DofKind::Interior(ei));
                        dofs.push((next_interior, 1.0));
                        next_interior += 1;
                    }
                }
            }
            elem_dofs.push(dofs);
        }
        Assembly { ndof: next_interior, nboundary: interior_base, elem_dofs, kinds }
    }

    /// Per dof: constrained when `is_dirichlet` selects the tag of a
    /// boundary edge it sits on — that edge's two vertices and its edge
    /// modes. `mesh` is the mesh the map was built on.
    pub fn dirichlet_mask(
        &self,
        mesh: &Mesh2d,
        is_dirichlet: impl Fn(BoundaryTag) -> bool,
    ) -> Vec<bool> {
        let essential: Vec<bool> =
            mesh.edges.iter().map(|edge| edge.tag.is_some_and(&is_dirichlet)).collect();
        let mut mask = vec![false; self.ndof];
        for (edge, &on) in mesh.edges.iter().zip(&essential) {
            if on {
                mask[edge.v[0]] = true;
                mask[edge.v[1]] = true;
            }
        }
        for (d, kind) in self.kinds.iter().enumerate() {
            if let DofKind::EdgeMode(edge_id, _) = *kind {
                mask[d] = essential[edge_id];
            }
        }
        mask
    }

    /// Element `ei`'s interior dofs: its last local modes, contiguous in
    /// this numbering and of sign +1 (empty for an order-2 triangle). This
    /// is what lets a solver eliminate them element by element.
    pub fn interior(&self, ei: usize) -> std::ops::Range<usize> {
        let dofs = &self.elem_dofs[ei];
        let nb = dofs.partition_point(|&(g, _)| g < self.nboundary);
        let start = dofs.get(nb).map_or(self.ndof, |&(g, _)| g);
        start..start + dofs.len() - nb
    }

    /// Maximum |i − j| over all element dof pairs — the semi-bandwidth of
    /// the full system in this numbering (nothing factors it: the solvers
    /// condense the interiors out and order the boundary system with RCM).
    pub fn bandwidth(&self) -> usize {
        let mut kd = 0usize;
        for dofs in &self.elem_dofs {
            for &(i, _) in dofs {
                for &(j, _) in dofs {
                    kd = kd.max(i.abs_diff(j));
                }
            }
        }
        kd
    }

    /// Scatters an elemental vector into a global vector: `global[gi] +=
    /// sign · local[m]`.
    pub fn scatter_add(&self, ei: usize, local: &[f64], global: &mut [f64]) {
        for (m, &(gi, s)) in self.elem_dofs[ei].iter().enumerate() {
            global[gi] += s * local[m];
        }
    }

    /// Gathers a global vector into elemental coefficients:
    /// `local[m] = sign · global[gi]`.
    pub fn gather(&self, ei: usize, global: &[f64], local: &mut [f64]) {
        for (m, &(gi, s)) in self.elem_dofs[ei].iter().enumerate() {
            local[m] = s * global[gi];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadbasis::QuadBasis;
    use crate::tribasis::TriBasis;
    use nkt_mesh::{rect_quads, rect_tris};

    #[test]
    fn dof_counts_quad_mesh() {
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
        let p = 3;
        let basis = QuadBasis::new(p);
        let asm = Assembly::build(&mesh, |_| &basis);
        // 9 vertices + 12 edges * 2 modes + 4 elements * 4 interior.
        assert_eq!(asm.ndof, 9 + 12 * 2 + 4 * 4);
        assert_eq!(asm.nboundary, 9 + 24);
        // All exterior dofs Dirichlet: 8 boundary vertices + 8 boundary
        // edges * 2 modes.
        let mask = asm.dirichlet_mask(&mesh, |_| true);
        assert_eq!(mask.iter().filter(|&&d| d).count(), 8 + 8 * 2);
        assert!(asm.dirichlet_mask(&mesh, |_| false).iter().all(|&d| !d));
    }

    #[test]
    fn dof_counts_tri_mesh() {
        let mesh = rect_tris(0.0, 1.0, 0.0, 1.0, 1, 1);
        let p = 4;
        let basis = TriBasis::new(p);
        let asm = Assembly::build(&mesh, |_| &basis);
        // 4 vertices + 5 edges * 3 + 2 els * interior((4-1)(4-2)/2 = 3).
        assert_eq!(asm.ndof, 4 + 15 + 6);
    }

    #[test]
    fn shared_edge_dofs_match_with_signs() {
        let mesh = rect_quads(0.0, 2.0, 0.0, 1.0, 2, 1);
        let p = 4;
        let basis = QuadBasis::new(p);
        let asm = Assembly::build(&mesh, |_| &basis);
        // The two elements share one edge; find the global dofs each maps
        // there and verify they coincide.
        use std::collections::HashMap;
        let mut seen: HashMap<usize, Vec<(usize, f64)>> = HashMap::new();
        for ei in 0..2 {
            for &(g, s) in &asm.elem_dofs[ei] {
                seen.entry(g).or_default().push((ei, s));
            }
        }
        let shared: Vec<_> = seen.iter().filter(|(_, v)| v.len() == 2).collect();
        // Shared: 2 vertices + (p-1) edge modes.
        assert_eq!(shared.len(), 2 + (p - 1));
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 1);
        let basis = QuadBasis::new(2);
        let asm = Assembly::build(&mesh, |_| &basis);
        let global: Vec<f64> = (0..asm.ndof).map(|i| i as f64 + 1.0).collect();
        let mut local = vec![0.0; basis.nmodes()];
        asm.gather(0, &global, &mut local);
        let mut back = vec![0.0; asm.ndof];
        asm.scatter_add(0, &local, &mut back);
        // scatter(gather(x)) gives x at element-0 dofs scaled by sign^2=1.
        for &(g, _) in &asm.elem_dofs[0] {
            assert_eq!(back[g], global[g]);
        }
    }

    #[test]
    fn interior_dofs_are_each_elements_last_modes() {
        let mesh = rect_tris(0.0, 1.0, 0.0, 1.0, 2, 1);
        for (p, per_elem) in [(2usize, 0usize), (4, 3)] {
            let basis = TriBasis::new(p);
            let asm = Assembly::build(&mesh, |_| &basis);
            let mut next = asm.nboundary;
            for (ei, dofs) in asm.elem_dofs.iter().enumerate() {
                let r = asm.interior(ei);
                assert_eq!((r.start, r.len()), (next, per_elem), "order {p}, element {ei}");
                let tail: Vec<(usize, f64)> = r.clone().map(|g| (g, 1.0)).collect();
                assert_eq!(dofs[dofs.len() - per_elem..], tail[..]);
                next = r.end;
            }
            assert_eq!(next, asm.ndof);
        }
    }

    #[test]
    fn bandwidth_positive_and_bounded() {
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 3, 3);
        let basis = QuadBasis::new(3);
        let asm = Assembly::build(&mesh, |_| &basis);
        let kd = asm.bandwidth();
        assert!(kd > 0 && kd < asm.ndof);
    }
}
