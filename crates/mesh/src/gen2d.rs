//! 2-D mesh generators for the paper's domains.

use crate::elem::{BoundaryTag, ElemKind};
use crate::mesh2d::{Elem2d, Mesh2d};

/// Structured quadrilateral mesh of the rectangle `[x0,x1] × [y0,y1]`
/// with `nx × ny` cells. All boundaries tagged `Wall`.
pub fn rect_quads(x0: f64, x1: f64, y0: f64, y1: f64, nx: usize, ny: usize) -> Mesh2d {
    let xs: Vec<f64> = (0..=nx).map(|i| x0 + (x1 - x0) * i as f64 / nx as f64).collect();
    let ys: Vec<f64> = (0..=ny).map(|j| y0 + (y1 - y0) * j as f64 / ny as f64).collect();
    structured_quads(&xs, &ys, &[], |_| BoundaryTag::Wall)
}

/// Structured triangle mesh: [`rect_quads`] with each quad split along
/// its diagonal.
pub fn rect_tris(x0: f64, x1: f64, y0: f64, y1: f64, nx: usize, ny: usize) -> Mesh2d {
    let quads = rect_quads(x0, x1, y0, y1, nx, ny);
    let mut elems = Vec::with_capacity(2 * quads.nelems());
    for el in &quads.elems {
        let v = &el.verts;
        elems.push(Elem2d { kind: ElemKind::Tri, verts: vec![v[0], v[1], v[2]] });
        elems.push(Elem2d { kind: ElemKind::Tri, verts: vec![v[0], v[2], v[3]] });
    }
    Mesh2d::new(quads.verts.clone(), elems, |_| BoundaryTag::Wall)
}

/// The bluff-body wake domain of paper Figure 11 (left): rectangle
/// `[-15, 25] × [-5, 5]` with a unit square body at the origin
/// (substitution for the cylinder cross-section — see crate docs).
///
/// `refine` scales resolution: `refine = 1` gives 108 elements, and
/// `refine = 3` gives 972, the closest to the paper's 902.
/// Grid lines are geometrically graded toward the body.
pub fn bluff_body_mesh(refine: usize) -> Mesh2d {
    let r = refine.max(1);
    // Graded 1-D point sets including the body faces at ±0.5.
    let xs = concat_graded(&[
        graded(-15.0, -0.5, 4 * r, 0.75), // upstream, clustering to body
        graded(-0.5, 0.5, 2 * r, 1.0),    // across the body
        graded(0.5, 25.0, 8 * r, 1.25),   // wake, expanding downstream
    ]);
    let ys = concat_graded(&[
        graded(-5.0, -0.5, 3 * r, 0.8),
        graded(-0.5, 0.5, 2 * r, 1.0),
        graded(0.5, 5.0, 3 * r, 1.25),
    ]);
    let hole = |cx: f64, cy: f64| cx > -0.5 && cx < 0.5 && cy > -0.5 && cy < 0.5;
    structured_quads(&xs, &ys, &[&hole], |mid| {
        let [x, y] = mid;
        if (x + 15.0).abs() < 1e-9 {
            BoundaryTag::Inflow
        } else if (x - 25.0).abs() < 1e-9 {
            BoundaryTag::Outflow
        } else if (y - 5.0).abs() < 1e-9 || (y + 5.0).abs() < 1e-9 {
            BoundaryTag::Side
        } else {
            BoundaryTag::Wall // body surface
        }
    })
}

/// Geometric grading of `[a, b]` into `n` cells; `ratio` is the size ratio
/// of the last cell to the first (1.0 = uniform).
fn graded(a: f64, b: f64, n: usize, ratio: f64) -> Vec<f64> {
    let n = n.max(1);
    if (ratio - 1.0).abs() < 1e-12 {
        return (0..=n).map(|i| a + (b - a) * i as f64 / n as f64).collect();
    }
    let q = ratio.powf(1.0 / (n as f64 - 1.0).max(1.0));
    // First cell h0 with h0 (q^n - 1)/(q - 1) = b - a.
    let h0 = (b - a) * (q - 1.0) / (q.powi(n as i32) - 1.0);
    let mut pts = Vec::with_capacity(n + 1);
    let mut x = a;
    pts.push(a);
    let mut h = h0;
    for _ in 0..n {
        x += h;
        pts.push(x);
        h *= q;
    }
    // Pin the endpoint exactly.
    *pts.last_mut().expect("n >= 1 segments") = b;
    pts
}

/// Joins graded segments (dropping duplicated junction points).
fn concat_graded(parts: &[Vec<f64>]) -> Vec<f64> {
    let mut out = Vec::new();
    for (i, p) in parts.iter().enumerate() {
        if i == 0 {
            out.extend_from_slice(p);
        } else {
            out.extend_from_slice(&p[1..]);
        }
    }
    out
}

type HolePredicate<'a> = &'a dyn Fn(f64, f64) -> bool;

/// Builds a structured quad mesh on a tensor grid of `xs × ys`, dropping
/// cells whose centre falls in any `hole`, and tagging boundary edges via
/// `tagger`.
fn structured_quads(
    xs: &[f64],
    ys: &[f64],
    holes: &[HolePredicate<'_>],
    tagger: impl Fn([f64; 2]) -> BoundaryTag,
) -> Mesh2d {
    let nx = xs.len() - 1;
    let ny = ys.len() - 1;
    let vid = |i: usize, j: usize| i + j * (nx + 1);
    let mut verts = Vec::with_capacity((nx + 1) * (ny + 1));
    for &y in ys {
        for &x in xs {
            verts.push([x, y]);
        }
    }
    let mut elems = Vec::with_capacity(nx * ny);
    for j in 0..ny {
        for i in 0..nx {
            let cx = 0.5 * (xs[i] + xs[i + 1]);
            let cy = 0.5 * (ys[j] + ys[j + 1]);
            if holes.iter().any(|h| h(cx, cy)) {
                continue;
            }
            elems.push(Elem2d {
                kind: ElemKind::Quad,
                verts: vec![vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)],
            });
        }
    }
    // Drop unused vertices (hole interiors) and renumber.
    let mut used = vec![false; verts.len()];
    for el in &elems {
        for &v in &el.verts {
            used[v] = true;
        }
    }
    let mut remap = vec![usize::MAX; verts.len()];
    let mut packed = Vec::new();
    for (v, &u) in used.iter().enumerate() {
        if u {
            remap[v] = packed.len();
            packed.push(verts[v]);
        }
    }
    let elems = elems
        .into_iter()
        .map(|mut e| {
            for v in &mut e.verts {
                *v = remap[*v];
            }
            e
        })
        .collect();
    Mesh2d::new(packed, elems, tagger)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_quads_counts_and_area() {
        let m = rect_quads(0.0, 2.0, 0.0, 1.0, 4, 2);
        assert_eq!(m.nelems(), 8);
        assert_eq!(m.nverts(), 15);
        assert!((m.total_area() - 2.0).abs() < 1e-12);
        m.validate().unwrap();
    }

    #[test]
    fn rect_tris_doubles_elements() {
        let m = rect_tris(0.0, 1.0, 0.0, 1.0, 3, 3);
        assert_eq!(m.nelems(), 18);
        assert!((m.total_area() - 1.0).abs() < 1e-12);
        m.validate().unwrap();
    }

    #[test]
    fn graded_endpoints_and_monotonicity() {
        let pts = graded(-1.0, 3.0, 7, 2.0);
        assert_eq!(pts.len(), 8);
        assert_eq!(pts[0], -1.0);
        assert_eq!(pts[7], 3.0);
        for w in pts.windows(2) {
            assert!(w[1] > w[0]);
        }
        // Last cell about twice the first.
        let h0 = pts[1] - pts[0];
        let hn = pts[7] - pts[6];
        assert!((hn / h0 - 2.0).abs() < 0.05);
    }

    #[test]
    fn bluff_body_mesh_valid_with_hole() {
        let m = bluff_body_mesh(1);
        m.validate().unwrap();
        // Area = 40x10 rectangle minus 1x1 body.
        assert!((m.total_area() - 399.0).abs() < 1e-9, "{}", m.total_area());
        // All four tags appear.
        use std::collections::HashSet;
        let tags: HashSet<_> = m.edges.iter().filter_map(|e| e.tag).collect();
        assert!(tags.contains(&BoundaryTag::Inflow));
        assert!(tags.contains(&BoundaryTag::Outflow));
        assert!(tags.contains(&BoundaryTag::Side));
        assert!(tags.contains(&BoundaryTag::Wall));
    }

    #[test]
    fn bluff_body_refinement_scales_toward_paper_count() {
        let coarse = bluff_body_mesh(1).nelems();
        let fine = bluff_body_mesh(4).nelems();
        assert!(fine > 10 * coarse, "{coarse} -> {fine}");
        // Paper mesh: 902 elements. refine=4 should be the same order.
        assert!((500..2000).contains(&fine), "{fine}");
    }

    #[test]
    fn bluff_body_dual_graph_connected() {
        let m = bluff_body_mesh(1);
        let dual = m.dual_edges();
        // Union-find connectivity check.
        let mut parent: Vec<usize> = (0..m.nelems()).collect();
        fn find(p: &mut Vec<usize>, x: usize) -> usize {
            if p[x] != x {
                let r = find(p, p[x]);
                p[x] = r;
            }
            p[x]
        }
        for (a, b) in dual {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            parent[ra] = rb;
        }
        let root = find(&mut parent, 0);
        for e in 0..m.nelems() {
            assert_eq!(find(&mut parent, e), root, "element {e} disconnected");
        }
    }
}
