//! Property-based tests for the spectral/hp element method: exactness of
//! polynomial reproduction, operator symmetry and assembly invariants
//! over random meshes and orders.

use nkt_blas::{dpotrf, dpotrs};
use nkt_mesh::{bluff_body_mesh, rect_quads, rect_tris, BoundaryTag, Elem2d, ElemKind, Mesh2d};
use nkt_spectral::element::Expansion;
use nkt_spectral::{
    boundary_band_order, Assembly, BandOrder, Discretization, HelmholtzProblem, QuadBasis,
    SolveMethod, TriBasis,
};
use nkt_testkit::{one_of, prop_assert, prop_assert_eq, prop_assume, prop_check};

const ALL: &[BoundaryTag] = &[
    BoundaryTag::Wall,
    BoundaryTag::Inflow,
    BoundaryTag::Outflow,
    BoundaryTag::Side,
];

/// The unit square in `nx × ny` cells, each a quad (`kind` 0), two
/// triangles (1), or alternately one or the other (2), one tag a side;
/// or (3) a skewed, non-affine quadrilateral sharing an edge with a
/// triangle, inflow on the left and outflow on the far right.
fn drawn_mesh(kind: usize, nx: usize, ny: usize) -> Mesh2d {
    if kind == 3 {
        let verts = vec![[0.0, 0.0], [1.0, 0.0], [1.2, 1.1], [-0.1, 0.9], [2.0, 0.2]];
        let elems = vec![
            Elem2d { kind: ElemKind::Quad, verts: vec![0, 1, 2, 3] },
            Elem2d { kind: ElemKind::Tri, verts: vec![1, 4, 2] },
        ];
        return Mesh2d::new(verts, elems, |mid| {
            if mid[0] < 0.0 {
                BoundaryTag::Inflow
            } else if mid[0] > 1.3 && mid[1] > 0.3 {
                BoundaryTag::Outflow
            } else {
                BoundaryTag::Wall
            }
        });
    }
    let quads = rect_quads(0.0, 1.0, 0.0, 1.0, nx, ny);
    let mut elems = Vec::new();
    for (i, el) in quads.elems.iter().enumerate() {
        if kind == 0 || (kind == 2 && i % 2 == 0) {
            elems.push(el.clone());
        } else {
            let v = &el.verts;
            elems.push(Elem2d { kind: ElemKind::Tri, verts: vec![v[0], v[1], v[2]] });
            elems.push(Elem2d { kind: ElemKind::Tri, verts: vec![v[0], v[2], v[3]] });
        }
    }
    Mesh2d::new(quads.verts.clone(), elems, |mid| {
        if mid[0] < 1e-9 {
            BoundaryTag::Inflow
        } else if mid[0] > 1.0 - 1e-9 {
            BoundaryTag::Outflow
        } else if mid[1] < 1e-9 {
            BoundaryTag::Wall
        } else {
            BoundaryTag::Side
        }
    })
}

/// Dense `asm`-numbered sum of the elemental matrices `elem(ei)`: the
/// reference that knows nothing of the condensation or the band order
/// `HelmholtzProblem` uses.
fn dense_assemble(prob: &HelmholtzProblem, elem: impl Fn(usize) -> Vec<f64>) -> Vec<f64> {
    let n = prob.asm.ndof;
    let mut k = vec![0.0; n * n];
    for (ei, dofs) in prob.asm.elem_dofs.iter().enumerate() {
        let h = elem(ei);
        let nm = dofs.len();
        for (a, &(ga, sa)) in dofs.iter().enumerate() {
            for (b, &(gb, sb)) in dofs.iter().enumerate() {
                k[ga + gb * n] += sa * sb * h[a + b * nm];
            }
        }
    }
    k
}

fn dense_solve(mut k: Vec<f64>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    dpotrf(n, &mut k, n).expect("reference matrix SPD");
    dpotrs(n, &k, n, &mut b).expect("reference solve");
    b
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).fold(0.0f64, |m, (x, y)| m.max((x - y).abs()))
}

const TAGS: [BoundaryTag; 4] =
    [BoundaryTag::Inflow, BoundaryTag::Outflow, BoundaryTag::Wall, BoundaryTag::Side];

fn tags_of(mask: usize) -> Vec<BoundaryTag> {
    (0..4).filter(|t| mask >> t & 1 == 1).map(|t| TAGS[t]).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The wake mesh of the benchmark: `matrix` is the condensed boundary
/// system (860 of 1832 dofs), RCM must bring its Figure-10 band down, and
/// it must be stored at exactly the width the one ordering gives.
#[test]
fn wake_mesh_band_is_rcm_narrow() {
    let tags = [BoundaryTag::Inflow, BoundaryTag::Wall, BoundaryTag::Side];
    let viscous = HelmholtzProblem::new(bluff_body_mesh(1), 4, 100.0, &tags);
    assert_eq!(viscous.matrix.n(), viscous.asm.nboundary);
    assert_eq!(viscous.matrix.kd(), boundary_band_order(&viscous.asm).kd);
    assert!(viscous.matrix.kd() <= 150, "band {}", viscous.matrix.kd());
    assert!(viscous.asm.bandwidth() > 1000, "natural band {}", viscous.asm.bandwidth());
}

prop_check! {
    #![cases(12)]

    /// The direct solve and the in-place multi-solve agree with a dense
    /// natural-order solve of the same constrained system, whatever the
    /// mesh (order-2 triangles have no interior mode), order, λ (7.5e4 is
    /// the wake's viscous one), Dirichlet set (drawn tags, optionally one
    /// pinned vertex), boundary values and number of right-hand sides.
    fn solve_matches_dense_natural_order_reference(
        kind in 0usize..4, nx in 1usize..4, ny in 1usize..4, p in 2usize..7,
        lam in one_of(&[0.0f64, 0.7, 40.0, 7.5e4]), tag_mask in 0usize..16,
        pin in 0usize..4, seed in 0u64..1000
    ) {
        let tags = tags_of(tag_mask);
        let mut prob = HelmholtzProblem::new(drawn_mesh(kind, nx, ny), p, lam, &tags);
        let n = prob.asm.ndof;
        // pin == 0 leaves the tags alone unless the operator would be
        // singular (pure Neumann Poisson); only a vertex dof carries the
        // constant mode, and the vertex dofs are numbered first.
        if pin > 0 || (lam == 0.0 && prob.ndirichlet() == 0) {
            prob.pin_dof(pin * 37 % prob.mesh.nverts());
        }
        let wave = |i: usize, f: f64| ((i as u64 + seed) as f64 * f).sin();
        let rhs: Vec<f64> = (0..n).map(|i| wave(i, 0.37)).collect();
        let u_d: Vec<f64> = (0..n).map(|i| 1.0 + wave(i, 0.11)).collect();

        // The dense constrained system for boundary values `u_d`.
        let fixed: Vec<usize> = (0..n).filter(|&d| prob.dirichlet()[d]).collect();
        let unconstrained = dense_assemble(&prob, |ei| prob.ops[ei].mats.helmholtz(lam));
        let dense = |rhs: &[f64], u_d: &[f64]| {
            let (mut k, mut b) = (unconstrained.clone(), rhs.to_vec());
            for &d in &fixed {
                for i in 0..n {
                    b[i] -= k[i + d * n] * u_d[d];
                    k[i + d * n] = 0.0;
                    k[d + i * n] = 0.0;
                }
                k[d + d * n] = 1.0;
            }
            for &d in &fixed {
                b[d] = u_d[d];
            }
            dense_solve(k, b)
        };
        let want = dense(&rhs, &u_d);
        let scale = 1.0 + want.iter().fold(0.0f64, |m, v| m.max(v.abs()));

        let (direct, _) = prob.solve_with_rhs(rhs, &u_d, SolveMethod::BandedDirect);
        prop_assert!(max_abs_diff(&direct, &want) < 1e-9 * scale,
            "direct off by {}", max_abs_diff(&direct, &want));

        // One to six right-hand sides through one factor sweep, each with
        // its own boundary values, then all of them with homogeneous ones.
        let nrhs = 1 + (seed % 6) as usize;
        let rhs_of = |r: usize| -> Vec<f64> { (0..n).map(|i| wave(i * (r + 2), 0.23)).collect() };
        let data: Vec<Vec<f64>> =
            (0..nrhs).map(|r| (0..n).map(|i| 1.0 + wave(i + 5 * r, 0.11)).collect()).collect();
        let zeros = vec![0.0; n];
        let mut band = Vec::new();
        for with_data in [true, false] {
            let mut xs: Vec<Vec<f64>> = (0..nrhs).map(rhs_of).collect();
            let mut views: Vec<&mut [f64]> = xs.iter_mut().map(|x| &mut x[..]).collect();
            let u_ds: Vec<&[f64]> = data.iter().map(|d| &d[..]).collect();
            prob.solve_banded_in_place(&mut views, with_data.then_some(&u_ds[..]), &mut band);
            for (r, got) in xs.iter().enumerate() {
                let want = dense(&rhs_of(r), if with_data { &data[r] } else { &zeros });
                let scale = 1.0 + want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                prop_assert!(max_abs_diff(got, &want) < 1e-9 * scale,
                    "rhs {r} of {nrhs}, data {with_data}: off by {}", max_abs_diff(got, &want));
            }
        }
    }

    /// A member of a shared discretization — assembled after siblings
    /// with other λ and tags — has the band of the same problem built
    /// alone, bit for bit, and both are the Schur complement on the
    /// boundary dofs of the dense natural-order sum of the elemental
    /// matrices, with identity Dirichlet rows.
    fn member_band_equals_standalone_and_dense_reference(
        kind in 0usize..3, nx in 1usize..4, ny in 1usize..4, p in 2usize..7,
        lam in one_of(&[0.0f64, 0.7, 40.0]), tag_mask in 0usize..16, other_mask in 0usize..16
    ) {
        let mesh = drawn_mesh(kind, nx, ny);
        let tags = tags_of(tag_mask);
        let disc = Discretization::new(mesh.clone(), p);
        let _siblings = [
            HelmholtzProblem::member(&disc, lam + 3.0, &tags_of(other_mask)),
            HelmholtzProblem::member(&disc, 0.0, &tags),
        ];
        let member = HelmholtzProblem::member(&disc, lam, &tags);
        let alone = HelmholtzProblem::new(mesh, p, lam, &tags);
        prop_assert_eq!(member.matrix.kd(), alone.matrix.kd());
        prop_assert_eq!(bits(member.matrix.ab()), bits(alone.matrix.ab()));
        prop_assert_eq!(member.dirichlet(), alone.dirichlet());

        // Dense S = K_bb − K_bi K_ii⁻¹ K_ib, interiors eliminated all at
        // once: column j of K_ii⁻¹ K_ib from one dense solve.
        let (n, nb) = (member.asm.ndof, member.asm.nboundary);
        let ni = n - nb;
        let k = dense_assemble(&member, |ei| member.ops[ei].mats.helmholtz(lam));
        let mut kii = vec![0.0; ni * ni];
        for c in 0..ni {
            kii[c * ni..(c + 1) * ni].copy_from_slice(&k[nb + (nb + c) * n..(nb + c + 1) * n]);
        }
        if ni > 0 {
            dpotrf(ni, &mut kii, ni).expect("interior block SPD");
        }
        // `matrix` is in band order; the permutation is the one ordering's.
        let BandOrder { pos, kd, .. } = boundary_band_order(&member.asm);
        prop_assert_eq!((member.matrix.n(), member.matrix.kd()), (nb, kd));
        for j in 0..nb {
            let mut x = k[nb + j * n..(j + 1) * n].to_vec();
            if ni > 0 {
                dpotrs(ni, &kii, ni, &mut x).expect("interior solve");
            }
            for i in 0..nb {
                let coupling: f64 = (0..ni).map(|r| k[i + (nb + r) * n] * x[r]).sum();
                let fixed = member.dirichlet()[i] || member.dirichlet()[j];
                let want = if fixed { f64::from(i == j) } else { k[i + j * n] - coupling };
                let got = member.matrix.get(pos[i], pos[j]);
                prop_assert!((got - want).abs() <= 1e-11 * (1.0 + want.abs()),
                    "S[{i},{j}] = {got}, dense {want}");
            }
        }
    }

    /// `pin_dof` constrains the member it is called on and nothing else:
    /// a sibling keeps its mask, its band and its solutions.
    fn pin_dof_leaves_siblings_untouched(
        kind in 0usize..3, nx in 1usize..4, ny in 1usize..4, p in 3usize..6,
        tag_mask in 1usize..16, pin in 0usize..4, seed in 0u64..1000
    ) {
        let tags = tags_of(tag_mask);
        let disc = Discretization::new(drawn_mesh(kind, nx, ny), p);
        let mut pinned = HelmholtzProblem::member(&disc, 0.7, &tags);
        let mut sibling = HelmholtzProblem::member(&disc, 0.7, &tags);
        let n = disc.asm.ndof;
        let rhs: Vec<f64> = (0..n).map(|i| ((i as u64 + seed) as f64 * 0.37).sin()).collect();
        let u_d: Vec<f64> = (0..n).map(|i| 1.0 + ((i as u64 + seed) as f64 * 0.11).sin()).collect();
        let mask = sibling.dirichlet().to_vec();
        let band = bits(sibling.matrix.ab());
        let (before, _) = sibling.solve_with_rhs(rhs.clone(), &u_d, SolveMethod::BandedDirect);

        // A vertex or edge dof off every tagged boundary, so the pin is
        // new (one quadrilateral with all four sides tagged has none).
        let free: Vec<usize> = (0..disc.asm.nboundary).filter(|&d| !mask[d]).collect();
        prop_assume!(!free.is_empty());
        let d = free[pin % free.len()];
        pinned.pin_dof(d);
        prop_assert!(pinned.dirichlet()[d]);
        prop_assert_eq!(pinned.ndirichlet(), sibling.ndirichlet() + 1);
        prop_assert_eq!(sibling.dirichlet(), &mask[..]);
        prop_assert_eq!(bits(sibling.matrix.ab()), band);
        let (after, _) = sibling.solve_with_rhs(rhs.clone(), &u_d, SolveMethod::BandedDirect);
        prop_assert_eq!(bits(&after), bits(&before));
        let (moved, _) = pinned.solve_with_rhs(rhs, &u_d, SolveMethod::BandedDirect);
        prop_assert_eq!(moved[d], u_d[d]);
    }

    /// `l2_project` agrees with a dense natural-order mass solve.
    fn l2_project_matches_dense_natural_order_reference(
        kind in 0usize..3, nx in 1usize..4, ny in 1usize..4, p in 2usize..7, c in -2.0f64..2.0
    ) {
        let f = move |x: [f64; 2]| (c * x[0]).sin() + x[1] * x[1];
        let prob = HelmholtzProblem::new(drawn_mesh(kind, nx, ny), p, 1.0, &[]);
        let mut load = vec![0.0; prob.asm.ndof];
        for ei in 0..prob.mesh.nelems() {
            let basis = prob.basis(ei);
            let geom = &prob.ops[ei].geom;
            let local: Vec<f64> = basis
                .val()
                .iter()
                .map(|vm| (0..basis.nquad()).map(|q| geom.jw[q] * f(geom.x[q]) * vm[q]).sum())
                .collect();
            prob.asm.scatter_add(ei, &local, &mut load);
        }
        let want = dense_solve(dense_assemble(&prob, |ei| prob.ops[ei].mats.mass.clone()), load);
        let got = prob.l2_project(f);
        prop_assert!(max_abs_diff(&got, &want) < 1e-9, "off by {}", max_abs_diff(&got, &want));
    }

    /// Laplace problems reproduce any affine solution exactly on any
    /// quadrilateral mesh and order.
    fn laplace_reproduces_affine(nx in 1usize..4, ny in 1usize..4, p in 2usize..6,
                                 a in -2.0f64..2.0, b in -2.0f64..2.0, c in -2.0f64..2.0) {
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, nx, ny);
        let exact = move |x: [f64; 2]| a + b * x[0] + c * x[1];
        let mut prob = HelmholtzProblem::new(mesh, p, 0.0, ALL);
        let (u, _) = prob.solve(|_| 0.0, exact, SolveMethod::BandedDirect);
        prop_assert!(prob.l2_error(&u, exact) < 1e-8);
    }

    /// Same on triangular meshes (collapsed-coordinate basis).
    fn laplace_affine_on_triangles(n in 1usize..3, p in 2usize..5, b in -2.0f64..2.0) {
        let mesh = rect_tris(0.0, 1.0, 0.0, 1.0, n, n);
        let exact = move |x: [f64; 2]| 1.0 + b * x[0] - 0.5 * x[1];
        let mut prob = HelmholtzProblem::new(mesh, p, 0.0, ALL);
        let (u, _) = prob.solve(|_| 0.0, exact, SolveMethod::BandedDirect);
        prop_assert!(prob.l2_error(&u, exact) < 1e-7);
    }

    /// The assembled Helmholtz matrix is symmetric (read through the
    /// banded storage) for random λ.
    fn assembled_matrix_symmetric(nx in 1usize..3, p in 2usize..5, lam in 0.0f64..100.0) {
        let mesh = rect_quads(0.0, 2.0, 0.0, 1.0, nx + 1, nx);
        let prob = HelmholtzProblem::new(mesh, p, lam, &[]);
        let n = prob.matrix.n();
        for i in (0..n).step_by(7) {
            for j in (0..n).step_by(5) {
                prop_assert!((prob.matrix.get(i, j) - prob.matrix.get(j, i)).abs() < 1e-12);
            }
        }
    }

    /// Dof counts follow the Euler-style formula for quads:
    /// verts + edges(p−1) + elems(p−1)².
    fn quad_dof_count_formula(nx in 1usize..5, ny in 1usize..5, p in 2usize..6) {
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, nx, ny);
        let basis = QuadBasis::new(p);
        let asm = Assembly::build(&mesh, |_| &basis);
        let nv = (nx + 1) * (ny + 1);
        let ne = nx * (ny + 1) + ny * (nx + 1);
        let expect = nv + ne * (p - 1) + nx * ny * (p - 1) * (p - 1);
        prop_assert_eq!(asm.ndof, expect);
    }

    /// Gather/scatter adjointness: <scatter(x_local), y> == <x_local,
    /// gather(y)> for every element (signs cancel).
    fn gather_scatter_adjoint(nx in 1usize..4, p in 2usize..5, seed in 0u64..100) {
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, nx, nx);
        let basis = QuadBasis::new(p);
        let asm = Assembly::build(&mesh, |_| &basis);
        let nm = basis.nmodes();
        let xl: Vec<f64> = (0..nm).map(|i| ((i as u64 + seed) as f64 * 0.17).sin()).collect();
        let yg: Vec<f64> = (0..asm.ndof).map(|i| ((i as u64 * 3 + seed) as f64 * 0.07).cos()).collect();
        for ei in 0..mesh.nelems() {
            let mut scattered = vec![0.0; asm.ndof];
            asm.scatter_add(ei, &xl, &mut scattered);
            let lhs: f64 = scattered.iter().zip(&yg).map(|(a, b)| a * b).sum();
            let mut gathered = vec![0.0; nm];
            asm.gather(ei, &yg, &mut gathered);
            let rhs: f64 = xl.iter().zip(&gathered).map(|(a, b)| a * b).sum();
            prop_assert!((lhs - rhs).abs() < 1e-10, "element {ei}");
        }
    }

    /// Triangle basis: quadrature of any mode against the constant one
    /// equals its exact integral computed from the vertex modes'
    /// partition of unity (sanity of collapsed-coordinate weights).
    fn tri_mode_integrals_finite(p in 1usize..6) {
        let b = TriBasis::new(p);
        for m in 0..b.nmodes() {
            let integral: f64 = (0..b.nquad()).map(|q| b.wq[q] * b.val[m][q]).sum();
            prop_assert!(integral.is_finite());
            prop_assert!(integral.abs() <= 2.0 + 1e-9, "mode {m}: {integral}");
        }
        // Vertex modes (barycentric) each integrate to area/3 = 2/3.
        for m in 0..3 {
            let integral: f64 = (0..b.nquad()).map(|q| b.wq[q] * b.val[m][q]).sum();
            prop_assert!((integral - 2.0 / 3.0).abs() < 1e-10);
        }
    }
}
