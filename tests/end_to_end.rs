//! Cross-crate integration tests: exercise the full stack (mesh →
//! partition → spectral → solvers → models) the way the examples and the
//! experiment harness do.

use nektar_repro::machine::{machine, Kernel, MachineId};
use nektar_repro::mesh::{bluff_body_mesh, rect_quads, wing_box_mesh};
use nektar_repro::mpi::prelude::*;
use nektar_repro::nektar::fourier::{FourierConfig, NektarF};
use nektar_repro::nektar::opstream::Recorder;
use nektar_repro::nektar::replay::replay_serial;
use nektar_repro::nektar::serial2d::{Serial2dSolver, SolverConfig};
use nektar_repro::nektar::timers::Stage;
use nektar_repro::net::{cluster, NetId};
use nektar_repro::partition::{edge_cut, imbalance, partition_kway, Graph, PartitionOptions};
use nektar_repro::spectral::{HelmholtzProblem, SolveMethod};
use nkt_mesh::BoundaryTag;

fn run<R: Send, F: Fn(&mut Comm) -> R + Sync>(
    p: usize,
    net: nektar_repro::net::ClusterNetwork,
    f: F,
) -> Vec<R> {
    World::from_env().ranks(p).net(net).run(f)
}

/// Mesh generator → partitioner → balanced distribution with modest cut.
#[test]
fn mesh_to_partition_pipeline() {
    let mesh = bluff_body_mesh(2);
    let g = Graph::from_edges(mesh.nelems(), &mesh.dual_edges());
    for p in [2usize, 4, 8] {
        let part = partition_kway(&g, p, &PartitionOptions::default());
        assert!(imbalance(&g, &part, p) < 1.3, "P={p}");
        let cut = edge_cut(&g, &part);
        // A 2-D mesh of E elements has cut O(sqrt(E) * parts).
        let bound = 4 * p as i64 * (mesh.nelems() as f64).sqrt() as i64;
        assert!(cut < bound, "P={p}: cut {cut} vs bound {bound}");
    }
}

/// Spectral solver on the actual paper-domain mesh (with the body hole).
#[test]
fn poisson_on_bluff_body_mesh() {
    let mesh = bluff_body_mesh(1);
    let exact = |x: [f64; 2]| 1.0 + 0.01 * x[0] - 0.02 * x[1];
    let mut prob = HelmholtzProblem::new(
        mesh,
        3,
        0.0,
        &[
            BoundaryTag::Wall,
            BoundaryTag::Inflow,
            BoundaryTag::Outflow,
            BoundaryTag::Side,
        ],
    );
    let (u, _) = prob.solve(|_| 0.0, exact, SolveMethod::BandedDirect);
    let err = prob.l2_error(&u, exact);
    // Linear solutions are exact; mesh area is ~399, so scale tolerance.
    assert!(err < 1e-8, "harmonic reproduction error {err}");
}

/// Serial solver on the bluff-body mesh: the physical setup of Table 1.
#[test]
fn bluff_body_wake_develops() {
    let mesh = bluff_body_mesh(1);
    let cfg = SolverConfig { order: 3, dt: 5e-3, nu: 0.02, scheme_order: 2, advect: true };
    let mut s = Serial2dSolver::new(
        mesh,
        cfg,
        |x| if x[0] < -14.0 { 1.0 } else { 0.0 },
        |_| 0.0,
    );
    s.set_initial(|_| 1.0, |_| 0.0);
    for _ in 0..7 {
        s.step();
    }
    s.recorder = Recorder::enabled();
    s.step();
    // The flow must stay bounded and the body must have created vorticity
    // (nonzero v component somewhere).
    let e = s.kinetic_energy();
    assert!(e.is_finite() && e > 0.0);
    let vmax = s.v.iter().fold(0.0f64, |m, &c| m.max(c.abs()));
    assert!(vmax > 1e-8, "wake never deflected the flow (v = 0)");
    // Solve stages dominate, as in Figure 12 — on the virtual clock, where
    // it is deterministic: the last step's op stream replayed on the
    // paper's Pentium II.
    let rec = s.recorder.take().expect("enabled above");
    let pct = replay_serial(&rec, &machine(MachineId::Muses)).percentages();
    let solves = pct[Stage::PressureSolve.index()] + pct[Stage::ViscousSolve.index()];
    assert!(solves > 25.0, "solves only {solves}% of the replayed step");
}

/// NekTar-F across two different modeled networks gives bit-identical
/// physics but different virtual times.
#[test]
fn network_changes_time_not_physics() {
    let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
    let cfg = FourierConfig {
        order: 3,
        dt: 1e-3,
        nu: 0.05,
        nz: 8,
        lz: 2.0 * std::f64::consts::PI,
        scheme_order: 2,
    };
    let init = |x: [f64; 3]| {
        let pi = std::f64::consts::PI;
        let (sx, cx) = (pi * x[0]).sin_cos();
        let (sy, cy) = (pi * x[1]).sin_cos();
        [
            2.0 * pi * sx * sx * sy * cy * x[2].cos(),
            -2.0 * pi * sx * cx * sy * sy * x[2].cos(),
            0.0,
        ]
    };
    let run_on = |nid: NetId| {
        let mesh = mesh.clone();
        let cfg = cfg.clone();
        let out = run(4, cluster(nid), move |c| {
            let mut s = NektarF::new(c, &mesh, cfg.clone());
            s.set_initial(init);
            for _ in 0..2 {
                s.step(c);
            }
            (s.kinetic_energy(c), c.wtime())
        });
        out[0]
    };
    let (e_eth, t_eth) = run_on(NetId::RoadRunnerEth);
    let (e_myr, t_myr) = run_on(NetId::RoadRunnerMyr);
    assert!((e_eth - e_myr).abs() < 1e-12 * (1.0 + e_eth), "physics must not depend on the network");
    assert!(t_eth > 2.0 * t_myr, "ethernet {t_eth} should be much slower than myrinet {t_myr}");
}

/// The machine models honour the paper's §3.3 kernel-level conclusion.
#[test]
fn kernel_conclusions_hold() {
    let pc = machine(MachineId::Muses);
    // "the T3E and SP2-P2SC machines are superior to the PC clusters".
    for id in [MachineId::T3e, MachineId::P2sc] {
        let sc = machine(id);
        assert!(
            sc.kernel_rate(Kernel::Dgemm, 256).mflops > pc.kernel_rate(Kernel::Dgemm, 256).mflops,
            "{}",
            sc.name
        );
    }
    // "with the rapid improvement of PC CPUs, the difference is likely to
    // quickly narrow" — the PC is not the slowest of the field.
    let slower_exists = [MachineId::Sp2Silver, MachineId::Onyx2]
        .iter()
        .any(|&id| {
            machine(id).kernel_rate(Kernel::Ddot, 512).mflops
                < pc.kernel_rate(Kernel::Ddot, 512).mflops
        });
    assert!(slower_exists);
}

/// Wing mesh → partition → distributed 3-D Poisson through the public API.
#[test]
fn wing_mesh_parallel_poisson() {
    use nektar_repro::nektar::hex3d::{HexHelmholtz, HexNumbering, HexWorkspace};
    use nkt_mpi::ReduceOp;
    let mesh = wing_box_mesh(1);
    let order = 2;
    let tags = [
        BoundaryTag::Inflow,
        BoundaryTag::Outflow,
        BoundaryTag::Side,
        BoundaryTag::Wall,
    ];
    let numbering = HexNumbering::build(&mesh, order);
    let tagged = numbering.tagged(&mesh, &tags);
    let g = Graph::from_edges(mesh.nelems(), &mesh.dual_edges());
    let part = partition_kway(&g, 2, &PartitionOptions::default());
    let out = run(2, cluster(NetId::T3e), |c| {
        let h = HexHelmholtz::new(c, &mesh, &numbering, &part);
        let bc = h.dirichlet(&tagged);
        let mut rec = nektar_repro::nektar::opstream::Recorder::disabled();
        // Solve (−∇² + 1)u = 1 with u = 0 on the boundary: u is bounded by
        // the max principle (0 ≤ u < 1).
        let mut b = vec![0.0; h.nlocal()];
        // RHS ∫ 1·φ: vertex modes integrate to positive values.
        for le in 0..h.my_elems.len() {
            let [hx, hy, hz] = h.scales[le];
            let vol = hx * hy * hz;
            let nm1 = h.p + 1;
            for (m, &l) in h.elem_dofs(le).iter().enumerate() {
                let (i, j, k) = (m % nm1, (m / nm1) % nm1, m / (nm1 * nm1));
                let w1 = |idx: usize| {
                    let op = &h.op1;
                    let mut s = 0.0;
                    for q in 0..op.basis.nquad() {
                        s += op.basis.w[q] * op.basis.val[idx][q];
                    }
                    s / 2.0
                };
                b[l] += vol * w1(i) * w1(j) * w1(k);
            }
        }
        h.gs.exchange(c, &mut b, ReduceOp::Sum);
        let mut x = vec![0.0; h.nlocal()];
        let ws = &mut HexWorkspace::default();
        let solve = h.pcg(c, [1.0, 1.0], &bc, &b, &mut x, 1e-8, 2000, ws, &mut rec);
        // Max principle check on vertex dofs only (vertex modes are
        // interpolatory; bubble coefficients are not point values).
        let nm1 = h.p + 1;
        let mut umax = f64::MIN;
        let mut umin = f64::MAX;
        for le in 0..h.my_elems.len() {
            for (m, &l) in h.elem_dofs(le).iter().enumerate() {
                let (i, j, k) = (m % nm1, (m / nm1) % nm1, m / (nm1 * nm1));
                let vert = (i == 0 || i == h.p) && (j == 0 || j == h.p) && (k == 0 || k == h.p);
                if vert {
                    umax = umax.max(x[l]);
                    umin = umin.min(x[l]);
                }
            }
        }
        (solve, umin, umax)
    });
    for &(solve, umin, umax) in &out {
        assert!(solve.converged, "PCG did not converge: {solve:?}");
        assert!(umax > 0.0 && umax < 1.0, "max principle violated: {umax}");
        assert!(umin > -0.2, "large undershoot: {umin}");
    }
}

/// The gate's real family table owns every kind of file committed under
/// `results/` — the directory passes against itself with a table for
/// each — and `nkt-diff` takes `--fresh` and `--baseline` and nothing
/// else: tolerances are constants next to each extractor.
#[test]
fn nkt_diff_gates_every_committed_family_and_has_no_knobs() {
    let results = nektar_repro::trace::results_dir();
    let results = results.to_str().expect("utf-8 workspace path");
    let run = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_nkt-diff"))
            .args(args)
            .output()
            .expect("spawn nkt-diff")
    };
    let same = run(&["--fresh", results, "--baseline", results]);
    let table = String::from_utf8_lossy(&same.stdout);
    assert!(same.status.success(), "{table}");
    for owned in [
        "PROF_flapping_wing_ale.json:",
        "STATS_cylinder_wake.json:",
        "CALIB_flapping_wing_ale.json:",
        "table2_nektar_f.txt:",
        "HASHES.txt:",
    ] {
        assert!(table.contains(owned), "no table for {owned}\n{table}");
    }
    for bad in [&["--fresh", results, "--rel", "0.2"][..], &["--baseline", results], &["--fresh"]] {
        assert_eq!(run(bad).status.code(), Some(2), "{bad:?} must be a usage error");
    }
}

/// Every committed JSON baseline is exactly what the one writer renders
/// from its parse: a hand-edited baseline, or an artifact written
/// around `json::render`, fails here.
#[test]
fn committed_baselines_are_canonical() {
    use nektar_repro::trace::json::{parse, render};
    let mut seen = 0;
    for entry in std::fs::read_dir(nektar_repro::trace::results_dir()).expect("results/") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&path).expect("utf-8 baseline");
            let doc = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert!(render(&doc) == text, "{} is not canonical", path.display());
            seen += 1;
        }
    }
    assert!(seen >= 10, "only {seen} JSON baselines under results/");
}
