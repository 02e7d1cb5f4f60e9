//! The promises of `Serial2dSolver::step` that a refactor of the step
//! must keep: the state it produces, bit for bit (hashes recorded at
//! commit 80ffb96, where the step still ran its own modal → quadrature,
//! gradient and weak-form loops over per-element `Vec`s, and held through
//! PR 21; regenerated once when the direct solves became statically
//! condensed and once when the plane kernels were sum-factorised, each
//! time under the tolerance twins below, which did not move),
//! through a mid-run save → restore → continue as well as straight.
//!
//! Allocations at 80ffb96, counted by `common::allocs_in` around the
//! sixth step of `solver(mesh, 2, true)`: 66 on `skewed_mesh(true)` (two
//! elements), 206 on nine quadrilaterals, 2 186 on `wake2d`'s
//! 108-element mesh — 26 a step plus 20 an element. The last test here
//! holds a change to no more than that.

mod common;

use common::{allocs_in, op_stream_digest, Counting};
use nektar::opstream::Recorder;
use nektar::{Serial2dSolver, SolverConfig};
use nkt_ckpt::{Checkpointable, CkptFile, CkptWriter};
use nkt_mesh::{BoundaryTag, Elem2d, ElemKind, Mesh2d};
use std::path::Path;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `fourier_step_contract.rs`'s skewed (non-affine) quadrilateral and
/// triangle with inflow on the left: both bases and a varying Jacobian.
/// With `outflow` the triangle's far edge is an outflow boundary and the
/// pressure problem has Dirichlet rows; without it every edge carries
/// velocity data and the pressure problem pins dof 0 instead.
fn skewed_mesh(outflow: bool) -> Mesh2d {
    let verts = vec![[0.0, 0.0], [1.0, 0.0], [1.2, 1.1], [-0.1, 0.9], [2.0, 0.2]];
    let elems = vec![
        Elem2d { kind: ElemKind::Quad, verts: vec![0, 1, 2, 3] },
        Elem2d { kind: ElemKind::Tri, verts: vec![1, 4, 2] },
    ];
    let mesh = Mesh2d::new(verts, elems, |mid| {
        if mid[0] < 0.0 {
            BoundaryTag::Inflow
        } else if outflow && mid[0] > 1.3 && mid[1] > 0.3 {
            BoundaryTag::Outflow
        } else {
            BoundaryTag::Wall
        }
    });
    mesh.validate().expect("valid mixed mesh");
    mesh
}

/// Boundary data and initial field: non-zero and different in u and v on
/// every Dirichlet edge, so both lifts run and `ud_u != ud_v`.
fn flow(x: [f64; 2]) -> [f64; 2] {
    [
        1.0 + 0.3 * (1.7 * x[1]).sin() - 0.2 * x[0] * x[1],
        0.25 * (1.3 * x[0] + 0.4).cos() + 0.1 * x[1] * x[1],
    ]
}

fn solver(mesh: &Mesh2d, scheme_order: usize, advect: bool) -> Serial2dSolver {
    let cfg = SolverConfig { order: 4, dt: 1e-3, nu: 0.05, scheme_order, advect };
    let mut s = Serial2dSolver::new(mesh.clone(), cfg, |x| flow(x)[0], |x| flow(x)[1]);
    s.set_initial(|x| flow(x)[0], |x| flow(x)[1]);
    s
}

fn stepped(mut s: Serial2dSolver, n: usize) -> Serial2dSolver {
    for _ in 0..n {
        s.step();
    }
    s
}

/// The state after five steps — the `scheme_order − 1` ramp steps, on
/// their own Helmholtz matrices, and full-order ones after them — as its
/// hash and its tolerance twin: kinetic energy, divergence norm, ‖p‖.
fn after_5(mesh: &Mesh2d, scheme_order: usize, advect: bool) -> (u64, [f64; 3]) {
    let mut s = stepped(solver(mesh, scheme_order, advect), 5);
    let e = s.kinetic_energy();
    assert!(e.is_finite() && e > 0.0, "a hash of garbage pins nothing: energy {e}");
    (s.state_hash(), [e, s.divergence_norm(), s.pressure.l2_error(&s.p, |_| 0.0)])
}

/// `[outflow | pinned][advect on | off][scheme_order − 1]`. Regenerated
/// once more when the `hist` section took NekTar-F's framing (a mode
/// count and whole planes where it had per-element slices): the bytes
/// hashed moved, the state did not — the twins and op-stream digests held.
const HASHES: [[[u64; 3]; 2]; 2] = [
    [
        [0x2a0293c50183fdd2, 0x7463d19bb3dab48b, 0x7439ab8c528f1de9],
        [0x5b2a84f0cffe83ad, 0xc775b7b7e67d4e14, 0x0d5520f981f240bf],
    ],
    [
        [0x1077736e904d7f9e, 0x79072f8e27851db5, 0x0708712bac99d96c],
        [0xf0b34ed58df9cd39, 0x2ea5de42703cce8c, 0x2b5380a70d740e7b],
    ],
];

/// The tolerance twin of every hash above, same indexing: `[kinetic
/// energy, divergence norm, ‖p‖]` of the same state, held to 1e-9
/// relative. A change that reassociates the step moves a hash and must
/// leave its twin alone: the hash says "changed", the twin "still right".
/// Recorded at commit 5665650 (full-band direct solves).
const TWINS: [[[[f64; 3]; 3]; 2]; 2] = [
    [
        [
            [2.03815794558e-1, 5.42904592149e0, 1.06584974867e1],
            [2.15748243949e-1, 6.04848470671e0, 1.40586503151e1],
            [2.20160310255e-1, 6.24412445757e0, 1.47120211055e1],
        ],
        [
            [2.03427291855e-1, 5.40043218498e0, 1.07067481766e1],
            [2.15220135931e-1, 6.02096022322e0, 1.41446397403e1],
            [2.19719416879e-1, 6.22377054170e0, 1.46234612293e1],
        ],
    ],
    [
        [
            [1.55291633066e-1, 5.45542602285e0, 8.61865498028e1],
            [1.61882660671e-1, 5.63047492199e0, 1.24512683269e2],
            [1.62413052790e-1, 5.61297177589e0, 1.45437032514e2],
        ],
        [
            [1.54849602409e-1, 5.43866993516e0, 8.60185654570e1],
            [1.61456648907e-1, 5.61555571405e0, 1.24596836230e2],
            [1.62114082324e-1, 5.60284916323e0, 1.45330323102e2],
        ],
    ],
];

/// Calls `check(scenario, (hash, twin) after five steps, (hash, twin)
/// recorded)` for every scenario.
fn for_each_scenario(mut check: impl FnMut(String, (u64, [f64; 3]), (u64, [f64; 3]))) {
    for (mi, outflow) in [true, false].into_iter().enumerate() {
        let mesh = skewed_mesh(outflow);
        for (ai, advect) in [true, false].into_iter().enumerate() {
            for scheme_order in 1..=3 {
                check(
                    format!("outflow {outflow}, advect {advect}, scheme order {scheme_order}"),
                    after_5(&mesh, scheme_order, advect),
                    (HASHES[mi][ai][scheme_order - 1], TWINS[mi][ai][scheme_order - 1]),
                );
            }
        }
    }
}

#[test]
fn five_steps_reproduce_the_recorded_state_hashes() {
    for_each_scenario(|what, (hash, _), (want, _)| assert_eq!(hash, want, "{what}"));
}

#[test]
fn five_steps_reproduce_the_recorded_twins_within_tolerance() {
    for_each_scenario(|what, (_, got), (_, want)| {
        for ((g, w), name) in got.iter().zip(want).zip(["kinetic energy", "divergence", "‖p‖"]) {
            assert!((g - w).abs() <= 1e-9 * w.abs(), "{what}: {name} {g:.11e}, recorded {w:.11e}");
        }
    });
}

/// The op stream of a warmed step (the sixth: past every ramp), as
/// [`op_stream_digest`], same indexing as [`HASHES`]. Tables 1–2 and
/// Figures 12–14 replay what the recorder says a step ran, so a refactor
/// of the step keeps every item, in order.
const OP_STREAMS: [[[u64; 3]; 2]; 2] = [
    [
        [0x64d0879e3a7692a4, 0x54152d547722c8d0, 0x9260f5b1bf10cff2],
        [0x9c4276848b8f4cf2, 0xe45cf9f3f2209bee, 0x570b5fc41aede380],
    ],
    [
        [0x64d0879e3a7692a4, 0x54152d547722c8d0, 0x9260f5b1bf10cff2],
        [0x9c4276848b8f4cf2, 0xe45cf9f3f2209bee, 0x570b5fc41aede380],
    ],
];

#[test]
fn a_warmed_step_records_the_recorded_op_stream() {
    for (mi, outflow) in [true, false].into_iter().enumerate() {
        let mesh = skewed_mesh(outflow);
        for (ai, advect) in [true, false].into_iter().enumerate() {
            for scheme_order in 1..=3 {
                let mut s = stepped(solver(&mesh, scheme_order, advect), 5);
                s.recorder = Recorder::enabled();
                s.step();
                let digest = op_stream_digest(&[s.recorder.take().expect("enabled above")]);
                assert_eq!(
                    digest,
                    OP_STREAMS[mi][ai][scheme_order - 1],
                    "outflow {outflow}, advect {advect}, scheme order {scheme_order}"
                );
            }
        }
    }
}

#[test]
fn a_mid_run_restore_continues_to_the_recorded_hashes() {
    // Saved after two steps: inside the order-3 ramp, with a history one
    // level short of full.
    for (mi, outflow) in [true, false].into_iter().enumerate() {
        let mesh = skewed_mesh(outflow);
        for scheme_order in 2..=3 {
            let saved = stepped(solver(&mesh, scheme_order, true), 2);
            let mut w = CkptWriter::new();
            saved.write_sections(&mut w);
            let file = CkptFile::parse(Path::new("in-memory"), w.to_bytes()).expect("own bytes");
            let mut restored = solver(&mesh, scheme_order, true);
            restored.read_sections(&file).expect("own sections");
            assert_eq!(restored.state_hash(), saved.state_hash(), "at the restore point");
            assert_eq!(
                stepped(restored, 3).state_hash(),
                HASHES[mi][0][scheme_order - 1],
                "outflow {outflow}, scheme order {scheme_order}: continuation"
            );
        }
    }
}

#[test]
fn a_warmed_step_allocates_no_more_than_it_did() {
    // Past the ramp: the history is full and every lazy factor exists.
    let mut s = stepped(solver(&skewed_mesh(true), 2, true), 5);
    let step = allocs_in(|| s.step());
    assert!(step <= 66, "a warmed step allocated {step} times; 66 at 80ffb96");
    assert_eq!(step, 0, "every buffer of a warmed step exists before it runs");
}
