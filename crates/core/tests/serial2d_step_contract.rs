//! The promises of `Serial2dSolver::step` that a refactor of the step
//! must keep: the state it produces, bit for bit (rows of the pin ledger,
//! `scripts/pins.txt`, first recorded at commit 80ffb96, where the step
//! still ran its own modal → quadrature, gradient and weak-form loops
//! over per-element `Vec`s; each move since under the tolerance twins
//! below, which did not), through a mid-run save → restore → continue as
//! well as straight.
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
use nkt_testkit::assert_pin;
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

/// The ledger rows of the state hashes, `[outflow | pinned][advect on |
/// off]`, a word per scheme order.
const HASHES: [[&str; 2]; 2] = [
    ["serial2d_step_contract/hash/outflow/advect", "serial2d_step_contract/hash/outflow/stokes"],
    ["serial2d_step_contract/hash/pinned/advect", "serial2d_step_contract/hash/pinned/stokes"],
];

/// The tolerance twin of every hash above, same indexing with the scheme
/// order last: `[kinetic energy, divergence norm, ‖p‖]` of the same
/// state, held to 1e-9 relative. A change that reassociates the step
/// moves a hash and must leave its twin alone: the hash says "changed",
/// the twin "still right".
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

#[test]
fn five_steps_reproduce_the_recorded_state_hashes() {
    for (mi, outflow) in [true, false].into_iter().enumerate() {
        let mesh = skewed_mesh(outflow);
        for (ai, advect) in [true, false].into_iter().enumerate() {
            let hashes: Vec<u64> = (1..=3).map(|order| after_5(&mesh, order, advect).0).collect();
            assert_pin(HASHES[mi][ai], &hashes);
        }
    }
}

#[test]
fn five_steps_reproduce_the_recorded_twins_within_tolerance() {
    for (mi, outflow) in [true, false].into_iter().enumerate() {
        let mesh = skewed_mesh(outflow);
        for (ai, advect) in [true, false].into_iter().enumerate() {
            for order in 1..=3 {
                let what = format!("outflow {outflow}, advect {advect}, scheme order {order}");
                let (_, got) = after_5(&mesh, order, advect);
                let want = TWINS[mi][ai][order - 1];
                let names = ["kinetic energy", "divergence", "‖p‖"];
                for ((g, w), name) in got.iter().zip(want).zip(names) {
                    let (off, tol) = ((g - w).abs(), 1e-9 * w.abs());
                    assert!(off <= tol, "{what}: {name} {g:.11e}, recorded {w:.11e}");
                }
            }
        }
    }
}

/// The ledger rows of a warmed step's op stream (the sixth step: past
/// every ramp), as [`op_stream_digest`], `[advect on | off][scheme_order
/// − 1]`: the step's items do not depend on the boundary data, so both
/// meshes are held to one row. Tables 1–2 and Figures 12–14 replay what
/// the recorder says a step ran, so a refactor of the step keeps every
/// item, in order.
const OP_STREAMS: [[&str; 3]; 2] = [
    [
        "serial2d_step_contract/ops/advect/order1",
        "serial2d_step_contract/ops/advect/order2",
        "serial2d_step_contract/ops/advect/order3",
    ],
    [
        "serial2d_step_contract/ops/stokes/order1",
        "serial2d_step_contract/ops/stokes/order2",
        "serial2d_step_contract/ops/stokes/order3",
    ],
];

#[test]
fn a_warmed_step_records_the_recorded_op_stream() {
    for outflow in [true, false] {
        let mesh = skewed_mesh(outflow);
        for (ai, advect) in [true, false].into_iter().enumerate() {
            for scheme_order in 1..=3 {
                let mut s = stepped(solver(&mesh, scheme_order, advect), 5);
                s.recorder = Recorder::enabled();
                s.step();
                let digest = op_stream_digest(&[s.recorder.take().expect("enabled above")]);
                assert_pin(OP_STREAMS[ai][scheme_order - 1], &[digest]);
            }
        }
    }
}

#[test]
fn a_mid_run_restore_continues_to_the_recorded_hashes() {
    // Saved after two steps: past order 1's only step kind and inside the
    // order-3 ramp, with a history one level short of full.
    for (mi, outflow) in [true, false].into_iter().enumerate() {
        let mesh = skewed_mesh(outflow);
        let continued = (1..=3).map(|scheme_order| {
            let saved = stepped(solver(&mesh, scheme_order, true), 2);
            let mut w = CkptWriter::new();
            saved.write_sections(&mut w);
            let file = CkptFile::parse(Path::new("in-memory"), w.to_bytes()).expect("own bytes");
            let mut restored = solver(&mesh, scheme_order, true);
            restored.read_sections(&file).expect("own sections");
            assert_eq!(restored.state_hash(), saved.state_hash(), "at the restore point");
            stepped(restored, 3).state_hash()
        });
        assert_pin(HASHES[mi][0], &continued.collect::<Vec<_>>());
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
