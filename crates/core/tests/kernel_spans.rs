//! The `banded_solve` kernel spans of the two 2-D solvers: one around
//! every direct solve of stages 5 and 7, carrying the right-hand sides it
//! solved (`solves`) beside the system's `n`, `kd` and flops. A test
//! binary of its own: the trace mode is process-wide, and the step
//! contracts count a traced step's allocations.

use nektar::fourier::{FourierConfig, NektarF};
use nektar::{Serial2dSolver, SolverConfig};
use nkt_mesh::rect_quads;
use nkt_mpi::World;
use nkt_net::{cluster, NetId};
use nkt_trace::TraceMode;

/// `(stage, solves)` of every `banded_solve` span recorded so far, in
/// order, the stage being the one whose span closes next: a kernel span
/// closes inside its stage's.
fn banded_solves() -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let mut open = None;
    for e in nkt_trace::take_collected().into_iter().flat_map(|t| t.events) {
        if e.name == "banded_solve" {
            open = Some(e.arg("solves").expect("a banded_solve span carries its solves"));
        } else if e.cat == "stage" {
            if let Some(solves) = open.take() {
                out.push((e.name, solves));
            }
        }
    }
    out
}

#[test]
fn a_traced_step_spans_every_direct_solve_with_its_right_hand_sides() {
    let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
    nkt_trace::set_mode(TraceMode::Off);

    // The serial solver: one pressure plane, then u and v.
    let cfg = SolverConfig { order: 4, dt: 1e-3, nu: 0.01, scheme_order: 2, advect: true };
    let mut s = Serial2dSolver::new(mesh.clone(), cfg, |_| 0.0, |_| 0.0);
    s.set_initial(|x| x[1], |x| -x[0]);
    s.step();
    let _ = nkt_trace::take_collected();
    nkt_trace::set_mode(TraceMode::Spans);
    s.step();
    nkt_trace::set_mode(TraceMode::Off);
    assert_eq!(banded_solves(), [("PressureSolve", 1.0), ("ViscousSolve", 2.0)], "serial");

    // NekTar-F on one rank, four modes: cos and sin, then u, v, w of each.
    World::builder().ranks(1).net(cluster(NetId::T3e)).run(|c| {
        let mut f = NektarF::new(c, &mesh, FourierConfig { nz: 8, ..FourierConfig::default() });
        f.set_initial(|x| [x[1] * x[2].cos(), x[0], x[2].sin()]);
        f.step(c);
        nkt_trace::set_mode(TraceMode::Spans);
        f.step(c);
        nkt_trace::set_mode(TraceMode::Off);
    });
    let per_mode = [("PressureSolve", 2.0), ("ViscousSolve", 6.0)];
    assert_eq!(banded_solves(), per_mode.repeat(4), "NekTar-F");
}
