//! Promises of the NekTar-ALE iterative path that only a whole process
//! can check: a PCG iteration allocates nothing of its own and a warmed
//! one-rank step nothing at all (counted by a `#[global_allocator]`), and
//! a solve that stops short of its tolerance says so (flag +
//! `ale.pcg.unconverged` counter, read under the process-wide trace
//! mode), and a step's recorded op stream is held to its pin.
//! The tests touch process-global state, so they take turns.

mod common;

use common::{allocs_in, op_stream_digest, Counting};
use nektar::ale::{AleConfig, NektarAle};
use nektar::hex3d::{HexHelmholtz, HexNumbering, HexWorkspace};
use nektar::opstream::Recorder;
use nkt_mesh::{wing_box_mesh, BoundaryTag};
use nkt_mpi::prelude::*;
use nkt_net::{cluster, NetId};
use nkt_testkit::assert_pin;
use std::sync::Mutex;

static TURN: Mutex<()> = Mutex::new(());

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn pcg_iteration_allocates_only_what_its_messages_do() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let mesh = wing_box_mesh(1);
    let tags = [BoundaryTag::Inflow, BoundaryTag::Wall, BoundaryTag::Side];
    let numbering = HexNumbering::build(&mesh, 2);
    let tagged = numbering.tagged(&mesh, &tags);
    let part = vec![0u8; mesh.nelems()];
    let out = World::builder().ranks(1).net(cluster(NetId::T3e)).run(|c| {
        let h = HexHelmholtz::new(c, &mesh, &numbering, &part);
        let bc = h.dirichlet(&tagged);
        let n = h.nlocal();
        let b: Vec<f64> = h.local_gids.iter().map(|&g| (g as f64 * 0.11).cos()).collect();
        let (mut x, mut probe) = (vec![0.0; n], vec![1.0; n]);
        let (mut ws, mut rec) = (HexWorkspace::default(), Recorder::disabled());
        // tol = 0 never converges: every solve runs exactly `max_iter`
        // iterations. The first one sizes the workspace.
        let mut solve = |c: &mut Comm, iters: usize| {
            x.fill(0.0);
            allocs_in(|| {
                let out = h.pcg(c, [250.0, 1.0], &bc, &b, &mut x, 0.0, iters, &mut ws, &mut rec);
                assert_eq!((out.iters, out.converged), (iters, false));
            })
        };
        solve(c, 5);
        let (short, long) = (solve(c, 5), solve(c, 50));
        // What one iteration's communication allocates on this
        // communicator: one gather-scatter (the apply's; the preconditioner
        // is a pointwise scale) and two allreduces (`p·Ap`, then
        // `[r·r, r·z]`).
        let messages = allocs_in(|| {
            h.gs.exchange(c, &mut probe, ReduceOp::Sum);
            c.allreduce(&mut [1.0], ReduceOp::Sum);
            c.allreduce(&mut [1.0, 1.0], ReduceOp::Sum);
        });
        (short, long, messages)
    });
    let (short, long, messages) = out[0];
    assert_eq!(
        long - short,
        45 * messages,
        "45 extra iterations allocated {} times; their messages account for 45 x {messages}",
        long - short
    );
    // One rank, unique ids: the exchange snapshots nothing and the
    // reductions are local, so the whole iteration is heap-free.
    assert_eq!(messages, 0);
}

#[test]
fn a_warmed_step_allocates_nothing_on_one_rank() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let mesh = wing_box_mesh(1);
    let part = vec![0u8; mesh.nelems()];
    let cfg = AleConfig {
        order: 2,
        dt: 2e-3,
        nu: 1e-3,
        motion_amp: 0.05,
        pcg_tol: 1e-6,
        ..AleConfig::default()
    };
    let out = World::builder().ranks(1).net(cluster(NetId::T3e)).run(|c| {
        let mut s = NektarAle::new(c, mesh.clone(), &part, cfg.clone());
        s.set_initial(c, |_| [1.0, 0.0, 0.0]);
        // Past the ramp: the history is full and every buffer is sized.
        for _ in 0..3 {
            s.step(c);
        }
        allocs_in(|| {
            s.step(c);
            s.step(c);
        })
    });
    assert_eq!(out[0], 0, "two warmed steps allocated {} times", out[0]);
}

#[test]
fn a_solve_that_stops_short_is_flagged_and_counted() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let mesh = wing_box_mesh(1);
    let part = vec![0u8; mesh.nelems()];
    let cfg = |pcg_max_iter: usize| AleConfig {
        order: 2,
        dt: 2e-3,
        nu: 1e-3,
        motion_amp: 0.05,
        pcg_tol: 1e-6,
        pcg_max_iter,
        ..AleConfig::default()
    };
    nkt_trace::set_mode(nkt_trace::TraceMode::Counters);
    let out = World::builder().ranks(1).net(cluster(NetId::T3e)).run(|c| {
        let unconverged = || nkt_trace::thread_counter("ale.pcg.unconverged");
        let mut starved = NektarAle::new(c, mesh.clone(), &part, cfg(3));
        starved.set_initial(c, |_| [1.0, 0.0, 0.0]);
        let after_initial = (starved.last_converged, unconverged());
        starved.step(c);
        let after_starved = (starved.last_converged, starved.last_iters, unconverged());
        let mut fed = NektarAle::new(c, mesh.clone(), &part, cfg(2000));
        fed.set_initial(c, |_| [1.0, 0.0, 0.0]);
        let fed_initial = fed.last_converged;
        fed.step(c);
        (after_initial, after_starved, (fed_initial && fed.last_converged, unconverged()))
    });
    nkt_trace::set_mode(nkt_trace::TraceMode::Off);
    let ((initial_ok, initial_counted), (starved_ok, iters, counted), (fed_ok, counted_after)) =
        out[0];
    // The initial projection of u = (1, 0, 0): the x component's mass
    // solve hits the cap; the zero components converge at once.
    assert!(!initial_ok, "a 3-iteration cap cannot project the initial field to 1e-6");
    assert_eq!(initial_counted, 1, "one count per unconverged solve");
    // Pressure, three velocity components and the mesh velocity all hit
    // the cap of 3.
    assert!(!starved_ok, "a 3-iteration cap cannot reach 1e-6 on the wing");
    assert_eq!(iters, (3, 9, 3));
    assert_eq!(counted - initial_counted, 5, "one count per unconverged solve");
    assert!(fed_ok, "the default cap converges");
    assert_eq!(counted_after, counted, "converged solves must not count");
}

/// The op stream of a wing step on every rank, as one [`op_stream_digest`]
/// per world: the ramp step (the first, one history level) and a
/// full-order one (the fourth), on 1 and 2 ranks, one ledger row of the
/// two per rank count. A PCG iteration records its items, so the digest
/// holds the items, their order and the iteration counts of every solve.
/// Nothing replays this recording: Table 3 and Figures 15–16 replay the
/// generated `workload::ale_step_workload`. The recording also has no
/// `CommItem::Allreduce` (the PCG's reductions are not recorded), so a
/// change to the reductions moves no row here.
#[test]
fn a_wing_step_records_the_recorded_op_stream() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let pins = [(1, "pcg_contract/wing_ops/1_rank"), (2, "pcg_contract/wing_ops/2_ranks")];
    for (ranks, pin) in pins {
        let case = nektar::drive::cases::wing(ranks);
        let worlds = World::builder().ranks(ranks).net(cluster(NetId::T3e)).run(|c| {
            let mut s = case.build(c);
            let recorded = |s: &mut NektarAle, c: &mut Comm| {
                s.recorder = Recorder::enabled();
                s.step(c);
                s.recorder.take().expect("enabled above")
            };
            let ramp = recorded(&mut s, c);
            s.step(c);
            s.step(c);
            [ramp, recorded(&mut s, c)]
        });
        let (ramp, full): (Vec<_>, Vec<_>) = worlds.into_iter().map(|[r, f]| (r, f)).unzip();
        assert_pin(pin, &[op_stream_digest(&ramp), op_stream_digest(&full)]);
    }
}
