//! The `nektar::drive` contract, as one generic property run over all
//! three [`Simulation`]s: a straight `drive`, and a `drive` whose hook
//! stops at a drawn checkpoint cut followed by a second `drive` that
//! resumes, must end with equal `state_hash` and byte-equal
//! the rendered `StatsRecorder::document` on every rank. The checkpoint cadence, the
//! cut and the sampling cadence are drawn, so stops land inside the BDF
//! ramp as well as past it, and on steps that do and do not sample (a
//! cut between samples is what exercises the fold → rebaseline bracket).
//!
//! `ckpt_restart.rs` keeps the hand-written step loops as the
//! independent reference for the checkpoint layer underneath.

use nektar::ale::{AleConfig, NektarAle};
use nektar::drive::{drive, Hook, Plan, Serial, Simulation};
use nektar::fourier::{FourierConfig, NektarF};
use nektar::{Serial2dSolver, SolverConfig};
use nkt_ckpt::{Checkpointable, CkptConfig};
use nkt_mesh::{box_hexes, rect_quads};
use nkt_mpi::{Comm, World};
use nkt_net::{cluster, NetId};
use nkt_partition::{partition_kway, Graph, PartitionOptions};
use nkt_stats::HealthError;
use nkt_testkit::{prop_assert_eq, prop_check};
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn run<R: Send, F: Fn(&mut Comm) -> R + Sync>(p: usize, f: F) -> Vec<R> {
    World::builder().ranks(p).net(cluster(NetId::T3e)).run(f)
}

/// A fresh checkpoint directory per run: the straight and the stopped
/// run of one case must not see each other's epochs.
fn fresh_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("nkt_driveprops_{}_{n}", std::process::id()))
}

/// Stops the run at the cut after step `.0`.
struct StopAt(u64);

impl<S: Simulation> Hook<S> for StopAt {
    fn cut(&mut self, _: &mut S::Ctx, step: u64) -> ControlFlow<()> {
        if step == self.0 {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// What a finished run is compared on.
type End = (u64, String);

/// The `pick`-th interior cut of a `steps`-step run at cadence `every`.
fn drawn_cut(steps: u64, every: usize, pick: usize) -> u64 {
    let ncuts = (steps as usize - 1) / every;
    (every * (1 + pick % ncuts)) as u64
}

/// Runs `build()`'s simulation straight through, then again stopped at
/// cut `stop` and resumed into a freshly built solver. Returns this
/// rank's `[straight, resumed]` ends. Collective over `ctx`; `dirs` are
/// the two runs' checkpoint directories.
fn straight_and_resumed<S: Simulation>(
    ctx: &mut S::Ctx,
    build: impl Fn(&mut S::Ctx) -> S,
    dirs: &[PathBuf; 2],
    steps: u64,
    (every, stats_every): (usize, u64),
    stop: u64,
) -> [End; 2] {
    let plan = |dir: &PathBuf| Plan {
        steps,
        stats_every,
        health: false,
        ckpt: CkptConfig::new(dir, "prop", Some(every)),
    };
    let end = |sim: &S, out: &nektar::drive::Outcome| {
        (sim.state_hash(), nkt_trace::json::render(&out.rec.document("prop")))
    };

    let mut straight = build(ctx);
    let out = drive(&mut straight, ctx, &plan(&dirs[0]), &mut ()).expect("straight run");
    assert_eq!((out.resumed, out.stopped_at), (None, None));
    let straight_end = end(&straight, &out);

    let mut victim = build(ctx);
    let out = drive(&mut victim, ctx, &plan(&dirs[1]), &mut StopAt(stop)).expect("stopped run");
    assert_eq!(out.stopped_at, Some(stop));
    assert_eq!(victim.ckpt_step(), stop, "a stop leaves the loop at the cut");

    let mut resumed = build(ctx);
    let out = drive(&mut resumed, ctx, &plan(&dirs[1]), &mut ()).expect("resumed run");
    assert_eq!(out.resumed.map(|i| i.step), Some(stop), "resume starts from the stop cut");
    assert_eq!(out.stopped_at, None);
    [straight_end, end(&resumed, &out)]
}

fn serial_solver() -> Serial2dSolver {
    let cfg = SolverConfig { order: 4, dt: 2e-3, nu: 0.05, scheme_order: 2, advect: true };
    let pi = std::f64::consts::PI;
    let mut s = Serial2dSolver::new(rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2), cfg, |_| 0.0, |_| 0.0);
    s.set_initial(
        |x| (pi * x[0]).sin() * (pi * x[1]).cos(),
        |x| -(pi * x[0]).cos() * (pi * x[1]).sin(),
    );
    s
}

fn fourier_solver(c: &mut Comm) -> NektarF {
    let cfg = FourierConfig {
        order: 4,
        dt: 1e-3,
        nu: 0.05,
        nz: 8,
        lz: 2.0 * std::f64::consts::PI,
        scheme_order: 2,
    };
    let pi = std::f64::consts::PI;
    let mut s = NektarF::new(c, &rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2), cfg);
    s.set_initial(|x| {
        [
            (pi * x[0]).sin() * (pi * x[1]).cos() * x[2].cos(),
            -(pi * x[0]).cos() * (pi * x[1]).sin() * x[2].cos(),
            0.0,
        ]
    });
    s
}

fn ale_solver(c: &mut Comm) -> NektarAle {
    let mesh = box_hexes(0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 2, 2, 2);
    let dual = Graph::from_edges(mesh.nelems(), &mesh.dual_edges());
    let part = partition_kway(&dual, c.size(), &PartitionOptions::default());
    let cfg = AleConfig {
        order: 2,
        dt: 2e-3,
        nu: 0.05,
        scheme_order: 2,
        advect: true,
        // Nonzero so the restored state includes a moved mesh.
        motion_amp: 0.02,
        ..Default::default()
    };
    let mut s = NektarAle::new(c, mesh, &part, cfg);
    let pi = std::f64::consts::PI;
    s.set_initial(c, |x| {
        let (sx, cx) = (pi * x[0]).sin_cos();
        let (sy, cy) = (pi * x[1]).sin_cos();
        let gz = (pi * x[2]).sin().powi(2);
        [2.0 * pi * sx * sx * sy * cy * gz, -2.0 * pi * sx * cx * sy * sy * gz, 0.0]
    });
    s
}

/// The property for a rank-parallel solver on `p` ranks.
fn parallel_ends<S: Simulation<Ctx = Comm>>(
    p: usize,
    build: impl Fn(&mut Comm) -> S + Sync,
    steps: u64,
    cadence: (usize, u64),
    pick: usize,
) -> Vec<[End; 2]> {
    // Counters mode, so the recorder's collective-count column is live.
    nkt_trace::set_mode(nkt_trace::TraceMode::Counters);
    let dirs = [fresh_dir(), fresh_dir()];
    let stop = drawn_cut(steps, cadence.0, pick);
    let ends = run(p, |c| straight_and_resumed(c, &build, &dirs, steps, cadence, stop));
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
    ends
}

/// Poisons rank 0's v-field after step `.0`.
struct Poison(u64);

impl Hook<NektarF> for Poison {
    fn stepped(&mut self, sim: &mut NektarF, step: u64) {
        if step == self.0 {
            sim.fields[0][1].a[0] = f64::NAN;
        }
    }
}

/// `Plan::health` is the watchdog's only switch: armed, a poisoned value
/// ends `drive` with the same typed error on every rank, and every rank
/// dumps its flight ring; unarmed, the same input runs to the budget.
#[test]
fn plan_health_arms_the_watchdog_on_every_rank() {
    const STEPS: u64 = 4;
    let dir = fresh_dir();
    let poisoned_run = |health: bool| {
        // The trip's flight dumps land in `dir` under the run's name, not
        // in results/.
        let world = World::builder().ranks(2).net(cluster(NetId::T3e));
        world.trace_dir(&dir).flight_run("health").run(|c| {
            let plan = Plan {
                steps: STEPS,
                stats_every: 1,
                health,
                ckpt: CkptConfig::new(&dir, "health", None),
            };
            let mut sim = fourier_solver(c);
            let mut hook = Poison(if c.rank() == 0 { 2 } else { 0 });
            let out = drive(&mut sim, c, &plan, &mut hook);
            let typed = |e: nektar::drive::DriveError| {
                *e.downcast::<HealthError>().expect("a watchdog trip is a HealthError")
            };
            (sim.ckpt_step(), out.map(|_| ()).map_err(typed))
        })
    };
    let trip = HealthError::NonFinite { step: 2, rank: 0, field: "v" };
    assert_eq!(poisoned_run(true), vec![(2, Err(trip.clone())), (2, Err(trip.clone()))]);
    for rank in 0..2 {
        let path = dir.join(format!("FLIGHT_health_r{rank}.json"));
        let text = std::fs::read_to_string(&path).expect("the trip dumps every rank's ring");
        let dump = nkt_trace::json::parse(&text).expect("a JSON document");
        assert_eq!(dump.req_str("schema"), Ok("nkt-flight-1"), "rank {rank}");
        assert_eq!(dump.req_str("reason"), Ok(trip.to_string().as_str()), "rank {rank}");
    }
    assert_eq!(poisoned_run(false), vec![(STEPS, Ok(())), (STEPS, Ok(()))]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// This rank's `state_hash` after `steps` steps of `build()`'s run
/// sampled every step (watchdog armed) and after the same run unsampled.
fn sampled_and_unsampled<S: Simulation>(
    ctx: &mut S::Ctx,
    build: impl Fn(&mut S::Ctx) -> S,
    steps: u64,
) -> [u64; 2] {
    [1, 0].map(|stats_every| {
        let plan = Plan {
            steps,
            stats_every,
            health: stats_every > 0,
            ckpt: CkptConfig::new(std::env::temp_dir(), "observe", None),
        };
        let mut sim = build(ctx);
        let out = drive(&mut sim, ctx, &plan, &mut ()).expect("a healthy run");
        assert_eq!(out.rec.samples().len() as u64, steps * stats_every);
        sim.state_hash()
    })
}

/// Sampling only observes: the sampler reuses the step's scratch, and a
/// run sampled every step ends in the state an unsampled run does, for
/// all three solvers.
#[test]
fn sampling_every_step_leaves_the_state_alone() {
    let [sampled, unsampled] = sampled_and_unsampled(&mut Serial, |_| serial_solver(), 4);
    assert_eq!(sampled, unsampled, "serial");
    for (rank, [sampled, unsampled]) in
        run(2, |c| sampled_and_unsampled(c, fourier_solver, 4)).into_iter().enumerate()
    {
        assert_eq!(sampled, unsampled, "fourier rank {rank}");
    }
    for (rank, [sampled, unsampled]) in
        run(2, |c| sampled_and_unsampled(c, ale_solver, 3)).into_iter().enumerate()
    {
        assert_eq!(sampled, unsampled, "ale rank {rank}");
    }
}

prop_check! {
    #![cases(6)]

    fn serial2d_stop_and_resume_is_invisible(
        every in 1usize..4,
        sample in 1u64..3,
        pick in 0usize..8,
    ) {
        const STEPS: u64 = 6;
        let dirs = [fresh_dir(), fresh_dir()];
        let stop = drawn_cut(STEPS, every, pick);
        let [straight, resumed] = straight_and_resumed(
            &mut Serial,
            |_| serial_solver(),
            &dirs,
            STEPS,
            (every, sample),
            stop,
        );
        for d in &dirs {
            let _ = std::fs::remove_dir_all(d);
        }
        prop_assert_eq!(straight, resumed, "every {} stop {}", every, stop);
    }

    fn fourier_stop_and_resume_is_invisible(
        every in 1usize..4,
        sample in 1u64..3,
        pick in 0usize..8,
    ) {
        for (rank, [straight, resumed]) in
            parallel_ends(2, fourier_solver, 6, (every, sample), pick).into_iter().enumerate()
        {
            prop_assert_eq!(straight, resumed, "rank {} every {}", rank, every);
        }
    }

    fn ale_stop_and_resume_is_invisible(
        every in 1usize..3,
        sample in 1u64..3,
        pick in 0usize..8,
    ) {
        for (rank, [straight, resumed]) in
            parallel_ends(2, ale_solver, 4, (every, sample), pick).into_iter().enumerate()
        {
            prop_assert_eq!(straight, resumed, "rank {} every {}", rank, every);
        }
    }
}
