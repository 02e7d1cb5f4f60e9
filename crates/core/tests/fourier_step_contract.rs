//! Two promises of `NektarF::step` that a refactor of the step must
//! keep: the state it produces, bit for bit (rows of the pin ledger,
//! `scripts/pins.txt`, whose reasons say where each hash was recorded
//! and why it last moved: each time under the tolerance twins below,
//! which did not), and that a warmed step allocates nothing of its own —
//! only what its transposes' message layer does, independent of `nz`
//! (counted by a `#[global_allocator]`).

mod common;

use common::{allocs_in, op_stream_digest, Counting};
use nektar::fourier::{FourierConfig, NektarF};
use nektar::opstream::Recorder;
use nektar::stats::{sample, FOURIER_CHANNELS};
use nkt_ckpt::Checkpointable;
use nkt_mesh::{rect_quads, BoundaryTag, Elem2d, ElemKind, Mesh2d};
use nkt_mpi::prelude::*;
use nkt_net::{cluster, NetId};
use nkt_stats::{RuleLimits, StatsRecorder};
use nkt_testkit::assert_pin;

#[global_allocator]
static GLOBAL: Counting = Counting;

fn cfg(nz: usize) -> FourierConfig {
    FourierConfig { order: 4, dt: 1e-3, nu: 0.05, nz, lz: std::f64::consts::TAU, scheme_order: 2 }
}

/// Two order-3 quadrilaterals: 50 points a plane, which neither four
/// ranks nor a 2×2 grid divide — the last rank's chunk is short and
/// every exchange block carries padding.
fn ragged() -> (Mesh2d, FourierConfig) {
    (rect_quads(0.0, 2.0, 0.0, 1.0, 2, 1), FourierConfig { order: 3, ..cfg(8) })
}

/// Energy in every component, in z-harmonics 0–3 and in both phases.
fn busy_field(x: [f64; 3]) -> [f64; 3] {
    let pi = std::f64::consts::PI;
    let (sx, cx) = (pi * x[0]).sin_cos();
    let (sy, cy) = (pi * x[1]).sin_cos();
    let z = x[2];
    [
        2.0 * pi * sx * sx * sy * cy * (1.0 + 0.3 * z.cos() + 0.2 * (2.0 * z).sin()),
        -2.0 * pi * sx * cx * sy * sy * (0.7 - 0.4 * (z + 1.1).sin() + 0.15 * (3.0 * z).cos()),
        x[0] * (1.0 - x[1]) * ((z - 0.3).sin() + 0.25 * (2.0 * z).cos()),
    ]
}

/// A skewed (non-affine) quadrilateral and a triangle, inflow on the
/// left and outflow on the right: both bases, a varying Jacobian, and a
/// pressure problem with Dirichlet data instead of a pinned dof.
fn skewed_mesh() -> Mesh2d {
    let verts = vec![[0.0, 0.0], [1.0, 0.0], [1.2, 1.1], [-0.1, 0.9], [2.0, 0.2]];
    let elems = vec![
        Elem2d { kind: ElemKind::Quad, verts: vec![0, 1, 2, 3] },
        Elem2d { kind: ElemKind::Tri, verts: vec![1, 4, 2] },
    ];
    let mesh = Mesh2d::new(verts, elems, |mid| {
        if mid[0] < 0.0 {
            BoundaryTag::Inflow
        } else if mid[0] > 1.3 && mid[1] > 0.3 {
            BoundaryTag::Outflow
        } else {
            BoundaryTag::Wall
        }
    });
    mesh.validate().expect("valid mixed mesh");
    mesh
}

/// Every rank's state after five steps — the ramp step and four
/// full-order ones — as its hash and the run's tolerance twin: the global
/// kinetic energy, divergence norm and dissipation (NekTar-F keeps no
/// pressure between steps; ε takes ‖p‖'s place).
fn after_5(
    (mesh, cfg): &(Mesh2d, FourierConfig),
    pr: usize,
    pc: usize,
    overlap: bool,
) -> Vec<(u64, [f64; 3])> {
    World::builder().ranks(pr * pc).net(cluster(NetId::RoadRunnerEth)).run(|c| {
        let mut s =
            NektarF::try_new_with_grid(c, mesh, cfg.clone(), pr, pc).expect("valid grid");
        s.set_overlap(overlap);
        s.set_initial(busy_field);
        for _ in 0..5 {
            s.step(c);
        }
        let e = s.kinetic_energy(c);
        assert!(e.is_finite() && e > 0.0, "a hash of garbage pins nothing: energy {e}");
        let mut rec = StatsRecorder::new(FOURIER_CHANNELS.to_vec(), 1, c.size());
        sample(&mut s, c, &mut rec, 5, &RuleLimits::default(), false).expect("no rules");
        let channel = |name| {
            let i = FOURIER_CHANNELS.iter().position(|&ch| ch == name).expect("a sampled channel");
            rec.samples()[0].scalars[i]
        };
        (s.state_hash(), [e, channel("divergence"), channel("dissipation")])
    })
}

fn hashes_after_5(case: &(Mesh2d, FourierConfig), pr: usize, pc: usize, overlap: bool) -> Vec<u64> {
    after_5(case, pr, pc, overlap).into_iter().map(|(hash, _)| hash).collect()
}

#[test]
fn five_steps_reproduce_the_recorded_state_hashes() {
    let square = (rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2), cfg(8));
    let skewed = (skewed_mesh(), cfg(8));
    let ragged = ragged();
    // Every rank's hash with the pipelined transpose on, once the blocking
    // one has given the same.
    let run = |what, case, pr, pc| {
        let on = hashes_after_5(case, pr, pc, true);
        assert_eq!(hashes_after_5(case, pr, pc, false), on, "{what}: overlap on and off");
        on
    };
    let slab = run("2-rank slab", &square, 2, 1);
    assert_pin("fourier_step_contract/hash/one_rank", &run("1 rank", &square, 1, 1));
    assert_pin("fourier_step_contract/hash/slab_2", &slab);
    // Pencil rank (r, c) carries slab rank r's modes.
    let pencil = run("2x2 pencil", &square, 2, 2);
    assert_eq!(pencil, [slab[0], slab[0], slab[1], slab[1]], "2x2 pencil");
    assert_pin("fourier_step_contract/hash/skewed", &run("skewed", &skewed, 1, 1));
    assert_pin("fourier_step_contract/hash/ragged_4", &run("ragged 4-rank slab", &ragged, 4, 1));
    assert_pin("fourier_step_contract/hash/ragged_2x2", &run("ragged 2x2", &ragged, 2, 2));
}

/// The tolerance twins of the hashes above: `[kinetic energy, divergence
/// norm, dissipation]` of each mesh's run after five steps, held to 1e-9
/// relative on every decomposition of it (they are global sums, so one
/// triple serves the slab and the pencil). A change that reassociates the
/// step moves the hashes and must leave these alone. Recorded at commit
/// 5665650 (full-band direct solves).
#[test]
fn five_steps_reproduce_the_recorded_twins_within_tolerance() {
    const SQUARE: [f64; 3] = [8.56963081017e0, 1.11928309172e0, 4.79802576363e1];
    const SKEWED: [f64; 3] = [1.47789912134e1, 6.96092570322e0, 9.57209732286e1];
    const RAGGED: [f64; 3] = [1.33065888489e1, 1.10111435545e1, 7.24202616248e1];
    let square = (rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2), cfg(8));
    let skewed = (skewed_mesh(), cfg(8));
    let ragged = ragged();
    let cases = [
        ("1 rank", &square, 1, 1, SQUARE),
        ("2-rank slab", &square, 2, 1, SQUARE),
        ("2x2 pencil", &square, 2, 2, SQUARE),
        ("skewed", &skewed, 1, 1, SKEWED),
        ("ragged 4-rank slab", &ragged, 4, 1, RAGGED),
        ("ragged 2x2", &ragged, 2, 2, RAGGED),
    ];
    for (what, case, pr, pc, want) in cases {
        for (rank, (_, got)) in after_5(case, pr, pc, true).into_iter().enumerate() {
            for ((g, w), name) in got.iter().zip(want).zip(["kinetic energy", "divergence", "ε"]) {
                assert!(
                    (g - w).abs() <= 1e-9 * w.abs(),
                    "{what}, rank {rank}: {name} {g:.11e}, recorded {w:.11e}"
                );
            }
        }
    }
}

/// The op stream of a warmed step (the fourth: past the ramp) on every
/// rank of each world above, as one [`op_stream_digest`] per world and
/// ledger row, the pipelined transpose on. Tables 1–2 and Figures 12–14
/// replay what the recorder says a step ran, so a refactor of the step
/// keeps every item, in order, on the slab and on the pencil.
#[test]
fn a_warmed_step_records_the_recorded_op_stream() {
    let square = (rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2), cfg(8));
    let skewed = (skewed_mesh(), cfg(8));
    let ragged = ragged();
    let cases = [
        ("fourier_step_contract/ops/one_rank", &square, 1, 1),
        ("fourier_step_contract/ops/slab_2", &square, 2, 1),
        ("fourier_step_contract/ops/pencil_2x2", &square, 2, 2),
        ("fourier_step_contract/ops/skewed", &skewed, 1, 1),
        ("fourier_step_contract/ops/ragged_4", &ragged, 4, 1),
        ("fourier_step_contract/ops/ragged_2x2", &ragged, 2, 2),
    ];
    for (pin, (mesh, cfg), pr, pc) in cases {
        let ranks = World::builder().ranks(pr * pc).net(cluster(NetId::RoadRunnerEth)).run(|c| {
            let mut s =
                NektarF::try_new_with_grid(c, mesh, cfg.clone(), pr, pc).expect("valid grid");
            s.set_initial(busy_field);
            for _ in 0..3 {
                s.step(c);
            }
            s.recorder = Recorder::enabled();
            s.step(c);
            s.recorder.take().expect("enabled above")
        });
        assert_pin(pin, &[op_stream_digest(&ranks)]);
    }
}

/// The unit square with walls at y = 0, 1 and its x-ends tagged `Outflow`
/// (natural for the velocity): u = (sin πy · cos βz, 0, 0) is
/// divergence-free, has no advection term and no pressure, and decays at
/// exactly ν(π² + β²). A viscous λ without its β² — or a pressure λ that
/// leaks into it — changes the rate; `lz = 2` makes β = π, so half the
/// rate is the spanwise term and a monotone-decay test would not notice.
#[test]
fn a_k1_shear_mode_decays_at_the_viscous_rate() {
    let quads = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
    let channel = Mesh2d::new(quads.verts.clone(), quads.elems.clone(), |mid| {
        if mid[0] < 1e-9 || mid[0] > 1.0 - 1e-9 { BoundaryTag::Outflow } else { BoundaryTag::Wall }
    });
    let pi = std::f64::consts::PI;
    let cfg = FourierConfig { order: 6, dt: 1e-3, nu: 0.05, nz: 8, lz: 2.0, scheme_order: 2 };
    let (nu, dt) = (cfg.nu, cfg.dt);
    let rates = World::builder().ranks(2).net(cluster(NetId::T3e)).run(|c| {
        let mut s = NektarF::new(c, &channel, cfg.clone());
        let beta = s.beta(1);
        s.set_initial(|x| [(pi * x[1]).sin() * (beta * x[2]).cos(), 0.0, 0.0]);
        // Past the first-order ramp step before the clock starts.
        let mut energy_after = |steps: usize| {
            for _ in 0..steps {
                s.step(c);
            }
            s.kinetic_energy(c)
        };
        let (e0, e1) = (energy_after(5), energy_after(20));
        ((e0 / e1).ln() / (2.0 * 20.0 * dt), nu * (pi * pi + beta * beta))
    });
    for (got, want) in rates {
        assert!((want - nu * 2.0 * pi * pi).abs() < 1e-12, "β = π on lz = 2");
        assert!((got - want).abs() < 1e-5 * want, "decay rate {got}, exact {want}");
    }
}

#[test]
fn a_warmed_step_allocates_only_what_its_exchanges_do() {
    // nz 12 runs a Bluestein half transform (length 6): its padded
    // convolution is caller scratch too.
    let counts = [8usize, 12, 32].map(|nz| {
        let out = World::builder().ranks(1).net(cluster(NetId::RoadRunnerEth)).run(|c| {
            let square = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
            let mut s = NektarF::new(c, &square, cfg(nz));
            s.set_overlap(true);
            s.set_initial(busy_field);
            // Past the ramp: every lazy factor, table and buffer exists.
            for _ in 0..3 {
                s.step(c);
            }
            let step = allocs_in(|| s.step(c));
            // The step's message layer: 12 fields to physical space and 3
            // back, one pipelined exchange each, posted before any is
            // finished.
            let (send, mut recv) = (vec![1.0; 64], vec![0.0; 64]);
            let exchanges = allocs_in(|| {
                for nf in [12, 3] {
                    let posted: [_; 12] =
                        std::array::from_fn(|f| (f < nf).then(|| c.ialltoall(&send, 64)));
                    for h in posted.into_iter().flatten() {
                        c.alltoall_finish(h, &mut recv);
                    }
                }
            });
            // The energy diagnostic runs in the step's planes: it adds
            // only its one-double reduction.
            let energy = allocs_in(|| s.kinetic_energy(c));
            let reduce = allocs_in(|| c.allreduce(&mut [1.0], ReduceOp::Sum));
            assert_eq!(energy, reduce, "a warmed kinetic_energy call at nz {nz}");
            (step, exchanges)
        });
        out[0]
    });
    let [(step8, exch8), (step12, exch12), (step32, exch32)] = counts;
    assert_eq!(exch8, exch32, "the exchange count does not depend on nz");
    assert_eq!(exch8, exch12, "the exchange count does not depend on nz");
    assert!(
        step8 <= exch8 + 8,
        "a warmed step allocated {step8} times; its 15 exchanges account for {exch8}"
    );
    assert_eq!(step8, step32, "allocations must not scale with nz");
    assert_eq!(step8, step12, "a Bluestein half length allocates no more");
}
