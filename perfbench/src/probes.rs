//! Per-layer probes: each public layer call timed from outside on the
//! shape the workloads give it. They run after the rounds of every
//! `--trace 1` run, on every workload, so a layer's number does not
//! depend on which workload asked for it. Times are medians over
//! repeats unless one call is all there is (a factorisation).

use crate::ale_wing::AleWing;
use crate::estimate::quantile;
use crate::fourier_slab::{FourierSlab, NZ, P2_NZ};
use crate::report::Metrics;
use crate::solver::Case;
use crate::wake2d::Wake2d;
use nektar_repro::blas::{dgemm_small, dpbtrf, dpbtrs, Trans};
use nektar_repro::ckpt::{
    restore_latest, restore_latest_serial, write_epoch, write_epoch_serial, CkptConfig,
};
use nektar_repro::fft::{Complex64, RealFft};
use nektar_repro::gs::{GsHandle, GsStrategy};
use nektar_repro::mesh::{rect_quads, wing_box_mesh, BoundaryTag};
use nektar_repro::mpi::prelude::*;
use nektar_repro::nektar::hex3d::Oper1d;
use nektar_repro::nektar::stats::{sample_serial2d, SERIAL2D_CHANNELS};
use nektar_repro::net::{cluster, NetId};
use nektar_repro::partition::{edge_cut, partition_kway, Graph, PartitionOptions};
use nektar_repro::spectral::{HelmholtzProblem, SolveMethod};
use nektar_repro::stats::{RuleLimits, StatsRecorder};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Seconds one call of `f` takes.
fn once<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Median seconds per call over `reps` calls.
fn median_s(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| once(&mut f).1).collect();
    quantile(&times, 0.5)
}

fn world2() -> WorldBuilder {
    World::builder().ranks(2).net(cluster(NetId::RoadRunnerMyr))
}

/// Runs every probe; `seed` generates the solver states that are
/// checkpointed and sampled, `scratch` holds the checkpoint files.
pub fn run(seed: u64, scratch: &Path, m: &mut Metrics) {
    kernels_on_wake_shape(seed, scratch, m);
    fft_on_slab_shape(m);
    mesh_and_partition(m);
    mpi_two_ranks(m);
    gs_on_ale_shape(seed, m);
    ckpt_two_rank_fourier(seed, scratch, m);
}

/// `nkt-blas` and `nkt-spectral` at `wake2d`'s (ndof, bandwidth), then
/// `nkt-ckpt` and `nkt-stats` on the stepped wake state.
fn kernels_on_wake_shape(seed: u64, scratch: &Path, m: &mut Metrics) {
    let mut solver = Wake2d::from_seed(seed).build_solver();
    let (mesh, order, lambda) = (
        solver.viscous.mesh.clone(),
        solver.viscous.order,
        solver.viscous.lambda,
    );
    let tags = [BoundaryTag::Inflow, BoundaryTag::Wall, BoundaryTag::Side];
    let (mut prob, assemble_s) = once(|| HelmholtzProblem::new(mesh, order, lambda, &tags));
    let ndof = prob.asm.ndof;
    m.set("spectral.assemble_ms", assemble_s * 1e3);
    m.set("spectral.ndof", ndof as f64);
    m.set("spectral.bandwidth", prob.matrix.kd() as f64);

    let mut factor = prob.matrix.clone();
    let band_bytes = 8.0 * factor.ab().len() as f64;
    m.set("spectral.factor_mb", band_bytes / 1e6);
    let ((), dpbtrf_s) = once(|| dpbtrf(&mut factor).expect("the Helmholtz band is SPD"));
    m.set("blas.dpbtrf_ms", dpbtrf_s * 1e3);
    let rhs: Vec<f64> = (0..ndof).map(|i| ((i % 17) as f64 - 8.0) / 8.0).collect();
    let mut x = rhs.clone();
    let dpbtrs_s = median_s(15, || {
        x.copy_from_slice(&rhs);
        dpbtrs(&factor, &mut x).expect("banded solve");
        black_box(&x);
    });
    m.set("blas.dpbtrs_us", dpbtrs_s * 1e6);
    // Computed, not counted: the forward and the back substitution each
    // stream the factor once.
    m.set("blas.dpbtrs_gbps", 2.0 * band_bytes / dpbtrs_s / 1e9);
    drop(factor);

    let u_d = vec![0.0; ndof];
    let (_, first_s) = once(|| prob.solve_with_rhs(rhs.clone(), &u_d, SolveMethod::BandedDirect));
    let warm_s = median_s(9, || {
        black_box(prob.solve_with_rhs(rhs.clone(), &u_d, SolveMethod::BandedDirect));
    });
    m.set("spectral.factor_ms", (first_s - warm_s) * 1e3);
    m.set("spectral.solve_us", warm_s * 1e6);
    drop(prob);

    // dgemm at the ALE elemental shape: one direction of the order-2
    // tensor transform, (nq x nm) * (nm x nm^2).
    let op = Oper1d::new(crate::ale_wing::config().order);
    let (mm, kk) = (op.basis.nquad(), op.nm);
    let nn = kk * kk;
    let a = vec![0.5; mm * kk];
    let b = vec![0.25; kk * nn];
    let mut c = vec![0.0; mm * nn];
    const CALLS: usize = 20_000;
    let batch_s = median_s(9, || {
        for _ in 0..CALLS {
            dgemm_small(
                Trans::No,
                Trans::No,
                mm,
                nn,
                kk,
                1.0,
                black_box(&a),
                mm,
                &b,
                kk,
                0.0,
                &mut c,
                mm,
            );
        }
        black_box(&c);
    });
    m.set(
        "blas.dgemm_small_gflops",
        (2 * mm * nn * kk * CALLS) as f64 / batch_s / 1e9,
    );

    // The stepped state is what a preempted serve job writes and reads.
    for _ in 0..3 {
        solver.step();
    }
    let cfg = CkptConfig::new(scratch.join("ckpt_wake"), "probe_wake", Some(1));
    let step = solver.steps();
    m.set(
        "ckpt.write_ms",
        1e3 * median_s(5, || {
            write_epoch_serial(&cfg, step, &solver).expect("checkpoint write")
        }),
    );
    let shard = std::fs::metadata(cfg.shard_path(step as u64, 0))
        .expect("shard on disk")
        .len();
    m.set("ckpt.shard_kb", shard as f64 / 1024.0);
    m.set(
        "ckpt.restore_ms",
        1e3 * median_s(5, || {
            restore_latest_serial(&cfg, &mut solver).expect("checkpoint restore");
        }),
    );
    let mut rec = StatsRecorder::new(SERIAL2D_CHANNELS.to_vec(), 1, 1);
    let limits = RuleLimits::default();
    let mut sample_step = step as u64;
    m.set(
        "stats.sample_us",
        1e6 * median_s(9, || {
            sample_step += 1;
            sample_serial2d(&mut solver, &mut rec, sample_step, &limits, false)
                .expect("stats sample");
        }),
    );
}

/// Quadrature points of one plane of the `fourier_slab` mesh.
fn slab_plane_points() -> usize {
    let prob = HelmholtzProblem::new(rect_quads(0.0, 1.0, 0.0, 1.0, 3, 3), 4, 1.0, &[]);
    (0..prob.mesh.nelems())
        .map(|ei| prob.basis(ei).nquad())
        .sum()
}

/// `nkt-fft` on the lines the one-rank `fourier_slab` transforms: n =
/// nz, batch = the points of a plane.
fn fft_on_slab_shape(m: &mut Metrics) {
    let batch = slab_plane_points();
    let fft = RealFft::new(NZ);
    let mut lines: Vec<Vec<f64>> = (0..batch)
        .map(|p| (0..NZ).map(|j| ((p + 3 * j) % 11) as f64 / 11.0).collect())
        .collect();
    let mut spectrum = vec![Complex64::default(); fft.spectrum_len()];
    let roundtrip_s = median_s(25, || {
        for line in lines.iter_mut() {
            fft.forward(line, &mut spectrum);
            fft.inverse(&spectrum, line);
        }
        black_box(&lines);
    });
    m.set("fft.real_roundtrip_us", roundtrip_s * 1e6);
    // Computed: a step transforms 12 fields to physical space and 3 back,
    // 2.5 n log2 n flops per real transform of length n.
    let per_line = 2.5 * NZ as f64 * (NZ as f64).log2();
    m.set("fft.flops_per_step", 15.0 * batch as f64 * per_line);
}

/// `nkt-mesh` / `nkt-partition` on the `ale_wing` mesh.
fn mesh_and_partition(m: &mut Metrics) {
    m.set(
        "mesh.build_ms",
        1e3 * median_s(5, || drop(black_box(wing_box_mesh(1)))),
    );
    let mesh = wing_box_mesh(1);
    let dual = Graph::from_edges(mesh.nelems(), &mesh.dual_edges());
    let opts = PartitionOptions::default();
    m.set(
        "partition.kway_ms",
        1e3 * median_s(5, || drop(black_box(partition_kway(&dual, 2, &opts)))),
    );
    m.set(
        "partition.edge_cut",
        edge_cut(&dual, &partition_kway(&dual, 2, &opts)) as f64,
    );
}

/// `nkt-mpi` between two rank threads, host time on rank 0.
fn mpi_two_ranks(m: &mut Metrics) {
    m.set(
        "mpi.world_spawn_us",
        1e6 * median_s(25, || drop(world2().run(|_| ()))),
    );
    // One transposed field of the two-rank slab: modes/rank x (cos, sin)
    // x points/rank.
    let block = (P2_NZ / 2 / 2) * 2 * (slab_plane_points() / 2);
    let times = world2().run(|c| {
        let peer = 1 - c.rank();
        const REPS: usize = 2000;
        c.barrier();
        let (_, pingpong) = once(|| {
            for _ in 0..REPS {
                if c.rank() == 0 {
                    c.send(peer, 7, &[1.0]);
                    c.recv(Some(peer), Some(7));
                } else {
                    c.recv(Some(peer), Some(7));
                    c.send(peer, 7, &[1.0]);
                }
            }
        });
        c.barrier();
        let (_, allreduce) = once(|| {
            let mut v = [1.0];
            for _ in 0..REPS {
                c.allreduce(&mut v, ReduceOp::Max);
            }
        });
        let send = vec![1.0; 2 * block];
        let mut recv = vec![0.0; 2 * block];
        c.barrier();
        let (_, alltoall) = once(|| {
            for _ in 0..REPS / 10 {
                c.alltoall(&send, block, &mut recv);
            }
        });
        // One-way latency is half a round trip.
        [
            pingpong / (2 * REPS) as f64,
            allreduce / REPS as f64,
            alltoall / (REPS / 10) as f64,
        ]
    });
    m.set("mpi.pingpong_us", times[0][0] * 1e6);
    m.set("mpi.allreduce_us", times[0][1] * 1e6);
    m.set("mpi.alltoall_us", times[0][2] * 1e6);
}

/// `nkt-gs` on the ALE velocity operator's dof numbering.
fn gs_on_ale_shape(seed: u64, m: &mut Metrics) {
    let case = AleWing::from_seed(seed, 2);
    let out = world2().run(|c| {
        let solver = case.build(c);
        let gids = &solver.vel_op.local_gids;
        c.barrier();
        let setup = median_s(5, || {
            GsHandle::try_setup(c, gids, GsStrategy::Hybrid).expect("gs setup");
        });
        let mut values = vec![1.0; gids.len()];
        c.barrier();
        let exchange = median_s(400, || {
            solver.vel_op.gs.exchange(c, &mut values, ReduceOp::Max)
        });
        (setup, exchange, solver.vel_op.gs.halo_locals().len())
    });
    let (setup, exchange, halo) = out[0];
    m.set("gs.setup_ms", setup * 1e3);
    m.set("gs.exchange_us", exchange * 1e6);
    m.set("gs.halo_dofs", halo as f64);
}

/// `nkt-ckpt`'s coordinated path on a 2-rank Fourier state (nz 16, the
/// planes of `serve_farm`'s DNS job).
fn ckpt_two_rank_fourier(seed: u64, scratch: &Path, m: &mut Metrics) {
    let case = FourierSlab::from_seed(seed, 2, 16);
    let cfg = CkptConfig::new(scratch.join("ckpt_fourier"), "probe_fourier", Some(1));
    let out = world2().run(|c| {
        let mut solver = case.build(c);
        for _ in 0..3 {
            case.step(&mut solver, c);
        }
        let step = solver.steps();
        let write = median_s(5, || {
            write_epoch(c, &cfg, step, &solver).expect("checkpoint write")
        });
        let restore = median_s(5, || {
            restore_latest(c, &cfg, &mut solver).expect("checkpoint restore");
        });
        (write, restore, step)
    });
    let (write, restore, step) = out[0];
    m.set("ckpt.par_write_ms", write * 1e3);
    m.set("ckpt.par_restore_ms", restore * 1e3);
    let shard = std::fs::metadata(cfg.shard_path(step as u64, 0))
        .expect("shard on disk")
        .len();
    m.set("ckpt.par_shard_kb", shard as f64 / 1024.0);
}
