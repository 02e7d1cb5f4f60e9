//! The design-choice ablations (DESIGN.md §6), measured on the
//! simulator's virtual clock: exact and repeatable, so each table is a
//! model output held byte for byte like the paper's.

use crate::{header, row, table3_shape, Run};
use nektar::drive::cases;
use nektar::fourier::{FourierConfig, NektarF};
use nektar::replay::replay;
use nektar::workload::{ale_step_workload, AleShape};
use nkt_ckpt::Checkpointable;
use nkt_gs::{GsHandle, GsStrategy};
use nkt_machine::{machine, MachineId};
use nkt_mesh::{rect_quads, wing_box_mesh};
use nkt_mpi::prelude::*;
use nkt_net::{cluster, ClusterNetwork, NetId};
use nkt_partition::{edge_cut, partition_kway, Graph, PartitionOptions};
use std::fmt::{self, Write as _};

fn a2a_time(net: ClusterNetwork, p: usize, block: usize, algo: AlltoallAlgo) -> f64 {
    let out = World::builder().ranks(p).net(net).run(move |c| {
        let send = vec![1.0f64; p * block];
        let mut recv = vec![0.0f64; p * block];
        c.alltoall_with(algo, &send, block, &mut recv);
        c.barrier();
        c.wtime()
    });
    out.into_iter().fold(0.0f64, f64::max)
}

/// MPI_Alltoall algorithm choice (pairwise vs ring vs Bruck) across
/// networks, rank counts and message sizes.
pub(crate) fn alltoall(_: &Run, o: &mut String) -> fmt::Result {
    writeln!(o, "Alltoall algorithm ablation: virtual seconds per call\n")?;
    for nid in [NetId::T3e, NetId::RoadRunnerMyr, NetId::RoadRunnerEth] {
        for p in [4usize, 8, 16] {
            writeln!(o, "network {}, P = {p}:", cluster(nid).name)?;
            header(o, &["block f64s", "pairwise", "ring", "bruck"])?;
            for block in [8usize, 512, 32 * 1024] {
                let algos = [AlltoallAlgo::Pairwise, AlltoallAlgo::Ring, AlltoallAlgo::Bruck];
                let vals: Vec<f64> =
                    algos.iter().map(|&a| a2a_time(cluster(nid), p, block, a)).collect();
                row(o, block, &vals)?;
            }
            writeln!(o)?;
        }
    }
    writeln!(o, "expected: Bruck wins the latency-bound regime (small blocks, high")?;
    writeln!(o, "latency networks) by sending log P larger messages; pairwise wins")?;
    writeln!(o, "bandwidth-bound large blocks by moving each byte exactly once.")
}

fn gs_time(nid: NetId, p: usize, shared_per_nbr: usize, strategy: GsStrategy) -> f64 {
    let out = World::builder().ranks(p).net(cluster(nid)).run(move |c| {
        let r = c.rank();
        // Chain topology: share `shared_per_nbr` dofs with each neighbour
        // plus one globally-shared corner dof.
        let mut ids: Vec<u64> = Vec::new();
        for k in 0..shared_per_nbr {
            ids.push((r * shared_per_nbr + k) as u64); // left-shared
            ids.push(((r + 1) * shared_per_nbr + k) as u64); // right-shared
        }
        ids.push(1_000_000); // corner shared by everyone
        let gs = GsHandle::try_setup(c, &ids, strategy).expect("consistent sharer table");
        let t0 = c.wtime();
        let mut v: Vec<f64> = ids.iter().map(|&g| g as f64).collect();
        for _ in 0..10 {
            gs.exchange(c, &mut v, ReduceOp::Sum);
        }
        c.wtime() - t0
    });
    out.into_iter().fold(0.0f64, f64::max) / 10.0
}

/// Gather-scatter strategy (pairwise vs tree vs hybrid) on a
/// partition-boundary exchange pattern: the Tufo-Fischer design choice
/// the paper describes.
pub(crate) fn gs(_: &Run, o: &mut String) -> fmt::Result {
    writeln!(o, "Gather-scatter strategy ablation: virtual seconds per exchange\n")?;
    for nid in [NetId::Sp2Silver, NetId::RoadRunnerMyr, NetId::MusesLam] {
        writeln!(o, "network {}:", cluster(nid).name)?;
        header(o, &["P / shared", "pairwise", "tree", "hybrid"])?;
        for (p, shared) in [(4usize, 64usize), (8, 64), (8, 2048)] {
            let vals: Vec<f64> = [GsStrategy::Pairwise, GsStrategy::Tree, GsStrategy::Hybrid]
                .iter()
                .map(|&s| gs_time(nid, p, shared, s))
                .collect();
            row(o, format!("{p}/{shared}"), &vals)?;
        }
        writeln!(o)?;
    }
    writeln!(o, "expected: pairwise wins face-dominated exchanges (few sharers);")?;
    writeln!(o, "tree wins many-sharer reductions; hybrid ('a mix of these two',")?;
    writeln!(o, "the paper's choice) tracks the better of the two.")
}

/// Ranks of the native runs of the two overlap ablations.
const WING_P: usize = 4;
const FOURIER_P: usize = 8;

/// Two steps of the flapping-wing demo case at P = 4 with split-phase
/// overlap on or off; returns (max wall, max busy, folded state hash)
/// across ranks.
fn ale_times(overlap: bool) -> (f64, f64, u64) {
    let case = cases::WingCase { gs_overlap: overlap, ..cases::wing(WING_P) };
    let out = World::builder().ranks(WING_P).net(cluster(NetId::RoadRunnerMyr)).run(|c| {
        let mut s = case.build(c);
        s.step(c);
        s.step(c);
        (c.wtime(), c.busy(), s.state_hash())
    });
    out.iter().fold((0.0f64, 0.0f64, 0u64), |(w, b, h), t| {
        (w.max(t.0), b.max(t.1), h.rotate_left(17) ^ t.2)
    })
}

/// Table-3 replay wall at the given P with the gs overlap credit set to
/// `frac` (0.0 = blocking).
fn replay_wall(mid: MachineId, nid: NetId, p: usize, frac: f64) -> f64 {
    let shape = AleShape { overlap: [frac; 7], ..table3_shape(p) };
    replay(&ale_step_workload(&shape), &machine(mid), &cluster(nid), p).wall.total()
}

/// Blocking vs split-phase gather-scatter in NekTar-ALE (DESIGN.md §16):
/// the nonblocking `GsHandle::start`/`finish` pair that posts the halo
/// exchange before the interior elemental work and drains it afterwards.
/// Two views:
///
/// - native: a small flapping-wing ALE run at P = 4; asserts the two
///   modes are bitwise identical (FNV state hash) and charge the same
///   busy time, then writes both walls.
/// - replay: the Table-3 shape (15,870 elements, order 4) replayed on
///   the NCSA and RoadRunner-myrinet models at P = 16/64 with the
///   `CommItem::GsExchange` overlap credit on and off.
pub(crate) fn gs_overlap(_: &Run, o: &mut String) -> fmt::Result {
    writeln!(
        o,
        "NekTar-ALE gather-scatter ablation: blocking vs split-phase exchange [modeled]\n"
    )?;

    let (wall_block, busy_block, hash_block) = ale_times(false);
    let (wall_split, busy_split, hash_split) = ale_times(true);
    assert_eq!(hash_block, hash_split, "split-phase gather-scatter must be bitwise neutral");
    // Same elemental charges in both modes, accumulated at different
    // virtual times — allow ulp-level drift (cf. `overlap`).
    assert!(
        (busy_block - busy_split).abs() <= 1e-12 * busy_block,
        "busy must not depend on the gs overlap ({busy_block} vs {busy_split})"
    );
    assert!(
        wall_split < wall_block,
        "split-phase ALE step should be faster ({wall_split} vs {wall_block})"
    );
    writeln!(o, "native: flapping wing, 2 steps, np = {WING_P}, RoadRunner myr. [virtual ms]")?;
    writeln!(o, "state hash {hash_split:016x} in both modes")?;
    writeln!(o, "{:>16} {:>16} {:>16} {:>8}", "blocking", "split", "busy", "hidden")?;
    writeln!(o, "{}", "-".repeat(59))?;
    writeln!(
        o,
        "{:>16.6} {:>16.6} {:>16.6} {:>7.2}%",
        wall_block * 1e3,
        wall_split * 1e3,
        busy_block * 1e3,
        100.0 * (wall_block - wall_split) / (wall_block - busy_block)
    )?;

    writeln!(o, "\nreplay: Table 3 shape (15,870 elements, order 4) [virtual s per step]")?;
    writeln!(o, "{:>8} {:>5} {:>12} {:>12}", "machine", "P", "blocking", "overlap")?;
    writeln!(o, "{}", "-".repeat(40))?;
    for (label, mid, nid) in [
        ("ncsa", MachineId::Ncsa, NetId::Ncsa),
        ("myr", MachineId::RoadRunner, NetId::RoadRunnerMyr),
    ] {
        for p in [16usize, 64] {
            let frac = (1.0 - 6.0 / ((15_870 / p) as f64).cbrt()).max(0.0);
            let blocking = replay_wall(mid, nid, p, 0.0);
            let overlap = replay_wall(mid, nid, p, frac);
            assert!(
                overlap < blocking,
                "table3/{label}/p{p}: overlap credit must reduce modeled wall \
                 ({overlap} vs {blocking})"
            );
            writeln!(o, "{label:>8} {p:>5} {blocking:>12.4} {overlap:>12.4}")?;
        }
    }
    Ok(())
}

fn fourier_cfg() -> FourierConfig {
    FourierConfig {
        order: 4,
        dt: 1e-3,
        nu: 0.05,
        nz: 16, // two modes per rank at P = 8, the paper's weak-scaling layout
        lz: 2.0 * std::f64::consts::PI,
        scheme_order: 2,
    }
}

fn init_field(x: [f64; 3]) -> [f64; 3] {
    let pi = std::f64::consts::PI;
    [
        (pi * x[0]).sin() * (pi * x[1]).cos() * x[2].cos(),
        -(pi * x[0]).cos() * (pi * x[1]).sin() * x[2].cos(),
        0.0,
    ]
}

/// One NekTar-F step at np = pr * pc on the given process grid; returns
/// (max wall, max busy) in virtual seconds across ranks.
fn step_times(nid: NetId, overlap: bool, pr: usize, pc: usize) -> (f64, f64) {
    let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
    let out = World::builder().ranks(pr * pc).net(cluster(nid)).run(|c| {
        let mut s = NektarF::try_new_with_grid(c, &mesh, fourier_cfg(), pr, pc)
            .unwrap_or_else(|e| panic!("grid {pr}x{pc}: {e}"));
        s.set_overlap(overlap);
        s.set_initial(init_field);
        s.step(c);
        (c.wtime(), c.busy())
    });
    out.iter().fold((0.0f64, 0.0f64), |(w, b), t| (w.max(t.0), b.max(t.1)))
}

/// Blocking vs pipelined (nonblocking, per-field) NekTar-F transpose at
/// np = 8 on both RoadRunner fabrics (DESIGN.md §11), for both the slab
/// (8x1) and the pencil (4x2) grid (DESIGN.md §13). Any change to the
/// request engine, the NIC-egress model or the transpose pipelining that
/// shifts these figures shows up as a baseline diff. Also asserts what
/// the unit tests pin (fourier.rs): identical busy time in the two
/// modes, and a pipelined wall strictly below the blocking one.
pub(crate) fn overlap(_: &Run, o: &mut String) -> fmt::Result {
    writeln!(o, "NekTar-F transpose ablation: blocking vs pipelined Alltoall, np = {FOURIER_P}")?;
    writeln!(
        o,
        "[modeled: virtual ms per step; hidden = share of the blocking step's idle time]\n"
    )?;
    writeln!(
        o,
        "{:>5} {:>5} {:>14} {:>14} {:>14} {:>8}",
        "net", "grid", "blocking", "pipelined", "busy", "hidden"
    )?;
    writeln!(o, "{}", "-".repeat(65))?;
    for (pr, pc) in [(FOURIER_P, 1), (FOURIER_P / 2, 2)] {
        for (nid, tag) in [(NetId::RoadRunnerEth, "eth"), (NetId::RoadRunnerMyr, "myr")] {
            let (wall_block, busy_block) = step_times(nid, false, pr, pc);
            let (wall_pipe, busy_pipe) = step_times(nid, true, pr, pc);
            // The two modes charge the same advances, but at different
            // virtual times, so the f64 accumulation order differs — allow
            // ulp-level drift here (the eth unit test pins exact equality).
            assert!(
                (busy_block - busy_pipe).abs() <= 1e-12 * busy_block,
                "{tag} {pr}x{pc}: busy must not depend on the transpose overlap \
                 ({busy_block} vs {busy_pipe})"
            );
            assert!(
                wall_pipe < wall_block,
                "{tag} {pr}x{pc}: pipelined step should be faster \
                 ({wall_pipe} vs {wall_block})"
            );
            writeln!(
                o,
                "{tag:>5} {:>5} {:>14.6} {:>14.6} {:>14.6} {:>7.1}%",
                format!("{pr}x{pc}"),
                wall_block * 1e3,
                wall_pipe * 1e3,
                busy_block * 1e3,
                100.0 * (wall_block - wall_pipe) / (wall_block - busy_block)
            )?;
        }
    }
    Ok(())
}

/// Multilevel partitioner refinement on/off: edge cut drives the ALE
/// halo volume.
pub(crate) fn partition(_: &Run, o: &mut String) -> fmt::Result {
    writeln!(o, "Partitioner ablation: wing-mesh dual graph edge cut\n")?;
    header(o, &["refine / P", "with FM", "without FM", "cut ratio"])?;
    for refine in [1usize, 2] {
        let mesh = wing_box_mesh(refine);
        let g = Graph::from_edges(mesh.nelems(), &mesh.dual_edges());
        for p in [4usize, 8, 16] {
            let with = partition_kway(&g, p, &PartitionOptions::default());
            let without = partition_kway(
                &g,
                p,
                &PartitionOptions { skip_refinement: true, ..Default::default() },
            );
            let cw = edge_cut(&g, &with) as f64;
            let co = edge_cut(&g, &without) as f64;
            row(o, format!("{refine}/{p}"), &[cw, co, co / cw.max(1.0)])?;
        }
    }
    writeln!(o, "\nedge cut ~ shared face count ~ bytes per GS exchange: the")?;
    writeln!(o, "refinement pass directly cuts ALE communication volume.")
}
