//! Ablation: blocking vs pipelined (nonblocking, per-field) NekTar-F
//! transpose at np = 8 on both RoadRunner fabrics (DESIGN.md §11),
//! for both the slab (8x1) and the pencil (4x2) decomposition
//! (DESIGN.md §13).
//!
//! The measurement is the simulator's *virtual* clock — exact and
//! repeatable — so the printed table is a model output like the other
//! bins': committed as `results/ablation_overlap.txt` and held byte for
//! byte by `scripts/check_baselines`. Any change to the request engine,
//! the NIC-egress model or the transpose pipelining that shifts these
//! figures shows up as a baseline diff.
//!
//! The run also asserts what the unit tests pin (fourier.rs): identical
//! busy time between the two modes, and a pipelined wall strictly below
//! the blocking one.

use nektar::fourier::{FourierConfig, NektarF};
use nkt_mesh::rect_quads;
use nkt_mpi::prelude::*;
use nkt_net::{cluster, NetId};

const P: usize = 8;

fn cfg() -> FourierConfig {
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
        let mut s = NektarF::try_new_with_grid(c, &mesh, cfg(), pr, pc)
            .unwrap_or_else(|e| panic!("grid {pr}x{pc}: {e}"));
        s.set_overlap(overlap);
        s.set_initial(init_field);
        s.step(c);
        (c.wtime(), c.busy())
    });
    out.iter().fold((0.0f64, 0.0f64), |(w, b), t| (w.max(t.0), b.max(t.1)))
}

fn main() {
    println!("NekTar-F transpose ablation: blocking vs pipelined Alltoall, np = {P}");
    println!("[modeled: virtual ms per step; hidden = share of the blocking step's idle time]\n");
    println!(
        "{:>5} {:>5} {:>14} {:>14} {:>14} {:>8}",
        "net", "grid", "blocking", "pipelined", "busy", "hidden"
    );
    println!("{}", "-".repeat(65));
    for (pr, pc) in [(P, 1), (P / 2, 2)] {
        for (nid, tag) in [(NetId::RoadRunnerEth, "eth"), (NetId::RoadRunnerMyr, "myr")] {
            let (wall_block, busy_block) = step_times(nid, false, pr, pc);
            let (wall_pipe, busy_pipe) = step_times(nid, true, pr, pc);
            // The two modes charge the same advances, but at different
            // virtual times, so the f64 accumulation order differs — allow
            // ulp-level drift here (the eth unit test pins exact equality).
            assert!(
                (busy_block - busy_pipe).abs() <= 1e-12 * busy_block,
                "{tag} {pr}x{pc}: busy must not depend on NKT_OVERLAP \
                 ({busy_block} vs {busy_pipe})"
            );
            assert!(
                wall_pipe < wall_block,
                "{tag} {pr}x{pc}: pipelined step should be faster \
                 ({wall_pipe} vs {wall_block})"
            );
            println!(
                "{tag:>5} {:>5} {:>14.6} {:>14.6} {:>14.6} {:>7.1}%",
                format!("{pr}x{pc}"),
                wall_block * 1e3,
                wall_pipe * 1e3,
                busy_block * 1e3,
                100.0 * (wall_block - wall_pipe) / (wall_block - busy_block)
            );
        }
    }
}
