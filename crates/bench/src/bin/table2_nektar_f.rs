//! Table 2: Parallel NekTar-F CPU/wall time per step of the bluff-body
//! simulation, weak scaling with 2 Fourier planes per processor
//! (461,000 dof per processor), P = 2..128 — model replay.

use nektar::replay::replay;
use nektar::workload::fourier_step_workload;
use nkt_bench::paper_fourier_shape;
use nkt_machine::{machine, MachineId};
use nkt_net::{cluster, NetId};

/// (system label, machine, network, paper CPU/wall per P column).
#[allow(clippy::type_complexity)]
fn systems() -> Vec<(&'static str, MachineId, NetId, [Option<(f64, f64)>; 7])> {
    vec![
        (
            "AP3000",
            MachineId::Ap3000,
            NetId::Ap3000,
            [
                Some((4.23, 4.31)),
                Some((4.52, 4.59)),
                Some((4.71, 4.79)),
                Some((4.63, 4.74)),
                None,
                None,
                None,
            ],
        ),
        (
            "NCSA",
            MachineId::Ncsa,
            NetId::Ncsa,
            [
                Some((3.62, 3.63)),
                Some((4.96, 4.99)),
                Some((4.17, 4.20)),
                Some((5.12, 5.15)),
                Some((4.85, 4.88)),
                Some((4.24, 4.26)),
                Some((5.12, 5.16)),
            ],
        ),
        (
            "SP2-Silver",
            MachineId::Sp2Silver,
            NetId::Sp2Silver,
            [
                Some((4.92, 4.93)),
                Some((5.94, 5.96)),
                Some((6.53, 6.56)),
                Some((6.71, 6.74)),
                Some((6.95, 6.99)),
                Some((6.93, 6.93)),
                None,
            ],
        ),
        (
            "SP2-Thin2",
            MachineId::Sp2Thin2,
            NetId::Sp2Thin2,
            [
                Some((5.74, 5.81)),
                Some((5.91, 5.98)),
                Some((6.18, 6.23)),
                Some((6.30, 6.39)),
                None,
                None,
                None,
            ],
        ),
        (
            "RoadRunner eth",
            MachineId::RoadRunner,
            NetId::RoadRunnerEth,
            [
                Some((5.28, 5.81)),
                Some((6.99, 8.27)),
                Some((9.92, 11.47)),
                Some((18.47, 22.13)),
                Some((12.81, 23.865)),
                Some((13.13, 30.21)),
                None,
            ],
        ),
        (
            "RoadRunner myr",
            MachineId::RoadRunner,
            NetId::RoadRunnerMyr,
            [
                Some((3.99, 3.99)),
                Some((4.15, 4.15)),
                Some((4.27, 4.27)),
                Some((4.64, 4.66)),
                Some((4.606, 4.606)),
                Some((7.71, 7.71)),
                Some((11.14, 11.14)),
            ],
        ),
        (
            "Muses",
            MachineId::Muses,
            NetId::MusesLam,
            [Some((4.32, 4.757)), Some((5.59, 6.20)), None, None, None, None, None],
        ),
    ]
}

fn main() {
    let cfg = nkt_trace::config::RunConfig::init_from_env();
    let ps = [2usize, 4, 8, 16, 32, 64, 128];
    let shapes = ps.map(|p| paper_fourier_shape(p, 1, 1)); // one mode a rank, on a slab
    println!("Table 2: NekTar-F CPU/wall seconds per step, 2 Fourier planes per");
    println!("processor (weak scaling) [modeled]. '-' = not run in the paper.\n");
    for (label, mid, nid, paper) in systems() {
        let m = machine(mid);
        let net = cluster(nid);
        println!("== {label} ==");
        println!("{:>6} {:>16} {:>16}", "P", "paper cpu/wall", "model cpu/wall");
        // NKT_PROF=1: lay each P column's replayed step on a rank-0
        // virtual timeline; each replay span carries its CPU seconds, so
        // the profile splits every stage into work vs network idle.
        if cfg.prof {
            nkt_trace::set_thread_meta(format!("replay {label}"), Some(0));
        }
        let mut vt_end = 0.0;
        for (col, &p) in ps.iter().enumerate() {
            // Max 4 ranks on the 4-PC Muses.
            if label == "Muses" && p > 4 {
                continue;
            }
            let t = replay(&fourier_step_workload(&shapes[col]), &m, &net, p);
            if cfg.prof {
                vt_end = t.record_trace_spans(vt_end);
            }
            let paper_s = paper[col]
                .map(|(c, w)| format!("{c:.2}/{w:.2}"))
                .unwrap_or_else(|| "-".into());
            println!(
                "{:>6} {:>16} {:>13.2}/{:.2}",
                p,
                paper_s,
                t.cpu_total(),
                t.wall_total()
            );
        }
        println!();
        if cfg.prof {
            let run = format!("table2_nektar_f_{}", nkt_prof::slug(label));
            nkt_prof::profile_and_write(&run, &nkt_trace::take_collected());
        }
    }
    println!("paper shape checks: timings roughly constant for the fast networks");
    println!("(weak scaling); \"the ethernet-based network seems to saturate above");
    println!("8 processors\" — its wall column must blow up while CPU stays flat;");
    println!("\"the myrinet network saturates above 64 processors\".");
    pencil_extension();
}

/// Table 2 extension (beyond the paper): strong scaling at fixed nz = 64
/// on the modeled machines. The slab decomposition stops at P = 32 (one
/// mode per rank); the 2-D pencil grid (pr = 32 rows, pc = P/32 columns,
/// DESIGN.md §13) continues past P = nz with two-stage sub-communicator
/// transposes and per-rank FFT batches that keep shrinking by pc.
fn pencil_extension() {
    let nz = 64usize;
    let nmodes = nz / 2;
    let shapes = [8usize, 16, 32, 64, 128, 256].map(|p| {
        let pc = p.div_ceil(nmodes); // 1 until P = 32, then 2, 4, 8
        paper_fourier_shape(p, pc, nmodes / (p / pc))
    });
    println!();
    println!("Table 2 extension: pencil decomposition, strong scaling at nz = {nz}");
    println!("(fixed problem). grid = PRxPC; slab is PRx1; the slab cannot run");
    println!("past P = nz/2 = {nmodes}.\n");
    for (label, mid, nid) in [
        ("RoadRunner myr", MachineId::RoadRunner, NetId::RoadRunnerMyr),
        ("RoadRunner eth", MachineId::RoadRunner, NetId::RoadRunnerEth),
        ("T3E", MachineId::T3e, NetId::T3e),
    ] {
        let m = machine(mid);
        let net = cluster(nid);
        println!("== {label} ==");
        println!("{:>6} {:>8} {:>16}", "P", "grid", "model cpu/wall");
        for shape in &shapes {
            let (p, pc) = (shape.p, shape.pc);
            let pr = p / pc;
            let t = replay(&fourier_step_workload(shape), &m, &net, p);
            println!("{:>6} {:>8} {:>13.2}/{:.2}", p, format!("{pr}x{pc}"), t.cpu_total(), t.wall_total());
        }
        println!();
    }
    println!("shape check: the pencil columns continue the slab curve past");
    println!("P = nz/2 with finite two-stage exchange cost; per-step compute");
    println!("keeps dropping with P while the row allgather adds wire time.");
}
