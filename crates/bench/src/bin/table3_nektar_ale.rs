//! Table 3: NekTar-ALE flapping-wing CPU/wall per step (4,062,720 dof,
//! 15,870 elements, order 4), strong scaling P = 16..128 — model replay.
//!
//! PCG iteration counts are taken from small-scale native runs (pressure
//! O(150), velocity O(25) at the large Helmholtz lambda, mesh O(100)) and
//! held fixed across P, matching the paper's fixed-size problem.

use nektar::replay::replay;
use nektar::workload::ale_step_workload;
use nkt_machine::{machine, MachineId};
use nkt_net::{cluster, NetId};

#[allow(clippy::type_complexity)]
fn systems() -> Vec<(&'static str, MachineId, NetId, [Option<(f64, f64)>; 4])> {
    vec![
        (
            "AP3000",
            MachineId::Ap3000,
            NetId::Ap3000,
            [Some((43.23, 43.674)), None, None, None],
        ),
        (
            "NCSA",
            MachineId::Ncsa,
            NetId::Ncsa,
            [
                Some((25.71, 25.79)),
                Some((9.87, 10.08)),
                Some((6.97, 6.99)),
                Some((5.72, 6.04)),
            ],
        ),
        (
            "SP2-Silver",
            MachineId::Sp2Silver,
            NetId::Sp2Silver,
            [Some((29.59, 29.71)), Some((15.82, 15.85)), Some((9.37, 9.40)), None],
        ),
        (
            "SP2-Thin2",
            MachineId::Sp2Thin2,
            NetId::Sp2Thin2,
            [Some((65.47, 69.21)), None, None, None],
        ),
        (
            "RoadRunner myr",
            MachineId::RoadRunner,
            NetId::RoadRunnerMyr,
            [Some((25.38, 25.4)), Some((13.57, 13.58)), Some((9.83, 9.87)), None],
        ),
    ]
}

fn main() {
    let cfg = nkt_trace::config::RunConfig::init_from_env();
    let ps = [16usize, 32, 64, 128];
    println!("Table 3: NekTar-ALE CPU/wall seconds per step, flapping wing,");
    println!("strong scaling [modeled]. '-' = not run in the paper.");
    // Split-phase gather-scatter overlap is credited (`ablation_gs_overlap`
    // prints the blocking column): the measured window is the
    // interior-element share of the schedule, ~ (1 - 6/V^(1/3)) for a
    // cubic partition of V elements.
    let (_, measured) = nkt_bench::ale_stage_overlap(15_870 / ps[0]);
    println!(
        "gs overlap windows: {}.",
        if measured {
            "measured (native CALIB_flapping_wing_ale.json)"
        } else {
            "analytic 1 - 6/V^(1/3) (no committed calibration)"
        }
    );
    println!();
    for (label, mid, nid, paper) in systems() {
        let m = machine(mid);
        let net = cluster(nid);
        println!("== {label} ==");
        println!("{:>6} {:>16} {:>16}", "P", "paper cpu/wall", "model cpu/wall");
        // NKT_PROF=1: same rank-0 replay-timeline wiring as Table 2.
        if cfg.prof {
            nkt_trace::set_thread_meta(format!("replay {label}"), Some(0));
        }
        let mut vt_end = 0.0;
        for (col, &p) in ps.iter().enumerate() {
            let rec = ale_step_workload(&nkt_bench::table3_shape(p));
            let t = replay(&rec, &m, &net, p);
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
            let run = format!("table3_nektar_ale_{}", nkt_prof::slug(label));
            nkt_prof::profile_and_write(&run, &nkt_trace::take_collected());
        }
    }
    println!("paper shape checks: fixed problem size, so \"the timings drop with");
    println!("increasing number of processors\"; \"for 16 processors, the PC cluster");
    println!("is faster than the rest\" (with NCSA close); Thin2/AP3000 lag badly.");
}
