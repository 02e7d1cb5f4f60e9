//! Tables 1–3 and Figures 12–16: the applications' steps replayed on the
//! 1999 machine and network models.

use crate::{ale_stage_overlap, paper_fourier_shape, table1_model, table3_shape, Run};
use nektar::opstream::OpRecording;
use nektar::replay::{replay, replay_serial};
use nektar::workload::{ale_step_workload, fourier_step_workload};
use nkt_machine::{machine, MachineId};
use nkt_net::{cluster, NetId};
use std::fmt::{self, Write as _};

/// Table 1: CPU time per step of the serial bluff-body simulation (902
/// elements, order 8, 230k dof) across seven machines: the replay of one
/// warmed native step on 972 elements at order 8 ([`Run::serial_step`]).
pub(crate) fn table1_serial(run: &Run, o: &mut String) -> fmt::Result {
    writeln!(o, "Table 1: serial bluff-body CPU time per step [modeled]")?;
    let cols = ["machine", "paper (s)", "modeled (s)", "ratio vs PC"];
    writeln!(o, "{:<14} {:>12} {:>14} {:>12}", cols[0], cols[1], cols[2], cols[3])?;
    let rows = table1_model(&run.serial_step);
    let pc = rows.iter().find(|(n, _, _)| *n == "Muses").expect("Muses is a Table 1 row").2;
    for (name, paper, model) in &rows {
        writeln!(o, "{name:<14} {paper:>12.2} {model:>14.3} {:>12.2}", model / pc)?;
    }
    writeln!(o, "\npaper claim check: \"only the P2SC nodes are faster than the PC,")?;
    writeln!(o, "with the T3E being just as fast\". Absolute values differ by a")?;
    writeln!(o, "near-constant implementation factor (our elemental kernels are not")?;
    writeln!(o, "sum-factorized); the machine ranking is the reproduced result.")
}

/// Figure 12: each of the 7 stages' share of a serial time step on the
/// SGI Onyx2 and the Pentium II, from the step Table 1 replays.
pub(crate) fn fig12_serial_stages(run: &Run, o: &mut String) -> fmt::Result {
    // Paper Figure 12 reference percentages (stages 1-7).
    let paper: [(&str, [f64; 7]); 2] = [
        ("SGI Onyx 2", [4.0, 11.0, 3.0, 9.0, 30.0, 12.0, 31.0]),
        ("Pentium PII, 450Mhz", [3.0, 10.0, 5.0, 8.0, 31.0, 11.0, 32.0]),
    ];
    for ((label, paper_pct), id) in paper.iter().zip([MachineId::Onyx2, MachineId::Muses]) {
        let clock = replay_serial(&run.serial_step, &machine(id));
        let pct = clock.percentages();
        writeln!(o, "\n{label}: stage share of one time step")?;
        writeln!(o, "{:>7} {:>10} {:>10}", "stage", "paper %", "model %")?;
        for i in 0..7 {
            writeln!(o, "{:>7} {:>10.0} {:>10.1}", i + 1, paper_pct[i], pct[i])?;
        }
        let solves = pct[4] + pct[6];
        writeln!(o, "solves (5+7): paper ~60%, model {solves:.0}%")?;
    }
    Ok(())
}

/// A row block of Tables 2 and 3: (system label, machine, network, the
/// paper's CPU/wall seconds at each P column, `None` where not run).
type System<const N: usize> = (&'static str, MachineId, NetId, [Option<(f64, f64)>; N]);

/// The system blocks of Tables 2 and 3: paper vs modeled CPU/wall per
/// step, `steps[col]` replayed on `ps[col]` ranks. Under `NKT_PROF=1`
/// each system's replays lie end to end on one rank-0 virtual timeline,
/// every span carrying its CPU seconds, so `PROF_<table>_<system>.json`
/// splits each stage into work and network idle.
fn scaling_blocks<const N: usize>(
    run: &Run,
    o: &mut String,
    table: &str,
    ps: [usize; N],
    steps: &[OpRecording; N],
    systems: &[System<N>],
) -> fmt::Result {
    for (label, mid, nid, paper) in systems {
        let (m, net) = (machine(*mid), cluster(*nid));
        writeln!(o, "== {label} ==")?;
        writeln!(o, "{:>6} {:>16} {:>16}", "P", "paper cpu/wall", "model cpu/wall")?;
        if run.prof.is_some() {
            nkt_trace::set_thread_meta(format!("replay {label}"), Some(0));
        }
        let mut vt_end = 0.0;
        for (col, &p) in ps.iter().enumerate() {
            // Max 4 ranks on the 4-PC Muses.
            if *label == "Muses" && p > 4 {
                continue;
            }
            let t = replay(&steps[col], &m, &net, p);
            if run.prof.is_some() {
                vt_end = t.record_trace_spans(vt_end);
            }
            let paper_s =
                paper[col].map(|(c, w)| format!("{c:.2}/{w:.2}")).unwrap_or_else(|| "-".into());
            writeln!(o, "{:>6} {:>16} {:>13.2}/{:.2}", p, paper_s, t.cpu.total(), t.wall.total())?;
        }
        writeln!(o)?;
        if let Some(dir) = &run.prof {
            let name = format!("{table}_{}", nkt_prof::slug(label));
            let ranks = nkt_prof::from_threads(&nkt_trace::take_collected());
            let profile = nkt_prof::Profile::from_ranks(&name, &ranks);
            print!("{}", profile.report());
            match nkt_trace::json::write(dir, &format!("PROF_{name}.json"), &profile.document()) {
                Ok((path, _)) => println!("prof: wrote {}", path.display()),
                Err(e) => eprintln!("prof: cannot write {e}"),
            }
        }
    }
    Ok(())
}

#[rustfmt::skip]
const TABLE2: [System<7>; 7] = [
    ("AP3000", MachineId::Ap3000, NetId::Ap3000,
        [Some((4.23, 4.31)), Some((4.52, 4.59)), Some((4.71, 4.79)), Some((4.63, 4.74)),
         None, None, None]),
    ("NCSA", MachineId::Ncsa, NetId::Ncsa,
        [Some((3.62, 3.63)), Some((4.96, 4.99)), Some((4.17, 4.20)), Some((5.12, 5.15)),
         Some((4.85, 4.88)), Some((4.24, 4.26)), Some((5.12, 5.16))]),
    ("SP2-Silver", MachineId::Sp2Silver, NetId::Sp2Silver,
        [Some((4.92, 4.93)), Some((5.94, 5.96)), Some((6.53, 6.56)), Some((6.71, 6.74)),
         Some((6.95, 6.99)), Some((6.93, 6.93)), None]),
    ("SP2-Thin2", MachineId::Sp2Thin2, NetId::Sp2Thin2,
        [Some((5.74, 5.81)), Some((5.91, 5.98)), Some((6.18, 6.23)), Some((6.30, 6.39)),
         None, None, None]),
    ("RoadRunner eth", MachineId::RoadRunner, NetId::RoadRunnerEth,
        [Some((5.28, 5.81)), Some((6.99, 8.27)), Some((9.92, 11.47)), Some((18.47, 22.13)),
         Some((12.81, 23.865)), Some((13.13, 30.21)), None]),
    ("RoadRunner myr", MachineId::RoadRunner, NetId::RoadRunnerMyr,
        [Some((3.99, 3.99)), Some((4.15, 4.15)), Some((4.27, 4.27)), Some((4.64, 4.66)),
         Some((4.606, 4.606)), Some((7.71, 7.71)), Some((11.14, 11.14))]),
    ("Muses", MachineId::Muses, NetId::MusesLam,
        [Some((4.32, 4.757)), Some((5.59, 6.20)), None, None, None, None, None]),
];

/// Table 2: parallel NekTar-F CPU/wall time per step of the bluff-body
/// simulation, weak scaling with 2 Fourier planes per processor (461,000
/// dof per processor), P = 2–128; then the pencil extension.
pub(crate) fn table2_nektar_f(run: &Run, o: &mut String) -> fmt::Result {
    let ps = [2usize, 4, 8, 16, 32, 64, 128];
    // One mode a rank, on a slab.
    let steps = ps.map(|p| fourier_step_workload(&paper_fourier_shape(p, 1, 1)));
    writeln!(o, "Table 2: NekTar-F CPU/wall seconds per step, 2 Fourier planes per")?;
    writeln!(o, "processor (weak scaling) [modeled]. '-' = not run in the paper.\n")?;
    scaling_blocks(run, o, "table2_nektar_f", ps, &steps, &TABLE2)?;
    writeln!(o, "paper shape checks: timings roughly constant for the fast networks")?;
    writeln!(o, "(weak scaling); \"the ethernet-based network seems to saturate above")?;
    writeln!(o, "8 processors\" — its wall column must blow up while CPU stays flat;")?;
    writeln!(o, "\"the myrinet network saturates above 64 processors\".")?;
    pencil_extension(o)
}

/// Table 2 extension (beyond the paper): strong scaling at fixed nz = 64
/// on the modeled machines. The slab decomposition stops at P = 32 (one
/// mode per rank); the 2-D pencil grid (pr = 32 rows, pc = P/32 columns,
/// DESIGN.md §13) continues past P = nz with two-stage sub-communicator
/// transposes and per-rank FFT batches that keep shrinking by pc.
fn pencil_extension(o: &mut String) -> fmt::Result {
    let nz = 64usize;
    let nmodes = nz / 2;
    let shapes = [8usize, 16, 32, 64, 128, 256].map(|p| {
        let pc = p.div_ceil(nmodes); // 1 until P = 32, then 2, 4, 8
        paper_fourier_shape(p, pc, nmodes / (p / pc))
    });
    writeln!(o)?;
    writeln!(o, "Table 2 extension: pencil decomposition, strong scaling at nz = {nz}")?;
    writeln!(o, "(fixed problem). grid = PRxPC; slab is PRx1; the slab cannot run")?;
    writeln!(o, "past P = nz/2 = {nmodes}.\n")?;
    for (label, mid, nid) in [
        ("RoadRunner myr", MachineId::RoadRunner, NetId::RoadRunnerMyr),
        ("RoadRunner eth", MachineId::RoadRunner, NetId::RoadRunnerEth),
        ("T3E", MachineId::T3e, NetId::T3e),
    ] {
        let m = machine(mid);
        let net = cluster(nid);
        writeln!(o, "== {label} ==")?;
        writeln!(o, "{:>6} {:>8} {:>16}", "P", "grid", "model cpu/wall")?;
        for shape in &shapes {
            let (p, pc) = (shape.p, shape.pc);
            let pr = p / pc;
            let t = replay(&fourier_step_workload(shape), &m, &net, p);
            let grid = format!("{pr}x{pc}");
            writeln!(o, "{:>6} {:>8} {:>13.2}/{:.2}", p, grid, t.cpu.total(), t.wall.total())?;
        }
        writeln!(o)?;
    }
    writeln!(o, "shape check: the pencil columns continue the slab curve past")?;
    writeln!(o, "P = nz/2 with finite two-stage exchange cost; per-step compute")?;
    writeln!(o, "keeps dropping with P while the row allgather adds wire time.")
}

/// Figures 13–14: NekTar-F stage breakdown (CPU and wall-clock) for the
/// 4-processor bluff-body run on NCSA, SP2-Silver, RoadRunner-ethernet
/// and RoadRunner-myrinet.
pub(crate) fn fig13_14_f_stages(_: &Run, o: &mut String) -> fmt::Result {
    let p = 4;
    let rec = fourier_step_workload(&paper_fourier_shape(p, 1, 1));
    // Paper percentages (CPU timing), stages 1-7.
    #[rustfmt::skip]
    let systems: [(&str, MachineId, NetId, [f64; 7]); 4] = [
        ("NCSA (Fig 13)", MachineId::Ncsa, NetId::Ncsa, [4.0, 41.0, 4.0, 6.0, 15.0, 9.0, 22.0]),
        ("SP2-Silver (Fig 13)", MachineId::Sp2Silver, NetId::Sp2Silver,
            [2.0, 53.0, 5.0, 5.0, 11.0, 7.0, 17.0]),
        ("RoadRunner eth (Fig 14)", MachineId::RoadRunner, NetId::RoadRunnerEth,
            [2.0, 69.0, 3.0, 4.0, 9.0, 8.0, 6.0]),
        ("RoadRunner myr (Fig 14)", MachineId::RoadRunner, NetId::RoadRunnerMyr,
            [3.0, 55.0, 4.0, 5.0, 11.0, 8.0, 14.0]),
    ];
    for (label, mid, nid, paper) in systems {
        let t = replay(&rec, &machine(mid), &cluster(nid), p);
        let cpu = t.cpu.percentages();
        let wall = t.wall.percentages();
        writeln!(o, "\n{label}: stage share, 4-processor NekTar-F step")?;
        let cols = ["stage", "paper cpu%", "model cpu%", "model wall%"];
        writeln!(o, "{:>7} {:>12} {:>12} {:>12}", cols[0], cols[1], cols[2], cols[3])?;
        for i in 0..7 {
            writeln!(o, "{:>7} {:>12.0} {:>12.1} {:>12.1}", i + 1, paper[i], cpu[i], wall[i])?;
        }
    }
    writeln!(o, "\npaper shape check: \"the main computational cost occurs at the")?;
    writeln!(o, "non-linear step 2\"; on the PC clusters \"step 2 takes as much as 60%")?;
    writeln!(o, "of the time\" — the ethernet wall share of stage 2 must be largest.")
}

#[rustfmt::skip]
pub(crate) const TABLE3: [System<4>; 5] = [
    ("AP3000", MachineId::Ap3000, NetId::Ap3000, [Some((43.23, 43.674)), None, None, None]),
    ("NCSA", MachineId::Ncsa, NetId::Ncsa,
        [Some((25.71, 25.79)), Some((9.87, 10.08)), Some((6.97, 6.99)), Some((5.72, 6.04))]),
    ("SP2-Silver", MachineId::Sp2Silver, NetId::Sp2Silver,
        [Some((29.59, 29.71)), Some((15.82, 15.85)), Some((9.37, 9.40)), None]),
    ("SP2-Thin2", MachineId::Sp2Thin2, NetId::Sp2Thin2, [Some((65.47, 69.21)), None, None, None]),
    ("RoadRunner myr", MachineId::RoadRunner, NetId::RoadRunnerMyr,
        [Some((25.38, 25.4)), Some((13.57, 13.58)), Some((9.83, 9.87)), None]),
];

/// Table 3: NekTar-ALE flapping-wing CPU/wall per step (4,062,720 dof,
/// 15,870 elements, order 4), strong scaling P = 16–128. PCG iteration
/// counts are taken from small-scale native runs (pressure O(150),
/// velocity O(25) at the large Helmholtz lambda, mesh O(100)) and held
/// fixed across P, matching the paper's fixed-size problem.
pub(crate) fn table3_nektar_ale(run: &Run, o: &mut String) -> fmt::Result {
    let ps = [16usize, 32, 64, 128];
    let steps = ps.map(|p| ale_step_workload(&table3_shape(p)));
    writeln!(o, "Table 3: NekTar-ALE CPU/wall seconds per step, flapping wing,")?;
    writeln!(o, "strong scaling [modeled]. '-' = not run in the paper.")?;
    // Split-phase gather-scatter overlap is credited (`ablation_gs_overlap`
    // prints the blocking column): the measured window is the
    // interior-element share of the schedule, ~ (1 - 6/V^(1/3)) for a
    // cubic partition of V elements.
    let windows = if ale_stage_overlap(15_870 / ps[0]).1 {
        "measured (native CALIB_flapping_wing_ale.json)"
    } else {
        "analytic 1 - 6/V^(1/3) (no committed calibration)"
    };
    writeln!(o, "gs overlap windows: {windows}.\n")?;
    scaling_blocks(run, o, "table3_nektar_ale", ps, &steps, &TABLE3)?;
    writeln!(o, "paper shape checks: fixed problem size, so \"the timings drop with")?;
    writeln!(o, "increasing number of processors\"; \"for 16 processors, the PC cluster")?;
    writeln!(o, "is faster than the rest\" (with NCSA close); Thin2/AP3000 lag badly.")
}

/// Figures 15–16: NekTar-ALE stage breakdown grouped a (steps 1-4, 6),
/// b (pressure solve), c (Helmholtz solves) for NCSA and
/// RoadRunner-myrinet at P = 16 and P = 64.
pub(crate) fn fig15_16_ale_stages(_: &Run, o: &mut String) -> fmt::Result {
    // Paper percentages (CPU): (system, P, a, b, c).
    #[rustfmt::skip]
    let cases: [(&str, MachineId, NetId, usize, [f64; 3]); 4] = [
        ("NCSA (Fig 15)", MachineId::Ncsa, NetId::Ncsa, 16, [9.0, 41.0, 50.0]),
        ("RoadRunner myr (Fig 15)", MachineId::RoadRunner, NetId::RoadRunnerMyr, 16,
            [6.0, 42.0, 53.0]),
        ("NCSA (Fig 16)", MachineId::Ncsa, NetId::Ncsa, 64, [8.0, 40.0, 52.0]),
        ("RoadRunner myr (Fig 16)", MachineId::RoadRunner, NetId::RoadRunnerMyr, 64,
            [3.0, 42.0, 55.0]),
    ];
    for (label, mid, nid, p, paper) in cases {
        let rec = ale_step_workload(&table3_shape(p));
        let t = replay(&rec, &machine(mid), &cluster(nid), p);
        let (ca, cb, cc) = t.cpu.ale_group_percentages();
        let (wa, wb, wc) = t.wall.ale_group_percentages();
        writeln!(o, "\n{label}, P = {p}: a/b/c stage shares")?;
        writeln!(o, "{:>8} {:>10} {:>10} {:>10}", "group", "paper %", "cpu %", "wall %")?;
        writeln!(o, "{:>8} {:>10.0} {:>10.1} {:>10.1}", "a", paper[0], ca, wa)?;
        writeln!(o, "{:>8} {:>10.0} {:>10.1} {:>10.1}", "b", paper[1], cb, wb)?;
        writeln!(o, "{:>8} {:>10.0} {:>10.1} {:>10.1}", "c", paper[2], cc, wc)?;
    }
    writeln!(o, "\npaper shape check: \"the timings are distributed equivalently to")?;
    writeln!(o, "the serial simulations, weighting on steps 5 and 7\" — groups b + c")?;
    writeln!(o, "must dominate (~90%), with c (3 velocity + 1 mesh Helmholtz solves)")?;
    writeln!(o, "slightly ahead of b.")
}
