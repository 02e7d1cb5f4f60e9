//! # nkt-bench — the experiment harness
//!
//! One binary, `nkt-bench <dir>`, writes every file of `results/`: every
//! table and figure of the paper's evaluation, plus the design-choice
//! ablations (DESIGN.md §6), as `<dir>/<name>.txt` ([`ARTIFACTS`], each
//! `modeled` numbers only and saying so; EXPERIMENTS.md records
//! paper-vs-ours), then the native runs' `PROF_`, `CALIB_` and `STATS_`
//! documents and `HASHES.txt` ([`BASELINES`]). `scripts/check_baselines`
//! holds each to its committed copy. Host timing is `perfbench/`'s job.

mod ablations;
mod apps;
pub mod baseline;
mod kernels;

use baseline::{Baseline, Case};
use nektar::drive::cases;
use nektar::opstream::{OpRecording, Recorder};
use nektar::workload::{AleShape, FourierShape};
use nkt_machine::{machine, MachineId};
use nkt_mesh::bluff_body_mesh;
use nkt_net::NetId;
use nkt_spectral::element::Expansion;
use nkt_spectral::{boundary_band_order, Assembly, QuadBasis};
use std::fmt::{self, Write as _};

/// What the artifacts share: the run's one reading of the environment
/// and the one paper-shape serial step Table 1 and Figure 12 replay.
pub struct Run {
    /// `NKT_PROF`: Tables 2 and 3 profile their replayed timelines into
    /// `PROF_<table>_<system>.json` in this directory, the run's own.
    pub prof: Option<std::path::PathBuf>,
    /// [`paper_serial_step`], recorded once a run.
    pub serial_step: OpRecording,
}

/// An artifact's writer: its text, into the buffer.
pub type Artifact = fn(&Run, &mut String) -> fmt::Result;

/// Every artifact, `(name, writer)`, in the paper's order: kernels
/// (Figures 1–6), communication (Figures 7–8), applications (Tables 1–3
/// and Figures 12–16), then the ablations. `nkt-bench <dir>` writes each
/// to `<dir>/<name>.txt`.
pub const ARTIFACTS: &[(&str, Artifact)] = &[
    ("fig1_dcopy", kernels::figure::<1>),
    ("fig2_daxpy", kernels::figure::<2>),
    ("fig3_ddot", kernels::figure::<3>),
    ("fig4_dgemv", kernels::figure::<4>),
    ("fig5_dgemm", kernels::figure::<5>),
    ("fig6_dgemm_small", kernels::figure::<6>),
    ("fig7_pingpong", kernels::fig7_pingpong),
    ("fig8_alltoall", kernels::fig8_alltoall),
    ("table1_serial", apps::table1_serial),
    ("fig12_serial_stages", apps::fig12_serial_stages),
    ("table2_nektar_f", apps::table2_nektar_f),
    ("fig13_14_f_stages", apps::fig13_14_f_stages),
    ("table3_nektar_ale", apps::table3_nektar_ale),
    ("fig15_16_ale_stages", apps::fig15_16_ale_stages),
    ("ablation_alltoall", ablations::alltoall),
    ("ablation_gs", ablations::gs),
    ("ablation_gs_overlap", ablations::gs_overlap),
    ("ablation_overlap", ablations::overlap),
    ("ablation_partition", ablations::partition),
];

/// NekTar-F's demo slab (4 ranks, 8 planes) on `net`.
const fn slab(net: NetId) -> Case {
    Case::Fourier { net, ranks: 4, nz: 8, grid: None }
}

/// The same planes on a 4 × 2 pencil grid of 8 ranks.
const fn pencil(net: NetId) -> Case {
    Case::Fourier { net, ranks: 8, nz: 8, grid: Some((4, 2)) }
}

/// Every native baseline run, run after [`ARTIFACTS`]: the demo problems
/// at the examples' scale. A sampled run is separate from its profiled
/// twin, because a sample adds traffic the profile would see.
#[rustfmt::skip]
pub const BASELINES: [Baseline; 8] = [
    Baseline { run: "fourier_dns_roadrunner_myr", case: slab(NetId::RoadRunnerMyr), steps: 3, prof: true, calib: true, stats_every: 0 },
    Baseline { run: "fourier_dns_roadrunner_eth", case: slab(NetId::RoadRunnerEth), steps: 3, prof: true, calib: true, stats_every: 0 },
    Baseline { run: "fourier_dns_roadrunner_myr_grid4x2", case: pencil(NetId::RoadRunnerMyr), steps: 3, prof: true, calib: false, stats_every: 0 },
    Baseline { run: "fourier_dns_roadrunner_eth_grid4x2", case: pencil(NetId::RoadRunnerEth), steps: 3, prof: true, calib: false, stats_every: 0 },
    Baseline { run: "fourier_dns_roadrunner_myr", case: slab(NetId::RoadRunnerMyr), steps: 3, prof: false, calib: false, stats_every: 1 },
    Baseline { run: "fourier_dns_roadrunner_eth", case: slab(NetId::RoadRunnerEth), steps: 3, prof: false, calib: false, stats_every: 1 },
    Baseline { run: "flapping_wing_ale", case: Case::Wing { net: NetId::RoadRunnerMyr, ranks: 4 }, steps: 2, prof: true, calib: true, stats_every: 0 },
    Baseline { run: "cylinder_wake", case: Case::Wake { refine: 1, order: 4 }, steps: 10, prof: false, calib: false, stats_every: 1 },
];

/// Per-stage split-phase overlap windows for an ALE replay with
/// `nelems_local` elements per rank.
///
/// Prefers the *measured* surface coefficients from the committed
/// native calibration (`results/CALIB_flapping_wing_ale.json`, written
/// by the `flapping_wing_ale` row of [`BASELINES`]), re-expanded at
/// this volume via [`nkt_prof::window_at`]; stages the native run never
/// measured get the apply-weighted merged coefficient. Falls back to the
/// analytic `1 − 6/V^{1/3}` estimate everywhere when no calibration is
/// committed. Returns the windows plus whether they are measured.
pub fn ale_stage_overlap(nelems_local: usize) -> ([f64; 7], bool) {
    use nektar::timers::Stage;
    let vol = nelems_local as f64;
    let mut w = [nkt_prof::window_at(nkt_prof::ANALYTIC_COEF, vol); 7];
    let path = nkt_trace::results_dir().join("CALIB_flapping_wing_ale.json");
    let Ok(windows) = nkt_prof::load_windows(&path) else {
        return (w, false);
    };
    let Some(merged) = nkt_prof::merged_coef(&windows) else {
        return (w, false);
    };
    for s in Stage::ALL {
        let coef = windows
            .iter()
            .find(|x| x.stage == s.name())
            .map(|x| x.coef())
            .unwrap_or(merged);
        w[s.index()] = nkt_prof::window_at(coef, vol);
    }
    (w, true)
}

/// One rank's share of Table 3's flapping-wing problem (15,870 elements
/// at order 4, 4,062,720 dof over four fields) on `p` ranks, the
/// split-phase gather-scatter overlap credited. PCG iteration counts are
/// from small-scale native runs, held fixed across `p`.
pub fn table3_shape(p: usize) -> AleShape {
    let order = 4usize;
    let nelems_local = 15_870 / p;
    // Partition surface ~ 6 V^(2/3) element faces, (order+1)^2 dofs each.
    let surface =
        6.0 * (nelems_local as f64).powf(2.0 / 3.0) * ((order + 1) * (order + 1)) as f64;
    AleShape {
        nelems_local,
        nq3: (order + 3).pow(3),
        nlocal: 1_015_680 / p + surface as usize,
        halo: surface as usize,
        neighbors: 6.min(p - 1),
        press_iters: 400,
        visc_iters: 70,
        mesh_iters: 250,
        nm1: order + 1,
        // Measured per-stage windows when a native calibration is
        // committed, else the interior-element share of a cubic
        // partition; the credit moves wall time only, never cpu.
        overlap: ale_stage_overlap(nelems_local).0,
    }
}

/// The NetPIPE-style byte sizes the kernel figures sweep (paper x-axis:
/// 100 B – 1 MB+).
pub fn kernel_sweep_bytes() -> Vec<usize> {
    let mut v = Vec::new();
    let mut b = 128usize;
    while b <= (1 << 21) {
        v.push(b);
        b *= 2;
    }
    v
}

/// Writes a table header row and its rule.
pub(crate) fn header(o: &mut String, cols: &[&str]) -> fmt::Result {
    for c in cols {
        write!(o, "{c:>14}")?;
    }
    writeln!(o)?;
    writeln!(o, "{}", "-".repeat(14 * cols.len()))
}

/// Writes a data row of f64s after a leading label/number column.
pub(crate) fn row(o: &mut String, first: impl fmt::Display, vals: &[f64]) -> fmt::Result {
    write!(o, "{first:>14}")?;
    for v in vals {
        if *v == 0.0 {
            write!(o, "{:>14}", "-")?;
        } else if *v >= 100.0 {
            write!(o, "{v:>14.0}")?;
        } else if *v >= 1.0 {
            write!(o, "{v:>14.2}")?;
        } else {
            write!(o, "{v:>14.4}")?;
        }
    }
    writeln!(o)
}

/// `cases::wake`'s `(refine, order)` at the paper's shape: "902 elements
/// and polynomial order of 8" with "230,000 degrees of freedom". Refine 3
/// gives 972 elements (a 42 × 24 grid less the 6 × 6 body), the closest
/// to 902.
pub const PAPER_WAKE: (usize, usize) = (3, 8);

/// One warmed step of the paper-shape serial bluff-body run, as the
/// native solver records it: what Table 1 and Figure 12 replay. The
/// recorder is on for step 2, the first with the scheme's two history
/// levels, so the stream is a steady step's.
pub fn paper_serial_step() -> OpRecording {
    let (refine, order) = PAPER_WAKE;
    let mut solver = cases::wake(refine, order);
    solver.step();
    solver.recorder = Recorder::enabled();
    solver.step();
    solver.recorder.take().expect("the recorder is enabled")
}

/// One rank's NekTar-F step shape on the paper-shape planes: `p` ranks
/// in a `p / pc × pc` grid (`pc` = 1 is the paper's slab), each grid row
/// owning `modes_per_rank` Fourier modes. The plane sizes are read off
/// the paper mesh's `Assembly` and the boundary band the native solvers
/// factor (the statically condensed system, in `boundary_band_order`),
/// without building a solver.
pub fn paper_fourier_shape(p: usize, pc: usize, modes_per_rank: usize) -> FourierShape {
    let (refine, order) = PAPER_WAKE;
    let mesh = bluff_body_mesh(refine);
    let basis = QuadBasis::new(order);
    let asm = Assembly::build(&mesh, |_| &basis);
    FourierShape {
        nelems: mesh.nelems(),
        nm: basis.nmodes(),
        nq: basis.nquad(),
        ndof: asm.nboundary,
        kd: boundary_band_order(&asm).kd,
        modes_per_rank,
        nz: 2 * modes_per_rank * (p / pc),
        p,
        pc,
        nm_interior: asm.interior(0).len(),
    }
}

/// Table 1's machines, in the paper's row order, with the paper's
/// measured CPU seconds per step.
pub fn table1_rows() -> Vec<(MachineId, f64)> {
    vec![
        (MachineId::Ap3000, 1.22),
        (MachineId::Onyx2, 1.03),
        (MachineId::Muses, 0.81),
        (MachineId::Sp2Thin2, 1.44),
        (MachineId::Sp2Silver, 1.30),
        (MachineId::T3e, 0.82),
        (MachineId::P2sc, 0.71),
    ]
}

/// Runs the Table-1 replay of a recorded step ([`paper_serial_step`]):
/// returns (name, paper s/step, modeled s/step).
pub fn table1_model(rec: &OpRecording) -> Vec<(&'static str, f64, f64)> {
    table1_rows()
        .into_iter()
        .map(|(id, paper)| {
            let m = machine(id);
            let clock = nektar::replay::replay_serial(rec, &m);
            (m.name, paper, clock.total())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_paper_range() {
        let s = kernel_sweep_bytes();
        assert!(*s.first().unwrap() <= 128);
        assert!(*s.last().unwrap() >= 1 << 20);
    }

    /// The paper-shape recording, built once for the tests that read it.
    fn paper_step() -> &'static OpRecording {
        static REC: std::sync::OnceLock<OpRecording> = std::sync::OnceLock::new();
        REC.get_or_init(paper_serial_step)
    }

    /// `nkt-bench` writes exactly the committed baselines, each once: one
    /// `<name>.txt` per artifact, each baseline row's documents and
    /// `HASHES.txt` are the files of `nkt-diff`'s families under
    /// `results/` (what runs without an output directory leave there,
    /// `TRACE_*` and the like, aside). Starts no run.
    #[test]
    fn artifacts_are_the_committed_baselines() {
        let mut names: Vec<String> =
            ARTIFACTS.iter().map(|(name, _)| format!("{name}.txt")).collect();
        for b in &BASELINES {
            for (kind, on) in [("PROF", b.prof), ("CALIB", b.calib), ("STATS", b.stats_every > 0)] {
                if on {
                    names.push(format!("{kind}_{}.json", b.run));
                }
            }
        }
        names.push("HASHES.txt".into());
        names.sort();
        let gated = |f: &String| {
            f.ends_with(".txt") || ["PROF_", "CALIB_", "STATS_"].iter().any(|p| f.starts_with(p))
        };
        let mut committed: Vec<String> = std::fs::read_dir(nkt_trace::results_dir())
            .expect("the workspace has a results/ directory")
            .map(|e| e.expect("a readable directory entry").file_name().into_string().unwrap())
            .filter(gated)
            .collect();
        committed.sort();
        assert_eq!(names, committed);
    }

    /// Under `NKT_PROF` the replay profiles land in the run's own
    /// directory, never in `results/`: Table 3's (the cheaper of the two
    /// profiled tables) into a fresh directory, one per system.
    #[test]
    fn replay_profiles_land_in_the_run_directory() {
        let dir = std::env::temp_dir().join(format!("nkt-bench-prof-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("a fresh directory");
        let profiles = |d: &std::path::Path| -> Vec<String> {
            let names = std::fs::read_dir(d).expect("a readable directory");
            let mut names: Vec<String> = names
                .map(|e| e.expect("a readable directory entry").file_name().into_string().unwrap())
                .filter(|f| f.starts_with("PROF_table"))
                .collect();
            names.sort();
            names
        };
        let before = profiles(&nkt_trace::results_dir());
        let run = Run { prof: Some(dir.clone()), serial_step: OpRecording::new() };
        apps::table3_nektar_ale(&run, &mut String::new()).expect("writing to a String cannot fail");
        let written = profiles(&dir);
        std::fs::remove_dir_all(&dir).expect("the directory this test made");
        assert_eq!(written.len(), apps::TABLE3.len(), "{written:?}");
        assert!(written.iter().all(|f| f.starts_with("PROF_table3_nektar_ale_") && f.ends_with(".json")));
        assert_eq!(profiles(&nkt_trace::results_dir()), before);
    }

    /// The recording is the paper-scale step ("902 elements and
    /// polynomial order of 8"), warmed.
    #[test]
    fn paper_shape_is_paper_scale() {
        use nektar::opstream::WorkItem;
        use nektar::Stage;
        let rec = paper_step();
        let stage = |st: Stage| -> Vec<WorkItem> {
            rec.work.iter().filter(|(s, _)| *s == st).map(|&(_, w)| w).collect()
        };
        // 972 elements at order 8: two modal -> quadrature transforms an
        // element, from 81 modes to 100 quadrature points.
        let transforms = stage(Stage::BwdTransform);
        assert_eq!(transforms.len(), 2 * 972);
        assert!(transforms.iter().all(|&w| w == WorkItem::Gemm { m: 100, n: 1, k: 81 }));
        // Warmed: stage 3 weighs j = 2 history levels, 8·j·nq flops an
        // element.
        let weighting = stage(Stage::StifflyStable);
        assert_eq!(weighting.len(), 972);
        assert!(weighting.iter().all(|w| w.flops() == 16.0 * 100.0));
    }

    /// The recorded step's replay keeps the headline Table-1 claim: "only
    /// the P2SC nodes are faster than the PC, with the T3E being just as
    /// fast."
    #[test]
    fn table1_ranking_reproduces_paper() {
        let rows = table1_model(paper_step());
        let get = |name: &str| {
            rows.iter().find(|(n, _, _)| *n == name).map(|(_, _, t)| *t).unwrap()
        };
        let pc = get("Muses");
        assert!(get("SP2-P2SC") < pc, "P2SC must beat the PC");
        // T3E "just as fast": within ~25%.
        let t3e = get("T3E");
        assert!((t3e - pc).abs() / pc < 0.4, "T3E {t3e} vs PC {pc}");
        // The rest are slower than the PC.
        for slow in ["AP3000", "Onyx2", "SP2-Thin2", "SP2-Silver"] {
            assert!(get(slow) > pc * 0.9, "{slow} unexpectedly much faster than PC");
        }
    }
}
