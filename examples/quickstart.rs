//! Quickstart: solve a Poisson problem with the spectral/hp element
//! method and watch p-refinement converge spectrally, then run a few
//! Navier-Stokes time steps with the stage instrumentation on.
//!
//! ```sh
//! cargo run --release --example quickstart
//! NKT_TRACE=spans cargo run --release --example quickstart   # + Perfetto trace
//! ```
//!
//! With `NKT_TRACE=spans` the stepping loop exports
//! `results/TRACE_quickstart.json` (load it at <https://ui.perfetto.dev>)
//! and self-checks that the per-stage span totals in the exported file
//! agree with the solver's own `StageClock` ledger within 1%.

use nektar_repro::mesh::rect_quads;
use nektar_repro::nektar::serial2d::{Serial2dSolver, SolverConfig};
use nektar_repro::nektar::timers::Stage;
use nektar_repro::spectral::{HelmholtzProblem, SolveMethod};
use nkt_mesh::BoundaryTag;
use nkt_trace::json::{parse, Value};

fn main() {
    nkt_trace::config::RunConfig::init_from_env();
    poisson_refinement();
    traced_stepping();
}

fn poisson_refinement() {
    let pi = std::f64::consts::PI;
    let exact = move |x: [f64; 2]| (pi * x[0]).sin() * (pi * x[1]).sin();
    let forcing = move |x: [f64; 2]| 2.0 * pi * pi * exact(x);

    println!("Poisson on [0,1]^2, 3x3 quadrilateral elements, p-refinement");
    println!("{:>6} {:>10} {:>14} {:>12}", "order", "dofs", "L2 error", "bandwidth");
    for order in [2, 3, 4, 5, 6, 7, 8] {
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 3, 3);
        let mut prob = HelmholtzProblem::new(
            mesh,
            order,
            0.0,
            &[
                BoundaryTag::Wall,
                BoundaryTag::Inflow,
                BoundaryTag::Outflow,
                BoundaryTag::Side,
            ],
        );
        let (u, stats) = prob.solve(forcing, |_| 0.0, SolveMethod::BandedDirect);
        let err = prob.l2_error(&u, exact);
        println!(
            "{:>6} {:>10} {:>14.3e} {:>12}",
            order,
            prob.asm.ndof,
            err,
            stats.bandwidth
        );
    }
    println!();
    println!("Each +1 in polynomial order multiplies accuracy — no remeshing");
    println!("(paper S1.3: \"convergence ... can be obtained without remeshing\").");
}

/// A short bluff-body stepping run with the 7-stage instrumentation on.
fn traced_stepping() {
    let mesh = nektar_repro::mesh::bluff_body_mesh(1);
    let cfg = SolverConfig { order: 3, dt: 2e-3, nu: 0.01, scheme_order: 2, advect: true };
    let mut solver =
        Serial2dSolver::new(mesh, cfg, |x| if x[0] < -14.0 { 1.0 } else { 0.0 }, |_| 0.0);
    solver.set_initial(|_| 1.0, |_| 0.0);

    println!("\nNavier-Stokes stepping (bluff-body domain, order 3):");
    let nsteps = 5;
    for _ in 0..nsteps {
        solver.step();
    }
    let pct = solver.clock.percentages();
    for s in Stage::ALL {
        println!("  {:<16} {:>5.1}%", s.name(), pct[s.index()]);
    }

    if nkt_trace::mode() != nkt_trace::TraceMode::Spans {
        println!("\n(set NKT_TRACE=spans to export a Perfetto timeline of those steps)");
        return;
    }
    match nkt_trace::export("quickstart") {
        // NKT_TRACE=summary: the digest was printed, no file to check.
        None => assert!(nkt_trace::summary_enabled(), "spans mode exports"),
        Some(path) => verify_trace_matches_clock(&path, &solver.clock.totals),
    }
}

/// Reads the exported trace back and checks each stage's summed span
/// duration against the StageClock ledger (within 1%: both sides of a
/// `StageTimer` measure the same interval).
fn verify_trace_matches_clock(path: &std::path::Path, ledger: &[f64; 7]) {
    let text = std::fs::read_to_string(path).expect("trace file readable");
    let doc = parse(&text).expect("trace file is valid JSON");
    let events = doc.get("traceEvents").and_then(Value::as_arr).expect("traceEvents array");

    let mut span_secs = [0.0f64; 7];
    for e in events {
        if e.get("cat").and_then(Value::as_str) != Some("stage") {
            continue;
        }
        let name = e.get("name").and_then(Value::as_str).unwrap_or("");
        if let Some(s) = Stage::ALL.iter().find(|s| s.name() == name) {
            span_secs[s.index()] +=
                e.get("dur").and_then(Value::as_f64).unwrap_or(0.0) / 1e6;
        }
    }

    println!("\ntrace vs ledger (per-stage seconds):");
    let mut worst = 0.0f64;
    for s in Stage::ALL {
        let (sp, cl) = (span_secs[s.index()], ledger[s.index()]);
        // 1% relative, with a 50 µs absolute guard for near-empty stages
        // (the two Instant reads inside StageTimer are not the same read).
        let rel = if cl > 0.0 { (sp - cl).abs() / cl } else { 0.0 };
        let ok = rel < 0.01 || (sp - cl).abs() < 50e-6;
        println!(
            "  {:<16} spans {:>10.6} ledger {:>10.6} ({:>5.2}% off){}",
            s.name(),
            sp,
            cl,
            100.0 * rel,
            if ok { "" } else { "  MISMATCH" }
        );
        assert!(ok, "stage {} trace/ledger mismatch: {sp} vs {cl}", s.name());
        worst = worst.max(rel);
    }
    println!("trace self-check: OK (worst stage off by {:.3}%)", 100.0 * worst);
}
