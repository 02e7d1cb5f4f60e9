//! `perfbench`: the repo's quiet-host benchmark — three workloads, three
//! end-to-end metrics each (`--trace 0`), and one number per layer
//! boundary from a traced pass plus outside-in probes (`--trace 1`).
//! See `README.md` in this directory for the glossary and the protocol.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload wake2d [--seed 1999] [--seconds 10] [--trace 0|1] [--selfcheck]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod ale_wing;
mod estimate;
mod fold;
mod fourier_slab;
mod host;
mod probes;
mod report;
mod serve_farm;
mod solver;
mod wake2d;

use report::Outcome;
use std::process::ExitCode;

/// (name, entry point)
type Workload = (&'static str, fn(u64, f64, bool) -> Outcome);

const WORKLOADS: &[Workload] = &[
    ("wake2d", wake2d::run),
    ("fourier_slab", fourier_slab::run),
    ("ale_wing", ale_wing::run),
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = solver::DEFAULT_SEED;
    let mut seconds = solver::NOMINAL_SECONDS;
    let mut trace = false;
    let mut selfcheck = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.0 == name)
                        .ok_or(format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&seconds) {
                    return Err(format!("--seconds {seconds} is outside 1..=60"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?} is neither 0 nor 1")),
                }
            }
            "--selfcheck" => selfcheck = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if selfcheck && trace {
        return Err("--selfcheck compares the end-to-end metrics: use it with --trace 0".into());
    }
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    let workload = workload.ok_or(format!("--workload <{}> is required", names.join("|")))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        selfcheck,
    })
}

/// Runs the workload once and completes its metrics.
fn run_once(args: &Args, fp: &host::Fingerprint) -> Outcome {
    let mut outcome = (args.workload.1)(args.seed, args.seconds, args.trace);
    if args.trace {
        let scratch = host::scratch_dir("probes");
        probes::run(args.seed, &scratch, &mut outcome.metrics);
        let farm = scratch.join("serve_farm");
        serve_farm::probe(args.seed, &farm, &mut outcome.metrics, &mut outcome.checks);
        let _ = std::fs::remove_dir_all(&scratch);
        outcome.metrics.set("drive.smt_slowdown", fp.smt_slowdown);
    } else {
        outcome.metrics.set("peak_rss_mb", host::peak_rss_mb());
    }
    print!(
        "{}",
        report::render_text(&outcome, fp, args.seed, args.seconds, args.trace)
    );
    outcome
}

fn main() -> ExitCode {
    host::scrub_env();
    estimate::self_test();
    fold::self_test();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let fp = host::Fingerprint::collect();
    // The gated rounds run on one rank thread; the two-rank comparison
    // runs and probes of `--trace 1` need a CPU each. Oversubscribed rank
    // threads time the scheduler, not the solver.
    let ranks = if args.trace { 2 } else { 1 };
    if ranks > fp.nproc {
        eprintln!(
            "perfbench: --trace {} needs {ranks} rank threads but this host has {} CPU(s)",
            args.trace as u8, fp.nproc
        );
        return ExitCode::from(2);
    }

    let outcome = run_once(&args, &fp);
    let mut steady = true;
    if args.selfcheck {
        // Identical code, back to back: any end-to-end metric that moves
        // by more than half its bound means this host is too noisy to
        // gate on right now.
        let again = run_once(&args, &fp);
        steady = again.checks.failures.is_empty();
        for (&(metric, _, _), bound) in report::END_TO_END.iter().zip(report::BOUNDS) {
            if let (Some(a), Some(b)) = (outcome.metrics.get(metric), again.metrics.get(metric)) {
                let moved = (a - b).abs() / a.min(b);
                let ok = moved <= bound / 2.0;
                let verdict = if ok { "ok" } else { "UNSTEADY" };
                println!(
                    "selfcheck {metric}: {a} vs {b}, moved {:.2}% {verdict}",
                    100.0 * moved
                );
                steady &= ok;
            }
        }
    }
    match report::render_json(&outcome, args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if args.selfcheck && !(steady && outcome.checks.failures.is_empty()) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
