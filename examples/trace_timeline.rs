//! Regenerates a Figure 13-style stage breakdown from an exported trace
//! file — the textual twin of loading `TRACE_<run>.json` in Perfetto.
//!
//! ```sh
//! NKT_TRACE=spans cargo run --release --example quickstart
//! cargo run --release --example trace_timeline                     # default file
//! cargo run --release --example trace_timeline results/TRACE_x.json
//! ```
//!
//! Sums every `stage`/`replay`-category span per stage name, prints the
//! 7-stage percentage breakdown (the paper's Figures 12–16 pies as bars),
//! and dumps the embedded communication counter totals.

use nektar_repro::nektar::timers::Stage;
use nkt_trace::json::{parse, Value};

fn main() {
    nkt_trace::config::RunConfig::init_from_env();
    let path = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| nkt_trace::results_dir().join("TRACE_quickstart.json"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!(
            "trace_timeline: cannot read {} ({e})\n\
             generate one first: NKT_TRACE=spans cargo run --release --example quickstart",
            path.display()
        );
        std::process::exit(2);
    });
    let doc = parse(&text).unwrap_or_else(|e| {
        eprintln!("trace_timeline: {}: {e}", path.display());
        std::process::exit(2);
    });
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .unwrap_or_else(|| {
            eprintln!("trace_timeline: {}: no traceEvents array", path.display());
            std::process::exit(2);
        });

    // Sum span durations per stage, split by timeline: pid 0 carries
    // host microseconds, pid 1 carries virtual (model) microseconds.
    let mut host_us = [0.0f64; 7];
    let mut virtual_us = [0.0f64; 7];
    let mut nspans = 0usize;
    for e in events {
        let cat = e.get("cat").and_then(Value::as_str).unwrap_or("");
        if cat != "stage" && cat != "replay" {
            continue;
        }
        let name = e.get("name").and_then(Value::as_str).unwrap_or("");
        let Some(stage) = Stage::ALL.iter().find(|s| s.name() == name) else { continue };
        let dur = e.get("dur").and_then(Value::as_f64).unwrap_or(0.0);
        let pid = e.get("pid").and_then(Value::as_f64).unwrap_or(0.0);
        if pid == 0.0 {
            host_us[stage.index()] += dur;
        } else {
            virtual_us[stage.index()] += dur;
        }
        nspans += 1;
    }
    if nspans == 0 {
        eprintln!("trace_timeline: {}: no stage spans (was NKT_TRACE=spans set?)", path.display());
        std::process::exit(2);
    }
    println!("{}: {nspans} stage span(s)", path.display());
    for (label, totals) in [("host time", &host_us), ("virtual (model) time", &virtual_us)] {
        let total: f64 = totals.iter().sum();
        if total <= 0.0 {
            continue;
        }
        println!("\nstage breakdown, {label} (total {:.3} ms):", total / 1e3);
        for s in Stage::ALL {
            let pct = 100.0 * totals[s.index()] / total;
            let bar = "#".repeat((pct / 2.0).round() as usize);
            println!("  {} {:<16} {:>5.1}%  {bar}", s.index() + 1, s.name(), pct);
        }
        let solves = 100.0
            * (totals[Stage::PressureSolve.index()] + totals[Stage::ViscousSolve.index()])
            / total;
        println!("  solves (5+7): {solves:.0}% (paper: ~60% of serial CPU time)");
    }

    if let Some(totals) = doc
        .get("metrics")
        .and_then(|m| m.get("counter_totals"))
        .and_then(Value::as_obj)
    {
        if !totals.is_empty() {
            println!("\ncounter totals (all ranks):");
            for (name, v) in totals {
                println!("  {:<24} {}", name, v.as_f64().unwrap_or(0.0));
            }
        }
    }
}
