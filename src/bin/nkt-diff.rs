//! The one gate for every committed artifact: compares the gated files
//! of a fresh directory against the committed baselines in `results/`
//! and exits 1 on any failure (`nkt_trace::gate` has the rules). Adding
//! an artifact family is one extractor next to its writer and one line
//! in [`FAMILIES`]. `scripts/check_baselines` fills the fresh directory.
//!
//! ```sh
//! cargo run --release --bin nkt-diff -- --fresh /tmp/fresh [--baseline results]
//! ```

use nektar_repro::trace::gate::{diff, load, Family, Kind};
use nektar_repro::{prof, stats};
use std::path::PathBuf;
use std::process::ExitCode;

#[rustfmt::skip]
const FAMILIES: [Family; 4] = [
    Family { prefix: "PROF_", suffix: ".json", kind: Kind::Rows(prof::gates) },
    Family { prefix: "STATS_", suffix: ".json", kind: Kind::Rows(stats::gates) },
    Family { prefix: "CALIB_", suffix: ".json", kind: Kind::Rows(prof::calib_gates) },
    // Model outputs: the same-named `nkt_bench::ARTIFACTS` entry, plus
    // the examples' state hashes.
    Family { prefix: "", suffix: ".txt", kind: Kind::Bytes },
];

fn main() -> ExitCode {
    let (mut fresh, mut baseline, mut unknown) = (None, None, false);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match (a.as_str(), args.next()) {
            ("--fresh", Some(dir)) => fresh = Some(PathBuf::from(dir)),
            ("--baseline", Some(dir)) => baseline = Some(PathBuf::from(dir)),
            _ => unknown = true,
        }
    }
    let (Some(fresh), false) = (fresh, unknown) else {
        eprintln!("usage: nkt-diff --fresh <dir> [--baseline <dir>]");
        eprintln!("       (default baseline: <workspace>/results)");
        return ExitCode::from(2);
    };
    let baseline = baseline.unwrap_or_else(nektar_repro::trace::results_dir);
    let read = |dir: &PathBuf| {
        load(dir, &FAMILIES).map_err(|e| eprintln!("nkt-diff: {}: {e}", dir.display()))
    };
    let (Ok(base), Ok(new)) = (read(&baseline), read(&fresh)) else {
        return ExitCode::from(2);
    };
    println!(
        "nkt-diff: fresh {} vs baseline {}",
        fresh.display(),
        baseline.display()
    );
    let (table, failures) = diff(&base, &new, &FAMILIES);
    print!("{table}");
    if failures > 0 {
        println!("\nnkt-diff: {failures} failure(s)");
        return ExitCode::FAILURE;
    }
    println!("\nnkt-diff: OK — {} file(s) inside their bands", base.len());
    ExitCode::SUCCESS
}
