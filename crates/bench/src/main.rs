//! Writes every committed baseline into one directory: `<dir>/<name>.txt`
//! for each entry of [`nkt_bench::ARTIFACTS`] (the paper's tables and
//! figures, and the ablations), then the documents of each row of
//! [`nkt_bench::BASELINES`] and `<dir>/HASHES.txt`.
//!
//! ```sh
//! cargo run --release -p nkt-bench -- <dir>
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let cfg = nkt_trace::config::RunConfig::init_from_env();
    let mut args = std::env::args().skip(1);
    let (Some(dir), None) = (args.next(), args.next()) else {
        eprintln!("usage: nkt-bench <dir>");
        return ExitCode::from(2);
    };
    let dir = PathBuf::from(dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("nkt-bench: {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let prof = cfg.prof.then(|| dir.clone());
    let run = nkt_bench::Run { prof, serial_step: nkt_bench::paper_serial_step() };
    for (name, write) in nkt_bench::ARTIFACTS {
        // Under NKT_PROF=1 an artifact's profiles see its own spans only,
        // not the paper step's or an earlier artifact's native worlds'.
        drop(nkt_trace::take_collected());
        let mut text = String::new();
        write(&run, &mut text).expect("writing to a String cannot fail");
        let path = dir.join(format!("{name}.txt"));
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("nkt-bench: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = nkt_bench::baseline::write_all(&dir) {
        eprintln!("nkt-bench: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
