//! `nkt_trace::json::write_artifact`, the one writer of the PROF, CALIB
//! and STATS documents, resolves its directory through
//! `nkt_trace::out_dir()`: a per-job worker that routed its artifacts
//! with `set_thread_dir` gets its PROF and CALIB there, whatever
//! `NKT_TRACE_DIR` says.

use nkt_prof::{Calibration, Profile};
use nkt_trace::json::write_artifact;

#[test]
fn prof_and_calib_land_in_the_thread_dir() {
    let dir = std::env::temp_dir().join(format!("nkt_calib_outdir_{}", std::process::id()));
    nkt_trace::set_thread_dir(Some(dir.clone()));
    write_artifact("CALIB", "outdir", &Calibration::from_ranks("outdir", &[]).document());
    write_artifact("PROF", "outdir", &Profile::from_ranks("outdir", &[]).document());
    nkt_trace::set_thread_dir(None);
    assert!(dir.join("CALIB_outdir.json").is_file() && dir.join("PROF_outdir.json").is_file());
    let _ = std::fs::remove_dir_all(&dir);
}
