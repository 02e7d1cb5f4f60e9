//! `profile_and_write` and `calibrate_and_write` resolve their directory
//! through `nkt_trace::out_dir()`, like the STATS writer: a per-job
//! worker that routed its artifacts with `set_thread_dir` gets its PROF
//! and CALIB there, whatever `NKT_TRACE_DIR` says.

#[test]
fn prof_and_calib_land_in_the_thread_dir() {
    let dir = std::env::temp_dir().join(format!("nkt_calib_outdir_{}", std::process::id()));
    nkt_trace::set_thread_dir(Some(dir.clone()));
    nkt_calib::calibrate_and_write("outdir", &[]);
    nkt_prof::profile_and_write("outdir", &[]);
    nkt_trace::set_thread_dir(None);
    assert!(dir.join("CALIB_outdir.json").is_file() && dir.join("PROF_outdir.json").is_file());
    let _ = std::fs::remove_dir_all(&dir);
}
