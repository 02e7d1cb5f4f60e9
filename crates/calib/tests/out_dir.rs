//! `Profile::write` and `Calibration::write` resolve their directory
//! through `nkt_trace::out_dir()`, like `StatsRecorder::write`: a
//! per-job worker that routed its artifacts with `set_thread_dir` gets
//! its PROF and CALIB there, whatever `NKT_TRACE_DIR` says.

#[test]
fn prof_and_calib_land_in_the_thread_dir() {
    let dir = std::env::temp_dir().join(format!("nkt_calib_outdir_{}", std::process::id()));
    nkt_trace::set_thread_dir(Some(dir.clone()));
    let calib = nkt_calib::Calibration::build("outdir", &[]).write();
    let prof = nkt_prof::Profile::build("outdir", &[]).write();
    nkt_trace::set_thread_dir(None);
    assert_eq!(calib.expect("write CALIB"), dir.join("CALIB_outdir.json"));
    assert_eq!(prof.expect("write PROF"), dir.join("PROF_outdir.json"));
    assert!(dir.join("CALIB_outdir.json").is_file() && dir.join("PROF_outdir.json").is_file());
    let _ = std::fs::remove_dir_all(&dir);
}
