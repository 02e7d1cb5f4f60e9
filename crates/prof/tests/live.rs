//! End-to-end profiler tests over a real `nkt-mpi` world.
//!
//! The trace mode and span collector are process-global, so every test
//! here serializes on one mutex and drains the collector before running
//! its own world.

use nkt_mpi::prelude::*;
use nkt_net::{cluster, NetId};
use nkt_prof::{from_threads, from_trace_json, Profile};
use nkt_trace::json::render;
use std::sync::Mutex;

static LIVE: Mutex<()> = Mutex::new(());

/// Runs `f` as a 4-rank world with span recording on and returns the
/// profile built from exactly that world's rank threads.
fn profile_world(run: &str, f: impl Fn(&mut nkt_mpi::Comm) + Sync) -> Profile {
    nkt_trace::set_mode(nkt_trace::TraceMode::Spans);
    let _ = nkt_trace::take_collected(); // drop older tests' leftovers
    World::builder().ranks(4).net(cluster(NetId::T3e)).run(|c| f(c));
    let threads = nkt_trace::take_collected();
    nkt_trace::set_mode(nkt_trace::TraceMode::Off);
    Profile::from_ranks(run, &from_threads(&threads))
}

/// A small step with an engineered hot spot: every rank works 1 ms in
/// `NonLinear`, rank 2 works 10 ms; then a barrier makes the others
/// wait, and a balanced `PressureSolve` follows. The stage spans cover
/// compute only — the barrier's wait belongs to the barrier op.
fn imbalanced_step(c: &mut nkt_mpi::Comm) {
    let s = nkt_trace::span_v("NonLinear", "stage", c.wtime());
    c.advance(if c.rank() == 2 { 10e-3 } else { 1e-3 });
    s.end_v(c.wtime());
    c.barrier();
    let s = nkt_trace::span_v("PressureSolve", "stage", c.wtime());
    c.advance(2e-3);
    s.end_v(c.wtime());
    let mut x = [c.rank() as f64];
    c.allreduce(&mut x, ReduceOp::Sum);
}

#[test]
fn profiler_names_the_engineered_hot_rank_and_stage() {
    let _g = LIVE.lock().unwrap_or_else(|e| e.into_inner());
    let p = profile_world("imbalance", imbalanced_step);
    assert_eq!(p.ranks, vec![0, 1, 2, 3]);

    // Load imbalance: NonLinear is dominated by rank 2 (its 10 ms of
    // work sits inside everyone's barrier window, so the ratio is
    // diluted toward max/mean of the whole stage — still well above a
    // balanced stage's ~1).
    let nl = p.stages.iter().find(|s| s.stage == "NonLinear").expect("NonLinear row");
    assert_eq!(p.ranks[nl.slowest_index()], 2, "per_rank: {:?}", nl.per_rank);
    assert!(nl.max >= 10e-3, "rank 2 worked 10 ms, max {}", nl.max);
    let ps = p.stages.iter().find(|s| s.stage == "PressureSolve").expect("PressureSolve row");
    assert!(
        nl.imbalance > 1.05 && nl.imbalance > ps.imbalance,
        "NonLinear imbalance {} should exceed balanced PressureSolve {}",
        nl.imbalance,
        ps.imbalance
    );

    // The engineered wait is real: ranks 0, 1, 3 idled ~9 ms each in
    // the barrier behind rank 2.
    assert!(p.total_wait() > 20e-3, "total wait {}", p.total_wait());
    assert!(p.wait_share() > 0.2, "wait share {}", p.wait_share());
    let barrier = p.ops.iter().find(|o| o.op == "barrier").expect("barrier op row");
    assert_eq!(barrier.calls, 4, "one barrier window per rank");
    assert!(barrier.wait > 20e-3, "barrier wait {}", barrier.wait);
    assert!(barrier.late > 0, "someone's sender was late");

    // Critical path: it must run through rank 2 (the hot rank) and its
    // composition must be dominated by NonLinear.
    assert!(p.critical_path.length >= 12e-3);
    assert!(
        p.critical_path.segments.iter().any(|s| s.rank == 2 && s.kind == "local"),
        "path avoids the hot rank: {:?}",
        p.critical_path.segments
    );
    let nl_time = p
        .critical_path
        .composition
        .iter()
        .find(|(l, _)| l == "NonLinear")
        .map(|&(_, t)| t)
        .unwrap_or(0.0);
    assert!(
        nl_time >= 0.5 * p.critical_path.length,
        "NonLinear {} of path {}; composition {:?}",
        nl_time,
        p.critical_path.length,
        p.critical_path.composition
    );

    // Comm matrix: the barrier + allreduce trees touched every rank.
    assert!(!p.matrix.is_empty());
    let sent: u64 = p.matrix.iter().map(|c| c.msgs).sum();
    assert!(sent >= 6, "tree collectives move messages, got {sent}");
}

#[test]
fn profile_json_is_byte_identical_across_identical_runs() {
    let _g = LIVE.lock().unwrap_or_else(|e| e.into_inner());
    let a = render(&profile_world("det", imbalanced_step).document());
    let b = render(&profile_world("det", imbalanced_step).document());
    assert_eq!(a, b, "virtual-time profile must be bit-reproducible");
    // And the document round-trips through the workspace JSON parser.
    let doc = nkt_trace::json::parse(&a).expect("PROF json parses");
    assert!(doc.get("critical_path").is_some());
}

/// Writer and reader agree: every gated row read back from the
/// production document equals the in-memory number it was written
/// from, so a writer change the extractor cannot see fails here instead
/// of silently un-gating a row.
#[test]
fn gates_round_trip_the_written_profile() {
    let _g = LIVE.lock().unwrap_or_else(|e| e.into_inner());
    let p = profile_world("gated", imbalanced_step);
    let mut want = vec![("wait_share".to_string(), p.wait_share())];
    want.extend(p.stages.iter().map(|s| (format!("imbalance[{}]", s.stage), s.imbalance)));
    assert!(want.len() >= 3 && p.wait_share() > 0.0, "the world must exercise every row kind");
    let gates = nkt_prof::gates(&render(&p.document())).expect("extract");
    let got: Vec<(String, f64)> = gates.into_iter().map(|g| (g.name, g.value)).collect();
    assert_eq!(got, want);
}

#[test]
fn offline_profile_from_trace_json_matches_in_process_analysis() {
    let _g = LIVE.lock().unwrap_or_else(|e| e.into_inner());
    nkt_trace::set_mode(nkt_trace::TraceMode::Spans);
    let _ = nkt_trace::take_collected();
    World::builder().ranks(4).net(cluster(NetId::T3e)).run(imbalanced_step);

    // Export the trace the same way a solver run would, then read it
    // back through the offline path.
    let dir = std::env::temp_dir().join(format!("nkt_prof_live_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    nkt_trace::set_dir(Some(dir.clone()));
    let path = nkt_trace::export("prof_offline").expect("trace export");
    nkt_trace::set_dir(None);
    nkt_trace::set_mode(nkt_trace::TraceMode::Off);

    let text = std::fs::read_to_string(&path).unwrap();
    let p = Profile::from_ranks("offline", &from_trace_json(&text).expect("offline parse"));
    assert_eq!(p.ranks, vec![0, 1, 2, 3]);
    let nl = p.stages.iter().find(|s| s.stage == "NonLinear").expect("NonLinear row");
    assert_eq!(p.ranks[nl.slowest_index()], 2);
    assert!(p.total_wait() > 20e-3);
    assert!(p.critical_path.length >= 12e-3);
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
}

/// TRACE has no committed baseline, so this is its guard: the offline
/// profile built from the rendered trace document equals the in-process
/// one — the same document bytes, and the host stage ledger bit
/// for bit (host `ts`/`dur` print at full precision like every number).
#[test]
fn offline_profile_of_the_rendered_trace_equals_the_in_process_profile() {
    let _g = LIVE.lock().unwrap_or_else(|e| e.into_inner());
    nkt_trace::set_mode(nkt_trace::TraceMode::Spans);
    let _ = nkt_trace::take_collected();
    World::builder().ranks(4).net(cluster(NetId::T3e)).run(imbalanced_step);
    let threads = nkt_trace::take_collected();
    nkt_trace::set_mode(nkt_trace::TraceMode::Off);

    let live = Profile::from_ranks("twin", &from_threads(&threads));
    let trace = render(&nkt_trace::export::trace_document(&threads));
    let offline = Profile::from_ranks("twin", &from_trace_json(&trace).expect("offline parse"));
    assert_eq!(render(&offline.document()), render(&live.document()));
    let bits = |p: &Profile| -> Vec<(String, Vec<u64>)> {
        let row = |(s, v): &(String, Vec<f64>)| (s.clone(), v.iter().map(|x| x.to_bits()).collect());
        p.stage_attrib.iter().map(row).collect()
    };
    assert!(!live.stage_attrib.is_empty());
    assert_eq!(bits(&offline), bits(&live));
}
