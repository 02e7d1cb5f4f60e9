//! Critical-path and attribution contracts on hand-built span sets,
//! where every expected number is known in closed form.

use nkt_prof::{from_threads, Profile};
use nkt_trace::json::render;
use nkt_trace::{SpanEvent, ThreadData};

/// The profile of in-process thread data.
fn profile(run: &str, threads: &[ThreadData]) -> Profile {
    Profile::from_ranks(run, &from_threads(threads))
}

fn vspan(
    name: &'static str,
    cat: &'static str,
    vt0: f64,
    vt1: f64,
    args: &[(&'static str, f64)],
) -> SpanEvent {
    SpanEvent {
        name,
        cat,
        ts_us: f64::NAN,
        dur_us: f64::NAN,
        vt0,
        vt1,
        depth: 0,
        args: args.to_vec(),
    }
}

fn rank_thread(tid: u64, rank: usize, events: Vec<SpanEvent>) -> ThreadData {
    ThreadData {
        tid,
        scope: 0,
        rank: Some(rank),
        name: Some(format!("rank {rank}")),
        events,
        counters: Vec::new(),
        gauges: Vec::new(),
        hists: Vec::new(),
    }
}

/// Two ranks, one message, **late sender**: rank 0 computes for 1.0 s
/// before sending; rank 1 posts its receive at t = 0 and idles until the
/// message lands at t = 1.5. The wait belongs to the receiver's ledger,
/// but the critical path must route *through the sender* — rank 1's idle
/// time was caused by rank 0's compute.
fn late_sender_world() -> Vec<ThreadData> {
    let r0 = rank_thread(
        1,
        0,
        vec![
            vspan("NonLinear", "stage", 0.0, 1.0, &[]),
            vspan(
                "p2p",
                "mpi.p2p.send",
                1.0,
                1.001,
                &[("peer", 1.0), ("bytes", 24.0), ("seq", 0.0), ("tag", 7.0), ("arrival", 1.5)],
            ),
        ],
    );
    let r1 = rank_thread(
        2,
        1,
        vec![
            vspan(
                "p2p",
                "mpi.p2p.recv",
                0.0,
                1.6,
                &[
                    ("peer", 0.0),
                    ("bytes", 24.0),
                    ("seq", 0.0),
                    ("tag", 7.0),
                    ("wait", 1.5),
                    ("late", 1.0),
                    ("arrival", 1.5),
                    ("posted", 0.0),
                ],
            ),
            vspan("Project", "stage", 1.6, 2.0, &[]),
        ],
    );
    vec![r0, r1]
}

#[test]
fn late_sender_wait_is_attributed_to_the_receiver() {
    let p = profile("ls", &late_sender_world());
    let op = p.ops.iter().find(|o| o.op == "p2p").expect("p2p op row");
    assert_eq!(op.sends, 1);
    assert_eq!(op.recvs, 1);
    assert_eq!(op.late, 1, "the one message had a late sender");
    assert!((op.wait - 1.5).abs() < 1e-12, "receiver idled 1.5 s, got {}", op.wait);
    // Wire latency = arrival − sender completion = 1.5 − 1.001.
    assert!((op.wire - 0.499).abs() < 1e-12, "wire {}", op.wire);
    assert_eq!(op.send_bytes, 24);
}

#[test]
fn late_sender_path_routes_through_the_sender() {
    let p = profile("ls", &late_sender_world());
    let cp = &p.critical_path;
    assert_eq!(cp.end_rank, 1, "rank 1 finishes last");
    assert!((cp.length - 2.0).abs() < 1e-12);
    // Walk order: rank 1 local tail, the wire hop, rank 0's history.
    assert_eq!(cp.segments.len(), 3, "segments: {:?}", cp.segments);
    let tail = &cp.segments[0];
    assert_eq!((tail.rank, tail.kind), (1, "local"));
    // Local path time resumes at the arrival (1.5): the receive-protocol
    // window counts as work on rank 1, only [0, 1.5] was idle.
    assert!((tail.t0 - 1.5).abs() < 1e-12 && (tail.t1 - 2.0).abs() < 1e-12);
    let wire = &cp.segments[1];
    assert_eq!((wire.rank, wire.kind, wire.from), (1, "wire", Some(0)));
    assert!((wire.t0 - 1.001).abs() < 1e-12 && (wire.t1 - 1.5).abs() < 1e-12);
    let head = &cp.segments[2];
    assert_eq!((head.rank, head.kind), (0, "local"));
    assert!(head.t0 == 0.0 && (head.t1 - 1.001).abs() < 1e-12);
    // Composition: the sender's compute dominates; the receiver's idle
    // window never appears as local path time.
    let get = |label: &str| {
        cp.composition.iter().find(|(l, _)| l == label).map(|&(_, t)| t).unwrap_or(0.0)
    };
    assert!((get("NonLinear") - 1.0).abs() < 1e-12);
    assert!((get("Project") - 0.4).abs() < 1e-12);
    assert!((get("wire") - 0.499).abs() < 1e-12);
    // Protocol time: 0.001 send window + 0.1 receive window after arrival.
    assert!((get("p2p") - 0.101).abs() < 1e-12, "p2p protocol windows");
    let total: f64 = cp.composition.iter().map(|&(_, t)| t).sum();
    assert!((total - cp.length).abs() < 1e-9, "composition covers the path");
}

/// Same topology but a **late receiver**: the message is already there
/// (arrival 0.2) when rank 1 finally posts the receive at t = 1.6 after
/// its own compute. No wait → no happens-before gate → the path never
/// leaves the slow rank.
#[test]
fn late_receiver_keeps_the_path_local() {
    let r0 = rank_thread(
        1,
        0,
        vec![vspan(
            "p2p",
            "mpi.p2p.send",
            0.1,
            0.101,
            &[("peer", 1.0), ("bytes", 24.0), ("seq", 0.0), ("tag", 7.0), ("arrival", 0.2)],
        )],
    );
    let r1 = rank_thread(
        2,
        1,
        vec![
            vspan("NonLinear", "stage", 0.0, 1.6, &[]),
            vspan(
                "p2p",
                "mpi.p2p.recv",
                1.6,
                1.7,
                &[
                    ("peer", 0.0),
                    ("bytes", 24.0),
                    ("seq", 0.0),
                    ("tag", 7.0),
                    ("wait", 0.0),
                    ("late", 0.0),
                    ("arrival", 0.2),
                    ("posted", 1.6),
                ],
            ),
        ],
    );
    let p = profile("lr", &[r0, r1]);
    let op = p.ops.iter().find(|o| o.op == "p2p").unwrap();
    assert_eq!(op.late, 0);
    assert_eq!(op.wait, 0.0);
    let cp = &p.critical_path;
    assert_eq!(cp.end_rank, 1);
    assert_eq!(cp.segments.len(), 1, "no gate, single local segment: {:?}", cp.segments);
    assert_eq!(cp.segments[0].kind, "local");
    assert_eq!(cp.segments[0].rank, 1);
}

#[test]
fn comm_matrix_and_stage_stats_from_hand_built_spans() {
    let p = profile("m", &late_sender_world());
    assert_eq!(p.matrix.len(), 1);
    let c = p.matrix[0];
    assert_eq!((c.src, c.dst, c.msgs, c.bytes), (0, 1, 1, 24));
    // Stage stats: NonLinear ran only on rank 0, Project only on rank 1.
    let nl = p.stages.iter().find(|s| s.stage == "NonLinear").unwrap();
    assert_eq!(nl.per_rank, vec![1.0, 0.0]);
    assert_eq!(nl.max, 1.0);
    assert_eq!(nl.imbalance, 2.0, "max/mean with one idle rank");
    assert_eq!(p.ranks[nl.slowest_index()], 0);
    let pr = p.stages.iter().find(|s| s.stage == "Project").unwrap();
    assert_eq!(p.ranks[pr.slowest_index()], 1);
}

#[test]
fn profile_json_is_stable_and_parses() {
    let p = profile("j", &late_sender_world());
    let a = render(&p.document());
    let b = render(&profile("j", &late_sender_world()).document());
    assert_eq!(a, b, "same input, byte-identical document");
    let doc = nkt_trace::json::parse(&a).expect("profile json parses");
    assert_eq!(
        doc.get("schema").and_then(nkt_trace::json::Value::as_str),
        Some("nkt-prof-1")
    );
    assert_eq!(doc.get("ranks").and_then(nkt_trace::json::Value::as_f64), Some(2.0));
    let wait = doc.get("total_wait").and_then(nkt_trace::json::Value::as_f64).unwrap();
    assert!((wait - 1.5).abs() < 1e-12);
}
