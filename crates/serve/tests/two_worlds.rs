//! World-isolation contract: two `World`s running **concurrently in one
//! process** must not share trace thread-state or tag space. Each world
//! tags its rank threads with a distinct scope (`WorldBuilder::
//! trace_scope`), runs a different DNS on a different net model with
//! interleaved steps, and the test asserts that everything observable —
//! per-rank state hashes, `STATS_` bytes, span inventories, counter
//! totals, and bitwise virtual-time sums — is identical to the same
//! world run solo. Any cross-world bleed (a span drained into the wrong
//! scope, a counter double-counted, a message routed across worlds)
//! breaks one of the equalities.

use nektar::fourier::{FourierConfig, NektarF};
use nektar::stats::{sample, FOURIER_CHANNELS};
use nkt_ckpt::Checkpointable;
use nkt_mesh::rect_quads;
use nkt_mpi::World;
use nkt_net::{cluster, NetId};
use nkt_stats::{RuleLimits, StatsRecorder};
use nkt_trace::{ThreadData, TraceMode};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

/// Scopes well clear of anything the serve scheduler might allocate.
fn scope() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1 << 40);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

fn init(x: [f64; 3]) -> [f64; 3] {
    let pi = std::f64::consts::PI;
    let (sx, cx) = (pi * x[0]).sin_cos();
    let (sy, cy) = (pi * x[1]).sin_cos();
    [
        2.0 * pi * sx * sx * sy * cy * (1.0 + 0.3 * x[2].cos()),
        -2.0 * pi * sx * cx * sy * sy * (1.0 + 0.3 * x[2].cos()),
        0.0,
    ]
}

/// One 2-rank Fourier DNS under `scope`: returns per-rank state hashes
/// and rank 0's in-memory `STATS_` bytes.
fn dns(scope: u64, net: NetId, nz: usize, steps: u64, run: &str) -> (Vec<u64>, String) {
    let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 3, 3);
    let cfg = FourierConfig {
        order: 4,
        dt: 1e-3,
        nu: 0.02,
        nz,
        lz: 2.0 * std::f64::consts::PI,
        scheme_order: 2,
    };
    let outs = World::from_env()
        .ranks(2)
        .net(cluster(net))
        .trace_scope(scope)
        .run(|c| {
            let mut s = NektarF::new(c, &mesh, cfg.clone());
            s.set_initial(init);
            let mut rec = StatsRecorder::new(FOURIER_CHANNELS.to_vec(), 1, c.size());
            let limits = RuleLimits::default();
            rec.rebaseline(c);
            for step in 1..=steps {
                s.step(c);
                sample(&mut s, c, &mut rec, step, &limits, false).expect("sample");
            }
            (s.state_hash(), (c.rank() == 0).then(|| nkt_trace::json::render(&rec.document(run))))
        });
    let hashes = outs.iter().map(|(h, _)| *h).collect();
    let stats = outs.into_iter().find_map(|(_, s)| s).expect("rank 0 stats");
    (hashes, stats)
}

/// Timing-free digest of one scope's trace data: per thread (sorted by
/// rank label), the span inventory with exact virtual-time sums, the
/// counter totals, and the histogram totals. Host timestamps are the
/// only thing excluded — everything else must reproduce bitwise.
type ThreadDigest = (String, Vec<(String, usize, u64)>, Vec<(String, u64)>);

fn digest(threads: &[ThreadData]) -> Vec<ThreadDigest> {
    let mut out: Vec<ThreadDigest> = threads
        .iter()
        .map(|t| {
            let mut spans: BTreeMap<String, (usize, f64)> = BTreeMap::new();
            for e in &t.events {
                let entry = spans.entry(format!("{}/{}", e.cat, e.name)).or_insert((0, 0.0));
                entry.0 += 1;
                if e.vt0.is_finite() && e.vt1.is_finite() {
                    entry.1 += e.vt1 - e.vt0;
                }
            }
            let mut counters: BTreeMap<String, u64> = BTreeMap::new();
            for (n, v) in &t.counters {
                *counters.entry(n.to_string()).or_insert(0) += v;
            }
            (
                t.name.clone().unwrap_or_default(),
                spans
                    .into_iter()
                    .map(|(k, (n, vt))| (k, n, vt.to_bits()))
                    .collect(),
                counters.into_iter().collect(),
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn concurrent_worlds_are_bitwise_equal_to_solo() {
    nkt_trace::set_mode(TraceMode::Spans);

    // Solo baselines, one world at a time.
    let (sa, sb) = (scope(), scope());
    let solo_a = dns(sa, NetId::RoadRunnerMyr, 4, 4, "wa");
    let dig_a_solo = digest(&nkt_trace::take_collected_for(sa));
    let solo_b = dns(sb, NetId::T3e, 8, 5, "wb");
    let dig_b_solo = digest(&nkt_trace::take_collected_for(sb));
    assert!(!dig_a_solo.is_empty(), "tracing must have recorded rank threads");

    // Same two worlds, concurrently: a barrier lines up their starts so
    // their rank threads genuinely interleave on the host cores.
    let (ca, cb) = (scope(), scope());
    let gate = Barrier::new(2);
    let (conc_a, conc_b) = std::thread::scope(|s| {
        let ga = &gate;
        let ha = s.spawn(move || {
            ga.wait();
            dns(ca, NetId::RoadRunnerMyr, 4, 4, "wa")
        });
        let hb = s.spawn(move || {
            ga.wait();
            dns(cb, NetId::T3e, 8, 5, "wb")
        });
        (ha.join().unwrap(), hb.join().unwrap())
    });
    let dig_a = digest(&nkt_trace::take_collected_for(ca));
    let dig_b = digest(&nkt_trace::take_collected_for(cb));

    // Physics: per-rank final state is bitwise the solo state.
    assert_eq!(conc_a.0, solo_a.0, "world A state hashes drifted under concurrency");
    assert_eq!(conc_b.0, solo_b.0, "world B state hashes drifted under concurrency");
    // Artifacts: STATS bytes identical to solo.
    assert_eq!(conc_a.1, solo_a.1, "world A STATS bytes drifted under concurrency");
    assert_eq!(conc_b.1, solo_b.1, "world B STATS bytes drifted under concurrency");
    // Observability: each scope drained exactly its own world's data.
    assert_eq!(dig_a, dig_a_solo, "world A trace digest drifted under concurrency");
    assert_eq!(dig_b, dig_b_solo, "world B trace digest drifted under concurrency");
    // The two worlds are genuinely different workloads — if scopes were
    // crossed, the digests could not both match their baselines.
    assert_ne!(dig_a, dig_b);
    // A scope, once drained, is empty: nothing leaked into it.
    assert!(nkt_trace::take_collected_for(ca).is_empty());
    assert!(nkt_trace::take_collected_for(cb).is_empty());
}
