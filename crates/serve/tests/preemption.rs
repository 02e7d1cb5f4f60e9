//! The preemption contract, as properties: a job evicted at a
//! checkpoint epoch cut and later resumed by the scheduler finishes
//! **bitwise identical** to the same job served uninterrupted — same
//! FNV state hash, same `STATS_` bytes. The checkpoint cadence and the
//! intruder's arrival tick are drawn by `prop_check!`, so the property
//! covers evictions at the first cut, at late cuts, and the no-eviction
//! edge where the intruder arrives after the victim's last cut. A
//! second, fixed-batch test reruns one mixed schedule twice and asserts
//! every `MANIFEST_` is byte-identical across scheduler reruns; a third
//! pins the minimal eviction batch's schedule (ticks, evictions, queue
//! wait) exactly.

use nkt_net::NetId;
use nkt_serve::{serve, JobSpec, ServeConfig, SolverKind};
use nkt_testkit::{prop_assert, prop_assert_eq, prop_check};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn fresh_dir(label: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("nkt_serve_{label}_{}_{n}", std::process::id()))
}

const VICTIM_STEPS: u64 = 8;

/// The job that gets evicted: Fourier DNS, sampling every step so the
/// STATS artifact probes every step of the resumed trajectory.
fn victim(ckpt_every: usize) -> JobSpec {
    JobSpec {
        name: "victim".into(),
        tenant: "cfd".into(),
        solver: SolverKind::Fourier { nz: 4, pr: 2, pc: 1 },
        ranks: 2,
        net: NetId::RoadRunnerMyr,
        steps: VICTIM_STEPS,
        priority: 0,
        ckpt_every,
        stats_every: 1,
        submit_tick: 0,
    }
}

/// The high-priority latecomer that forces the eviction.
fn intruder(submit_tick: u64) -> JobSpec {
    JobSpec {
        name: "intruder".into(),
        tenant: "viz".into(),
        solver: SolverKind::Serial2d,
        ranks: 1,
        net: NetId::MusesLam,
        steps: 2,
        priority: 10,
        ckpt_every: 0,
        stats_every: 0,
        submit_tick,
    }
}

fn read_stats(dir: &std::path::Path, job: &str) -> String {
    let path = dir.join(format!("STATS_{job}.json"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

prop_check! {
    #![cases(6)]
    fn preempted_resume_is_bitwise_solo(every in 1usize..4, arrive in 1u64..4) {
        let root = fresh_dir("prop");
        let solo = serve(
            vec![victim(every)],
            &ServeConfig { root: root.join("solo"), max_worlds: 1, events: None },
        )
        .expect("solo serve");
        let mix = serve(
            vec![victim(every), intruder(arrive)],
            &ServeConfig { root: root.join("mix"), max_worlds: 1, events: None },
        )
        .expect("contended serve");

        // The victim parks at interior cuts every `every` steps — one
        // scheduler tick each. The intruder evicts it iff it arrives
        // while the victim is still parked at one of them.
        let interior_cuts = (VICTIM_STEPS - 1) / every as u64;
        if arrive < interior_cuts {
            prop_assert!(
                mix.preemptions >= 1,
                "intruder at tick {} should evict a victim with {} cuts",
                arrive,
                interior_cuts
            );
            prop_assert_eq!(mix.jobs[0].preemptions, mix.preemptions);
        }

        for report in solo.jobs.iter().chain(mix.jobs.iter()) {
            prop_assert!(
                report.finished(),
                "job {} failed: {:?}",
                report.name,
                report.error
            );
        }
        let (vs, vm) = (&solo.jobs[0], &mix.jobs[0]);
        let (rs, rm) = (vs.result.as_ref().unwrap(), vm.result.as_ref().unwrap());
        // Bitwise restart-equivalence end-to-end through the scheduler.
        prop_assert_eq!(rs.state_hash, rm.state_hash, "state hash drifted across preemption");
        prop_assert_eq!(rs.steps, rm.steps);
        prop_assert_eq!(rs.energy.to_bits(), rm.energy.to_bits());
        prop_assert_eq!(
            read_stats(&vs.dir, "victim"),
            read_stats(&vm.dir, "victim"),
            "STATS bytes drifted across preemption"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// The minimal eviction batch — a 4-step victim cutting every step and
/// a one-step high-priority intruder arriving at tick 1, one world slot
/// — has a schedule that is a pure function of the batch. Pinned
/// exactly: a different number here is a scheduler semantics change.
#[test]
fn two_job_eviction_schedule_is_pinned() {
    let root = fresh_dir("pinned");
    let batch = vec![
        JobSpec { steps: 4, stats_every: 0, ..victim(1) },
        JobSpec { steps: 1, ..intruder(1) },
    ];
    let rep = serve(batch, &ServeConfig { root: root.clone(), max_worlds: 1, events: None })
        .expect("pinned serve");
    assert!(rep.jobs.iter().all(|j| j.finished()), "both jobs must finish");
    let waited: u64 = rep.jobs.iter().map(|j| j.queue_wait_ticks).sum();
    assert_eq!((rep.ticks, rep.preemptions, waited), (5, 1, 2));
    let _ = std::fs::remove_dir_all(&root);
}

fn mixed_batch() -> Vec<JobSpec> {
    vec![
        JobSpec {
            name: "dns_slab".into(),
            tenant: "cfd".into(),
            solver: SolverKind::Fourier { nz: 4, pr: 2, pc: 1 },
            ranks: 2,
            net: NetId::RoadRunnerMyr,
            steps: 8,
            priority: 0,
            ckpt_every: 2,
            stats_every: 2,
            submit_tick: 0,
        },
        JobSpec {
            name: "wake".into(),
            tenant: "lab".into(),
            solver: SolverKind::Serial2d,
            ranks: 1,
            net: NetId::MusesMpich,
            steps: 10,
            priority: 0,
            ckpt_every: 2,
            stats_every: 5,
            submit_tick: 0,
        },
        JobSpec {
            name: "wing".into(),
            tenant: "cfd".into(),
            solver: SolverKind::Ale,
            ranks: 2,
            net: NetId::T3e,
            steps: 3,
            priority: 3,
            ckpt_every: 0,
            stats_every: 0,
            submit_tick: 1,
        },
    ]
}

/// Rerunning the same batch must reproduce every manifest bytewise: the
/// schedule (admissions, evictions, wait ticks) and every hashed
/// artifact are deterministic functions of the batch, not of host
/// thread timing. The batch is arranged so the high-priority ALE job
/// arrives with both slots full and genuinely evicts someone.
#[test]
fn rerun_manifests_are_byte_identical() {
    let root = fresh_dir("rerun");
    let cfg = |sub: &str| ServeConfig {
        root: root.join(sub),
        max_worlds: 2,
        events: Some("mixed".into()),
    };
    let first = serve(mixed_batch(), &cfg("one")).expect("first serve");
    let second = serve(mixed_batch(), &cfg("two")).expect("second serve");

    // The scheduler's decision timeline is itself a deterministic
    // artifact: byte-identical across reruns, renderable, and it
    // records the eviction (preempt then resume) the batch forces.
    let ea = std::fs::read_to_string(root.join("one").join("EVENTS_mixed.jsonl"))
        .expect("first events file");
    let eb = std::fs::read_to_string(root.join("two").join("EVENTS_mixed.jsonl"))
        .expect("second events file");
    assert_eq!(ea, eb, "EVENTS bytes differ across scheduler reruns");
    for tag in ["\"admit\"", "\"cut\"", "\"preempt\"", "\"resume\"", "\"complete\""] {
        assert!(ea.contains(tag), "timeline is missing a {tag} event:\n{ea}");
    }
    let rendered = nkt_serve::render_events(&ea).expect("timeline renders");
    assert!(rendered.contains("preempt"), "{rendered}");

    assert!(first.preemptions >= 1, "the ALE latecomer should evict a slot holder");
    assert_eq!(first.preemptions, second.preemptions);
    assert_eq!(first.ticks, second.ticks);
    for (a, b) in first.jobs.iter().zip(second.jobs.iter()) {
        assert!(a.finished(), "job {} failed: {:?}", a.name, a.error);
        let ma = std::fs::read(&a.manifest)
            .unwrap_or_else(|e| panic!("read {}: {e}", a.manifest.display()));
        let mb = std::fs::read(&b.manifest)
            .unwrap_or_else(|e| panic!("read {}: {e}", b.manifest.display()));
        assert_eq!(
            ma, mb,
            "manifest bytes for {} differ across scheduler reruns",
            a.name
        );
        // The manifest parses and reports what the scheduler reports.
        let doc = nkt_trace::json::parse(&String::from_utf8(ma).unwrap()).expect("manifest JSON");
        assert_eq!(doc.get("job").and_then(|v| v.as_str()), Some(a.name.as_str()));
        assert_eq!(
            doc.get("preemptions").and_then(|v| v.as_f64()),
            Some(a.preemptions as f64)
        );
        let hash = format!("{:016x}", a.result.as_ref().unwrap().state_hash);
        assert_eq!(doc.get("state_hash").and_then(|v| v.as_str()), Some(hash.as_str()));
    }
    let _ = std::fs::remove_dir_all(&root);
}
