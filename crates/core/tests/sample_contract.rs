//! What one stats sample records, held bit for bit: every scalar channel
//! (`to_bits`), the spanwise spectrum and the per-rank MPI rows of a
//! warmed sample, for each solver's demo case — the serial wake, NekTar-F
//! on a 2-rank slab and on a 4×2 pencil, NekTar-ALE on the wing — as rows
//! of the pin ledger (`scripts/pins.txt`), recorded before the three
//! samplers became one protocol; a refactor of the sampler must not move
//! one bit of them. Beside them: what a warmed sample allocates (counted
//! by a `#[global_allocator]`), and the watchdog's finiteness scan on
//! NekTar-ALE.

mod common;

use common::{allocs_in, Counting};
use nektar::ale::NektarAle;
use nektar::drive::{cases, drive, Hook, Plan, Serial, Simulation};
use nektar::stats::{sample, sample_serial2d, ALE_CHANNELS, FOURIER_CHANNELS, SERIAL2D_CHANNELS};
use nkt_ckpt::{CkptConfig, Fnv1a};
use nkt_mpi::{Comm, World};
use nkt_net::{cluster, NetId};
use nkt_stats::{HealthError, RuleLimits, Sample, StatsRecorder};
use nkt_testkit::assert_pin;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// FNV-1a over the `{:?}` of `v`.
fn digest(v: &impl std::fmt::Debug) -> u64 {
    Fnv1a::digest(format!("{v:?}").as_bytes())
}

/// The last sample of a `steps`-step run sampled every step, watchdog
/// armed.
fn last_sample<S: Simulation>(sim: &mut S, ctx: &mut S::Ctx, steps: u64) -> Sample {
    let plan = Plan {
        steps,
        stats_every: 1,
        health: true,
        ckpt: CkptConfig::new(std::env::temp_dir(), "sample_contract", None),
    };
    let out = drive(sim, ctx, &plan, &mut ()).expect("a healthy run");
    out.rec.samples().last().expect("a sample").clone()
}

/// Rank 0's last sample of `build`'s run on `p` ranks (the MPI rows live
/// on rank 0 only).
fn root_sample<S: Simulation<Ctx = Comm>>(
    p: usize,
    build: impl Fn(&mut Comm) -> S + Sync,
    steps: u64,
) -> Sample {
    // Counters mode, so the recorder's collective-count column is live.
    nkt_trace::set_mode(nkt_trace::TraceMode::Counters);
    let samples = World::builder().ranks(p).net(cluster(NetId::RoadRunnerEth)).run(|c| {
        let mut sim = build(c);
        last_sample(&mut sim, c, steps)
    });
    for s in &samples[1..] {
        assert_eq!(s.scalars, samples[0].scalars, "the scalars are global");
        assert!(s.mpi.is_empty(), "the rows gather on rank 0");
    }
    samples[0].clone()
}

fn bits(s: &Sample) -> Vec<u64> {
    s.scalars.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn serial_wake_sample_is_pinned() {
    let s = last_sample(&mut cases::wake(1, 4), &mut Serial, 3);
    assert_eq!(s.step, 3);
    assert!(s.spectrum.is_empty() && s.mpi.is_empty());
    assert_pin("sample_contract/wake/scalars", &bits(&s));
}

#[test]
fn fourier_slab_sample_is_pinned() {
    let s = root_sample(2, |c| cases::fourier(c, 8, None).expect("a valid slab"), 3);
    assert_eq!(s.mpi.len(), 2);
    assert_pin("sample_contract/slab/scalars", &bits(&s));
    assert_pin("sample_contract/slab/spectrum", &[digest(&s.spectrum)]);
    assert_pin("sample_contract/slab/mpi", &[digest(&s.mpi)]);
}

#[test]
fn fourier_pencil_sample_is_pinned() {
    let s = root_sample(8, |c| cases::fourier(c, 8, Some((4, 2))).expect("a valid grid"), 3);
    assert_eq!(s.mpi.len(), 8);
    assert_pin("sample_contract/pencil/scalars", &bits(&s));
    assert_pin("sample_contract/pencil/spectrum", &[digest(&s.spectrum)]);
    assert_pin("sample_contract/pencil/mpi", &[digest(&s.mpi)]);
}

#[test]
fn ale_wing_sample_is_pinned() {
    let case = cases::wing(2);
    let s = root_sample(2, |c| case.build(c), 2);
    assert!(s.spectrum.is_empty());
    assert_eq!(s.mpi.len(), 2);
    assert_pin("sample_contract/wing/scalars", &bits(&s));
    assert_pin("sample_contract/wing/mpi", &[digest(&s.mpi)]);
}

/// A warmed serial sample allocates only the sample's own scalars (a
/// vector the recorder keeps) and, at most, the growth of the recorder's
/// sample list: the probe runs in the step's scratch.
#[test]
fn a_warmed_serial_sample_allocates_only_what_it_records() {
    let mut s = cases::wake(1, 4);
    s.step();
    let mut rec = StatsRecorder::new(SERIAL2D_CHANNELS.to_vec(), 1, 1);
    let limits = RuleLimits::default();
    sample_serial2d(&mut s, &mut rec, 1, &limits, true).expect("healthy");
    let n = allocs_in(|| sample_serial2d(&mut s, &mut rec, 2, &limits, true).expect("healthy"));
    assert!(n <= 2, "a warmed serial sample made {n} allocations");
}

/// A warmed NekTar-F sample on a 2-rank slab allocates what the recorder
/// keeps (scalars, spectrum, the MPI rows) and what its collectives'
/// message layer does — nothing a mode.
#[test]
fn a_warmed_fourier_sample_allocates_per_collective_not_per_mode() {
    nkt_trace::set_mode(nkt_trace::TraceMode::Counters);
    let counts = World::builder().ranks(2).net(cluster(NetId::RoadRunnerEth)).run(|c| {
        let mut s = cases::fourier(c, 8, None).expect("a valid slab");
        s.step(c);
        let mut rec = StatsRecorder::new(FOURIER_CHANNELS.to_vec(), 1, c.size());
        let limits = RuleLimits::default();
        rec.rebaseline(c);
        sample(&mut s, c, &mut rec, 1, &limits, true).expect("healthy");
        allocs_in(|| sample(&mut s, c, &mut rec, 2, &limits, true).expect("healthy"))
    });
    for (rank, n) in counts.into_iter().enumerate() {
        assert!(n <= 40, "rank {rank}: a warmed sample made {n} allocations");
    }
}

/// A warmed NekTar-ALE sample on the one-rank wing allocates only what
/// the recorder keeps: the scalars (one vector) and the MPI rows (four:
/// this rank's row, the gather's list and its copy of the row, the rows
/// kept); the sample list, four long after the first push, does not grow.
/// The velocity at the quadrature points goes through the step's
/// buffers, not a fresh history level.
#[test]
fn a_warmed_wing_sample_allocates_only_what_it_records() {
    nkt_trace::set_mode(nkt_trace::TraceMode::Counters);
    let case = cases::wing(1);
    let counts = World::builder().ranks(1).net(cluster(NetId::RoadRunnerEth)).run(|c| {
        let mut s = case.build(c);
        s.step(c);
        let mut rec = StatsRecorder::new(ALE_CHANNELS.to_vec(), 1, c.size());
        let limits = RuleLimits::default();
        rec.rebaseline(c);
        sample(&mut s, c, &mut rec, 1, &limits, true).expect("healthy");
        allocs_in(|| sample(&mut s, c, &mut rec, 2, &limits, true).expect("healthy"))
    });
    assert!(counts[0] <= 5, "a warmed wing sample made {} allocations", counts[0]);
}

/// Poisons rank 1's pressure after step 1.
struct PoisonP;

impl Hook<NektarAle> for PoisonP {
    fn stepped(&mut self, sim: &mut NektarAle, step: u64) {
        if step == 1 && sim.p.len() > 1 {
            sim.p[1] = f64::NAN;
        }
    }
}

#[test]
fn a_nan_in_ale_pressure_is_named_on_every_rank() {
    let case = cases::wing(2);
    let dir = std::env::temp_dir().join(format!("nkt_sample_contract_{}", std::process::id()));
    // Flight dumps of the trip land in `dir`, not in results/.
    let out = World::builder().ranks(2).net(cluster(NetId::T3e)).trace_dir(&dir).run(|c| {
        let mut sim = case.build(c);
        let plan = Plan {
            steps: 3,
            stats_every: 1,
            health: true,
            ckpt: CkptConfig::new(&dir, "ale_nan", None),
        };
        let poisoned = if c.rank() == 1 {
            drive(&mut sim, c, &plan, &mut PoisonP)
        } else {
            drive(&mut sim, c, &plan, &mut ())
        };
        let err = poisoned.expect_err("a NaN trips the scan");
        (c.rank(), *err.downcast::<HealthError>().expect("a watchdog trip is a HealthError"))
    });
    let _ = std::fs::remove_dir_all(&dir);
    let trip = HealthError::NonFinite { step: 1, rank: 1, field: "p" };
    assert_eq!(out, vec![(0, trip.clone()), (1, trip)]);
}
