//! A profile's per-stage host seconds (`Profile::stage_attrib`) agree
//! with the solvers' own `StageClock` ledgers to 1 %: both time the same
//! regions (`StageTimer` pairs a host timer with a stage span), and the
//! profile reads the spans.
//! A test binary of its own: the recording mode and the span collector
//! are process-wide.

use nektar::drive::{cases, drive, Plan};
use nektar::timers::{Stage, StageClock};
use nkt_ckpt::CkptConfig;
use nkt_mpi::World;
use nkt_net::{cluster, NetId};
use nkt_prof::{from_threads, Profile};
use nkt_trace::TraceMode;

/// Stages shorter than this are left out: a few microseconds between the
/// two clocks would be a large share of them.
const MIN_SECS: f64 = 1e-3;

#[test]
fn profile_stage_seconds_match_the_stage_clock_ledger() {
    let run = "stage_ledger";
    let plan = Plan {
        steps: 3,
        stats_every: 0,
        health: false,
        ckpt: CkptConfig::new(std::env::temp_dir(), run, None),
    };
    nkt_trace::set_mode(TraceMode::Spans);
    let _ = nkt_trace::take_collected();
    let clocks = World::builder().ranks(2).net(cluster(NetId::RoadRunnerEth)).run(|c| {
        let mut solver = cases::fourier(c, 8, None).expect("slab");
        drive(&mut solver, c, &plan, &mut ()).expect("a healthy run");
        solver.clock
    });
    nkt_trace::set_mode(TraceMode::Off);
    let profile = Profile::from_ranks(run, &from_threads(&nkt_trace::take_collected()));

    let mut ledger = StageClock::new();
    for clock in &clocks {
        ledger.merge(clock);
    }
    let mut checked = 0;
    for stage in Stage::ALL {
        let want = ledger.totals[stage.index()];
        if want <= MIN_SECS {
            continue;
        }
        // Summed over ranks; a stage the spans never saw reads 0.
        let got: f64 = profile
            .stage_attrib
            .iter()
            .find(|(name, _)| name == stage.name())
            .map_or(0.0, |(_, per_rank)| per_rank.iter().sum());
        let err = (got - want).abs() / want;
        assert!(err < 0.01, "{}: spans {got} s vs ledger {want} s", stage.name());
        checked += 1;
    }
    assert!(checked > 0, "no stage above {MIN_SECS} s: {:?}", ledger.totals);
}
