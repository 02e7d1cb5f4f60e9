//! The native runs behind the committed observer documents: each row of
//! [`crate::BASELINES`] is one [`Baseline`], a `cases::` problem on its
//! ranks and network, its step count and its observers, all as values.
//! [`write_all`] runs every row and writes its `PROF_`, `CALIB_` and
//! `STATS_` documents, all at one call site, and its `HASHES.txt` line.

use nektar::drive::{cases, drive, DriveError, Outcome, Plan, Serial};
use nkt_ckpt::{Checkpointable, CkptConfig};
use nkt_mpi::World;
use nkt_net::{cluster, NetId};
use nkt_trace::json::{self, Value};
use nkt_trace::TraceMode;
use std::io;
use std::path::Path;

/// The problem a row runs.
#[derive(Debug, Clone, Copy)]
pub enum Case {
    /// `cases::fourier(c, nz, grid)` on `ranks` ranks of `net` (`None`: slab).
    Fourier { net: NetId, ranks: usize, nz: usize, grid: Option<(usize, usize)> },
    /// `cases::wing(ranks)` on `net`.
    Wing { net: NetId, ranks: usize },
    /// `cases::wake(refine, order)`, serial.
    Wake { refine: usize, order: usize },
}

/// One baseline run.
#[derive(Debug, Clone, Copy)]
pub struct Baseline {
    /// Names its documents (`PROF_<run>.json`, ...) and labels its hash.
    pub run: &'static str,
    pub case: Case,
    pub steps: u64,
    /// Writes `PROF_<run>.json`.
    pub prof: bool,
    /// Writes `CALIB_<run>.json`, from the same span snapshot as the
    /// profile.
    pub calib: bool,
    /// Samples every this many steps into `STATS_<run>.json`; 0 = none.
    pub stats_every: u64,
}

/// Runs `b` in its recording mode and writes its documents into `dir`;
/// returns its state-hash line (the serial wake prints none). The drain
/// first keeps earlier spans out. A parallel row ends with the demos'
/// closing reads, printed: kinetic energy (and the wing's mesh volume)
/// are reductions, so its profile holds them.
pub fn run(b: &Baseline, dir: &Path) -> io::Result<Option<String>> {
    drop(nkt_trace::take_collected());
    let mode = nkt_trace::mode();
    // Spans for the profile and calibration, counters for the samples'
    // per-rank collective column.
    let spans = if b.prof || b.calib { TraceMode::Spans } else { TraceMode::Off };
    let counters = if b.stats_every > 0 { TraceMode::Counters } else { TraceMode::Off };
    nkt_trace::set_mode(spans.max(counters));
    let ckpt = CkptConfig::new(dir, b.run, None);
    let plan = Plan { steps: b.steps, stats_every: b.stats_every, health: false, ckpt };
    let healthy = |out: Result<Outcome, DriveError>| out.expect("a baseline run is healthy");
    let (out, hash) = match b.case {
        Case::Fourier { net, ranks, nz, grid } => {
            let world = World::builder().ranks(ranks).net(cluster(net)).run(|c| {
                let mut solver = cases::fourier(c, nz, grid).expect("a baseline grid fits");
                let out = healthy(drive(&mut solver, c, &plan, &mut ()));
                (out, solver.kinetic_energy(c), solver.state_hash())
            });
            let (out, energy, hash) = world.into_iter().next().expect("rank 0");
            println!("{}: kinetic energy {energy:.5}", b.run);
            (out, Some(format!("rank-0 state hash: {hash:016x}")))
        }
        Case::Wing { net, ranks } => {
            let case = cases::wing(ranks);
            let world = World::builder().ranks(ranks).net(cluster(net)).run(|c| {
                let mut solver = case.build(c);
                let out = healthy(drive(&mut solver, c, &plan, &mut ()));
                let read = (solver.kinetic_energy(c), solver.total_volume(c));
                (out, read, solver.state_hash())
            });
            // One run-level hash: the per-rank digests folded in rank order.
            let hash = world.iter().fold(0u64, |acc, (.., h)| acc.rotate_left(17) ^ h);
            let (out, (energy, volume), _) = world.into_iter().next().expect("rank 0");
            println!("{}: kinetic energy {energy:.4}, mesh volume {volume:.4}", b.run);
            (out, Some(format!("state hash {hash:016x}")))
        }
        Case::Wake { refine, order } => {
            let mut solver = cases::wake(refine, order);
            (healthy(drive(&mut solver, &mut Serial, &plan, &mut ())), None)
        }
    };
    nkt_trace::set_mode(mode);
    let mut docs = Vec::new();
    if b.stats_every > 0 {
        docs.push(("STATS", out.rec.document(b.run)));
    }
    docs.extend(analyse(b.run, b.prof, b.calib));
    for (kind, doc) in &docs {
        json::write(dir, &format!("{kind}_{}.json", b.run), doc)?;
    }
    Ok(hash)
}

/// After a traced run's world joined: its `PROF` and `CALIB` documents,
/// whichever are asked for, with their reports printed. Both fold one
/// analysis: the collector, which this empties, is drained once and
/// converted to rank timelines once.
pub fn analyse(run: &str, prof: bool, calib: bool) -> Vec<(&'static str, Value)> {
    let mut docs = Vec::new();
    if !prof && !calib {
        return docs;
    }
    let ranks = nkt_prof::from_threads(&nkt_trace::take_collected());
    if prof {
        let p = nkt_prof::Profile::from_ranks(run, &ranks);
        print!("{}", p.report());
        docs.push(("PROF", p.document()));
    }
    if calib {
        let c = nkt_prof::Calibration::from_ranks(run, &ranks);
        print!("{}", c.report());
        docs.push(("CALIB", c.document()));
    }
    docs
}

/// Runs every row of [`crate::BASELINES`] into `dir`, then writes
/// `HASHES.txt`: one `<run> | <hash line>` per run name, in row order.
/// Rows sharing a name must print the same hash: an observer never
/// moves the state.
pub fn write_all(dir: &Path) -> io::Result<()> {
    let mut hashes: Vec<(&str, String)> = Vec::new();
    for b in &crate::BASELINES {
        let Some(line) = run(b, dir)? else { continue };
        match hashes.iter().find(|(run, _)| *run == b.run) {
            Some((_, seen)) => assert_eq!(*seen, line, "{}: an observer moved the state", b.run),
            None => hashes.push((b.run, line)),
        }
    }
    let text: String = hashes.iter().map(|(run, line)| format!("{run} | {line}\n")).collect();
    std::fs::write(dir.join("HASHES.txt"), text)
}
