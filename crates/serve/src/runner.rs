//! Executes one scheduling *slice* of a job: spin up the job's virtual
//! cluster, restore from the newest checkpoint epoch if one exists, step
//! until the budget is spent or the scheduler preempts at an epoch cut,
//! and (on finish) write the job's `STATS_`, `TRACE_` and `PROF_`
//! artifacts and the manifest that inventories what was written.
//!
//! ## Preemption protocol (worker side)
//!
//! The step loop is `nektar::drive::drive`; this module only supplies
//! its [`Hook`]. At every checkpoint cut rank 0 exchanges with the
//! scheduler: `Event::AtCut` out, one [`Directive`] back, broadcast to
//! the peer ranks as a single f64 over the job's own net model. `drive`
//! calls the hook *inside* its fold/rebaseline bracket, so the engine
//! round-trip is excluded from the stats MPI ledger — a
//! preempted-and-resumed run and an uninterrupted run perform
//! byte-identical sampling. `Preempt` stops the loop right after the
//! epoch landed: the on-disk state is exactly the state the next slice
//! restores, which is what makes eviction bitwise invisible.
//!
//! The final step never cuts (the `drive` cut rule), so the scheduler
//! sees exactly one event per running job per tick.

use crate::sched::{Directive, Event};
use crate::spec::{JobSpec, SolverKind};
use crate::store::{manifest_document, ArtifactEntry, ManifestData};
use nektar::drive::{cases, drive, Ctx, Hook, Plan, Serial, Simulation};
use nkt_ckpt::CkptConfig;
use nkt_mpi::{Comm, World, WorldOpts};
use nkt_net::cluster;
use nkt_stats::StatsRecorder;
use nkt_trace::json;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Mutex;
use std::time::Duration;

/// Final numbers a finished job reports back through the scheduler.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// FNV hash of the full solver state at the final step.
    pub state_hash: u64,
    /// Steps executed (== the spec's budget).
    pub steps: u64,
    /// Final kinetic energy — a physical smoke value for callers.
    pub energy: f64,
}

/// What every job of a batch runs with beyond its [`JobSpec`]; a binary
/// fills it from its `RunConfig` for [`crate::serve_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct JobOpts {
    /// Write `PROF_<job>.json` (`NKT_PROF`; built from the job's spans,
    /// which `RunConfig::trace_mode` makes sure are recorded).
    pub profile: bool,
    /// Arm the watchdog at every stats sample (`NKT_HEALTH`).
    pub health: bool,
    /// `WorldOpts::recv_deadline` of the job's world (`NKT_MPI_DEADLINE_MS`).
    pub recv_deadline: Option<Duration>,
}

/// How a slice ended.
#[derive(Debug)]
pub(crate) enum SliceExit {
    Finished(JobResult),
    /// Evicted at the epoch cut after `step`; state is on disk.
    Preempted { step: u64 },
    Failed(String),
}

/// A job's identity and bookkeeping, as one slice of it needs them.
pub(crate) struct JobCtx {
    pub job_id: usize,
    pub spec: JobSpec,
    /// Per-job artifact directory.
    pub dir: PathBuf,
    /// Trace scope tagging this job's rank threads; constant across
    /// slices so preempted spans and the finishing slice drain together.
    pub scope: u64,
    /// Preemptions suffered so far (manifest bookkeeping).
    pub preemptions: u64,
    /// Eligible-but-queued ticks so far (manifest bookkeeping).
    pub wait_ticks: u64,
    pub opts: JobOpts,
}

/// Worker-thread entry point: runs the slice, exports per-job
/// trace/profile artifacts and the manifest on finish, and always sends
/// exactly one `Event::Exited` — even if the world panicked.
pub(crate) fn run_slice(jc: JobCtx, event_tx: Sender<Event>, directive_rx: Receiver<Directive>) {
    // The worker thread itself records under the job's identity too:
    // spans emitted here (artifact export) belong to the job, and any
    // flight dump from a failure lands in the job's directory.
    nkt_trace::set_thread_scope(jc.scope);
    nkt_trace::set_thread_dir(Some(jc.dir.clone()));
    nkt_trace::flight::set_thread_run(Some(&jc.spec.name));
    // The rank closures must be `Sync`; a `Receiver` is not.
    let link = Mutex::new((event_tx.clone(), directive_rx));
    let end = catch_unwind(AssertUnwindSafe(|| run_job(&jc, &link))).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "<non-string panic>".to_string());
        Err(format!("world panicked: {msg}"))
    });
    let exit = match end {
        Ok((Some(step), ..)) => SliceExit::Preempted { step },
        Err(e) => {
            export_job_observability(&jc);
            SliceExit::Failed(e)
        }
        Ok((None, result, mut artifacts)) => {
            // The manifest inventories what was written: rank 0's files,
            // then whatever the export landed.
            artifacts.extend(export_job_observability(&jc));
            let m = ManifestData {
                spec: &jc.spec,
                machine: nkt_machine::MachineId::hosting(jc.spec.net).name(),
                state_hash: result.state_hash,
                steps_done: result.steps,
                preemptions: jc.preemptions,
                queue_wait_ticks: jc.wait_ticks,
                artifacts,
            };
            let file = format!("MANIFEST_{}.json", jc.spec.name);
            match json::write(&jc.dir, &file, &manifest_document(&m)) {
                Ok(_) => SliceExit::Finished(result),
                Err(e) => SliceExit::Failed(format!("write manifest: {e}")),
            }
        }
    };
    // The scheduler owns the receiver for the whole batch; a send can
    // only fail if serve() itself already bailed out.
    let _ = event_tx.send(Event::Exited { job: jc.job_id, exit });
}

/// Per-rank end state of a slice — the cut it was preempted at, if any,
/// the solver's final numbers, and (rank 0 of a finished job) the
/// artifacts written inside the world; only rank 0's copy is consulted.
type RankEnd = (Option<u64>, JobResult, Vec<ArtifactEntry>);

type Link = Mutex<(Sender<Event>, Receiver<Directive>)>;

/// The scheduler's seat in the drive loop. At each cut rank 0 asks the
/// scheduler whether to continue past this epoch; the verdict rides to
/// the peers as one f64 over the job's own net. A vanished scheduler
/// reads as `Preempt`: the epoch just landed, so stopping here is
/// always safe.
struct AtCut<'a> {
    job: usize,
    link: &'a Link,
}

impl<S: Simulation> Hook<S> for AtCut<'_> {
    fn cut(&mut self, c: &mut S::Ctx, step: u64) -> ControlFlow<()> {
        let mut cont = [1.0f64];
        if c.rank() == 0 {
            let sp = nkt_trace::span("serve.cut", "serve");
            let l = self.link.lock().expect("no rank panics while holding the scheduler link");
            cont[0] = if l.0.send(Event::AtCut { job: self.job, step }).is_ok() {
                match l.1.recv() {
                    Ok(Directive::Continue) => 1.0,
                    Ok(Directive::Preempt) | Err(_) => 0.0,
                }
            } else {
                0.0
            };
            drop(l);
            drop(sp);
        }
        if let Some(c) = c.comm() {
            c.bcast(0, &mut cont);
        }
        if cont[0] >= 1.0 {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    }
}

/// Builds the job's demo problem from the `cases` catalog and runs one
/// slice of it: on the job's own virtual cluster for the parallel
/// solvers, on this worker thread for the serial one.
fn run_job(jc: &JobCtx, link: &Link) -> Result<RankEnd, String> {
    let spec = &jc.spec;
    match spec.solver {
        SolverKind::Fourier { nz, pr, pc } => run_world(jc, link, |c| {
            cases::fourier(c, nz, Some((pr, pc))).map_err(|e| e.to_string())
        }),
        SolverKind::Serial2d => {
            // Name the worker thread so its spans read like a one-rank
            // world in the per-job timeline.
            nkt_trace::set_thread_meta(format!("{} rank 0", spec.name), Some(0));
            run_rank(jc, link, cases::wake(1, 4), &mut Serial)
        }
        SolverKind::Ale => {
            let case = cases::wing(spec.ranks);
            run_world(jc, link, |c| Ok(case.build(c)))
        }
    }
}

fn run_world<S: Simulation<Ctx = Comm>>(
    jc: &JobCtx,
    link: &Link,
    build: impl Fn(&mut Comm) -> Result<S, String> + Sync,
) -> Result<RankEnd, String> {
    let outs = World::builder()
        .opts(WorldOpts { recv_deadline: jc.opts.recv_deadline })
        .ranks(jc.spec.ranks)
        .net(cluster(jc.spec.net))
        .trace_scope(jc.scope)
        .trace_dir(jc.dir.clone())
        .flight_run(jc.spec.name.clone())
        .run(|c| run_rank(jc, link, build(c)?, c));
    // Errors are collective in this codebase (samplers and checkpoint
    // writes return the same typed error on every rank), so rank 0
    // speaks for the world.
    outs.into_iter().next().expect("world returned no ranks")
}

/// One rank's slice: drive to the budget or to a preempting cut; on
/// finish rank 0 writes the job's artifacts.
fn run_rank<S: Simulation>(
    jc: &JobCtx,
    link: &Link,
    mut sim: S,
    ctx: &mut S::Ctx,
) -> Result<RankEnd, String> {
    let spec = &jc.spec;
    let every = (spec.ckpt_every > 0).then_some(spec.ckpt_every);
    let plan = Plan {
        steps: spec.steps,
        stats_every: spec.stats_every,
        health: jc.opts.health,
        ckpt: CkptConfig::new(jc.dir.clone(), &spec.name, every),
    };
    let out = drive(&mut sim, ctx, &plan, &mut AtCut { job: jc.job_id, link })
        .map_err(|e| e.to_string())?;
    let result = JobResult {
        state_hash: sim.state_hash(),
        steps: sim.ckpt_step(),
        energy: sim.kinetic_energy(ctx),
    };
    let artifacts = if out.stopped_at.is_none() && ctx.rank() == 0 {
        finish_rank0(jc, &out.rec, &plan.ckpt)?
    } else {
        Vec::new()
    };
    Ok((out.stopped_at, result, artifacts))
}

/// Rank 0's finishing duties inside the world: the STATS artifact (when
/// sampling). Returns its manifest entry and the checkpoint epochs'.
fn finish_rank0(
    jc: &JobCtx,
    rec: &StatsRecorder,
    ckpt: &CkptConfig,
) -> Result<Vec<ArtifactEntry>, String> {
    let spec = &jc.spec;
    let mut artifacts = Vec::new();
    if spec.stats_every > 0 {
        let name = format!("STATS_{}.json", spec.name);
        let (_, body) = json::write(&jc.dir, &name, &rec.document(&spec.name))
            .map_err(|e| format!("write {e}"))?;
        artifacts.push(ArtifactEntry::hashed(name, body.as_bytes()));
    }
    if ckpt.enabled() {
        let mut epochs = ckpt.list_epochs();
        epochs.sort_unstable();
        for e in epochs {
            let shards = (0..spec.ranks).map(|r| ckpt.shard_path(e, r));
            for path in shards.chain([ckpt.manifest_path(e)]) {
                let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
                artifacts.push(
                    ArtifactEntry::hashed_file(&jc.dir, name.unwrap_or_default())
                        .map_err(|err| format!("hash {}: {err}", path.display()))?,
                );
            }
        }
    }
    Ok(artifacts)
}

/// Drains the job's scope from the trace collector and writes the
/// per-job `TRACE_` (recording mode `Spans`) and `PROF_`
/// ([`JobOpts::profile`]) artifacts, returning a manifest entry for each
/// file that landed. Runs on the worker thread after the world joined,
/// so every rank's buffer — including ones parked there by preempted
/// slices — is in.
fn export_job_observability(jc: &JobCtx) -> Vec<ArtifactEntry> {
    let mut written = Vec::new();
    let tracing = nkt_trace::mode() == nkt_trace::TraceMode::Spans;
    if !tracing && !jc.opts.profile {
        return written;
    }
    let threads = nkt_trace::take_collected_for(jc.scope);
    if threads.is_empty() {
        return written;
    }
    let mut emit = |kind: &str, doc: json::Value| {
        let name = format!("{kind}_{}.json", jc.spec.name);
        match json::write(&jc.dir, &name, &doc) {
            Ok(_) => written.push(ArtifactEntry::named(name)),
            Err(e) => eprintln!("serve: cannot write {e}"),
        }
    };
    if tracing {
        emit("TRACE", nkt_trace::export::trace_document(&threads));
    }
    if jc.opts.profile {
        let ranks = nkt_prof::from_threads(&threads);
        emit("PROF", nkt_prof::Profile::from_ranks(&jc.spec.name, &ranks).document());
    }
    written
}
