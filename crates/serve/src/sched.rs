//! The deterministic job scheduler: admission control, fair-share
//! queueing, and checkpoint-backed preemption over concurrent virtual
//! clusters.
//!
//! ## Gang-scheduled ticks
//!
//! Wall-clock interleaving of concurrent worlds is nondeterministic, so
//! the scheduler never consults it. Time advances in **ticks**: every
//! running job owes the scheduler exactly one event per tick — either
//! `AtCut` (parked at a checkpoint epoch, awaiting a directive) or
//! `Exited` (finished, preempted, or failed). The scheduler blocks until
//! all events for the tick are in, then decides admissions, preemptions
//! and requeues while processing jobs in ascending job-id order. Every
//! decision is a pure function of (job specs, tick number, tenant
//! ledger), so two serves of the same batch make identical decisions no
//! matter how the host schedules the worker threads.
//!
//! ## Fair share and preemption
//!
//! Admission order: lowest tenant usage (rank-steps consumed) first,
//! then higher priority, then submission order — deterministic
//! tie-breaking all the way down. When every slot is full and an
//! eligible queued job has *strictly higher* priority than some running
//! job, the lowest-priority running job (newest admission on ties) is
//! told `Preempt` at its next epoch cut: it stops right after the epoch
//! lands on disk and goes back in the queue. The next slice restores
//! from that epoch bitwise — see `runner` for why eviction is invisible
//! in the job's artifacts.

use crate::events::EventLog;
use crate::runner::{self, JobCtx, JobOpts, JobResult};
use crate::spec::JobSpec;
use crate::store::Store;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};

/// Scheduler knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Serve root; each job gets `<root>/<job>/`.
    pub root: PathBuf,
    /// Cap on concurrently-running worlds (admission control).
    pub max_worlds: usize,
    /// When set, append the scheduler's decision timeline to
    /// `<root>/EVENTS_<run>.jsonl` (see [`crate::events`]). The file is
    /// byte-deterministic for a given batch.
    pub events: Option<String>,
}

/// Scheduler → worker verdict at an epoch cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Directive {
    Continue,
    Preempt,
}

/// Worker → scheduler, exactly one per running job per tick.
pub(crate) enum Event {
    /// Parked at an epoch cut after `step`, waiting for a [`Directive`].
    AtCut { job: usize, step: u64 },
    /// The slice ended; the worker thread is about to return.
    Exited { job: usize, exit: runner::SliceExit },
}

/// Batch-level failure (individual job failures land in [`JobReport`]).
#[derive(Debug)]
pub enum ServeError {
    NoJobs,
    ZeroWorlds,
    DuplicateName(String),
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::NoJobs => write!(f, "no jobs submitted"),
            ServeError::ZeroWorlds => write!(f, "max_worlds must be >= 1"),
            ServeError::DuplicateName(n) => write!(f, "duplicate job name {n:?}"),
            ServeError::Io(e) => write!(f, "serve root: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Per-job outcome, in submission order.
#[derive(Debug)]
pub struct JobReport {
    pub name: String,
    pub tenant: String,
    pub solver: &'static str,
    /// Final numbers; `None` when the job failed.
    pub result: Option<JobResult>,
    pub preemptions: u64,
    pub queue_wait_ticks: u64,
    /// The job's artifact directory.
    pub dir: PathBuf,
    /// `MANIFEST_<job>.json` (written only for finished jobs).
    pub manifest: PathBuf,
    pub error: Option<String>,
}

impl JobReport {
    pub fn finished(&self) -> bool {
        self.result.is_some()
    }
}

/// What a whole serve run produced.
#[derive(Debug)]
pub struct ServeReport {
    pub jobs: Vec<JobReport>,
    /// Ticks the scheduler advanced through.
    pub ticks: u64,
    /// Total evictions across the batch.
    pub preemptions: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JState {
    Queued,
    Running,
    Done,
    Failed,
}

/// Scheduler-side bookkeeping for one job.
struct Book {
    spec: JobSpec,
    state: JState,
    /// Index in the submitted batch — the final fair-share tie-break.
    submit_seq: usize,
    /// Trace scope tagging this job's threads, constant across slices.
    scope: u64,
    /// Whether the job directory was already wiped (first admission).
    started: bool,
    /// Steps completed as of the last slice exit.
    steps_done: u64,
    preemptions: u64,
    wait_ticks: u64,
    /// Monotone admission stamp; newest admission preempts first on ties.
    admit_seq: u64,
    dir_tx: Option<Sender<Directive>>,
    handle: Option<std::thread::JoinHandle<()>>,
    result: Option<JobResult>,
    error: Option<String>,
}

/// Process-wide scope allocator: every serve() call gets a fresh span of
/// scopes so concurrent batches in one process cannot collide.
static NEXT_SCOPE: AtomicU64 = AtomicU64::new(1);

enum Parked {
    AtCut { step: u64 },
    Exited(runner::SliceExit),
}

/// Runs a batch to completion. Blocks until every job is done or failed;
/// deterministic given (jobs, config) regardless of host thread timing.
/// [`serve_with`] under the default [`JobOpts`]: no profile, no
/// watchdog, no recv deadline.
pub fn serve(jobs: Vec<JobSpec>, cfg: &ServeConfig) -> Result<ServeReport, ServeError> {
    serve_with(jobs, cfg, JobOpts::default())
}

/// [`serve`], every job run under `opts`.
pub fn serve_with(
    jobs: Vec<JobSpec>,
    cfg: &ServeConfig,
    opts: JobOpts,
) -> Result<ServeReport, ServeError> {
    if jobs.is_empty() {
        return Err(ServeError::NoJobs);
    }
    if cfg.max_worlds == 0 {
        return Err(ServeError::ZeroWorlds);
    }
    for (i, a) in jobs.iter().enumerate() {
        if jobs[..i].iter().any(|b| b.name == a.name) {
            return Err(ServeError::DuplicateName(a.name.clone()));
        }
    }
    std::fs::create_dir_all(&cfg.root).map_err(ServeError::Io)?;
    let store = Store::new(cfg.root.clone());
    let mut elog: Option<EventLog> = match &cfg.events {
        Some(run) => Some(EventLog::create(&cfg.root, run).map_err(ServeError::Io)?),
        None => None,
    };

    // One scope per job plus one for the scheduler thread itself; the
    // caller's scope is restored on the way out.
    let n = jobs.len() as u64;
    let base = NEXT_SCOPE.fetch_add(n + 1, Ordering::Relaxed);
    nkt_trace::flush_thread();
    let caller_scope = nkt_trace::current_scope();
    nkt_trace::set_thread_scope(base);

    let mut books: Vec<Book> = jobs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| Book {
            spec,
            state: JState::Queued,
            submit_seq: i,
            scope: base + 1 + i as u64,
            started: false,
            steps_done: 0,
            preemptions: 0,
            wait_ticks: 0,
            admit_seq: 0,
            dir_tx: None,
            handle: None,
            result: None,
            error: None,
        })
        .collect();

    let (event_tx, event_rx) = channel::<Event>();
    let mut tick: u64 = 0;
    let mut admit_counter: u64 = 0;
    let mut usage: BTreeMap<String, u64> = BTreeMap::new();
    let mut total_preemptions: u64 = 0;
    // Events that arrived while waiting for specific victims to exit;
    // consumed before the channel at the next tick barrier.
    let mut carryover: Vec<Event> = Vec::new();

    loop {
        // --- Admission: fill free slots in fair-share order. ---
        let mut running: Vec<usize> = (0..books.len())
            .filter(|&i| books[i].state == JState::Running)
            .collect();
        while running.len() < cfg.max_worlds {
            let Some(j) = pick_next(&books, &usage, tick) else { break };
            admit(j, &mut books[j], &store, &event_tx, &mut admit_counter, opts);
            nkt_trace::counter_add("serve.admissions", 1);
            if let Some(log) = &mut elog {
                let b = &books[j];
                let tag = match b.state {
                    JState::Running if b.preemptions > 0 => "resume",
                    JState::Running => "admit",
                    _ => "fail",
                };
                let u = usage.get(&b.spec.tenant).copied().unwrap_or(0);
                log.record(tick, tag, &b.spec.name, &b.spec.tenant, b.steps_done, b.preemptions, u);
            }
            if books[j].state == JState::Running {
                running.push(j);
            }
        }
        running.sort_unstable();
        nkt_trace::gauge_set("serve.worlds.running", running.len() as f64);

        if books
            .iter()
            .all(|b| matches!(b.state, JState::Done | JState::Failed))
        {
            break;
        }

        if running.is_empty() {
            // Nothing running and nothing eligible: jump to the earliest
            // future submission. (Queued jobs must exist or we'd have
            // broken out above; they must be in the future or admission
            // would have taken one.)
            let next = books
                .iter()
                .filter(|b| b.state == JState::Queued)
                .map(|b| b.spec.submit_tick)
                .min()
                .expect("queued job exists when not all done");
            debug_assert!(next > tick);
            tick = next;
            continue;
        }

        // Eligible-but-queued jobs wait this tick out.
        for b in books.iter_mut() {
            if b.state == JState::Queued && b.spec.submit_tick <= tick {
                b.wait_ticks += 1;
                nkt_trace::counter_add("serve.queue.wait_ticks", 1);
            }
        }

        // --- Tick barrier: exactly one event per running job. ---
        let sp = nkt_trace::span("serve.tick", "serve");
        let mut status: BTreeMap<usize, Parked> = BTreeMap::new();
        while status.len() < running.len() {
            match next_event(&mut carryover, &event_rx) {
                Event::AtCut { job, step } => {
                    // Cuts only happen on new work: a slice's first cut
                    // is strictly past the epoch it restored from.
                    debug_assert!(step > books[job].steps_done);
                    status.insert(job, Parked::AtCut { step });
                }
                Event::Exited { job, exit } => {
                    status.insert(job, Parked::Exited(exit));
                }
            }
        }

        // --- Process exits (ascending job id via BTreeMap order). ---
        let mut parked: Vec<usize> = Vec::new();
        for (&j, st) in &status {
            if let Parked::AtCut { step } = st {
                parked.push(j);
                if let Some(log) = &mut elog {
                    let b = &books[j];
                    let u = usage.get(&b.spec.tenant).copied().unwrap_or(0);
                    log.record(tick, "cut", &b.spec.name, &b.spec.tenant, *step, b.preemptions, u);
                }
            }
        }
        for (j, st) in status {
            if let Parked::Exited(exit) = st {
                finalize(
                    j,
                    &mut books[j],
                    exit,
                    &mut usage,
                    &mut total_preemptions,
                    tick,
                    &mut elog,
                );
            }
        }

        // --- Preemption: does a queued job outrank a parked one? ---
        let mut victims: Vec<usize> = Vec::new();
        let mut free = cfg.max_worlds - parked.len();
        for q in fair_order(&books, &usage, tick) {
            if free > 0 {
                // A slot is (or just came) free — the queued job will be
                // admitted at the next tick without evicting anyone.
                free -= 1;
                continue;
            }
            let candidate = parked
                .iter()
                .copied()
                .filter(|v| !victims.contains(v))
                .filter(|&v| books[v].spec.priority < books[q].spec.priority)
                .min_by_key(|&v| (books[v].spec.priority, std::cmp::Reverse(books[v].admit_seq)));
            if let Some(v) = candidate {
                victims.push(v);
            }
        }
        victims.sort_unstable();

        // --- Release the parked jobs. ---
        for &j in &parked {
            let d = if victims.contains(&j) { Directive::Preempt } else { Directive::Continue };
            if let Some(tx) = &books[j].dir_tx {
                // A worker that died between AtCut and here surfaces as
                // an Exited event next tick; the lost send is harmless.
                let _ = tx.send(d);
            }
        }

        // --- Wait for every victim to actually vacate its slot. ---
        // A victim's Exited may already sit in `carryover` (stashed while
        // waiting on an earlier victim), so check there exactly once;
        // otherwise block on the channel. Non-victim events that race in
        // (a Continue'd job reaching its next cut, a finisher) are
        // stashed for the next tick barrier — crucially without being
        // re-examined here, or a single stashed event would make this
        // loop cycle the stash forever and never drain the channel.
        for &v in &victims {
            let stashed = carryover
                .iter()
                .position(|e| matches!(e, Event::Exited { job, .. } if *job == v));
            let exit = if let Some(p) = stashed {
                match carryover.remove(p) {
                    Event::Exited { exit, .. } => exit,
                    Event::AtCut { .. } => unreachable!("position matched Exited"),
                }
            } else {
                loop {
                    match event_rx
                        .recv()
                        .expect("worker closed its event channel without an Exited")
                    {
                        Event::Exited { job, exit } if job == v => break exit,
                        other => carryover.push(other),
                    }
                }
            };
            finalize(v, &mut books[v], exit, &mut usage, &mut total_preemptions, tick, &mut elog);
        }
        drop(sp);
        nkt_trace::counter_add("serve.ticks", 1);
        tick += 1;
    }

    nkt_trace::gauge_set("serve.worlds.running", 0.0);
    nkt_trace::flush_thread();
    nkt_trace::set_thread_scope(caller_scope);

    let jobs = books
        .into_iter()
        .map(|b| JobReport {
            name: b.spec.name.clone(),
            tenant: b.spec.tenant.clone(),
            solver: b.spec.solver.name(),
            result: b.result,
            preemptions: b.preemptions,
            queue_wait_ticks: b.wait_ticks,
            dir: store.job_dir(&b.spec.name),
            manifest: store.manifest_path(&b.spec.name),
            error: b.error,
        })
        .collect();
    Ok(ServeReport { jobs, ticks: tick, preemptions: total_preemptions })
}

/// Queued jobs eligible at `tick`, in fair-share order.
fn fair_order(books: &[Book], usage: &BTreeMap<String, u64>, tick: u64) -> Vec<usize> {
    let mut q: Vec<usize> = (0..books.len())
        .filter(|&i| books[i].state == JState::Queued && books[i].spec.submit_tick <= tick)
        .collect();
    q.sort_by_key(|&i| {
        let b = &books[i];
        (
            usage.get(&b.spec.tenant).copied().unwrap_or(0),
            std::cmp::Reverse(b.spec.priority),
            b.submit_seq,
        )
    });
    q
}

fn pick_next(books: &[Book], usage: &BTreeMap<String, u64>, tick: u64) -> Option<usize> {
    fair_order(books, usage, tick).first().copied()
}

/// Spawns the next slice of job `j` on its own worker thread. On an IO
/// failure preparing the job directory the job is marked failed instead
/// of admitted — it then owes the scheduler no events.
fn admit(
    j: usize,
    book: &mut Book,
    store: &Store,
    event_tx: &Sender<Event>,
    admit_counter: &mut u64,
    opts: JobOpts,
) {
    if !book.started {
        if let Err(e) = store.reset_job(&book.spec.name) {
            book.state = JState::Failed;
            book.error = Some(format!("prepare job dir: {e}"));
            nkt_trace::counter_add("serve.jobs.failed", 1);
            return;
        }
        book.started = true;
    }
    let (dtx, drx) = channel::<Directive>();
    let job = JobCtx {
        job_id: j,
        spec: book.spec.clone(),
        dir: store.job_dir(&book.spec.name),
        scope: book.scope,
        preemptions: book.preemptions,
        wait_ticks: book.wait_ticks,
        opts,
    };
    let event_tx = event_tx.clone();
    let handle = std::thread::Builder::new()
        .name(format!("serve:{}", book.spec.name))
        .spawn(move || runner::run_slice(job, event_tx, drx))
        .expect("spawn worker thread");
    book.dir_tx = Some(dtx);
    book.handle = Some(handle);
    book.admit_seq = *admit_counter;
    *admit_counter += 1;
    book.state = JState::Running;
}

/// Consumes a slice exit: joins the worker, settles the tenant ledger,
/// and moves the job to its next state (Done, requeued, or Failed).
#[allow(clippy::too_many_arguments)]
fn finalize(
    j: usize,
    book: &mut Book,
    exit: runner::SliceExit,
    usage: &mut BTreeMap<String, u64>,
    total_preemptions: &mut u64,
    tick: u64,
    elog: &mut Option<EventLog>,
) {
    if let Some(h) = book.handle.take() {
        let _ = h.join();
    }
    book.dir_tx = None;
    let charge = |usage: &mut BTreeMap<String, u64>, book: &Book, upto: u64| {
        let steps = upto.saturating_sub(book.steps_done);
        *usage.entry(book.spec.tenant.clone()).or_insert(0) += steps * book.spec.ranks as u64;
    };
    let tag = match exit {
        runner::SliceExit::Finished(res) => {
            charge(usage, book, res.steps);
            book.steps_done = res.steps;
            book.result = Some(res);
            book.state = JState::Done;
            nkt_trace::counter_add("serve.jobs.finished", 1);
            "complete"
        }
        runner::SliceExit::Preempted { step } => {
            charge(usage, book, step);
            book.steps_done = step;
            book.preemptions += 1;
            *total_preemptions += 1;
            book.state = JState::Queued;
            nkt_trace::counter_add("serve.preemptions", 1);
            "preempt"
        }
        runner::SliceExit::Failed(msg) => {
            book.error = Some(msg);
            book.state = JState::Failed;
            nkt_trace::counter_add("serve.jobs.failed", 1);
            "fail"
        }
    };
    if let Some(log) = elog {
        let u = usage.get(&book.spec.tenant).copied().unwrap_or(0);
        log.record(tick, tag, &book.spec.name, &book.spec.tenant, book.steps_done, book.preemptions, u);
    }
    let _ = j;
}

fn next_event(carryover: &mut Vec<Event>, rx: &Receiver<Event>) -> Event {
    if carryover.is_empty() {
        rx.recv().expect("worker closed its event channel without an Exited")
    } else {
        carryover.remove(0)
    }
}
