//! The step-indexed time-series recorder behind `STATS_<run>.json`.
//!
//! ## Determinism contract
//!
//! Every number in a sample is either (a) a physics scalar computed by
//! deterministic collectives over deterministic state — bitwise stable
//! across reruns — or (b) an exact integer MPI traffic counter. Host
//! wall time never enters, so `STATS_<run>.json` is **byte-identical**
//! across reruns of the same seeded simulation.
//!
//! ## Restart identity
//!
//! The recorder's own sampling traffic (a gather, the probe collectives)
//! must not leak into the MPI counter columns: an uninterrupted run
//! samples N times before step s, a restarted run fewer — their raw
//! counters differ even though the *solver's* traffic is identical. The
//! recorder therefore keeps its own cumulative ledger (`cum`) and a raw
//! baseline (`raw_last`), and the sampling protocol is strict:
//!
//! 1. [`StatsRecorder::fold`] — fold `raw_now - raw_last` (pure solver
//!    traffic) into `cum`;
//! 2. sampling communication (counter gather, physics probes);
//! 3. [`StatsRecorder::push`] the sample;
//! 4. [`StatsRecorder::rebaseline`] — reset `raw_last` past the
//!    sampler's own traffic.
//!
//! Checkpoints bracket the same way: `fold` before `write_epoch`,
//! `rebaseline` after write or restore, so the checkpoint protocol's
//! collectives are excluded in both the interrupted and uninterrupted
//! timelines. `raw_last` itself is deliberately **not** checkpointed —
//! it is meaningless in a new process; restore re-baselines instead.

use crate::accum::ChannelAccum;
use nkt_ckpt::{Checkpointable, CkptError, CkptFile, CkptWriter, Enc};
use nkt_mpi::prelude::*;
use nkt_trace::gate::{parse_schema, Gate, Sense};
use nkt_trace::json::Value;

/// Schema tag written into every `STATS_<run>.json`.
pub const SCHEMA: &str = "nkt-stats-1";

/// Band of the gated channel means: 1e-12 absolute + 5 %, two-sided —
/// a physics mean has no better direction.
const MEAN_BAND: (f64, f64) = (1e-12, 0.05);

/// Reads the gated rows back out of a `STATS_<run>.json`. The sample
/// count and the final cumulative sent-bytes total (summed over the
/// last sample's rank rows) must reproduce exactly — a different
/// cadence is a different experiment, and MPI counters are integers on
/// the virtual timeline, so any change means the communication schedule
/// changed. Each channel's accumulated mean is the physics drift row.
pub fn gates(text: &str) -> Result<Vec<Gate>, String> {
    let doc = parse_schema(text, SCHEMA)?;
    let samples = doc.req_arr("samples")?;
    let sent_bytes = match samples.last() {
        None => 0.0,
        // (fold, not sum: an empty f64 sum is -0.0)
        Some(s) => s
            .req_arr("mpi")?
            .iter()
            .filter_map(|row| row.as_arr()?.get(1)?.as_f64())
            .fold(0.0, |total, bytes| total + bytes),
    };
    let mut rows = vec![
        Gate::exact("samples", samples.len() as f64),
        Gate::exact("sent_bytes[final]", sent_bytes),
    ];
    let accum = doc.get("accum").and_then(Value::as_obj).ok_or("no object \"accum\"")?;
    let (abs, rel) = MEAN_BAND;
    for (channel, a) in accum {
        let mean = a.req_f64("mean").map_err(|e| format!("channel {channel}: {e}"))?;
        rows.push(Gate::new(format!("mean[{channel}]"), mean, Sense::Either, abs, rel));
    }
    Ok(rows)
}

/// Columns of one per-rank MPI traffic row, in order: messages sent,
/// bytes sent, messages received, bytes received, collective
/// invocations.
pub const MPI_COLS: usize = 5;

/// One per-step sample: globally-reduced physics scalars (one per
/// channel), the spanwise energy spectrum (empty for solvers without a
/// homogeneous direction), and the per-rank MPI traffic rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Solver step this sample was taken after.
    pub step: u64,
    /// One value per recorder channel, in channel order.
    pub scalars: Vec<f64>,
    /// Spanwise energy spectrum `E_k` (may be empty).
    pub spectrum: Vec<f64>,
    /// Per-rank `[sent_msgs, sent_bytes, recvd_msgs, recvd_bytes,
    /// collectives]`, cumulative solver traffic (sampler excluded).
    /// Empty on non-root ranks.
    pub mpi: Vec<[u64; MPI_COLS]>,
}

/// The recorder: one per rank (every rank tracks its own MPI ledger and
/// folds the same global scalars, keeping recorder state rank-symmetric
/// for per-rank checkpoint shards); rank 0 additionally writes the
/// artifact.
#[derive(Debug)]
pub struct StatsRecorder {
    /// Channel names, fixed at construction (also the JSON key order).
    pub channels: Vec<&'static str>,
    /// Sample every N steps (`Plan::stats_every`).
    pub every: u64,
    /// World size (number of MPI rows per sample on rank 0).
    pub nranks: usize,
    /// Samples so far (identical on every rank except the `mpi` rows,
    /// which only rank 0 receives).
    samples: Vec<Sample>,
    /// One accumulator per channel, fed by every [`StatsRecorder::push`].
    accums: Vec<ChannelAccum>,
    /// This rank's cumulative solver-only MPI counters.
    cum: [u64; MPI_COLS],
    /// Raw counter snapshot at the last fold (NOT checkpointed).
    raw_last: [u64; MPI_COLS],
}

impl StatsRecorder {
    /// New recorder for `channels`, sampling every `every` steps.
    pub fn new(channels: Vec<&'static str>, every: u64, nranks: usize) -> StatsRecorder {
        let accums = channels.iter().map(|_| ChannelAccum::new()).collect();
        StatsRecorder {
            channels,
            every,
            nranks,
            samples: Vec::new(),
            accums,
            cum: [0; MPI_COLS],
            raw_last: [0; MPI_COLS],
        }
    }

    /// Whether `step` is a sampling step.
    pub fn due(&self, step: u64) -> bool {
        self.every > 0 && step % self.every == 0
    }

    /// Samples recorded so far.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Per-channel accumulators, in channel order.
    pub fn accums(&self) -> &[ChannelAccum] {
        &self.accums
    }

    /// Value of a named channel's accumulator (tests, the diff gate).
    pub fn accum(&self, channel: &str) -> Option<&ChannelAccum> {
        self.channels.iter().position(|c| *c == channel).map(|i| &self.accums[i])
    }

    /// Raw counter snapshot: this rank's [`Comm`] traffic totals plus
    /// its collective-invocation count from the trace layer (requires
    /// the counters mode a sampling run arms (`RunConfig::trace_mode`
    /// under `NKT_HEALTH`, a sampled baseline row); 0 with tracing off, which
    /// only zeroes the collectives column, never breaks identity —
    /// both runs of a diff see the same mode).
    fn raw_now(comm: &Comm) -> [u64; MPI_COLS] {
        let s = comm.stats();
        let coll = nkt_trace::thread_counter_prefix_sum("mpi.coll.");
        [s.sent_msgs, s.sent_bytes, s.recvd_msgs, s.recvd_bytes, coll]
    }

    /// Folds the solver traffic since the last baseline into `cum`.
    /// Call before any sampling or checkpoint communication.
    pub fn fold(&mut self, comm: &Comm) {
        let now = Self::raw_now(comm);
        for i in 0..MPI_COLS {
            self.cum[i] += now[i] - self.raw_last[i];
        }
        self.raw_last = now;
    }

    /// Resets the raw baseline past any sampler/checkpoint traffic so it
    /// is excluded from the next fold. Call after all sampling or
    /// checkpoint-protocol communication.
    pub fn rebaseline(&mut self, comm: &Comm) {
        self.raw_last = Self::raw_now(comm);
    }

    /// Folds this rank's ledger and gathers every rank's row to rank 0.
    /// Returns the rows on rank 0, an empty vec elsewhere. Performs
    /// communication — bracket with [`StatsRecorder::rebaseline`] after
    /// the remaining sample probes.
    pub fn collect(&mut self, comm: &mut Comm) -> Vec<[u64; MPI_COLS]> {
        self.fold(comm);
        // u64 → f64 transport is exact below 2^53; byte counts of a
        // simulated run sit far below that.
        let row: Vec<f64> = self.cum.iter().map(|&v| v as f64).collect();
        match comm.gather(0, &row) {
            Some(rows) => rows
                .into_iter()
                .map(|r| {
                    let mut a = [0u64; MPI_COLS];
                    for (i, v) in r.iter().enumerate().take(MPI_COLS) {
                        a[i] = *v as u64;
                    }
                    a
                })
                .collect(),
            None => Vec::new(),
        }
    }

    /// Records one sample. `scalars` must be in channel order and
    /// globally identical across ranks (they feed the accumulators on
    /// every rank); `mpi` is the row set from [`StatsRecorder::collect`]
    /// (empty off-root).
    pub fn push(
        &mut self,
        step: u64,
        scalars: Vec<f64>,
        spectrum: Vec<f64>,
        mpi: Vec<[u64; MPI_COLS]>,
    ) {
        assert_eq!(
            scalars.len(),
            self.channels.len(),
            "push: {} scalars for {} channels",
            scalars.len(),
            self.channels.len()
        );
        for (a, &x) in self.accums.iter_mut().zip(&scalars) {
            a.push(x);
        }
        self.samples.push(Sample { step, scalars, spectrum, mpi });
    }

    /// Kinetic energy of the previous sample, for the growth rule.
    /// Looks up the `"ke"` channel; `None` before the first sample.
    pub fn prev_ke(&self) -> Option<f64> {
        let ki = self.channels.iter().position(|c| *c == "ke")?;
        self.samples.last().map(|s| s.scalars[ki])
    }

    /// The recorder as its deterministic `nkt-stats-1` document
    /// (`STATS_<run>.json`, which rank 0 writes).
    pub fn document(&self, run: &str) -> Value {
        let sample = |s: &Sample| Value::from([
            ("step", s.step.into()),
            ("scalars", s.scalars.as_slice().into()),
            ("spectrum", s.spectrum.as_slice().into()),
            ("mpi", Value::Arr(s.mpi.iter().map(|r| r.as_slice().into()).collect())),
        ]);
        let names = self.channels.iter().map(|c| c.to_string());
        let accums = self.accums.iter().map(|a| Value::from([
            ("count", a.count.into()), ("mean", a.mean.into()), ("m2", a.m2.into()),
            ("min", a.min.into()), ("max", a.max.into()),
        ]));
        Value::from([
            ("schema", SCHEMA.into()),
            ("run", run.into()),
            ("every", self.every.into()),
            ("nranks", self.nranks.into()),
            ("channels", self.channels.as_slice().into()),
            ("samples", Value::Arr(self.samples.iter().map(sample).collect())),
            ("accum", Value::Obj(names.zip(accums).collect())),
        ])
    }
}

const SERIES_SECTION: &str = "stats.series";
const ACCUM_SECTION: &str = "stats.accum";
const MPI_SECTION: &str = "stats.mpi";

/// Caps for length prefixes when decoding (malformed-input guards).
const MAX_SAMPLES: u64 = 1 << 24;
const MAX_ROWS: u64 = 1 << 20;

impl Checkpointable for StatsRecorder {
    fn kind(&self) -> &'static str {
        "stats"
    }

    fn write_sections(&self, w: &mut CkptWriter) {
        let mut e = Enc::new();
        e.usize(self.samples.len());
        for s in &self.samples {
            e.u64(s.step);
            e.f64s(&s.scalars);
            e.f64s(&s.spectrum);
            e.usize(s.mpi.len());
            for r in &s.mpi {
                for &v in r {
                    e.u64(v);
                }
            }
        }
        w.section(SERIES_SECTION, e.into_bytes());

        let mut e = Enc::new();
        e.usize(self.accums.len());
        for a in &self.accums {
            a.encode(&mut e);
        }
        w.section(ACCUM_SECTION, e.into_bytes());

        let mut e = Enc::new();
        for &v in &self.cum {
            e.u64(v);
        }
        w.section(MPI_SECTION, e.into_bytes());
    }

    fn read_sections(&mut self, f: &CkptFile) -> Result<(), CkptError> {
        // A shard written without a rider (sampling was off) restores as
        // a reset recorder — tolerated, not an error.
        if f.section(SERIES_SECTION).is_none() {
            let n = self.channels.len();
            self.samples.clear();
            self.accums = vec![ChannelAccum::new(); n];
            self.cum = [0; MPI_COLS];
            return Ok(());
        }

        let mut d = f.dec(SERIES_SECTION)?;
        let n = d.len_prefix(MAX_SAMPLES)?;
        let mut samples = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let step = d.u64()?;
            let scalars = d.f64s()?;
            if scalars.len() != self.channels.len() {
                return Err(CkptError::StateMismatch {
                    what: format!(
                        "stats sample has {} scalars, recorder has {} channels",
                        scalars.len(),
                        self.channels.len()
                    ),
                });
            }
            let spectrum = d.f64s()?;
            let rows = d.len_prefix(MAX_ROWS)?;
            let mut mpi = Vec::with_capacity(rows.min(4096));
            for _ in 0..rows {
                let mut r = [0u64; MPI_COLS];
                for v in r.iter_mut() {
                    *v = d.u64()?;
                }
                mpi.push(r);
            }
            samples.push(Sample { step, scalars, spectrum, mpi });
        }
        d.finish()?;

        let mut d = f.dec(ACCUM_SECTION)?;
        let na = d.len_prefix(MAX_ROWS)?;
        if na != self.channels.len() {
            return Err(CkptError::StateMismatch {
                what: format!(
                    "stats checkpoint has {na} accumulators, recorder has {} channels",
                    self.channels.len()
                ),
            });
        }
        let mut accums = Vec::with_capacity(na);
        for _ in 0..na {
            accums.push(ChannelAccum::decode(&mut d)?);
        }
        d.finish()?;

        let mut d = f.dec(MPI_SECTION)?;
        let mut cum = [0u64; MPI_COLS];
        for v in cum.iter_mut() {
            *v = d.u64()?;
        }
        d.finish()?;

        self.samples = samples;
        self.accums = accums;
        self.cum = cum;
        // raw_last is process-local; the caller re-baselines after restore.
        Ok(())
    }

    fn ckpt_step(&self) -> u64 {
        self.samples.last().map_or(0, |s| s.step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nkt_trace::json::render;

    fn recorder_with_samples() -> StatsRecorder {
        let mut r = StatsRecorder::new(vec!["ke", "div"], 1, 2);
        r.push(1, vec![0.5, 1e-9], vec![0.3, 0.2], vec![[1, 80, 1, 80, 2], [1, 80, 1, 80, 2]]);
        r.push(
            2,
            vec![0.45, 2e-9],
            vec![0.28, 0.17],
            vec![[2, 160, 2, 160, 4], [2, 160, 2, 160, 4]],
        );
        r.cum = [2, 160, 2, 160, 4];
        r
    }

    #[test]
    fn due_respects_every() {
        let r = StatsRecorder::new(vec!["ke"], 2, 1);
        assert!(!r.due(1));
        assert!(r.due(2));
        assert!(!r.due(3));
        assert!(r.due(4));
        let off = StatsRecorder::new(vec!["ke"], 0, 1);
        assert!(!off.due(1));
    }

    #[test]
    fn push_feeds_accumulators() {
        let r = recorder_with_samples();
        let ke = r.accum("ke").unwrap();
        assert_eq!(ke.count, 2);
        assert_eq!(ke.max, 0.5);
        assert_eq!(ke.min, 0.45);
        assert_eq!(r.prev_ke(), Some(0.45));
        assert!(r.accum("missing").is_none());
    }

    #[test]
    fn json_is_deterministic_and_parses() {
        let r = recorder_with_samples();
        let a = render(&r.document("unit"));
        let b = render(&r.document("unit"));
        assert_eq!(a, b);
        let doc = nkt_trace::json::parse(&a).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SCHEMA));
        let samples = doc.get("samples").unwrap().as_arr().unwrap();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].get("step").unwrap().as_f64(), Some(1.0));
        let mpi = samples[1].get("mpi").unwrap().as_arr().unwrap();
        assert_eq!(mpi.len(), 2);
        assert_eq!(mpi[0].as_arr().unwrap()[1].as_f64(), Some(160.0));
        let ke = doc.get("accum").unwrap().get("ke").unwrap();
        assert_eq!(ke.get("count").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn gates_read_the_stats_schema() {
        let text = r#"{"schema": "nkt-stats-1", "run": "sample", "every": 1, "nranks": 2,
            "channels": ["ke", "div"],
            "samples": [
              {"step": 1, "scalars": [0.5, 1e-9], "spectrum": [], "mpi": [[1, 80, 1, 80, 2], [1, 96, 1, 96, 2]]},
              {"step": 2, "scalars": [0.4, 2e-9], "spectrum": [], "mpi": [[2, 160, 2, 160, 4], [2, 200, 2, 200, 4]]}
            ],
            "accum": {"ke": {"count": 2, "mean": 0.45, "m2": 0.005, "min": 0.4, "max": 0.5},
                      "div": {"count": 2, "mean": 1.5e-9, "m2": 5e-19, "min": 1e-9, "max": 2e-9}}}"#;
        let mean = |name: &str, v| Gate::new(name, v, Sense::Either, 1e-12, 0.05);
        assert_eq!(
            gates(text).unwrap(),
            [
                Gate::exact("samples", 2.0),
                Gate::exact("sent_bytes[final]", 360.0),
                mean("mean[ke]", 0.45),
                mean("mean[div]", 1.5e-9),
            ]
        );
        assert!(gates(&text.replace("nkt-stats-1", "nkt-prof-1")).is_err());
    }

    /// Writer and reader agree: the rows read back from the production
    /// document equal the recorder's own numbers, so a writer change the
    /// extractor cannot see fails here instead of un-gating a row.
    #[test]
    fn gates_round_trip_the_written_series() {
        let r = recorder_with_samples();
        let mut want = vec![("samples".to_string(), 2.0), ("sent_bytes[final]".to_string(), 320.0)];
        want.extend(r.channels.iter().zip(r.accums()).map(|(c, a)| (format!("mean[{c}]"), a.mean)));
        let rows = gates(&render(&r.document("unit"))).unwrap();
        let got: Vec<(String, f64)> = rows.into_iter().map(|g| (g.name, g.value)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn checkpoint_roundtrips_bitwise() {
        let r = recorder_with_samples();
        let mut w = CkptWriter::new();
        r.write_sections(&mut w);
        let f = CkptFile::parse(std::path::Path::new("mem"), w.to_bytes()).unwrap();
        let mut r2 = StatsRecorder::new(vec!["ke", "div"], 1, 2);
        r2.read_sections(&f).unwrap();
        assert_eq!(r.samples(), r2.samples());
        assert_eq!(r.cum, r2.cum);
        // The artifact both recorders would write is byte-identical.
        assert_eq!(render(&r.document("x")), render(&r2.document("x")));
        assert_eq!(r.state_hash(), r2.state_hash());
    }

    #[test]
    fn channel_count_mismatch_is_a_typed_error() {
        let r = recorder_with_samples();
        let mut w = CkptWriter::new();
        r.write_sections(&mut w);
        let f = CkptFile::parse(std::path::Path::new("mem"), w.to_bytes()).unwrap();
        let mut wrong = StatsRecorder::new(vec!["ke"], 1, 2);
        let e = wrong.read_sections(&f).unwrap_err();
        assert!(matches!(e, CkptError::StateMismatch { .. }), "{e}");
    }

    #[test]
    fn riderless_shard_resets() {
        let mut w = CkptWriter::new();
        w.section("something.else", vec![1, 2, 3]);
        let f = CkptFile::parse(std::path::Path::new("mem"), w.to_bytes()).unwrap();
        let mut r = recorder_with_samples();
        r.read_sections(&f).unwrap();
        assert!(r.samples().is_empty());
        assert_eq!(r.cum, [0; MPI_COLS]);
        assert_eq!(r.accum("ke").unwrap().count, 0);
    }
}
