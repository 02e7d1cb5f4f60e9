//! mpiP-style MPI time attribution, the communication matrix, and
//! per-stage load-imbalance statistics — all on the **virtual**
//! timeline, so every number here is bit-reproducible across runs of
//! the same seeded simulation.

use crate::model::{entry, PRank};

/// Per-op MPI attribution across all ranks (one row of the profile's
/// Table-2-style attribution table).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpStat {
    /// Op name: a collective (`alltoall`, `allreduce`, `barrier`, `gs`,
    /// `quiesce`, ...) or `p2p` for raw point-to-point traffic.
    pub op: String,
    /// Collective invocations (count of `mpi`-cat spans); for pure p2p
    /// ops this equals the send count.
    pub calls: u64,
    /// Σ virtual duration of the op's collective windows (seconds).
    pub vtime: f64,
    /// Messages sent under this op label.
    pub sends: u64,
    /// Payload bytes sent.
    pub send_bytes: u64,
    /// Σ sender-side virtual time (protocol overhead).
    pub send_time: f64,
    /// Messages received.
    pub recvs: u64,
    /// Σ receiver-side virtual time (wait + protocol overhead).
    pub recv_time: f64,
    /// Σ receiver idle time blocked on the wire (the mpiP wait time).
    pub wait: f64,
    /// Σ wire latency of matched messages: arrival − sender completion.
    pub wire: f64,
    /// Receives whose sender was late (`wait > 0`).
    pub late: u64,
}

/// One cell of the communication matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatrixCell {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Messages sent on this edge.
    pub msgs: u64,
    /// Payload bytes sent on this edge.
    pub bytes: u64,
}

/// Load-imbalance statistics for one stage across ranks, on the virtual
/// timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct StageStat {
    /// Stage name (`NonLinear`, `PressureSolve`, ...).
    pub stage: String,
    /// Per-rank virtual seconds, index-aligned with the profile's rank
    /// list.
    pub per_rank: Vec<f64>,
    /// Σ per-stage CPU seconds from replay spans' `cpu` args (0 when the
    /// source spans carry none); `vtime − cpu` is network idle.
    pub cpu: f64,
    /// Minimum across ranks.
    pub min: f64,
    /// Median across ranks.
    pub median: f64,
    /// Maximum across ranks.
    pub max: f64,
    /// Mean across ranks.
    pub mean: f64,
    /// `max / mean` (1.0 when perfectly balanced or the stage is empty).
    pub imbalance: f64,
}

impl StageStat {
    /// Rank holding the stage maximum (lowest such rank on ties) as an
    /// index into the profile's rank list.
    pub fn slowest_index(&self) -> usize {
        let mut best = 0;
        for (i, &v) in self.per_rank.iter().enumerate() {
            if v > self.per_rank[best] {
                best = i;
            }
        }
        best
    }
}

/// Builds the per-op attribution table, sorted by op name.
pub fn op_stats(ranks: &[PRank]) -> Vec<OpStat> {
    // (src, dst, seq) → sender-side completion time, for wire latency.
    let mut send_end: Vec<((usize, usize, u64), f64)> = Vec::new();
    for r in ranks {
        for s in &r.spans {
            if s.cat == "mpi.p2p.send" {
                if let (Some(peer), Some(seq)) = (s.arg("peer"), s.arg("seq")) {
                    send_end.push(((r.rank, peer as usize, seq as u64), s.vt1));
                }
            }
        }
    }
    let mut ops: Vec<OpStat> = Vec::new();
    let entry = |ops: &mut Vec<OpStat>, name: &str| -> usize {
        match ops.iter().position(|o| o.op == name) {
            Some(i) => i,
            None => {
                ops.push(OpStat { op: name.to_string(), ..OpStat::default() });
                ops.len() - 1
            }
        }
    };
    for r in ranks {
        for s in &r.spans {
            match s.cat.as_str() {
                "mpi" => {
                    let i = entry(&mut ops, &s.name);
                    ops[i].calls += 1;
                    ops[i].vtime += s.vdur().unwrap_or(0.0);
                }
                "mpi.p2p.send" => {
                    let i = entry(&mut ops, &s.name);
                    ops[i].sends += 1;
                    ops[i].send_bytes += s.arg("bytes").unwrap_or(0.0) as u64;
                    ops[i].send_time += s.vdur().unwrap_or(0.0);
                }
                "mpi.p2p.recv" => {
                    let i = entry(&mut ops, &s.name);
                    ops[i].recvs += 1;
                    ops[i].recv_time += s.vdur().unwrap_or(0.0);
                    let wait = s.arg("wait").unwrap_or(0.0);
                    ops[i].wait += wait;
                    if wait > 0.0 {
                        ops[i].late += 1;
                    }
                    if let (Some(peer), Some(seq), Some(arrival)) =
                        (s.arg("peer"), s.arg("seq"), s.arg("arrival"))
                    {
                        let key = (peer as usize, r.rank, seq as u64);
                        if let Some(&(_, end)) = send_end.iter().find(|(k, _)| *k == key) {
                            ops[i].wire += (arrival - end).max(0.0);
                        }
                    }
                }
                _ => {}
            }
        }
    }
    // Pure p2p traffic has no collective window: its "time" is the send
    // plus receive side work.
    for o in &mut ops {
        if o.calls == 0 {
            o.calls = o.sends;
            o.vtime = o.send_time + o.recv_time;
        }
    }
    ops.sort_by(|a, b| a.op.cmp(&b.op));
    ops
}

/// Builds the communication matrix from send spans, sorted by
/// `(src, dst)`. Empty edges are omitted.
pub fn comm_matrix(ranks: &[PRank]) -> Vec<MatrixCell> {
    let mut cells: Vec<MatrixCell> = Vec::new();
    for r in ranks {
        for s in &r.spans {
            if s.cat != "mpi.p2p.send" {
                continue;
            }
            let Some(peer) = s.arg("peer") else { continue };
            let (src, dst) = (r.rank, peer as usize);
            let bytes = s.arg("bytes").unwrap_or(0.0) as u64;
            let new = || MatrixCell { src, dst, ..MatrixCell::default() };
            let c = entry(&mut cells, |c| c.src == src && c.dst == dst, new);
            c.msgs += 1;
            c.bytes += bytes;
        }
    }
    cells.sort_by_key(|c| (c.src, c.dst));
    cells
}

/// Builds per-stage imbalance statistics from `stage`- and `replay`-cat
/// spans that carry virtual endpoints, sorted by stage name. Host-only
/// stage spans contribute nothing here (host times are not reproducible);
/// they feed the printed host table instead.
pub fn stage_stats(ranks: &[PRank]) -> Vec<StageStat> {
    let mut stats: Vec<StageStat> = Vec::new();
    for (idx, r) in ranks.iter().enumerate() {
        for s in &r.spans {
            if s.cat != "stage" && s.cat != "replay" {
                continue;
            }
            let Some(vdur) = s.vdur() else { continue };
            let i = match stats.iter().position(|st| st.stage == s.name) {
                Some(i) => i,
                None => {
                    stats.push(StageStat {
                        stage: s.name.clone(),
                        per_rank: vec![0.0; ranks.len()],
                        cpu: 0.0,
                        min: 0.0,
                        median: 0.0,
                        max: 0.0,
                        mean: 0.0,
                        imbalance: 1.0,
                    });
                    stats.len() - 1
                }
            };
            stats[i].per_rank[idx] += vdur;
            stats[i].cpu += s.arg("cpu").unwrap_or(0.0);
        }
    }
    for st in &mut stats {
        let mut sorted = st.per_rank.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        st.min = sorted[0];
        st.max = sorted[n - 1];
        st.median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
        };
        st.mean = st.per_rank.iter().sum::<f64>() / n as f64;
        st.imbalance = if st.mean > 0.0 { st.max / st.mean } else { 1.0 };
    }
    stats.sort_by(|a, b| a.stage.cmp(&b.stage));
    stats
}

/// Host seconds per stage per rank: the stage spans' measured durations
/// (for the StageClock self-check and the printed host table; never
/// serialized — host times are not reproducible). Virtual-only spans, a
/// replay's among them, carry no host time and are skipped.
pub fn stage_attributed(ranks: &[PRank]) -> Vec<(String, Vec<f64>)> {
    let mut out: Vec<(String, Vec<f64>)> = Vec::new();
    for (idx, r) in ranks.iter().enumerate() {
        for s in &r.spans {
            if s.cat != "stage" || !s.dur_s.is_finite() {
                continue;
            }
            let i = match out.iter().position(|(n, _)| *n == s.name) {
                Some(i) => i,
                None => {
                    out.push((s.name.clone(), vec![0.0; ranks.len()]));
                    out.len() - 1
                }
            };
            out[i].1[idx] += s.dur_s;
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}
