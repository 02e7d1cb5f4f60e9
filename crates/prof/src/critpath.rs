//! Critical-path extraction over the virtual-time span DAG.
//!
//! Happens-before edges come from matched send/receive pairs: a receive
//! that *waited* (`wait > 0`) was gated by its sender — the receiver's
//! history before the wait cannot have delayed it, so the path jumps to
//! the sending rank at the sender's completion time and continues there.
//! A receive that did not wait imposes no cross-rank constraint. Walking
//! those jumps backward from the rank that finishes last yields the
//! longest dependency chain through the run, which is then decomposed
//! into op/stage buckets by interval intersection with each rank's
//! recorded spans.

use crate::model::{entry, PRank, PSpan};

/// One segment of the critical path, in walk (reverse-time) order.
#[derive(Debug, Clone, PartialEq)]
pub struct CpSegment {
    /// Rank whose timeline this segment lies on (for `wire` segments,
    /// the receiving rank).
    pub rank: usize,
    /// For `wire` segments, the sending rank.
    pub from: Option<usize>,
    /// Segment start (virtual seconds).
    pub t0: f64,
    /// Segment end.
    pub t1: f64,
    /// `local` (execution on `rank`) or `wire` (a message in flight).
    pub kind: &'static str,
}

/// The extracted critical path plus its composition by span bucket.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CriticalPath {
    /// Virtual end time of the path (= the slowest rank's finish time).
    pub length: f64,
    /// Rank on which the path ends.
    pub end_rank: usize,
    /// Path segments in reverse-time order (walk order), capped at
    /// [`MAX_SEGMENTS`].
    pub segments: Vec<CpSegment>,
    /// Time per bucket: op names (innermost `mpi` spans first), stage
    /// names, `wire`, and `untracked` — sorted by bucket label.
    pub composition: Vec<(String, f64)>,
}

/// Cap on recorded path segments; the walk itself always terminates
/// (time strictly decreases), this only bounds the report size.
pub const MAX_SEGMENTS: usize = 512;

struct RecvEdge {
    vt1: f64,
    wait: f64,
    peer: usize,
    seq: u64,
    arrival: f64,
}

/// Extracts the critical path. Returns a default (empty) path when no
/// rank recorded any virtual span.
pub fn critical_path(ranks: &[PRank]) -> CriticalPath {
    if ranks.is_empty() {
        return CriticalPath::default();
    }
    // Per-rank end time and happens-before edge tables.
    let ends: Vec<f64> = ranks.iter().map(|r| rank_end(r)).collect();
    let mut recvs: Vec<Vec<RecvEdge>> = Vec::new();
    let mut sends: Vec<Vec<((usize, u64), f64)>> = Vec::new();
    for r in ranks {
        let mut rv = Vec::new();
        let mut sv = Vec::new();
        for s in &r.spans {
            if s.cat == "mpi.p2p.recv" {
                if let (Some(peer), Some(seq), Some(wait), Some(arrival)) =
                    (s.arg("peer"), s.arg("seq"), s.arg("wait"), s.arg("arrival"))
                {
                    rv.push(RecvEdge {
                        vt1: s.vt1,
                        wait,
                        peer: peer as usize,
                        seq: seq as u64,
                        arrival,
                    });
                }
            } else if s.cat == "mpi.p2p.send" {
                if let (Some(peer), Some(seq)) = (s.arg("peer"), s.arg("seq")) {
                    sv.push(((peer as usize, seq as u64), s.vt1));
                }
            }
        }
        rv.sort_by(|a, b| a.vt1.total_cmp(&b.vt1));
        recvs.push(rv);
        sends.push(sv);
    }
    // Start on the rank that finishes last (lowest rank id on ties).
    let mut cur = 0usize;
    for (i, &e) in ends.iter().enumerate() {
        if e > ends[cur] {
            cur = i;
        }
    }
    let mut path = CriticalPath {
        length: ends[cur],
        end_rank: ranks[cur].rank,
        ..CriticalPath::default()
    };
    let mut t = ends[cur];
    while path.segments.len() < MAX_SEGMENTS {
        // Latest receive on `cur` that completed by `t` after waiting:
        // the most recent point where this rank's progress was gated by
        // a peer.
        let gate = recvs[cur].iter().rev().find(|e| e.vt1 <= t && e.wait > 0.0);
        match gate {
            None => {
                if t > 0.0 {
                    path.segments.push(CpSegment {
                        rank: ranks[cur].rank,
                        from: None,
                        t0: 0.0,
                        t1: t,
                        kind: "local",
                    });
                }
                break;
            }
            Some(e) => {
                // Local time resumes at the message *arrival*: the
                // receive-protocol window [arrival, recv end] is work on
                // this rank, only [posted, arrival] was idle.
                if t > e.arrival {
                    path.segments.push(CpSegment {
                        rank: ranks[cur].rank,
                        from: None,
                        t0: e.arrival,
                        t1: t,
                        kind: "local",
                    });
                }
                // The matching send's completion on the peer.
                let sender = ranks.iter().position(|r| r.rank == e.peer);
                let send_t = sender.and_then(|si| {
                    sends[si]
                        .iter()
                        .find(|&&(k, _)| k == (ranks[cur].rank, e.seq))
                        .map(|&(_, vt1)| vt1)
                });
                let Some(si) = sender else { break };
                let Some(send_t) = send_t else { break };
                path.segments.push(CpSegment {
                    rank: ranks[cur].rank,
                    from: Some(e.peer),
                    t0: send_t,
                    t1: e.arrival,
                    kind: "wire",
                });
                // Monotonicity guard: virtual time must strictly
                // decrease or the walk could cycle on malformed input.
                if send_t >= t {
                    break;
                }
                cur = si;
                t = send_t;
            }
        }
    }
    path.composition = compose(ranks, &path.segments);
    path
}

/// A rank's final virtual time: the maximum finite span endpoint.
fn rank_end(r: &PRank) -> f64 {
    let mut end = 0.0f64;
    for s in &r.spans {
        if s.vt1.is_finite() {
            end = end.max(s.vt1);
        }
    }
    end
}

/// Decomposes path segments into labeled time buckets. Local segments
/// intersect the owning rank's MPI spans first — collective windows and
/// p2p protocol records, innermost (deepest) span winning where they
/// nest, like the allreduce inside a gs exchange — then `stage`/`replay`
/// spans; any remainder is `untracked`. Wire segments land in the `wire`
/// bucket.
fn compose(ranks: &[PRank], segments: &[CpSegment]) -> Vec<(String, f64)> {
    let mut buckets: Vec<(String, f64)> = Vec::new();
    let add = |buckets: &mut Vec<(String, f64)>, label: &str, dt: f64| {
        if dt <= 0.0 {
            return;
        }
        entry(buckets, |(l, _)| l == label, || (label.to_string(), 0.0)).1 += dt;
    };
    for seg in segments {
        if seg.kind == "wire" {
            add(&mut buckets, "wire", seg.t1 - seg.t0);
            continue;
        }
        let Some(r) = ranks.iter().find(|r| r.rank == seg.rank) else {
            add(&mut buckets, "untracked", seg.t1 - seg.t0);
            continue;
        };
        // Deepest-first attribution over the virtual interval tree.
        let mut remaining = vec![(seg.t0, seg.t1)];
        for cats in [&["mpi", "mpi.p2p.send", "mpi.p2p.recv"][..], &["stage", "replay"][..]] {
            let mut spans: Vec<&PSpan> = r
                .spans
                .iter()
                .filter(|s| cats.contains(&s.cat.as_str()) && s.vdur().is_some())
                .collect();
            spans.sort_by(|a, b| b.depth.cmp(&a.depth).then(a.vt0.total_cmp(&b.vt0)));
            for s in spans {
                let mut overlap = 0.0;
                for &(a, b) in &remaining {
                    overlap += (b.min(s.vt1) - a.max(s.vt0)).max(0.0);
                }
                if overlap > 0.0 {
                    add(&mut buckets, &s.name, overlap);
                    remaining = subtract_all(&remaining, (s.vt0, s.vt1));
                }
            }
        }
        let leftover: f64 = remaining.iter().map(|(a, b)| b - a).sum();
        add(&mut buckets, "untracked", leftover);
    }
    buckets.sort_by(|a, b| a.0.cmp(&b.0));
    buckets
}

/// Removes `cut` from every interval in `set`.
fn subtract_all(set: &[(f64, f64)], cut: (f64, f64)) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    for &(a, b) in set {
        if cut.1 <= a || cut.0 >= b {
            out.push((a, b));
            continue;
        }
        if cut.0 > a {
            out.push((a, cut.0));
        }
        if cut.1 < b {
            out.push((cut.1, b));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subtract_splits_and_clips() {
        assert_eq!(subtract_all(&[(0.0, 10.0)], (3.0, 4.0)), vec![(0.0, 3.0), (4.0, 10.0)]);
        assert_eq!(subtract_all(&[(0.0, 2.0)], (5.0, 6.0)), vec![(0.0, 2.0)]);
        assert_eq!(subtract_all(&[(0.0, 2.0)], (0.0, 2.0)), Vec::<(f64, f64)>::new());
        assert_eq!(subtract_all(&[(1.0, 3.0), (5.0, 7.0)], (2.0, 6.0)), vec![(1.0, 2.0), (6.0, 7.0)]);
    }
}
