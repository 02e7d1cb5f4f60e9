//! Model replay: charges an operation stream against the 1999 machine and
//! network models to produce per-stage CPU and wall-clock times — the
//! mechanism behind the regenerated Tables 1–3 and Figures 12–16
//! (DESIGN.md §2 substitution).

use crate::opstream::{CommItem, OpRecording, WorkItem};
use crate::timers::{ModeledClock, Stage};
use nkt_machine::Machine;
use nkt_net::ClusterNetwork;

/// CPU + wall clocks of a replayed step ("The difference between the two
/// types of timings indicates idle CPU time, which is associated with
/// network inefficiency", paper §4.2).
#[derive(Debug, Clone, Default)]
pub struct ReplayTimes {
    /// CPU ledger per stage (compute + protocol overhead).
    pub cpu: ModeledClock,
    /// Wall-clock ledger per stage (CPU + network transfer/latency).
    pub wall: ModeledClock,
}

impl ReplayTimes {
    /// Records one virtual-time trace span per nonzero stage, laid out
    /// back-to-back from `vt0` (virtual seconds); returns the end time.
    /// Paper-scale replayed steps thereby render on the same Perfetto
    /// timeline as natively traced runs (no-op below `NKT_TRACE=spans`).
    /// Each span carries the stage's CPU seconds as a `cpu` argument so
    /// `nkt-prof` can split wall time into work vs network idle.
    pub fn record_trace_spans(&self, vt0: f64) -> f64 {
        let mut t = vt0;
        for s in Stage::ALL {
            let wall = self.wall.totals[s.index()];
            if wall > 0.0 {
                let cpu = self.cpu.totals[s.index()];
                nkt_trace::record_vspan_args(s.name(), "replay", t, t + wall, &[("cpu", cpu)]);
                t += wall;
            }
        }
        t
    }
}

/// Charges one work item on a machine model (seconds).
pub fn work_time(item: &WorkItem, m: &Machine) -> f64 {
    match *item {
        WorkItem::Stream { flops, bytes, ws } => m.time_stream_op(flops, bytes, ws),
        WorkItem::BandedSolve { n, kd } => m.time_banded_solve(n, kd),
        WorkItem::FftBatch { len, batch } => m.time_fft_batch(len, batch),
        WorkItem::Gemm { m: mm, n, k } => m.time_gemm(mm, n, k),
    }
}

/// Charges one communication item: returns (cpu seconds, wall seconds).
pub fn comm_time(item: &CommItem, net: &ClusterNetwork, p: usize) -> (f64, f64) {
    match *item {
        CommItem::Transpose { col_block_bytes, row_block_bytes, pr, pc, fields, pipelined } => {
            // World rank = row * pc + col. The column stage runs one
            // alltoall per grid column (groups of pr) — all pc columns
            // concurrently on the fabric, so each round's pair list spans
            // every column and `net.round_time` sees the full contention.
            // The row stage is symmetric (groups of pc, pr rows
            // concurrent); a pr × 1 grid has none, and its column stage
            // is the slab's world exchange. A stage of g ranks runs g-1
            // pairwise rounds, i <-> i ^ r when g is a power of two, a
            // ring permutation otherwise. When pipelined, both stages split per field,
            // paying one set of per-round latencies per field; the
            // overlap credit is applied by `replay`, which sees the whole
            // stream.
            let nf = if pipelined { fields.max(1) } else { 1 };
            let stage = |grp: usize, nsib: usize, block: usize, col_stage: bool| -> (f64, f64) {
                if grp <= 1 || block == 0 {
                    return (0.0, 0.0);
                }
                let mut wall = 0.0;
                let mut cpu = 0.0;
                for step in 1..grp {
                    let mut pairs = Vec::new();
                    for sib in 0..nsib {
                        for i in 0..grp {
                            let j =
                                if grp.is_power_of_two() { i ^ step } else { (i + step) % grp };
                            if grp.is_power_of_two() && i >= j {
                                continue;
                            }
                            // col stage: i, j index rows within column
                            // `sib`; row stage: within row `sib`.
                            let pair = if col_stage {
                                (i * nsib + sib, j * nsib + sib)
                            } else {
                                (sib * grp + i, sib * grp + j)
                            };
                            pairs.push(pair);
                        }
                    }
                    wall += net.round_time(&pairs, block);
                    cpu += 2.0 * net.inter.overhead_us * 1e-6;
                }
                (cpu, wall)
            };
            let (cc, cw) = stage(pr, pc, col_block_bytes.div_ceil(nf), true);
            let (rc, rw) = stage(pc, pr, row_block_bytes.div_ceil(nf), false);
            ((cc + rc) * nf as f64, (cw + rw) * nf as f64)
        }
        CommItem::Allreduce { bytes } => {
            if p <= 1 {
                return (0.0, 0.0);
            }
            let rounds = (p as f64).log2().ceil() as usize;
            // Reduce + broadcast trees.
            let per_msg = net.inter.time(bytes);
            let wall = 2.0 * rounds as f64 * per_msg;
            let cpu = 2.0 * rounds as f64 * 2.0 * net.inter.overhead_us * 1e-6;
            (cpu, wall)
        }
        CommItem::GsExchange { neighbors, bytes, .. } => {
            if p <= 1 || neighbors == 0 {
                return (0.0, 0.0);
            }
            // Pairwise halo exchanges proceed concurrently; wall time is
            // one round of the slowest link, serialized by neighbor count
            // on the sending side.
            let per_msg = net.inter.time(bytes);
            let wall = per_msg + (neighbors.saturating_sub(1)) as f64 * net.inter.overhead_us * 1e-6;
            let cpu = neighbors as f64 * 2.0 * net.inter.overhead_us * 1e-6;
            (cpu, wall)
        }
    }
}

/// Replays a per-rank recording: compute on `machine`, communication on
/// `net` with `p` ranks. Returns per-stage CPU and wall clocks.
pub fn replay(rec: &OpRecording, machine: &Machine, net: &ClusterNetwork, p: usize) -> ReplayTimes {
    let mut out = ReplayTimes::default();
    let mut fft_work = [0.0; Stage::ALL.len()];
    let mut gemm_work = [0.0; Stage::ALL.len()];
    for (stage, item) in &rec.work {
        let t = work_time(item, machine);
        out.cpu.add(*stage, t);
        out.wall.add(*stage, t);
        if matches!(item, WorkItem::FftBatch { .. }) {
            fft_work[stage.index()] += t;
        }
        if matches!(item, WorkItem::Gemm { .. }) {
            gemm_work[stage.index()] += t;
        }
    }
    // Pipelined transposes can hide all but one field's wire time behind
    // the FFT work recorded in the same stage (DESIGN.md §11); split-phase
    // gather-scatter exchanges can hide their wall time behind the
    // stage's elemental (Gemm) work, capped by the measured interior
    // fraction of the element schedule (DESIGN.md §16).
    let mut hideable = [0.0; Stage::ALL.len()];
    let mut gs_hideable = [0.0; Stage::ALL.len()];
    let mut gs_frac = [0.0f64; Stage::ALL.len()];
    for (stage, item) in &rec.comm {
        let (c, w) = comm_time(item, net, p);
        out.cpu.add(*stage, c);
        out.wall.add(*stage, w);
        match item {
            CommItem::Transpose { fields, pipelined: true, .. } => {
                let nf = (*fields).max(1) as f64;
                hideable[stage.index()] += w * (nf - 1.0) / nf;
            }
            CommItem::GsExchange { overlap, .. } if *overlap > 0.0 => {
                gs_hideable[stage.index()] += w;
                gs_frac[stage.index()] = gs_frac[stage.index()].max(overlap.min(1.0));
            }
            _ => {}
        }
    }
    for (i, _) in Stage::ALL.iter().enumerate() {
        let credit = hideable[i].min(fft_work[i])
            + gs_hideable[i].min(gs_frac[i] * gemm_work[i]);
        if credit > 0.0 {
            out.wall.totals[i] = (out.wall.totals[i] - credit).max(out.cpu.totals[i]);
        }
    }
    out
}

/// Serial replay (no network).
pub fn replay_serial(rec: &OpRecording, machine: &Machine) -> ModeledClock {
    let mut clock = ModeledClock::new();
    for (stage, item) in &rec.work {
        clock.add(*stage, work_time(item, machine));
    }
    clock
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opstream::OpRecording;
    use crate::timers::Stage;
    use nkt_machine::{machine, MachineId};
    use nkt_net::{cluster, NetId};

    /// The slab's transpose on `p` ranks: a `p × 1` grid.
    fn slab(col_block_bytes: usize, p: usize, fields: usize, pipelined: bool) -> CommItem {
        CommItem::Transpose { col_block_bytes, row_block_bytes: 0, pr: p, pc: 1, fields, pipelined }
    }

    fn sample_rec() -> OpRecording {
        let mut r = OpRecording::new();
        r.work(Stage::BwdTransform, WorkItem::Gemm { m: 100, n: 2, k: 50 });
        r.work(Stage::PressureSolve, WorkItem::BandedSolve { n: 10_000, kd: 300 });
        r.work(Stage::NonLinear, WorkItem::FftBatch { len: 64, batch: 500 });
        r.work(
            Stage::StifflyStable,
            WorkItem::Stream { flops: 1e6, bytes: 4e6, ws: 4_000_000 },
        );
        r.comm(Stage::NonLinear, slab(65536, 4, 1, false));
        r.comm(Stage::PressureSolve, CommItem::Allreduce { bytes: 8 });
        r
    }

    #[test]
    fn faster_machine_replays_faster() {
        let rec = sample_rec();
        let net = cluster(NetId::T3e);
        let slow = replay(&rec, &machine(MachineId::Sp2Thin2), &net, 4);
        let fast = replay(&rec, &machine(MachineId::T3e), &net, 4);
        assert!(fast.cpu.total() < slow.cpu.total());
    }

    #[test]
    fn slower_network_inflates_wall_not_cpu_compute() {
        let rec = sample_rec();
        let m = machine(MachineId::Muses);
        let eth = replay(&rec, &m, &cluster(NetId::RoadRunnerEth), 8);
        let myr = replay(&rec, &m, &cluster(NetId::RoadRunnerMyr), 8);
        assert!(eth.wall.total() > myr.wall.total());
        // Pure-compute part identical: compare work-only replays.
        let w_eth: f64 = rec.work.iter().map(|(_, i)| work_time(i, &m)).sum();
        let w_myr = w_eth;
        assert_eq!(w_eth, w_myr);
    }

    #[test]
    fn wall_never_less_than_cpu_on_comm_stages() {
        let rec = sample_rec();
        let t = replay(&rec, &machine(MachineId::Muses), &cluster(NetId::MusesLam), 4);
        for i in 0..7 {
            assert!(
                t.wall.totals[i] >= t.cpu.totals[i] - 1e-15,
                "stage {i}: wall {} < cpu {}",
                t.wall.totals[i],
                t.cpu.totals[i]
            );
        }
    }

    #[test]
    fn single_rank_comm_is_free() {
        let (c, w) = comm_time(&slab(1 << 20, 1, 1, false), &cluster(NetId::T3e), 1);
        assert_eq!((c, w), (0.0, 0.0));
    }

    #[test]
    fn replay_trace_spans_tile_the_wall_ledger() {
        nkt_trace::set_mode(nkt_trace::TraceMode::Spans);
        let rec = sample_rec();
        let t = replay(&rec, &machine(MachineId::Muses), &cluster(NetId::T3e), 4);
        let end = t.record_trace_spans(1.5);
        assert!((end - 1.5 - t.wall.total()).abs() < 1e-12);
        let tid = nkt_trace::current_tid();
        let mine: Vec<_> =
            nkt_trace::take_collected().into_iter().filter(|d| d.tid == tid).collect();
        let spans: Vec<_> =
            mine.iter().flat_map(|d| &d.events).filter(|e| e.cat == "replay").collect();
        assert!(spans.len() >= 4, "one span per nonzero stage");
        let vsum: f64 = spans.iter().map(|e| e.vdur().unwrap()).sum();
        assert!((vsum - t.wall.total()).abs() < 1e-12);
        nkt_trace::set_mode(nkt_trace::TraceMode::Off);
    }

    #[test]
    fn pipelined_alltoall_hides_wire_behind_fft_work() {
        let mk = |overlap: bool| {
            let mut r = OpRecording::new();
            r.work(Stage::NonLinear, WorkItem::FftBatch { len: 64, batch: 20_000 });
            r.comm(Stage::NonLinear, slab(12 * 65536, 8, 12, overlap));
            r
        };
        let m = machine(MachineId::Muses);
        let net = cluster(NetId::RoadRunnerEth);
        let blocking = replay(&mk(false), &m, &net, 8);
        let pipelined = replay(&mk(true), &m, &net, 8);
        assert!(
            pipelined.wall.total() < blocking.wall.total(),
            "overlap credit should shrink wall: {} vs {}",
            pipelined.wall.total(),
            blocking.wall.total()
        );
        assert!(pipelined.wall.total() >= pipelined.cpu.total() - 1e-15);
        // CPU is honest: the pipelined split pays *more* protocol
        // overhead (one per-round charge per field), never less.
        assert!(pipelined.cpu.total() >= blocking.cpu.total());
    }

    #[test]
    fn overlapped_gs_hides_halo_behind_gemm_work() {
        // Many CG iterations of elemental work + halo exchange: with a
        // measured overlap fraction the exchange wall time is credited
        // against the stage's Gemm work, but never below the CPU floor.
        let mk = |overlap: f64| {
            let mut r = OpRecording::new();
            for _ in 0..50 {
                for _ in 0..64 {
                    r.work(Stage::PressureSolve, WorkItem::Gemm { m: 16, n: 4, k: 4 });
                }
                r.comm(
                    Stage::PressureSolve,
                    CommItem::GsExchange { neighbors: 6, bytes: 8 * 4096, overlap },
                );
            }
            r
        };
        let m = machine(MachineId::Muses);
        let net = cluster(NetId::RoadRunnerEth);
        let blocking = replay(&mk(0.0), &m, &net, 16);
        let overlapped = replay(&mk(0.8), &m, &net, 16);
        assert!(
            overlapped.wall.total() < blocking.wall.total(),
            "gs overlap credit should shrink wall: {} vs {}",
            overlapped.wall.total(),
            blocking.wall.total()
        );
        assert!(overlapped.wall.total() >= overlapped.cpu.total() - 1e-15);
        // CPU (protocol overhead) is identical: the same messages move.
        assert!((overlapped.cpu.total() - blocking.cpu.total()).abs() < 1e-15);
        // The credit is capped by overlap × gemm work: a tiny window
        // hides less than a wide one.
        let narrow = replay(&mk(1e-4), &m, &net, 16);
        assert!(narrow.wall.total() > overlapped.wall.total());
    }

    /// What the retired slab-only `Alltoall` item charged for one
    /// exchange of `block` bytes a pair on `p` ranks: P-1 pairwise
    /// rounds, XOR partners when p is a power of two and a ring
    /// otherwise, one send and one receive overhead of CPU per round.
    fn slab_alltoall_reference(block: usize, net: &ClusterNetwork, p: usize) -> (f64, f64) {
        let (mut cpu, mut wall) = (0.0, 0.0);
        for step in 1..p {
            let pairs: Vec<(usize, usize)> = if p.is_power_of_two() {
                (0..p).filter(|&i| i < i ^ step).map(|i| (i, i ^ step)).collect()
            } else {
                (0..p).map(|i| (i, (i + step) % p)).collect()
            };
            wall += net.round_time(&pairs, block);
            cpu += 2.0 * net.inter.overhead_us * 1e-6;
        }
        (cpu, wall)
    }

    #[test]
    fn a_one_column_transpose_charges_the_slab_alltoall_bit_for_bit() {
        // Blocking: one exchange of the whole block. Pipelined: `fields`
        // exchanges of a 1/fields share each (rounded up), as the retired
        // `AlltoallPipelined` item charged them.
        let bits = |(c, w): (f64, f64)| (c.to_bits(), w.to_bits());
        for net in [cluster(NetId::RoadRunnerMyr), cluster(NetId::RoadRunnerEth)] {
            for p in [1usize, 4, 6, 8] {
                for block in [65536usize, 12 * 65536 + 5] {
                    let (c, w) = slab_alltoall_reference(block, &net, p);
                    let got = comm_time(&slab(block, p, 12, false), &net, p);
                    assert_eq!(bits(got), bits((c, w)), "p = {p}, {block} B blocking");
                    for nf in [3usize, 12] {
                        let (c, w) = slab_alltoall_reference(block.div_ceil(nf), &net, p);
                        let want = (c * nf as f64, w * nf as f64);
                        let got = comm_time(&slab(block, p, nf, true), &net, p);
                        assert_eq!(bits(got), bits(want), "p = {p}, {block} B in {nf} fields");
                    }
                }
            }
        }
    }

    #[test]
    fn pencil_row_stage_adds_cost_and_pipelining_earns_credit() {
        let net = cluster(NetId::RoadRunnerMyr);
        let col_only = comm_time(
            &CommItem::Transpose {
                col_block_bytes: 65536,
                row_block_bytes: 0,
                pr: 4,
                pc: 4,
                fields: 3,
                pipelined: false,
            },
            &net,
            16,
        );
        let both = comm_time(
            &CommItem::Transpose {
                col_block_bytes: 65536,
                row_block_bytes: 65536,
                pr: 4,
                pc: 4,
                fields: 3,
                pipelined: false,
            },
            &net,
            16,
        );
        assert!(both.1 > col_only.1);
        assert!(both.0 > col_only.0);

        // Pipelined pencil transposes hide wire time behind same-stage
        // FFT work, exactly like the slab pipeline.
        let mk = |pipelined: bool| {
            let mut r = OpRecording::new();
            r.work(Stage::NonLinear, WorkItem::FftBatch { len: 64, batch: 20_000 });
            r.comm(
                Stage::NonLinear,
                CommItem::Transpose {
                    col_block_bytes: 12 * 65536,
                    row_block_bytes: 12 * 65536,
                    pr: 4,
                    pc: 4,
                    fields: 12,
                    pipelined,
                },
            );
            r
        };
        let m = machine(MachineId::Muses);
        let blocking = replay(&mk(false), &m, &net, 16);
        let pipelined = replay(&mk(true), &m, &net, 16);
        assert!(pipelined.wall.total() < blocking.wall.total());
        assert!(pipelined.wall.total() >= pipelined.cpu.total() - 1e-15);
    }

    #[test]
    fn alltoall_wall_grows_with_ranks_on_shared_fabric() {
        let net = cluster(NetId::RoadRunnerEth);
        let w4 = comm_time(&slab(65536, 4, 1, false), &net, 4).1;
        let w16 = comm_time(&slab(65536, 16, 1, false), &net, 16).1;
        assert!(w16 > 3.0 * w4, "{w16} vs {w4}");
    }
}
