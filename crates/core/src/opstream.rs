//! Operation-stream recording: the bridge between the native solvers and
//! the 1999-machine models (DESIGN.md §2).
//!
//! The solvers emit one [`WorkItem`] per computational kernel invocation
//! and one [`CommItem`] per communication operation, each tagged with the
//! paper's [`Stage`]. `replay` charges the stream against an
//! `nkt-machine` CPU model and an `nkt-net` network model to produce the
//! cross-machine application timings (Tables 1–3, Figures 12–16) that we
//! cannot measure natively.

use crate::timers::Stage;
use nkt_spectral::{Discretization, HelmholtzProblem, SolveShape};

/// One computational kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkItem {
    /// A streaming vector operation: `flops` floating ops over `bytes` of
    /// traffic with resident working set `ws` bytes (dcopy/daxpy/vmul
    /// class).
    Stream {
        /// Floating-point operations.
        flops: f64,
        /// Bytes moved.
        bytes: f64,
        /// Working-set size in bytes (selects the cache level).
        ws: usize,
    },
    /// Forward/backward substitution with a banded Cholesky factor of
    /// order `n`, semi-bandwidth `kd`.
    BandedSolve {
        /// Matrix order.
        n: usize,
        /// Semi-bandwidth.
        kd: usize,
    },
    /// A batch of 1-D FFTs.
    FftBatch {
        /// Transform length.
        len: usize,
        /// Number of transforms.
        batch: usize,
    },
    /// Dense matrix multiply m × k by k × n (elemental operators; paper:
    /// "most of the calls to dgemm ... are for small n").
    Gemm {
        /// Rows of the result.
        m: usize,
        /// Columns of the result.
        n: usize,
        /// Inner dimension.
        k: usize,
    },
}

impl WorkItem {
    /// Floating-point operations the item stands for.
    pub fn flops(&self) -> f64 {
        match *self {
            WorkItem::Stream { flops, .. } => flops,
            WorkItem::BandedSolve { n, kd } => 4.0 * n as f64 * (kd + 1) as f64,
            WorkItem::FftBatch { len, batch } => {
                5.0 * len as f64 * (len as f64).log2().max(1.0) * batch as f64
            }
            WorkItem::Gemm { m, n, k } => 2.0 * (m * n * k) as f64,
        }
    }
}

/// What `nrhs` right-hand sides through one direct solve of `prob`
/// execute ([`HelmholtzProblem::solve_banded_in_place`]), in the replay
/// model's units: a sweep of the boundary band per right-hand side and,
/// per element with interior modes, the interior elimination and
/// back-substitution (two triangular solves with its nᵢ × nᵢ factor, each
/// charged as a dense product) and the two coupling products,
/// (A_ii⁻¹A_ib)ᵀ·f_i on the way in and (A_ii⁻¹A_ib)·u_b on the way out.
/// The one place a native solve's shape becomes work items.
pub fn direct_solve_items(
    prob: &HelmholtzProblem,
    nrhs: usize,
) -> impl Iterator<Item = WorkItem> + '_ {
    let SolveShape { nboundary, kd } = prob.solve_shape();
    let sweeps = (0..nrhs).map(move |_| WorkItem::BandedSolve { n: nboundary, kd });
    let interiors = (0..prob.mesh.nelems()).flat_map(move |ei| {
        let ni = prob.asm.interior(ei).len();
        let nb = prob.asm.elem_dofs[ei].len() - ni;
        [
            WorkItem::Gemm { m: ni, n: 2 * nrhs, k: ni },
            WorkItem::Gemm { m: nb, n: nrhs, k: ni },
            WorkItem::Gemm { m: ni, n: nrhs, k: nb },
        ]
        .into_iter()
        .filter(move |_| ni > 0)
    });
    sweeps.chain(interiors)
}

/// The arguments of a `banded_solve` kernel span around that solve: the
/// boundary system's order and semi-bandwidth, the right-hand sides, and
/// the flops of everything [`direct_solve_items`] lists.
pub fn direct_solve_span_args(prob: &HelmholtzProblem, nrhs: usize) -> [(&'static str, f64); 4] {
    let SolveShape { nboundary, kd } = prob.solve_shape();
    let flops = direct_solve_items(prob, nrhs).map(|item| item.flops()).sum();
    [("n", nboundary as f64), ("kd", kd as f64), ("solves", nrhs as f64), ("flops", flops)]
}

/// One communication operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CommItem {
    /// One NekTar-F transpose on a `pr × pc` process grid (DESIGN.md
    /// §13): a column-communicator alltoall (groups of `pr`, one per grid
    /// column, all columns concurrent on the fabric) followed by a
    /// row-communicator alltoall (groups of `pc`, one per row). A `pr × 1`
    /// grid is the paper's slab: one world `MPI_Alltoall`, no row stage.
    /// `row_block_bytes = 0` also means no row stage: the forward
    /// transpose needs none because modes are replicated within a row.
    ///
    /// A stage with a 0-byte block charges nothing, where the slab-only
    /// `Alltoall` item this replaced charged its latency. No caller
    /// records a 0-byte column block.
    Transpose {
        /// Total per-pair bytes of the column exchange (all fields).
        col_block_bytes: usize,
        /// Total per-pair bytes of the row exchange (all fields; 0 = no
        /// row stage).
        row_block_bytes: usize,
        /// Process-grid rows (mode-owning groups).
        pr: usize,
        /// Process-grid columns (replicas per mode block).
        pc: usize,
        /// Number of per-field exchanges the transfer is split into.
        fields: usize,
        /// Split into `fields` back-to-back nonblocking exchanges of
        /// `1/fields` of each block, pipelined against the per-field FFT
        /// work recorded in the same stage (DESIGN.md §11): replay may
        /// hide `(fields-1)/fields` of the wall time behind that work.
        pipelined: bool,
    },
    /// Global reduction of `bytes` payload.
    Allreduce {
        /// Payload size in bytes.
        bytes: usize,
    },
    /// Gather-scatter halo exchange: `neighbors` pairwise messages of
    /// `bytes` each.
    GsExchange {
        /// Number of neighbour ranks.
        neighbors: usize,
        /// Bytes per neighbour message.
        bytes: usize,
        /// Measured fraction of same-stage elemental work available to
        /// hide the exchange behind (the split-phase window): 0.0 =
        /// blocking, interior-work share of the element schedule when
        /// overlapped. Replay credits min(gs wall, overlap × gemm work).
        overlap: f64,
    },
}

/// A recorded time step (or any instrumented region).
#[derive(Debug, Clone, Default)]
pub struct OpRecording {
    /// Kernel invocations with their stage tags.
    pub work: Vec<(Stage, WorkItem)>,
    /// Communication operations with their stage tags.
    pub comm: Vec<(Stage, CommItem)>,
}

impl OpRecording {
    /// Creates an empty recording.
    pub fn new() -> OpRecording {
        OpRecording::default()
    }

    /// Records a kernel invocation.
    pub fn work(&mut self, stage: Stage, item: WorkItem) {
        self.work.push((stage, item));
    }

    /// Records a communication operation.
    pub fn comm(&mut self, stage: Stage, item: CommItem) {
        self.comm.push((stage, item));
    }

    /// Total recorded flops.
    pub fn total_flops(&self) -> f64 {
        self.work.iter().map(|(_, w)| w.flops()).sum()
    }

    /// Number of transposes recorded (one counts once, not per field or
    /// per stage).
    pub fn alltoall_count(&self) -> usize {
        self.comm.iter().filter(|(_, c)| matches!(c, CommItem::Transpose { .. })).count()
    }
}

/// A sink the solvers write into: either a live recorder or disabled
/// (zero overhead beyond a branch).
#[derive(Debug, Default)]
pub struct Recorder {
    /// The recording being built, if enabled.
    pub rec: Option<OpRecording>,
}

impl Recorder {
    /// An enabled recorder.
    pub fn enabled() -> Recorder {
        Recorder { rec: Some(OpRecording::new()) }
    }

    /// A disabled recorder.
    pub fn disabled() -> Recorder {
        Recorder { rec: None }
    }

    /// Records a kernel invocation if enabled.
    #[inline]
    pub fn work(&mut self, stage: Stage, item: WorkItem) {
        if let Some(r) = &mut self.rec {
            r.work(stage, item);
        }
    }

    /// If enabled, records `item(nm, nq)` once per element of `disc`, in
    /// element order: what the replay charges for one plane kernel over
    /// elements of `nm` modes and `nq` quadrature points. The callers
    /// pass `Gemm { m: nq, n, k: nm }`: the 1999 model's dense-transform
    /// charge, not a count of what runs — the native kernel
    /// sum-factorises a quadrilateral and executes 330 of its 900
    /// multiply-adds at order 4, 1 710 of 8 100 at order 8 (DESIGN §7).
    pub fn work_per_elem(
        &mut self,
        disc: &Discretization,
        stage: Stage,
        item: impl Fn(usize, usize) -> WorkItem,
    ) {
        let Some(rec) = &mut self.rec else { return };
        for ei in 0..disc.mesh.nelems() {
            let basis = disc.basis(ei);
            rec.work(stage, item(basis.nmodes(), basis.nquad()));
        }
    }

    /// If enabled, records `nrhs` right-hand sides through one direct
    /// solve of `prob` ([`direct_solve_items`]).
    pub fn direct_solve(&mut self, stage: Stage, prob: &HelmholtzProblem, nrhs: usize) {
        let Some(rec) = &mut self.rec else { return };
        for item in direct_solve_items(prob, nrhs) {
            rec.work(stage, item);
        }
    }

    /// Records a communication op if enabled.
    #[inline]
    pub fn comm(&mut self, stage: Stage, item: CommItem) {
        if let Some(r) = &mut self.rec {
            r.comm(stage, item);
        }
    }

    /// Takes the recording out.
    pub fn take(&mut self) -> Option<OpRecording> {
        self.rec.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_accumulates() {
        let mut r = Recorder::enabled();
        r.work(Stage::NonLinear, WorkItem::Stream { flops: 100.0, bytes: 800.0, ws: 800 });
        r.work(Stage::PressureSolve, WorkItem::BandedSolve { n: 10, kd: 2 });
        r.comm(Stage::NonLinear, CommItem::Allreduce { bytes: 8 });
        let rec = r.take().unwrap();
        assert_eq!(rec.work.len(), 2);
        assert_eq!(rec.comm.len(), 1);
        assert_eq!(rec.alltoall_count(), 0);
        assert_eq!(rec.total_flops(), 100.0 + 4.0 * 10.0 * 3.0);
    }

    #[test]
    fn pipelined_transpose_counts_as_one_alltoall() {
        let mut r = Recorder::enabled();
        for (pc, row_block_bytes, pipelined) in [(1, 0, false), (1, 0, true), (2, 8192, true)] {
            r.comm(
                Stage::NonLinear,
                CommItem::Transpose {
                    col_block_bytes: 4096,
                    row_block_bytes,
                    pr: 4,
                    pc,
                    fields: 12,
                    pipelined,
                },
            );
        }
        r.comm(Stage::PressureSolve, CommItem::Allreduce { bytes: 8 });
        assert_eq!(r.take().unwrap().alltoall_count(), 3);
    }

    #[test]
    fn disabled_recorder_is_noop() {
        let mut r = Recorder::disabled();
        r.work(Stage::NonLinear, WorkItem::Gemm { m: 2, n: 2, k: 2 });
        assert!(r.take().is_none());
    }
}
