//! Decomposition-generic transpose layer for NekTar-F (DESIGN.md §13).
//!
//! The paper's NekTar-F distributes Fourier modes over processors and
//! performs the nonlinear step through a Global Exchange (transpose).
//! The classic 1-D **slab** decomposition caps the rank count at the
//! mode count (P ≤ nz/2). This module abstracts the transpose behind
//! the [`Decomposition`] trait so the solver runs unchanged on either:
//!
//! * [`Slab`] — every rank owns a contiguous mode block; one world
//!   `MPI_Alltoall` per direction (the paper's layout, Table 2);
//! * [`Pencil2D`] — a `pr × pc` process grid (world rank = `row·pc +
//!   col`). Mode blocks are owned by grid *rows* and replicated across
//!   each row's `pc` columns, while physical points are chunked over
//!   **all** `pr·pc` ranks. The global transpose becomes two smaller
//!   sub-communicator exchanges (column stage, then row stage), and the
//!   FFT batch per rank shrinks by `pc` — scaling past P = nz.
//!
//! Pencil exchange structure (backward, physical → modes):
//!
//! 1. every rank forward-FFTs its own point chunk and scatters the mode
//!    coefficients over its **column** communicator (group rank = grid
//!    row), so it ends up holding its row's modes at the chunks of its
//!    column's ranks;
//! 2. a **row**-communicator allgather (phrased as an alltoall whose
//!    blocks are identical) fills in the chunks of the other columns,
//!    leaving every rank with full planes for its row's modes.
//!
//! The forward transpose needs only the column stage: the modes a rank
//! must inverse-FFT at its points are exactly one block from each
//! column peer, and mode replication within rows means no row exchange
//! is required (the row stage degenerates — recorded honestly as
//! `row_block_bytes = 0`).
//!
//! Both decompositions produce **bitwise identical** state: physical
//! values are pointwise copies of the same mode data, the per-point FFT
//! arithmetic does not depend on which rank executes it, and the
//! assembled planes are permutation-free reassemblies. A pencil rank
//! `(r, c)` therefore hashes identically to slab rank `r` at the same
//! `pr` (see `tests/pencil_equiv.rs`).

use crate::opstream::{CommItem, Recorder, WorkItem};
use crate::timers::Stage;
use nkt_fft::{Complex64, RealFft};
use nkt_mpi::prelude::*;
use std::fmt;
use std::ops::Range;

/// Modeled virtual seconds for a batch of 1-D FFTs: 5 N log₂N flops per
/// transform at a nominal 100 Mflop/s nonlinear-stage rate. Charged via
/// [`Comm::advance`] in *both* transpose paths so the pipelined exchange
/// has compute to hide wire time behind while `busy` stays identical.
pub(crate) fn fft_virtual_secs(len: usize, batch: usize) -> f64 {
    5.0 * len as f64 * (len as f64).log2().max(1.0) * batch as f64 / 1e8
}

/// Runs one field's host-side FFT work (pack or unpack closure) inside
/// a `kernel`-cat span carrying the modeled flop count, then charges
/// the modeled virtual seconds. The span's host duration measures the
/// real transform work, so `nkt-calib` can put measured next to modeled
/// for the FFT kernel family.
pub(crate) fn fft_kernel<T>(
    comm: &mut Comm,
    len: usize,
    batch: usize,
    work: impl FnOnce() -> T,
) -> T {
    let secs = fft_virtual_secs(len, batch);
    let sp = nkt_trace::span_v("fft", "kernel", comm.wtime());
    let out = work();
    comm.advance(secs);
    sp.end_v_args(
        comm.wtime(),
        &[("len", len as f64), ("batch", batch as f64), ("flops", secs * 1e8)],
    );
    out
}

/// Why a NekTar-F configuration cannot be decomposed — a reportable
/// error instead of an abort, covering both decompositions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FourierCfgError {
    /// `nz` must be even and at least 2 (modes = nz/2, Nyquist dropped).
    OddNz {
        /// The rejected plane count.
        nz: usize,
    },
    /// The mode count must divide evenly over the mode-owning ranks
    /// (slab: all P ranks; pencil: the `pr` grid rows).
    ModesNotDivisible {
        /// Fourier modes (nz/2).
        nmodes: usize,
        /// Mode-owning rank count.
        pr: usize,
    },
    /// The requested `pr × pc` grid does not tile the communicator.
    GridMismatch {
        /// Requested grid rows.
        pr: usize,
        /// Requested grid columns.
        pc: usize,
        /// Communicator size.
        p: usize,
    },
    /// An unparseable `PRxPC` grid specification.
    BadGridSpec {
        /// The rejected string.
        spec: String,
    },
}

impl fmt::Display for FourierCfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FourierCfgError::OddNz { nz } => {
                write!(f, "nz must be even and >= 2 (got {nz})")
            }
            FourierCfgError::ModesNotDivisible { nmodes, pr } => {
                write!(f, "modes ({nmodes}) must divide evenly over mode-owning ranks ({pr})")
            }
            FourierCfgError::GridMismatch { pr, pc, p } => {
                write!(f, "process grid {pr}x{pc} does not tile the {p}-rank communicator")
            }
            FourierCfgError::BadGridSpec { spec } => {
                write!(f, "bad grid spec {spec:?} (expected PRxPC, e.g. 4x2)")
            }
        }
    }
}

impl std::error::Error for FourierCfgError {}

/// Parses a `"PRxPC"` grid specification (a job file's `grid`; the
/// `NKT_GRID` format, through the same parser).
pub fn parse_grid(spec: &str) -> Result<(usize, usize), FourierCfgError> {
    nkt_trace::config::parse_grid(spec)
        .ok_or_else(|| FourierCfgError::BadGridSpec { spec: spec.to_string() })
}

/// Per-transpose solver context: what a [`Decomposition`] needs from
/// `NektarF` beyond its own layout. Passed by the caller so the
/// decomposition and the recorder can be borrowed disjointly.
pub struct TransposeCtx<'a> {
    /// Pipeline the exchanges against per-field FFT work.
    pub overlap: bool,
    /// Alltoall algorithm for the blocking path.
    pub algo: AlltoallAlgo,
    /// Model-replay recorder.
    pub recorder: &'a mut Recorder,
}

/// How Fourier modes and physical points are laid out over ranks, and
/// how to transpose between the two spaces. Implementations own their
/// exchange plan (sub-communicators, pack/unpack layouts, the z-FFT plan
/// and every buffer a transpose needs) and record the matching
/// [`CommItem`]s for model replay.
///
/// Both transposes fill caller buffers. With `mpp` owned modes, `nq`
/// points a plane, `npts` = [`Self::my_points`]`.len()` and `nz` planes,
/// a mode-space field is `mpp × 2 × nq` values, `[mode][cos | sin][point]`,
/// and a physical field is `npts × nz` values, `[point][z]`.
pub trait Decomposition: Send {
    /// Short name for diagnostics ("slab" / "pencil").
    fn name(&self) -> &'static str;

    /// `(rows, cols)` of the process grid (slab: `(P, 1)`).
    fn grid(&self) -> (usize, usize);

    /// Global mode indices this rank owns (contiguous).
    fn my_modes(&self) -> Range<usize>;

    /// True on exactly one rank per owned mode block (grid column 0).
    /// Replicated-mode diagnostics (energy sums, spectra) must only
    /// count primary contributions or they inflate by `pc`.
    fn is_primary(&self) -> bool;

    /// The quadrature points of a plane whose z-columns this rank holds
    /// in physical space.
    fn my_points(&self) -> Range<usize>;

    /// Mode-space fields → physical z-columns at this rank's chunk of
    /// quadrature points ("Global Exchange" + "Nxy 1D inverse FFTs").
    /// `phys` takes the `fields.len()` physical fields back to back.
    fn to_phys(
        &mut self,
        comm: &mut Comm,
        ctx: &mut TransposeCtx<'_>,
        fields: &[&[f64]],
        phys: &mut [f64],
    );

    /// Physical z-columns → mode-space fields, full planes for every
    /// owned mode ("Nxy 1D FFTs" + "Global Exchange" back). `phys` and
    /// `modes` hold the same number of fields back to back.
    fn to_modes(
        &mut self,
        comm: &mut Comm,
        ctx: &mut TransposeCtx<'_>,
        phys: &[f64],
        modes: &mut [f64],
    );
}

/// The ranks a mode exchange runs over.
enum Group<'a> {
    World,
    Sub(&'a mut SubComm),
}

impl Group<'_> {
    fn ialltoall(&mut self, comm: &mut Comm, send: &[f64], block: usize) -> AlltoallHandle {
        match self {
            Group::World => comm.ialltoall(send, block),
            Group::Sub(sub) => sub.ialltoall(comm, send, block),
        }
    }

    fn alltoall_with(
        &mut self,
        comm: &mut Comm,
        algo: AlltoallAlgo,
        send: &[f64],
        block: usize,
        recv: &mut [f64],
    ) {
        match self {
            Group::World => comm.alltoall_with(algo, send, block, recv),
            Group::Sub(sub) => sub.alltoall_with(comm, algo, send, block, recv),
        }
    }
}

/// What both decompositions keep between transposes: the exchange
/// layout, the z-FFT plan and every buffer — a transpose allocates
/// nothing of its own.
///
/// Modes are exchanged within a *group* of ranks (slab: the world;
/// pencil: a grid column), member `g` owning modes `[g·mpp, (g+1)·mpp)`.
/// An exchange block (`fblock` values) carries, per mode, a cos and a
/// sin run of `chunk` points, zero-padded where a rank's chunk is short.
struct Transposer {
    /// Members of the mode-exchange group.
    groups: usize,
    /// Grid columns: group member `g` holds the point chunk of world rank
    /// `g·cols + col` (slab: 1 and 0).
    cols: usize,
    col: usize,
    /// Modes per group member.
    mpp: usize,
    /// Points per world rank (the last chunks may be short or empty).
    chunk: usize,
    nq: usize,
    nz: usize,
    /// This rank's point chunk.
    pts: Range<usize>,
    fft: RealFft,
    spectrum: Vec<Complex64>,
    fft_scratch: Vec<Complex64>,
    send: Vec<f64>,
    recv: Vec<f64>,
    /// In-flight exchanges of the pipelined paths (empty between calls).
    handles: Vec<AlltoallHandle>,
}

impl Transposer {
    fn new(comm: &Comm, groups: usize, cols: usize, mpp: usize, nq: usize) -> Transposer {
        let chunk = nq.div_ceil(comm.size());
        let fft = RealFft::new(2 * groups * mpp);
        let mut t = Transposer {
            groups,
            cols,
            col: comm.rank() % cols,
            mpp,
            chunk,
            nq,
            nz: fft.len(),
            pts: 0..0,
            spectrum: vec![Complex64::ZERO; fft.spectrum_len()],
            fft_scratch: vec![Complex64::ZERO; fft.scratch_len()],
            fft,
            send: vec![0.0; groups * mpp * 2 * chunk],
            recv: vec![0.0; groups * mpp * 2 * chunk],
            handles: Vec::new(),
        };
        t.pts = t.points_of(comm.rank());
        t
    }

    /// Values one group member receives per field.
    fn fblock(&self) -> usize {
        self.mpp * 2 * self.chunk
    }

    /// The point chunk of world rank `w`.
    fn points_of(&self, w: usize) -> Range<usize> {
        (w * self.chunk).min(self.nq)..((w + 1) * self.chunk).min(self.nq)
    }

    /// Values of one physical field at this rank's points.
    fn phys_len(&self) -> usize {
        self.pts.len() * self.nz
    }

    /// Values of one mode-space field.
    fn modes_len(&self) -> usize {
        self.mpp * 2 * self.nq
    }

    /// Fills `send` with one mode-space field: to member `g`, my modes at
    /// the points of the rank it stands for.
    fn pack_phys(&mut self, field: &[f64]) {
        let (chunk, nq, fblock) = (self.chunk, self.nq, self.fblock());
        for g in 0..self.groups {
            let dest = self.points_of(g * self.cols + self.col);
            let block = &mut self.send[g * fblock..(g + 1) * fblock];
            for (run, plane) in block.chunks_exact_mut(chunk).zip(field.chunks_exact(nq)) {
                run[..dest.len()].copy_from_slice(&plane[dest.clone()]);
                run[dest.len()..].fill(0.0);
            }
        }
    }

    /// Inverse of [`mode_coeffs`] + inverse FFT of the field in `recv`:
    /// reassembles the spectrum at each of this rank's points from the
    /// per-member blocks and fills the physical z-columns `out`.
    fn unpack_phys(&mut self, out: &mut [f64]) {
        let (chunk, nz, nmodes) = (self.chunk, self.nz, self.groups * self.mpp);
        let Transposer { fft, spectrum, fft_scratch, recv, .. } = self;
        // Mode k's cos and sin runs start at k·2·chunk: member blocks are
        // contiguous and hold their modes in order.
        spectrum.fill(Complex64::ZERO);
        for (pt, column) in out.chunks_exact_mut(nz).enumerate() {
            for (k, (sp, runs)) in spectrum.iter_mut().zip(recv.chunks_exact(2 * chunk)).enumerate() {
                let (a, b) = (runs[pt], runs[chunk + pt]);
                *sp = if k == 0 {
                    Complex64::new(a * nz as f64, 0.0)
                } else {
                    Complex64::new(a * nz as f64 / 2.0, -b * nz as f64 / 2.0)
                };
            }
            debug_assert!(spectrum[nmodes] == Complex64::ZERO, "Nyquist stays dropped");
            fft.inverse_with(spectrum, column, fft_scratch);
        }
    }

    /// Forward FFT of one physical field at this rank's points into
    /// `send`: to member `g`, its modes at my points.
    fn pack_modes(&mut self, phys: &[f64]) {
        let (chunk, nz, npts) = (self.chunk, self.nz, self.pts.len());
        let Transposer { fft, spectrum, fft_scratch, send, .. } = self;
        for (pt, column) in phys.chunks_exact(nz).enumerate() {
            fft.forward_with(column, spectrum, fft_scratch);
            for (k, runs) in send.chunks_exact_mut(2 * chunk).enumerate() {
                (runs[pt], runs[chunk + pt]) = mode_coeffs(spectrum, k, nz);
            }
        }
        if npts < chunk {
            for run in send.chunks_exact_mut(chunk) {
                run[npts..].fill(0.0);
            }
        }
    }

    /// Scatters one received field into the full planes `out`. `recv`
    /// holds, for each grid column `c2`, a group's worth of blocks:
    /// member `g` of that column sent my modes at the points of world
    /// rank `g·cols + c2`.
    fn unpack_modes(&self, recv: &[f64], out: &mut [f64]) {
        let (chunk, nq, rblock) = (self.chunk, self.nq, self.groups * self.fblock());
        for c2 in 0..self.cols {
            for g in 0..self.groups {
                let src = self.points_of(g * self.cols + c2);
                let block = &recv[c2 * rblock + g * self.fblock()..][..self.fblock()];
                for (run, plane) in block.chunks_exact(chunk).zip(out.chunks_exact_mut(nq)) {
                    plane[src.clone()].copy_from_slice(&run[..src.len()]);
                }
            }
        }
    }

    /// The forward transpose (modes → physical) both decompositions
    /// share: one exchange per field over `group` in both paths, so their
    /// `busy` ledgers match message for message. With `overlap` on, all
    /// field exchanges are posted up front and each field's inverse FFTs
    /// run while the later fields are still on the wire, hiding their
    /// transfer time in `wtime`.
    fn forward(
        &mut self,
        comm: &mut Comm,
        ctx: &mut TransposeCtx<'_>,
        mut group: Group<'_>,
        fields: &[&[f64]],
        phys: &mut [f64],
    ) {
        let (fblock, nz, npts, plen) = (self.fblock(), self.nz, self.pts.len(), self.phys_len());
        assert_eq!(phys.len(), fields.len() * plen, "to_phys: one physical field per mode field");
        let mut unpack = |t: &mut Transposer, comm: &mut Comm, fi: usize| {
            fft_kernel(comm, nz, npts, || t.unpack_phys(&mut phys[fi * plen..(fi + 1) * plen]));
            ctx.recorder.work(Stage::NonLinear, WorkItem::FftBatch { len: nz, batch: npts });
        };
        if ctx.overlap {
            let mut handles = std::mem::take(&mut self.handles);
            for field in fields {
                self.pack_phys(field);
                handles.push(group.ialltoall(comm, &self.send, fblock));
            }
            for (fi, h) in handles.drain(..).enumerate() {
                comm.alltoall_finish(h, &mut self.recv);
                unpack(self, comm, fi);
            }
            self.handles = handles;
        } else {
            for (fi, field) in fields.iter().enumerate() {
                self.pack_phys(field);
                group.alltoall_with(comm, ctx.algo, &self.send, fblock, &mut self.recv);
                unpack(self, comm, fi);
            }
        }
    }

    /// Forward-FFTs field `fi` of `phys` into `send`, as a timed and
    /// recorded FFT batch.
    fn pack_modes_field(
        &mut self,
        comm: &mut Comm,
        ctx: &mut TransposeCtx<'_>,
        phys: &[f64],
        fi: usize,
    ) {
        let (nz, npts, plen) = (self.nz, self.pts.len(), self.phys_len());
        fft_kernel(comm, nz, npts, || self.pack_modes(&phys[fi * plen..(fi + 1) * plen]));
        ctx.recorder.work(Stage::NonLinear, WorkItem::FftBatch { len: nz, batch: npts });
    }
}

/// The paper's 1-D decomposition: rank `r` of `P` owns modes
/// `[r·nmodes/P, (r+1)·nmodes/P)`; each transpose is one world
/// alltoall (blocking or pipelined per field).
pub struct Slab {
    my_modes: Range<usize>,
    t: Transposer,
}

impl Slab {
    /// Block-distributes `nmodes` over the world ("a straightforward
    /// mapping of Fourier modes to P processors") for planes of
    /// `nq_total` quadrature points.
    pub fn new(comm: &Comm, nmodes: usize, nq_total: usize) -> Result<Slab, FourierCfgError> {
        let p = comm.size();
        if !nmodes.is_multiple_of(p) {
            return Err(FourierCfgError::ModesNotDivisible { nmodes, pr: p });
        }
        let mpp = nmodes / p;
        Ok(Slab {
            my_modes: comm.rank() * mpp..(comm.rank() + 1) * mpp,
            t: Transposer::new(comm, p, 1, mpp, nq_total),
        })
    }
}

impl Decomposition for Slab {
    fn name(&self) -> &'static str {
        "slab"
    }

    fn grid(&self) -> (usize, usize) {
        (self.t.groups, 1)
    }

    fn my_modes(&self) -> Range<usize> {
        self.my_modes.clone()
    }

    fn is_primary(&self) -> bool {
        true
    }

    fn my_points(&self) -> Range<usize> {
        self.t.pts.clone()
    }

    fn to_phys(
        &mut self,
        comm: &mut Comm,
        ctx: &mut TransposeCtx<'_>,
        fields: &[&[f64]],
        phys: &mut [f64],
    ) {
        // Per-field exchange block (the classic layout's nf·fblock total
        // is split into nf exchanges of fblock each).
        let (nf, fblock) = (fields.len(), self.t.fblock());
        ctx.recorder.comm(
            Stage::NonLinear,
            if ctx.overlap {
                CommItem::AlltoallPipelined { block_bytes: 8 * nf * fblock, fields: nf }
            } else {
                CommItem::Alltoall { block_bytes: 8 * nf * fblock }
            },
        );
        self.t.forward(comm, ctx, Group::World, fields, phys);
    }

    /// Mirror of [`Slab::to_phys`]: one exchange per field in both
    /// paths. With `overlap` on, each field's exchange is posted as soon
    /// as its forward FFTs finish, so the wire time of field `i` hides
    /// under the FFT work of fields `i+1..`.
    fn to_modes(
        &mut self,
        comm: &mut Comm,
        ctx: &mut TransposeCtx<'_>,
        phys: &[f64],
        modes: &mut [f64],
    ) {
        let t = &mut self.t;
        let (fblock, mlen) = (t.fblock(), t.modes_len());
        let nf = modes.len() / mlen;
        assert_eq!(phys.len(), nf * t.phys_len(), "to_modes: one physical field per mode field");
        ctx.recorder.comm(
            Stage::NonLinear,
            if ctx.overlap {
                CommItem::AlltoallPipelined { block_bytes: 8 * nf * fblock, fields: nf }
            } else {
                CommItem::Alltoall { block_bytes: 8 * nf * fblock }
            },
        );
        if ctx.overlap {
            let mut handles = std::mem::take(&mut t.handles);
            for fi in 0..nf {
                t.pack_modes_field(comm, ctx, phys, fi);
                handles.push(comm.ialltoall(&t.send, fblock));
            }
            for (h, out) in handles.drain(..).zip(modes.chunks_exact_mut(mlen)) {
                comm.alltoall_finish(h, &mut t.recv);
                t.unpack_modes(&t.recv, out);
            }
            t.handles = handles;
        } else {
            for (fi, out) in modes.chunks_exact_mut(mlen).enumerate() {
                t.pack_modes_field(comm, ctx, phys, fi);
                comm.alltoall_with(ctx.algo, &t.send, fblock, &mut t.recv);
                t.unpack_modes(&t.recv, out);
            }
        }
    }
}

/// The 2-D pencil decomposition (module docs): modes are owned by grid
/// rows and replicated over each row's columns; points are chunked over
/// all ranks; transposes are column-stage (+ row-stage) sub-communicator
/// exchanges. `pr × 1` reproduces the slab bitwise; `pc > 1` lifts the
/// P ≤ nz/2 cap.
pub struct Pencil2D {
    pr: usize,
    pc: usize,
    my_modes: Range<usize>,
    /// Ranks sharing this grid column; group rank = grid row.
    col_comm: SubComm,
    /// Ranks sharing this grid row; group rank = grid column.
    row_comm: SubComm,
    /// Column-stage plan and buffers.
    t: Transposer,
    /// Row-stage buffers: `pc` copies of a column-stage receive, and the
    /// `pc` column-stage receives of this row.
    row_send: Vec<f64>,
    row_recv: Vec<f64>,
    row_handles: Vec<AlltoallHandle>,
}

impl Pencil2D {
    /// Builds the process grid, its row/column sub-communicators and
    /// the transpose plan for planes of `nq_total` quadrature points.
    /// Collective over `comm` (two `MPI_Comm_split`s, posted column
    /// first on every rank).
    pub fn new(
        comm: &mut Comm,
        pr: usize,
        pc: usize,
        nmodes: usize,
        nq_total: usize,
    ) -> Result<Pencil2D, FourierCfgError> {
        let p = comm.size();
        if pr == 0 || pc == 0 || pr * pc != p {
            return Err(FourierCfgError::GridMismatch { pr, pc, p });
        }
        if !nmodes.is_multiple_of(pr) {
            return Err(FourierCfgError::ModesNotDivisible { nmodes, pr });
        }
        let row = comm.rank() / pc;
        let col = comm.rank() % pc;
        let col_comm = comm.split_labeled(col, row, "col");
        let row_comm = comm.split_labeled(row, col, "row");
        let mpr = nmodes / pr;
        let t = Transposer::new(comm, pr, pc, mpr, nq_total);
        let rblock = pr * t.fblock();
        Ok(Pencil2D {
            pr,
            pc,
            my_modes: row * mpr..(row + 1) * mpr,
            col_comm,
            row_comm,
            t,
            row_send: vec![0.0; pc * rblock],
            row_recv: vec![0.0; pc * rblock],
            row_handles: Vec::new(),
        })
    }

    /// Copies the column-stage receive into every block of `row_send`.
    fn replicate(&mut self) {
        for block in self.row_send.chunks_exact_mut(self.t.recv.len()) {
            block.copy_from_slice(&self.t.recv);
        }
    }
}

impl Decomposition for Pencil2D {
    fn name(&self) -> &'static str {
        "pencil"
    }

    fn grid(&self) -> (usize, usize) {
        (self.pr, self.pc)
    }

    fn my_modes(&self) -> Range<usize> {
        self.my_modes.clone()
    }

    fn is_primary(&self) -> bool {
        self.t.col == 0
    }

    fn my_points(&self) -> Range<usize> {
        self.t.pts.clone()
    }

    /// Forward transpose: one column-stage exchange. The block sent to
    /// column peer `r` holds this rank's modes at the point chunk of
    /// world rank `(r, my col)`; conversely each received block
    /// contributes one row's mode block at my points, so the union over
    /// column peers covers the full spectrum. No row stage (module
    /// docs) — recorded as `row_block_bytes = 0`.
    fn to_phys(
        &mut self,
        comm: &mut Comm,
        ctx: &mut TransposeCtx<'_>,
        fields: &[&[f64]],
        phys: &mut [f64],
    ) {
        ctx.recorder.comm(
            Stage::NonLinear,
            CommItem::AlltoallPencil {
                col_block_bytes: 8 * fields.len() * self.t.fblock(),
                row_block_bytes: 0,
                pr: self.pr,
                pc: self.pc,
                fields: fields.len(),
                pipelined: ctx.overlap,
            },
        );
        self.t.forward(comm, ctx, Group::Sub(&mut self.col_comm), fields, phys);
    }

    /// Backward transpose: column stage then row stage. The column
    /// receive buffer already has the row-stage block layout — offset
    /// `(r·mpr + mi)·2·chunk` holds mode `mi` at the chunk of world
    /// rank `(r, my col)` — so the row stage sends that buffer verbatim
    /// to every row peer (an allgather phrased as an alltoall with
    /// identical blocks). With `overlap` on the two stages pipeline per
    /// field: field `i`'s column exchange hides under the FFT packing
    /// of fields `i+1..`, and its row exchange under the later fields'
    /// column completions.
    fn to_modes(
        &mut self,
        comm: &mut Comm,
        ctx: &mut TransposeCtx<'_>,
        phys: &[f64],
        modes: &mut [f64],
    ) {
        let (fblock, mlen) = (self.t.fblock(), self.t.modes_len());
        let rblock = self.pr * fblock;
        let nf = modes.len() / mlen;
        assert_eq!(phys.len(), nf * self.t.phys_len(), "to_modes: one physical field per mode field");
        ctx.recorder.comm(
            Stage::NonLinear,
            CommItem::AlltoallPencil {
                col_block_bytes: 8 * nf * fblock,
                row_block_bytes: 8 * nf * rblock,
                pr: self.pr,
                pc: self.pc,
                fields: nf,
                pipelined: ctx.overlap,
            },
        );
        if ctx.overlap {
            let mut col_handles = std::mem::take(&mut self.t.handles);
            for fi in 0..nf {
                self.t.pack_modes_field(comm, ctx, phys, fi);
                col_handles.push(self.col_comm.ialltoall(comm, &self.t.send, fblock));
            }
            for h in col_handles.drain(..) {
                comm.alltoall_finish(h, &mut self.t.recv);
                self.replicate();
                self.row_handles.push(self.row_comm.ialltoall(comm, &self.row_send, rblock));
            }
            self.t.handles = col_handles;
            for (h, out) in self.row_handles.drain(..).zip(modes.chunks_exact_mut(mlen)) {
                comm.alltoall_finish(h, &mut self.row_recv);
                self.t.unpack_modes(&self.row_recv, out);
            }
        } else {
            for (fi, out) in modes.chunks_exact_mut(mlen).enumerate() {
                self.t.pack_modes_field(comm, ctx, phys, fi);
                self.col_comm.alltoall_with(comm, ctx.algo, &self.t.send, fblock, &mut self.t.recv);
                self.replicate();
                self.row_comm.alltoall_with(comm, ctx.algo, &self.row_send, rblock, &mut self.row_recv);
                self.t.unpack_modes(&self.row_recv, out);
            }
        }
    }
}

/// The (cos, sin) coefficients of Fourier mode `k` in the forward
/// spectrum `sp` of `nz` real samples, in the solver's plane convention
/// (`k = 0` carries the mean and has no sine part; Nyquist dropped).
#[inline]
pub(crate) fn mode_coeffs(sp: &[Complex64], k: usize, nz: usize) -> (f64, f64) {
    if k == 0 {
        (sp[0].re / nz as f64, 0.0)
    } else {
        (2.0 * sp[k].re / nz as f64, -2.0 * sp[k].im / nz as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_spec_parses_and_rejects() {
        assert_eq!(parse_grid("4x2"), Ok((4, 2)));
        assert_eq!(parse_grid("1X8"), Ok((1, 8)));
        assert_eq!(parse_grid(" 2 x 3 "), Ok((2, 3)));
        for bad in ["", "4", "x2", "4x", "0x2", "4x0", "axb", "4x2x1"] {
            assert!(parse_grid(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn cfg_errors_display_their_parameters() {
        let cases: Vec<(FourierCfgError, &[&str])> = vec![
            (FourierCfgError::OddNz { nz: 7 }, &["7", "even"]),
            (FourierCfgError::ModesNotDivisible { nmodes: 4, pr: 3 }, &["4", "3"]),
            (FourierCfgError::GridMismatch { pr: 4, pc: 2, p: 6 }, &["4x2", "6"]),
            (FourierCfgError::BadGridSpec { spec: "blob".into() }, &["blob"]),
        ];
        for (err, needles) in cases {
            let msg = err.to_string();
            for n in needles {
                assert!(msg.contains(n), "{msg:?} should mention {n:?}");
            }
        }
    }
}
