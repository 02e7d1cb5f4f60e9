//! NekTar-F's process grid and its transposes (DESIGN.md §13).
//!
//! The paper's NekTar-F distributes Fourier modes over processors and
//! performs the nonlinear step through a Global Exchange (transpose).
//! One [`Grid`] of `pr × pc` ranks (world rank = `row·pc + col`) is the
//! only decomposition:
//!
//! * `pc = 1` is the paper's **slab** (Table 2): rank `r` owns a
//!   contiguous mode block and each transpose is one world
//!   `MPI_Alltoall` per field. The slab caps the rank count at the mode
//!   count (P ≤ nz/2).
//! * `pc > 1` is the 2-D **pencil**: mode blocks are owned by grid
//!   *rows* and replicated across each row's `pc` columns, while physical
//!   points are chunked over **all** `pr·pc` ranks. The transpose becomes
//!   two smaller sub-communicator exchanges (column stage, then row
//!   stage), and the FFT batch per rank shrinks by `pc` — scaling past
//!   P = nz.
//!
//! Exchange structure (backward, physical → modes):
//!
//! 1. every rank forward-FFTs its own point chunk and scatters the mode
//!    coefficients over its **column** (group rank = grid row; the world
//!    on a slab), so it ends up holding its row's modes at the chunks of
//!    its column's ranks;
//! 2. on a pencil, a **row**-communicator allgather (phrased as an
//!    alltoall whose blocks are identical) fills in the chunks of the
//!    other columns, leaving every rank with full planes for its row's
//!    modes. A slab has no row stage.
//!
//! The forward transpose needs only the column stage: the modes a rank
//! must inverse-FFT at its points are exactly one block from each
//! column peer, and mode replication within rows means no row exchange
//! is required (recorded honestly as `row_block_bytes = 0`).
//!
//! Every grid of the same `pr` produces **bitwise identical** state:
//! physical values are pointwise copies of the same mode data, the
//! per-point FFT arithmetic does not depend on which rank executes it
//! nor on which lane of a [`LANES`]-point block carries the point, and
//! the assembled planes are permutation-free reassemblies. Rank `(r, c)`
//! therefore hashes identically to slab rank `r` (see
//! `tests/pencil_equiv.rs`).

use crate::opstream::{CommItem, Recorder, WorkItem};
use crate::timers::Stage;
use nkt_blas::isa::{dispatch, Kernel};
use nkt_fft::RealFft;
use nkt_mpi::prelude::*;
use std::array::from_fn;
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
/// real transform work, so the calibration (`nkt-prof`) can put measured
/// next to modeled for the FFT kernel family.
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
/// error instead of an abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FourierCfgError {
    /// `nz` must be even and at least 2 (modes = nz/2, Nyquist dropped).
    OddNz {
        /// The rejected plane count.
        nz: usize,
    },
    /// The mode count must divide evenly over the `pr` grid rows (on a
    /// slab, over all P ranks).
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

/// Parses a job file's `"PRxPC"` process grid (`4x2`, `1X8`, ` 2 x 3 `);
/// both factors must be positive.
pub fn parse_grid(spec: &str) -> Result<(usize, usize), FourierCfgError> {
    let factor = |f: &str| f.trim().parse().ok().filter(|&n: &usize| n > 0);
    spec.split_once(['x', 'X'])
        .and_then(|(a, b)| Some((factor(a)?, factor(b)?)))
        .ok_or_else(|| FourierCfgError::BadGridSpec { spec: spec.to_string() })
}

/// Per-transpose solver context: what a [`Grid`] needs from `NektarF`
/// beyond its own layout. Passed by the caller so the grid and the
/// recorder can be borrowed disjointly.
pub struct TransposeCtx<'a> {
    /// Pipeline the exchanges against per-field FFT work (the blocking
    /// path's alltoall is pairwise).
    pub overlap: bool,
    /// Model-replay recorder.
    pub recorder: &'a mut Recorder,
}

/// NekTar-F's process grid (module docs): the mode and point layout, the
/// z-FFT plan and every buffer a transpose needs — a transpose allocates
/// nothing of its own — and, on a pencil, the two sub-communicators.
///
/// Modes are exchanged within a grid column (the world on a slab), member
/// `g` owning modes `[g·mpp, (g+1)·mpp)`. An exchange block (`fblock`
/// values) carries, per mode, a cos and a sin run of `chunk` points,
/// zero-padded where a rank's chunk is short.
///
/// Both transposes fill caller buffers. With `mpp` owned modes, `nq`
/// points a plane, `npts` = [`Grid::my_points`]`.len()` and `nz` planes,
/// a mode-space field is `mpp × 2 × nq` values, `[mode][cos | sin][point]`,
/// and a physical field is `nz × npts` values, `[z][point]` (plane-major,
/// like the exchange buffers, so the z-transforms load and store
/// [`LANES`] consecutive points at a time).
pub struct Grid {
    pr: usize,
    pc: usize,
    /// This rank's grid column.
    col: usize,
    my_modes: Range<usize>,
    /// Points per world rank (the last chunks may be short or empty).
    chunk: usize,
    nq: usize,
    nz: usize,
    /// This rank's point chunk.
    pts: Range<usize>,
    fft: RealFft,
    /// The lane transforms' scratch (2 × `fft.scratch_len()` blocks).
    fft_scratch: Vec<[f64; LANES]>,
    /// One field's column-stage send.
    send: Vec<f64>,
    /// Where a transpose's last stage lands: one column-stage receive per
    /// grid column.
    recv: Vec<f64>,
    /// In-flight exchanges of the pipelined paths (empty between calls).
    handles: Vec<AlltoallHandle>,
    /// The pencil's sub-communicators and row stage: `None` on a slab,
    /// whose column is the world and which has no row stage.
    rows: Option<Rows>,
}

/// What only a pencil (`pc > 1`) has.
struct Rows {
    /// Ranks sharing this grid column; group rank = grid row.
    col: SubComm,
    /// Ranks sharing this grid row; group rank = grid column.
    row: SubComm,
    /// A backward transpose's column-stage receive, and `pc` copies of it.
    recv: Vec<f64>,
    send: Vec<f64>,
    handles: Vec<AlltoallHandle>,
}

impl Rows {
    /// Copies the column-stage receive into every block of `send`.
    fn replicate(&mut self) {
        for block in self.send.chunks_exact_mut(self.recv.len()) {
            block.copy_from_slice(&self.recv);
        }
    }
}

impl Grid {
    /// Builds the `pr × pc` grid and the transpose plan for planes of
    /// `nq_total` quadrature points. Collective over `comm`: on a pencil,
    /// two `MPI_Comm_split`s, posted column first on every rank; a slab
    /// splits nothing.
    pub fn new(
        comm: &mut Comm,
        pr: usize,
        pc: usize,
        nmodes: usize,
        nq_total: usize,
    ) -> Result<Grid, FourierCfgError> {
        let p = comm.size();
        if pr == 0 || pc == 0 || pr * pc != p {
            return Err(FourierCfgError::GridMismatch { pr, pc, p });
        }
        if !nmodes.is_multiple_of(pr) {
            return Err(FourierCfgError::ModesNotDivisible { nmodes, pr });
        }
        let (w, row, col) = (comm.rank(), comm.rank() / pc, comm.rank() % pc);
        let (mpp, chunk) = (nmodes / pr, nq_total.div_ceil(p));
        let fblock = mpp * 2 * chunk;
        let rows = (pc > 1).then(|| Rows {
            col: comm.split_labeled(col, row, "col"),
            row: comm.split_labeled(row, col, "row"),
            recv: vec![0.0; pr * fblock],
            send: vec![0.0; pc * pr * fblock],
            handles: Vec::new(),
        });
        let fft = RealFft::new(2 * nmodes);
        Ok(Grid {
            pr,
            pc,
            col,
            my_modes: row * mpp..(row + 1) * mpp,
            chunk,
            nq: nq_total,
            nz: fft.len(),
            pts: (w * chunk).min(nq_total)..((w + 1) * chunk).min(nq_total),
            fft_scratch: vec![[0.0; LANES]; 2 * fft.scratch_len()],
            fft,
            send: vec![0.0; pr * fblock],
            recv: vec![0.0; pc * pr * fblock],
            handles: Vec::new(),
            rows,
        })
    }

    /// Short name for diagnostics ("slab" / "pencil").
    pub fn name(&self) -> &'static str {
        if self.rows.is_none() {
            "slab"
        } else {
            "pencil"
        }
    }

    /// `(rows, cols)` of the process grid (slab: `(P, 1)`).
    pub fn grid(&self) -> (usize, usize) {
        (self.pr, self.pc)
    }

    /// Global mode indices this rank owns (contiguous).
    pub fn my_modes(&self) -> Range<usize> {
        self.my_modes.clone()
    }

    /// True on exactly one rank per owned mode block (grid column 0).
    /// Replicated-mode diagnostics (energy sums, spectra) must only
    /// count primary contributions or they inflate by `pc`.
    pub fn is_primary(&self) -> bool {
        self.col == 0
    }

    /// The quadrature points of a plane whose z-columns this rank holds
    /// in physical space.
    pub fn my_points(&self) -> Range<usize> {
        self.pts.clone()
    }

    /// Values one column peer receives per field.
    fn fblock(&self) -> usize {
        self.my_modes.len() * 2 * self.chunk
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
        self.my_modes.len() * 2 * self.nq
    }

    /// The recorded item of a transpose of `nf` fields whose row stage
    /// sends `row_block` values a pair and field (0: no row stage).
    fn item(&self, nf: usize, row_block: usize, pipelined: bool) -> CommItem {
        CommItem::Transpose {
            col_block_bytes: 8 * nf * self.fblock(),
            row_block_bytes: 8 * nf * row_block,
            pr: self.pr,
            pc: self.pc,
            fields: nf,
            pipelined,
        }
    }

    /// Posts one column-stage exchange of `send`.
    fn post_col(
        rows: &mut Option<Rows>,
        comm: &mut Comm,
        send: &[f64],
        block: usize,
    ) -> AlltoallHandle {
        match rows {
            None => comm.ialltoall(send, block),
            Some(r) => r.col.ialltoall(comm, send, block),
        }
    }

    /// Fills `send` with one mode-space field: to column peer `g`, my
    /// modes at the points of world rank `(g, my col)`.
    fn pack_phys(&mut self, field: &[f64]) {
        let (chunk, nq, fblock) = (self.chunk, self.nq, self.fblock());
        for g in 0..self.pr {
            let dest = self.points_of(g * self.pc + self.col);
            let block = &mut self.send[g * fblock..(g + 1) * fblock];
            for (run, plane) in block.chunks_exact_mut(chunk).zip(field.chunks_exact(nq)) {
                run[..dest.len()].copy_from_slice(&plane[dest.clone()]);
                run[dest.len()..].fill(0.0);
            }
        }
    }

    /// Inverse FFT of the field in `recv` into the physical field `out`
    /// at this rank's points. Mode k's cos and sin runs start at
    /// k·2·chunk: peer blocks are contiguous and hold their modes in order.
    fn unpack_phys(&mut self, out: &mut [f64]) {
        let Grid { fft, fft_scratch, recv, chunk, .. } = self;
        dispatch(ToPhys { fft, modes: recv, run: *chunk, phys: out, scratch: fft_scratch });
    }

    /// Forward FFT of one physical field at this rank's points into
    /// `send`: to column peer `g`, its modes at my points.
    fn pack_modes(&mut self, phys: &[f64]) {
        let (chunk, npts, nmodes) = (self.chunk, self.pts.len(), self.nz / 2);
        let Grid { fft, fft_scratch, send, .. } = self;
        let (modes, scratch) = (0..nmodes, fft_scratch);
        dispatch(ToModes { fft, phys, modes, run: chunk, out: send, scratch });
        if npts < chunk {
            for run in send.chunks_exact_mut(chunk) {
                run[npts..].fill(0.0);
            }
        }
    }

    /// Scatters one received field into the full planes `out`. `recv`
    /// holds, for each grid column `c2`, a column's worth of blocks:
    /// peer `g` of that column sent my modes at the points of world rank
    /// `(g, c2)`.
    fn unpack_modes(&self, out: &mut [f64]) {
        let (chunk, nq, fblock) = (self.chunk, self.nq, self.fblock());
        for c2 in 0..self.pc {
            for g in 0..self.pr {
                let src = self.points_of(g * self.pc + c2);
                let block = &self.recv[(c2 * self.pr + g) * fblock..][..fblock];
                for (run, plane) in block.chunks_exact(chunk).zip(out.chunks_exact_mut(nq)) {
                    plane[src.clone()].copy_from_slice(&run[..src.len()]);
                }
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

    /// Mode-space fields → physical z-columns at this rank's chunk of
    /// quadrature points ("Global Exchange" + "Nxy 1D inverse FFTs"):
    /// one column-stage exchange per field in both paths, so their `busy`
    /// ledgers match message for message. The block sent to column peer
    /// `r` holds this rank's modes at the point chunk of world rank
    /// `(r, my col)`; conversely each received block contributes one
    /// row's mode block at my points, so the union over column peers
    /// covers the full spectrum. With `overlap` on, all field exchanges
    /// are posted up front and each field's inverse FFTs run while the
    /// later fields are still on the wire, hiding their transfer time in
    /// `wtime`. `phys` takes the `fields.len()` physical fields back to
    /// back.
    pub fn to_phys(
        &mut self,
        comm: &mut Comm,
        ctx: &mut TransposeCtx<'_>,
        fields: &[&[f64]],
        phys: &mut [f64],
    ) {
        let (fblock, nz, npts, plen) = (self.fblock(), self.nz, self.pts.len(), self.phys_len());
        assert_eq!(phys.len(), fields.len() * plen, "to_phys: one physical field per mode field");
        ctx.recorder.comm(Stage::NonLinear, self.item(fields.len(), 0, ctx.overlap));
        let mut unpack = |t: &mut Grid, comm: &mut Comm, fi: usize| {
            fft_kernel(comm, nz, npts, || t.unpack_phys(&mut phys[fi * plen..(fi + 1) * plen]));
            ctx.recorder.work(Stage::NonLinear, WorkItem::FftBatch { len: nz, batch: npts });
        };
        if ctx.overlap {
            let mut handles = std::mem::take(&mut self.handles);
            for field in fields {
                self.pack_phys(field);
                handles.push(Self::post_col(&mut self.rows, comm, &self.send, fblock));
            }
            for (fi, h) in handles.drain(..).enumerate() {
                comm.alltoall_finish(h, &mut self.recv);
                unpack(self, comm, fi);
            }
            self.handles = handles;
        } else {
            for (fi, field) in fields.iter().enumerate() {
                self.pack_phys(field);
                let (send, recv) = (&self.send, &mut self.recv);
                match &mut self.rows {
                    None => comm.alltoall(send, fblock, recv),
                    Some(r) => r.col.alltoall(comm, send, fblock, recv),
                }
                unpack(self, comm, fi);
            }
        }
    }

    /// Physical z-columns → mode-space fields, full planes for every
    /// owned mode ("Nxy 1D FFTs" + "Global Exchange" back): the column
    /// stage, then on a pencil the row stage. The column receive already
    /// has the row-stage block layout — offset `(r·mpp + mi)·2·chunk`
    /// holds mode `mi` at the chunk of world rank `(r, my col)` — so the
    /// row stage sends that buffer verbatim to every row peer. With
    /// `overlap` on the stages pipeline per field: field `i`'s column
    /// exchange hides under the FFT packing of fields `i+1..`, and its
    /// row exchange under the later fields' column completions. `phys`
    /// and `modes` hold the same number of fields back to back.
    pub fn to_modes(
        &mut self,
        comm: &mut Comm,
        ctx: &mut TransposeCtx<'_>,
        phys: &[f64],
        modes: &mut [f64],
    ) {
        let (fblock, mlen) = (self.fblock(), self.modes_len());
        let rblock = if self.rows.is_some() { self.pr * fblock } else { 0 };
        let nf = modes.len() / mlen;
        assert_eq!(phys.len(), nf * self.phys_len(), "to_modes: one physical field per mode field");
        ctx.recorder.comm(Stage::NonLinear, self.item(nf, rblock, ctx.overlap));
        if ctx.overlap {
            let mut handles = std::mem::take(&mut self.handles);
            for fi in 0..nf {
                self.pack_modes_field(comm, ctx, phys, fi);
                handles.push(Self::post_col(&mut self.rows, comm, &self.send, fblock));
            }
            if let Some(r) = &mut self.rows {
                for h in handles.drain(..) {
                    comm.alltoall_finish(h, &mut r.recv);
                    r.replicate();
                    r.handles.push(r.row.ialltoall(comm, &r.send, rblock));
                }
                handles.append(&mut r.handles);
            }
            for (h, out) in handles.drain(..).zip(modes.chunks_exact_mut(mlen)) {
                comm.alltoall_finish(h, &mut self.recv);
                self.unpack_modes(out);
            }
            self.handles = handles;
        } else {
            for (fi, out) in modes.chunks_exact_mut(mlen).enumerate() {
                self.pack_modes_field(comm, ctx, phys, fi);
                match &mut self.rows {
                    None => comm.alltoall(&self.send, fblock, &mut self.recv),
                    Some(r) => {
                        r.col.alltoall(comm, &self.send, fblock, &mut r.recv);
                        r.replicate();
                        r.row.alltoall(comm, &r.send, rblock, &mut self.recv);
                    }
                }
                self.unpack_modes(out);
            }
        }
    }
}

/// Points a z-transform block carries as the lanes of one vector: four
/// f64s to an AVX2 register.
pub(crate) const LANES: usize = 4;

/// The first `nl` values of `src` in lanes `0..nl` (`nl ≤ L`), zeros in
/// the rest. Lane by lane, not a `copy_from_slice` of `nl` values: a
/// variable-length copy into the block keeps it in memory on every path,
/// which made the portable build slower than the scalar code it replaced.
#[inline(always)]
fn load<const L: usize>(src: &[f64], nl: usize) -> [f64; L] {
    if nl == L {
        src[..L].try_into().expect("a full block")
    } else {
        from_fn(|l| if l < nl { src[l] } else { 0.0 })
    }
}

/// Lanes `0..nl` of `v` into `dst`; the other lanes are not stored.
#[inline(always)]
fn store<const L: usize>(dst: &mut [f64], v: [f64; L], nl: usize) {
    if nl == L {
        dst[..L].copy_from_slice(&v);
    } else {
        for (d, x) in dst[..nl].iter_mut().zip(v) {
            *d = x;
        }
    }
}

/// The (cos, sin) coefficients of Fourier mode `k` from bin `k` (`re`,
/// `im`) of the forward spectrum of `nz` real samples, lane by lane, in
/// the solver's plane convention (`k = 0` carries the mean and has no sine
/// part; Nyquist dropped).
#[inline(always)]
pub(crate) fn mode_coeffs<const L: usize>(
    k: usize,
    nz: usize,
    re: [f64; L],
    im: [f64; L],
) -> ([f64; L], [f64; L]) {
    let nz = nz as f64;
    if k == 0 {
        (from_fn(|l| re[l] / nz), [0.0; L])
    } else {
        (from_fn(|l| 2.0 * re[l] / nz), from_fn(|l| -2.0 * im[l] / nz))
    }
}

/// Spectrum bin `k < nz/2` from mode `k`'s (cos, sin) coefficients: the
/// inverse of [`mode_coeffs`].
#[inline(always)]
fn mode_bin<const L: usize>(k: usize, nz: usize, a: [f64; L], b: [f64; L]) -> ([f64; L], [f64; L]) {
    let nz = nz as f64;
    if k == 0 {
        (from_fn(|l| a[l] * nz), [0.0; L])
    } else {
        (from_fn(|l| a[l] * nz / 2.0), from_fn(|l| -b[l] * nz / 2.0))
    }
}

/// Inverse z-transforms of every mode of `modes` (`[mode][cos | sin]`
/// runs of `run` values; modes `0..nz/2`, Nyquist dropped) into the
/// plane-major field `phys` (`[z][point]`, `phys.len() / nz` points, at
/// most `run`), `L` points a block. A short last block masks its lanes:
/// zeros load, and only its points store. `scratch` holds 2 ×
/// `fft.scratch_len()` blocks.
struct ToPhys<'a, const L: usize> {
    fft: &'a RealFft,
    modes: &'a [f64],
    run: usize,
    phys: &'a mut [f64],
    scratch: &'a mut [[f64; L]],
}

impl<const L: usize> Kernel for ToPhys<'_, L> {
    type Output = ();

    /// The one body of [`Grid::unpack_phys`], inlined into both builds.
    #[inline(always)]
    fn run(self) {
        let Self { fft, modes, run, phys, scratch } = self;
        let (nz, nh) = (fft.len(), fft.len() / 2);
        let npts = phys.len() / nz;
        for p0 in (0..npts).step_by(L) {
            let nl = (npts - p0).min(L);
            fft.inverse_lanes(
                |k| {
                    if k == nh {
                        return ([0.0; L], [0.0; L]);
                    }
                    let runs = &modes[k * 2 * run..];
                    mode_bin(k, nz, load(&runs[p0..], nl), load(&runs[run + p0..], nl))
                },
                |j, v| store(&mut phys[j * npts + p0..], v, nl),
                scratch,
            );
        }
    }
}

/// Forward z-transforms of the plane-major field `phys` (`[z][point]`,
/// `npts = phys.len() / nz` points), `L` points a block, masked as
/// [`ToPhys`]: mode `k` of `modes` lands in `out` at
/// `(k − modes.start)·2·run`, a cos run and a sin run of `run ≥ npts`
/// values, of which the first `npts` are stored.
pub(crate) struct ToModes<'a, const L: usize> {
    pub(crate) fft: &'a RealFft,
    pub(crate) phys: &'a [f64],
    pub(crate) modes: Range<usize>,
    pub(crate) run: usize,
    pub(crate) out: &'a mut [f64],
    pub(crate) scratch: &'a mut [[f64; L]],
}

impl<const L: usize> Kernel for ToModes<'_, L> {
    type Output = ();

    /// The one body of [`Grid::pack_modes`] and of `NektarF::set_initial`'s
    /// transforms, inlined into both builds.
    #[inline(always)]
    fn run(self) {
        let Self { fft, phys, modes, run, out, scratch } = self;
        let (nz, npts) = (fft.len(), phys.len() / fft.len());
        for p0 in (0..npts).step_by(L) {
            let nl = (npts - p0).min(L);
            fft.forward_lanes(
                |j| load(&phys[j * npts + p0..], nl),
                |k, re, im| {
                    if modes.contains(&k) {
                        let (a, b) = mode_coeffs(k, nz, re, im);
                        let runs = &mut out[(k - modes.start) * 2 * run..];
                        store(&mut runs[p0..], a, nl);
                        store(&mut runs[run + p0..], b, nl);
                    }
                },
                scratch,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nkt_blas::isa::Isa;
    use nkt_fft::Complex64;

    /// `Grid`'s two kernels at [`LANES`] lanes, in every build the host
    /// runs, against the one-lane slice transforms point by point, bit for
    /// bit: point counts with tails of 1–3 lanes, radix-2 and Bluestein
    /// half lengths, NaN-filled scratch and outputs, runs padded past the
    /// points whose padding must come back untouched.
    #[test]
    fn lane_kernels_equal_the_one_lane_transforms_bit_for_bit() {
        const PAD: f64 = 7.5;
        for nz in [8usize, 12, 32] {
            let (fft, nh, nzf) = (RealFft::new(nz), nz / 2, nz as f64);
            for npts in [1usize, 3, 4, 5, 13, 50, 324] {
                let run = npts + 3;
                let modes: Vec<f64> =
                    (0..nh * 2 * run).map(|i| (i * 37 % 101) as f64 / 101.0 - 0.5).collect();
                // The per-point reference: gather, scale, one slice transform.
                let (mut want_phys, mut want_modes) =
                    (vec![0.0; nz * npts], vec![PAD; nh * 2 * run]);
                let (mut sp, mut column) = (vec![Complex64::ZERO; nh + 1], vec![0.0; nz]);
                for p in 0..npts {
                    sp[nh] = Complex64::ZERO;
                    for (k, bin) in sp[..nh].iter_mut().enumerate() {
                        let (a, b) = (modes[k * 2 * run + p], modes[k * 2 * run + run + p]);
                        *bin = if k == 0 {
                            Complex64::new(a * nzf, 0.0)
                        } else {
                            Complex64::new(a * nzf / 2.0, -b * nzf / 2.0)
                        };
                    }
                    fft.inverse(&sp, &mut column);
                    for (j, &v) in column.iter().enumerate() {
                        want_phys[j * npts + p] = v;
                    }
                    fft.forward(&column, &mut sp);
                    for k in 0..nh {
                        let (a, b) = if k == 0 {
                            (sp[0].re / nzf, 0.0)
                        } else {
                            (2.0 * sp[k].re / nzf, -2.0 * sp[k].im / nzf)
                        };
                        (want_modes[k * 2 * run + p], want_modes[k * 2 * run + run + p]) = (a, b);
                    }
                }
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                for isa in Isa::available() {
                    let mut scratch = vec![[f64::NAN; LANES]; 2 * fft.scratch_len()];
                    let mut phys = vec![f64::NAN; nz * npts];
                    let (fft, modes, scratch) = (&fft, &modes, &mut scratch[..]);
                    isa.run(ToPhys { fft, modes, run, phys: &mut phys, scratch });
                    assert_eq!(
                        bits(&phys),
                        bits(&want_phys),
                        "to_phys: nz {nz}, {npts} points, {isa:?}"
                    );
                    scratch.fill([f64::NAN; LANES]);
                    let mut out = vec![PAD; nh * 2 * run];
                    let phys = &want_phys;
                    isa.run(ToModes { fft, phys, modes: 0..nh, run, out: &mut out, scratch });
                    assert_eq!(
                        bits(&out),
                        bits(&want_modes),
                        "to_modes: nz {nz}, {npts} points, {isa:?}"
                    );
                }
            }
        }
    }

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
