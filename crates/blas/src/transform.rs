//! The lane tensor transform: every (element, plane) unit of a pass taken
//! through `D` [`sweep`]s of small tables, [`LANES`] units to a lane
//! block — what the sum-factorised elemental operations of the 2-D plane
//! kernels (`D` = 1 for a triangle's dense table, 2 for a quadrilateral)
//! and of NekTar-ALE's hexes (`D` = 3) are made of.

use crate::isa::{Isa, Kernel};
use crate::sweep::{sweep, Axis};

/// Units one lane block carries: four f64 lanes, one AVX2 register.
pub const LANES: usize = 4;

/// Consecutive units of one element inside a lane block: planes
/// `first..first + count` of element `elem` (as the pass's `elems` names
/// it), in lanes `lane..lane + count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    pub elem: usize,
    pub first: usize,
    pub count: usize,
    pub lane: usize,
}

impl Run {
    /// Each plane of the run with its lane.
    #[inline(always)]
    pub fn lanes(&self) -> impl Iterator<Item = (usize, usize)> {
        let (first, lane) = (self.first, self.lane);
        (0..self.count).map(move |j| (first + j, lane + j))
    }
}

/// How a caller's units enter and leave a [`transform`] pass: per-lane
/// steps into and out of the tiles, where tensor entry `i` of the unit in
/// lane `l` is `tile[i·LANES + l]`.
pub trait Steps {
    /// The ways this caller's passes run — to more entries per axis
    /// (modes to points), to fewer, to as many — so that only their
    /// compile-time counts are built.
    const WAYS: [bool; 3] = [true; 3];

    /// Writes the input of output `k` of every unit of `run` into its lane
    /// of `x`. A pass with a shared input asks once a block, with `k` 0.
    fn gather(&mut self, run: &Run, k: usize, x: &mut [f64]);
    /// Takes the outputs of every unit of `run` from its lanes of `y`,
    /// output `k`'s tile `n_outᴰ·LANES` doubles from `k·n_outᴰ·LANES` (one
    /// tile if the pass sums its outputs).
    fn scatter(&mut self, run: &Run, y: &[f64]);
}

/// The operands of one [`transform`] pass.
pub struct Pass<'a, S, const D: usize> {
    /// `[n_in, n_out]`: entries per axis in and out.
    pub n: [usize; 2],
    /// Per output, its `D` sweep tables (column-major `n_out × n_in`),
    /// first axis first.
    pub tabs: &'a [[&'a [f64]; D]],
    /// One input read by every output, or one gathered per output.
    pub shared: bool,
    /// The outputs summed into one tile (the last sweep of every output
    /// after the first adds) instead of kept apart.
    pub sum: bool,
    /// The elements, in the order their units run: element-major, plane
    /// by plane.
    pub elems: &'a [usize],
    /// Planes an element.
    pub planes: usize,
    /// The caller's gather and scatter.
    pub steps: &'a mut S,
    /// At least [`scratch_len`] doubles.
    pub scratch: &'a mut [f64],
}

/// Scratch doubles a [`transform`] pass of `outputs` outputs kept apart
/// needs: an input tile, the `D − 1` intermediates and the output tiles.
pub fn scratch_len<const D: usize>(n_in: usize, n_out: usize, outputs: usize) -> usize {
    let mids: usize = (1..D).map(|d| n_out.pow(d as u32) * n_in.pow((D - d) as u32)).sum();
    LANES * (n_in.pow(D as u32) + mids + outputs * n_out.pow(D as u32))
}

/// Runs the tensor transform `pass` in the build `isa`: for every unit
/// and every output `k`, the `D` sweeps of `tabs[k]` (first axis first)
/// take the unit's `n_inᴰ` input to `n_outᴰ` values. [`LANES`] units at
/// a time: each block is gathered into entry-major, lane-minor tiles,
/// each sweep runs over all lanes at once with the tables shared by every
/// lane, and every value sees the operations a lone unit's sweeps would,
/// in the same order. Units run element-major and a block breaks into
/// [`Run`]s where its element changes, so a block of four planes of one
/// element is one gather walk of that element, and the outputs leave in
/// unit order. The unused lanes of a short last block are computed and
/// never read. In the AVX2 build the counts of the quadrilateral and
/// hexahedral orders the solvers run (2–4) — `(nm, nq)`, `(nq, nm)` and,
/// for hexes, `(nm, nm)`, of the caller's [`Steps::WAYS`] — are
/// compile-time constants of the one body below; any other shape, and
/// the portable build (the fallback of a host without AVX2), take the
/// same body with the counts of `pass`. A copy of each constant-count
/// body in both builds would double the kernels' text, and text is
/// resident memory.
pub fn transform<S: Steps, const D: usize>(isa: Isa, pass: Pass<S, D>) {
    if isa == Isa::Portable {
        return isa.run(Body::<S, D, 0, 0>(pass));
    }
    // Arms whose guard is false at compile time are never built.
    let [up, down, same] = S::WAYS.map(|way| way && D > 1);
    match pass.n {
        [3, 4] if up => isa.run(Body::<S, D, 3, 4>(pass)),
        [4, 5] if up => isa.run(Body::<S, D, 4, 5>(pass)),
        [5, 6] if up => isa.run(Body::<S, D, 5, 6>(pass)),
        [4, 3] if down => isa.run(Body::<S, D, 4, 3>(pass)),
        [5, 4] if down => isa.run(Body::<S, D, 5, 4>(pass)),
        [6, 5] if down => isa.run(Body::<S, D, 6, 5>(pass)),
        [3, 3] if same && D == 3 => isa.run(Body::<S, D, 3, 3>(pass)),
        [4, 4] if same && D == 3 => isa.run(Body::<S, D, 4, 4>(pass)),
        [5, 5] if same && D == 3 => isa.run(Body::<S, D, 5, 5>(pass)),
        _ => isa.run(Body::<S, D, 0, 0>(pass)),
    }
}

/// [`transform`]'s pass for the counts `NI`, `NO` (`0`: read from the
/// pass).
struct Body<'a, S, const D: usize, const NI: usize, const NO: usize>(Pass<'a, S, D>);

/// The last sweep of an output: into its tile, or added to the tile of
/// the outputs before it.
#[inline(always)]
fn last(add: bool, a: &[f64], ax: Axis, x: &[f64], y: &mut [f64]) {
    if add {
        sweep::<true, LANES>(a, 1, ax, x, y);
    } else {
        sweep::<false, LANES>(a, 1, ax, x, y);
    }
}

impl<S: Steps, const D: usize, const NI: usize, const NO: usize> Kernel for Body<'_, S, D, NI, NO> {
    type Output = ();

    /// The one body of [`transform`], inlined into both builds.
    #[inline(always)]
    fn run(self) {
        let Pass { n: [ni, no], tabs, shared, sum, elems, planes, steps, scratch } = self.0;
        const L: usize = LANES;
        assert!((1..=3).contains(&D), "1, 2 or 3 tensor axes, not {D}");
        let (ni, no) = if NI == 0 { (ni, no) } else { (NI, NO) };
        let ny = no.pow(D as u32) * L;
        let mut rest = scratch;
        let mut take = |n: usize| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(n);
            rest = tail;
            head
        };
        let xt = take(ni.pow(D as u32) * L);
        let m1 = take(if D > 1 { no * ni.pow(D as u32 - 1) * L } else { 0 });
        let m2 = take(if D > 2 { no * no * ni * L } else { 0 });
        let yt = take(if sum { ny } else { tabs.len() * ny });
        let axes = Axis::tensor::<D>(ni, no).map(|a| Axis { pre: a.pre * L, ..a });
        let ax: &[Axis] = &axes;
        let units = elems.len() * planes;
        let mut runs = [Run { elem: 0, first: 0, count: 0, lane: 0 }; L];
        for u0 in (0..units).step_by(L) {
            let (n, mut nr, mut lane) = (L.min(units - u0), 0, 0);
            while lane < n {
                let (e, first) = ((u0 + lane) / planes, (u0 + lane) % planes);
                let count = (planes - first).min(n - lane);
                runs[nr] = Run { elem: elems[e], first, count, lane };
                (nr, lane) = (nr + 1, lane + count);
            }
            let runs = &runs[..nr];
            if shared {
                runs.iter().for_each(|r| steps.gather(r, 0, xt));
            }
            for (k, tab) in tabs.iter().enumerate() {
                if !shared {
                    runs.iter().for_each(|r| steps.gather(r, k, xt));
                }
                let (add, yk) = if sum { (k > 0, &mut yt[..]) } else { (false, &mut yt[k * ny..][..ny]) };
                let t: &[&[f64]] = tab;
                match D {
                    1 => last(add, t[0], ax[0], xt, yk),
                    2 => {
                        sweep::<false, L>(t[0], 1, ax[0], xt, m1);
                        last(add, t[1], ax[1], m1, yk);
                    }
                    _ => {
                        sweep::<false, L>(t[0], 1, ax[0], xt, m1);
                        sweep::<false, L>(t[1], 1, ax[1], m1, m2);
                        last(add, t[2], ax[2], m2, yk);
                    }
                }
            }
            runs.iter().for_each(|r| steps.scatter(r, yt));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nkt_testkit::Rng;

    /// Element `e`'s plane `p` of a unit-major store, `len` entries a unit.
    fn unit(v: &[f64], planes: usize, len: usize, e: usize, p: usize) -> &[f64] {
        &v[(e * planes + p) * len..][..len]
    }

    /// Gathers units from, and scatters them (overwriting, or adding)
    /// into, unit-major stores.
    struct Store<'a> {
        planes: usize,
        nx: usize,
        ny: usize,
        outputs: usize,
        x: &'a [Vec<f64>],
        /// One input for every output, or one an output.
        shared: bool,
        y: &'a mut [Vec<f64>],
        add: bool,
    }

    impl Steps for Store<'_> {
        fn gather(&mut self, run: &Run, k: usize, x: &mut [f64]) {
            assert!(!self.shared || k == 0, "a shared input is gathered once");
            for (p, l) in run.lanes() {
                let src = unit(&self.x[k], self.planes, self.nx, run.elem, p);
                src.iter().enumerate().for_each(|(i, &v)| x[i * LANES + l] = v);
            }
        }

        fn scatter(&mut self, run: &Run, y: &[f64]) {
            let tile = self.ny * LANES;
            for k in 0..self.outputs {
                for (p, l) in run.lanes() {
                    let off = (run.elem * self.planes + p) * self.ny;
                    let dst = &mut self.y[k][off..][..self.ny];
                    for (i, d) in dst.iter_mut().enumerate() {
                        let v = y[k * tile + i * LANES + l];
                        *d = if self.add { *d + v } else { v };
                    }
                }
            }
        }
    }

    /// The one-lane reference: `D` one-lane sweeps of one unit.
    fn sweeps<const D: usize>(tab: &[&[f64]; D], ni: usize, no: usize, x: &[f64], add: bool, y: &mut [f64]) {
        let axes = Axis::tensor::<D>(ni, no);
        let mut cur = x.to_vec();
        for d in 0..D {
            let ax = axes[d];
            let mut next = vec![f64::NAN; ax.pre * ax.n_out * ax.post];
            if d + 1 == D {
                if add {
                    sweep::<true, 1>(tab[d], 1, ax, &cur, y);
                } else {
                    sweep::<false, 1>(tab[d], 1, ax, &cur, y);
                }
                return;
            }
            sweep::<false, 1>(tab[d], 1, ax, &cur, &mut next);
            cur = next;
        }
    }

    /// Every unit's outputs equal its one-lane sweeps bit for bit, in
    /// every build the host has: shared and per-output inputs, outputs
    /// kept apart and summed (then added to the store), plane counts 1–9
    /// (blocks that straddle elements and short last blocks) over an
    /// element list that is not the identity, NaN scratch.
    fn check<const D: usize>(ni: usize, no: usize, rng: &mut Rng) {
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        let (nx, ny) = (ni.pow(D as u32), no.pow(D as u32));
        let mut random = |n: usize| -> Vec<f64> { (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect() };
        let owned: Vec<Vec<f64>> = (0..3 * D).map(|_| random(no * ni)).collect();
        let tabs: Vec<[&[f64]; D]> =
            (0..3).map(|k| std::array::from_fn(|d| &owned[k * D + d][..])).collect();
        let elems = [2, 0, 3];
        for planes in 1..=9 {
            let units = 4 * planes;
            let x: Vec<Vec<f64>> = (0..3).map(|_| random(units * nx)).collect();
            for (shared, sum) in [(true, false), (false, false), (false, true), (true, true)] {
                let outputs = if sum { 1 } else { 3 };
                let y0: Vec<Vec<f64>> = (0..outputs).map(|_| random(units * ny)).collect();
                let input = |k: usize, e, p| unit(&x[if shared { 0 } else { k }], planes, nx, e, p);
                for isa in Isa::available() {
                    let mut y = y0.clone();
                    let mut scratch = vec![f64::NAN; scratch_len::<D>(ni, no, 3)];
                    let steps = &mut Store { planes, nx, ny, outputs, x: &x, shared, y: &mut y, add: sum };
                    let (tabs, elems) = (&tabs[..], &elems[..]);
                    let scratch = &mut scratch[..];
                    transform(isa, Pass { n: [ni, no], tabs, shared, sum, elems, planes, steps, scratch });
                    let what = format!("{isa:?}, D {D}, {ni} -> {no}, {planes} planes, shared {shared}, sum {sum}");
                    for (&e, p) in elems.iter().flat_map(|e| (0..planes).map(move |p| (e, p))) {
                        for k in 0..outputs {
                            let mut want = unit(&y0[k], planes, ny, e, p).to_vec();
                            if sum {
                                let mut lone = vec![f64::NAN; ny];
                                for (j, tab) in tabs.iter().enumerate() {
                                    sweeps(tab, ni, no, input(j, e, p), j > 0, &mut lone);
                                }
                                want.iter_mut().zip(&lone).for_each(|(w, v)| *w += v);
                            } else {
                                sweeps(&tabs[k], ni, no, input(k, e, p), false, &mut want);
                            }
                            let got = unit(&y[k], planes, ny, e, p);
                            assert_eq!(bits(got), bits(&want), "{what}: element {e}, plane {p}, output {k}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lanes_equal_one_lane_sweeps_bit_for_bit() {
        let mut rng = Rng::new(0x1a_7e_5a);
        for nm in 3..=9 {
            check::<1>(nm * (nm + 1) / 2, (nm + 1) * (nm + 1), &mut rng);
            check::<2>(nm, nm + 1, &mut rng);
            check::<2>(nm + 1, nm, &mut rng);
        }
        for nm in 3..=6 {
            check::<3>(nm, nm + 1, &mut rng);
            check::<3>(nm + 1, nm, &mut rng);
            check::<3>(nm, nm, &mut rng);
        }
    }

    /// Runs follow the units element-major: a block breaks where its
    /// element changes, and a block of one element's planes is one run.
    #[test]
    fn blocks_break_into_runs_where_the_element_changes() {
        struct Log(Vec<Run>);
        impl Steps for Log {
            fn gather(&mut self, _: &Run, _: usize, _: &mut [f64]) {}
            fn scatter(&mut self, run: &Run, _: &[f64]) {
                self.0.push(*run);
            }
        }
        let tabs = [[&[1.0][..]]];
        let mut scratch = vec![0.0; scratch_len::<1>(1, 1, 1)];
        let mut log = Log(vec![]);
        let (tabs, elems, steps, scratch) = (&tabs[..], &[7, 5][..], &mut log, &mut scratch[..]);
        let (shared, sum, planes) = (true, false, 6);
        transform(Isa::Portable, Pass { n: [1, 1], tabs, shared, sum, elems, planes, steps, scratch });
        let run = |elem, first, count, lane| Run { elem, first, count, lane };
        assert_eq!(log.0, [run(7, 0, 4, 0), run(7, 4, 2, 0), run(5, 0, 2, 2), run(5, 2, 4, 0)]);
    }
}
