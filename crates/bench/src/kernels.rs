//! Figures 1–8: the BLAS kernels on the machine models, then the
//! networks' ping-pong and Alltoall on the network models.

use crate::{header, kernel_sweep_bytes, row, Run};
use nektar::opstream::CommItem;
use nektar::replay::comm_time;
use nkt_machine::{machine, Kernel, MachineId};
use nkt_net::{fig7_configs, fig8_configs, netpipe_for};
use std::fmt::{self, Write as _};

/// Machines in the left and right panels of Figures 1–6.
#[rustfmt::skip]
const PANELS: [(&str, &[MachineId]); 2] = [
    ("left", &[MachineId::Sp2Thin2, MachineId::Sp2Silver, MachineId::Muses, MachineId::Ap3000,
        MachineId::Onyx2]),
    ("right", &[MachineId::T3e, MachineId::P2sc, MachineId::Muses]),
];

/// One of Figures 1–6: a kernel's rate against its size.
struct KernelFigure {
    kernel: Kernel,
    /// `MB/s` (a copy moves bytes) or `MFlop/s`.
    unit: &'static str,
    /// The x-axis column: `bytes` of array (`bytes / 8` doubles) or the
    /// matrix dimension `n`.
    axis: &'static str,
    /// What the title says of the x axis.
    against: &'static str,
    sizes: fn() -> Vec<usize>,
    /// The figure's paper shape check, if it has one.
    note: &'static str,
}

#[rustfmt::skip]
const KERNEL_FIGURES: [KernelFigure; 6] = [
    KernelFigure { kernel: Kernel::Dcopy, unit: "MB/s", axis: "bytes", against: "vs array size",
        sizes: kernel_sweep_bytes,
        note: "T3E peaks near 2 GB/s with STREAMS; the PII is\n\
               competitive in-cache and strong out-of-cache (100 MHz SDRAM)." },
    KernelFigure { kernel: Kernel::Daxpy, unit: "MFlop/s", axis: "bytes", against: "vs array size",
        sizes: kernel_sweep_bytes, note: "" },
    KernelFigure { kernel: Kernel::Ddot, unit: "MFlop/s", axis: "bytes", against: "vs array size",
        sizes: kernel_sweep_bytes, note: "" },
    // The paper sweeps small sizes (x-axis to ~1200 bytes of row).
    KernelFigure { kernel: Kernel::Dgemv, unit: "MFlop/s", axis: "n",
        against: "vs n (n x n matrix)",
        sizes: || vec![4, 8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 1024],
        note: "in-cache PII dgemv reaches its ddot level\n\
               (\"the ddot() performance is actually unmatched\"); out of L2 all\n\
               machines drop to main-memory bandwidth." },
    KernelFigure { kernel: Kernel::Dgemm, unit: "MFlop/s", axis: "n", against: "vs n",
        sizes: || vec![4, 8, 16, 32, 64, 96, 128, 192, 256, 384, 512],
        note: "T3E and P2SC top out near their (high) peaks;\n\
               the 450 MFlop/s PII \"is lower than that of most of the competition\"." },
    // The regime NekTar runs in: "most of the calls to dgemm() ... are for
    // small n (10 or less)". The host's own small dgemm is `perfbench`'s
    // `blas.dgemm_small_gflops` row.
    KernelFigure { kernel: Kernel::Dgemm, unit: "MFlop/s", axis: "n", against: "at small n",
        sizes: || (2..=20).collect(), note: "" },
];

/// Figure `FIG` (1–6): each panel's machines rated at every size.
pub(crate) fn figure<const FIG: usize>(_: &Run, o: &mut String) -> fmt::Result {
    let f = &KERNEL_FIGURES[FIG - 1];
    for (panel, ids) in PANELS {
        let machines: Vec<_> = ids.iter().map(|&id| machine(id)).collect();
        let name = f.kernel.name();
        writeln!(o, "\nFigure {FIG} ({panel} panel): {name} {} {} [modeled]", f.unit, f.against)?;
        let mut cols = vec![f.axis];
        cols.extend(machines.iter().map(|m| m.name));
        header(o, &cols)?;
        for x in (f.sizes)() {
            let n = if f.axis == "bytes" { x / 8 } else { x };
            let vals: Vec<f64> = machines
                .iter()
                .map(|m| m.kernel_rate(f.kernel, n))
                .map(|r| if f.unit == "MB/s" { r.mbs } else { r.mflops })
                .collect();
            row(o, x, &vals)?;
        }
    }
    if !f.note.is_empty() {
        writeln!(o, "\npaper shape check: {}", f.note)?;
    }
    Ok(())
}

/// Figure 7: NetPIPE ping-pong one-way latency (left) and bandwidth
/// (right) over the 12 machine/network configurations.
pub(crate) fn fig7_pingpong(_: &Run, o: &mut String) -> fmt::Result {
    writeln!(o, "Figure 7 (left): one-way latency (us) for small messages [modeled]")?;
    header(o, &["config", "8 B", "64 B", "256 B", "512 B"])?;
    for (label, net, intra) in fig7_configs() {
        let ch = if intra { &net.intra } else { &net.inter };
        let vals: Vec<f64> = [8usize, 64, 256, 512].iter().map(|&b| ch.latency_for(b)).collect();
        row(o, label, &vals)?;
    }
    writeln!(o, "\nFigure 7 (right): one-way bandwidth (MB/s) vs message size [modeled]")?;
    header(o, &["config", "1 KB", "64 KB", "1 MB", "16 MB", "256 MB"])?;
    for (label, net, intra) in fig7_configs() {
        let pts = netpipe_for(&net, intra, 1 << 28);
        let sample = |target: usize| -> f64 {
            pts.iter()
                .min_by_key(|p| p.bytes.abs_diff(target))
                .map(|p| p.bandwidth_mbs)
                .unwrap_or(0.0)
        };
        let vals: Vec<f64> =
            [1 << 10, 1 << 16, 1 << 20, 1 << 24, 1 << 28].iter().map(|&b| sample(b)).collect();
        row(o, label, &vals)?;
    }
    writeln!(o, "\npaper shape check: Muses latency \"competitive with some of the")?;
    writeln!(o, "supercomputers\"; Muses bandwidth capped by Fast Ethernet; Myrinet")?;
    writeln!(o, "latency comparable to SP2-Silver; T3E on top.")
}

/// Figure 8: MPI_Alltoall average bandwidth for 4 and 8 processors over
/// the paper's nine configurations (pairwise-exchange replay).
pub(crate) fn fig8_alltoall(_: &Run, o: &mut String) -> fmt::Result {
    for p in [4usize, 8] {
        writeln!(o, "\nFigure 8 ({p} processors): Alltoall average bandwidth (MB/s) [modeled]")?;
        let sizes: Vec<usize> = (0..=10).map(|k| 64usize << (2 * k)).collect();
        let mut cols = vec!["bytes"];
        let configs = fig8_configs();
        cols.extend(configs.iter().map(|(l, _)| *l));
        header(o, &cols)?;
        for &bytes in &sizes {
            let vals: Vec<f64> = configs
                .iter()
                .map(|(_, net)| {
                    // The slab's transpose: a p × 1 grid, one exchange.
                    let item = CommItem::Transpose {
                        col_block_bytes: bytes,
                        row_block_bytes: 0,
                        pr: p,
                        pc: 1,
                        fields: 1,
                        pipelined: false,
                    };
                    let (_, wall) = comm_time(&item, net, p);
                    if wall > 0.0 {
                        // Average bandwidth: bytes each processor sends.
                        ((p - 1) * bytes) as f64 / wall / 1e6
                    } else {
                        0.0
                    }
                })
                .collect();
            row(o, bytes, &vals)?;
        }
    }
    writeln!(o, "\npaper shape check: \"Apart from the T3E, which is 3 times higher")?;
    writeln!(o, "than the rest, the myrinet network has a slightly higher bandwidth")?;
    writeln!(o, "than the IBM SP2 Thin2 nodes ... and slightly lower than the NCSA\".")?;
    writeln!(o, "Ethernet-based configs saturate hardest as P grows.")
}
