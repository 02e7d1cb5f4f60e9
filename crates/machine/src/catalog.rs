//! The ten machines of paper §2, as calibrated model instances.
//!
//! Parameters are chosen so the model's plateaus land on the paper's
//! Figures 1–6: clocks, peak flops/cycle and cache capacities are the
//! documented hardware values; bandwidths and per-kernel efficiencies are
//! calibrated against the figure curves (see EXPERIMENTS.md E1–E6 for the
//! paper-vs-model record).

use crate::model::{CacheLevel, KernelEfficiency, Machine};
use nkt_net::NetId;

/// Identifiers for the machines compared in the paper (§2 items 1–10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineId {
    /// §2.1 — 128 × PII 450 MHz AltaCluster at AHPCC ("RoadRunner").
    /// CPU-identical to Muses; differs in network (Fast Ethernet + Myrinet).
    RoadRunner,
    /// §2.2 — the $10k 4 × PII 450 MHz cluster ("Muses").
    Muses,
    /// §2.3 — IBM SP with 332 MHz 604e "Silver" nodes.
    Sp2Silver,
    /// §2.4 — IBM SP with 66 MHz Power2 "Thin2" nodes.
    Sp2Thin2,
    /// §2.5 — IBM SP 160 MHz P2SC "Thin4" nodes at MHPCC.
    P2sc,
    /// §2.6 — SGI Onyx2, 195 MHz R10000.
    Onyx2,
    /// §2.7 — SGI Origin 2000 at NCSA, 250 MHz R10000.
    Ncsa,
    /// §2.8 — Fujitsu AP3000, 300 MHz UltraSPARC.
    Ap3000,
    /// §2.9 — Cray T3E-900, 450 MHz Alpha 21164A (STREAMS prefetch on).
    T3e,
    /// §2.10 — Hitachi SR8000 (pseudo-vector PA-RISC CPUs).
    Hitachi,
}

impl MachineId {
    /// All ten machines in paper order.
    pub const ALL: [MachineId; 10] = [
        MachineId::RoadRunner,
        MachineId::Muses,
        MachineId::Sp2Silver,
        MachineId::Sp2Thin2,
        MachineId::P2sc,
        MachineId::Onyx2,
        MachineId::Ncsa,
        MachineId::Ap3000,
        MachineId::T3e,
        MachineId::Hitachi,
    ];

    /// Paper display name.
    pub fn name(self) -> &'static str {
        machine(self).name
    }

    /// The machine whose nodes sit on `net`: every catalog network
    /// belongs to exactly one paper machine (both RoadRunner fabrics to
    /// RoadRunner, both Muses MPI stacks to Muses).
    pub fn hosting(net: NetId) -> MachineId {
        match net {
            NetId::RoadRunnerEth | NetId::RoadRunnerMyr => MachineId::RoadRunner,
            NetId::MusesMpich | NetId::MusesLam => MachineId::Muses,
            NetId::Sp2Silver => MachineId::Sp2Silver,
            NetId::Sp2Thin2 => MachineId::Sp2Thin2,
            NetId::Onyx2 => MachineId::Onyx2,
            NetId::Ncsa => MachineId::Ncsa,
            NetId::Ap3000 => MachineId::Ap3000,
            NetId::T3e => MachineId::T3e,
            NetId::Hitachi => MachineId::Hitachi,
        }
    }
}

const KB: usize = 1024;
const MB: usize = 1024 * 1024;

/// Pentium II 450 MHz node (shared by Muses and RoadRunner — the paper:
/// "Both Muses and RoadRunner use Pentium II, 450 MHz processors").
fn pentium_ii(name: &'static str) -> Machine {
    Machine {
        name,
        clock_mhz: 450.0,
        flops_per_cycle: 1.0, // P6 core: one FP op/cycle sustained
        levels: vec![
            CacheLevel { capacity: 16 * KB, bandwidth_mbs: 3600.0 },
            CacheLevel { capacity: 512 * KB, bandwidth_mbs: 1800.0 },
            // "the PC platform performs well due to its fast 100MHz SDRAM"
            CacheLevel { capacity: usize::MAX, bandwidth_mbs: 320.0 },
        ],
        call_overhead_ns: 150.0,
        // 100 MHz SDRAM sustains dependent sweeps almost as well as
        // streams — the PC's balance is its strength here.
        dependent_bandwidth_mbs: 300.0,
        eff: KernelEfficiency {
            daxpy: 0.33,
            // Paper §3.1: in-cache "the ddot() performance is actually
            // unmatched" relative to its class.
            ddot: 0.90,
            dgemv: 0.85,
            // PC peak is 450 MFlop/s and the free ASCI-Red BLAS plateaus
            // near 330: "not surprising that the PC performance curve is
            // lower than that of most of the competition".
            dgemm: 0.73,
            dcopy: 0.50,
        },
    }
}

/// Builds the model instance for a machine.
pub fn machine(id: MachineId) -> Machine {
    match id {
        MachineId::Muses => pentium_ii("Muses"),
        MachineId::RoadRunner => pentium_ii("RoadRunner"),
        MachineId::Sp2Silver => Machine {
            name: "SP2-Silver",
            clock_mhz: 332.0,
            flops_per_cycle: 2.0, // 604e: FPU madd -> 664 MFlop/s peak
            levels: vec![
                CacheLevel { capacity: 32 * KB, bandwidth_mbs: 2700.0 },
                CacheLevel { capacity: 256 * KB, bandwidth_mbs: 1300.0 },
                CacheLevel { capacity: usize::MAX, bandwidth_mbs: 180.0 },
            ],
            call_overhead_ns: 180.0,
            dependent_bandwidth_mbs: 170.0,
            eff: KernelEfficiency { daxpy: 0.17, ddot: 0.36, dgemv: 0.45, dgemm: 0.68, dcopy: 0.45 },
        },
        MachineId::Sp2Thin2 => Machine {
            name: "SP2-Thin2",
            clock_mhz: 66.0,
            flops_per_cycle: 4.0, // Power2: two FMA units -> 264 MFlop/s
            levels: vec![
                // 128 KB L1, no L2; 128-bit memory bus feeds it well.
                CacheLevel { capacity: 128 * KB, bandwidth_mbs: 2100.0 },
                CacheLevel { capacity: usize::MAX, bandwidth_mbs: 700.0 },
            ],
            call_overhead_ns: 250.0,
            dependent_bandwidth_mbs: 200.0,
            eff: KernelEfficiency { daxpy: 0.45, ddot: 0.76, dgemv: 0.95, dgemm: 0.87, dcopy: 0.60 },
        },
        MachineId::P2sc => Machine {
            name: "SP2-P2SC",
            clock_mhz: 160.0,
            flops_per_cycle: 4.0, // P2SC: two FMA units -> 640 MFlop/s
            levels: vec![
                CacheLevel { capacity: 128 * KB, bandwidth_mbs: 2560.0 },
                CacheLevel { capacity: usize::MAX, bandwidth_mbs: 1100.0 },
            ],
            call_overhead_ns: 220.0,
            dependent_bandwidth_mbs: 420.0,
            eff: KernelEfficiency { daxpy: 0.28, ddot: 0.86, dgemv: 1.0, dgemm: 0.94, dcopy: 0.50 },
        },
        MachineId::Onyx2 => Machine {
            name: "Onyx2",
            clock_mhz: 195.0,
            flops_per_cycle: 2.0, // R10000 madd -> 390 MFlop/s
            levels: vec![
                CacheLevel { capacity: 32 * KB, bandwidth_mbs: 3100.0 },
                CacheLevel { capacity: 4 * MB, bandwidth_mbs: 1100.0 },
                CacheLevel { capacity: usize::MAX, bandwidth_mbs: 320.0 },
            ],
            call_overhead_ns: 200.0,
            dependent_bandwidth_mbs: 260.0,
            eff: KernelEfficiency { daxpy: 0.26, ddot: 0.67, dgemv: 0.77, dgemm: 0.85, dcopy: 0.40 },
        },
        MachineId::Ncsa => Machine {
            name: "NCSA",
            clock_mhz: 250.0,
            flops_per_cycle: 2.0, // 250 MHz R10000 -> 500 MFlop/s
            levels: vec![
                CacheLevel { capacity: 32 * KB, bandwidth_mbs: 4000.0 },
                CacheLevel { capacity: 4 * MB, bandwidth_mbs: 1400.0 },
                CacheLevel { capacity: usize::MAX, bandwidth_mbs: 400.0 },
            ],
            call_overhead_ns: 200.0,
            dependent_bandwidth_mbs: 330.0,
            eff: KernelEfficiency { daxpy: 0.26, ddot: 0.67, dgemv: 0.77, dgemm: 0.85, dcopy: 0.40 },
        },
        MachineId::Ap3000 => Machine {
            name: "AP3000",
            clock_mhz: 300.0,
            flops_per_cycle: 2.0, // UltraSPARC-II -> 600 MFlop/s
            levels: vec![
                CacheLevel { capacity: 16 * KB, bandwidth_mbs: 2400.0 },
                CacheLevel { capacity: MB, bandwidth_mbs: 1200.0 },
                CacheLevel { capacity: usize::MAX, bandwidth_mbs: 280.0 },
            ],
            call_overhead_ns: 200.0,
            dependent_bandwidth_mbs: 215.0,
            eff: KernelEfficiency { daxpy: 0.20, ddot: 0.50, dgemv: 0.58, dgemm: 0.67, dcopy: 0.40 },
        },
        MachineId::T3e => Machine {
            name: "T3E",
            clock_mhz: 450.0,
            flops_per_cycle: 2.0, // 21164A -> 900 MFlop/s
            levels: vec![
                CacheLevel { capacity: 8 * KB, bandwidth_mbs: 4400.0 },
                CacheLevel { capacity: 96 * KB, bandwidth_mbs: 2400.0 },
                // "tests were run with hardware prefetching (STREAMS)
                // enabled" — high sustained memory bandwidth.
                CacheLevel { capacity: usize::MAX, bandwidth_mbs: 950.0 },
            ],
            call_overhead_ns: 180.0,
            dependent_bandwidth_mbs: 300.0,
            eff: KernelEfficiency { daxpy: 0.21, ddot: 0.61, dgemv: 0.56, dgemm: 0.87, dcopy: 0.45 },
        },
        MachineId::Hitachi => Machine {
            name: "HITACHI",
            clock_mhz: 250.0,
            flops_per_cycle: 4.0, // pseudo-vector PA-RISC -> 1 GFlop/s
            levels: vec![
                CacheLevel { capacity: 128 * KB, bandwidth_mbs: 4000.0 },
                CacheLevel { capacity: usize::MAX, bandwidth_mbs: 2000.0 },
            ],
            call_overhead_ns: 300.0,
            dependent_bandwidth_mbs: 1500.0,
            eff: KernelEfficiency { daxpy: 0.50, ddot: 0.70, dgemv: 0.80, dgemm: 0.90, dcopy: 0.50 },
        },
    }
}

/// The machines in the *left* panels of Figures 1–6:
/// SP2-Thin2, SP2-Silver, Muses, AP3000, Onyx2.
pub fn machines_fig_left() -> Vec<Machine> {
    [
        MachineId::Sp2Thin2,
        MachineId::Sp2Silver,
        MachineId::Muses,
        MachineId::Ap3000,
        MachineId::Onyx2,
    ]
    .into_iter()
    .map(machine)
    .collect()
}

/// The machines in the *right* panels of Figures 1–6:
/// T3E, SP2-P2SC, Muses.
pub fn machines_fig_right() -> Vec<Machine> {
    [MachineId::T3e, MachineId::P2sc, MachineId::Muses]
        .into_iter()
        .map(machine)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Kernel;

    #[test]
    fn machine_mapping_covers_every_net() {
        for id in NetId::ALL {
            // Every catalog network maps without panicking, and the two
            // RoadRunner fabrics share the RoadRunner nodes.
            let m = MachineId::hosting(id);
            if matches!(id, NetId::RoadRunnerEth | NetId::RoadRunnerMyr) {
                assert_eq!(m, MachineId::RoadRunner);
            }
        }
    }

    #[test]
    fn all_ten_machines_build() {
        for id in MachineId::ALL {
            let m = machine(id);
            assert!(!m.levels.is_empty());
            assert!(m.peak_mflops() > 0.0);
            assert_eq!(m.levels.last().unwrap().capacity, usize::MAX, "{}", m.name);
        }
    }

    #[test]
    fn muses_and_roadrunner_share_cpu() {
        let a = machine(MachineId::Muses);
        let b = machine(MachineId::RoadRunner);
        assert_eq!(a.clock_mhz, b.clock_mhz);
        assert_eq!(a.levels, b.levels);
        assert_eq!(a.eff, b.eff);
    }

    #[test]
    fn paper_peak_flops_are_documented_values() {
        assert_eq!(machine(MachineId::Muses).peak_mflops(), 450.0);
        assert_eq!(machine(MachineId::Sp2Silver).peak_mflops(), 664.0);
        assert_eq!(machine(MachineId::P2sc).peak_mflops(), 640.0);
        assert_eq!(machine(MachineId::T3e).peak_mflops(), 900.0);
        assert_eq!(machine(MachineId::Sp2Thin2).peak_mflops(), 264.0);
    }

    /// The paper's §3.3 conclusion: "the T3E and SP2-P2SC machines are
    /// superior to the PC clusters" at the kernel level for dgemm.
    #[test]
    fn t3e_and_p2sc_beat_pc_on_large_dgemm() {
        let pc = machine(MachineId::Muses);
        let t3e = machine(MachineId::T3e);
        let p2sc = machine(MachineId::P2sc);
        let n = 200;
        let pc_rate = pc.kernel_rate(Kernel::Dgemm, n).mflops;
        assert!(t3e.kernel_rate(Kernel::Dgemm, n).mflops > pc_rate);
        assert!(p2sc.kernel_rate(Kernel::Dgemm, n).mflops > pc_rate);
    }

    /// §3.1: "For the BLAS Level 1 routines ... the PC performance for data
    /// that fit in the first level of cache is among the best" — check the
    /// PII beats the Silver node on in-L1 ddot.
    #[test]
    fn pc_in_l1_ddot_beats_silver() {
        let pc = machine(MachineId::Muses).kernel_rate(Kernel::Ddot, 256); // 4 KB
        let silver = machine(MachineId::Sp2Silver).kernel_rate(Kernel::Ddot, 256);
        assert!(pc.mflops > silver.mflops);
    }

    /// §3.1: "For data that needs to be fetched from main memory, all OS
    /// kernels are memory bandwidth bound, and the PC platform performs
    /// well due to its fast 100MHz SDRAM" — PC out-of-cache daxpy should
    /// beat the Silver node's.
    #[test]
    fn pc_memory_bound_daxpy_beats_silver() {
        let n = 1 << 20; // 16 MB working set
        let pc = machine(MachineId::Muses).kernel_rate(Kernel::Daxpy, n);
        let silver = machine(MachineId::Sp2Silver).kernel_rate(Kernel::Daxpy, n);
        assert!(pc.mflops > silver.mflops);
    }

    #[test]
    fn figure_panel_membership() {
        let left = machines_fig_left();
        assert_eq!(left.len(), 5);
        assert!(left.iter().any(|m| m.name == "Muses"));
        let right = machines_fig_right();
        assert_eq!(right.len(), 3);
        assert!(right.iter().any(|m| m.name == "T3E"));
    }

    #[test]
    fn t3e_dcopy_tops_out_near_2000_mbs() {
        // Figure 1 right panel: T3E peaks near 2 GB/s with STREAMS.
        let t3e = machine(MachineId::T3e);
        let r = t3e.kernel_rate(Kernel::Dcopy, 256); // 4 KB working set
        assert!(r.mbs > 1500.0 && r.mbs < 2300.0, "{}", r.mbs);
    }
}
