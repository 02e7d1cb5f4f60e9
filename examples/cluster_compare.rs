//! "Fact or fiction?" in one screen: compare the $10k PC cluster against
//! the 1999 supercomputers on the paper's own axes — BLAS kernel rates,
//! network ping-pong, and the serial application step.
//!
//! ```sh
//! cargo run --release --example cluster_compare
//! ```

use nektar_repro::machine::{machine, Kernel, MachineId};
use nektar_repro::net::{cluster, NetId};

fn main() {
    nkt_trace::config::RunConfig::init_from_env();
    println!("== Kernel level: modeled BLAS rates (paper Figures 1-6) ==\n");
    let ids = [
        MachineId::Muses,
        MachineId::Sp2Silver,
        MachineId::Sp2Thin2,
        MachineId::P2sc,
        MachineId::Onyx2,
        MachineId::Ap3000,
        MachineId::T3e,
    ];
    println!(
        "{:<12} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "machine", "peak MF/s", "ddot@L1", "daxpy@mem", "dgemm n=10", "dgemm n=500"
    );
    for id in ids {
        let m = machine(id);
        println!(
            "{:<12} {:>10.0} {:>12.0} {:>12.0} {:>12.0} {:>12.0}",
            m.name,
            m.peak_mflops(),
            m.kernel_rate(Kernel::Ddot, 128).mflops,
            m.kernel_rate(Kernel::Daxpy, 1 << 20).mflops,
            m.kernel_rate(Kernel::Dgemm, 10).mflops,
            m.kernel_rate(Kernel::Dgemm, 500).mflops,
        );
    }

    println!("\n== Communication level: modeled ping-pong (paper Figure 7) ==\n");
    println!(
        "{:<24} {:>14} {:>16}",
        "network", "latency (us)", "bandwidth (MB/s)"
    );
    for id in [
        NetId::MusesLam,
        NetId::MusesMpich,
        NetId::RoadRunnerEth,
        NetId::RoadRunnerMyr,
        NetId::Sp2Silver,
        NetId::Sp2Thin2,
        NetId::Ap3000,
        NetId::T3e,
    ] {
        let c = cluster(id);
        println!(
            "{:<24} {:>14.0} {:>16.1}",
            c.name,
            c.inter.latency_for(8),
            c.inter.effective_bandwidth_mbs(1 << 22),
        );
    }

    println!("\nThe paper's verdict, reproduced: the PC keeps up at the kernel level");
    println!("(beats several supercomputers on in-cache BLAS-1 and memory-bound");
    println!("kernels), while Fast Ethernet is the weak link — and Myrinet closes");
    println!("most of the gap. \"Fact\", with a networking asterisk.");
}
