//! What the benchmark needs from the machine it runs on: a fingerprint
//! for the report, the process's peak memory, and a scratch directory
//! inside the checkout.

use nektar_repro::blas::{dgemm, Trans};
use std::hint::black_box;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Where a number in the report was measured.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse --short HEAD` (a driver checkout is not a git
    /// repository: "unknown" there).
    pub commit: String,
    /// See [`smt_slowdown`].
    pub smt_slowdown: f64,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs this process may run on (1 when the query fails).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Fingerprint {
    /// Collects the fingerprint; takes ≈0.2 s for the slowdown probe.
    pub fn collect() -> Fingerprint {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc: nproc(),
            cpu,
            rustc: command_line("rustc", &["--version"]),
            commit: command_line("git", &["rev-parse", "--short", "HEAD"]),
            smt_slowdown: smt_slowdown(),
        }
    }
}

/// Side of the probe kernel's matrices.
const N: usize = 96;

/// One fixed compute kernel (a 96³ `dgemm`, ≈0.4 ms).
fn kernel(a: &[f64], b: &[f64], c: &mut [f64]) {
    dgemm(Trans::No, Trans::No, N, N, N, 1.0, a, N, b, N, 0.0, c, N);
    black_box(&c);
}

fn kernel_median_ms(reps: usize) -> f64 {
    let a = vec![1.0 / 3.0; N * N];
    let b = vec![0.75; N * N];
    let mut c = vec![0.0; N * N];
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            kernel(black_box(&a), black_box(&b), &mut c);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::estimate::quantile(&times, 0.5)
}

/// How much one busy vCPU slows the other: median time of a fixed kernel
/// while a second thread runs the same kernel, over its median time
/// alone. ≈1.0 on separate cores, ≈1.6 on two hyperthreads of one core;
/// 1.0 by definition with a single CPU. Why the workloads never use more
/// rank threads than `nproc`, and why 2-rank step times are not twice
/// as good as 1-rank ones.
pub fn smt_slowdown() -> f64 {
    if nproc() < 2 {
        return 1.0;
    }
    let alone = kernel_median_ms(150);
    let stop = AtomicBool::new(false);
    let busy = std::thread::scope(|s| {
        s.spawn(|| {
            let a = vec![0.5; N * N];
            let b = vec![0.25; N * N];
            let mut c = vec![0.0; N * N];
            while !stop.load(Ordering::Relaxed) {
                kernel(&a, &b, &mut c);
            }
        });
        let t = kernel_median_ms(150);
        stop.store(true, Ordering::Relaxed);
        t
    });
    busy / alone
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `<target dir>/perf/<sub>`: scratch space for serve roots and
/// checkpoint probes. The target directory is found from the running
/// executable (`<target>/release/perfbench`), so it is wherever cargo
/// built — always inside the checkout, never `results/`.
pub fn scratch_dir(sub: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let target = exe
        .parent()
        .and_then(|p| p.parent())
        .expect("benchmark executable sits in <target>/<profile>/");
    let dir = target.join("perf").join(sub);
    // A previous run's leftovers would be restored from.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory under the target dir");
    dir
}

/// Removes every `NKT_*` variable so the shell cannot change what a
/// workload runs (`NKT_GRID`, `NKT_OVERLAP`, `NKT_TRACE`, ...). Call
/// before any thread is spawned.
pub fn scrub_env() {
    let keys: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .collect();
    for k in keys.iter().filter(|k| k.starts_with("NKT_")) {
        std::env::remove_var(k);
    }
}
