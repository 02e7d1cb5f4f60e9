//! # nkt-testkit — the workspace's self-built test substrate
//!
//! The build environment for this reproduction is offline by design
//! (hermetic, like the self-built stacks of the paper's cohort — PMS,
//! Tarang), so the usual crates (`rand`, `proptest`, `criterion`) are
//! replaced by this zero-dependency kit:
//!
//! * [`Rng`] — deterministic SplitMix64-seeded xoshiro256** PRNG;
//! * [`prop_check!`] — property testing with strategy-driven case
//!   generation, seed reporting, and recursive multi-pass shrinking
//!   (budgeted descent to a minimal counterexample; vectors also shrink
//!   their length — see [`Strategy`] / [`vec_in`] / [`vec_len_in`] /
//!   [`one_of`]);
//! * [`assert_pin`] — the pin ledger, `scripts/pins.txt`: every
//!   bitwise pin the tests hold, one reviewed row each.
//!
//! Host timing lives in `perfbench/`, which borrows [`Rng`] from here.
//!
//! Environment knobs: `NKT_PROP_SEED`, `NKT_PROP_CASES`.

pub mod pins;
pub mod prop;
pub mod rng;
pub mod strategy;

pub use pins::assert_pin;
pub use prop::{base_seed, case_count, pin_prop, run_prop, CaseOutcome, DEFAULT_CASES};
pub use rng::{splitmix64, Rng};
pub use strategy::{one_of, vec_in, vec_len_in, OneOf, Strategy, TupleStrategy, VecIn, VecLenIn};

/// `<tmp>/nkt_<label>_<pid>`, created: a unit test's scratch directory,
/// for crates whose sources do not name `std::env`.
pub fn scratch_dir(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("nkt_{label}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create a directory under the system temp dir");
    dir
}
