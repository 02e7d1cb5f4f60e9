//! The `prop_check!` property-testing macro and its runtime: case
//! generation, failure shrinking, and seed reporting.
//!
//! Replaces `proptest` for this workspace. The surface is deliberately
//! close to `proptest!` so suites port mechanically:
//!
//! ```
//! nkt_testkit::prop_check! {
//!     #![cases(32)]                      // optional, default 64
//!
//!     fn addition_commutes(a in 0u64..1000, b in 0u64..1000) {
//!         prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! ```
//!
//! Every property runs `cases` times with inputs drawn from a per-test
//! deterministic seed (hash of the test path, overridable with
//! `NKT_PROP_SEED`). On failure the inputs are shrunk — recursive
//! multi-pass descent: each adopted simplification is itself re-shrunk
//! until no candidate still fails, under a global evaluation budget —
//! and the report prints the seed, the case seed, and the shrunk inputs
//! so the failure replays exactly. Integer shrinking bisects toward the
//! range floor; vector strategies additionally shrink their *length*
//! (see [`crate::vec_len_in`]), so minimal counterexamples come out both
//! short and small. `NKT_PROP_CASES` overrides the case count globally
//! (e.g. a nightly deep run with 10× cases).

use crate::rng::{splitmix64, Rng};
use crate::strategy::TupleStrategy;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Case count used when a suite does not set `#![cases(..)]`.
pub const DEFAULT_CASES: usize = 64;

/// Outcome of running one property body on one generated input.
#[derive(Debug)]
pub enum CaseOutcome {
    /// All assertions held.
    Pass,
    /// `prop_assume!` rejected the input; draw a fresh one.
    Discard,
    /// An assertion failed (or the body panicked), with a message.
    Fail(String),
}

/// Resolves the base seed for a test: `NKT_PROP_SEED` if set, else a
/// stable hash of the fully-qualified test name.
pub fn base_seed(test_name: &str) -> u64 {
    if let Ok(s) = std::env::var("NKT_PROP_SEED") {
        if let Ok(seed) = s.trim().parse::<u64>() {
            return seed;
        }
    }
    // FNV-1a over the name, finished with a SplitMix64 scramble. Spelled
    // out here, not nkt_ckpt::Fnv1a: nkt-testkit depends on nothing.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    splitmix64(&mut h)
}

/// Resolves the case count: `NKT_PROP_CASES` wins over the suite's value.
pub fn case_count(suite_value: usize) -> usize {
    if let Ok(s) = std::env::var("NKT_PROP_CASES") {
        if let Ok(n) = s.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    suite_value.max(1)
}

thread_local! {
    /// True while this thread is intentionally provoking panics (running
    /// a property body under `catch_unwind`); the hook stays quiet so
    /// shrinking does not spam stderr with expected panic reports.
    static QUIET_PANICS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn install_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked (non-string payload)".to_string()
    }
}

fn run_case<V, F: Fn(&V) -> CaseOutcome>(prop: &F, vals: &V) -> CaseOutcome {
    QUIET_PANICS.with(|q| q.set(true));
    let outcome = catch_unwind(AssertUnwindSafe(|| prop(vals)));
    QUIET_PANICS.with(|q| q.set(false));
    match outcome {
        Ok(o) => o,
        Err(p) => CaseOutcome::Fail(panic_message(p)),
    }
}

/// Drives one property: generates `cases` passing inputs, shrinks and
/// reports the first failure. Called by the [`prop_check!`] expansion —
/// not part of the stable surface.
pub fn run_prop<S, F>(test_name: &str, cases: usize, strats: &S, prop: &F)
where
    S: TupleStrategy,
    F: Fn(&S::Value) -> CaseOutcome,
{
    install_quiet_hook();
    let seed = base_seed(test_name);
    let mut seeds = Rng::new(seed);
    let mut passed = 0usize;
    let mut attempts = 0usize;
    while passed < cases {
        attempts += 1;
        assert!(
            attempts <= cases * 20 + 100,
            "property '{test_name}': too many discards ({passed}/{cases} passed after {attempts} attempts) — loosen prop_assume! or widen the strategies"
        );
        let case_seed = seeds.next_u64();
        let vals = strats.generate(&mut Rng::new(case_seed));
        match run_case(prop, &vals) {
            CaseOutcome::Pass => passed += 1,
            CaseOutcome::Discard => {}
            CaseOutcome::Fail(msg) => {
                let (vals, msg, steps) = shrink_failure(strats, prop, vals, msg);
                panic!(
                    "property '{test_name}' failed (case {n} of {cases}, {steps} shrink step(s))\n  \
                     base seed: {seed} — rerun with NKT_PROP_SEED={seed}\n  \
                     case seed: {case_seed}\n  \
                     input: {vals:?}\n  \
                     cause: {msg}",
                    n = passed + 1,
                );
            }
        }
    }
}

/// Identity helper that ties a property closure's argument type to a
/// strategy tuple's `Value`, so the closure body type-checks at its
/// definition site (used by the [`prop_check!`] expansion).
pub fn pin_prop<S, F>(_strats: &S, f: F) -> F
where
    S: TupleStrategy,
    F: Fn(&S::Value) -> CaseOutcome,
{
    f
}

/// Cap on property-body evaluations spent shrinking one failure. A
/// bisecting integer descent costs ~log₂(range) adoptions plus the
/// rejected siblings tried along the way; 4096 evaluations comfortably
/// covers 64-bit ranges and multi-kilobyte vectors while bounding the
/// worst case (a slow body shrinking a wide tuple).
const MAX_SHRINK_EVALS: usize = 4096;

/// Recursive multi-pass shrink: adopt the first candidate that still
/// fails, then re-shrink *the adopted value* from scratch — so a chain
/// of simplifications (halve, halve, …, step down) is followed to its
/// fixpoint rather than stopping after a fixed number of passes. The
/// descent ends when no candidate of the current value fails or the
/// evaluation budget is spent.
fn shrink_failure<S, F>(
    strats: &S,
    prop: &F,
    mut vals: S::Value,
    mut msg: String,
) -> (S::Value, String, usize)
where
    S: TupleStrategy,
    F: Fn(&S::Value) -> CaseOutcome,
{
    let mut steps = 0usize;
    let mut evals = 0usize;
    loop {
        let mut improved = false;
        for cand in strats.shrink(&vals) {
            if evals >= MAX_SHRINK_EVALS {
                return (vals, msg, steps);
            }
            evals += 1;
            if let CaseOutcome::Fail(m) = run_case(prop, &cand) {
                vals = cand;
                msg = m;
                steps += 1;
                improved = true;
                break;
            }
        }
        if !improved {
            return (vals, msg, steps);
        }
    }
}

/// Defines property tests. See the [module docs](self) for the syntax.
#[macro_export]
macro_rules! prop_check {
    // Internal: suite with the case count resolved to one expression.
    (@suite ($cases:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )+
    ) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                let cases = $crate::case_count($cases);
                let strats = ($($strat,)+);
                let prop = $crate::pin_prop(&strats, |__vals| {
                    let ($($arg,)+) = ::std::clone::Clone::clone(__vals);
                    $body
                    $crate::CaseOutcome::Pass
                });
                $crate::run_prop(
                    concat!(module_path!(), "::", stringify!($name)),
                    cases,
                    &strats,
                    &prop,
                );
            }
        )+
    };
    // Entry with a suite-level case count.
    (#![cases($cases:expr)] $($rest:tt)+) => {
        $crate::prop_check! { @suite ($cases as usize) $($rest)+ }
    };
    // Entry without: use the default.
    ($($rest:tt)+) => {
        $crate::prop_check! { @suite ($crate::DEFAULT_CASES) $($rest)+ }
    };
}

/// Asserts inside a [`prop_check!`] body; on failure the case is reported
/// (after shrinking) with the formatted message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return $crate::CaseOutcome::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return $crate::CaseOutcome::Fail(
                format!("assertion failed: {} — {}", stringify!($cond), format!($($fmt)+)),
            );
        }
    };
}

/// Equality assertion inside a [`prop_check!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return $crate::CaseOutcome::Fail(format!(
                "assertion failed: {} == {}\n    left: {l:?}\n   right: {r:?}",
                stringify!($left), stringify!($right),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return $crate::CaseOutcome::Fail(format!(
                "assertion failed: {} == {} — {}\n    left: {l:?}\n   right: {r:?}",
                stringify!($left), stringify!($right), format!($($fmt)+),
            ));
        }
    }};
}

/// Rejects the current input without failing: the runner draws a fresh
/// case (with a global cap on the discard rate).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return $crate::CaseOutcome::Discard;
        }
    };
}
