//! The one reader of the environment: every `NKT_*` variable a run can
//! depend on is a row of [`VARS`], parsed once at a binary's entry into
//! a typed [`RunConfig`] whose values are handed down as arguments. An
//! unknown `NKT_*` name or a malformed value is a [`ConfigError`] naming
//! variable, value and what was expected — never a silent default.
//!
//! Values are trimmed; an empty value means unset. Every flag has one
//! dialect, `1`/`on`/`true` or `0`/`off`/`false`, case-insensitive.

use crate::TraceMode;
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

// The kinds of value, as the error message and README print them.
const FLAG: &str = "`1`/`on`/`true` or `0`/`off`/`false`";
const TRACE: &str = "`off`, `counters`, `spans`, `summary` or a flag (`on` = `spans`)";
const COUNT: &str = "a non-negative integer";
const POSITIVE: &str = "a positive integer";
const PATH: &str = "a path";
/// Read by `nkt-testkit` under `cargo test`; [`RunConfig`] only knows
/// the names, so `verify.sh --deep` is not an unknown-variable error.
const FOREIGN: &str = "an integer (read by `nkt-testkit`)";

fn flag(v: &str) -> Option<bool> {
    match v.to_ascii_lowercase().as_str() {
        "1" | "on" | "true" => Some(true),
        "0" | "off" | "false" => Some(false),
        _ => None,
    }
}

fn count(v: &str) -> Option<u64> {
    v.parse().ok()
}

fn path(slot: &mut Option<PathBuf>, v: &str) -> Option<()> {
    *slot = Some(v.into());
    Some(())
}

/// `summary` needs the same span stream as `spans`; only the
/// export-time rendering differs, hence the second value.
fn trace(v: &str) -> Option<(TraceMode, bool)> {
    Some(match (v.to_ascii_lowercase().as_str(), flag(v)) {
        (_, Some(false)) => (TraceMode::Off, false),
        ("counters", _) => (TraceMode::Counters, false),
        ("spans", _) | (_, Some(true)) => (TraceMode::Spans, false),
        ("summary", _) => (TraceMode::Spans, true),
        _ => return None,
    })
}

/// One row of the name table.
pub struct Var {
    pub name: &'static str,
    /// The accepted values, in words.
    pub expected: &'static str,
    /// What unset means, as the README prints it.
    pub default: &'static str,
    pub doc: &'static str,
    set: Set,
}

/// Stores a trimmed, non-empty value; `None` if it is malformed.
type Set = fn(&mut RunConfig, &str) -> Option<()>;

const fn var(name: &'static str, expected: &'static str, default: &'static str, set: Set, doc: &'static str) -> Var {
    Var { name, expected, default, doc, set }
}

/// Every `NKT_*` name the workspace accepts. README's "Run
/// configuration" table is held to these rows by a test.
pub const VARS: [Var; 10] = [
    var("NKT_TRACE", TRACE, "`off`", |c, v| trace(v).map(|t| (c.trace, c.summary) = t),
        "recording mode; `summary` records spans and prints a per-stage digest instead of writing `TRACE_<run>.json`"),
    var("NKT_TRACE_DIR", PATH, "`<workspace>/results`", |c, v| path(&mut c.trace_dir, v),
        "where `TRACE_`, `PROF_` and `FLIGHT_` files land"),
    var("NKT_PROF", FLAG, "off", |c, v| flag(v).map(|on| c.prof = on),
        "`nkt-bench`, `serve_farm`: profile the Table 2/3 replays and each served job into `PROF_<run>.json` (raises the recording mode to `spans`)"),
    var("NKT_HEALTH", FLAG, "off", |c, v| flag(v).map(|on| c.health = on),
        "sample every step and evaluate the watchdog rules at each sample (raises the recording mode to `counters`)"),
    var("NKT_CKPT_EVERY", COUNT, "0 (off)", |c, v| count(v).map(|n| c.ckpt_every = (n > 0).then_some(n as usize)),
        "write a checkpoint epoch every `N` steps and resume from the newest valid one"),
    var("NKT_CKPT_DIR", PATH, "`<workspace>/results`", |c, v| path(&mut c.ckpt_dir, v),
        "directory of checkpoint shards and manifests"),
    var("NKT_MPI_DEADLINE_MS", POSITIVE, "none", |c, v| count(v).filter(|&n| n > 0).map(|ms| c.recv_deadline = Some(Duration::from_millis(ms))),
        "host-time cap on any single `recv`/`wait`; a rank that waits longer panics with every rank's blocking site"),
    var("NKT_SERVE_OUT", PATH, "`<workspace>/results/serve_farm`", |c, v| path(&mut c.serve_out, v),
        "`serve_farm`: serve root"),
    var("NKT_PROP_SEED", FOREIGN, "per-test", |_, _| Some(()), "property tests: replay a reported failure"),
    var("NKT_PROP_CASES", FOREIGN, "per-suite", |_, _| Some(()), "property tests: cases per property"),
];

/// Why the environment was rejected: `name` is not a row of [`VARS`], or
/// `value` is not one its row accepts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    pub name: String,
    pub value: String,
    pub expected: &'static str,
}

/// [`ConfigError::expected`] of an unknown `NKT_*` name.
pub const KNOWN_NAME: &str = "a name from README's \"Run configuration\" table";

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config: {}={:?}: expected {}", self.name, self.value, self.expected)
    }
}

impl std::error::Error for ConfigError {}

/// Everything a run reads from outside, typed. Fields are what the
/// shell asked for; [`RunConfig::trace_mode`] and
/// [`RunConfig::stats_every`] resolve the interactions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunConfig {
    /// `NKT_TRACE` as requested (see [`RunConfig::trace_mode`]).
    pub trace: TraceMode,
    /// `NKT_TRACE=summary`.
    pub summary: bool,
    pub trace_dir: Option<PathBuf>,
    pub prof: bool,
    pub health: bool,
    pub ckpt_every: Option<usize>,
    pub ckpt_dir: Option<PathBuf>,
    pub recv_deadline: Option<Duration>,
    pub serve_out: Option<PathBuf>,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            trace: TraceMode::Off,
            summary: false,
            trace_dir: None,
            prof: false,
            health: false,
            ckpt_every: None,
            ckpt_dir: None,
            recv_deadline: None,
            serve_out: None,
        }
    }
}

impl RunConfig {
    /// The process environment, parsed.
    pub fn from_env() -> Result<RunConfig, ConfigError> {
        RunConfig::parse(std::env::vars_os().map(|(k, v)| {
            (k.to_string_lossy().into_owned(), v.to_string_lossy().into_owned())
        }))
    }

    /// A binary's first line: [`RunConfig::from_env`], then the trace
    /// part applied through [`crate::init`]. A rejected environment
    /// prints the error and exits 2 before anything runs.
    pub fn init_from_env() -> RunConfig {
        let cfg = RunConfig::from_env().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        crate::init(&cfg);
        cfg
    }

    /// Parses `(name, value)` pairs; names outside `NKT_*` are skipped.
    pub fn parse(vars: impl Iterator<Item = (String, String)>) -> Result<RunConfig, ConfigError> {
        let mut cfg = RunConfig::default();
        for (name, raw) in vars.filter(|(name, _)| name.starts_with("NKT_")) {
            let value = raw.trim();
            let expected = match VARS.iter().find(|v| v.name == name) {
                None => KNOWN_NAME,
                Some(_) if value.is_empty() => continue,
                Some(row) if (row.set)(&mut cfg, value).is_some() => continue,
                Some(row) => row.expected,
            };
            return Err(ConfigError { name, value: value.to_string(), expected });
        }
        Ok(cfg)
    }

    /// The recording mode the run needs: the requested one, raised to
    /// spans by `NKT_PROF` (its input is spans) and to counters by
    /// `NKT_HEALTH` (the samples' per-rank collective-invocation column).
    pub fn trace_mode(&self) -> TraceMode {
        let spans = if self.prof { TraceMode::Spans } else { TraceMode::Off };
        let counters = if self.stats_every() > 0 { TraceMode::Counters } else { TraceMode::Off };
        self.trace.max(spans).max(counters)
    }

    /// Sampling cadence in steps, 0 = none: every step when the watchdog
    /// is on (rules run at sample points).
    pub fn stats_every(&self) -> u64 {
        u64::from(self.health)
    }

    /// `NKT_CKPT_DIR`, defaulting to the workspace `results/`.
    pub fn ckpt_dir(&self) -> PathBuf {
        self.ckpt_dir.clone().unwrap_or_else(crate::results_dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(pairs: &[(&str, &str)]) -> Result<RunConfig, ConfigError> {
        RunConfig::parse(pairs.iter().map(|&(k, v)| (k.to_string(), v.to_string())))
    }

    fn with(name: &str, value: &str) -> RunConfig {
        parse(&[(name, value)]).unwrap_or_else(|e| panic!("{name}={value:?} rejected: {e}"))
    }

    /// What a spelling must leave in the config.
    type Holds = Box<dyn Fn(&RunConfig) -> bool>;
    /// Per row: accepted spellings and one malformed value.
    type Row = (&'static str, Vec<(&'static str, Holds)>, &'static str);

    fn rows() -> Vec<Row> {
        fn ok(f: impl Fn(&RunConfig) -> bool + 'static) -> Holds {
            Box::new(f)
        }
        fn flag(get: fn(&RunConfig) -> bool) -> Vec<(&'static str, Holds)> {
            let mut v = Vec::new();
            for on in ["1", "on", "true", " ON ", "True"] {
                v.push((on, ok(get)));
            }
            for off in ["0", "off", "false", "OFF", " False"] {
                v.push((off, ok(move |c| !get(c))));
            }
            v
        }
        vec![
            (
                "NKT_TRACE",
                vec![
                    ("off", ok(|c| c.trace == TraceMode::Off && !c.summary)),
                    ("0", ok(|c| c.trace == TraceMode::Off)),
                    ("counters", ok(|c| c.trace == TraceMode::Counters)),
                    ("spans", ok(|c| c.trace == TraceMode::Spans && !c.summary)),
                    ("SPANS", ok(|c| c.trace == TraceMode::Spans)),
                    ("on", ok(|c| c.trace == TraceMode::Spans)),
                    ("1", ok(|c| c.trace == TraceMode::Spans)),
                    ("summary", ok(|c| c.trace == TraceMode::Spans && c.summary)),
                ],
                "span",
            ),
            ("NKT_TRACE_DIR", vec![("/tmp/t", ok(|c| c.trace_dir == Some("/tmp/t".into())))], ""),
            ("NKT_PROF", flag(|c| c.prof), "yes"),
            ("NKT_HEALTH", flag(|c| c.health), "enabled"),
            (
                "NKT_CKPT_EVERY",
                vec![("2", ok(|c| c.ckpt_every == Some(2))), ("0", ok(|c| c.ckpt_every.is_none()))],
                "2.0",
            ),
            ("NKT_CKPT_DIR", vec![("ck", ok(|c| c.ckpt_dir() == std::path::Path::new("ck")))], ""),
            (
                "NKT_MPI_DEADLINE_MS",
                vec![("5000", ok(|c| c.recv_deadline == Some(Duration::from_secs(5))))],
                "5s",
            ),
            ("NKT_SERVE_OUT", vec![("/tmp/s", ok(|c| c.serve_out == Some("/tmp/s".into())))], ""),
            ("NKT_PROP_SEED", vec![("42", ok(|c| *c == RunConfig::default()))], ""),
            ("NKT_PROP_CASES", vec![("1000", ok(|c| *c == RunConfig::default()))], ""),
        ]
    }

    #[test]
    fn every_row_parses_its_spellings_and_rejects_a_malformed_value() {
        let rows = rows();
        assert_eq!(
            rows.iter().map(|r| r.0).collect::<Vec<_>>(),
            VARS.iter().map(|v| v.name).collect::<Vec<_>>(),
            "one test row per table row, in table order"
        );
        for (name, accepted, malformed) in rows {
            for (spelling, holds) in accepted {
                assert!(holds(&with(name, spelling)), "{name}={spelling:?} parsed to the wrong value");
            }
            assert_eq!(with(name, "  "), RunConfig::default(), "{name}: empty means unset");
            // Paths and the foreign names accept any non-empty text.
            if malformed.is_empty() {
                continue;
            }
            let err = parse(&[(name, malformed)]).expect_err("malformed value accepted");
            assert_ne!(err.expected, KNOWN_NAME, "{err:?}");
            let text = err.to_string();
            assert!(text.contains(name) && text.contains(malformed), "{text}");
            assert!(!text.contains('\n'), "one line: {text}");
        }
    }

    #[test]
    fn unknown_nkt_names_error_and_other_variables_are_skipped() {
        let err = parse(&[("NKT_PROFF", "1")]).expect_err("typo accepted");
        assert_eq!(
            err,
            ConfigError { name: "NKT_PROFF".into(), value: "1".into(), expected: KNOWN_NAME }
        );
        let text = err.to_string();
        assert!(text.contains("NKT_PROFF") && text.contains('1'), "{text}");
        // A deleted knob is an unknown name, not a silent no-op.
        for (name, value) in [
            ("NKT_A2A_ALGO", "ring"),
            ("NKT_OVERLAP", "0"),
            ("NKT_GS_OVERLAP", "0"),
            ("NKT_STEPS", "10"),
            ("NKT_INJECT_NAN", "2"),
            ("NKT_SERVE_MAX_WORLDS", "1"),
            ("NKT_CALIB", "1"),
            ("NKT_STATS", "1"),
            ("NKT_RANKS", "8"),
            ("NKT_NZ", "8"),
            ("NKT_GRID", "4x2"),
        ] {
            let gone = parse(&[(name, value)]).expect_err("deleted knob accepted");
            assert_eq!(gone.expected, KNOWN_NAME, "{name}");
        }
        let cfg = parse(&[("NKT_PROP_CASES", "1000"), ("PATH", "/bin"), ("NKTX", "?"), ("nkt_prof", "1")]);
        assert_eq!(cfg, Ok(RunConfig::default()));
    }

    #[test]
    fn defaults_are_the_ones_every_reader_had() {
        let c = parse(&[]).unwrap();
        assert_eq!((c.ckpt_every, c.ckpt_dir()), (None, crate::results_dir()));
        assert_eq!((c.trace_mode(), c.summary, c.trace_dir.clone()), (TraceMode::Off, false, None));
        assert!(!c.prof && !c.health);
        assert_eq!((c.stats_every(), c.recv_deadline), (0, None));
        assert_eq!(c.serve_out, None);
    }

    #[test]
    fn trace_mode_is_the_request_raised_by_the_observers() {
        // `trace_mode` is the requested mode raised to spans by PROF and
        // to counters by the watchdog, over every combination of the two
        // switches.
        for (trace, requested) in [
            ("off", TraceMode::Off),
            ("counters", TraceMode::Counters),
            ("spans", TraceMode::Spans),
            ("summary", TraceMode::Spans),
        ] {
            for bits in 0..4u32 {
                let on = |b: u32| if bits & (1 << b) != 0 { "1" } else { "0" };
                let c =
                    parse(&[("NKT_TRACE", trace), ("NKT_PROF", on(0)), ("NKT_HEALTH", on(1))]).unwrap();
                let mut want = requested;
                if c.prof {
                    want = want.max(TraceMode::Spans);
                }
                if c.health {
                    want = want.max(TraceMode::Counters);
                }
                assert_eq!(c.trace_mode(), want, "NKT_TRACE={trace} bits {bits:02b}");
                assert_eq!(c.stats_every(), u64::from(c.health));
                assert_eq!(c.summary, trace == "summary");
            }
        }
    }

    #[test]
    fn readme_table_is_the_name_table() {
        let readme = include_str!("../../../README.md");
        for v in VARS {
            let row = format!("| `{}` | {} | {} | {} |", v.name, v.expected, v.default, v.doc);
            assert!(readme.contains(&row), "README \"Run configuration\" lacks the row:\n{row}");
        }
        // A second variable table would be a second place to go stale.
        let is_name = |n: &str| n.bytes().all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_');
        let rows = readme
            .lines()
            .filter_map(|l| l.strip_prefix("| `NKT_")?.split_once('`'))
            .filter(|(name, _)| is_name(name))
            .count();
        assert_eq!(rows, VARS.len(), "README has a variable row the table does not");
    }
}
