//! The one diff engine behind every committed-artifact gate.
//!
//! A committed file under `results/` belongs to a [`Family`] by name.
//! A JSON family's owner crate supplies an *extractor* that reads the
//! document into named [`Gate`] rows; [`diff`] matches baseline and
//! fresh rows by name and [`judge`]s each fresh value against its
//! baseline row's band. A [`Kind::Bytes`] family (the `*.txt` model
//! outputs) is compared byte for byte. The set of gated files and the
//! set of rows in each must be the same on both sides: a file or row
//! present on one side only is a failure, like a value outside its band.
//!
//! Everything gated lives on the virtual timeline or is an exact
//! counter, so a mismatch means the *code path* changed, not the host.
//! Tolerances are constants next to each extractor; nothing here is
//! configurable.

use crate::json::{parse, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

/// Which direction of movement beyond the band fails the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Growth regresses (wait share, imbalance, comm share).
    Up,
    /// Shrinkage regresses (overlap window).
    Down,
    /// Any movement regresses (physics means, fitted constants).
    Either,
    /// Any difference at all regresses (integer counters); `abs` and
    /// `rel` are ignored.
    Exact,
}

/// One gated number read back from an artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Row label, unique within its file (`imbalance[NonLinear]`).
    pub name: String,
    /// The value read from the file.
    pub value: f64,
    /// Which excursions fail.
    pub sense: Sense,
    /// Absolute half-width of the band.
    pub abs: f64,
    /// Half-width relative to `|value|`, added to `abs`.
    pub rel: f64,
}

impl Gate {
    /// A row that may move within `abs + rel * |value|`.
    pub fn new(name: impl Into<String>, value: f64, sense: Sense, abs: f64, rel: f64) -> Gate {
        Gate {
            name: name.into(),
            value,
            sense,
            abs,
            rel,
        }
    }

    /// A row that must reproduce exactly.
    pub fn exact(name: impl Into<String>, value: f64) -> Gate {
        Gate::new(name, value, Sense::Exact, 0.0, 0.0)
    }
}

/// Comparison verdict for one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Inside the band.
    Ok,
    /// Outside the band in the direction `sense` welcomes.
    Better,
    /// Outside the band in a direction `sense` forbids.
    Regressed,
}

/// Judges a fresh value against its baseline row.
pub fn judge(base: &Gate, fresh: f64) -> Verdict {
    let tol = match base.sense {
        Sense::Exact => 0.0,
        _ => base.abs + base.rel * base.value.abs(),
    };
    if (fresh - base.value).abs() <= tol {
        return Verdict::Ok;
    }
    match (base.sense, fresh > base.value) {
        (Sense::Up, false) | (Sense::Down, true) => Verdict::Better,
        _ => Verdict::Regressed,
    }
}

/// Parses an artifact and checks its `"schema"` tag — the first step of
/// every extractor, so a file of the wrong family or version fails
/// instead of gating on whatever fields happen to match.
pub fn parse_schema(text: &str, schema: &str) -> Result<Value, String> {
    let doc = parse(text)?;
    match doc.get("schema").and_then(Value::as_str) {
        Some(s) if s == schema => Ok(doc),
        other => Err(format!("schema is {other:?}, not \"{schema}\"")),
    }
}

/// Reads one artifact's text into its gated rows.
pub type Extractor = fn(&str) -> Result<Vec<Gate>, String>;

/// How a family's files are compared.
#[derive(Clone, Copy)]
pub enum Kind {
    /// Named rows, each inside its band.
    Rows(Extractor),
    /// Byte for byte.
    Bytes,
}

/// One artifact family: the files named `<prefix>*<suffix>`.
#[derive(Clone, Copy)]
pub struct Family {
    /// File-name prefix (`"PROF_"`; empty matches any).
    pub prefix: &'static str,
    /// File-name suffix (`".json"`).
    pub suffix: &'static str,
    /// How its files are compared.
    pub kind: Kind,
}

impl Family {
    fn owns(&self, name: &str) -> bool {
        name.starts_with(self.prefix) && name.ends_with(self.suffix)
    }
}

/// File name → contents, for the files of one directory that some
/// family owns.
pub type Files = BTreeMap<String, Vec<u8>>;

/// Reads every file in `dir` that one of `families` owns.
pub fn load(dir: &Path, families: &[Family]) -> std::io::Result<Files> {
    let mut files = Files::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if path.is_file() && families.iter().any(|f| f.owns(name)) {
            files.insert(name.to_string(), std::fs::read(&path)?);
        }
    }
    Ok(files)
}

fn show(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v}")
    } else if (1e-3..1e6).contains(&v.abs()) {
        format!("{v:.6}")
    } else {
        format!("{v:.6e}")
    }
}

/// The table and the failure count of one comparison.
struct Table {
    text: String,
    failures: usize,
}

impl Table {
    fn fail(&mut self, line: std::fmt::Arguments) {
        self.failures += 1;
        let _ = writeln!(self.text, "{line}");
    }

    /// One table line; an `Err` verdict counts as a failure.
    fn row(
        &mut self,
        name: &str,
        base: Option<f64>,
        fresh: Option<f64>,
        verdict: Result<&str, &str>,
    ) {
        let cell = |v: Option<f64>| v.map_or("-".to_string(), show);
        self.failures += usize::from(verdict.is_err());
        let (Ok(word) | Err(word)) = verdict;
        let _ = writeln!(
            self.text,
            "{name:<32} {:>14} {:>14}  {word}",
            cell(base),
            cell(fresh)
        );
    }

    fn rows(&mut self, base: &[Gate], fresh: &[Gate]) {
        for b in base {
            match fresh.iter().find(|f| f.name == b.name) {
                None => self.row(
                    &b.name,
                    Some(b.value),
                    None,
                    Err("MISSING from the fresh run"),
                ),
                Some(f) => {
                    let verdict = match judge(b, f.value) {
                        Verdict::Ok => Ok("ok"),
                        Verdict::Better => Ok("better"),
                        Verdict::Regressed => Err("REGRESSED"),
                    };
                    self.row(&b.name, Some(b.value), Some(f.value), verdict);
                }
            }
        }
        for f in fresh
            .iter()
            .filter(|f| !base.iter().any(|b| b.name == f.name))
        {
            self.row(&f.name, None, Some(f.value), Err("NEW (no baseline row)"));
        }
    }

    fn bytes(&mut self, base: &[u8], fresh: &[u8]) {
        let (b, f) = (Some(base.len() as f64), Some(fresh.len() as f64));
        if base == fresh {
            return self.row("bytes", b, f, Ok("ok"));
        }
        let same = base.iter().zip(fresh).take_while(|(x, y)| x == y);
        let line = 1 + same.filter(|(x, _)| **x == b'\n').count();
        self.row(
            "bytes",
            b,
            f,
            Err(&format!("REGRESSED (first difference on line {line})")),
        );
    }
}

/// Compares every gated file of `fresh` against `base` and returns the
/// printed table with the number of failures: rows outside their band,
/// rows or files present on one side only, files that do not parse.
pub fn diff(base: &Files, fresh: &Files, families: &[Family]) -> (String, usize) {
    let mut t = Table {
        text: String::new(),
        failures: 0,
    };
    let names: BTreeSet<&String> = base.keys().chain(fresh.keys()).collect();
    for name in names {
        let Some(family) = families.iter().find(|f| f.owns(name)) else {
            continue;
        };
        let (b, f) = match (base.get(name), fresh.get(name)) {
            (Some(b), Some(f)) => (b, f),
            (Some(_), None) => {
                t.fail(format_args!("\n{name}: MISSING from the fresh run"));
                continue;
            }
            _ => {
                t.fail(format_args!("\n{name}: NEW (no committed baseline)"));
                continue;
            }
        };
        let _ = writeln!(t.text, "\n{name}:");
        let _ = writeln!(
            t.text,
            "{:<32} {:>14} {:>14}  verdict",
            "metric", "base", "fresh"
        );
        match family.kind {
            Kind::Bytes => t.bytes(b, f),
            Kind::Rows(extract) => {
                let read = |side: &str, bytes: &[u8]| {
                    std::str::from_utf8(bytes)
                        .map_err(|e| e.to_string())
                        .and_then(extract)
                        .map_err(|e| format!("{side} {name}: {e}"))
                };
                match (read("baseline", b), read("fresh", f)) {
                    (Ok(b), Ok(f)) => t.rows(&b, &f),
                    (Err(e), _) | (_, Err(e)) => t.fail(format_args!("{e}")),
                }
            }
        }
    }
    (t.text, t.failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One rule, every direction: the band combines abs and rel, a zero
    /// baseline keeps the absolute band, `sense` picks which side fails.
    #[test]
    fn judge_table() {
        use Sense::*;
        use Verdict::*;
        #[rustfmt::skip]
        let cases = [
            // The band combines abs and rel: base 0.10, 0.02 + 10% -> tol 0.03.
            (0.10, 0.129, Up, 0.02, 0.10, Ok),
            (0.10, 0.131, Up, 0.02, 0.10, Regressed),
            (0.10, 0.069, Up, 0.02, 0.10, Better),
            // A zero baseline still has the absolute band.
            (0.0, 0.019, Up, 0.02, 0.10, Ok),
            (0.0, 0.021, Up, 0.02, 0.10, Regressed),
            // `Either` is two-sided.
            (1.0, 1.04, Either, 1e-12, 0.05, Ok),
            (1.0, 0.96, Either, 1e-12, 0.05, Ok),
            (1.0, 1.06, Either, 1e-12, 0.05, Regressed),
            (1.0, 0.94, Either, 1e-12, 0.05, Regressed),
            (0.0, 5e-13, Either, 1e-12, 0.05, Ok),
            (0.0, 2e-12, Either, 1e-12, 0.05, Regressed),
            // `sense` decides which direction regresses: tol 0.07.
            (0.50, 0.56, Up, 0.02, 0.10, Ok),
            (0.50, 0.60, Up, 0.02, 0.10, Regressed),
            (0.50, 0.40, Up, 0.02, 0.10, Better),
            (0.50, 0.40, Down, 0.02, 0.10, Regressed),
            (0.50, 0.60, Down, 0.02, 0.10, Better),
            (0.50, 0.60, Either, 0.02, 0.10, Regressed),
            (0.50, 0.40, Either, 0.02, 0.10, Regressed),
            // Exact ignores the band (the STATS integer rows).
            (360.0, 360.0, Exact, 1.0, 1.0, Ok),
            (360.0, 361.0, Exact, 1.0, 1.0, Regressed),
            (360.0, 359.0, Exact, 1.0, 1.0, Regressed),
        ];
        for (base, fresh, sense, abs, rel, want) in cases {
            let got = judge(&Gate::new("x", base, sense, abs, rel), fresh);
            assert_eq!(got, want, "judge({base}, {fresh}, {sense:?}, {abs}, {rel})");
        }
    }

    #[test]
    fn parse_schema_rejects_the_wrong_family() {
        assert!(parse_schema(r#"{"schema": "a-1", "x": 1}"#, "a-1").is_ok());
        for bad in [r#"{"schema": "b-1"}"#, r#"{"x": 1}"#, "{"] {
            assert!(parse_schema(bad, "a-1").is_err(), "{bad}");
        }
    }

    /// Toy row family: one `name value` pair per line, `Up` with a band
    /// of 0.5.
    fn toy(text: &str) -> Result<Vec<Gate>, String> {
        text.lines()
            .map(|l| {
                let (name, v) = l.split_once(' ').ok_or("no value")?;
                let v = v.parse::<f64>().map_err(|e| e.to_string())?;
                Ok(Gate::new(name, v, Sense::Up, 0.5, 0.0))
            })
            .collect()
    }

    const FAMILIES: [Family; 2] = [
        Family {
            prefix: "TOY_",
            suffix: ".dat",
            kind: Kind::Rows(toy),
        },
        Family {
            prefix: "",
            suffix: ".txt",
            kind: Kind::Bytes,
        },
    ];

    /// One side of a comparison: `(file name, contents)` pairs.
    type Side<'a> = &'a [(&'a str, &'a str)];

    fn files(entries: Side) -> Files {
        entries
            .iter()
            .map(|(n, t)| (n.to_string(), t.as_bytes().to_vec()))
            .collect()
    }

    /// The driver's whole contract, one case per line: what each kind
    /// of difference between the two sides costs.
    #[test]
    fn diff_table() {
        let base = [("TOY_a.dat", "x 1\ny 2"), ("t.txt", "one\ntwo\n")];
        #[rustfmt::skip]
        let cases: [(&str, Side, usize, &str); 10] = [
            ("identical", &base, 0, "ok"),
            ("inside the band", &[("TOY_a.dat", "x 1.4\ny 2"), base[1]], 0, "ok"),
            ("better", &[("TOY_a.dat", "x 0\ny 2"), base[1]], 0, "better"),
            ("outside the band", &[("TOY_a.dat", "x 1.6\ny 2"), base[1]], 1, "REGRESSED"),
            ("baseline row missing", &[("TOY_a.dat", "x 1"), base[1]], 1, "MISSING from the fresh run"),
            ("fresh row without a baseline", &[("TOY_a.dat", "x 1\ny 2\nz 3"), base[1]], 1, "NEW (no baseline row)"),
            ("baseline file missing", &[base[1]], 1, "TOY_a.dat: MISSING from the fresh run"),
            ("fresh file without a baseline", &[base[0], base[1], ("TOY_b.dat", "x 1")], 1, "TOY_b.dat: NEW"),
            ("unreadable file", &[("TOY_a.dat", "x"), base[1]], 1, "fresh TOY_a.dat: no value"),
            ("one byte flipped", &[base[0], ("t.txt", "one\ntwO\n")], 1, "first difference on line 2"),
        ];
        for (what, fresh, failures, needle) in cases {
            let (text, n) = diff(&files(&base), &files(fresh), &FAMILIES);
            assert_eq!(n, failures, "{what}:\n{text}");
            assert!(text.contains(needle), "{what}: no {needle:?} in\n{text}");
        }
        // Files no family owns are not gated.
        let (text, n) = diff(
            &files(&base),
            &files(&[base[0], base[1], ("notes.md", "x")]),
            &FAMILIES,
        );
        assert_eq!(n, 0, "{text}");
    }
}
