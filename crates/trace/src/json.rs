//! The workspace's one JSON syntax, both directions: [`parse`] reads
//! the artifacts back (`TRACE_`, the `PROF_` / `STATS_` / `CALIB_`
//! baselines the [`crate::gate`] extractors gate, serve manifests) and
//! [`render`] / [`write`] produce every one of them from a [`Value`]
//! document its owner builds. The layout depends on the value's shape
//! alone: a container at depth 0 or 1 that holds a container is written
//! one member per line, indented two spaces a level; every other
//! container on one line with `, ` and `: `. Numbers are `f64` both ways
//! at shortest round-trip, so an artifact's integers sit below 2^53.
//! Not built for adversarial input — for the workspace's own files.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A JSON value: what [`parse`] returns and what [`render`] writes.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The object fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// The number under `key`, or an error naming the missing field —
    /// for readers of a known schema, where absence is a format error.
    pub fn req_f64(&self, key: &str) -> Result<f64, String> {
        self.get(key).and_then(Value::as_f64).ok_or_else(|| format!("no number \"{key}\""))
    }

    /// The string under `key`, or an error naming the missing field.
    pub fn req_str(&self, key: &str) -> Result<&str, String> {
        self.get(key).and_then(Value::as_str).ok_or_else(|| format!("no string \"{key}\""))
    }

    /// The array under `key`, or an error naming the missing field.
    pub fn req_arr(&self, key: &str) -> Result<&[Value], String> {
        self.get(key).and_then(Value::as_arr).ok_or_else(|| format!("no array \"{key}\""))
    }
}

macro_rules! from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Value {
                Value::Num(x as f64)
            }
        }
    )*};
}
from_number!(f64, u64, usize, u32, i64);

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

/// `None` is `null`.
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

/// An array of scalars.
impl<T: Into<Value> + Copy> From<&[T]> for Value {
    fn from(items: &[T]) -> Value {
        Value::Arr(items.iter().map(|&x| x.into()).collect())
    }
}

/// An object with a fixed list of fields, in order.
impl<const N: usize> From<[(&str, Value); N]> for Value {
    fn from(fields: [(&str, Value); N]) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

/// Renders `v` as a document ending in one newline. It [`parse`]s back
/// to `v`, except that non-finite numbers, which JSON cannot hold, are
/// `null`.
pub fn render(v: &Value) -> String {
    let mut out = String::new();
    emit(v, 0, &mut out);
    out.push('\n');
    out
}

/// Renders `doc` into `dir/file`, creating `dir`. Returns the path and
/// the bytes written (what a manifest entry hashes); an error names the
/// path.
pub fn write(dir: &Path, file: &str, doc: &Value) -> std::io::Result<(PathBuf, String)> {
    let path = dir.join(file);
    let text = render(doc);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, &text))
        .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    Ok((path, text))
}

/// Writes an observer's `doc` as `<KIND>_<run>.json` into
/// [`crate::out_dir`] and says so on stdout (`<kind>: wrote <path>`), or
/// on stderr when it cannot.
pub fn write_artifact(kind: &str, run: &str, doc: &Value) {
    let tag = kind.to_ascii_lowercase();
    match write(&crate::out_dir(), &format!("{kind}_{run}.json"), doc) {
        Ok((path, _)) => println!("{tag}: wrote {}", path.display()),
        Err(e) => eprintln!("{tag}: cannot write {e}"),
    }
}

/// Writes `v` nested `depth` containers deep (0 = the document itself).
fn emit(v: &Value, depth: usize, out: &mut String) {
    let (brackets, members): (_, Vec<(Option<&str>, &Value)>) = match v {
        Value::Null => return out.push_str("null"),
        Value::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
        Value::Num(x) if x.is_finite() => return out.push_str(&x.to_string()),
        Value::Num(_) => return out.push_str("null"),
        Value::Str(s) => return escape(s, out),
        Value::Arr(items) => ("[]", items.iter().map(|v| (None, v)).collect()),
        Value::Obj(fields) => ("{}", fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect()),
    };
    let nests = members.iter().any(|(_, v)| matches!(v, Value::Arr(_) | Value::Obj(_)));
    let tall = depth <= 1 && nests;
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    };
    out.push_str(&brackets[..1]);
    for (i, (key, v)) in members.iter().enumerate() {
        if i > 0 {
            out.push_str(if tall { "," } else { ", " });
        }
        if tall {
            newline(out, depth + 1);
        }
        if let Some(k) = key {
            escape(k, out);
            out.push_str(": ");
        }
        emit(v, depth + 1, out);
    }
    if tall {
        newline(out, depth);
    }
    out.push_str(&brackets[1..]);
}

/// A JSON string literal: quotes, backslashes and control characters
/// escaped, everything else verbatim.
fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Maximum container nesting depth. The recursive-descent parser uses
/// one stack frame per `[`/`{` level; without a cap, `"[[[[…"` input
/// overflows the thread stack (an abort, not an `Err`). Our writers
/// nest a handful of levels; 512 is three orders of magnitude of slack.
const MAX_DEPTH: usize = 512;

/// Parses a complete JSON document.
///
/// Total for any input: malformed or hostile documents (bad escapes,
/// unterminated strings, nesting beyond [`MAX_DEPTH`]) return `Err`,
/// never panic — property-tested in `tests/json_prop.rs`.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Value, String> {
        self.enter()?;
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.enter()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are not emitted by our writers.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy a full UTF-8 scalar (the input is valid UTF-8:
                    // it came from a &str).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("-1.5e3").unwrap(), Value::Num(-1500.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Value::Str("a\nb".to_string()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, 2, {"b": "x"}], "c": null}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[1].as_f64(), Some(2.0));
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("c"), Some(&Value::Null));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn unicode_escape() {
        assert_eq!(parse("\"\\u0041\"").unwrap(), Value::Str("A".to_string()));
        // Unpaired surrogates (never emitted by our writers) degrade to
        // the replacement character instead of panicking.
        assert_eq!(parse("\"\\ud800\"").unwrap(), Value::Str("\u{fffd}".to_string()));
        assert!(parse("\"\\u00g1\"").is_err());
        assert!(parse("\"\\u00\"").is_err());
    }

    #[test]
    fn nesting_beyond_the_cap_errors_instead_of_overflowing() {
        let deep_ok = format!("{}0{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deep_ok).is_ok());
        let too_deep = "[".repeat(100_000);
        let err = parse(&too_deep).expect_err("must reject, not abort");
        assert!(err.contains("nesting too deep"), "{err}");
        let mixed = "[{\"k\":".repeat(50_000);
        assert!(parse(&mixed).is_err());
    }

    #[test]
    fn roundtrips_writer_output() {
        let doc = crate::export::trace_document(&[]);
        let v = parse(&render(&doc)).unwrap();
        assert_eq!(v, doc);
        assert!(v.get("traceEvents").unwrap().as_arr().is_some());
        assert!(v.get("metrics").is_some());
    }

    /// One case per arm of the layout rule.
    #[test]
    fn layout_depends_on_shape_alone() {
        let scalars = || Value::from(&[1.5, -0.0, f64::NAN][..]);
        let cases = [
            // Empty containers, at any depth.
            (Value::Arr(vec![]), "[]\n"),
            (Value::from([("a", Value::Obj(vec![]))]), "{\n  \"a\": {}\n}\n"),
            // A depth-0 object of scalars is one line (one JSONL record).
            (
                Value::from([("s", "q\"\n".into()), ("n", Value::Null), ("t", Value::Bool(true))]),
                "{\"s\": \"q\\\"\\n\", \"n\": null, \"t\": true}\n",
            ),
            // A scalar array at depth 1 stays on its member's line.
            (Value::from([("xs", scalars())]), "{\n  \"xs\": [1.5, -0, null]\n}\n"),
            // At depth >= 2 every container is one line.
            (
                Value::Arr(vec![Value::Arr(vec![Value::from([("ys", scalars())])])]),
                "[\n  [\n    {\"ys\": [1.5, -0, null]}\n  ]\n]\n",
            ),
        ];
        for (v, want) in cases {
            assert_eq!(render(&v), want);
        }
    }
}
