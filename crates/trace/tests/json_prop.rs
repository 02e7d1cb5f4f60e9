//! Property tests hardening the workspace's one JSON syntax: random
//! documents round-trip through the production `render` and render back
//! canonically, an object of scalars is one line, random
//! mutations/truncations never panic the parser, escape sequences decode
//! exactly, and nesting depth is bounded by an `Err` rather than a stack
//! overflow.

use nkt_testkit::{one_of, prop_check, vec_len_in, Rng};
use nkt_trace::json::{parse, render, Value};

/// Generates a random JSON value. Width and depth are bounded so a case
/// stays small enough to shrink meaningfully.
fn gen_value(rng: &mut Rng, depth: usize) -> Value {
    let kind = if depth == 0 { rng.below(4) } else { rng.below(6) };
    match kind {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        2 => {
            // Round-trippable numbers: integers, fractions, exponents.
            match rng.below(3) {
                0 => Value::Num(rng.range_u64(0, 1 << 53) as f64 - (1u64 << 52) as f64),
                1 => Value::Num(rng.range_f64(-1e6, 1e6)),
                _ => Value::Num(rng.range_f64(-1.0, 1.0) * 10f64.powi(rng.below(200) as i32 - 100)),
            }
        }
        3 => Value::Str(gen_string(rng)),
        4 => {
            let n = rng.below(4) as usize;
            Value::Arr((0..n).map(|_| gen_value(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.below(4) as usize;
            Value::Obj((0..n).map(|i| (format!("k{i}_{}", gen_string(rng)), gen_value(rng, depth - 1))).collect())
        }
    }
}

/// Random strings biased toward the characters the escaper must handle.
fn gen_string(rng: &mut Rng) -> String {
    let n = rng.below(8) as usize;
    (0..n)
        .map(|_| match rng.below(8) {
            0 => '"',
            1 => '\\',
            2 => '\n',
            3 => '\t',
            4 => char::from_u32(rng.below(0x20) as u32).unwrap(),
            5 => char::from_u32(0x80 + rng.below(0x500) as u32).unwrap_or('é'),
            6 => '𝄞', // astral plane: surrogate-pair territory in \u terms
            _ => char::from_u32(0x21 + rng.below(0x5e) as u32).unwrap(),
        })
        .collect()
}

/// Duplicate object keys make generated docs compare unequal after a
/// round trip through `Value::get`-style readers; the generator above
/// never emits them (keys are index-prefixed), so plain equality holds.
fn assert_roundtrip(v: &Value) {
    let text = render(v);
    let back = parse(&text).unwrap_or_else(|e| panic!("roundtrip parse failed: {e}\ndoc: {text}"));
    assert_eq!(&back, v, "doc: {text}");
}

prop_check! {
    fn generated_docs_roundtrip(seed in 0u64..u64::MAX, depth in 0usize..5) {
        let mut rng = Rng::new(seed);
        let v = gen_value(&mut rng, depth);
        assert_roundtrip(&v);
    }

    fn rendering_is_canonical(seed in 0u64..u64::MAX, depth in 0usize..5) {
        let mut rng = Rng::new(seed);
        let text = render(&gen_value(&mut rng, depth));
        assert_eq!(render(&parse(&text).unwrap()), text);
    }

    fn scalar_objects_render_as_one_line(seed in 0u64..u64::MAX) {
        // The EVENTS contract: a depth-0 object of scalars is one JSONL
        // record, whatever its strings hold.
        let mut rng = Rng::new(seed);
        let n = rng.below(6) as usize;
        let v = Value::Obj(
            (0..n).map(|i| (format!("k{i}_{}", gen_string(&mut rng)), gen_value(&mut rng, 0))).collect(),
        );
        let text = render(&v);
        assert_eq!(text.matches('\n').count(), 1, "doc: {text}");
        assert!(text.ends_with('\n'));
    }

    fn mutated_docs_never_panic(
        seed in 0u64..u64::MAX,
        flips in vec_len_in(0usize..4096, 0..9),
    ) {
        let mut rng = Rng::new(seed);
        let v = gen_value(&mut rng, 3);
        let mut bytes = render(&v).into_bytes();
        for &f in &flips {
            if !bytes.is_empty() {
                let pos = f % bytes.len();
                bytes[pos] = (rng.below(256)) as u8;
            }
        }
        // Totality is the property: Ok or Err, never a panic/abort.
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }

    fn truncated_containers_error(seed in 0u64..u64::MAX, cut in 1usize..4096) {
        let mut rng = Rng::new(seed);
        let v = Value::Arr(vec![gen_value(&mut rng, 3)]);
        let text = render(&v);
        let text = text.trim_end();
        // Any strict prefix of a container document is malformed: the
        // parser must say Err (and not panic on the dangling state).
        let mut cut = cut % text.len();
        while cut > 0 && !text.is_char_boundary(cut) {
            cut -= 1;
        }
        if cut > 0 {
            let prefix = &text[..cut];
            assert!(parse(prefix).is_err(), "prefix parsed: {prefix}");
        }
    }

    fn escape_fragments_decode_exactly(
        toks in vec_len_in(one_of(&[0usize, 1, 2, 3, 4, 5, 6, 7]), 0..10),
    ) {
        const FRAGS: [(&str, &str); 8] = [
            ("\\n", "\n"),
            ("\\t", "\t"),
            ("\\r", "\r"),
            ("\\\"", "\""),
            ("\\\\", "\\"),
            ("\\u0041", "A"),
            ("\\u00e9", "é"),
            ("x", "x"),
        ];
        let mut doc = String::from("\"");
        let mut want = String::new();
        for &t in &toks {
            doc.push_str(FRAGS[t].0);
            want.push_str(FRAGS[t].1);
        }
        doc.push('"');
        assert_eq!(parse(&doc).unwrap(), Value::Str(want));
    }

    fn deep_nesting_is_total(depth in 1usize..2000, kind in 0usize..3) {
        let doc = match kind {
            0 => format!("{}0{}", "[".repeat(depth), "]".repeat(depth)),
            1 => format!("{}0{}", "{\"k\":".repeat(depth), "}".repeat(depth)),
            _ => "[".repeat(depth), // unterminated
        };
        let res = parse(&doc);
        if kind == 2 {
            assert!(res.is_err());
        } else {
            // Within the cap it parses; beyond it, a clean Err.
            assert_eq!(res.is_ok(), depth <= 512, "depth {depth}: {res:?}");
        }
    }

    fn bad_escapes_error(tail in 0usize..6) {
        let doc = match tail {
            0 => "\"\\q\"",
            1 => "\"\\u12\"",
            2 => "\"\\u12g4\"",
            3 => "\"\\",
            4 => "\"\\u\"",
            _ => "\"abc",
        };
        assert!(parse(doc).is_err(), "{doc}");
    }
}
