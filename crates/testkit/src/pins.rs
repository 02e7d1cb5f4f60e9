//! The pin ledger, `scripts/pins.txt`: every hand-maintained bitwise pin,
//! one `name | value | reason` row each (its header says what a value is).
//! Tests read it by name; nothing writes it (DESIGN.md §7, "Pins").

/// The ledger, compiled in.
const LEDGER: &str = include_str!("../../../scripts/pins.txt");

/// Panics unless `got`, as 16-digit hex words, is the value of ledger row
/// `name`, printing the committed row and its replacement.
pub fn assert_pin(name: &str, got: &[u64]) {
    assert_row(LEDGER, name, got);
}

/// [`assert_pin`] against the ledger `text`.
fn assert_row(text: &str, name: &str, got: &[u64]) {
    let (want, reason) = text
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(" | ")?.split_once(" | "))
        .unwrap_or_else(|| panic!("no pin named `{name}` in scripts/pins.txt"));
    let got = got.iter().map(|w| format!("{w:016x}")).collect::<Vec<_>>().join(" ");
    assert!(
        got == want,
        "pin `{name}` moved. Committed:\n{name} | {want} | {reason}\nIf the move is meant, \
         replace that row of scripts/pins.txt with this one and rewrite its reason:\n\
         {name} | {got} | {reason}\n"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every problem with `text` as a ledger, one line each: a row that is
    /// not `name | value | reason`, a repeated name, an empty reason, a
    /// value that is neither 16-digit hex words nor, in a `perfbench/` row,
    /// a `state hash` line.
    fn faults(text: &str) -> Vec<String> {
        let word = |w: &str| {
            w.len() == 16 && w.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
        };
        let mut names = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let [name, value, reason] = line.splitn(3, " | ").collect::<Vec<_>>()[..] else {
                out.push(format!("line {}: not `name | value | reason`", i + 1));
                continue;
            };
            if !names.insert(name) {
                out.push(format!("`{name}` is named twice"));
            }
            let well_formed = if name.starts_with("perfbench/") {
                value.starts_with("state hash ") && value.get(11..27).is_some_and(word)
            } else {
                value.split(' ').all(word)
            };
            if !well_formed {
                out.push(format!("`{name}`: malformed value `{value}`"));
            }
            if reason.trim().is_empty() {
                out.push(format!("`{name}` gives no reason"));
            }
        }
        out
    }

    #[test]
    fn the_ledger_parses_with_unique_names_and_hex_values() {
        assert_eq!(faults(LEDGER), Vec::<String>::new());
        assert!(LEDGER.lines().any(|l| l.contains(" | ")), "an empty ledger");
    }

    #[test]
    fn a_duplicate_a_malformed_value_and_a_torn_row_are_faults() {
        let text = "#\n\na | 00000000000000ff | r\na | 0ff | r\nb 00 r\nc | 00000000000000ff | \n";
        assert_eq!(
            faults(text),
            [
                "`a` is named twice",
                "`a`: malformed value `0ff`",
                "line 5: not `name | value | reason`",
                "`c` gives no reason"
            ]
        );
    }

    #[test]
    #[should_panic(expected = "\nx | 0000000000000001 00000000deadbeef | recorded here\n")]
    fn a_moved_pin_prints_its_replacement_row() {
        let text = "x | 0000000000000000 00000000deadbeef | recorded here\n";
        assert_row(text, "x", &[1, 0xdead_beef]);
    }

    #[test]
    #[should_panic(expected = "no pin named `nowhere`")]
    fn a_missing_name_panics_with_it() {
        assert_pin("nowhere", &[]);
    }
}
