//! Fuzz properties for the grid specs `vds sweep --grid` reads from the
//! command line or a file: `GridSpec::parse_inline` and
//! `GridSpec::parse_toml` must answer `Ok` or a one-line error for any
//! text, never panic, and every grid they accept must re-parse from its
//! canonical rendering to the same rendering (the resume journal's
//! fingerprint).

use proptest::prelude::*;
use vds_sweep::GridSpec;

/// Grid vocabulary, numbers at and past every axis's range, both
/// syntaxes' separators, and characters that would break a line.
const TOKENS: &[&str] = &[
    "alpha",
    "s",
    "scheme",
    "q",
    "backend",
    "rounds",
    "seed",
    "program",
    "abstract",
    "micro",
    "vm",
    "conventional",
    "smt-det",
    "smt-prob",
    "smt-boost5",
    "checksum",
    "=",
    " = ",
    ";",
    ",",
    "[",
    "]",
    "\"",
    "#",
    "\n",
    "\r",
    "\r\n",
    "\u{2028}",
    "\u{2029}",
    "\u{0}",
    "\t",
    " ",
    "0",
    "-0",
    "0.5",
    "0.65",
    "1",
    "1.5",
    "20",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "1e309",
    "NaN",
    "inf",
    "é",
    "😀",
    "x",
];

/// A text of `raw.len()` tokens.
fn tokens(raw: &[u64]) -> String {
    raw.iter()
        .map(|&x| TOKENS[x as usize % TOKENS.len()])
        .collect()
}

/// A well-formed inline grid with one value spliced into a random term.
fn shaped(raw: &[u64], splice: u64) -> String {
    let mut terms = [
        "alpha=0.6,0.7".to_string(),
        "s=10,20".to_string(),
        "scheme=smt-det,smt-prob".to_string(),
        "q=0,0.02".to_string(),
        "rounds=100".to_string(),
    ];
    let at = splice as usize % terms.len();
    terms[at].push_str(&tokens(raw));
    terms.join(";")
}

/// `Ok`, or an error with no line break and no control character.
fn check(what: &str, text: &str, parsed: Result<GridSpec, String>) {
    match parsed {
        Ok(g) => {
            let canonical = g.canonical();
            let again = GridSpec::parse_inline(&canonical)
                .unwrap_or_else(|e| panic!("{what} {text:?}: canonical `{canonical}`: {e}"));
            assert_eq!(again.canonical(), canonical, "{what} {text:?}");
        }
        Err(e) => assert!(
            !e.is_empty()
                && !e
                    .chars()
                    .any(|c| c.is_control() || matches!(c, '\u{2028}' | '\u{2029}')),
            "{what} {text:?}: error {e:?} is not one line"
        ),
    }
}

proptest! {
    #[test]
    fn token_soup_is_ok_or_a_one_line_error(raw in prop::collection::vec(any::<u64>(), 0..24)) {
        let text = tokens(&raw);
        check("inline", &text, GridSpec::parse_inline(&text));
        check("toml", &text, GridSpec::parse_toml(&text));
    }

    #[test]
    fn spliced_grids_are_ok_or_a_one_line_error(
        raw in prop::collection::vec(any::<u64>(), 0..4),
        splice in any::<u64>(),
    ) {
        let text = shaped(&raw, splice);
        check("inline", &text, GridSpec::parse_inline(&text));
        let toml = text.replace(';', "\n").replace('=', " = ");
        check("toml", &toml, GridSpec::parse_toml(&toml));
    }
}

#[test]
fn echoed_line_breaks_are_escaped() {
    let err = GridSpec::parse_inline("alpha=0.6\n7").unwrap_err();
    assert_eq!(err, "bad alpha value `0.6\\n7`");
    let err = GridSpec::parse_inline("scheme=smt\r\nx").unwrap_err();
    assert_eq!(err, "unknown scheme `smt\\r\\nx`");
    let err = GridSpec::parse_toml("program = \"a\u{2028}b\"\nbackend = \"vm\"").unwrap_err();
    assert!(err.contains("a\\u{2028}b"), "{err}");
}
