//! Fuzz properties for the fault-spec strings `vds replay` reads from a
//! journal header: `FaultKind::parse_spec` (micro faults) and
//! `VmFaultSite::parse_spec` (`vm:` sites) must answer `Some` or `None`
//! for any string, never panic, and every spec they accept must
//! round-trip through `spec_string`.

use proptest::prelude::*;
use vds_fault::model::FaultKind;
use vds_fault::vm::VmFaultSite;

/// Spec vocabulary, numbers at and past every field's range, and bytes
/// no spec contains.
const TOKENS: &[&str] = &[
    "transient",
    "reg",
    "mem",
    "text",
    "permfu",
    "alu",
    "mul",
    "branch",
    "none",
    "crash",
    "stop",
    "vm",
    "pc",
    "lit",
    "0",
    "1",
    "7",
    "15",
    "16",
    "31",
    "32",
    "40",
    "255",
    "256",
    "65535",
    "65536",
    "4294967295",
    "4294967296",
    "18446744073709551616",
    "+3",
    "-1",
    "",
    " ",
    "é",
    "😀",
    "\u{0}",
    "@v2",
    "x",
];

/// A string of tokens, about a third of them `:` separators.
fn tokens(raw: &[u64]) -> String {
    raw.iter()
        .map(|&x| {
            if x % 3 == 0 {
                ":"
            } else {
                TOKENS[(x >> 8) as usize % TOKENS.len()]
            }
        })
        .collect()
}

/// A well-formed spec of a random form whose numeric fields range past
/// what each field allows.
fn shaped(form: u64, a: u64, b: u64) -> String {
    let n = |x: u64| (x % 5000).to_string();
    match form % 10 {
        0 => format!("transient:reg:{}:{}", n(a), n(b)),
        1 => format!("transient:mem:{}:{}", a >> 20, n(b)),
        2 => format!("transient:text:{}:{}", n(a), n(b)),
        3 => format!(
            "permfu:{}:{}:{}:{}",
            ["alu", "mul", "mem", "branch", "none"][(a % 5) as usize],
            a % 4,
            b % 300,
            b >> 63
        ),
        4 => "crash".to_string(),
        5 => "stop".to_string(),
        6 => format!("vm:reg:{}:{}", n(a), n(b)),
        7 => format!("vm:pc:{}", n(b)),
        8 => format!("vm:lit:{}:{}", n(a), n(b)),
        _ => format!("vm:mem:{}:{}", n(a), n(b)),
    }
}

fn check(spec: &str) {
    if let Some(kind) = FaultKind::parse_spec(spec) {
        let canonical = kind.spec_string();
        assert_eq!(FaultKind::parse_spec(&canonical), Some(kind), "{spec:?}");
        if let FaultKind::PermanentFu(f) = kind {
            assert!(f.bit < 32, "{spec:?} accepted a stuck-at bit past the word");
        }
    }
    if let Some(site) = VmFaultSite::parse_spec(spec) {
        let canonical = site.spec_string();
        assert_eq!(VmFaultSite::parse_spec(&canonical), Some(site), "{spec:?}");
    }
}

proptest! {
    #[test]
    fn token_soup_parses_to_some_or_none_and_round_trips(
        raw in prop::collection::vec(any::<u64>(), 0..12),
    ) {
        check(&tokens(&raw));
    }

    #[test]
    fn shaped_specs_round_trip_or_are_refused(
        form in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
        cut in any::<u64>(),
    ) {
        let spec = shaped(form, a, b);
        check(&spec);
        // every prefix, and the spec with a stray suffix
        let at = (cut as usize) % (spec.len() + 1);
        if spec.is_char_boundary(at) {
            check(&spec[..at]);
        }
        check(&format!("{spec}:{}", TOKENS[(cut >> 32) as usize % TOKENS.len()]));
    }
}
