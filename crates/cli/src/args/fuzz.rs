//! Never-panics properties for the flag layer: every [`CommandSpec`]
//! parses arbitrary argv tokens to `Ok` or a one-line usage error, and
//! the journal-reading commands (`faults`, `conformance`, `audit`,
//! `replay`) dispatched over the same tokens return `Ok` or a one-line
//! [`CliError`]. The one multi-line error is a divergence report, which
//! `audit diff` and `replay` print by design.
//!
//! No value is a log-level name: a valid `--log-level` changes the
//! process-wide level that other tests capture logs under.

use super::*;
use crate::dispatch;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

const SPECS: &[&CommandSpec] = &[
    &ALPHA,
    &DUPLEX,
    &VM,
    &STATS,
    &REPORT,
    &EXPERIMENT,
    &BENCH,
    &SWEEP,
    &CAMPAIGN,
    &CONFORMANCE,
    &FAULTS,
    &REPLAY,
    &AUDIT,
];

/// Flag names no command declares, and near misses of declared ones.
const UNKNOWN: &[&str] = &["", "x", "-", "=", "JSON", "jsonn", "port2", "héllo", "😀"];

/// Values: numbers at and past the integer types' ranges, negative and
/// non-finite numbers, empty and non-ASCII text, flag-like values and a
/// few values some flag accepts.
const VALUES: &[&str] = &[
    "0",
    "1",
    "7",
    "-1",
    "-0",
    "+3",
    "0.15",
    "1e400",
    "-1e400",
    "NaN",
    "inf",
    "-inf",
    "65535",
    "65536",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "340282366920938463463374607431768211456",
    "",
    " ",
    "\t",
    "é",
    "😀",
    "\u{0}",
    "a=b",
    "--json",
    "--",
    "parametric",
    "measured",
    "smt-det",
    "smt-prob",
    "diff",
    "vm:checksum",
    "vm:reg:1:2@v1",
    "alpha=0.5;s=10",
];

/// Free-text characters. They spell no log level.
const ALPHABET: &[char] = &[
    'a', 'z', 'A', '0', '9', '-', '+', '.', '=', '/', ' ', '\t', '\u{0}', 'é', '€', '😀',
];

fn pick<T: Copy>(rng: &mut TestRng, xs: &[T]) -> T {
    xs[rng.below(xs.len() as u64) as usize]
}

/// A flag name: mostly one `spec` declares, sometimes another
/// command's, `help`, or one nobody declares.
fn flag_name(rng: &mut TestRng, spec: &CommandSpec) -> &'static str {
    let flags = match rng.below(8) {
        0 => return "help",
        1 => return pick(rng, UNKNOWN),
        2 => pick(rng, SPECS).flags,
        _ => spec.flags,
    };
    flags[rng.below(flags.len() as u64) as usize].name
}

fn value(rng: &mut TestRng, paths: &[String]) -> String {
    match rng.below(4) {
        0 => (0..rng.below(6)).map(|_| pick(rng, ALPHABET)).collect(),
        1 if !paths.is_empty() => paths[rng.below(paths.len() as u64) as usize].clone(),
        _ => pick(rng, VALUES).to_string(),
    }
}

/// One argv token: a flag, a flag with an inline (possibly empty)
/// value, or a bare value.
fn token(rng: &mut TestRng, spec: &CommandSpec, paths: &[String]) -> String {
    match rng.below(6) {
        0 | 1 => format!("--{}", flag_name(rng, spec)),
        2 => format!("--{}={}", flag_name(rng, spec), value(rng, paths)),
        3 => format!("--{}=", flag_name(rng, spec)),
        _ => value(rng, paths),
    }
}

fn argv(rng: &mut TestRng, spec: &CommandSpec, paths: &[String], max: u64) -> Vec<String> {
    (0..rng.below(max + 1))
        .map(|_| token(rng, spec, paths))
        .collect()
}

/// Journal-ish inputs for the read-side commands: a recorded micro
/// journal, a copy torn mid-line, a headerless one, non-JSON text, an
/// empty file, a directory, a missing path and the bare word `live`,
/// a relative path that does not exist.
fn corpus() -> &'static [String] {
    static PATHS: OnceLock<Vec<String>> = OnceLock::new();
    PATHS.get_or_init(|| {
        let dir = std::env::temp_dir().join("vds-cli-args-fuzz");
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| -> PathBuf { dir.join(name) };
        let journal = path("journal.jsonl");
        let js = journal.to_str().unwrap().to_string();
        let args: Vec<String> = ["duplex", "smt-det", "6", "3", "--journal", &js]
            .iter()
            .map(|s| s.to_string())
            .collect();
        dispatch(&args).expect("record a micro journal");
        let text = std::fs::read_to_string(&journal).unwrap();
        let torn = &text[..text.trim_end().len() - 7];
        let headerless: String = text.lines().skip(1).map(|l| format!("{l}\n")).collect();
        for (name, body) in [
            ("torn.jsonl", torn),
            ("headerless.jsonl", &headerless),
            ("garbage.jsonl", "not json\n{\"seq\":"),
            ("empty.jsonl", ""),
        ] {
            std::fs::write(path(name), body).unwrap();
        }
        let mut paths: Vec<String> = [
            "journal.jsonl",
            "torn.jsonl",
            "headerless.jsonl",
            "garbage.jsonl",
            "empty.jsonl",
            "missing.jsonl",
        ]
        .iter()
        .map(|n| path(n).to_str().unwrap().to_string())
        .collect();
        paths.push(dir.to_str().unwrap().to_string());
        paths.push("live".to_string());
        paths
    })
}

fn one_line(e: &CliError) -> bool {
    !e.msg.trim_end().contains('\n')
}

/// A divergence report: the designed multi-line error of `audit diff`
/// and `replay`.
fn divergence_report(e: &CliError) -> bool {
    e.code == 1
        && (e.msg.starts_with("audit diff ") || e.msg.starts_with("replay DIVERGED: "))
        && e.msg.contains("\njournals diverge at entry ")
}

proptest! {
    #[test]
    fn every_spec_parses_arbitrary_tokens_without_panicking(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        for spec in SPECS {
            let args = argv(&mut rng, spec, &[], 6);
            if let Err(e) = spec.parse(&args) {
                prop_assert_eq!(e.code, 2, "{}: {:?} -> {}", spec.name, args, e.msg);
                prop_assert!(one_line(&e), "{}: {:?} -> {}", spec.name, args, e.msg);
            }
        }
    }

    #[test]
    fn read_side_commands_return_ok_or_a_one_line_error(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let paths = corpus();
        let (cmd, spec) = pick(
            &mut rng,
            &[
                ("faults", &FAULTS),
                ("conformance", &CONFORMANCE),
                ("audit", &AUDIT),
                ("replay", &REPLAY),
            ],
        );
        let mut args = vec![cmd.to_string()];
        if cmd == "audit" && rng.below(4) != 0 {
            args.push("diff".to_string());
        }
        // most calls name a source or two, so most reach the journal
        for _ in 0..rng.below(3) {
            args.push(paths[rng.below(paths.len() as u64) as usize].clone());
        }
        args.extend(argv(&mut rng, spec, paths, 3));
        if let Err(e) = dispatch(&args) {
            prop_assert!(
                one_line(&e) || divergence_report(&e),
                "{:?} -> {}",
                args,
                e.msg
            );
        }
    }
}
