//! Recorder-type determinism: instrumentation must never perturb the
//! simulation.
//!
//! The engines are monomorphized against whichever recorder drives them:
//! the zero-sized `NoopRecorder` (plain `vds duplex`), a live `Recorder`
//! with a roomy span ring, or one whose ring overflows (`vds stats
//! --trace-capacity 4`). These tests compare those recorder types and
//! pin the contract from three angles: recording depth must not change
//! the journal, recording must not change the report, and the digests
//! must not drift from their committed values. CI repeats the journal
//! comparison on the release binary with `cmp` and `vds audit diff`.

fn run(args: &[&str]) -> Result<String, vds_cli::CliError> {
    let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    vds_cli::dispatch(&v)
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("vds-feature-matrix");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A plain `vds duplex` journal (no live trace) and a `vds stats` journal
/// with a deliberately tiny span ring (heavy hot-path activity and
/// overflow) must be byte-identical: the recorder is write-only.
#[test]
fn journal_is_independent_of_recording_depth() {
    let quiet = tmp("quiet.journal.jsonl");
    let noisy = tmp("noisy.journal.jsonl");
    let (qs, ns) = (quiet.to_str().unwrap(), noisy.to_str().unwrap());
    run(&["duplex", "smt-det", "20", "4", "--journal", qs]).unwrap();
    run(&[
        "stats",
        "smt-det",
        "20",
        "4",
        "--trace-capacity",
        "4",
        "--journal",
        ns,
    ])
    .unwrap();
    assert_eq!(
        std::fs::read_to_string(&quiet).unwrap(),
        std::fs::read_to_string(&noisy).unwrap(),
        "journal bytes must not depend on what else is recorded"
    );
    let verdict = run(&["audit", "diff", qs, ns]).unwrap();
    assert!(verdict.contains("journals identical"), "{verdict}");
}

/// The run report and oracle verdict are identical whether the engine is
/// monomorphized against the zero-sized no-op recorder (plain `duplex`)
/// or a fully live one (`stats`).
#[test]
fn report_is_identical_with_and_without_recording() {
    let plain = run(&["duplex", "smt-prob", "18", "6"]).unwrap();
    let recorded = run(&["stats", "smt-prob", "18", "6"]).unwrap();
    // both outputs open with the report line and the oracle verdict
    let head = |s: &str| s.lines().take(2).map(str::to_string).collect::<Vec<_>>();
    assert_eq!(head(&plain), head(&recorded));
    assert!(plain.contains("output CORRECT"), "{plain}");
}

/// The per-round digest sequence is pinned: any drift — between recorder
/// types, or over time — fails here before it can hide behind a "both
/// sides changed" replay.
#[test]
fn journal_digests_match_their_pinned_values() {
    let p = tmp("pinned.journal.jsonl");
    let ps = p.to_str().unwrap();
    run(&["duplex", "smt-det", "20", "4", "--journal", ps]).unwrap();
    let text = std::fs::read_to_string(&p).unwrap();
    let j = vds_obs::Journal::from_jsonl(&text).unwrap();
    assert_eq!(j.len(), 19, "20 rounds, one salvaged by roll-forward");
    let last = j.entries().last().unwrap();
    // regenerate with: vds duplex smt-det 20 4 --journal /tmp/j && tail -1 /tmp/j
    assert_eq!(format!("{}", last.d1), "5321ace60d863517f3afe409f8117d62");
    assert_eq!(format!("{}", last.d2), "5321ace60d863517f3afe409f8117d62");
    // and the recording replays digest-for-digest
    let ok = run(&["replay", ps]).unwrap();
    assert!(ok.contains("replay OK"), "{ok}");
}
