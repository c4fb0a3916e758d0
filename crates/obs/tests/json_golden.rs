//! Golden-file test pinning the shared report serializer.
//!
//! Every machine-readable report — `vds stats --json`, `vds alpha
//! --json`, and the `BENCH_<n>.json` experiment rows — goes through
//! [`vds_obs::JsonObj`]. This test rebuilds one representative
//! document of each kind from fixed inputs and compares the exact bytes
//! against `testdata/report_shapes.golden.jsonl` (one report per line).
//! Regenerate with `VDS_UPDATE_GOLDEN=1 cargo test -p vds-obs`.

use vds_obs::alpha::{AlphaReport, CycleSnapshot, PairLedger};
use vds_obs::{digest_words128, JsonObj, Registry};
use vds_obs::{Action, Journal, JournalHeader, RoundEntry, Verdict};

fn sample_journal() -> Journal {
    let mut j = Journal::enabled(JournalHeader::new("micro", "smt-prob", 1, 10, 2));
    j.push(RoundEntry {
        seq: 0,
        lane: 0,
        round: 1,
        committed: 1,
        sim_time: 0.5,
        d1: digest_words128(&[1]),
        d2: digest_words128(&[2]),
        verdict: Verdict::Mismatch,
        sched: "coschedule[v1,v2]".to_string(),
        action: Action::Recover,
        rollforward: 2,
        fault: Some("transient:mem:4:9@v2".to_string()),
        fault_id: Some(0),
        fault_outcome: None,
    });
    j
}

fn sample_registry() -> Registry {
    let mut r = Registry::new();
    r.count("vds.detections", 1);
    r.count("journal.rounds", 1);
    r.gauge("smt.occupancy", 0.75);
    r.observe("round.cycles", 40.0);
    r.observe("round.cycles", 44.0);
    r
}

/// `vds stats --json`: the single-run report.
fn stats_report() -> String {
    JsonObj::report("stats")
        .str("verdict", "correct")
        .raw("journal", &sample_journal().summary_json())
        .raw("metrics", &sample_registry().to_json_object())
        .finish()
}

/// One `BENCH_<n>.json` experiment row (the document wrapper adds the
/// envelope and pretty layout in `vds_bench::perf::BenchReport::to_json`;
/// the row bytes come from this exact builder chain).
fn bench_row() -> String {
    JsonObj::new()
        .str("id", "E9")
        .u64("sim_rounds", 2)
        .f64_fixed("host_ms", 52.417, 3)
        .u64("work_units", 2442)
        .f64_fixed("work_per_ms", 2442.0 / 52.417, 3)
        .u64("conf_samples", 5)
        .f64_fixed("conf_mean_abs_residual", 0.031416, 6)
        .finish()
}

/// `vds alpha --json`: the α-attribution ledger report, built from
/// synthetic counter snapshots (30 excess cycles: +20 dcache, +8 width,
/// +2 parked).
fn alpha_report() -> String {
    let snap = |cycles, issued, stalls: [u64; 5], parked| CycleSnapshot {
        cycles,
        issued_cycles: issued,
        stall_icache: stalls[0],
        stall_dcache: stalls[1],
        stall_fu: stalls[2],
        stall_width: stalls[3],
        stall_branch: stalls[4],
        parked,
    };
    let solo_a = snap(100, 60, [10, 10, 5, 5, 5], 5);
    let co_a = snap(130, 60, [10, 30, 5, 13, 5], 7);
    let solo_b = snap(80, 50, [5, 10, 5, 5, 5], 0);
    let co_b = snap(130, 50, [5, 20, 5, 10, 5], 35);
    AlphaReport {
        pairs: vec![PairLedger::attribute(
            "vecsum", "crc", solo_a, solo_b, co_a, co_b,
        )],
    }
    .to_json()
}

#[test]
fn report_shapes_match_golden_file() {
    let got = format!("{}\n{}\n{}\n", stats_report(), bench_row(), alpha_report());
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/testdata/report_shapes.golden.jsonl"
    );
    if std::env::var_os("VDS_UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).unwrap();
    }
    let want = std::fs::read_to_string(path)
        .expect("golden file present (regenerate with VDS_UPDATE_GOLDEN=1)");
    assert_eq!(got, want, "report shapes drifted from the golden file");
}

#[test]
fn every_report_opens_with_the_shared_envelope() {
    for report in [stats_report(), alpha_report()] {
        assert!(
            report.starts_with("{\"schema\":\"vds.report.v1\",\"kind\":\""),
            "{report}"
        );
    }
}
