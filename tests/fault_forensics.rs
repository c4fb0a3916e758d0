//! Property-based tests of the fault-forensics layer: the report built
//! from a campaign journal is byte-identical regardless of the worker
//! count that produced the recording, and the escape list only names
//! faults that were actually injected and never detected.

use proptest::prelude::*;
use vds::analytic::Params;
use vds::core::abstract_vds::{run_with_recorder, AbstractConfig};
use vds::core::{FaultModel, Scheme};
use vds::fault::campaign::{run_campaign_journaled, TrialResult};
use vds::obs::journal::Verdict;
use vds::obs::{ForensicsTracker, Journal, JournalHeader, Recorder};

/// One journaled abstract-VDS trial under `scheme`, the shape every
/// campaign uses: run with a private recorder, merge the registry,
/// adopt the journal under the trial's lane. A heavy per-round fault
/// rate keeps all three lifecycle classes (detected / masked /
/// escaped) reachable — the predictive scheme can silently adopt
/// corrupted state, which is exactly what the escape list must report.
fn forensic_trial(
    scheme: Scheme,
    i: u64,
    seed: u64,
    rounds: u64,
    rec: &mut Recorder,
) -> TrialResult {
    let cfg = AbstractConfig::new(Params::paper_default(), scheme);
    let mut run_rec = Recorder::new();
    if let Some(h) = rec.journal().header() {
        run_rec.enable_journal(h.clone());
    }
    let (report, run_rec) = run_with_recorder(
        &cfg,
        FaultModel::PerRound { q: 0.15 },
        rounds,
        seed.wrapping_add(i.wrapping_mul(0x9E37_79B9)),
        run_rec,
    );
    rec.adopt_run(run_rec, i);
    TrialResult::with_value(
        if report.shutdown {
            "shutdown"
        } else {
            "survived"
        },
        report.detections as f64,
    )
}

fn arb_scheme() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::SmtDeterministic),
        Just(Scheme::SmtProbabilistic),
        Just(Scheme::SmtPredictive),
    ]
}

proptest! {
    // The acceptance pin: for any seed, trial count and scheme, the
    // forensics report (text and JSON forms) priced from the merged
    // campaign journal is byte-identical across worker counts 1 and 8
    // — the report depends only on the journal bytes.
    #[test]
    fn forensics_report_is_byte_identical_across_workers(
        seed in 0u64..1_000,
        trials in 1u64..6,
        rounds in 10u64..40,
        scheme in arb_scheme(),
    ) {
        let header = JournalHeader::new("campaign", scheme.name(), seed, 20, rounds)
            .with_meta("trials", &trials.to_string());
        let run = |workers: usize| {
            run_campaign_journaled("forensics", trials, workers, None, &header, |i, rec| {
                forensic_trial(scheme, i, seed, rounds, rec)
            })
        };
        let (r1, rec1) = run(1);
        let (r8, rec8) = run(8);
        prop_assert_eq!(&r1, &r8);
        let bytes = rec1.journal().to_jsonl();
        prop_assert_eq!(&rec8.journal().to_jsonl(), &bytes);

        let t1 = ForensicsTracker::for_journal(rec1.journal()).expect("tracker");
        let t8 = ForensicsTracker::for_journal(rec8.journal()).expect("tracker");
        let (rep1, rep8) = (t1.report(), t8.report());
        prop_assert_eq!(rep1.render_text(), rep8.render_text());
        prop_assert_eq!(rep1.to_json(), rep8.to_json());
        // and re-parsing the serialised journal prices identically too
        let reparsed = Journal::from_jsonl(&bytes).expect("parse");
        let t = ForensicsTracker::for_journal(&reparsed).expect("tracker");
        prop_assert_eq!(t.report().to_json(), rep1.to_json());
    }

    // Escape-list validity: every (lane, fault_id) the report lists as
    // escaped was actually injected (a journal entry on that lane
    // carries that fault_id and a fault spec) and never detected (no
    // divergent verdict at or after the injecting entry on its lane).
    #[test]
    fn escape_list_names_only_injected_never_detected_faults(
        seed in 0u64..1_000,
        trials in 1u64..5,
        rounds in 10u64..40,
        scheme in arb_scheme(),
    ) {
        let header = JournalHeader::new("campaign", scheme.name(), seed, 20, rounds)
            .with_meta("trials", &trials.to_string());
        let (_, rec) =
            run_campaign_journaled("forensics", trials, 4, None, &header, |i, rec| {
                forensic_trial(scheme, i, seed, rounds, rec)
            });
        let journal = rec.journal();
        let tracker = ForensicsTracker::for_journal(journal).expect("tracker");
        let report = tracker.report();
        // lifecycle conservation over the journal's fault events
        prop_assert_eq!(
            report.detected + report.masked + report.escaped,
            report.injected
        );
        prop_assert_eq!(report.escaped as usize, report.escapes.len());
        for esc in &report.escapes {
            let lane: Vec<_> = journal
                .entries()
                .iter()
                .filter(|e| e.lane == esc.lane)
                .collect();
            let idx = lane
                .iter()
                .position(|e| e.fault_id == Some(esc.fault_id) && e.fault.is_some());
            // injected: the (lane, fault_id) pair exists and carries a
            // fault spec matching the report
            prop_assert!(idx.is_some(), "escape {esc:?} was never injected");
            let idx = idx.unwrap();
            prop_assert_eq!(&lane[idx].fault.clone().unwrap(), &esc.spec);
            prop_assert_eq!(lane[idx].round, esc.injected_round);
            // never detected: every verdict from the injection to the
            // end of the lane is a clean match
            prop_assert!(
                lane[idx..].iter().all(|e| e.verdict == Verdict::Match),
                "escape {esc:?} was detected after injection"
            );
        }
    }
}
