//! Property-based tests of the execution flight recorder: JSONL
//! round-trips are lossless, campaign journals are byte-identical
//! regardless of worker count, and first-divergence search pinpoints the
//! exact entry a single flipped digest bit lives in.

use proptest::collection::vec;
use proptest::prelude::*;
use vds::analytic::Params;
use vds::core::abstract_vds::{run_with_recorder, AbstractConfig};
use vds::core::{FaultModel, Scheme};
use vds::fault::campaign::{run_campaign_journaled, TrialResult};
use vds::obs::{Action, Digest128, Journal, JournalHeader, Recorder, RoundEntry, Verdict};

/// The canonical spec/sched alphabet: no JSON escapes needed, which keeps
/// these serializer tests rather than JSON-escaping tests.
const LABEL_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789:@,._[]-";

fn arb_label() -> impl Strategy<Value = String> {
    vec(0usize..LABEL_CHARS.len(), 0..16)
        .prop_map(|ix| ix.into_iter().map(|i| LABEL_CHARS[i] as char).collect())
}

fn arb_digest() -> impl Strategy<Value = Digest128> {
    (any::<u64>(), any::<u64>()).prop_map(|(fnv, mix)| Digest128 { fnv, mix })
}

fn arb_verdict() -> impl Strategy<Value = Verdict> {
    prop_oneof![
        Just(Verdict::Match),
        Just(Verdict::Mismatch),
        Just(Verdict::Trap),
        Just(Verdict::Hang),
    ]
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        Just(Action::Commit),
        Just(Action::Checkpoint),
        Just(Action::Recover),
        Just(Action::Rollback),
        Just(Action::Shutdown),
    ]
}

fn arb_entry() -> impl Strategy<Value = RoundEntry> {
    (
        // quarter-cycle sim times are exactly representable, so they
        // print and parse back exactly
        (0u64..64, 1u64..10_000, 0u64..1_000_000, 0u64..4_000_000),
        (
            arb_digest(),
            arb_digest(),
            arb_verdict(),
            arb_label(),
            arb_action(),
            0u32..32,
        ),
        (
            any::<bool>(),
            arb_label(),
            prop_oneof![Just(None), (0u64..1_000).prop_map(Some)],
            prop_oneof![Just(None), Just(Some("masked")), Just(Some("escaped"))],
        ),
    )
        .prop_map(
            |(
                (lane, round, committed, quarters),
                (d1, d2, verdict, sched, action, rollforward),
                (has_fault, fault, fault_id, fault_outcome),
            )| {
                RoundEntry {
                    seq: 0, // assigned by Journal::push
                    lane,
                    round,
                    committed,
                    sim_time: quarters as f64 * 0.25,
                    d1,
                    d2,
                    verdict,
                    sched,
                    action,
                    rollforward,
                    // fault_id / fault_outcome only accompany a fault
                    // spec, as the engines write them
                    fault_id: has_fault.then_some(fault_id.unwrap_or(0)),
                    fault_outcome: if has_fault {
                        fault_outcome.map(str::to_string)
                    } else {
                        None
                    },
                    fault: has_fault.then_some(fault),
                }
            },
        )
}

fn arb_journal(entries: std::ops::Range<usize>) -> impl Strategy<Value = Journal> {
    (
        (
            arb_label(),
            arb_label(),
            any::<u64>(),
            1u32..100,
            1u64..100_000,
        ),
        vec((arb_label(), arb_label()), 0..4),
        vec(arb_entry(), entries),
    )
        .prop_map(|((backend, scheme, seed, s, target), meta, entries)| {
            let mut h = JournalHeader::new(&backend, &scheme, seed, s, target);
            for (k, v) in meta {
                h = h.with_meta(&k, &v);
            }
            let mut j = Journal::enabled(h);
            for e in entries {
                j.push(e);
            }
            j
        })
}

proptest! {
    // Serialise → parse is the identity on journals.
    #[test]
    fn jsonl_roundtrip_is_lossless(j in arb_journal(0..40)) {
        let text = j.to_jsonl();
        let parsed = Journal::from_jsonl(&text).expect("parse back");
        prop_assert_eq!(&parsed, &j);
        // and serialisation is stable across the round-trip
        prop_assert_eq!(parsed.to_jsonl(), text);
    }

    // A journal identical to itself has no divergence; appending any
    // entry to a copy is caught as a length divergence at the old end.
    #[test]
    fn self_diff_is_clean_and_extension_is_caught(
        j in arb_journal(0..40),
        extra in arb_entry(),
    ) {
        prop_assert!(j.first_divergence(&j).is_none());
        let mut longer = j.clone();
        longer.push(extra);
        let d = j.first_divergence(&longer).expect("length divergence");
        prop_assert_eq!(d.index, j.len());
        prop_assert_eq!(d.field.as_str(), "length");
    }

    // Flipping a single bit of a single digest in the serialised form
    // is pinpointed to exactly that entry, lane, round and digest field.
    #[test]
    fn single_bit_corruption_is_pinpointed(
        j in arb_journal(1..40),
        pick in any::<proptest::sample::Index>(),
        second_digest in any::<bool>(),
        bit in 0usize..128,
    ) {
        let k = pick.index(j.len());
        let text = j.to_jsonl();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        // line 0 is the header; entry k is line k + 1
        let line = &lines[k + 1];
        let field = if second_digest { "\"d2\":\"" } else { "\"d1\":\"" };
        let pos = line.find(field).unwrap() + field.len() + bit / 4;
        let old = (line.as_bytes()[pos] as char).to_digit(16).unwrap();
        let flipped = char::from_digit(old ^ (1 << (bit % 4)), 16).unwrap();
        let mut corrupted = line.clone();
        corrupted.replace_range(pos..pos + 1, &flipped.to_string());
        lines[k + 1] = corrupted;
        let bad = Journal::from_jsonl(&(lines.join("\n") + "\n")).expect("parse");

        let d = j.first_divergence(&bad).expect("must diverge");
        let e = &j.entries()[k];
        prop_assert_eq!(d.index, k);
        prop_assert_eq!(d.lane, e.lane);
        prop_assert_eq!(d.round, e.round);
        let expect = if second_digest {
            "d2 (version 2 digest)"
        } else {
            "d1 (version 1 digest)"
        };
        prop_assert_eq!(d.field.as_str(), expect);
        // symmetric: the other direction finds the same entry
        let rev = bad.first_divergence(&j).expect("must diverge");
        prop_assert_eq!(rev.index, k);
    }

    // The acceptance pin: for any seed and trial count, the merged
    // campaign journal is byte-identical across worker counts 1, 2, 4.
    #[test]
    fn campaign_journal_is_byte_identical_across_workers(
        seed in 0u64..1_000,
        trials in 1u64..6,
        rounds in 10u64..40,
    ) {
        let header = JournalHeader::new("campaign", "smt-prob", seed, 20, rounds)
            .with_meta("trials", &trials.to_string());
        let run = |workers: usize| {
            run_campaign_journaled("prop", trials, workers, None, &header, |i, rec| {
                abstract_trial(i, seed, rounds, rec)
            })
        };
        let (r1, rec1) = run(1);
        let (r2, rec2) = run(2);
        let (r4, rec4) = run(4);
        prop_assert_eq!(&r1, &r2);
        prop_assert_eq!(&r1, &r4);
        let bytes = rec1.journal().to_jsonl();
        prop_assert_eq!(&rec2.journal().to_jsonl(), &bytes);
        prop_assert_eq!(&rec4.journal().to_jsonl(), &bytes);
        // entries exist and lanes are sorted by trial index after merge
        prop_assert!(!rec1.journal().is_empty());
        let lanes: Vec<u64> = rec1.journal().entries().iter().map(|e| e.lane).collect();
        let mut sorted = lanes.clone();
        sorted.sort_unstable();
        prop_assert_eq!(lanes, sorted);
        // and the parsed form of the merged journal round-trips too
        let parsed = Journal::from_jsonl(&bytes).expect("parse");
        prop_assert_eq!(parsed.to_jsonl(), bytes);
    }
}

/// A small deterministic journal for the edge-case tests below; `tweak`
/// may perturb an entry before it is pushed.
fn sample_journal_with(entries: usize, tweak: impl Fn(usize, &mut RoundEntry)) -> Journal {
    let mut j = Journal::enabled(JournalHeader::new("micro", "smt-det", 1, 10, 30));
    for i in 0..entries {
        let mut e = RoundEntry {
            seq: 0,
            lane: 0,
            round: i as u64 + 1,
            committed: i as u64,
            sim_time: i as f64 * 0.25,
            d1: Digest128 {
                fnv: 0x1111 + i as u64,
                mix: 0x2222,
            },
            d2: Digest128 {
                fnv: 0x1111 + i as u64,
                mix: 0x2222,
            },
            verdict: Verdict::Match,
            sched: "rr".into(),
            action: Action::Commit,
            rollforward: 0,
            fault: None,
            fault_id: None,
            fault_outcome: None,
        };
        tweak(i, &mut e);
        j.push(e);
    }
    j
}

fn sample_journal(entries: usize) -> Journal {
    sample_journal_with(entries, |_, _| {})
}

// ---- first_divergence edge cases: the scan stops at k = 0 and runs
// over nothing when common = 0, pin both ----

#[test]
fn divergence_in_the_very_first_entry_reports_index_zero() {
    let a = sample_journal(5);
    let b = sample_journal_with(5, |i, e| {
        if i == 0 {
            e.d2.mix ^= 1;
        }
    });
    let d = a.first_divergence(&b).expect("must diverge");
    assert_eq!(d.index, 0, "{d:?}");
    assert_eq!(d.round, 1);
    assert_eq!(d.field, "d2 (version 2 digest)");
    // symmetric
    let rev = b.first_divergence(&a).expect("must diverge");
    assert_eq!(rev.index, 0);
}

#[test]
fn header_only_mismatch_wins_over_identical_entries() {
    let a = sample_journal(3);
    let mut b = Journal::enabled(JournalHeader::new("micro", "smt-prob", 1, 10, 30));
    for e in a.entries() {
        let mut e = e.clone();
        e.seq = 0; // reassigned by push
        b.push(e);
    }
    let d = a.first_divergence(&b).expect("headers differ");
    assert_eq!(d.field, "header", "{d:?}");
    assert_eq!(d.index, 0);
    assert!(d.a.contains("smt-det"), "{}", d.a);
    assert!(d.b.contains("smt-prob"), "{}", d.b);
    // entries never mask a header mismatch, even when both are empty
    let ea = sample_journal(0);
    let eb = Journal::enabled(JournalHeader::new("abstract", "smt-det", 1, 10, 30));
    assert_eq!(
        ea.first_divergence(&eb).expect("headers differ").field,
        "header"
    );
}

#[test]
fn empty_versus_nonempty_is_a_length_divergence_at_zero() {
    let empty = sample_journal(0);
    let full = sample_journal(4);
    assert!(empty.first_divergence(&empty).is_none());
    let d = empty.first_divergence(&full).expect("length divergence");
    assert_eq!((d.index, d.field.as_str()), (0, "length"), "{d:?}");
    assert!(d.a.contains("0 entries"), "{}", d.a);
    // the extra entry's coordinates are surfaced from the longer journal
    assert_eq!(d.round, 1);
    let rev = full.first_divergence(&empty).expect("length divergence");
    assert_eq!((rev.index, rev.field.as_str()), (0, "length"));
}

/// One journaled abstract-VDS trial, the shape every campaign uses: run
/// with a private recorder, merge the registry, adopt the journal under
/// the trial's lane.
fn abstract_trial(i: u64, seed: u64, rounds: u64, rec: &mut Recorder) -> TrialResult {
    let cfg = AbstractConfig::new(Params::paper_default(), Scheme::SmtProbabilistic);
    let mut run_rec = Recorder::new();
    if let Some(h) = rec.journal().header() {
        run_rec.enable_journal(h.clone());
    }
    let (report, run_rec) = run_with_recorder(
        &cfg,
        FaultModel::PerRound { q: 0.08 },
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
