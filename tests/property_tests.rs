//! Property-based tests (proptest) over the core data structures and
//! invariants of the workspace.

use proptest::prelude::*;
use vds::analytic::{predictive, rollforward, timing, Params};
use vds::checkpoint::digest::digest_words;
use vds::obs::Summary;
use vds::smtsim::encode::{decode, encode, DecodeError};
use vds::smtsim::isa::{AluImmOp, AluOp, BranchCond, Instr, MulOp, Reg};

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..16).prop_map(Reg)
}

fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        Just(Instr::Nop),
        Just(Instr::Yield),
        Just(Instr::Halt),
        (arb_reg(), any::<u16>()).prop_map(|(rd, imm)| Instr::Lui { rd, imm }),
        (0usize..10, arb_reg(), arb_reg(), arb_reg()).prop_map(|(op, rd, rs1, rs2)| {
            Instr::Alu {
                op: AluOp::ALL[op],
                rd,
                rs1,
                rs2,
            }
        }),
        (0usize..7, arb_reg(), arb_reg(), -32768i32..=32767).prop_map(|(op, rd, rs1, imm)| {
            let op = AluImmOp::ALL[op];
            let imm = if matches!(op, AluImmOp::Slli | AluImmOp::Srli) {
                imm & 31 // the assembler (rightly) rejects wild shifts
            } else if op.zero_extends() {
                imm & 0xFFFF
            } else {
                imm
            };
            Instr::AluImm { op, rd, rs1, imm }
        }),
        (0usize..3, arb_reg(), arb_reg(), arb_reg()).prop_map(|(op, rd, rs1, rs2)| {
            Instr::Mul {
                op: [MulOp::Mul, MulOp::Div, MulOp::Rem][op],
                rd,
                rs1,
                rs2,
            }
        }),
        (arb_reg(), arb_reg(), -32768i32..=32767).prop_map(|(rd, rs1, imm)| Instr::Ld {
            rd,
            rs1,
            imm
        }),
        (arb_reg(), arb_reg(), -32768i32..=32767).prop_map(|(rs2, rs1, imm)| Instr::St {
            rs2,
            rs1,
            imm
        }),
        (0usize..4, arb_reg(), arb_reg(), 0u32..(1 << 14)).prop_map(|(c, rs1, rs2, target)| {
            Instr::Branch {
                cond: [
                    BranchCond::Eq,
                    BranchCond::Ne,
                    BranchCond::Lt,
                    BranchCond::Ge,
                ][c],
                rs1,
                rs2,
                target,
            }
        }),
        (arb_reg(), 0u32..(1 << 22)).prop_map(|(rd, target)| Instr::Jal { rd, target }),
        (arb_reg(), arb_reg(), -32768i32..=32767).prop_map(|(rd, rs1, imm)| Instr::Jalr {
            rd,
            rs1,
            imm
        }),
    ]
}

proptest! {
    #[test]
    fn encode_decode_roundtrips(instr in arb_instr()) {
        let word = encode(&instr);
        prop_assert_eq!(decode(word), Ok(instr));
    }

    #[test]
    fn single_bitflips_never_silent(instr in arb_instr(), bit in 0u32..32) {
        let word = encode(&instr);
        let flipped = word ^ (1 << bit);
        match decode(flipped) {
            Ok(other) => prop_assert_ne!(other, instr),
            Err(DecodeError::BadOpcode(_)) | Err(DecodeError::BadField) => {}
        }
    }

    #[test]
    fn digest_collision_free_on_single_flips(
        words in proptest::collection::vec(any::<u32>(), 1..64),
        idx in any::<prop::sample::Index>(),
        bit in 0u32..32,
    ) {
        let d0 = digest_words(&words);
        let mut mutated = words.clone();
        let i = idx.index(mutated.len());
        mutated[i] ^= 1 << bit;
        prop_assert_ne!(digest_words(&mutated), d0);
    }

    #[test]
    fn digest_deterministic(words in proptest::collection::vec(any::<u32>(), 0..64)) {
        prop_assert_eq!(digest_words(&words), digest_words(&words));
    }

    #[test]
    fn online_stats_merge_associative(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..50),
        ys in proptest::collection::vec(-1e6f64..1e6, 1..50),
    ) {
        let mut merged = Summary::from_iter(xs.iter().copied());
        merged.merge(&Summary::from_iter(ys.iter().copied()));
        let whole = Summary::from_iter(xs.iter().chain(&ys).copied());
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert!((merged.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((merged.variance() - whole.variance()).abs()
            < 1e-6 * (1.0 + whole.variance()));
    }

    #[test]
    fn gains_decrease_in_alpha(
        beta in 0.0f64..1.0,
        s in 2u32..60,
        pc in 0.0f64..=1.0,
    ) {
        let lo = Params::with_beta(0.55, beta, s);
        let hi = Params::with_beta(0.85, beta, s);
        prop_assert!(timing::g_round_exact(&lo) >= timing::g_round_exact(&hi));
        prop_assert!(
            predictive::gbar_corr_exact(&lo, pc) >= predictive::gbar_corr_exact(&hi, pc)
        );
        prop_assert!(rollforward::gbar_det_exact(&lo) >= rollforward::gbar_det_exact(&hi));
    }

    #[test]
    fn gains_increase_in_p(
        alpha in 0.5f64..=1.0,
        beta in 0.0f64..1.0,
        s in 2u32..60,
    ) {
        let p = Params::with_beta(alpha, beta, s);
        let mut last = 0.0f64;
        for k in 0..=4 {
            let pc = f64::from(k) / 4.0;
            let g = predictive::gbar_corr_exact(&p, pc);
            prop_assert!(g >= last - 1e-12);
            last = g;
        }
    }

    #[test]
    fn hit_gain_dominates_miss_everywhere(
        alpha in 0.5f64..=1.0,
        beta in 0.0f64..1.0,
        s in 2u32..40,
    ) {
        let p = Params::with_beta(alpha, beta, s);
        for i in 1..=s {
            prop_assert!(
                predictive::g_hit_exact(&p, i) >= predictive::l_miss_exact(&p, i) - 1e-12
            );
        }
    }

    #[test]
    fn abstract_engine_always_completes_and_conserves(
        q in 0.0f64..0.15,
        s in 2u32..40,
        alpha in 0.5f64..=1.0,
        seed in any::<u64>(),
    ) {
        use vds::core::abstract_vds::{run, AbstractConfig};
        use vds::core::{FaultModel, Scheme};
        let params = Params::with_beta(alpha, 0.1, s);
        let cfg = AbstractConfig::new(params, Scheme::SmtProbabilistic);
        let target = 300;
        let r = run(&cfg, FaultModel::PerRound { q }, target, seed);
        prop_assert!(r.shutdown || r.committed_rounds >= target);
        prop_assert!(r.total_time > 0.0);
        // accounting identity: the three phase clocks cover total time
        let sum = r.time_normal + r.time_recovery + r.time_checkpoint;
        prop_assert!((sum - r.total_time).abs() < 1e-6 * r.total_time.max(1.0));
        // vote outcomes partition detections
        prop_assert_eq!(r.detections, r.recoveries_ok + r.rollbacks);
        // roll-forward outcomes never exceed successful recoveries
        prop_assert!(
            r.rollforward_hits + r.rollforward_misses + r.rollforward_discards
                <= r.recoveries_ok
        );
    }

    #[test]
    fn assembler_disassembler_roundtrip(instrs in proptest::collection::vec(arb_instr(), 1..30)) {
        use vds::smtsim::disasm::to_source;
        use vds::smtsim::asm::assemble;
        use vds::smtsim::program::Program;
        // restrict control flow targets to the program length so the
        // source re-assembles cleanly
        let len = instrs.len() as u32;
        let fixed: Vec<Instr> = instrs
            .into_iter()
            .map(|i| match i {
                Instr::Branch { cond, rs1, rs2, target } => Instr::Branch {
                    cond, rs1, rs2, target: target % len,
                },
                Instr::Jal { rd, target } => Instr::Jal { rd, target: target % len },
                other => other,
            })
            .collect();
        let prog = Program::from_instrs(&fixed);
        let src = to_source(&prog);
        let back = assemble(&src).unwrap();
        prop_assert_eq!(prog.text, back.text);
    }
}

// ---- observability: the span layer's export invariants ----

/// One step of a free-form recorder workload: open a span, close some
/// open span, emit an event, or record a completed span directly.
#[derive(Debug, Clone)]
enum ObsOp {
    Begin {
        comp: u8,
        name: u8,
        tid: u8,
        at: u16,
    },
    End {
        pick: u8,
        at: u16,
    },
    Event {
        at: u16,
    },
    Push {
        comp: u8,
        name: u8,
        tid: u8,
        begin: u16,
        len: u16,
    },
}

const OBS_COMPONENTS: [&str; 3] = ["alpha", "beta", "gamma"];
const OBS_NAMES: [&str; 4] = ["round", "compute", "compare", "recovery"];

fn arb_obs_op() -> impl Strategy<Value = ObsOp> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), 0u8..3, any::<u16>()).prop_map(|(comp, name, tid, at)| {
            ObsOp::Begin {
                comp,
                name,
                tid,
                at,
            }
        }),
        (any::<u8>(), any::<u16>()).prop_map(|(pick, at)| ObsOp::End { pick, at }),
        any::<u16>().prop_map(|at| ObsOp::Event { at }),
        (any::<u8>(), any::<u8>(), 0u8..3, any::<u16>(), any::<u16>()).prop_map(
            |(comp, name, tid, begin, len)| ObsOp::Push {
                comp,
                name,
                tid,
                begin,
                len
            }
        ),
    ]
}

/// Replay a workload into a fresh recorder.
fn replay_obs(ops: &[ObsOp]) -> vds::obs::Recorder {
    let mut rec = vds::obs::Recorder::with_trace_capacity(64);
    let mut open: Vec<vds::obs::SpanGuard> = Vec::new();
    for op in ops {
        match op {
            ObsOp::Begin {
                comp,
                name,
                tid,
                at,
            } => {
                let comp = OBS_COMPONENTS[*comp as usize % OBS_COMPONENTS.len()];
                let name = OBS_NAMES[*name as usize % OBS_NAMES.len()];
                open.push(rec.span_on(u32::from(*tid), comp, name, f64::from(*at)));
            }
            ObsOp::End { pick, at } => {
                if !open.is_empty() {
                    let g = open.remove(*pick as usize % open.len());
                    rec.end_span_with(g, f64::from(*at), vec![("at", u64::from(*at).into())]);
                }
            }
            ObsOp::Event { at } => rec.event(f64::from(*at), "alpha", "tick", vec![]),
            ObsOp::Push {
                comp,
                name,
                tid,
                begin,
                len,
            } => {
                rec.record_span(vds::obs::SpanRecord {
                    begin: f64::from(*begin),
                    end: f64::from(*begin) + f64::from(*len),
                    component: OBS_COMPONENTS[*comp as usize % OBS_COMPONENTS.len()],
                    name: OBS_NAMES[*name as usize % OBS_NAMES.len()],
                    tid: u32::from(*tid),
                    fields: vec![],
                });
            }
        }
    }
    rec
}

/// Assert the Chrome trace JSON is well nested: every `"E"` closes the
/// innermost open `"B"` and timestamps are non-decreasing per
/// `(pid, tid)` lane.
fn assert_chrome_well_nested(json: &str) {
    let field = |line: &str, key: &str| -> Option<String> {
        let pat = format!("\"{key}\":");
        let at = line.find(&pat)? + pat.len();
        let rest = &line[at..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim_matches('"').to_string())
    };
    let mut stacks: std::collections::BTreeMap<(String, String), Vec<String>> = Default::default();
    let mut last_ts: std::collections::BTreeMap<(String, String), f64> = Default::default();
    for line in json.lines() {
        let Some(ph) = field(line, "ph") else {
            continue;
        };
        if ph != "B" && ph != "E" {
            continue;
        }
        let key = (
            field(line, "pid").expect("pid"),
            field(line, "tid").expect("tid"),
        );
        let ts: f64 = field(line, "ts").expect("ts").parse().expect("numeric ts");
        let name = field(line, "name").expect("name");
        let prev = last_ts.entry(key.clone()).or_insert(f64::NEG_INFINITY);
        prop_assert!(ts >= *prev, "timestamps regress on {key:?}: {line}");
        *prev = ts;
        let stack = stacks.entry(key).or_default();
        if ph == "B" {
            stack.push(name);
        } else {
            let open = stack.pop();
            prop_assert_eq!(open.as_deref(), Some(name.as_str()), "E without matching B");
        }
    }
    for (k, s) in stacks {
        prop_assert!(s.is_empty(), "unclosed spans on {k:?}: {s:?}");
    }
}

proptest! {
    // Any sequence of span/event calls exports a well-nested Chrome
    // trace, and export bytes are identical across two identical runs.
    #[test]
    fn span_exports_are_well_nested_and_deterministic(
        ops in proptest::collection::vec(arb_obs_op(), 0..60),
    ) {
        let rec = replay_obs(&ops);
        let json = rec.spans().to_chrome_json();
        assert_chrome_well_nested(&json);
        // byte-determinism: an identical replay exports identical bytes
        let rec2 = replay_obs(&ops);
        prop_assert_eq!(&json, &rec2.spans().to_chrome_json());
        prop_assert_eq!(rec.spans().to_folded(), rec2.spans().to_folded());
        prop_assert_eq!(rec.trace().to_jsonl(), rec2.trace().to_jsonl());
    }

    // Campaign span/metric exports are byte-identical across --workers 1
    // and --workers 4, and stay well nested after shard merging.
    #[test]
    fn campaign_exports_are_worker_invariant(trials in 1u64..80, salt in any::<u64>()) {
        use vds::fault::campaign::{run_campaign_recorded, TrialResult};
        let trial = |i: u64, rec: &mut vds::obs::Recorder| {
            rec.bump("trials");
            TrialResult::with_value("lat", ((i ^ salt) % 97) as f64)
        };
        let (ra, reca) = run_campaign_recorded(trials, 1, trial);
        let (rb, recb) = run_campaign_recorded(trials, 4, trial);
        prop_assert_eq!(ra.trials, rb.trials);
        let json = reca.spans().to_chrome_json();
        assert_chrome_well_nested(&json);
        prop_assert_eq!(&json, &recb.spans().to_chrome_json());
        prop_assert_eq!(reca.registry().to_csv(), recb.registry().to_csv());
        prop_assert_eq!(reca.spans().to_folded(), recb.spans().to_folded());
    }
}
