//! End-to-end tests of the micro platform: diversified programs on the
//! cycle-level SMT machine, through the whole detection/vote/roll-forward
//! protocol, audited against the pure-Rust oracle.

use vds::core::micro_vds::{run_micro, run_micro_with_recorder, MicroConfig, MicroFault};
use vds::core::{workload, Scheme, Victim};
use vds::fault::model::{FaultKind, FaultSite};
use vds::obs::NoopRecorder;

fn audit_state(committed: u64, img: &[u32]) {
    let (_, want) = workload::oracle(committed as u32);
    assert_eq!(img[workload::ADDR_ROUND as usize], committed as u32);
    assert_eq!(
        &img[workload::ADDR_STATE as usize
            ..(workload::ADDR_STATE + workload::STATE_WORDS) as usize],
        &want[..],
        "final state diverges from oracle"
    );
}

#[test]
fn all_schemes_survive_a_state_corruption_with_correct_output() {
    let fault = MicroFault {
        at_round: 5,
        victim: Victim::V1,
        kind: FaultKind::Transient(FaultSite::Memory { addr: 3, bit: 21 }),
    };
    for scheme in [
        Scheme::Conventional,
        Scheme::SmtDeterministic,
        Scheme::SmtProbabilistic,
        Scheme::SmtPredictive,
    ] {
        let cfg = MicroConfig::new(scheme, 8);
        let (r, img, _) = run_micro_with_recorder(&cfg, Some(fault), 20, NoopRecorder);
        assert_eq!(r.committed_rounds, 20, "{scheme:?}");
        assert_eq!(r.detections, 1, "{scheme:?}");
        audit_state(r.committed_rounds, &img);
    }
}

#[test]
fn fault_at_every_round_of_the_interval_recovers() {
    // sweep the fault position i = 1..=s — exercises early, middle and
    // checkpoint-boundary recoveries including the roll-forward clamp
    let s = 6;
    for i in 1..=s {
        let cfg = MicroConfig::new(Scheme::SmtProbabilistic, s);
        let fault = MicroFault {
            at_round: i,
            victim: Victim::V2,
            kind: FaultKind::Transient(FaultSite::Memory { addr: 6, bit: 2 }),
        };
        let (r, img, _) = run_micro_with_recorder(&cfg, Some(fault), 14, NoopRecorder);
        assert_eq!(r.committed_rounds, 14, "i={i}");
        assert_eq!(r.recoveries_ok, 1, "i={i}: {r}");
        audit_state(r.committed_rounds, &img);
    }
}

#[test]
fn corrupted_round_counter_is_caught() {
    // flipping the round counter itself (addr 0) makes the two versions'
    // windows disagree — the comparison covers bookkeeping too
    let cfg = MicroConfig::new(Scheme::SmtDeterministic, 10);
    let fault = MicroFault {
        at_round: 4,
        victim: Victim::V1,
        kind: FaultKind::Transient(FaultSite::Memory { addr: 0, bit: 0 }),
    };
    let (r, img, _) = run_micro_with_recorder(&cfg, Some(fault), 15, NoopRecorder);
    assert_eq!(r.detections, 1);
    audit_state(r.committed_rounds, &img);
}

#[test]
fn crash_faults_recover_via_trap_evidence() {
    for scheme in [Scheme::Conventional, Scheme::SmtProbabilistic] {
        let cfg = MicroConfig::new(scheme, 10);
        let fault = MicroFault {
            at_round: 7,
            victim: Victim::V1,
            kind: FaultKind::CrashVersion,
        };
        let (r, img, _) = run_micro_with_recorder(&cfg, Some(fault), 18, NoopRecorder);
        assert_eq!(r.committed_rounds, 18, "{scheme:?}");
        assert!(r.detections >= 1, "{scheme:?}");
        audit_state(r.committed_rounds, &img);
    }
}

#[test]
fn smt_beats_conventional_on_cycles_fault_free() {
    let smt = run_micro(&MicroConfig::new(Scheme::SmtProbabilistic, 10), None, 40);
    let conv = run_micro(&MicroConfig::new(Scheme::Conventional, 10), None, 40);
    let gain = conv.total_time / smt.total_time;
    assert!(gain > 1.15, "measured micro gain {gain}");
}

#[test]
fn smt_beats_conventional_on_cycles_with_fault() {
    let fault = MicroFault {
        at_round: 6,
        victim: Victim::V2,
        kind: FaultKind::Transient(FaultSite::Memory { addr: 5, bit: 9 }),
    };
    let mut smt_cfg = MicroConfig::new(Scheme::SmtDeterministic, 10);
    smt_cfg.p_correct = 0.5;
    let smt = run_micro(&smt_cfg, Some(fault), 40);
    let conv = run_micro(&MicroConfig::new(Scheme::Conventional, 10), Some(fault), 40);
    assert!(
        smt.total_time < conv.total_time,
        "smt {} vs conv {}",
        smt.total_time,
        conv.total_time
    );
}

#[test]
fn diversity_off_still_handles_transients() {
    // identical versions detect *transient* faults fine (they corrupt
    // only one copy); diversity matters for permanent faults
    let mut cfg = MicroConfig::new(Scheme::SmtProbabilistic, 8);
    cfg.diversity = false;
    let fault = MicroFault {
        at_round: 3,
        victim: Victim::V2,
        kind: FaultKind::Transient(FaultSite::Memory { addr: 4, bit: 4 }),
    };
    let (r, img, _) = run_micro_with_recorder(&cfg, Some(fault), 16, NoopRecorder);
    assert_eq!(r.detections, 1);
    audit_state(r.committed_rounds, &img);
}

#[test]
fn workload_scales_with_round_count() {
    // more target rounds, same per-round cost (no leaks / runaway state)
    let cfg = MicroConfig::new(Scheme::SmtProbabilistic, 10);
    let r20 = run_micro(&cfg, None, 20);
    let r60 = run_micro(&cfg, None, 60);
    let per20 = r20.total_time / 20.0;
    let per60 = r60.total_time / 60.0;
    assert!((per20 - per60).abs() / per20 < 0.15, "{per20} vs {per60}");
}
