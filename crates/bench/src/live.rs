//! The fault campaigns `vds campaign` records and `vds replay` re-runs.
//!
//! A recorded campaign must be representative (real faults against the
//! real cycle-level VDS, like E10, or against a bytecode-VM duplex),
//! deterministic for a fixed seed, and instrumented: every trial folds
//! its run report and SMT pipeline counters into the shard recorder, so
//! the merged registry carries `vds.*`, `smt.*` and `campaign.*` series
//! and the journal carries every trial's rounds under its own lane. The
//! `benchmark/` campaigns drive the same trial functions.

use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};
use vds_core::micro_vds::{run_micro_with_recorder, MicroConfig, MicroFault};
use vds_core::workload;
use vds_core::{Scheme, Victim};
use vds_fault::campaign::TrialResult;
use vds_fault::model::{sample_transient_site, FaultKind};
use vds_obs::{JournalHeader, Recorder};

/// One instrumented trial of the micro campaign: a transient fault at a
/// random round/site against the diversified micro VDS under `scheme`
/// (any micro-capable scheme, as `vds campaign --scheme` picks it).
/// Deterministic in `(scheme, index, base_seed, target_rounds)`; records
/// the run's `vds.*` and `smt.*` metrics into `rec`. When `rec` carries
/// an enabled flight-recorder journal (a campaign launched through
/// `run_campaign_journaled`), the micro run is journaled too and its
/// round entries are adopted under lane `index`. The fault sequence
/// depends only on `(index, base_seed)`, so two campaigns differing only
/// in scheme face identical fault injections.
pub fn campaign_trial_for(
    scheme: Scheme,
    index: u64,
    base_seed: u64,
    target_rounds: u64,
    rec: &mut Recorder,
) -> TrialResult {
    let mut rng = SmallRng::seed_from_u64(
        index
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(base_seed)
            ^ 0x5EE7,
    );
    let mut cfg = MicroConfig::new(scheme, 8);
    cfg.seed = base_seed.wrapping_add(index);
    let victim = if rng.gen() { Victim::V1 } else { Victim::V2 };
    let at_round = rng.gen_range(1..=cfg.s);
    let text_len = workload::build(4).text.len() as u32 + 8;
    let site = sample_transient_site(&mut rng, workload::DMEM_WORDS as u32, text_len);
    let fault = MicroFault {
        at_round,
        victim,
        kind: FaultKind::Transient(site),
    };
    let (report, _, run_rec) =
        run_micro_with_recorder(&cfg, Some(fault), target_rounds, trial_recorder(rec));
    rec.adopt_run(run_rec, index);
    TrialResult::with_value(trial_label(&report), report.detections as f64)
}

/// One instrumented trial of the **bytecode-VM** campaign
/// (`vds campaign --workload vm:<program>`): a sampled architectural-state
/// fault ([`vds_fault::vm::sample_vm_site`]) against the diversified
/// duplex of a `vds-vm` seed program. Deterministic in
/// `(program, index, base_seed, target_rounds)` with the same
/// journal-adoption contract as [`campaign_trial_for`].
pub fn vm_campaign_trial_for(
    program: &str,
    scheme: Scheme,
    index: u64,
    base_seed: u64,
    target_rounds: u64,
    rec: &mut Recorder,
) -> TrialResult {
    use vds_core::vm_vds::{run_vm_duplex_with_recorder, VmConfig, VmFault};
    let mut rng = SmallRng::seed_from_u64(
        index
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(base_seed)
            ^ 0xB17E,
    );
    let mut cfg = VmConfig::new(program);
    cfg.scheme = scheme;
    cfg.seed = base_seed.wrapping_add(index);
    let victim = if rng.gen() { Victim::V1 } else { Victim::V2 };
    let at_round = rng.gen_range(1..=cfg.s);
    let lit_words = vds_vm::seed_program(program).map_or(0, |sp| sp.program().lits.len() as u32);
    let site = vds_fault::vm::sample_vm_site(&mut rng, vds_vm::DMEM_WORDS as u32, lit_words);
    let fault = VmFault {
        at_round,
        victim,
        site,
    };
    let (report, _, run_rec) =
        run_vm_duplex_with_recorder(&cfg, Some(fault), target_rounds, trial_recorder(rec));
    rec.adopt_run(run_rec, index);
    TrialResult::with_value(trial_label(&report), report.detections as f64)
}

/// A fresh recorder for one trial, journaling under the campaign's
/// header when the campaign recorder journals. Only its registry and
/// journal are adopted, so it records nothing else.
fn trial_recorder(rec: &Recorder) -> Recorder {
    let mut run_rec = Recorder::registry_only();
    if rec.journal_enabled() {
        if let Some(h) = rec.journal().header() {
            run_rec.enable_journal(h.clone());
        }
    }
    run_rec
}

/// Classify a trial's run report into its campaign outcome label.
///
/// Masked and escaped faults both go undetected, but they are different
/// outcomes: a masked fault's corruption was overwritten (or
/// architecturally absorbed) before any comparison — the output is
/// correct — while an escaped fault's corruption survives to the end of
/// the run as silent data corruption. The campaign used to conflate the
/// two under "masked" by labelling every zero-detection run masked.
pub fn trial_label(report: &vds_core::report::RunReport) -> &'static str {
    if report.shutdown {
        "failsafe-shutdown"
    } else if report.faults_escaped > 0 {
        "escaped"
    } else if report.faults_masked > 0 {
        "masked"
    } else if report.rollbacks > 0 {
        "rollback"
    } else {
        "recovered"
    }
}

/// The journal header describing a [`campaign_trial_for`] campaign under
/// `scheme`, so recordings and `vds replay` re-runs agree on the run's
/// identity. `s` mirrors the trial's fixed configuration, and the header
/// records the scheme so replay and the conformance tracker price the
/// rounds with the right closed forms.
pub fn campaign_journal_header_for(
    scheme: Scheme,
    trials: u64,
    base_seed: u64,
    target_rounds: u64,
) -> JournalHeader {
    let cfg = MicroConfig::new(scheme, 8);
    JournalHeader::new("campaign", scheme.name(), base_seed, cfg.s, target_rounds)
        .with_meta("trials", &trials.to_string())
}

/// The journal header for a [`vm_campaign_trial_for`] campaign. Backend
/// `vm` with a `trials` meta key distinguishes it from a single
/// `vds vm duplex` recording (same backend, no `trials`); `vds replay`
/// dispatches on exactly that.
pub fn vm_campaign_journal_header_for(
    program: &str,
    scheme: Scheme,
    trials: u64,
    base_seed: u64,
    target_rounds: u64,
) -> JournalHeader {
    let cfg = vds_core::vm_vds::VmConfig::new(program);
    JournalHeader::new("vm", scheme.name(), base_seed, cfg.s, target_rounds)
        .with_meta("program", program)
        .with_meta("trials", &trials.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vds_fault::campaign::run_campaign_recorded_as;

    #[test]
    fn micro_campaign_is_deterministic_and_instrumented() {
        let run = |workers| {
            run_campaign_recorded_as("serve", 24, workers, |i, rec| {
                campaign_trial_for(Scheme::SmtProbabilistic, i, 42, 40, rec)
            })
        };
        let (ra, reca) = run(1);
        let (rb, recb) = run(4);
        assert_eq!(ra, rb);
        assert_eq!(reca.registry().to_csv(), recb.registry().to_csv());
        assert_eq!(ra.trials, 24);
        // trial recordings landed: committed rounds and SMT counters
        assert!(reca.registry().counter("vds.committed_rounds") > 0);
        assert!(reca
            .registry()
            .counters()
            .any(|(name, _)| name.starts_with("smt.")));
    }

    #[test]
    fn journaled_micro_campaign_is_byte_identical_across_workers() {
        use vds_fault::campaign::run_campaign_journaled;
        let scheme = Scheme::SmtProbabilistic;
        let header = campaign_journal_header_for(scheme, 12, 42, 30);
        let run = |workers| {
            run_campaign_journaled("serve", 12, workers, None, &header, |i, rec| {
                campaign_trial_for(scheme, i, 42, 30, rec)
            })
        };
        let (ra, reca) = run(1);
        let (rb, recb) = run(4);
        assert_eq!(ra, rb);
        let j = reca.journal();
        assert_eq!(j.to_jsonl(), recb.journal().to_jsonl());
        assert!(!j.is_empty());
        // lanes are trial indices, in trial order
        let lanes: Vec<u64> = j.entries().iter().map(|e| e.lane).collect();
        let mut sorted = lanes.clone();
        sorted.sort_unstable();
        assert_eq!(lanes, sorted);
        assert_eq!(*lanes.last().unwrap(), 11);
        // header survives into the merged journal
        assert_eq!(j.header().unwrap().meta("trials"), Some("12"));
        // the journal block is exported into the merged registry
        assert_eq!(reca.registry().counter("journal.rounds"), j.len() as u64);
        // fault forensics counters are priced from the same merged
        // journal and conserve the lifecycle
        let reg = reca.registry();
        let injected = reg.counter("faults.injected");
        assert!(injected > 0);
        assert_eq!(
            reg.counter("faults.detected")
                + reg.counter("faults.masked")
                + reg.counter("faults.escaped"),
            injected
        );
    }

    #[test]
    fn journaled_vm_campaign_is_byte_identical_across_workers() {
        use vds_fault::campaign::run_campaign_journaled;
        let scheme = Scheme::SmtDeterministic;
        let header = vm_campaign_journal_header_for("checksum", scheme, 8, 42, 16);
        let run = |workers| {
            run_campaign_journaled("serve", 8, workers, None, &header, |i, rec| {
                vm_campaign_trial_for("checksum", scheme, i, 42, 16, rec)
            })
        };
        let (ra, reca) = run(1);
        let (rb, recb) = run(4);
        assert_eq!(ra, rb);
        assert_eq!(reca.journal().to_jsonl(), recb.journal().to_jsonl());
        let j = reca.journal();
        assert!(!j.is_empty());
        assert_eq!(j.header().unwrap().backend, "vm");
        assert_eq!(j.header().unwrap().meta("program"), Some("checksum"));
        assert_eq!(j.header().unwrap().meta("trials"), Some("8"));
        // forensics conservation over the merged journal
        let reg = reca.registry();
        let injected = reg.counter("faults.injected");
        assert!(injected > 0);
        assert_eq!(
            reg.counter("faults.detected")
                + reg.counter("faults.masked")
                + reg.counter("faults.escaped"),
            injected
        );
    }

    #[test]
    fn halting_versions_are_trap_evidence_not_panics() {
        // campaign trials 865 and 997 (seed 1, 40 rounds) flip a bit that
        // sends a version off its round loop into `halt`; that used to
        // panic the engine and kill the whole campaign
        for index in [865, 997] {
            let mut rec = Recorder::new();
            let r = campaign_trial_for(Scheme::SmtProbabilistic, index, 1, 40, &mut rec);
            assert_eq!(r.label, "recovered", "trial {index}");
            assert_eq!(rec.registry().counter("vds.committed_rounds"), 40);
        }
    }

    #[test]
    fn masked_faults_are_not_conflated_with_detected_or_escaped() {
        use vds_core::report::RunReport;
        // a masked register-boundary fault: injected, never detected,
        // output correct — the label must say "masked", not "recovered"
        let cfg = MicroConfig::new(Scheme::SmtProbabilistic, 10);
        let fault = MicroFault {
            at_round: 4,
            victim: Victim::V1,
            kind: FaultKind::Transient(vds_fault::model::FaultSite::Register { reg: 5, bit: 3 }),
        };
        let (report, _, _) = run_micro_with_recorder(&cfg, Some(fault), 15, Recorder::new());
        assert_eq!(report.faults_masked, 1);
        assert_eq!(report.faults_detected, 0);
        assert_eq!(trial_label(&report), "masked");
        // a detected-and-recovered fault is "recovered", never "masked"
        let detected = MicroFault {
            at_round: 4,
            victim: Victim::V2,
            kind: FaultKind::Transient(vds_fault::model::FaultSite::Memory { addr: 4, bit: 7 }),
        };
        let (report, _, _) = run_micro_with_recorder(&cfg, Some(detected), 15, Recorder::new());
        assert_eq!(report.faults_detected, 1);
        assert_eq!(trial_label(&report), "recovered");
        // escaped outranks masked in the label split (silent corruption
        // must never be reported as harmless)
        let escaped = RunReport {
            faults_injected: 2,
            faults_masked: 1,
            faults_escaped: 1,
            ..Default::default()
        };
        assert_eq!(trial_label(&escaped), "escaped");
        let shutdown = RunReport {
            shutdown: true,
            ..Default::default()
        };
        assert_eq!(trial_label(&shutdown), "failsafe-shutdown");
    }
}
