//! The runs `vds` records and `vds replay` re-runs ([`Recording`]), and
//! the fault campaigns among them. Every journal header the workspace
//! writes for a run is [`Recording::header`], and
//! [`Recording::from_header`] is its one reader.
//!
//! A recorded campaign must be representative (real faults against the
//! real cycle-level VDS, like E10, or against a bytecode-VM duplex),
//! deterministic for a fixed seed, and instrumented: every trial folds
//! its run report and SMT pipeline counters into the shard recorder, so
//! the merged registry carries `vds.*`, `smt.*` and `campaign.*` series
//! and the journal carries every trial's rounds under its own lane. The
//! `benchmark/` campaigns drive the same trial functions.

use crate::abstract_vds::{run_with_recorder, AbstractConfig};
use crate::micro_vds::{run_micro_with_recorder, MicroConfig, MicroFault};
use crate::vm_vds::{run_vm_duplex_with_recorder, VmConfig, VmFault};
use crate::{workload, FaultModel, RunReport, Scheme, Victim};
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};
use vds_analytic::Params;
use vds_fault::campaign::{run_campaign_journaled, CampaignReport, TrialResult};
use vds_fault::model::{sample_transient_site, FaultKind};
use vds_fault::VmFaultSite;
use vds_obs::{JournalHeader, Record, Recorder};

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
    let text_len = workload::text_len() as u32 + 8;
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
pub fn trial_label(report: &RunReport) -> &'static str {
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
/// `scheme`: [`Recording::header`] of that campaign.
pub fn campaign_journal_header_for(
    scheme: Scheme,
    trials: u64,
    base_seed: u64,
    target_rounds: u64,
) -> JournalHeader {
    Recording::campaign(None, scheme, trials, base_seed, target_rounds).header()
}

/// The journal header for a [`vm_campaign_trial_for`] campaign:
/// [`Recording::header`] of that campaign.
pub fn vm_campaign_journal_header_for(
    program: &str,
    scheme: Scheme,
    trials: u64,
    base_seed: u64,
    target_rounds: u64,
) -> JournalHeader {
    Recording::campaign(Some(program), scheme, trials, base_seed, target_rounds).header()
}

/// The component every campaign span and metric is keyed on. The
/// `vds campaign` metrics CSV and Chrome trace bytes depend on it, and
/// `crates/bench/tests/campaign_pins.rs` pins them under this name.
const CAMPAIGN_COMPONENT: &str = "serve";

/// The journal header fields every [`Recording`] carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunParams {
    /// Recovery scheme.
    pub scheme: Scheme,
    /// Root seed; a campaign's trials derive theirs from it.
    pub seed: u64,
    /// Checkpoint interval in rounds; a campaign's trials fix theirs.
    pub s: u32,
    /// Target committed rounds, per trial for a campaign.
    pub rounds: u64,
}

/// What an abstract-engine run takes beyond [`RunParams`]: the paper's
/// α and β (`t = 1`, `c = t' = β`, as [`Params::with_beta`] builds
/// them), the [`AbstractConfig`] fields a run may change, and the fault
/// model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbstractRun {
    /// SMT contention factor α.
    pub alpha: f64,
    /// Context-switch and comparison time β, in round times.
    pub beta: f64,
    /// [`AbstractConfig::p_correct`].
    pub p_correct: f64,
    /// [`AbstractConfig::checkpoint_cost`].
    pub checkpoint_cost: f64,
    /// [`AbstractConfig::restore_cost`].
    pub restore_cost: f64,
    /// [`AbstractConfig::max_consecutive_rollbacks`].
    pub max_consecutive_rollbacks: u32,
    /// When and where faults strike.
    pub fault_model: FaultModel,
}

impl AbstractRun {
    /// `cfg` under `fault_model`. Its scheme, `s` and timeline switch
    /// are not kept: the first two are [`RunParams`], and the timeline
    /// changes no journal byte.
    fn of(cfg: &AbstractConfig, fault_model: FaultModel) -> AbstractRun {
        AbstractRun {
            alpha: cfg.params.alpha,
            beta: cfg.params.c,
            p_correct: cfg.p_correct,
            checkpoint_cost: cfg.checkpoint_cost,
            restore_cost: cfg.restore_cost,
            max_consecutive_rollbacks: cfg.max_consecutive_rollbacks,
            fault_model,
        }
    }

    /// The fault-free run at [`Params::paper_default`] and
    /// [`AbstractConfig::new`]'s defaults: a header names only what
    /// differs from it.
    fn paper_default() -> AbstractRun {
        let cfg = AbstractConfig::new(Params::paper_default(), Scheme::Conventional);
        AbstractRun::of(&cfg, FaultModel::None)
    }

    /// The engine configuration of this run under `p`'s scheme and `s`.
    fn config(&self, p: &RunParams) -> AbstractConfig {
        AbstractConfig {
            p_correct: self.p_correct,
            checkpoint_cost: self.checkpoint_cost,
            restore_cost: self.restore_cost,
            max_consecutive_rollbacks: self.max_consecutive_rollbacks,
            ..AbstractConfig::new(Params::with_beta(self.alpha, self.beta, p.s), p.scheme)
        }
    }

    /// Every header key of this run with its value, in header order.
    fn meta(&self) -> [(&'static str, String); 7] {
        [
            ("fault_model", self.fault_model.spec_string()),
            ("alpha", self.alpha.to_string()),
            ("beta", self.beta.to_string()),
            ("p_correct", self.p_correct.to_string()),
            ("checkpoint_cost", self.checkpoint_cost.to_string()),
            ("restore_cost", self.restore_cost.to_string()),
            (
                "max_consecutive_rollbacks",
                self.max_consecutive_rollbacks.to_string(),
            ),
        ]
    }
}

/// A run `vds` records, as its journal header describes it.
///
/// Every command that writes a journal builds one and runs it with
/// [`Recording::record`], which journals under [`Recording::header`];
/// `vds replay` rebuilds it with [`Recording::from_header`] and records
/// it again. DESIGN.md tables the five header kinds this writes.
#[derive(Debug, Clone, PartialEq)]
pub enum Recording {
    /// One run of the paper's abstract timing model
    /// ([`crate::abstract_vds`]).
    Abstract(RunParams, AbstractRun),
    /// One micro-VDS run (`vds duplex`, `stats`, `report`) and its fault.
    Micro(RunParams, Option<MicroFault>),
    /// One bytecode-VM duplex run of a seed program (`vds vm duplex`,
    /// `vds duplex --workload vm:<program>`) and its fault.
    Vm(RunParams, String, Option<VmFault>),
    /// A fault campaign (`vds campaign`): its trial count of
    /// [`campaign_trial_for`] runs, or of [`vm_campaign_trial_for`] runs
    /// on a seed program.
    Campaign(RunParams, Option<String>, u64),
}

/// What running a [`Recording`] produced.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// A single run's report, and whether its output matches the
    /// workload's pure-Rust oracle (for an abstract run, which computes
    /// no output, whether no fault escaped).
    Run(RunReport, bool),
    /// A campaign's aggregated trial outcomes.
    Campaign(CampaignReport),
}

impl Recording {
    /// A campaign over micro trials (`program` `None`) or VM trials, at
    /// the interval its trials fix.
    pub fn campaign(
        program: Option<&str>,
        scheme: Scheme,
        trials: u64,
        seed: u64,
        rounds: u64,
    ) -> Recording {
        let params = RunParams {
            scheme,
            seed,
            s: trial_interval(program),
            rounds,
        };
        Recording::Campaign(params, program.map(str::to_string), trials)
    }

    /// An abstract-engine run of `cfg` under `fault_model`; `None` when
    /// `cfg`'s params are not [`Params::with_beta`]'s, which no header
    /// describes.
    pub fn abstract_run(
        cfg: &AbstractConfig,
        fault_model: FaultModel,
        seed: u64,
        rounds: u64,
    ) -> Option<Recording> {
        let p = RunParams {
            scheme: cfg.scheme,
            seed,
            s: cfg.params.s,
            rounds,
        };
        let with_beta = cfg.params.t == 1.0 && cfg.params.t_cmp == cfg.params.c;
        with_beta.then(|| Recording::Abstract(p, AbstractRun::of(cfg, fault_model)))
    }

    /// The header fields this recording carries.
    pub fn params(&self) -> &RunParams {
        match self {
            Recording::Abstract(p, _)
            | Recording::Micro(p, _)
            | Recording::Vm(p, ..)
            | Recording::Campaign(p, ..) => p,
        }
    }

    /// The journal header of this run: everything
    /// [`Recording::from_header`] needs to rebuild it.
    pub fn header(&self) -> JournalHeader {
        let p = self.params();
        let backend = match self {
            Recording::Abstract(..) => "abstract",
            Recording::Micro(..) => "micro",
            Recording::Campaign(_, None, _) => "campaign",
            _ => "vm",
        };
        let h = JournalHeader::new(backend, p.scheme.name(), p.seed, p.s, p.rounds);
        match self {
            Recording::Abstract(_, a) => {
                let default = AbstractRun::paper_default().meta();
                a.meta()
                    .into_iter()
                    .zip(default)
                    .filter(|(key_value, default)| key_value != default)
                    .fold(h, |h, ((key, value), _)| h.with_meta(key, &value))
            }
            Recording::Micro(_, fault) => with_fault(
                h,
                fault.map(|f| (f.kind.spec_string(), f.at_round, f.victim)),
            ),
            Recording::Vm(_, program, fault) => with_fault(
                h.with_meta("program", program),
                fault.map(|f| (f.site.spec_string(), f.at_round, f.victim)),
            ),
            Recording::Campaign(_, program, trials) => match program {
                Some(program) => h.with_meta("program", program),
                None => h,
            }
            .with_meta("trials", &trials.to_string()),
        }
    }

    /// Rebuild the run a journal header describes. Refuses, with a
    /// one-line message, a header naming an unknown scheme or program or
    /// a malformed fault, one [`Recording::check`] refuses, and any other
    /// header [`Recording::header`] would not write back unchanged.
    pub fn from_header(h: &JournalHeader) -> Result<Recording, String> {
        let scheme = Scheme::from_name(&h.scheme)
            .ok_or_else(|| format!("journal header has unknown scheme `{}`", h.scheme))?;
        let p = RunParams {
            scheme,
            seed: h.seed,
            s: h.s,
            rounds: h.target_rounds,
        };
        let program = || match h.meta("program") {
            Some(name) if vds_vm::seed_program(name).is_some() => Ok(name.to_string()),
            Some(name) => Err(format!("journal header names unknown program `{name}`")),
            None => Err("vm journal header has no program meta".to_string()),
        };
        let r = match (h.backend.as_str(), h.meta("trials")) {
            ("abstract", _) => {
                let d = AbstractRun::paper_default();
                let fault_model = match h.meta("fault_model") {
                    Some(spec) => FaultModel::parse_spec(spec).ok_or_else(|| {
                        format!("journal header has malformed fault_model `{spec}`")
                    })?,
                    None => d.fault_model,
                };
                Recording::Abstract(
                    p,
                    AbstractRun {
                        alpha: meta_number(h, "alpha", d.alpha)?,
                        beta: meta_number(h, "beta", d.beta)?,
                        p_correct: meta_number(h, "p_correct", d.p_correct)?,
                        checkpoint_cost: meta_number(h, "checkpoint_cost", d.checkpoint_cost)?,
                        restore_cost: meta_number(h, "restore_cost", d.restore_cost)?,
                        max_consecutive_rollbacks: meta_number(
                            h,
                            "max_consecutive_rollbacks",
                            d.max_consecutive_rollbacks,
                        )?,
                        fault_model,
                    },
                )
            }
            ("micro", _) => Recording::Micro(
                p,
                fault_meta(h, FaultKind::parse_spec)?.map(|(kind, at_round, victim)| MicroFault {
                    at_round,
                    victim,
                    kind,
                }),
            ),
            ("vm", None) => Recording::Vm(
                p,
                program()?,
                fault_meta(h, VmFaultSite::parse_spec)?.map(|(site, at_round, victim)| VmFault {
                    at_round,
                    victim,
                    site,
                }),
            ),
            (backend @ ("campaign" | "vm"), trials) => Recording::Campaign(
                p,
                if backend == "vm" {
                    Some(program()?)
                } else {
                    None
                },
                trials
                    .and_then(|t| t.parse().ok())
                    .ok_or("journal header has no valid trials meta")?,
            ),
            (other, _) => {
                return Err(format!(
                    "cannot replay `{other}` journals \
                     (replayable backends: abstract, micro, campaign, vm)"
                ))
            }
        };
        r.check()?;
        let written = r.header();
        if written.meta != h.meta {
            return Err(format!(
                "journal header has meta {:?}, but its run records {:?}",
                h.meta, written.meta
            ));
        }
        Ok(r)
    }

    /// Refuse what this recording's engine cannot run. The micro VDS runs
    /// the 1–3-thread schemes, and campaigns keep to them over either
    /// workload; a single VM or abstract run takes every scheme. A
    /// campaign's `s` must be the interval its trials fix, and an
    /// abstract run's inputs must lie in the model's ranges.
    pub fn check(&self) -> Result<(), String> {
        let p = self.params();
        if p.scheme == Scheme::SmtBoosted5
            && !matches!(self, Recording::Vm(..) | Recording::Abstract(..))
        {
            return Err(
                "smt-boost5 runs on the abstract backend only (micro-capable \
                        schemes: conventional, smt-det, smt-prob, smt-pred, smt-boost3)"
                    .to_string(),
            );
        }
        match self {
            Recording::Campaign(_, program, _) if trial_interval(program.as_deref()) != p.s => {
                Err(format!(
                    "journal header has s = {}, but its trials run at s = {}",
                    p.s,
                    trial_interval(program.as_deref())
                ))
            }
            Recording::Abstract(p, a)
                if !(p.s >= 1
                    && (0.5..=1.0).contains(&a.alpha)
                    && a.beta >= 0.0
                    && (0.0..=1.0).contains(&a.p_correct)) =>
            {
                Err(format!(
                    "abstract run needs s >= 1, alpha in [0.5, 1], beta >= 0 and \
                     p_correct in [0, 1] (header has s = {}, alpha = {}, beta = {}, \
                     p_correct = {})",
                    p.s, a.alpha, a.beta, a.p_correct
                ))
            }
            _ => Ok(()),
        }
    }

    /// Run the recording, journaled under [`Recording::header`]. A single
    /// run records into `rec`; a campaign shards its trials over `workers`
    /// threads and returns the recorder [`run_campaign_journaled`] merges
    /// them into, dropping `rec`.
    pub fn record(&self, mut rec: Recorder, workers: usize) -> (Outcome, Recorder) {
        let Recording::Campaign(p, program, trials) = self else {
            rec.enable_journal(self.header());
            let (report, correct, rec) = self.run_single(rec);
            return (Outcome::Run(report, correct), rec);
        };
        let trial = |i, rec: &mut Recorder| match program {
            Some(program) => vm_campaign_trial_for(program, p.scheme, i, p.seed, p.rounds, rec),
            None => campaign_trial_for(p.scheme, i, p.seed, p.rounds, rec),
        };
        let header = self.header();
        let (report, rec) =
            run_campaign_journaled(CAMPAIGN_COMPONENT, *trials, workers, None, &header, trial);
        (Outcome::Campaign(report), rec)
    }

    /// Run a single run into `rec` (the zero-sized
    /// [`vds_obs::NoopRecorder`] for an unrecorded run): its report,
    /// whether its output matches the oracle, and the recorder.
    ///
    /// # Panics
    ///
    /// On a campaign, which runs only through [`Recording::record`].
    pub fn run_single<R: Record>(&self, rec: R) -> (RunReport, bool, R) {
        match self {
            Recording::Abstract(p, a) => {
                let cfg = a.config(p);
                let (report, rec) = run_with_recorder(&cfg, a.fault_model, p.rounds, p.seed, rec);
                let correct = report.faults_escaped == 0;
                (report, correct, rec)
            }
            Recording::Micro(p, fault) => {
                let cfg = MicroConfig {
                    seed: p.seed,
                    ..MicroConfig::new(p.scheme, p.s)
                };
                let (report, img, rec) = run_micro_with_recorder(&cfg, *fault, p.rounds, rec);
                let correct = workload::output_correct(&img, report.committed_rounds as u32);
                (report, correct, rec)
            }
            Recording::Vm(p, program, fault) => {
                let cfg = VmConfig {
                    scheme: p.scheme,
                    seed: p.seed,
                    s: p.s,
                    ..VmConfig::new(program)
                };
                let (report, img, rec) = run_vm_duplex_with_recorder(&cfg, *fault, p.rounds, rec);
                let correct = vds_vm::seed_program(program).is_some_and(|sp| {
                    sp.output_correct(p.seed, &img, report.committed_rounds as u32)
                });
                (report, correct, rec)
            }
            Recording::Campaign(..) => panic!("a campaign runs only through Recording::record"),
        }
    }
}

/// Record a single run as `vds` does, for the engines' unit tests: its
/// report and its recorder, journaled under [`Recording::header`].
#[cfg(test)]
pub(crate) fn recorded(run: &Recording) -> (RunReport, Recorder) {
    match run.record(Recorder::new(), 1) {
        (Outcome::Run(report, _), rec) => (report, rec),
        (Outcome::Campaign(_), _) => unreachable!("a single run records a run report"),
    }
}

/// The checkpoint interval a campaign's trials fix: `s` of
/// [`campaign_trial_for`]'s `MicroConfig::new(scheme, 8)`, or of
/// [`vm_campaign_trial_for`]'s `VmConfig::new(program)`.
fn trial_interval(program: Option<&str>) -> u32 {
    program.map_or(8, |p| VmConfig::new(p).s)
}

/// A single run's header with its fault (spec, round, victim) appended
/// as the `fault`, `fault_round` and `fault_victim` meta keys.
fn with_fault(h: JournalHeader, fault: Option<(String, u32, Victim)>) -> JournalHeader {
    match fault {
        Some((spec, at_round, victim)) => h
            .with_meta("fault", &spec)
            .with_meta("fault_round", &at_round.to_string())
            .with_meta("fault_victim", &format!("v{}", victim.index() + 1)),
        None => h,
    }
}

/// The number under meta `key`, or `default` when the header has none.
fn meta_number<T: std::str::FromStr>(
    h: &JournalHeader,
    key: &str,
    default: T,
) -> Result<T, String> {
    match h.meta(key) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("journal header has non-numeric {key} `{v}`")),
        None => Ok(default),
    }
}

/// Read a single run's fault meta back, parsing the `fault` spec with
/// the backend's `parse`: `None` when the header names no fault.
fn fault_meta<T>(
    h: &JournalHeader,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<(T, u32, Victim)>, String> {
    let Some(spec) = h.meta("fault") else {
        return Ok(None);
    };
    let site =
        parse(spec).ok_or_else(|| format!("journal header has malformed fault spec `{spec}`"))?;
    let at_round = h.meta("fault_round").and_then(|r| r.parse().ok());
    let victim = match h.meta("fault_victim") {
        Some("v1") => Some(Victim::V1),
        Some("v2") => Some(Victim::V2),
        _ => None,
    };
    match (at_round, victim) {
        (Some(at_round), Some(victim)) => Ok(Some((site, at_round, victim))),
        _ => Err("journal header has a fault but no valid fault_round and fault_victim".into()),
    }
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
    fn every_recording_survives_its_header() {
        // fault specs round-trip in vds-fault; here every variant under
        // every scheme, single runs with no fault and with one per victim
        let mem = FaultKind::Transient(vds_fault::model::FaultSite::Memory { addr: 4, bit: 9 });
        let pc = VmFaultSite::Pc { bit: 9 };
        for (i, scheme) in Scheme::ALL.into_iter().enumerate() {
            let (seed, rounds) = (i as u64 * 7, 10 + i as u64);
            let p = RunParams {
                scheme,
                seed,
                s: 3 + i as u32,
                rounds,
            };
            let mut all = vec![
                Recording::Micro(p, None),
                Recording::campaign(None, scheme, 24, seed, rounds),
            ];
            for victim in [Victim::V1, Victim::V2] {
                let (at_round, kind, site) = (2, mem, pc);
                all.push(Recording::Micro(
                    p,
                    Some(MicroFault {
                        at_round,
                        victim,
                        kind,
                    }),
                ));
                for sp in vds_vm::SEED_PROGRAMS {
                    let fault = VmFault {
                        at_round,
                        victim,
                        site,
                    };
                    all.push(Recording::Vm(p, sp.name.to_string(), Some(fault)));
                }
            }
            for sp in vds_vm::SEED_PROGRAMS {
                all.push(Recording::Vm(p, sp.name.to_string(), None));
                all.push(Recording::campaign(Some(sp.name), scheme, 5, seed, rounds));
            }
            // abstract runs under every fault model, and with each config
            // field off its default
            let base = AbstractRun::paper_default();
            let one_shot = FaultModel::OneShot {
                round: 2,
                victim: Victim::V2,
            };
            let fault_models = [
                FaultModel::None,
                one_shot,
                FaultModel::PerRound { q: 0.05 },
                FaultModel::PerRoundWithCrashes {
                    q: 0.01,
                    crash_fraction: 0.25,
                },
                FaultModel::Mission {
                    q: 0.03,
                    crash_fraction: 0.3,
                    stop_fraction: 0.2,
                },
            ];
            for fault_model in fault_models {
                all.push(Recording::Abstract(
                    p,
                    AbstractRun {
                        fault_model,
                        ..base
                    },
                ));
            }
            for run in [
                AbstractRun { alpha: 0.8, ..base },
                AbstractRun { beta: 0.25, ..base },
                AbstractRun {
                    p_correct: 0.9,
                    ..base
                },
                AbstractRun {
                    checkpoint_cost: 1.5,
                    ..base
                },
                AbstractRun {
                    restore_cost: 2.5,
                    ..base
                },
                AbstractRun {
                    max_consecutive_rollbacks: 3,
                    ..base
                },
            ] {
                all.push(Recording::Abstract(p, run));
            }
            for r in all {
                let back = Recording::from_header(&r.header());
                if let Recording::Abstract(p, a) = &r {
                    // conformance prices the header at the run's α and β
                    let model = vds_obs::conformance::SchemeModel::for_header(&r.header(), None);
                    assert_eq!(model.unwrap().params, a.config(p).params);
                }
                if scheme == Scheme::SmtBoosted5
                    && !matches!(r, Recording::Vm(..) | Recording::Abstract(..))
                {
                    assert!(back
                        .unwrap_err()
                        .starts_with("smt-boost5 runs on the abstract"));
                } else {
                    assert_eq!(back, Ok(r));
                }
            }
        }
        // an abstract config is a recording only with `with_beta`'s params
        let cfg = AbstractConfig::new(Params::paper_default(), Scheme::SmtDeterministic);
        let r = Recording::abstract_run(&cfg, FaultModel::None, 1, 10).unwrap();
        assert_eq!(r.header().meta, []);
        for params in [
            Params {
                t: 2.0,
                ..cfg.params
            },
            Params {
                t_cmp: 0.2,
                ..cfg.params
            },
        ] {
            let cfg = AbstractConfig { params, ..cfg };
            assert_eq!(Recording::abstract_run(&cfg, FaultModel::None, 1, 10), None);
        }
    }

    #[test]
    fn recorded_header_lines_are_pinned() {
        // as `vds duplex smt-det 15 4`, `vds duplex smt-det 12`, `vds vm
        // duplex strhash 12 4` and `vds campaign --trials 24 --rounds 30
        // --seed 42` (micro trials and `--workload vm:checksum`) write
        // them, then the rollback-shutdown abstract run of
        // `tests/journal_pins.rs` and an abstract run with every key; each
        // reads back into its variant and writes back unchanged
        let pins = [
            r#"{"kind":"journal_header","schema":2,"backend":"micro","scheme":"smt-det","seed":2024,"s":10,"target_rounds":15,"meta":{"fault":"transient:mem:4:9","fault_round":"4","fault_victim":"v2"}}"#,
            r#"{"kind":"journal_header","schema":2,"backend":"micro","scheme":"smt-det","seed":2024,"s":10,"target_rounds":12,"meta":{}}"#,
            r#"{"kind":"journal_header","schema":2,"backend":"vm","scheme":"smt-det","seed":2024,"s":8,"target_rounds":12,"meta":{"program":"strhash","fault":"vm:reg:1:5","fault_round":"4","fault_victim":"v2"}}"#,
            r#"{"kind":"journal_header","schema":2,"backend":"campaign","scheme":"smt-prob","seed":42,"s":8,"target_rounds":30,"meta":{"trials":"24"}}"#,
            r#"{"kind":"journal_header","schema":2,"backend":"vm","scheme":"smt-prob","seed":42,"s":8,"target_rounds":30,"meta":{"program":"checksum","trials":"24"}}"#,
            r#"{"kind":"journal_header","schema":2,"backend":"abstract","scheme":"conventional","seed":23,"s":20,"target_rounds":10000,"meta":{"fault_model":"per-round:0.9","max_consecutive_rollbacks":"3"}}"#,
            r#"{"kind":"journal_header","schema":2,"backend":"abstract","scheme":"smt-boost5","seed":7,"s":12,"target_rounds":500,"meta":{"fault_model":"one-shot:4:v2","alpha":"0.7","beta":"0.2","p_correct":"0.9","checkpoint_cost":"1","restore_cost":"2.5","max_consecutive_rollbacks":"3"}}"#,
        ];
        let variant = |r: &Recording| match r {
            Recording::Abstract(..) => "abstract",
            Recording::Micro(..) => "micro",
            Recording::Vm(..) => "vm",
            Recording::Campaign(..) => "campaign",
        };
        let variants = [
            "micro", "micro", "vm", "campaign", "campaign", "abstract", "abstract",
        ];
        for (line, want) in pins.into_iter().zip(variants) {
            let line = format!("{line}\n");
            let read = vds_obs::Journal::from_jsonl(&line).unwrap();
            let r = Recording::from_header(read.header().unwrap()).unwrap();
            assert_eq!(variant(&r), want, "{r:?}");
            assert_eq!(vds_obs::Journal::enabled(r.header()).to_jsonl(), line);
        }
    }

    #[test]
    fn headers_no_run_matches_are_refused_in_one_line() {
        // the malformed-fault and campaign-`s` refusals are pinned through
        // `vds replay` in vds-cli's audit tests
        let micro = JournalHeader::new("micro", "smt-det", 2024, 8, 12);
        let abstract_run = JournalHeader::new("abstract", "smt-det", 2024, 8, 12);
        // an abstract header with no meta is the fault-free paper default
        let r = Recording::from_header(&abstract_run).unwrap();
        assert_eq!(
            r,
            Recording::Abstract(*r.params(), AbstractRun::paper_default())
        );
        let cases = [
            (
                micro
                    .clone()
                    .with_meta("fault", "crash")
                    .with_meta("fault_round", "3"),
                "journal header has a fault but no valid fault_round and fault_victim",
            ),
            (
                micro.with_meta("trials", "4"),
                r#"journal header has meta [("trials", "4")], but its run records []"#,
            ),
            (
                JournalHeader::new("vm", "smt-det", 2024, 8, 12).with_meta("program", "bogus"),
                "journal header names unknown program `bogus`",
            ),
            (
                abstract_run.clone().with_meta("fault_model", "per-round"),
                "journal header has malformed fault_model `per-round`",
            ),
            (
                abstract_run.clone().with_meta("alpha", "high"),
                "journal header has non-numeric alpha `high`",
            ),
            (
                abstract_run.with_meta("alpha", "0.4"),
                "abstract run needs s >= 1, alpha in [0.5, 1], beta >= 0 and p_correct \
                 in [0, 1] (header has s = 8, alpha = 0.4, beta = 0.1, p_correct = 0.5)",
            ),
            (
                JournalHeader::new("sweep", "smt-det", 2024, 8, 12),
                "cannot replay `sweep` journals \
                 (replayable backends: abstract, micro, campaign, vm)",
            ),
        ];
        for (h, msg) in cases {
            assert_eq!(Recording::from_header(&h), Err(msg.to_string()));
        }
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
