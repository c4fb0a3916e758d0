//! The abstract-timing VDS engine.
//!
//! Implements the paper's execution models exactly at the level its
//! equations live at: rounds of length `t`, context switches `c`,
//! comparisons `t'`, SMT co-run stretch `α`, checkpoint interval `s`.
//! Faults are stochastic (or placed) state corruptions; recovery follows
//! the §3.1 / §3.2 / §4 / §5 schemes including every edge in the
//! Figures 2–3 flow charts: fault during retry, fault during
//! roll-forward, resort to rollback, fail-safe shutdown.
//!
//! The integral nature of rounds is respected: a roll-forward of `i/4`
//! rounds really advances `⌊i/4⌋` (clamped at the checkpoint horizon) —
//! the paper explicitly waves this away ("we do not consider the detail
//! that i/2 may not be an integer"); validation tests account for it.

use crate::config::{FaultModel, Scheme, Victim};
use crate::duplex::{rollforward_window, Backend, Duplex, Ledger, Recovery, Round, StopRule};
use crate::report::RunReport;
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};
use vds_analytic::multithread::alpha_k;
use vds_analytic::{timing, Params};
use vds_desim::trace::SpanKind;
use vds_obs::journal::Verdict;
use vds_obs::{digest_words128, Digest128, NoopRecorder, Record, SpanRecord, Value};
use vds_predictor::{FaultPredictor, Suspect};

/// Configuration of an abstract VDS run.
#[derive(Debug, Clone)]
pub struct AbstractConfig {
    /// Timing parameters (the paper's `t`, `c`, `t'`, `α`, `s`).
    pub params: Params,
    /// Recovery scheme.
    pub scheme: Scheme,
    /// Probability of picking the fault-free state/version correctly in
    /// the probabilistic/predictive schemes when no predictor and no
    /// crash evidence is available (the paper's `p`).
    pub p_correct: f64,
    /// Time to write a checkpoint (the paper's equations ignore it; keep
    /// 0 to reproduce them, raise it for the E12 trade-off study).
    pub checkpoint_cost: f64,
    /// Time to restore state from the checkpoint on rollback.
    pub restore_cost: f64,
    /// Record the Figure 1 spans into [`RunReport::timeline`] — costs
    /// memory, off by default.
    pub record_timeline: bool,
    /// Fail-safe shutdown after this many consecutive rollbacks without
    /// progress (the flow charts' terminal state).
    pub max_consecutive_rollbacks: u32,
}

impl AbstractConfig {
    /// Defaults: paper-faithful zero overheads beyond `params`,
    /// `p = 0.5`, no timeline.
    pub fn new(params: Params, scheme: Scheme) -> Self {
        AbstractConfig {
            params,
            scheme,
            p_correct: 0.5,
            checkpoint_cost: 0.0,
            restore_cost: 0.0,
            record_timeline: false,
            max_consecutive_rollbacks: 32,
        }
    }
}

/// Measured facts about a single recovery incident (for per-incident
/// validation against Eqs. 6–12).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Incident {
    /// Round at which the fault was detected.
    pub i: u32,
    /// Wall time of the recovery (retry + roll-forward + vote).
    pub recovery_time: f64,
    /// Rounds of roll-forward progress that survived.
    pub progress: u32,
    /// Whether the majority vote succeeded (false ⇒ rollback).
    pub vote_ok: bool,
}

/// The abstract timing model as a duplex backend.
struct Abstract<'a, 'p> {
    cfg: &'a AbstractConfig,
    fm: FaultModel,
    predictor: Option<&'p mut dyn FaultPredictor>,
    rng: SmallRng,
    clock: f64,
    corrupt: [bool; 2],
    crash: Option<Victim>,
    oneshot_fired: bool,
    /// Figure 1 spans, kept only when `record_timeline` is set.
    timeline: Vec<SpanRecord>,
    /// Facts of the latest recovery incident.
    incident: Option<Incident>,
}

impl<'a, 'p> Abstract<'a, 'p> {
    fn new(
        cfg: &'a AbstractConfig,
        fm: FaultModel,
        seed: u64,
        predictor: Option<&'p mut dyn FaultPredictor>,
    ) -> Self {
        Abstract {
            cfg,
            fm,
            predictor,
            rng: SmallRng::seed_from_u64(seed),
            clock: 0.0,
            corrupt: [false, false],
            crash: None,
            oneshot_fired: false,
            timeline: Vec::new(),
            incident: None,
        }
    }

    /// Record a timeline span starting at `begin`. The label is a closure
    /// so hot call sites don't pay for `format!` allocations when no
    /// timeline is kept — it runs only when `record_timeline` is set.
    fn span(
        &mut self,
        lane: u32,
        begin: f64,
        dur: f64,
        kind: SpanKind,
        label: impl FnOnce() -> String,
    ) {
        if self.cfg.record_timeline {
            let label = label();
            let fields = if label.is_empty() {
                Vec::new()
            } else {
                vec![("label", Value::from(label))]
            };
            self.timeline.push(SpanRecord {
                begin,
                end: begin + dur,
                component: self.cfg.scheme.name(),
                name: kind.name(),
                tid: lane,
                fields,
            });
        }
    }

    fn is_smt(&self) -> bool {
        self.cfg.scheme != Scheme::Conventional
    }

    /// The Figure 1 spans of normal round `i` starting at `begin`: the
    /// versions' executions (and, conventionally, the context switches),
    /// then the comparison. Cold: runs only when a timeline is kept.
    #[cold]
    fn round_spans(&mut self, i: u32, begin: f64) {
        let p = self.cfg.params;
        let mut clock = begin;
        if self.is_smt() {
            let dur = 2.0 * p.alpha * p.t;
            self.span(0, clock, dur, SpanKind::Round, || format!("V1 R{i}"));
            self.span(1, clock, dur, SpanKind::Round, || format!("V2 R{i}"));
            clock += dur;
        } else {
            self.span(0, clock, p.t, SpanKind::Round, || format!("V1 R{i}"));
            clock += p.t;
            self.span(0, clock, p.c, SpanKind::ContextSwitch, String::new);
            clock += p.c;
            self.span(0, clock, p.t, SpanKind::Round, || format!("V2 R{i}"));
            clock += p.t;
            self.span(0, clock, p.c, SpanKind::ContextSwitch, String::new);
            clock += p.c;
        }
        self.span(0, clock, p.t_cmp, SpanKind::Compare, || "cmp".to_string());
    }

    /// Per-version-round corruption draw under the configured model.
    fn draw_fault(&mut self, rng: &mut SmallRng, victim: Victim, round_1based: u32) -> bool {
        match self.fm {
            FaultModel::None => false,
            FaultModel::OneShot { round, victim: v } => {
                let fire = !self.oneshot_fired && round == round_1based && v == victim;
                self.oneshot_fired |= fire;
                fire
            }
            FaultModel::PerRound { q }
            | FaultModel::PerRoundWithCrashes { q, .. }
            | FaultModel::Mission { q, .. } => rng.gen::<f64>() < q,
        }
    }

    /// Classify a drawn corruption: silent, crash (detected with
    /// evidence) or whole-processor stop (returns `true`).
    fn classify_corruption(&mut self, rng: &mut SmallRng, victim: Victim) -> bool {
        match self.fm {
            FaultModel::PerRoundWithCrashes { crash_fraction, .. } => {
                if rng.gen::<f64>() < crash_fraction {
                    self.crash = Some(victim);
                }
                false
            }
            FaultModel::Mission {
                crash_fraction,
                stop_fraction,
                ..
            } => {
                let r = rng.gen::<f64>();
                if r < stop_fraction {
                    true
                } else {
                    if r < stop_fraction + crash_fraction {
                        self.crash = Some(victim);
                    }
                    false
                }
            }
            _ => false,
        }
    }

    /// Corruption probability over `n` executed rounds of one version
    /// during recovery phases.
    fn recovery_corruption(&mut self, rounds: u32) -> bool {
        let q = match self.fm {
            FaultModel::PerRound { q }
            | FaultModel::PerRoundWithCrashes { q, .. }
            | FaultModel::Mission { q, .. } => q,
            _ => return false,
        };
        if rounds == 0 || q == 0.0 {
            return false;
        }
        let p_any = 1.0 - (1.0 - q).powi(rounds as i32);
        self.rng.gen::<f64>() < p_any
    }

    /// Recovery wall time of the configured scheme for a fault at round
    /// `i` (the retry + roll-forward window plus the vote).
    fn recovery_time(&self, i: u32) -> f64 {
        let p = &self.cfg.params;
        let i_f = f64::from(i);
        match self.cfg.scheme {
            Scheme::Conventional => timing::t1_corr(p, i),
            Scheme::SmtDeterministic | Scheme::SmtProbabilistic | Scheme::SmtPredictive => {
                timing::tht2_corr(p, i)
            }
            // `multithread::boosted_corr_time` groups the product as
            // `i·((k·α_k)·t)` and differs from this `((i·k)·α_k)·t` in
            // the last ulp at some (α, k, i). Both are pinned: this one
            // by the engine's clock, the closed form by `predicted_g`.
            Scheme::SmtBoosted3 => i_f * 3.0 * alpha_k(p.alpha, 3) * p.t + 2.0 * p.t_cmp,
            Scheme::SmtBoosted5 => i_f * 5.0 * alpha_k(p.alpha, 5) * p.t + 2.0 * p.t_cmp,
        }
    }

    /// Integral roll-forward progress attempted for a fault at round `i`.
    fn rollforward_rounds(&self, i: u32) -> u32 {
        rollforward_window(self.cfg.scheme, i, self.cfg.params.s)
    }

    /// Decide whether the pick hits the fault-free state. Crash evidence
    /// wins; otherwise an attached predictor, otherwise Bernoulli(p).
    fn pick_correct(&mut self, faulty: Victim) -> bool {
        if let Some(crashed) = self.crash {
            // evidence: the crashed version is the faulty one
            return crashed == faulty;
        }
        if let Some(pred) = self.predictor.as_mut() {
            let guess = pred.predict();
            let actual = match faulty {
                Victim::V1 => Suspect::V1,
                Victim::V2 => Suspect::V2,
            };
            pred.update(actual);
            return guess == actual;
        }
        self.rng.gen::<f64>() < self.cfg.p_correct
    }

    /// Resolve the roll-forward of a successful vote: returns the
    /// progress that survives.
    fn roll_forward<R: Record>(&mut self, l: &mut Ledger<R>, i: u32) -> u32 {
        let x = self.rollforward_rounds(i);
        if x == 0 {
            return 0;
        }
        // the faulty version (exactly one corrupt flag set)
        let faulty = if self.corrupt[0] {
            Victim::V1
        } else {
            Victim::V2
        };
        let scheme = self.cfg.scheme;
        let rf_exec_rounds = match scheme {
            Scheme::SmtDeterministic | Scheme::SmtBoosted5 => 4 * x,
            Scheme::SmtProbabilistic | Scheme::SmtBoosted3 => 2 * x,
            Scheme::SmtPredictive => x,
            Scheme::Conventional => 0,
        };
        let rf_corrupt = self.recovery_corruption(rf_exec_rounds);
        let hit = scheme.progress_guaranteed() || self.pick_correct(faulty);
        let r = &mut l.report;
        if rf_corrupt {
            r.faults_injected += 1;
        }
        if scheme.detects_during_rollforward() {
            if rf_corrupt {
                // the roll-forward comparison caught it
                r.rollforward_discards += 1;
                r.faults_detected += 1;
            } else if hit {
                r.rollforward_hits += 1;
                return x;
            } else {
                r.rollforward_misses += 1;
            }
            return 0;
        }
        // predictive: no comparisons during roll-forward
        if hit {
            r.rollforward_hits += 1;
            if rf_corrupt {
                // adopted, and nothing will ever detect it
                r.silent_corruptions += 1;
                r.faults_escaped += 1;
            }
            x
        } else {
            r.rollforward_misses += 1;
            if rf_corrupt {
                // the corrupted state was discarded unseen: the
                // corruption never entered the system
                r.faults_masked += 1;
            }
            0
        }
    }
}

impl Backend for Abstract<'_, '_> {
    const COMPONENT: &'static str = "vds";
    const SPANS: bool = false;
    type State = ();

    fn interval(&self) -> u32 {
        self.cfg.params.s
    }

    fn stop_rule(&self) -> StopRule {
        StopRule::Attempts {
            max_consecutive_rollbacks: self.cfg.max_consecutive_rollbacks,
        }
    }

    fn now(&self) -> f64 {
        self.clock
    }

    /// The stretch loop: the clock, normal time and RNG stay in locals,
    /// and each round performs the same float operations in the same
    /// order as a lone round, with the same draw order (V1 draw, V1
    /// classify, V2 draw, V2 classify). Timeline spans sit on cold
    /// branches.
    fn execute_until<R: Record>(&mut self, l: &mut Ledger<R>, i: u32, last: u32) -> (u32, Round) {
        // recovery and rollback always leave both versions clean, so a
        // round is a detection exactly when it draws a fault
        debug_assert!(self.corrupt == [false, false] && self.crash.is_none());
        let p = self.cfg.params;
        let smt = self.is_smt();
        let dur = 2.0 * p.alpha * p.t;
        let mut clock = self.clock;
        let mut time_normal = l.report.time_normal;
        let mut rng = self.rng.clone();
        let mut round = i;
        let (stopped, hit) = loop {
            let start = clock;
            if self.cfg.record_timeline {
                self.round_spans(round, start);
            }
            if smt {
                clock += dur;
            } else {
                clock += p.t;
                clock += p.c;
                clock += p.t;
                clock += p.c;
            }
            // fault draws: each version-round is exposed independently
            let mut stopped = false;
            let mut hit = [false, false];
            for v in [Victim::V1, Victim::V2] {
                if self.draw_fault(&mut rng, v, round) {
                    self.corrupt[v.index()] = true;
                    stopped |= self.classify_corruption(&mut rng, v);
                    hit[v.index()] = true;
                }
            }
            clock += p.t_cmp;
            time_normal += clock - start;
            if hit != [false, false] {
                break (stopped, hit);
            }
            if round >= last {
                break (false, hit);
            }
            round += 1;
        };
        self.clock = clock;
        self.rng = rng;
        l.report.time_normal = time_normal;
        let ran = round - i + 1;

        let drawn = u64::from(hit[0]) + u64::from(hit[1]);
        if drawn > 0 {
            // canonical fault note, e.g. `corrupt@v1`, `crash@v2`, `stop@v1+v2`
            let crash = self.crash.is_some();
            l.inject(drawn, || {
                let kind = if stopped {
                    "stop"
                } else if crash {
                    "crash"
                } else {
                    "corrupt"
                };
                let victims = match hit {
                    [true, true] => "v1+v2",
                    [true, false] => "v1",
                    _ => "v2",
                };
                format!("{kind}@{victims}")
            });
            // every corruption drawn in a normal round is caught by this
            // round's own comparison (or the stop watchdog): zero-latency
            // detection in both the round and sim-time denominations
            l.report.faults_detected += drawn;
        }

        let verdict = if stopped {
            Verdict::Hang
        } else if self.crash.is_some() {
            Verdict::Trap
        } else if self.corrupt[0] || self.corrupt[1] {
            Verdict::Mismatch
        } else {
            Verdict::Match
        };
        let r = Round {
            verdict,
            time: clock,
            digests: None,
            stopped,
        };
        (ran, r)
    }

    /// The abstract engine has no architectural state to hash, so
    /// per-version digests are synthesised from the versions' logical
    /// round state (round, committed count, corruption) — fault-free
    /// versions agree, a corrupted version diverges, exactly like the
    /// micro digests.
    fn digests<R: Record>(&self, l: &Ledger<R>, i: u32) -> (Digest128, Digest128) {
        let committed = l.report.committed_rounds;
        let dig = |slot: u32, corrupt: bool| {
            digest_words128(&[
                i,
                committed as u32,
                (committed >> 32) as u32,
                if corrupt { slot + 1 } else { 0 },
            ])
        };
        (dig(0, self.corrupt[0]), dig(1, self.corrupt[1]))
    }

    fn sched(&self) -> String {
        let kind = if self.is_smt() {
            "coschedule"
        } else {
            "alternate"
        };
        format!("{kind}[v1,v2]")
    }

    fn checkpoint<R: Record>(&mut self, l: &mut Ledger<R>) {
        let start = self.clock;
        self.span(
            0,
            start,
            self.cfg.checkpoint_cost,
            SpanKind::Checkpoint,
            || "ckpt".to_string(),
        );
        self.clock += self.cfg.checkpoint_cost;
        l.report.time_checkpoint += self.clock - start;
    }

    fn recover<R: Record>(&mut self, l: &mut Ledger<R>, i: u32) -> Recovery {
        let rec_time = self.recovery_time(i);
        let start = self.clock;
        self.span(0, start, rec_time, SpanKind::Retry, || {
            format!("V3 R1..R{i}")
        });
        if self.rollforward_rounds(i) > 0 {
            // A zero-length window (⌊i/4⌋ = 0 for i < 4, or i = s) is pure
            // stop-and-retry: the second hardware thread has nothing to
            // execute, so no roll-forward appears on the timeline.
            self.span(1, start, rec_time, SpanKind::RollForward, || {
                "roll-forward".to_string()
            });
        }
        self.clock += rec_time;
        // (vote time is part of rec_time's 2t'; span is illustrative)
        self.span(0, self.clock, self.cfg.params.t_cmp, SpanKind::Vote, || {
            "vote".to_string()
        });

        // does a further fault hit the retry (V3 executes i rounds)?
        let retry_corrupt = self.recovery_corruption(i);
        if retry_corrupt {
            // a corrupted retry always fails the majority vote below —
            // the fault is detected by the vote itself
            l.report.faults_injected += 1;
            l.report.faults_detected += 1;
        }
        // three different states (or two corrupt versions): no majority
        let vote_ok = !(retry_corrupt || (self.corrupt[0] && self.corrupt[1]));
        let progress = if vote_ok {
            let progress = self.roll_forward(l, i);
            self.corrupt = [false, false];
            self.crash = None;
            progress
        } else {
            0
        };
        self.incident = Some(Incident {
            i,
            recovery_time: rec_time,
            progress,
            vote_ok,
        });
        if vote_ok {
            Recovery::Recovered { progress }
        } else {
            Recovery::Rollback
        }
    }

    /// Volatile state is lost; only the stable-storage checkpoint
    /// survives.
    fn restore(&mut self) {
        self.corrupt = [false, false];
        self.crash = None;
        self.clock += self.cfg.restore_cost;
    }

    fn state(&self) {}

    /// Abstract faults are all caught or classified where they strike;
    /// none is ever left outstanding for the oracle.
    fn output_correct(&self, _: &(), _: u64) -> bool {
        true
    }

    fn export<R: Record>(&mut self, report: &mut RunReport, rec: &mut R) {
        if self.cfg.record_timeline {
            if rec.is_active() {
                for s in &self.timeline {
                    rec.record_span(s.clone());
                }
            }
            report.timeline = Some(std::mem::take(&mut self.timeline));
        }
        crate::conformance::export_metrics(rec, "vds", self.cfg, report);
    }
}

/// Run a VDS until `target_rounds` rounds are committed (or a fail-safe
/// shutdown occurs).
pub fn run(
    cfg: &AbstractConfig,
    fault_model: FaultModel,
    target_rounds: u64,
    seed: u64,
) -> RunReport {
    run_with_predictor(cfg, fault_model, target_rounds, seed, None)
}

/// [`run`], recording into `rec`: the report mirrored under `vds.*` with
/// per-phase simulated-time gauges, and — when the recorder's
/// flight-recorder journal is enabled — one journal entry per executed
/// round with synthetic per-version digests.
pub fn run_with_recorder<R: Record>(
    cfg: &AbstractConfig,
    fault_model: FaultModel,
    target_rounds: u64,
    seed: u64,
    rec: R,
) -> (RunReport, R) {
    run_engine(cfg, fault_model, target_rounds, seed, None, rec)
}

/// [`run`], with an optional fault-version predictor supplying the picks
/// of the probabilistic/predictive schemes.
pub fn run_with_predictor(
    cfg: &AbstractConfig,
    fault_model: FaultModel,
    target_rounds: u64,
    seed: u64,
    predictor: Option<&mut dyn FaultPredictor>,
) -> RunReport {
    // Monomorphized against the zero-sized sink: the uninstrumented
    // entry points pay nothing for the instrumentation.
    let rec = NoopRecorder;
    run_engine(cfg, fault_model, target_rounds, seed, predictor, rec).0
}

fn run_engine<R: Record>(
    cfg: &AbstractConfig,
    fault_model: FaultModel,
    target_rounds: u64,
    seed: u64,
    predictor: Option<&mut dyn FaultPredictor>,
    rec: R,
) -> (RunReport, R) {
    cfg.params.validate();
    assert!((0.0..=1.0).contains(&cfg.p_correct));
    let backend = Abstract::new(cfg, fault_model, seed, predictor);
    let (report, (), rec) = Duplex::new(backend, rec).run(target_rounds);
    (report, rec)
}

/// Simulate exactly one recovery incident at round `i` (victim fixed,
/// pick forced if given) and return its measured facts. Used by the
/// per-incident validation of Eqs. (6)–(12).
pub fn simulate_incident(
    cfg: &AbstractConfig,
    i: u32,
    victim: Victim,
    force_pick_correct: Option<bool>,
) -> Incident {
    assert!(i >= 1 && i <= cfg.params.s);
    let mut cfg = cfg.clone();
    if let Some(hit) = force_pick_correct {
        cfg.p_correct = if hit { 1.0 } else { 0.0 };
    }
    let fm = FaultModel::OneShot { round: i, victim };
    let mut d = Duplex::new(Abstract::new(&cfg, fm, 1, None), NoopRecorder);
    // advance through the fault-free prefix up to the incident
    loop {
        d.step(u64::MAX);
        if let Some(inc) = d.backend().incident {
            assert_eq!(inc.i, i, "one-shot fault must be detected at round i");
            return inc;
        }
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recording::{recorded, Recording};
    use vds_analytic::schemes;
    use vds_obs::journal::Action as JournalAction;
    use vds_obs::journal::Verdict as JournalVerdict;
    use vds_obs::Recorder;

    fn cfg(scheme: Scheme) -> AbstractConfig {
        AbstractConfig::new(Params::paper_default(), scheme)
    }

    // ---- normal processing (Eq. 1, 3, 4) ----

    #[test]
    fn fault_free_round_times_match_equations() {
        let p = Params::paper_default();
        let n = 40;
        let conv = run(&cfg(Scheme::Conventional), FaultModel::None, n, 1);
        let smt = run(&cfg(Scheme::SmtProbabilistic), FaultModel::None, n, 1);
        assert_eq!(conv.committed_rounds, n);
        let t1 = conv.total_time / n as f64;
        let t2 = smt.total_time / n as f64;
        assert!((t1 - timing::t1_round(&p)).abs() < 1e-9, "conv {t1}");
        assert!((t2 - timing::tht2_round(&p)).abs() < 1e-9, "smt {t2}");
        // Eq. (4)
        let g = t1 / t2;
        assert!((g - timing::g_round_exact(&p)).abs() < 1e-9);
    }

    #[test]
    fn checkpoints_every_s_rounds() {
        let mut c = cfg(Scheme::Conventional);
        c.checkpoint_cost = 1.0;
        let r = run(&c, FaultModel::None, 100, 1);
        assert_eq!(r.checkpoints, 5); // s = 20
        assert!((r.time_checkpoint - 5.0).abs() < 1e-9);
    }

    // ---- single incidents (Eqs. 2, 5, 6, 9, 10, 11) ----

    #[test]
    fn conventional_recovery_time_is_eq2() {
        let p = Params::paper_default();
        for i in [1u32, 7, 20] {
            let inc = simulate_incident(&cfg(Scheme::Conventional), i, Victim::V1, None);
            assert!(
                (inc.recovery_time - timing::t1_corr(&p, i)).abs() < 1e-9,
                "i={i}"
            );
            assert!(inc.vote_ok);
            assert_eq!(inc.progress, 0);
        }
    }

    #[test]
    fn recovery_times_are_the_closed_forms() {
        // On param-sweep's α axis at s = 40, the conventional and 2-thread
        // arms are Eqs. 2 and 5 bit for bit. The boosted arms group
        // `i·k·α_k·t` unlike `multithread::boosted_corr_time` and split
        // from it in the last ulp at some points; both are pinned.
        let mut split = 0;
        for alpha in [0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9] {
            let params = Params::with_beta(alpha, 0.1, 40);
            for scheme in Scheme::ALL {
                let c = AbstractConfig::new(params, scheme);
                let engine = Abstract::new(&c, FaultModel::None, 0, None);
                for i in 1..=40 {
                    let (got, name) = (engine.recovery_time(i), scheme.name());
                    let want = schemes::corr_time(name, &params, i).unwrap();
                    if scheme.threads_needed() <= 2 {
                        assert_eq!(got, want, "{name} α={alpha} i={i}");
                    }
                    assert!((got - want).abs() < 1e-12, "{name} α={alpha} i={i}");
                    split += usize::from(got != want);
                }
            }
        }
        assert!(split > 0, "no ulp split left: use the closed form");
    }

    #[test]
    fn smt_recovery_time_is_eq5() {
        let p = Params::paper_default();
        for i in [1u32, 7, 20] {
            let inc = simulate_incident(&cfg(Scheme::SmtDeterministic), i, Victim::V2, None);
            assert!(
                (inc.recovery_time - timing::tht2_corr(&p, i)).abs() < 1e-9,
                "i={i}"
            );
        }
    }

    #[test]
    fn deterministic_progress_is_quarter_clamped() {
        // s = 20: i=8 → 2; i=18 → min(4, 2) = 2; i=20 → 0; i=3 → 0
        for (i, want) in [(8u32, 2u32), (18, 2), (20, 0), (3, 0), (16, 4)] {
            let inc = simulate_incident(&cfg(Scheme::SmtDeterministic), i, Victim::V1, None);
            assert_eq!(inc.progress, want, "i={i}");
        }
    }

    #[test]
    fn early_round_recovery_is_pure_stop_and_retry() {
        // ⌊i/4⌋ = 0 for i ∈ {1,2,3} (deterministic) and ⌊i/2⌋ = 0 for
        // i = 1 (probabilistic): the roll-forward window has zero length,
        // so recovery is pure stop-and-retry — no hits, no misses, no
        // discards, and nothing on the second hardware thread's timeline.
        let cases: [(Scheme, &[u32]); 2] = [
            (Scheme::SmtDeterministic, &[1, 2, 3]),
            (Scheme::SmtProbabilistic, &[1]),
        ];
        for (scheme, rounds) in cases {
            for &i in rounds {
                let inc = simulate_incident(&cfg(scheme), i, Victim::V1, None);
                assert_eq!(inc.progress, 0, "{scheme:?} i={i}");
                assert!(inc.vote_ok, "{scheme:?} i={i}");
                let mut c = cfg(scheme);
                c.record_timeline = true;
                let fm = FaultModel::OneShot {
                    round: i,
                    victim: Victim::V2,
                };
                let r = run(&c, fm, 30, 1);
                assert_eq!(r.rollforward_hits, 0, "{scheme:?} i={i}: {r}");
                assert_eq!(r.rollforward_misses, 0, "{scheme:?} i={i}: {r}");
                assert_eq!(r.rollforward_discards, 0, "{scheme:?} i={i}: {r}");
                assert_eq!(r.detections, 1, "{scheme:?} i={i}: {r}");
                assert_eq!(r.recoveries_ok, 1, "{scheme:?} i={i}: {r}");
                let tl = r.timeline.expect("timeline requested");
                assert!(
                    !tl.iter().any(|s| s.name == SpanKind::RollForward.name()),
                    "{scheme:?} i={i}: zero-length window must not record a \
                     roll-forward span"
                );
            }
        }
        // sanity: a non-zero window still records the roll-forward span
        let mut c = cfg(Scheme::SmtDeterministic);
        c.record_timeline = true;
        let r = run(
            &c,
            FaultModel::OneShot {
                round: 8,
                victim: Victim::V2,
            },
            30,
            1,
        );
        assert!(r
            .timeline
            .unwrap()
            .iter()
            .any(|s| s.name == SpanKind::RollForward.name()));
    }

    #[test]
    fn probabilistic_progress_depends_on_pick() {
        let hit = simulate_incident(&cfg(Scheme::SmtProbabilistic), 10, Victim::V1, Some(true));
        assert_eq!(hit.progress, 5);
        let miss = simulate_incident(&cfg(Scheme::SmtProbabilistic), 10, Victim::V1, Some(false));
        assert_eq!(miss.progress, 0);
        // same wall time either way (Eq. 5 doesn't depend on the pick)
        assert_eq!(hit.recovery_time, miss.recovery_time);
    }

    #[test]
    fn predictive_progress_is_full_i_clamped() {
        for (i, want) in [(5u32, 5u32), (10, 10), (14, 6), (20, 0)] {
            let inc = simulate_incident(&cfg(Scheme::SmtPredictive), i, Victim::V2, Some(true));
            assert_eq!(inc.progress, want, "i={i}");
        }
        let miss = simulate_incident(&cfg(Scheme::SmtPredictive), 10, Victim::V2, Some(false));
        assert_eq!(miss.progress, 0);
    }

    #[test]
    fn measured_incident_gain_matches_eq10_and_eq11() {
        // G_hit(i) = (T1_corr + progress·T1_round) / THT2_corr with
        // integral progress; compare to the analytic forms evaluated with
        // the same integral progress.
        let p = Params::paper_default();
        for i in 1..=20u32 {
            let inc = simulate_incident(&cfg(Scheme::SmtPredictive), i, Victim::V1, Some(true));
            let g_meas = (timing::t1_corr(&p, i) + f64::from(inc.progress) * timing::t1_round(&p))
                / inc.recovery_time;
            let x = f64::from(i).min(f64::from(p.s - i)).floor();
            let g_expect =
                (timing::t1_corr(&p, i) + x * timing::t1_round(&p)) / timing::tht2_corr(&p, i);
            assert!((g_meas - g_expect).abs() < 1e-9, "i={i}");
            // miss: Eq. (11)
            let miss = simulate_incident(&cfg(Scheme::SmtPredictive), i, Victim::V1, Some(false));
            let l_meas = timing::t1_corr(&p, i) / miss.recovery_time;
            let l_expect = vds_analytic::predictive::l_miss_exact(&p, i);
            assert!((l_meas - l_expect).abs() < 1e-9, "i={i} miss");
        }
    }

    // ---- long runs ----

    #[test]
    fn fault_free_long_run_throughputs_ratio_is_g_round() {
        let p = Params::paper_default();
        let n = 1000;
        let conv = run(&cfg(Scheme::Conventional), FaultModel::None, n, 3);
        let smt = run(&cfg(Scheme::SmtPredictive), FaultModel::None, n, 3);
        let ratio = smt.throughput() / conv.throughput();
        assert!((ratio - timing::g_round_exact(&p)).abs() < 1e-6);
    }

    #[test]
    fn faulty_run_recovers_and_completes() {
        let r = run(
            &cfg(Scheme::SmtProbabilistic),
            FaultModel::PerRound { q: 0.02 },
            2_000,
            7,
        );
        assert_eq!(r.committed_rounds, 2_000);
        assert!(r.faults_injected > 20, "faults={}", r.faults_injected);
        assert!(r.detections > 0);
        assert!(r.recoveries_ok > 0);
        assert!(!r.shutdown);
        assert!(r.time_recovery > 0.0);
        // lifecycle conservation: every injected fault is classified
        assert_eq!(
            r.faults_detected + r.faults_masked + r.faults_escaped,
            r.faults_injected,
            "{r}"
        );
    }

    #[test]
    fn detecting_schemes_have_no_silent_corruptions() {
        for scheme in [
            Scheme::Conventional,
            Scheme::SmtDeterministic,
            Scheme::SmtProbabilistic,
            Scheme::SmtBoosted3,
            Scheme::SmtBoosted5,
        ] {
            let r = run(&cfg(scheme), FaultModel::PerRound { q: 0.05 }, 500, 11);
            assert_eq!(r.silent_corruptions, 0, "{:?}", scheme);
            // detecting schemes never let a fault escape, and every
            // injected fault ends up in exactly one lifecycle bucket
            assert_eq!(r.faults_escaped, 0, "{:?}", scheme);
            assert_eq!(
                r.faults_detected + r.faults_masked + r.faults_escaped,
                r.faults_injected,
                "{scheme:?}: {r}"
            );
        }
    }

    #[test]
    fn predictive_scheme_can_silently_adopt_under_heavy_faults() {
        let r = run(
            &cfg(Scheme::SmtPredictive),
            FaultModel::PerRound { q: 0.08 },
            5_000,
            13,
        );
        assert!(
            r.silent_corruptions > 0,
            "expected some silent adoptions: {r}"
        );
        // silent adoptions are exactly the escaped class here
        assert_eq!(r.faults_escaped, r.silent_corruptions, "{r}");
        assert_eq!(
            r.faults_detected + r.faults_masked + r.faults_escaped,
            r.faults_injected,
            "{r}"
        );
    }

    #[test]
    fn double_faults_force_rollback() {
        // q high enough that both versions get corrupted in one round
        // reasonably often, but below the regime where consecutive
        // rollbacks can trip the fail-safe shutdown for unlucky seeds
        let r = run(
            &cfg(Scheme::SmtDeterministic),
            FaultModel::PerRound { q: 0.15 },
            500,
            17,
        );
        assert!(r.rollbacks > 0, "{r}");
        assert_eq!(r.committed_rounds, 500);
    }

    #[test]
    fn crash_evidence_makes_predictive_picks_perfect() {
        let mut c = cfg(Scheme::SmtPredictive);
        c.p_correct = 0.0; // without evidence, every pick would miss
        let r = run(
            &c,
            FaultModel::PerRoundWithCrashes {
                q: 0.03,
                crash_fraction: 1.0,
            },
            2_000,
            19,
        );
        assert!(r.rollforward_hits > 0, "{r}");
        assert_eq!(r.rollforward_misses, 0, "evidence never misses: {r}");
    }

    #[test]
    fn predictor_hook_drives_picks() {
        use vds_predictor::predictors::LastOutcome;
        // faults always hit V2; last-outcome converges to predicting V2
        let mut pred = LastOutcome::default();
        let mut c = cfg(Scheme::SmtPredictive);
        c.p_correct = 0.0; // would always miss without the predictor
        let mut total_hits = 0;
        let mut total = 0;
        // repeated one-shot incidents, predictor persists across runs
        for k in 0..50 {
            let r = run_with_predictor(
                &c,
                FaultModel::OneShot {
                    round: 5,
                    victim: Victim::V2,
                },
                30,
                k,
                Some(&mut pred),
            );
            total_hits += r.rollforward_hits;
            total += r.rollforward_hits + r.rollforward_misses;
        }
        assert!(total >= 50);
        assert!(
            total_hits as f64 / total as f64 > 0.9,
            "hits {total_hits}/{total}"
        );
    }

    #[test]
    fn shutdown_after_persistent_rollbacks() {
        let mut c = cfg(Scheme::Conventional);
        c.max_consecutive_rollbacks = 3;
        // q = 0.9: almost every round double-faults, votes keep failing
        let r = run(&c, FaultModel::PerRound { q: 0.9 }, 10_000, 23);
        assert!(r.shutdown, "{r}");
        assert!(r.committed_rounds < 10_000);
    }

    #[test]
    fn timeline_records_figure1_shape() {
        let mut c = cfg(Scheme::SmtProbabilistic);
        c.record_timeline = true;
        let r = run(
            &c,
            FaultModel::OneShot {
                round: 4,
                victim: Victim::V2,
            },
            10,
            1,
        );
        let tl = r.timeline.expect("timeline requested");
        let lanes = |tl: &[SpanRecord]| tl.iter().map(|s| s.tid + 1).max();
        assert_eq!(lanes(&tl), Some(2), "SMT timeline has two hardware threads");
        assert!(tl.iter().all(|s| s.component == "smt-prob"));
        let art = vds_desim::trace::render_ascii(&tl, 80);
        assert!(art.contains("T0"));
        assert!(art.contains("r"), "retry visible: \n{art}");
        // conventional: one lane
        let mut cc = cfg(Scheme::Conventional);
        cc.record_timeline = true;
        let rc = run(&cc, FaultModel::None, 5, 1);
        assert_eq!(lanes(&rc.timeline.unwrap()), Some(1));
    }

    #[test]
    fn processor_stops_roll_back_from_stable_storage() {
        let r = run(
            &cfg(Scheme::SmtProbabilistic),
            FaultModel::Mission {
                q: 0.02,
                crash_fraction: 0.2,
                stop_fraction: 0.3,
            },
            3_000,
            31,
        );
        assert_eq!(r.committed_rounds, 3_000);
        assert!(r.processor_stops > 0, "{r}");
        assert!(r.rollbacks >= r.processor_stops, "{r}");
        // the invariant detections = recoveries + rollbacks still holds
        assert_eq!(r.detections, r.recoveries_ok + r.rollbacks);
    }

    #[test]
    fn stop_storm_forces_failsafe_shutdown() {
        let mut c = cfg(Scheme::Conventional);
        c.max_consecutive_rollbacks = 4;
        let r = run(
            &c,
            FaultModel::Mission {
                q: 0.95,
                crash_fraction: 0.0,
                stop_fraction: 1.0,
            },
            1_000,
            37,
        );
        assert!(r.shutdown, "{r}");
    }

    #[test]
    fn recorded_run_mirrors_report_and_journals_the_recovery() {
        let c = cfg(Scheme::SmtProbabilistic);
        let fm = FaultModel::PerRound { q: 0.05 };
        let (r, rec) = run_with_recorder(&c, fm, 200, 5, Recorder::new());
        let reg = rec.registry();
        assert_eq!(reg.counter("vds.committed_rounds"), r.committed_rounds);
        assert_eq!(reg.counter("vds.detections"), r.detections);
        assert_eq!(reg.counter("vds.checkpoints"), r.checkpoints);
        assert_eq!(reg.gauge_value("vds.time.total"), Some(r.total_time));
        // plain run and recorded run agree on the simulation itself
        let plain = run(&c, fm, 200, 5);
        assert_eq!(plain.total_time, r.total_time);
        assert_eq!(plain.committed_rounds, r.committed_rounds);
        // and two recorded runs export byte-identical metrics
        let (_, rec2) = run_with_recorder(&c, fm, 200, 5, Recorder::new());
        assert_eq!(rec.registry().to_csv(), rec2.registry().to_csv());
        assert_eq!(rec.spans().to_chrome_json(), rec2.spans().to_chrome_json());
        // one detected fault: the journal carries it and its recovery
        let one = FaultModel::OneShot {
            round: 4,
            victim: Victim::V2,
        };
        let (r, rec) = recorded(&Recording::abstract_run(&c, one, 5, 30).unwrap());
        crate::duplex::assert_recovered_once(&r, rec.journal());
    }

    #[test]
    fn runs_are_deterministic() {
        let c = cfg(Scheme::SmtProbabilistic);
        let a = run(&c, FaultModel::PerRound { q: 0.05 }, 500, 99);
        let b = run(&c, FaultModel::PerRound { q: 0.05 }, 500, 99);
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.faults_injected, b.faults_injected);
        assert_eq!(a.rollforward_hits, b.rollforward_hits);
    }

    #[test]
    fn journaled_run_records_every_executed_round() {
        let c = cfg(Scheme::SmtProbabilistic);
        let fm = FaultModel::PerRound { q: 0.05 };
        let journaled = || recorded(&Recording::abstract_run(&c, fm, 5, 200).unwrap());
        let (r, rec) = journaled();
        let j = rec.journal();
        assert!(r.detections > 0, "fixture must exercise recovery: {r}");
        assert!(!j.is_empty());
        // every executed round got exactly one entry; committed counts only
        // drop across rollbacks, and the last one matches the report
        let mut last_committed = 0;
        for e in j.entries() {
            if e.committed < last_committed {
                assert!(
                    matches!(e.action, JournalAction::Rollback | JournalAction::Shutdown),
                    "{e:?}"
                );
            }
            last_committed = e.committed;
            assert_eq!(e.lane, 0);
        }
        assert_eq!(last_committed, r.committed_rounds);
        assert_eq!(j.divergences(), r.detections + r.processor_stops);
        // a fault-free matching round has agreeing synthetic digests; a
        // mismatch entry has diverging ones
        let clean = j
            .entries()
            .iter()
            .find(|e| e.verdict == JournalVerdict::Match)
            .unwrap();
        assert_eq!(clean.d1, clean.d2);
        let bad = j
            .entries()
            .iter()
            .find(|e| e.verdict == JournalVerdict::Mismatch)
            .unwrap();
        assert_ne!(bad.d1, bad.d2);
        assert!(bad.fault.is_some());
        assert!(matches!(
            bad.action,
            JournalAction::Recover | JournalAction::Rollback
        ));
        // fault-bearing entries carry consecutive lane-local fault ids
        let ids: Vec<u64> = j
            .entries()
            .iter()
            .filter(|e| e.fault.is_some())
            .map(|e| e.fault_id.expect("fault entry has an id"))
            .collect();
        assert!(!ids.is_empty());
        assert_eq!(ids, (0..ids.len() as u64).collect::<Vec<_>>());
        // forensics over the journal sees every fault event as detected
        // in its own round (zero latency), with nothing escaped
        let tracker = vds_obs::ForensicsTracker::for_journal(j).unwrap();
        let rep = tracker.report();
        assert_eq!(rep.injected, ids.len() as u64);
        assert_eq!(rep.detected, ids.len() as u64);
        assert!(rep.escapes.is_empty());
        // byte-identical across runs, and round-trips through JSONL
        let (_, rec2) = journaled();
        assert_eq!(j.to_jsonl(), rec2.journal().to_jsonl());
        let parsed = vds_obs::Journal::from_jsonl(&j.to_jsonl()).unwrap();
        assert_eq!(&parsed, j);
        assert!(parsed.first_divergence(rec2.journal()).is_none());
        // disabled journal stays empty
        let (_, plain) = run_with_recorder(&c, fm, 200, 5, Recorder::new());
        assert!(plain.journal().is_empty());
    }
}
