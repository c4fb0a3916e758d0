//! The duplex protocol, written once for every backend.
//!
//! The paper's recovery protocol (the Figures 2–3 flow charts, modelled
//! as data in [`crate::flowchart`]) is the same on every execution model:
//! run a round of the active pair, compare, then either commit (and
//! checkpoint every `s` rounds) or recover — a scheme-specific retry,
//! vote and roll-forward that ends in progress or in a rollback to the
//! checkpoint — and journal one flight-recorder entry per executed round.
//! [`Duplex`] owns that loop and all of its bookkeeping: round
//! accounting, the committed-round debit, the journal entry lifecycle,
//! fault-id stamping, outstanding-fault latency and the end-of-run
//! masked/escaped verdict. A [`Backend`] supplies only what differs
//! between execution models: executing a round, snapshotting and
//! restoring state, its scheme-specific recovery, its clock and costs,
//! its oracle, and its fail-safe stop rule.
//!
//! Dispatch is static (`Duplex<B, R>` is monomorphized per backend and
//! recorder), so the round path carries no virtual calls.
//!
//! Rounds run in **stretches**: one [`Backend::execute_until`] call runs
//! every round up to the first that does not match, or up to the nearest
//! bound that could end a run of matches — the checkpoint at the interval
//! end, the commit target, the livelock guard. The protocol books the
//! clean prefix in bulk and handles the stretch's last round exactly as
//! a lone round. A journaled run asks for one round per call, since every
//! round needs its own entry.

use crate::report::RunReport;
use crate::Scheme;
use vds_obs::journal::{Action, RoundEntry, Verdict};
use vds_obs::{obs_end_span, obs_span, Digest128, Record, SpanGuard};

/// What one executed normal round hands back to the protocol.
pub(crate) struct Round {
    /// The comparator's verdict.
    pub verdict: Verdict,
    /// Simulated time at the comparison: the journal entry's `sim_time`
    /// and the detection time of an outstanding fault.
    pub time: f64,
    /// The per-version digests the comparator computed, if any; `None`
    /// makes the protocol ask [`Backend::digests`] when it journals.
    pub digests: Option<(Digest128, Digest128)>,
    /// The whole processor stopped: volatile state is gone and only the
    /// stable-storage checkpoint survives, so the detection goes straight
    /// to a rollback without a vote.
    pub stopped: bool,
}

/// How a backend's scheme-specific recovery ended.
pub(crate) enum Recovery {
    /// The vote identified the faulty version; round `i` plus `progress`
    /// roll-forward rounds are committed.
    Recovered { progress: u32 },
    /// No majority: resort to rollback.
    Rollback,
}

/// A backend's fail-safe shutdown rule (the flow charts' terminal
/// state). The rules differ per backend because each bounds a different
/// failure: the abstract model's stochastic fault processes can thrash
/// between rollbacks forever, while the one-shot-fault micro and VM
/// backends only stall under a permanent fault.
pub(crate) enum StopRule {
    /// Shut down once consecutive rollbacks exceed the bound, and after
    /// `64·target + 100 000` executed rounds (livelock guard, saturating).
    Attempts { max_consecutive_rollbacks: u32 },
    /// Shut down after more than 64 consecutive driver iterations
    /// without committed progress. The count watches every round, so a
    /// backend under this rule is driven one round per call.
    Stall,
}

/// An execution model the protocol can drive.
pub(crate) trait Backend {
    /// Component name on the backend's obs spans.
    const COMPONENT: &'static str;
    /// Whether the backend records obs phase spans (the abstract backend
    /// draws its Figure 1 timeline instead).
    const SPANS: bool;
    /// Final architectural state handed back to callers.
    type State;

    /// Checkpoint interval `s` in rounds.
    fn interval(&self) -> u32;
    /// The fail-safe stop rule.
    fn stop_rule(&self) -> StopRule;
    /// Current simulated time.
    fn now(&self) -> f64;
    /// Execute interval rounds `i..=last` on the active pair (injecting
    /// any scheduled fault), charging each round's cost and comparing.
    /// Stops after the first round whose verdict is not a match, or
    /// after round `last`; returns how many rounds ran and the last
    /// one's outcome (every earlier round matched). A backend may run
    /// fewer rounds than asked, but at least one. The ledger is booked
    /// only after the call, so a backend whose rounds read it (fault
    /// tracking, committed counts) runs one round per call.
    fn execute_until<R: Record>(&mut self, l: &mut Ledger<R>, i: u32, last: u32) -> (u32, Round);
    /// Per-version digests for a journal entry whose round did not
    /// compute them.
    fn digests<R: Record>(&self, l: &Ledger<R>, i: u32) -> (Digest128, Digest128);
    /// The scheduler decision journalled with each entry.
    fn sched(&self) -> String;
    /// Charge a checkpoint and snapshot the state it saves.
    fn checkpoint<R: Record>(&mut self, l: &mut Ledger<R>);
    /// Scheme-specific recovery for a detection at round `i`.
    fn recover<R: Record>(&mut self, l: &mut Ledger<R>, i: u32) -> Recovery;
    /// Restore the checkpointed state after a rollback.
    fn restore(&mut self);
    /// The final state at end of run.
    fn state(&self) -> Self::State;
    /// Oracle check: is `state` the correct output after `committed`
    /// rounds? Classifies a never-detected fault as masked or escaped.
    fn output_correct(&self, state: &Self::State, committed: u64) -> bool;
    /// Backend-specific end-of-run exports.
    fn export<R: Record>(&mut self, _report: &mut RunReport, _rec: &mut R) {}
}

/// An injected fault no comparison has caught yet.
#[derive(Debug, Clone, Copy)]
struct Outstanding {
    /// [`Ledger::rounds_executed`] at injection.
    at_exec: u64,
    /// Simulated time at injection.
    time: f64,
    /// No live state changed, so the fault can never be detected.
    masked_on_arrival: bool,
    /// Journal fault id of the entry that records the injection.
    fault_id: u64,
}

/// The protocol's run accounting, lent to the backend on every call.
pub(crate) struct Ledger<R> {
    /// The run report.
    pub report: RunReport,
    /// The recorder.
    pub rec: R,
    /// Confirmed rounds since the last checkpoint (the paper's `i − 1` at
    /// detection time).
    pub rounds_since: u32,
    /// Executed normal rounds, never reset: the clock detection latency
    /// is measured on (one journal entry per executed round).
    rounds_executed: u64,
    consecutive_rollbacks: u32,
    /// Journal entry of the round in flight, finished once the driver
    /// has decided what the round led to.
    pending: Option<RoundEntry>,
    /// Canonical spec of the fault(s) injected in the round in flight.
    fault_note: Option<String>,
    /// Lane-local ordinal of the next fault-bearing journal entry — the
    /// forensics `fault_id`.
    next_fault_id: u64,
    outstanding: Option<Outstanding>,
}

impl<R: Record> Ledger<R> {
    /// Book `n` faults injected in the round in flight; `spec` names them
    /// on its journal entry (built only when the journal is on).
    pub fn inject(&mut self, n: u64, spec: impl FnOnce() -> String) {
        self.report.faults_injected += n;
        if self.rec.journal_enabled() {
            self.fault_note = Some(spec());
        }
    }

    /// Track the fault just injected at `time` until a comparison catches
    /// it or the run ends.
    pub fn track_fault(&mut self, time: f64, masked_on_arrival: bool) {
        self.outstanding = Some(Outstanding {
            at_exec: self.rounds_executed,
            time,
            masked_on_arrival,
            fault_id: self.next_fault_id,
        });
    }

    /// Credit a detection at `t` to the outstanding fault, closing its
    /// latency window.
    fn note_detection(&mut self, t: f64) {
        if let Some(o) = self.outstanding.take() {
            self.report.faults_detected += 1;
            self.report.detect_latency_rounds_sum += self.rounds_executed - o.at_exec;
            self.report.detect_latency_time_sum += t - o.time;
        }
    }

    fn action(&mut self, action: Action, rollforward: u32) {
        if let Some(p) = self.pending.as_mut() {
            p.action = action;
            p.rollforward = rollforward;
        }
    }

    /// Push the pending entry with the post-action committed count.
    fn finish(&mut self) {
        if let Some(mut p) = self.pending.take() {
            p.committed = self.report.committed_rounds;
            self.rec.journal_push(p);
        }
    }

    /// Debit rolled-back rounds. An underflow means a recovery path
    /// double-billed a rollback; clamping would silently corrupt every
    /// downstream aggregate, so it is logged and asserted in debug builds.
    fn debit(&mut self, lost: u64, cause: &str) {
        match self.report.committed_rounds.checked_sub(lost) {
            Some(v) => self.report.committed_rounds = v,
            None => {
                debug_assert!(
                    false,
                    "committed_rounds underflow: {} - {lost} during {cause}",
                    self.report.committed_rounds
                );
                vds_obs::log_error!(
                    "core.duplex",
                    "committed_rounds underflow: {} - {} during {}",
                    self.report.committed_rounds,
                    lost,
                    cause
                );
                self.report.committed_rounds = 0;
            }
        }
    }
}

/// Integral roll-forward window for a detection at round `i`: the
/// scheme's intent, floored and clamped at the checkpoint horizon `s`.
pub(crate) fn rollforward_window(scheme: Scheme, i: u32, s: u32) -> u32 {
    (scheme.rollforward_intent(i).floor() as u32).min(s - i)
}

/// The livelock guard of [`StopRule::Attempts`]: `64·target + 100 000`
/// executed rounds, saturating so that a huge target cannot wrap it.
fn livelock_guard(target: u64) -> u64 {
    target.saturating_mul(64).saturating_add(100_000)
}

/// One duplex run: a backend driven through the protocol.
pub(crate) struct Duplex<B, R> {
    b: B,
    l: Ledger<R>,
}

impl<B: Backend, R: Record> Duplex<B, R> {
    pub fn new(backend: B, rec: R) -> Self {
        Duplex {
            b: backend,
            l: Ledger {
                report: RunReport::default(),
                rec,
                rounds_since: 0,
                rounds_executed: 0,
                consecutive_rollbacks: 0,
                pending: None,
                fault_note: None,
                next_fault_id: 0,
                outstanding: None,
            },
        }
    }

    pub fn backend(&self) -> &B {
        &self.b
    }

    /// Drive the protocol until `target` rounds are committed or the
    /// stop rule shuts the run down; returns the report, the final state
    /// and the recorder.
    pub fn run(mut self, target: u64) -> (RunReport, B::State, R) {
        let rule = self.b.stop_rule();
        let max_attempts = livelock_guard(target);
        let (mut attempts, mut last_committed, mut stalled) = (0u64, 0u64, 0u32);
        while self.l.report.committed_rounds < target && !self.l.report.shutdown {
            let budget = match rule {
                StopRule::Attempts { .. } => {
                    if attempts >= max_attempts {
                        self.l.report.shutdown = true;
                        break;
                    }
                    // every clean round commits one round and costs one
                    // attempt, so a stretch cannot overrun either bound
                    (target - self.l.report.committed_rounds).min(max_attempts - attempts)
                }
                StopRule::Stall => 1,
            };
            attempts += self.step(budget);
            if let StopRule::Stall = rule {
                if self.l.report.committed_rounds > last_committed {
                    last_committed = self.l.report.committed_rounds;
                    stalled = 0;
                } else {
                    stalled += 1;
                    if stalled > 64 {
                        self.shutdown();
                        self.l.finish();
                        break;
                    }
                }
            }
            self.l.finish();
        }
        self.into_results()
    }

    /// The per-round driver that stretches replaced, kept as the test
    /// oracle of the stretch driver: one round per iteration, the
    /// livelock guard counted before each.
    #[cfg(test)]
    pub fn run_per_round(mut self, target: u64) -> (RunReport, B::State, R) {
        let rule = self.b.stop_rule();
        let max_attempts = livelock_guard(target);
        let (mut attempts, mut last_committed, mut stalled) = (0u64, 0u64, 0u32);
        while self.l.report.committed_rounds < target && !self.l.report.shutdown {
            if let StopRule::Attempts { .. } = rule {
                attempts += 1;
                if attempts > max_attempts {
                    self.l.report.shutdown = true;
                    break;
                }
            }
            self.step(1);
            if let StopRule::Stall = rule {
                if self.l.report.committed_rounds > last_committed {
                    last_committed = self.l.report.committed_rounds;
                    stalled = 0;
                } else {
                    stalled += 1;
                    if stalled > 64 {
                        self.shutdown();
                        self.l.finish();
                        break;
                    }
                }
            }
            self.l.finish();
        }
        self.into_results()
    }

    /// End of run: close the clock, classify a still-outstanding fault
    /// with the backend's oracle, and export the report and backend
    /// metrics.
    fn into_results(self) -> (RunReport, B::State, R) {
        let Duplex { mut b, mut l } = self;
        l.report.total_time = b.now();
        let state = b.state();
        if let Some(o) = l.outstanding.take() {
            let outcome =
                if o.masked_on_arrival || b.output_correct(&state, l.report.committed_rounds) {
                    l.report.faults_masked += 1;
                    "masked"
                } else {
                    l.report.faults_escaped += 1;
                    "escaped"
                };
            l.rec.journal_resolve_fault(o.fault_id, outcome);
        }
        l.report.export_metrics(&mut l.rec, "vds");
        b.export(&mut l.report, &mut l.rec);
        l.rec.rollup_spans();
        (l.report, state, l.rec)
    }

    /// One driver iteration: a stretch of at most `budget` normal rounds,
    /// then a checkpoint when the interval is full or a recovery on a
    /// detection. Returns the number of rounds executed.
    pub fn step(&mut self, budget: u64) -> u64 {
        let (n, detected) = self.round(budget);
        match detected {
            None => {
                if self.l.rounds_since >= self.b.interval() {
                    self.checkpoint();
                    self.l.action(Action::Checkpoint, 0);
                }
            }
            Some(i) => self.recover(i),
        }
        n
    }

    /// Execute and compare a stretch of at most `budget` rounds, ending at
    /// the interval's last round; returns the rounds executed and `Some(i)`
    /// when the last one's detection awaits recovery.
    fn round(&mut self, budget: u64) -> (u64, Option<u32>) {
        let first = self.l.rounds_since + 1;
        let len = if self.l.rec.journal_enabled() {
            1
        } else {
            let to_checkpoint = self.b.interval().saturating_sub(self.l.rounds_since);
            budget.min(u64::from(to_checkpoint)).max(1) as u32
        };
        self.l.rounds_executed += 1;
        let (n, r) = self.b.execute_until(&mut self.l, first, first + (len - 1));
        debug_assert!((1..=len).contains(&n), "stretch of {n} rounds, asked {len}");
        // the clean prefix: every round before the last matched
        let i = first + (n - 1);
        if n > 1 {
            let clean = n - 1;
            self.l.rounds_executed += u64::from(clean);
            self.l.rounds_since = i - 1;
            self.l.report.committed_rounds += u64::from(clean);
            self.l.consecutive_rollbacks = 0;
        }
        let n = u64::from(n);
        if r.verdict == Verdict::Match {
            self.l.rounds_since = i;
            self.l.report.committed_rounds += 1;
            self.l.consecutive_rollbacks = 0;
            self.stash(i, &r);
            return (n, None);
        }
        self.l.report.detections += 1;
        self.l.note_detection(r.time);
        self.stash(i, &r);
        if !r.stopped {
            return (n, Some(i));
        }
        self.l.report.processor_stops += 1;
        self.rollback(i, true);
        (n, None)
    }

    /// Stash round `i`'s journal entry; its action defaults to `commit`
    /// until the driver upgrades it.
    fn stash(&mut self, i: u32, r: &Round) {
        if !self.l.rec.journal_enabled() {
            return;
        }
        let (d1, d2) = r.digests.unwrap_or_else(|| self.b.digests(&self.l, i));
        let fault = self.l.fault_note.take();
        let fault_id = fault.as_ref().map(|_| {
            let id = self.l.next_fault_id;
            self.l.next_fault_id += 1;
            id
        });
        self.l.pending = Some(RoundEntry {
            seq: 0,
            lane: 0,
            round: u64::from(i),
            committed: 0,
            sim_time: r.time,
            d1,
            d2,
            verdict: r.verdict,
            sched: self.b.sched(),
            action: Action::Commit,
            rollforward: 0,
            fault,
            fault_id,
            fault_outcome: None,
        });
    }

    fn checkpoint(&mut self) {
        self.b.checkpoint(&mut self.l);
        self.l.rounds_since = 0;
        self.l.report.checkpoints += 1;
    }

    fn recover(&mut self, i: u32) {
        let start = self.b.now();
        let g = if B::SPANS {
            obs_span!(self.l.rec, B::COMPONENT, "recovery", start)
        } else {
            SpanGuard::inert()
        };
        match self.b.recover(&mut self.l, i) {
            Recovery::Recovered { progress } => {
                self.l.report.recoveries_ok += 1;
                self.l.rounds_since = i + progress;
                self.l.report.committed_rounds += 1 + u64::from(progress);
                self.l.consecutive_rollbacks = 0;
                self.l.action(Action::Recover, progress);
                if self.l.rounds_since >= self.b.interval() {
                    self.checkpoint();
                }
            }
            Recovery::Rollback => self.rollback(i, false),
        }
        let end = self.b.now();
        self.l.report.time_recovery += end - start;
        if B::SPANS {
            obs_end_span!(self.l.rec, g, end, "round" => i);
        }
    }

    /// Surrender the interval: every round since the checkpoint is lost.
    fn rollback(&mut self, i: u32, stopped: bool) {
        self.l.report.rollbacks += 1;
        let lost = i - 1;
        self.l
            .debit(u64::from(lost), if stopped { "stop" } else { "rollback" });
        self.l.rounds_since = 0;
        self.b.restore();
        self.l.consecutive_rollbacks += 1;
        match self.b.stop_rule() {
            StopRule::Attempts {
                max_consecutive_rollbacks,
            } if self.l.consecutive_rollbacks > max_consecutive_rollbacks => self.shutdown(),
            _ => self.l.action(Action::Rollback, 0),
        }
    }

    /// Fail-safe shutdown.
    fn shutdown(&mut self) {
        self.l.report.shutdown = true;
        self.l.action(Action::Shutdown, 0);
    }
}

/// Check a journaled run with one injected fault, detected and recovered
/// without a rollback: the journal carries the fault, a non-`Match`
/// verdict no earlier than the fault, and a `Recover` action on that
/// row whose roll-forward is the progress the report committed beyond
/// the rounds the journal executed.
#[cfg(test)]
pub(crate) fn assert_recovered_once(r: &RunReport, journal: &vds_obs::Journal) {
    assert_eq!(
        (
            r.faults_injected,
            r.detections,
            r.recoveries_ok,
            r.rollbacks
        ),
        (1, 1, 1, 0),
        "{r}"
    );
    let e = journal.entries();
    let faulted: Vec<usize> = (0..e.len()).filter(|&k| e[k].fault.is_some()).collect();
    let detected: Vec<usize> = (0..e.len())
        .filter(|&k| e[k].verdict != Verdict::Match)
        .collect();
    assert_eq!(faulted.len(), 1, "{e:?}");
    assert_eq!(detected.len(), 1, "{e:?}");
    let (f, d) = (faulted[0], detected[0]);
    assert!(f <= d, "detected before injected: {e:?}");
    assert_eq!(e[f].fault_id, Some(0));
    assert_eq!(e[d].action, Action::Recover, "{:?}", e[d]);
    let progress = r.committed_rounds - e.len() as u64;
    assert_eq!(u64::from(e[d].rollforward), progress, "{r}");
    assert_eq!(r.rollforward_hits, u64::from(progress > 0), "{r}");
    assert_eq!(e.last().map(|e| e.committed), Some(r.committed_rounds));
}

#[cfg(test)]
mod tests {
    use super::*;
    use vds_analytic::Params;
    use vds_obs::{digest_words128, NoopRecorder};

    #[test]
    fn engines_and_closed_forms_share_one_rollforward_rule() {
        for scheme in Scheme::ALL {
            for s in 1..=64 {
                let p = Params::with_beta(0.65, 0.1, s);
                for i in 1..=s {
                    let window = f64::from(rollforward_window(scheme, i, s));
                    let progress = scheme.progress(&p, i).floor();
                    assert_eq!(window, progress, "{scheme:?} s={s} i={i}");
                }
            }
        }
    }

    #[test]
    fn the_livelock_guard_saturates() {
        assert_eq!(livelock_guard(10), 100_640);
        // 64 · 2^58 used to wrap to 0, leaving a guard of 100 000 rounds
        assert_eq!(livelock_guard(1 << 58), u64::MAX);
        assert_eq!(livelock_guard(u64::MAX), u64::MAX);
    }

    /// A scripted backend that thrashes: rounds `1..s` match and round
    /// `s` stops the processor, so no interval is ever checkpointed. It
    /// runs at most `cap` rounds per call; its state is the number of
    /// rounds it executed.
    struct Thrash {
        s: u32,
        cap: u32,
        executed: u64,
    }

    impl Backend for Thrash {
        const COMPONENT: &'static str = "thrash";
        const SPANS: bool = false;
        type State = u64;

        fn interval(&self) -> u32 {
            self.s
        }

        fn stop_rule(&self) -> StopRule {
            StopRule::Attempts {
                max_consecutive_rollbacks: u32::MAX,
            }
        }

        fn now(&self) -> f64 {
            self.executed as f64
        }

        fn execute_until<R: Record>(
            &mut self,
            _: &mut Ledger<R>,
            i: u32,
            last: u32,
        ) -> (u32, Round) {
            let last = last.min(i.saturating_add(self.cap - 1));
            let mut round = i;
            loop {
                self.executed += 1;
                let stopped = round == self.s;
                if stopped || round >= last {
                    let r = Round {
                        verdict: if stopped {
                            Verdict::Hang
                        } else {
                            Verdict::Match
                        },
                        time: self.now(),
                        digests: None,
                        stopped,
                    };
                    return (round - i + 1, r);
                }
                round += 1;
            }
        }

        fn digests<R: Record>(&self, _: &Ledger<R>, i: u32) -> (Digest128, Digest128) {
            let d = digest_words128(&[i]);
            (d, d)
        }

        fn sched(&self) -> String {
            String::new()
        }

        fn checkpoint<R: Record>(&mut self, _: &mut Ledger<R>) {}

        fn recover<R: Record>(&mut self, _: &mut Ledger<R>, _: u32) -> Recovery {
            Recovery::Rollback
        }

        fn restore(&mut self) {}

        fn state(&self) -> u64 {
            self.executed
        }

        fn output_correct(&self, _: &u64, _: u64) -> bool {
            true
        }
    }

    #[test]
    fn the_livelock_guard_ends_a_thrashing_run_on_the_same_round() {
        for (s, cap) in [(9, u32::MAX), (9, 4), (1, 1), (64, 7), (64, u32::MAX)] {
            for target in [10u64, 100] {
                let drive = |per_round: bool| {
                    let d = Duplex::new(
                        Thrash {
                            s,
                            cap,
                            executed: 0,
                        },
                        NoopRecorder,
                    );
                    let (r, executed, _) = if per_round {
                        d.run_per_round(target)
                    } else {
                        d.run(target)
                    };
                    (format!("{r:?}"), executed)
                };
                let (report, executed) = drive(false);
                assert_eq!((report.clone(), executed), drive(true), "s={s} cap={cap}");
                if target >= u64::from(s) {
                    // commits never reach the target: only the guard ends the run
                    assert!(report.contains("shutdown: true"), "{report}");
                    assert_eq!(executed, livelock_guard(target), "s={s} cap={cap}");
                }
            }
        }
    }
}
