//! The micro-architectural VDS engine.
//!
//! Everything the abstract backend parameterises is *executed* here:
//! versions are diversified programs (`vds-diversity`) over the workload
//! of [`crate::workload`], running as OS processes (`vds-sched`) on the
//! cycle-level SMT core (`vds-smtsim`); state comparison uses digests
//! (`vds-checkpoint`); faults are injected with `vds-fault`. Time is
//! measured in machine cycles — `t`, `c`, `t'` and `α` all emerge.
//!
//! ## Execution models
//!
//! * **Conventional** ([`Scheme::Conventional`]): one hardware context;
//!   versions 1 and 2 alternate rounds with real context switches;
//!   recovery replays version 3 alone (stop-and-retry).
//! * **SMT** (`SmtDeterministic` / `SmtProbabilistic` / `SmtPredictive`):
//!   two hardware contexts; the versions' rounds run simultaneously;
//!   during recovery, hardware thread 0 replays version 3 from the
//!   checkpoint while hardware thread 1 executes the scheme's
//!   roll-forward segments, truly in parallel on the simulated core.
//!
//! Rounds across threads proceed in lock-step (the engine compares states
//! at the common round boundary, as the paper's model does).
//!
//! ## State transplants
//!
//! All recovery choreography relies on the workload's memory-resident
//! invariant: at a round boundary, any version can be started from any
//! state image via a canonical context (zeroed registers, `pc` at the
//! version's round entry, the image as data memory). This mirrors the
//! defined comparison-and-exchange states of real virtual duplex systems.

use crate::config::{Scheme, Victim};
use crate::duplex::{rollforward_window, Backend, Duplex, Ledger, Recovery, Round, StopRule};
use crate::report::RunReport;
use crate::workload;
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};
use vds_checkpoint::digest::{digest_words, StateDigest};
use vds_fault::model::{FaultKind, FaultSite};
use vds_obs::journal::Verdict;
use vds_obs::{obs_end_span, obs_span, obs_span_on};
use vds_obs::{NoopRecorder, Record};
use vds_sched::{Machine, ProcId, ProcOutcome};
use vds_smtsim::core::{CoreConfig, SavedContext, ThreadId, ThreadState};
use vds_smtsim::program::Program;

/// Configuration of a micro VDS run.
#[derive(Debug, Clone)]
pub struct MicroConfig {
    /// Recovery scheme. The 1–2-thread schemes plus the §5 3-thread
    /// boosted probabilistic variant are supported; the 5-thread boosted
    /// deterministic variant lives on the abstract backend.
    pub scheme: Scheme,
    /// Checkpoint interval in rounds.
    pub s: u32,
    /// OS context-switch cost in cycles (the paper's `c`).
    pub ctx_switch_cycles: u32,
    /// State-comparison cost in cycles (the paper's `t'`).
    pub cmp_cycles: u32,
    /// Checkpoint-write cost in cycles.
    pub ckpt_cycles: u32,
    /// Pick accuracy for the probabilistic/predictive schemes when no
    /// trap evidence exists.
    pub p_correct: f64,
    /// Seed for version diversification and pick draws.
    pub seed: u64,
    /// Core configuration (derived from the scheme by [`MicroConfig::new`]).
    pub core: CoreConfig,
    /// Run *diverse* versions (the VDS design). Disable to run three
    /// identical copies — the ablation that shows why diversity matters
    /// for permanent faults (they then corrupt all versions alike and
    /// escape detection).
    pub diversity: bool,
}

impl MicroConfig {
    /// Sensible defaults for a scheme.
    pub fn new(scheme: Scheme, s: u32) -> Self {
        assert!(
            matches!(
                scheme,
                Scheme::Conventional
                    | Scheme::SmtDeterministic
                    | Scheme::SmtProbabilistic
                    | Scheme::SmtPredictive
                    | Scheme::SmtBoosted3
            ),
            "micro backend supports the 1–3-thread schemes, got {scheme:?}"
        );
        let core = match scheme {
            Scheme::Conventional => CoreConfig::single_threaded(),
            Scheme::SmtBoosted3 => CoreConfig::with_threads(3),
            _ => CoreConfig::default(),
        };
        MicroConfig {
            scheme,
            s,
            ctx_switch_cycles: 40,
            cmp_cycles: 30,
            ckpt_cycles: 120,
            p_correct: 0.5,
            seed: crate::DEFAULT_SEED,
            core,
            diversity: true,
        }
    }
}

/// A one-shot fault to inject during the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroFault {
    /// Inject during round `at_round` (1-based, within the first
    /// checkpoint interval).
    pub at_round: u32,
    /// Which active version is hit.
    pub victim: Victim,
    /// What kind of fault.
    pub kind: FaultKind,
}

impl MicroFault {
    /// The fault `vds duplex` places at its fault round and a faulty
    /// micro sweep cell places once per mission: a transient flip of bit
    /// 9 of data word 4 (state word S[2]), which every scheme detects in
    /// the round it strikes.
    pub const CANONICAL_KIND: FaultKind =
        FaultKind::Transient(FaultSite::Memory { addr: 4, bit: 9 });
}

/// Per-round cycle budget guard.
const ROUND_BUDGET: u64 = 5_000_000;

/// Rounds baked into the workload program of a run to `target_rounds`:
/// twice the target plus 64, so the budget stays ahead of the target plus
/// recovery replays, and never less than 1,000,000. The budget is the
/// initial value of a compared state word, so the floor keeps every run
/// to 499,968 rounds byte-identical. Saturates at `u32::MAX`.
fn workload_rounds(target_rounds: u64) -> u32 {
    u32::try_from(target_rounds)
        .unwrap_or(u32::MAX)
        .saturating_mul(2)
        .saturating_add(64)
        .max(1_000_000)
}

/// The cycle-level SMT platform as a duplex backend.
struct Micro {
    cfg: MicroConfig,
    m: Machine,
    progs: [Program; 3],
    entries: [u32; 3],
    procs: [ProcId; 3],
    /// Version indices of the currently active pair and the spare.
    active: [usize; 2],
    spare: usize,
    ckpt_img: Vec<u32>,
    rng: SmallRng,
    fault: Option<MicroFault>,
    fault_pending: bool,
    /// Trap evidence observed in the current round, by active-slot index.
    trap_evidence: Option<usize>,
}

#[derive(Debug, Clone)]
struct Seg {
    version: usize,
    start_img: Vec<u32>,
    rounds: u32,
}

impl Micro {
    fn new(
        cfg: MicroConfig,
        fault: Option<MicroFault>,
        target_rounds: u64,
        record_windows: bool,
    ) -> Self {
        let base = workload::build(workload_rounds(target_rounds));
        let progs = [1, 2, 3].map(|k| {
            if cfg.diversity {
                vds_diversity::diversify(&base, k, cfg.seed)
            } else {
                base.clone()
            }
        });
        let entries = progs.each_ref().map(workload::round_entry);
        let mut m = Machine::new(cfg.core.clone(), cfg.ctx_switch_cycles);
        m.core_mut().set_window_recording(record_windows);
        let procs =
            [0, 1, 2].map(|k| m.spawn(format!("v{}", k + 1), &progs[k], workload::DMEM_WORDS));
        let ckpt_img = progs[0].data.clone();
        let rng = SmallRng::seed_from_u64(cfg.seed ^ 0xD1CE);
        Micro {
            cfg,
            m,
            progs,
            entries,
            procs,
            active: [0, 1],
            spare: 2,
            ckpt_img,
            rng,
            fault,
            fault_pending: fault.is_some(),
            trap_evidence: None,
        }
    }

    /// Restart `version` from state image `img` via its canonical
    /// context: zeroed registers, `pc` at the round entry, the image as
    /// data memory.
    fn transplant(&mut self, version: usize, img: &[u32]) {
        let mut dmem = img.to_vec();
        dmem.resize(workload::DMEM_WORDS, 0);
        let ctx = SavedContext {
            regs: [0; 16],
            pc: self.entries[version],
            prog: self.progs[version].clone(),
            dmem,
            state: ThreadState::Ready,
        };
        self.m.preempt(self.procs[version]);
        self.m.replace_context(self.procs[version], ctx);
    }

    fn dmem_of(&self, version: usize) -> Vec<u32> {
        self.m.with_state(self.procs[version], |_, _, d| d.to_vec())
    }

    fn window_digest(img: &[u32]) -> StateDigest {
        let w = workload::STATE_WINDOW;
        digest_words(&img[w.start as usize..w.end as usize])
    }

    /// [`Self::window_digest`] of a resident version, digesting the state
    /// window in place. The per-round comparison runs twice per round for
    /// the whole mission, so copying the full data memory (as
    /// [`Self::dmem_of`] does) just to hash a small window dominated the
    /// simulation profile at sweep/campaign scale.
    fn window_digest_of(&self, version: usize) -> StateDigest {
        self.m
            .with_state(self.procs[version], |_, _, d| Self::window_digest(d))
    }

    /// Charge flat overhead cycles (comparison, checkpoint, vote).
    fn burn(&mut self, cycles: u32) {
        let core = self.m.core_mut();
        let end = core.cycles() + u64::from(cycles);
        while core.cycles() < end {
            core.advance(end);
        }
    }

    /// Inject the pending one-shot fault if this is its round.
    fn maybe_inject<R: Record>(&mut self, l: &mut Ledger<R>, i: u32) {
        let f = match self.fault {
            Some(f) if self.fault_pending && f.at_round == i => f,
            _ => return,
        };
        self.fault_pending = false;
        let version = self.active[f.victim.index()];
        l.inject(1, || {
            format!("{}@v{}", f.kind.spec_string(), f.victim.index() + 1)
        });
        let effect = vds_fault::inject::inject(&mut self.m, self.procs[version], &f.kind);
        let t = self.m.cycles() as f64;
        // a masked flip (r0 / out-of-range site) changed no state: it can
        // never be detected nor corrupt the output
        l.track_fault(t, effect == vds_fault::inject::InjectionEffect::Masked);
    }

    /// Book one active version's round outcome: trap evidence, or a hang
    /// (preempted so recovery can rebuild it).
    fn book_outcome(&mut self, slot: usize, out: Option<ProcOutcome>, hung: &mut Vec<usize>) {
        match out {
            Some(ProcOutcome::Yielded) => {}
            Some(ProcOutcome::Trapped(_) | ProcOutcome::Halted) => self.trap_evidence = Some(slot),
            Some(ProcOutcome::Budget) | None => {
                hung.push(slot);
                self.m.preempt(self.procs[self.active[slot]]);
            }
        }
    }

    /// Run a list of named segments plans, one per hardware thread,
    /// collecting each segment's end image. `Err(())` on a trap, halt or
    /// hang. Each plan is recorded as a span (`"retry"` /
    /// `"rollforward"`) on its hardware thread's lane.
    #[allow(clippy::type_complexity)]
    fn run_segments_parallel<R: Record>(
        &mut self,
        rec: &mut R,
        plans: Vec<(ThreadId, &'static str, Vec<Seg>)>,
    ) -> Vec<Result<Vec<Vec<u32>>, ()>> {
        struct PlanState {
            hw: ThreadId,
            segs: Vec<Seg>,
            idx: usize,
            done_rounds: u32,
            images: Vec<Vec<u32>>,
            failed: bool,
            guard: Option<vds_obs::SpanGuard>,
        }
        let mut states: Vec<PlanState> = plans
            .into_iter()
            .map(|(hw, name, segs)| {
                let guard = if segs.is_empty() {
                    None
                } else {
                    Some(obs_span_on!(
                        rec,
                        hw.0 as u32,
                        "micro",
                        name,
                        self.m.cycles() as f64
                    ))
                };
                PlanState {
                    hw,
                    segs,
                    idx: 0,
                    done_rounds: 0,
                    images: Vec::new(),
                    failed: false,
                    guard,
                }
            })
            .collect();

        // start the first segment of every plan
        for st in &mut states {
            if let Some(seg) = st.segs.first() {
                self.transplant(seg.version, &seg.start_img);
                self.m.dispatch(self.procs[seg.version], st.hw);
            }
        }

        loop {
            let live = states.iter().any(|st| !st.failed && st.idx < st.segs.len());
            if !live {
                break;
            }
            let outs = self.m.run_all_until_block(ROUND_BUDGET);
            for st in &mut states {
                if st.failed || st.idx >= st.segs.len() {
                    continue;
                }
                let seg_version = st.segs[st.idx].version;
                match outs[st.hw.0] {
                    Some(ProcOutcome::Yielded) => {
                        st.done_rounds += 1;
                        if st.done_rounds >= st.segs[st.idx].rounds {
                            // segment complete: capture image, advance
                            self.m.preempt(self.procs[seg_version]);
                            st.images.push(self.dmem_of(seg_version));
                            st.idx += 1;
                            st.done_rounds = 0;
                            if let Some(next) = st.segs.get(st.idx) {
                                self.transplant(next.version, &next.start_img);
                                self.m.dispatch(self.procs[next.version], st.hw);
                            } else if let Some(g) = st.guard.take() {
                                obs_end_span!(rec, g, self.m.cycles() as f64);
                            }
                        } else {
                            // next round of the same segment
                            self.m.dispatch(self.procs[seg_version], st.hw);
                        }
                    }
                    // a version that halts (a corrupted branch ran off
                    // its round loop) fails its plan like a trap
                    Some(ProcOutcome::Trapped(_) | ProcOutcome::Halted) => {
                        st.failed = true;
                    }
                    Some(ProcOutcome::Budget) => {
                        // hung during recovery execution (watchdog): the
                        // segment's plan fails, like a trap
                        self.m.preempt(self.procs[seg_version]);
                        st.failed = true;
                    }
                    None => {} // nothing resident on this hw anymore
                }
                if st.failed {
                    if let Some(g) = st.guard.take() {
                        obs_end_span!(rec, g, self.m.cycles() as f64, "outcome" => "failed");
                    }
                }
            }
        }
        let end = self.m.cycles() as f64;
        for st in &mut states {
            if let Some(g) = st.guard.take() {
                obs_end_span!(rec, g, end);
            }
        }
        states
            .into_iter()
            .map(|st| if st.failed { Err(()) } else { Ok(st.images) })
            .collect()
    }

    /// Decide which active slot we *guess* is fault-free.
    fn guess_good_slot(&mut self) -> usize {
        if let Some(trapped_slot) = self.trap_evidence {
            return 1 - trapped_slot; // the partner of the crashed one
        }
        // Without ground truth, model pick accuracy: the engine knows the
        // injected victim (by construction of the experiment) and draws a
        // correct pick with probability p.
        let victim_slot = self
            .fault
            .map(|f| f.victim.index())
            .unwrap_or_else(|| usize::from(self.rng.gen::<bool>()));
        if self.rng.gen::<f64>() < self.cfg.p_correct {
            1 - victim_slot
        } else {
            victim_slot
        }
    }

    /// The scheme's roll-forward plans for a detection with window `x`,
    /// starting from the pre-detection states `p_img` / `q_img` of the
    /// active pair and the picked state `guess_img`.
    fn rollforward_plans(
        &self,
        x: u32,
        p_img: &[u32],
        q_img: &[u32],
        guess_slot: usize,
    ) -> Vec<(ThreadId, &'static str, Vec<Seg>)> {
        let (a, b) = (self.active[0], self.active[1]);
        let guess_img = if guess_slot == 0 { p_img } else { q_img };
        let seg = |version: usize, img: &[u32]| Seg {
            version,
            start_img: img.to_vec(),
            rounds: x,
        };
        let rf = |hw: usize, segs: Vec<Seg>| (ThreadId(hw), "rollforward", segs);
        match self.cfg.scheme {
            Scheme::SmtProbabilistic => {
                vec![rf(1, vec![seg(b, guess_img), seg(a, guess_img)])]
            }
            Scheme::SmtDeterministic => vec![rf(
                1,
                vec![seg(b, p_img), seg(a, p_img), seg(a, q_img), seg(b, q_img)],
            )],
            Scheme::SmtPredictive => vec![rf(1, vec![seg(self.active[guess_slot], guess_img)])],
            // §5: versions 1 and 2 roll forward a full i rounds each, in
            // their own hardware threads, from the picked state —
            // detection retained via T = U
            Scheme::SmtBoosted3 => vec![
                rf(1, vec![seg(a, guess_img)]),
                rf(2, vec![seg(b, guess_img)]),
            ],
            _ => Vec::new(),
        }
    }

    /// Resolve the roll-forward plans' end images against the vote:
    /// returns the adopted state, if any, booking hits, misses and
    /// discards.
    fn resolve_rollforward(
        &self,
        r: &mut RunReport,
        rf: &[Result<Vec<Vec<u32>>, ()>],
        good_slot: usize,
        guess_slot: usize,
    ) -> Option<Vec<u32>> {
        let picked_good = guess_slot == good_slot;
        // two versions that rolled forward from the same start agree (T =
        // U): adopt on a good pick, else a miss; disagreement discards
        let agree = |r: &mut RunReport, t: &Vec<u32>, u: &Vec<u32>, picked_good: bool| {
            if Self::window_digest(t) != Self::window_digest(u) {
                r.rollforward_discards += 1;
                None
            } else if picked_good {
                r.rollforward_hits += 1;
                Some(t.clone())
            } else {
                r.rollforward_misses += 1;
                None
            }
        };
        match (self.cfg.scheme, rf) {
            // two parallel single-segment plans: T from thread 1, U from 2
            (Scheme::SmtBoosted3, [Ok(t), Ok(u)]) if t.len() == 1 && u.len() == 1 => {
                agree(r, &t[0], &u[0], picked_good)
            }
            (Scheme::SmtProbabilistic, [Ok(im)]) if im.len() == 2 => {
                agree(r, &im[0], &im[1], picked_good)
            }
            // images: T (v2 from P), U (v1 from P), V (v1 from Q), W (v2
            // from Q); the pair started from the good state decides
            (Scheme::SmtDeterministic, [Ok(im)]) if im.len() == 4 => {
                let k = 2 * good_slot;
                agree(r, &im[k], &im[k + 1], true)
            }
            (Scheme::SmtPredictive, [Ok(im)]) if im.len() == 1 => {
                if picked_good {
                    r.rollforward_hits += 1;
                    Some(im[0].clone())
                } else {
                    r.rollforward_misses += 1;
                    None
                }
            }
            // a trap/hang in a roll-forward thread discards it
            (Scheme::SmtBoosted3, _) | (_, [Err(())]) => {
                r.rollforward_discards += 1;
                None
            }
            _ => None,
        }
    }
}

impl Backend for Micro {
    const COMPONENT: &'static str = "micro";
    const SPANS: bool = true;
    type State = Vec<u32>;

    fn interval(&self) -> u32 {
        self.cfg.s
    }

    /// Fail-safe watchdog: a *permanent* fault in a shared functional
    /// unit corrupts every round of every version — detectable
    /// (diversity!) but not tolerable on a single processor. When the
    /// system stops making forward progress it shuts down fail-safe,
    /// exactly as the paper's flow charts terminate.
    fn stop_rule(&self) -> StopRule {
        StopRule::Stall
    }

    fn now(&self) -> f64 {
        self.m.cycles() as f64
    }

    /// One round per call: a round costs microseconds of host time, so a
    /// stretch would save nothing, and the stall rule watches every round.
    fn execute_until<R: Record>(&mut self, l: &mut Ledger<R>, i: u32, _: u32) -> (u32, Round) {
        self.trap_evidence = None;
        let start_cycles = self.m.cycles();
        let round_g = obs_span!(l.rec, "micro", "round", start_cycles as f64);
        let (a, b) = (self.active[0], self.active[1]);

        // the injected fault lands "during" the round: before execution,
        // so crashes and text corruption manifest in this round
        self.maybe_inject(l, i);

        // A version that exhausts the round cycle budget has hung (e.g. a
        // program-memory fault turned its loop infinite); a real VDS
        // detects this with a watchdog timer. Treat it like a crash:
        // detection with evidence. A version that halts instead of
        // yielding (a corrupted branch ran off its round loop) is trap
        // evidence too.
        let mut hung: Vec<usize> = Vec::new();
        if self.cfg.scheme == Scheme::Conventional {
            // both versions complete their round even if the other
            // trapped, so the vote compares states at a common round
            for (slot, v) in [(0usize, a), (1usize, b)] {
                if self.trap_evidence == Some(slot) {
                    continue;
                }
                let g = obs_span!(l.rec, "micro", "compute", self.m.cycles() as f64);
                self.m.dispatch(self.procs[v], ThreadId(0));
                let out = self.m.run_hw_until_block(ThreadId(0), ROUND_BUDGET);
                self.book_outcome(slot, Some(out), &mut hung);
                obs_end_span!(l.rec, g, self.m.cycles() as f64, "version" => v);
            }
        } else {
            let g0 = obs_span_on!(l.rec, 0, "micro", "compute", self.m.cycles() as f64);
            let g1 = obs_span_on!(l.rec, 1, "micro", "compute", self.m.cycles() as f64);
            self.m.dispatch(self.procs[a], ThreadId(0));
            self.m.dispatch(self.procs[b], ThreadId(1));
            let outs = self.m.run_all_until_block(ROUND_BUDGET);
            let t_done = self.m.cycles() as f64;
            obs_end_span!(l.rec, g0, t_done, "version" => a);
            obs_end_span!(l.rec, g1, t_done, "version" => b);
            for slot in [0usize, 1] {
                self.book_outcome(slot, outs[slot], &mut hung);
            }
        }
        if hung.len() == 1 && self.trap_evidence.is_none() {
            self.trap_evidence = Some(hung[0]);
        }
        l.report.time_normal += (self.m.cycles() - start_cycles) as f64;

        // comparison
        let cmp_g = obs_span!(l.rec, "micro", "compare", self.m.cycles() as f64);
        self.burn(self.cfg.cmp_cycles);
        l.report.time_normal += f64::from(self.cfg.cmp_cycles);
        let t = self.m.cycles() as f64;
        obs_end_span!(l.rec, cmp_g, t);
        let (verdict, digests) = if self.trap_evidence.is_some() || !hung.is_empty() {
            let v = if hung.is_empty() {
                Verdict::Trap
            } else {
                Verdict::Hang
            };
            (v, None)
        } else {
            let (da, db) = (self.window_digest_of(a), self.window_digest_of(b));
            let v = if da != db {
                Verdict::Mismatch
            } else {
                Verdict::Match
            };
            (v, Some((da, db)))
        };
        let outcome = if verdict == Verdict::Match {
            "commit"
        } else {
            "detect"
        };
        obs_end_span!(l.rec, round_g, t, "round" => i, "outcome" => outcome);
        let r = Round {
            verdict,
            time: t,
            digests,
            stopped: false,
        };
        (1, r)
    }

    fn digests<R: Record>(&self, _: &Ledger<R>, _: u32) -> (StateDigest, StateDigest) {
        (
            self.window_digest_of(self.active[0]),
            self.window_digest_of(self.active[1]),
        )
    }

    fn sched(&self) -> String {
        let kind = if self.cfg.scheme == Scheme::Conventional {
            "alternate"
        } else {
            "coschedule"
        };
        format!("{kind}[v{},v{}]", self.active[0] + 1, self.active[1] + 1)
    }

    fn checkpoint<R: Record>(&mut self, l: &mut Ledger<R>) {
        let g = obs_span!(l.rec, "micro", "checkpoint", self.m.cycles() as f64);
        self.burn(self.cfg.ckpt_cycles);
        obs_end_span!(l.rec, g, self.m.cycles() as f64);
        l.report.time_checkpoint += f64::from(self.cfg.ckpt_cycles);
        self.ckpt_img = self.dmem_of(self.active[0]);
    }

    fn recover<R: Record>(&mut self, l: &mut Ledger<R>, i: u32) -> Recovery {
        let (a, b) = (self.active[0], self.active[1]);
        self.m.preempt(self.procs[a]);
        self.m.preempt(self.procs[b]);
        let p_img = self.dmem_of(a);
        let q_img = self.dmem_of(b);
        let x = rollforward_window(self.cfg.scheme, i, self.cfg.s);
        // Only schemes that actually gamble on a state draw a pick, and
        // only for a non-zero window: a zero-length roll-forward
        // (⌊i/4⌋ = 0 at i < 4, or i = s) is pure stop-and-retry and must
        // not consume scheme bookkeeping — not even an RNG draw, or the
        // fault-seed stream would diverge between cells that differ only
        // in checkpoint distance.
        let needs_pick = x > 0
            && matches!(
                self.cfg.scheme,
                Scheme::SmtProbabilistic | Scheme::SmtPredictive | Scheme::SmtBoosted3
            );
        let guess_slot = if needs_pick {
            self.guess_good_slot()
        } else {
            0
        };

        let retry = Seg {
            version: self.spare,
            start_img: self.ckpt_img.clone(),
            rounds: i,
        };
        let mut plans = vec![(ThreadId(0), "retry", vec![retry])];
        if x > 0 {
            plans.extend(self.rollforward_plans(x, &p_img, &q_img, guess_slot));
        }
        let mut results = self.run_segments_parallel(&mut l.rec, plans);
        let retry_result = results.remove(0);

        // majority vote
        let vote_g = obs_span!(l.rec, "micro", "vote", self.m.cycles() as f64);
        self.burn(2 * self.cfg.cmp_cycles);
        obs_end_span!(l.rec, vote_g, self.m.cycles() as f64);
        let vote = retry_result.ok().and_then(|images| {
            let s_img = images.into_iter().last().expect("retry end image");
            let ds = Self::window_digest(&s_img);
            if ds == Self::window_digest(&p_img) {
                Some((1usize, s_img)) // V2 (slot 1) faulty
            } else if ds == Self::window_digest(&q_img) {
                Some((0usize, s_img))
            } else {
                None // three differing states (or a trap during retry)
            }
        });
        let Some((faulty_slot, s_img)) = vote else {
            return Recovery::Rollback;
        };
        let good_slot = 1 - faulty_slot;
        let adopted = if x > 0 {
            self.resolve_rollforward(&mut l.report, &results, good_slot, guess_slot)
        } else {
            None
        };
        let progress = if adopted.is_some() { x } else { 0 };
        // the replay state S and the good state agree: without adopted
        // roll-forward progress, resume from S
        let resume_img = adopted.unwrap_or(s_img);

        // form the new VDS: the fault-free version plus the spare
        let good_version = self.active[good_slot];
        let old_spare = self.spare;
        self.spare = self.active[faulty_slot];
        self.active = [good_version, old_spare];
        for v in self.active {
            self.transplant(v, &resume_img);
        }
        Recovery::Recovered { progress }
    }

    fn restore(&mut self) {
        let img = self.ckpt_img.clone();
        for slot in [0usize, 1] {
            self.transplant(self.active[slot], &img);
        }
    }

    fn state(&self) -> Vec<u32> {
        self.dmem_of(self.active[0])
    }

    /// Output correct (corruption overwritten or architecturally masked)
    /// → masked; wrong and undetected → escaped (silent data corruption).
    fn output_correct(&self, img: &Vec<u32>, committed: u64) -> bool {
        workload::output_correct(img, committed as u32)
    }

    fn export<R: Record>(&mut self, _: &mut RunReport, rec: &mut R) {
        self.m.core().export_metrics(rec);
        self.m.core().export_spans(rec);
    }
}

/// Run a micro VDS until `target_rounds` rounds are committed.
pub fn run_micro(cfg: &MicroConfig, fault: Option<MicroFault>, target_rounds: u64) -> RunReport {
    // Monomorphized against the zero-sized sink: the uninstrumented
    // entry point pays nothing for the instrumentation.
    run_micro_with_recorder(cfg, fault, target_rounds, NoopRecorder).0
}

/// [`run_micro`], recording into `rec` — phase spans at cycle time, the
/// report mirrored under `vds.*`, the SMT core's cycle-level counters
/// (per-thread stalls, cache hits/misses) under `smt.*`, and the
/// flight-recorder journal when enabled — and returning the final
/// data-memory image of the first active version (for
/// output-correctness audits against [`crate::workload::oracle`]).
pub fn run_micro_with_recorder<R: Record>(
    cfg: &MicroConfig,
    fault: Option<MicroFault>,
    target_rounds: u64,
    rec: R,
) -> (RunReport, Vec<u32>, R) {
    let backend = Micro::new(cfg.clone(), fault, target_rounds, rec.is_active());
    Duplex::new(backend, rec).run(target_rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recording::{recorded, Recording, RunParams};
    use vds_obs::journal::Action as JournalAction;
    use vds_obs::journal::Verdict as JournalVerdict;
    use vds_obs::Recorder;

    fn fault_mem(at_round: u32, victim: Victim) -> MicroFault {
        MicroFault {
            at_round,
            victim,
            // flip a state word (address 4 is S[2]) — always detectable
            kind: FaultKind::Transient(FaultSite::Memory { addr: 4, bit: 7 }),
        }
    }

    #[test]
    fn fault_free_run_commits_and_checkpoints() {
        let cfg = MicroConfig::new(Scheme::SmtProbabilistic, 5);
        let r = run_micro(&cfg, None, 12);
        assert_eq!(r.committed_rounds, 12);
        assert_eq!(r.detections, 0);
        assert_eq!(r.checkpoints, 2); // after rounds 5 and 10
        assert!(r.total_time > 0.0);
    }

    /// Final data-memory image of a run (no recording).
    fn final_image(
        cfg: &MicroConfig,
        fault: Option<MicroFault>,
        rounds: u64,
    ) -> (RunReport, Vec<u32>) {
        let (r, img, _) = run_micro_with_recorder(cfg, fault, rounds, NoopRecorder);
        (r, img)
    }

    fn assert_oracle_state(img: &[u32], committed: u32) {
        let (k, state) = workload::oracle(committed);
        assert_eq!(img[workload::ADDR_ROUND as usize], k);
        assert_eq!(
            &img[workload::ADDR_STATE as usize
                ..(workload::ADDR_STATE + workload::STATE_WORDS) as usize],
            &state[..]
        );
    }

    /// The SMT core replays repeated rounds rather than simulating them
    /// (`Core::advance_until_block`): a fault-free pair settles into a
    /// steady round within a few rounds, and from then on both of each
    /// round's segments (up to the first yield, then to the second)
    /// must replay, or the fast path has gone dead.
    #[test]
    fn steady_rounds_replay_in_the_smt_core() {
        for scheme in [Scheme::SmtProbabilistic, Scheme::SmtBoosted3] {
            let cfg = MicroConfig::new(scheme, 8);
            let mut d = Duplex::new(Micro::new(cfg, None, 40, true), NoopRecorder);
            for _ in 0..40 {
                d.step(1);
            }
            let replayed = d.backend().m.core().replayed_segments();
            assert!(
                replayed >= 2 * 30,
                "{scheme:?}: {replayed} segments replayed"
            );
        }
    }

    #[test]
    fn final_state_matches_oracle_fault_free() {
        let (r, img) = final_image(&MicroConfig::new(Scheme::SmtProbabilistic, 5), None, 7);
        assert_eq!(r.detections, 0);
        assert_oracle_state(&img, 7);
    }

    #[test]
    fn smt_processes_rounds_faster_than_conventional() {
        let smt = run_micro(&MicroConfig::new(Scheme::SmtProbabilistic, 10), None, 30);
        let conv = run_micro(&MicroConfig::new(Scheme::Conventional, 10), None, 30);
        let gain = conv.total_time / smt.total_time;
        assert!(
            gain > 1.1 && gain < 2.1,
            "measured normal-processing gain {gain}"
        );
    }

    #[test]
    fn memory_fault_detected_and_recovered_all_schemes() {
        for scheme in [
            Scheme::Conventional,
            Scheme::SmtDeterministic,
            Scheme::SmtProbabilistic,
            Scheme::SmtPredictive,
        ] {
            let cfg = MicroConfig::new(scheme, 10);
            let r = run_micro(&cfg, Some(fault_mem(4, Victim::V2)), 25);
            assert_eq!(r.committed_rounds, 25, "{scheme:?}");
            assert_eq!(r.detections, 1, "{scheme:?}");
            assert_eq!(r.recoveries_ok, 1, "{scheme:?}: {r}");
            assert_eq!(r.rollbacks, 0, "{scheme:?}");
            // fault lifecycle: caught in the injection round itself
            assert_eq!(r.faults_detected, 1, "{scheme:?}");
            assert_eq!(r.faults_masked, 0, "{scheme:?}");
            assert_eq!(r.faults_escaped, 0, "{scheme:?}");
            assert_eq!(r.detect_latency_rounds_sum, 0, "{scheme:?}");
            assert!((r.coverage() - 1.0).abs() < 1e-12, "{scheme:?}");
        }
    }

    #[test]
    fn recovered_state_is_correct_after_fault() {
        // After recovery the computation must continue *correctly*: final
        // state equals the oracle despite the mid-run corruption.
        let cfg = MicroConfig::new(Scheme::SmtDeterministic, 8);
        let (r, img) = final_image(&cfg, Some(fault_mem(3, Victim::V1)), 14);
        assert_eq!(r.detections, 1, "{r}");
        assert_oracle_state(&img, r.committed_rounds as u32);
    }

    #[test]
    fn early_round_fault_is_pure_stop_and_retry() {
        // ⌊i/4⌋ = 0 for i ∈ {1,2,3} (deterministic) and ⌊i/2⌋ = 0 for
        // i = 1 (probabilistic): zero-length roll-forward windows carry
        // no scheme bookkeeping at all — no hits, misses or discards.
        let cases: [(Scheme, &[u32]); 2] = [
            (Scheme::SmtDeterministic, &[1, 2, 3]),
            (Scheme::SmtProbabilistic, &[1]),
        ];
        for (scheme, rounds) in cases {
            for &i in rounds {
                let cfg = MicroConfig::new(scheme, 10);
                let r = run_micro(&cfg, Some(fault_mem(i, Victim::V1)), 15);
                assert_eq!(r.committed_rounds, 15, "{scheme:?} i={i}");
                assert_eq!(r.detections, 1, "{scheme:?} i={i}: {r}");
                assert_eq!(r.recoveries_ok, 1, "{scheme:?} i={i}: {r}");
                assert_eq!(r.rollforward_hits, 0, "{scheme:?} i={i}: {r}");
                assert_eq!(r.rollforward_misses, 0, "{scheme:?} i={i}: {r}");
                assert_eq!(r.rollforward_discards, 0, "{scheme:?} i={i}: {r}");
            }
        }
    }

    #[test]
    fn probabilistic_hit_rolls_forward() {
        let mut cfg = MicroConfig::new(Scheme::SmtProbabilistic, 10);
        cfg.p_correct = 1.0;
        let r = run_micro(&cfg, Some(fault_mem(6, Victim::V1)), 20);
        assert_eq!(r.rollforward_hits, 1, "{r}");
        assert_eq!(r.rollforward_misses, 0);
        let mut cfg2 = MicroConfig::new(Scheme::SmtProbabilistic, 10);
        cfg2.p_correct = 0.0;
        let r2 = run_micro(&cfg2, Some(fault_mem(6, Victim::V1)), 20);
        assert_eq!(r2.rollforward_hits, 0, "{r2}");
        assert_eq!(r2.rollforward_misses, 1);
        // a miss costs wall time relative to a hit
        assert!(r2.total_time >= r.total_time);
    }

    #[test]
    fn deterministic_progress_is_guaranteed() {
        // regardless of p_correct, the deterministic scheme progresses
        for p in [0.0, 1.0] {
            let mut cfg = MicroConfig::new(Scheme::SmtDeterministic, 12);
            cfg.p_correct = p;
            let r = run_micro(&cfg, Some(fault_mem(8, Victim::V2)), 20);
            assert_eq!(r.rollforward_hits, 1, "p={p}: {r}");
        }
    }

    #[test]
    fn boosted3_recovers_with_full_progress_on_three_hardware_threads() {
        let mut cfg = MicroConfig::new(Scheme::SmtBoosted3, 10);
        cfg.p_correct = 1.0;
        let r = run_micro(&cfg, Some(fault_mem(6, Victim::V1)), 25);
        assert_eq!(r.committed_rounds, 25);
        assert_eq!(r.recoveries_ok, 1, "{r}");
        assert_eq!(r.rollforward_hits, 1, "{r}");
        // progress is min(i, s−i) = min(6, 4) = 4, larger than the
        // 2-thread probabilistic scheme's min(i/2, s−i) = 3
        let mut cfg2 = MicroConfig::new(Scheme::SmtProbabilistic, 10);
        cfg2.p_correct = 1.0;
        let r2 = run_micro(&cfg2, Some(fault_mem(6, Victim::V1)), 25);
        assert_eq!(r2.rollforward_hits, 1);
        // The boosted variant buys more roll-forward progress but pays
        // 3-way contention on a 2-wide core during recovery (the α₃ > α₂
        // effect of the analytic model) — measurably slower here, but
        // bounded. This is the §5 trade made concrete.
        assert!(
            r.total_time <= r2.total_time * 1.6,
            "boost3 {} vs prob {}",
            r.total_time,
            r2.total_time
        );
    }

    #[test]
    fn boosted3_final_state_correct() {
        let cfg = MicroConfig::new(Scheme::SmtBoosted3, 8);
        let (r, img) = final_image(&cfg, Some(fault_mem(4, Victim::V2)), 18);
        assert_eq!(r.committed_rounds, 18);
        let (_, want) = workload::oracle(18);
        assert_eq!(
            &img[workload::ADDR_STATE as usize
                ..(workload::ADDR_STATE + workload::STATE_WORDS) as usize],
            &want[..]
        );
    }

    #[test]
    fn workload_budget_keeps_the_pinned_floor_and_saturates() {
        for target in [0, 1, 40, 30_000, 499_968] {
            assert_eq!(workload_rounds(target), 1_000_000, "{target}");
        }
        assert_eq!(workload_rounds(499_969), 1_000_002);
        // `vds duplex smt-det 1000010` once ran out of a fixed 1,000,000
        assert_eq!(workload_rounds(1_000_010), 2_000_084);
        // the largest target whose budget is still exact, and past it
        assert_eq!(workload_rounds(2_147_483_615), u32::MAX - 1);
        assert_eq!(workload_rounds(2_147_483_616), u32::MAX);
        assert_eq!(workload_rounds(u64::MAX), u32::MAX);
    }

    proptest::proptest! {
        #[test]
        fn workload_budget_covers_twice_the_target(target in 0u64..=2_147_483_615) {
            proptest::prop_assert!(u64::from(workload_rounds(target)) >= 2 * target + 64);
            if target <= 499_968 {
                proptest::prop_assert_eq!(workload_rounds(target), 1_000_000);
            }
        }
    }

    // Every micro fault spec `vds replay` accepts from a journal header
    // runs: a few rounds under it end in a report, whatever the scheme,
    // never in a panic.
    proptest::proptest! {
        #[test]
        fn every_accepted_fault_spec_runs_a_few_rounds(
            form in 0u64..6,
            a in proptest::prelude::any::<u64>(),
            b in proptest::prelude::any::<u64>(),
            scheme in 0usize..5,
        ) {
            let spec = match form {
                0 => format!("transient:reg:{}:{}", a % 40, b % 40),
                1 => format!("transient:mem:{}:{}", a % 300, b % 40),
                2 => format!("transient:text:{}:{}", a % 200, b % 40),
                3 => format!(
                    "permfu:{}:{}:{}:{}",
                    ["alu", "mul", "mem", "branch", "none"][(a % 5) as usize],
                    (a >> 8) % 4,
                    b % 40,
                    b >> 63
                ),
                4 => "crash".to_string(),
                _ => "stop".to_string(),
            };
            let Some(kind) = FaultKind::parse_spec(&spec) else {
                return;
            };
            let schemes = [
                Scheme::Conventional,
                Scheme::SmtDeterministic,
                Scheme::SmtProbabilistic,
                Scheme::SmtPredictive,
                Scheme::SmtBoosted3,
            ];
            let cfg = MicroConfig::new(schemes[scheme], 4);
            let victim = if a >> 63 == 0 { Victim::V1 } else { Victim::V2 };
            let fault = MicroFault {
                at_round: 1 + (b >> 32) as u32 % cfg.s,
                victim,
                kind,
            };
            let r = run_micro(&cfg, Some(fault), 6);
            proptest::prop_assert!(r.committed_rounds >= 6 || r.shutdown, "{spec}: {r}");
        }
    }

    #[test]
    fn crash_fault_gives_evidence_and_perfect_pick() {
        let mut cfg = MicroConfig::new(Scheme::SmtPredictive, 10);
        cfg.p_correct = 0.0; // only evidence can save the pick
        let f = MicroFault {
            at_round: 5,
            victim: Victim::V2,
            kind: FaultKind::CrashVersion,
        };
        let r = run_micro(&cfg, Some(f), 20);
        assert_eq!(r.detections, 1);
        assert_eq!(r.recoveries_ok, 1, "{r}");
        assert_eq!(r.rollforward_hits, 1, "evidence should make the pick: {r}");
    }

    #[test]
    fn text_fault_detected() {
        // corrupt an instruction word of V1: either an illegal-
        // instruction trap or a state mismatch; both must recover
        let cfg = MicroConfig::new(Scheme::SmtProbabilistic, 10);
        let f = MicroFault {
            at_round: 3,
            victim: Victim::V1,
            kind: FaultKind::Transient(FaultSite::Text { index: 5, bit: 27 }),
        };
        let r = run_micro(&cfg, Some(f), 15);
        assert_eq!(r.committed_rounds, 15);
        assert!(r.detections >= 1, "{r}");
        // text corruption is permanent for this incarnation of the
        // process; recovery replaces the program image via the canonical
        // context, so the run completes
        assert_eq!(r.rollbacks, 0, "{r}");
    }

    #[test]
    fn masked_register_fault_goes_undetected() {
        // registers are dead at round boundaries in this workload: a
        // register flip injected at the boundary must be masked
        let cfg = MicroConfig::new(Scheme::SmtProbabilistic, 10);
        let f = MicroFault {
            at_round: 4,
            victim: Victim::V1,
            kind: FaultKind::Transient(FaultSite::Register { reg: 5, bit: 3 }),
        };
        let r = run_micro(&cfg, Some(f), 15);
        assert_eq!(r.committed_rounds, 15);
        assert_eq!(r.detections, 0, "boundary register faults are dead: {r}");
        // lifecycle accounting keeps the undetected-but-harmless fault
        // out of both the detected and escaped buckets
        assert_eq!(r.faults_injected, 1);
        assert_eq!(r.faults_detected, 0);
        assert_eq!(r.faults_masked, 1, "{r}");
        assert_eq!(r.faults_escaped, 0, "{r}");
        assert_eq!(r.coverage(), 0.0);
    }

    /// The recording of a 15-round run at `s = 10` under `scheme`.
    fn recording(scheme: Scheme, fault: MicroFault) -> Recording {
        let p = RunParams {
            scheme,
            seed: crate::DEFAULT_SEED,
            s: 10,
            rounds: 15,
        };
        Recording::Micro(p, Some(fault))
    }

    #[test]
    fn masked_fault_outcome_is_stamped_on_the_journal_entry() {
        let f = MicroFault {
            at_round: 4,
            victim: Victim::V1,
            kind: FaultKind::Transient(FaultSite::Register { reg: 5, bit: 3 }),
        };
        let (r, rec) = recorded(&recording(Scheme::SmtProbabilistic, f));
        assert_eq!(r.faults_masked, 1);
        let entry = rec
            .journal()
            .entries()
            .iter()
            .find(|e| e.fault.is_some())
            .expect("fault-bearing entry");
        assert_eq!(entry.fault_id, Some(0));
        assert_eq!(entry.fault_outcome.as_deref(), Some("masked"));
        // forensics over the journal agrees with the engine accounting
        let t = vds_obs::ForensicsTracker::for_journal(rec.journal()).unwrap();
        let rep = t.report();
        assert_eq!(rep.injected, 1);
        assert_eq!(rep.masked, 1);
        assert_eq!(rep.detected, 0);
        assert!(rep.escapes.is_empty());
    }

    #[test]
    fn recorded_micro_run_exports_metrics_and_journals_the_recovery() {
        let cfg = MicroConfig::new(Scheme::SmtDeterministic, 10);
        let (r, rec) = recorded(&recording(cfg.scheme, fault_mem(4, Victim::V2)));
        crate::duplex::assert_recovered_once(&r, rec.journal());
        let reg = rec.registry();
        assert_eq!(reg.counter("vds.committed_rounds"), r.committed_rounds);
        assert_eq!(reg.counter("vds.detections"), 1);
        assert_eq!(reg.counter("smt.cycles"), r.total_time as u64);
        assert!(reg.counter("smt.thread0.retired") > 0);
        // byte-identical exports across two runs (fixed seed)
        let (_, _, rec2) =
            run_micro_with_recorder(&cfg, Some(fault_mem(4, Victim::V2)), 15, Recorder::new());
        assert_eq!(rec.registry().to_csv(), rec2.registry().to_csv());
        assert_eq!(rec.spans().to_chrome_json(), rec2.spans().to_chrome_json());
        assert_eq!(rec.spans().to_folded(), rec2.spans().to_folded());
        // span layer: every phase shows up, exports are deterministic,
        // and the rollups landed in the registry
        let names: Vec<&str> = rec.spans().records().map(|s| s.name).collect();
        for phase in [
            "round",
            "compute",
            "compare",
            "checkpoint",
            "recovery",
            "retry",
        ] {
            assert!(names.contains(&phase), "missing span {phase}: {names:?}");
        }
        assert!(rec.spans().records().any(|s| s.component == "smt"));
        assert!(reg.summary("span.micro.round.total").is_some());
        assert!(reg.summary("span.micro.compare.self").is_some());
    }

    #[test]
    fn journaled_micro_run_records_every_round() {
        use vds_obs::Journal;
        let cfg = MicroConfig::new(Scheme::SmtProbabilistic, 10);
        let run = || recorded(&recording(cfg.scheme, fault_mem(4, Victim::V2)));
        let (r, rec) = run();
        let j = rec.journal();
        assert!(j.is_enabled());
        // one entry per executed round; a successful recovery commits
        // 1 + rollforward rounds in its single entry, so with no
        // rollbacks: executed rounds = committed − salvaged progress
        let salvaged: u64 = j.entries().iter().map(|e| u64::from(e.rollforward)).sum();
        assert_eq!(r.rollbacks, 0, "{r}");
        assert_eq!(j.len() as u64 + salvaged, r.committed_rounds);
        assert_eq!(j.divergences(), r.detections);
        assert_eq!(j.entries().last().unwrap().committed, r.committed_rounds);
        assert_eq!(r.committed_rounds, 15);
        // the injected fault is stamped on exactly one entry
        let faults: Vec<_> = j.entries().iter().filter_map(|e| e.fault.clone()).collect();
        assert_eq!(faults, vec!["transient:mem:4:7@v2".to_string()]);
        // the detection round carries a non-commit action
        let detect = j
            .entries()
            .iter()
            .find(|e| e.verdict != JournalVerdict::Match)
            .expect("detection entry");
        assert_eq!(detect.round, 4);
        assert_ne!(detect.d1, detect.d2);
        assert!(matches!(
            detect.action,
            JournalAction::Recover | JournalAction::Rollback
        ));
        // checkpoints show up as actions on interval boundaries
        assert!(j
            .entries()
            .iter()
            .any(|e| e.action == JournalAction::Checkpoint));
        // byte-identical journals for a fixed seed, lossless round trip
        let (_, rec2) = run();
        assert_eq!(j.to_jsonl(), rec2.journal().to_jsonl());
        let back = Journal::from_jsonl(&j.to_jsonl()).expect("parse");
        assert_eq!(back.entries(), j.entries());
        // a recorder without a journal header keeps the run journal-free
        let (_, _, plain) =
            run_micro_with_recorder(&cfg, Some(fault_mem(4, Victim::V2)), 15, Recorder::new());
        assert!(plain.journal().is_empty());
    }

    #[test]
    fn deterministic_runs_reproduce() {
        let cfg = MicroConfig::new(Scheme::SmtDeterministic, 10);
        let a = run_micro(&cfg, Some(fault_mem(7, Victim::V1)), 25);
        let b = run_micro(&cfg, Some(fault_mem(7, Victim::V1)), 25);
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.committed_rounds, b.committed_rounds);
    }
}
