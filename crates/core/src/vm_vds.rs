//! The bytecode-VM duplex engine: real programs under duplex.
//!
//! Where [`crate::micro_vds`] executes a synthetic workload on the
//! cycle-level SMT core, this backend runs *real programs* — seed
//! programs of the `vds-vm` register-based bytecode VM (checksum, sort,
//! matrix multiply, string hash) — as a virtual duplex: two diversified
//! variants (`vds_diversity::vm`) execute every round, their
//! architectural state is digested and compared at the round boundary,
//! and detections recover by stop-and-retry from the last data-memory
//! checkpoint. Time is measured in interpreted instructions (the VM's
//! natural clock); under the SMT schemes a round costs
//! `max(steps₁, steps₂)` because the variants are co-scheduled, while
//! the conventional scheme runs them serially at `steps₁ + steps₂`.
//!
//! Faults are [`VmFaultSite`] bit flips in the victim variant's
//! architectural state — register file, pc, literal pool, data memory —
//! applied *mid-execution* at a seed-derived step so they land on live
//! state (a flip before round entry would always be erased by the
//! canonical register reset). The expected outcome differs by site
//! class, which is what the forensics layer gets to observe: live
//! registers detect same-round, dead state masks, persistent
//! data-memory words can stay latent for rounds (latency > 0) or — in
//! padding no program reads — escape to the end of the run.
//!
//! Journal, forensics and conformance conventions are identical to the
//! micro backend, so `vds replay`, `vds faults` and `vds conformance`
//! consume VM journals unchanged.

use crate::config::{Scheme, Victim};
use crate::duplex::{Backend, Duplex, Ledger, Recovery, Round, StopRule};
use crate::report::RunReport;
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};
use vds_fault::vm::VmFaultSite;
use vds_obs::journal::Verdict;
use vds_obs::{obs_end_span, obs_span};
use vds_obs::{Digest128, Digester128, NoopRecorder, Record};
use vds_vm::{run_round, FaultPlan, Outcome, Program, SeedProgram, StateFlip, Vm};

/// State-comparison cost in VM steps.
pub const CMP_STEPS: u64 = 30;

/// Checkpoint-write cost in VM steps.
pub const CKPT_STEPS: u64 = 120;

/// Configuration of a VM duplex run.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Seed-program name (see [`vds_vm::SEED_PROGRAMS`]).
    pub program: String,
    /// Scheme of the duplex. [`Scheme::Conventional`] executes the two
    /// versions serially (round cost = steps₁ + steps₂); every SMT
    /// scheme co-schedules them (cost = max). Recovery is stop-and-retry
    /// in every scheme; the scheme otherwise only labels the journal
    /// header (conformance keys residual models by scheme name).
    pub scheme: Scheme,
    /// Checkpoint interval in rounds.
    pub s: u32,
    /// Seed for diversification, initial data memory and fault timing.
    pub seed: u64,
    /// Run *diverse* variants (the VDS design). Disable to run two
    /// identical copies — the ablation in which a register flip at a
    /// given physical index corrupts the same variable in both copies
    /// whenever both are hit, and single-copy flips land identically
    /// placed in the instruction stream.
    pub diversity: bool,
}

impl VmConfig {
    /// Sensible defaults for a seed program.
    pub fn new(program: &str) -> Self {
        VmConfig {
            program: program.to_string(),
            scheme: Scheme::SmtDeterministic,
            s: 8,
            seed: crate::DEFAULT_SEED,
            diversity: true,
        }
    }
}

/// A one-shot fault to inject during the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmFault {
    /// Inject during round `at_round` (1-based, within the first
    /// checkpoint interval).
    pub at_round: u32,
    /// Which variant is hit.
    pub victim: Victim,
    /// Which architectural state bit is flipped.
    pub site: VmFaultSite,
}

impl VmFault {
    /// The site `vds vm duplex` flips at its fault round when no
    /// `--fault` names one, and a faulty VM sweep cell flips once per
    /// mission: bit 5 of register 1, a live register every seed program
    /// either detects or masks, never lets escape.
    pub const CANONICAL_SITE: VmFaultSite = VmFaultSite::Reg { index: 1, bit: 5 };
}

/// What [`VmDuplex::maybe_inject`] hands back for one round: an
/// in-flight flip as (victim slot, plan), and/or a literal-pool flip
/// as (victim slot, lit index, bit) that the caller reverts after the
/// round.
type PendingInjection = (Option<(usize, FaultPlan)>, Option<(usize, usize, u8)>);

/// The bytecode VM as a duplex backend.
struct VmDuplex {
    cfg: VmConfig,
    sp: &'static SeedProgram,
    progs: [Program; 2],
    vms: [Vm; 2],
    ckpt_img: Vec<u32>,
    /// Global round number at the checkpoint (re-execution re-derives
    /// rounds `ckpt_round + 1 ..= ckpt_round + i`).
    ckpt_round: u64,
    sim_time: f64,
    rng: SmallRng,
    fault: Option<VmFault>,
    fault_pending: bool,
}

impl VmDuplex {
    fn new(cfg: VmConfig, fault: Option<VmFault>) -> Self {
        let sp = vds_vm::seed_program(&cfg.program)
            .unwrap_or_else(|| panic!("unknown seed program {:?}", cfg.program));
        let base = sp.program();
        let progs = [1, 2].map(|k| {
            if cfg.diversity {
                vds_diversity::vm::diversify_vm(base, k, cfg.seed)
            } else {
                base.clone()
            }
        });
        let dmem = sp.initial_dmem(cfg.seed);
        let vms = [Vm::with_mem(dmem.clone()), Vm::with_mem(dmem.clone())];
        let rng = SmallRng::seed_from_u64(cfg.seed ^ 0xD1CE);
        VmDuplex {
            cfg,
            sp,
            progs,
            vms,
            ckpt_img: dmem,
            ckpt_round: 0,
            sim_time: 0.0,
            rng,
            fault,
            fault_pending: fault.is_some(),
        }
    }

    /// Digest of one variant's comparison window: the output registers
    /// plus the persistent state window of data memory.
    fn digest_of(&self, slot: usize) -> Digest128 {
        let vm = &self.vms[slot];
        let mut d = Digester128::new();
        d.push_words(&vm.output_regs());
        let w = vds_vm::STATE_WINDOW;
        d.push_words(&vm.mem[w.start..w.end]);
        d.finish()
    }

    /// Execute global round `g` on both variants; the victim slot (if
    /// any) gets the fault plan. Returns per-slot outcomes, the round's
    /// cost in steps, and whether the planned flip fired.
    fn exec_round(
        &mut self,
        g: u64,
        plan: Option<(usize, FaultPlan)>,
    ) -> ([Outcome; 2], u64, bool) {
        let mut outcomes = [Outcome::Halted, Outcome::Halted];
        let mut fired = false;
        let mut steps = [0u64; 2];
        for slot in [0usize, 1] {
            let f = plan.filter(|&(victim, _)| victim == slot).map(|(_, p)| p);
            let r = run_round(&mut self.vms[slot], &self.progs[slot], g as u32, f.as_ref());
            outcomes[slot] = r.outcome;
            steps[slot] = r.steps;
            if f.is_some() {
                fired = r.fault_applied;
            }
        }
        // Conventional duplex runs the two versions serially on one
        // hardware thread (cost = sum); every SMT scheme co-schedules
        // them (cost = max). This is what gives the VM backend a
        // measured per-round gain against the conventional baseline.
        let cost = if self.cfg.scheme.is_smt() {
            steps[0].max(steps[1])
        } else {
            steps[0] + steps[1]
        };
        (outcomes, cost, fired)
    }

    /// Inject the pending one-shot fault if this is its round. Returns
    /// the victim slot and plan for [`VmDuplex::exec_round`]; literal
    /// flips mutate the victim's program text directly (the caller
    /// reverts after the round — the pool is text, protected by EDC in
    /// a real system, so the flip does not persist).
    fn maybe_inject<R: Record>(&mut self, l: &mut Ledger<R>, i: u32) -> PendingInjection {
        let f = match self.fault {
            Some(f) if self.fault_pending && f.at_round == i => f,
            _ => return (None, None),
        };
        self.fault_pending = false;
        let slot = f.victim.index();
        l.inject(1, || format!("{}@v{}", f.site.spec_string(), slot + 1));
        let t = self.sim_time;
        // Mid-execution step: early enough to land inside every seed
        // program's main loop, late enough to hit post-reset live state.
        let at_step = self.rng.gen_range(1..150u64);
        let flip = match f.site {
            VmFaultSite::Reg { index, bit } => StateFlip::Reg { index, bit },
            VmFaultSite::Pc { bit } => StateFlip::Pc { bit },
            VmFaultSite::Mem { addr, bit } => StateFlip::Mem { addr, bit },
            VmFaultSite::Lit { index, bit } => {
                let pool = &mut self.progs[slot].lits;
                if pool.is_empty() {
                    // nothing to flip: no live state can ever change
                    l.track_fault(t, true);
                    return (None, None);
                }
                let idx = usize::from(index) % pool.len();
                let bit = bit % 32;
                pool[idx] ^= 1u32 << bit;
                return (None, Some((slot, idx, bit)));
            }
        };
        (Some((slot, FaultPlan { at_step, flip })), None)
    }
}

impl Backend for VmDuplex {
    const COMPONENT: &'static str = "vm";
    const SPANS: bool = true;
    type State = Vec<u32>;

    fn interval(&self) -> u32 {
        self.cfg.s
    }

    /// Fail-safe watchdog, exactly as the micro engine: no forward
    /// progress for 64 engine iterations → fail-safe shutdown.
    fn stop_rule(&self) -> StopRule {
        StopRule::Stall
    }

    fn now(&self) -> f64 {
        self.sim_time
    }

    /// One round per call: a round costs microseconds of host time, so a
    /// stretch would save nothing, and the stall rule watches every round.
    fn execute_until<R: Record>(&mut self, l: &mut Ledger<R>, i: u32, _: u32) -> (u32, Round) {
        let g = self.ckpt_round + u64::from(i);
        let round_g = obs_span!(l.rec, "vm", "round", self.sim_time);

        let (plan, lit_flip) = self.maybe_inject(l, i);
        let fault_scheduled = plan.is_some();
        let (outcomes, cost, fired) = self.exec_round(g, plan);
        // a literal flip is program text for exactly one round; revert
        if let Some((slot, idx, bit)) = lit_flip {
            self.progs[slot].lits[idx] ^= 1u32 << bit;
        }
        if fault_scheduled || lit_flip.is_some() {
            // the flip never fired (the victim halted before the
            // scheduled step): no live state changed
            l.track_fault(self.sim_time, fault_scheduled && !fired);
        }
        self.sim_time += cost as f64 + CMP_STEPS as f64;
        l.report.time_normal += cost as f64 + CMP_STEPS as f64;

        // trap/hang evidence, by slot (the later slot wins)
        let trapped = [1usize, 0]
            .into_iter()
            .find(|&slot| !matches!(outcomes[slot], Outcome::Halted));
        let t = self.sim_time;
        let (d1, d2) = (self.digest_of(0), self.digest_of(1));
        let verdict = match trapped {
            Some(slot) if matches!(outcomes[slot], Outcome::Hung) => Verdict::Hang,
            Some(_) => Verdict::Trap,
            None if d1 != d2 => Verdict::Mismatch,
            None => Verdict::Match,
        };
        let outcome = match verdict {
            Verdict::Match => "commit",
            Verdict::Mismatch | Verdict::Trap | Verdict::Hang => "detect",
        };
        obs_end_span!(l.rec, round_g, t, "round" => i, "outcome" => outcome);
        let r = Round {
            verdict,
            time: t,
            digests: Some((d1, d2)),
            stopped: false,
        };
        (1, r)
    }

    fn digests<R: Record>(&self, _: &Ledger<R>, _: u32) -> (Digest128, Digest128) {
        (self.digest_of(0), self.digest_of(1))
    }

    /// Known quirk: every VM round is labelled co-scheduled, even under
    /// the conventional scheme, where the variants run serially.
    fn sched(&self) -> String {
        "coschedule[v1,v2]".to_string()
    }

    fn checkpoint<R: Record>(&mut self, l: &mut Ledger<R>) {
        self.sim_time += CKPT_STEPS as f64;
        l.report.time_checkpoint += CKPT_STEPS as f64;
        self.ckpt_img = self.vms[0].mem.clone();
        self.ckpt_round += u64::from(l.rounds_since);
    }

    /// Stop-and-retry: both variants restart from the checkpoint image
    /// and re-derive rounds `1..=i` cleanly; the re-derived states must
    /// agree (the one-shot fault is gone), which commits round `i`. A
    /// disagreement after a clean retry means the checkpoint itself was
    /// corrupted — the duplex cannot make progress and rolls back,
    /// surrendering the interval.
    fn recover<R: Record>(&mut self, _: &mut Ledger<R>, i: u32) -> Recovery {
        self.restore();
        let mut cost = 0u64;
        let mut clean = true;
        for r in 1..=i {
            let (outcomes, c, _) = self.exec_round(self.ckpt_round + u64::from(r), None);
            cost += c;
            // cannot happen with a one-shot fault (the retry is clean),
            // but guard like the micro engine does
            if outcomes.iter().any(|o| !matches!(o, Outcome::Halted)) {
                clean = false;
                break;
            }
        }
        self.sim_time += cost as f64 + CMP_STEPS as f64;
        if !clean || self.digest_of(0) != self.digest_of(1) {
            return Recovery::Rollback;
        }
        Recovery::Recovered { progress: 0 }
    }

    fn restore(&mut self) {
        for vm in &mut self.vms {
            vm.mem.copy_from_slice(&self.ckpt_img);
        }
    }

    fn state(&self) -> Vec<u32> {
        self.vms[0].mem.clone()
    }

    /// Variant 1's output state still matches the pure-Rust oracle
    /// (corruption overwritten, confined to the other variant, or
    /// architecturally masked) → masked; wrong and undetected → escaped
    /// (silent data corruption).
    fn output_correct(&self, img: &Vec<u32>, committed: u64) -> bool {
        self.sp.output_correct(self.cfg.seed, img, committed as u32)
    }
}

/// Run a VM duplex until `target_rounds` rounds are committed.
pub fn run_vm_duplex(cfg: &VmConfig, fault: Option<VmFault>, target_rounds: u64) -> RunReport {
    run_vm_duplex_with_recorder(cfg, fault, target_rounds, NoopRecorder).0
}

/// [`run_vm_duplex`], recording into `rec` (metrics, spans
/// and the flight-recorder journal when enabled) and returning variant
/// 1's final data-memory image (for output-correctness audits against
/// [`vds_vm::SeedProgram::oracle`]).
pub fn run_vm_duplex_with_recorder<R: Record>(
    cfg: &VmConfig,
    fault: Option<VmFault>,
    target_rounds: u64,
    rec: R,
) -> (RunReport, Vec<u32>, R) {
    Duplex::new(VmDuplex::new(cfg.clone(), fault), rec).run(target_rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recording::{recorded, Recording, RunParams};

    fn cfg(program: &str) -> VmConfig {
        VmConfig::new(program)
    }

    /// The recording of an smt-det run of `program` at its default
    /// seed and interval.
    fn recording(program: &str, fault: VmFault, rounds: u64) -> Recording {
        let c = cfg(program);
        let p = RunParams {
            scheme: Scheme::SmtDeterministic,
            seed: c.seed,
            s: c.s,
            rounds,
        };
        Recording::Vm(p, program.to_string(), Some(fault))
    }

    /// Report and final image of a run (no recording).
    fn final_image(cfg: &VmConfig, fault: Option<VmFault>, rounds: u64) -> (RunReport, Vec<u32>) {
        let (r, img, _) = run_vm_duplex_with_recorder(cfg, fault, rounds, NoopRecorder);
        (r, img)
    }

    #[test]
    fn fault_free_run_commits_and_checkpoints() {
        for sp in vds_vm::SEED_PROGRAMS {
            let r = run_vm_duplex(&cfg(sp.name), None, 20);
            assert_eq!(r.committed_rounds, 20, "{}", sp.name);
            assert_eq!(r.detections, 0, "{}", sp.name);
            assert_eq!(r.checkpoints, 2, "{}", sp.name); // after rounds 8 and 16
            assert!(r.total_time > 0.0, "{}", sp.name);
        }
    }

    #[test]
    fn final_state_matches_oracle_fault_free() {
        for sp in vds_vm::SEED_PROGRAMS {
            let c = cfg(sp.name);
            let (r, img) = final_image(&c, None, 13);
            assert_eq!(r.committed_rounds, 13);
            assert_eq!(img, sp.oracle(c.seed, 13), "{}", sp.name);
        }
    }

    #[test]
    fn identical_copies_match_oracle_too() {
        let mut c = cfg("checksum");
        c.diversity = false;
        let (r, img) = final_image(&c, None, 9);
        assert_eq!(r.committed_rounds, 9);
        assert_eq!(
            img,
            vds_vm::seed_program("checksum").unwrap().oracle(c.seed, 9)
        );
    }

    #[test]
    fn live_pc_fault_detected_and_recovered() {
        // a program-counter flip throws the victim off its control flow:
        // it traps in the round it is hit, and that round is recovered
        let f = VmFault {
            at_round: 3,
            victim: Victim::V2,
            site: VmFaultSite::Pc { bit: 9 },
        };
        for sp in vds_vm::SEED_PROGRAMS {
            let c = cfg(sp.name);
            let (r, img) = final_image(&c, Some(f), 20);
            assert_eq!(r.committed_rounds, 20, "{}", sp.name);
            assert_eq!(r.faults_injected, 1, "{}", sp.name);
            assert_eq!(r.faults_detected, 1, "{}: {r}", sp.name);
            assert_eq!(r.faults_escaped, 0, "{}", sp.name);
            assert_eq!(img, sp.oracle(c.seed, 20), "{}: output corrupted", sp.name);
        }
    }

    #[test]
    fn live_register_fault_is_masked() {
        // a flip of physical register 1 at round 3 never reaches the
        // compared state in any seed program: it is masked, not detected
        let f = VmFault {
            at_round: 3,
            victim: Victim::V2,
            site: VmFault::CANONICAL_SITE,
        };
        for sp in vds_vm::SEED_PROGRAMS {
            let c = cfg(sp.name);
            let (r, img) = final_image(&c, Some(f), 20);
            assert_eq!(r.committed_rounds, 20, "{}", sp.name);
            assert_eq!(r.faults_injected, 1, "{}", sp.name);
            assert_eq!(r.faults_masked, 1, "{}: {r}", sp.name);
            assert_eq!(r.faults_detected, 0, "{}", sp.name);
            assert_eq!(img, sp.oracle(c.seed, 20), "{}: output corrupted", sp.name);
        }
    }

    #[test]
    fn register_fault_on_victim_one_recovers_to_oracle_state() {
        let f = VmFault {
            at_round: 2,
            victim: Victim::V1,
            site: VmFaultSite::Reg { index: 0, bit: 17 },
        };
        let c = cfg("sort");
        let (r, img) = final_image(&c, Some(f), 16);
        assert_eq!(r.committed_rounds, 16);
        assert_eq!(r.faults_escaped, 0, "{r}");
        assert_eq!(
            img,
            vds_vm::seed_program("sort").unwrap().oracle(c.seed, 16)
        );
    }

    #[test]
    fn dead_padding_memory_fault_escapes() {
        // padding words are never read and never compared: the flip
        // survives to the end of the run as silent data corruption —
        // unless a detection-triggered recovery happens to restore the
        // checkpoint, which a clean run never does
        let f = VmFault {
            at_round: 2,
            victim: Victim::V1,
            site: VmFaultSite::Mem {
                addr: (vds_vm::DMEM_WORDS - 2) as u8,
                bit: 3,
            },
        };
        let c = cfg("checksum");
        let (r, img) = final_image(&c, Some(f), 12);
        assert_eq!(r.committed_rounds, 12);
        assert_eq!(r.faults_injected, 1);
        assert_eq!(
            r.detections, 0,
            "padding is outside every comparison window"
        );
        assert_eq!(r.faults_escaped, 1, "{r}");
        assert_ne!(
            img,
            vds_vm::seed_program("checksum").unwrap().oracle(c.seed, 12)
        );
    }

    #[test]
    fn pc_fault_detected() {
        let f = VmFault {
            at_round: 4,
            victim: Victim::V2,
            site: VmFaultSite::Pc { bit: 9 },
        };
        let c = cfg("matmul");
        let r = run_vm_duplex(&c, Some(f), 15);
        assert_eq!(r.committed_rounds, 15);
        assert_eq!(r.faults_injected, 1);
        assert_eq!(r.faults_escaped, 0, "{r}");
    }

    #[test]
    fn lit_fault_detected_or_masked_and_output_correct() {
        let f = VmFault {
            at_round: 5,
            victim: Victim::V1,
            site: VmFaultSite::Lit { index: 2, bit: 11 },
        };
        for sp in vds_vm::SEED_PROGRAMS {
            let c = cfg(sp.name);
            let (r, img) = final_image(&c, Some(f), 14);
            assert_eq!(r.committed_rounds, 14, "{}", sp.name);
            assert_eq!(r.faults_escaped, 0, "{}: {r}", sp.name);
            assert_eq!(img, sp.oracle(c.seed, 14), "{}", sp.name);
        }
    }

    #[test]
    fn conservation_holds_across_a_seeded_site_sample() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(0xF00D);
        let mut detected = 0u64;
        for trial in 0..24u64 {
            let sp = &vds_vm::SEED_PROGRAMS[(trial % 4) as usize];
            let base = vds_vm::seed_program(sp.name).unwrap().assembled();
            let site = vds_fault::vm::sample_vm_site(
                &mut rng,
                vds_vm::DMEM_WORDS as u32,
                base.lits.len() as u32,
            );
            let f = VmFault {
                at_round: 1 + (trial % 6) as u32,
                victim: if trial % 2 == 0 {
                    Victim::V1
                } else {
                    Victim::V2
                },
                site,
            };
            let mut c = cfg(sp.name);
            c.seed = 2024 ^ trial;
            let r = run_vm_duplex(&c, Some(f), 12);
            assert_eq!(r.faults_injected, 1, "trial {trial}");
            assert_eq!(
                r.faults_detected + r.faults_masked + r.faults_escaped,
                r.faults_injected,
                "trial {trial}: lifecycle leak: {r}"
            );
            detected += r.faults_detected;
        }
        assert!(detected > 0, "no sampled site was ever detected");
    }

    #[test]
    fn diversified_variants_diverge_where_identical_copies_mask() {
        // Hit BOTH runs with the same physical-register flip. With
        // diversity the variants place different variables at a given
        // physical index, so at least one scratch-register flip that an
        // identical-copy duplex masks (same corruption in comparison or
        // none at all) is caught by the diversified duplex.
        let mut diverged_only_with_diversity = 0u32;
        'scan: for sp in vds_vm::SEED_PROGRAMS {
            for index in 4u16..8 {
                for bit in [0u8, 3, 7, 13, 21, 30] {
                    let f = VmFault {
                        at_round: 2,
                        victim: Victim::V2,
                        site: VmFaultSite::Reg { index, bit },
                    };
                    let c_div = cfg(sp.name);
                    let mut c_same = cfg(sp.name);
                    c_same.diversity = false;
                    let rd = run_vm_duplex(&c_div, Some(f), 10);
                    let rs = run_vm_duplex(&c_same, Some(f), 10);
                    if rd.detections > 0 && rs.detections == 0 && rs.faults_escaped == 0 {
                        diverged_only_with_diversity += 1;
                        break 'scan;
                    }
                }
            }
        }
        assert!(
            diverged_only_with_diversity > 0,
            "no flip separated the diversified duplex from the identical-copy ablation"
        );
    }

    #[test]
    fn conventional_scheme_is_serial_and_slower_but_equivalent() {
        for sp in vds_vm::SEED_PROGRAMS {
            let smt = cfg(sp.name);
            let mut conv = cfg(sp.name);
            conv.scheme = Scheme::Conventional;
            let (rs, is) = final_image(&smt, None, 15);
            let (rc, ic) = final_image(&conv, None, 15);
            assert_eq!(rs.committed_rounds, rc.committed_rounds, "{}", sp.name);
            assert_eq!(is, ic, "{}: final image differs by scheme", sp.name);
            assert!(
                rc.total_time > rs.total_time,
                "{}: serial duplex not slower: {} vs {}",
                sp.name,
                rc.total_time,
                rs.total_time
            );
        }
    }

    #[test]
    fn journal_has_expected_shape() {
        let f = VmFault {
            at_round: 3,
            victim: Victim::V2,
            site: VmFault::CANONICAL_SITE,
        };
        let (r, rec) = recorded(&recording("strhash", f, 10));
        assert_eq!(r.committed_rounds, 10);
        let j = rec.journal();
        assert!(!j.entries().is_empty());
        // every executed round journals exactly one entry
        let faulted: Vec<_> = j.entries().iter().filter(|e| e.fault.is_some()).collect();
        assert_eq!(faulted.len(), 1);
        assert!(faulted[0]
            .fault
            .as_ref()
            .unwrap()
            .starts_with("vm:reg:1:5@v2"));
        assert_eq!(faulted[0].fault_id, Some(0));
        // the lifecycle resolved: some entry carries the outcome
        assert!(
            j.entries().iter().any(|e| e.fault_outcome.is_some()),
            "fault outcome never resolved"
        );
        // sim_time is monotone and sequenced gap-free
        for (k, e) in j.entries().iter().enumerate() {
            assert_eq!(e.seq, k as u64);
        }
    }

    #[test]
    fn journal_carries_the_detected_fault_and_its_recovery() {
        let f = VmFault {
            at_round: 4,
            victim: Victim::V2,
            site: VmFaultSite::Pc { bit: 9 },
        };
        let (r, rec) = recorded(&recording("matmul", f, 15));
        crate::duplex::assert_recovered_once(&r, rec.journal());
    }

    #[test]
    fn runs_are_deterministic() {
        let f = VmFault {
            at_round: 2,
            victim: Victim::V1,
            site: VmFaultSite::Mem { addr: 20, bit: 9 },
        };
        let c = cfg("matmul");
        let (r1, i1) = final_image(&c, Some(f), 18);
        let (r2, i2) = final_image(&c, Some(f), 18);
        assert_eq!(r1.committed_rounds, r2.committed_rounds);
        assert_eq!(r1.total_time, r2.total_time);
        assert_eq!(r1.faults_detected, r2.faults_detected);
        assert_eq!(i1, i2);
    }

    #[test]
    #[should_panic(expected = "unknown seed program")]
    fn unknown_program_panics_with_name() {
        let _ = run_vm_duplex(&cfg("nope"), None, 1);
    }
}
