//! Measuring the SMT contention factor α.
//!
//! The paper takes α from Intel's published Pentium 4 numbers (α ≈ 0.65);
//! here we *measure* it on the simulated machine: run workload A alone,
//! workload B alone, then co-schedule both, and compare wall-clock cycles.
//!
//! Definition (matching Eq. 3): if a round of work takes `t` alone and a
//! co-scheduled pair of rounds takes `2αt`, then for two whole programs
//!
//! `α = T_pair / (T_A_alone + T_B_alone)`
//!
//! α = ½ means the pair finished in the time one program needs alone
//! (perfect overlap); α = 1 means co-scheduling bought nothing.
//!
//! [`measure_ledger`] measures α and *explains* it: it snapshots each
//! run's per-thread cycle accounting and hands the solo/co-run counters
//! to [`vds_obs::alpha::PairLedger`], which carries the three times and
//! α and attributes the pair's excess cycles to icache/dcache/FU/width/
//! branch interference under the conservation invariant.

use crate::core::{Core, CoreConfig, RunOutcome, ThreadId, Trap};
use crate::kernels::Kernel;
use crate::program::Program;
use vds_obs::alpha::{AlphaReport, CycleSnapshot, PairLedger};

/// Why a measurement run could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// A thread trapped (access violation, illegal instruction, PC out
    /// of range).
    Trapped(ThreadId, Trap),
    /// The cycle budget ran out before every thread halted.
    CycleBudgetExhausted,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Trapped(tid, trap) => {
                write!(f, "thread {} trapped: {trap:?}", tid.0)
            }
            RunError::CycleBudgetExhausted => write!(f, "cycle budget exhausted"),
        }
    }
}

impl std::error::Error for RunError {}

fn outcome_error(outcome: RunOutcome) -> RunError {
    match outcome {
        RunOutcome::Trapped(tid, trap) => RunError::Trapped(tid, trap),
        _ => RunError::CycleBudgetExhausted,
    }
}

/// Run a single program (resuming through yields) and return total
/// cycles, or the trap / budget-exhaustion error.
pub fn run_to_completion(
    cfg: &CoreConfig,
    prog: &Program,
    dmem_words: usize,
) -> Result<u64, RunError> {
    run_solo_core(cfg, prog, dmem_words).map(|(cycles, _)| cycles)
}

fn run_solo_core(
    cfg: &CoreConfig,
    prog: &Program,
    dmem_words: usize,
) -> Result<(u64, CycleSnapshot), RunError> {
    let mut core = Core::new(cfg.clone());
    let t = core.add_thread(prog, dmem_words);
    loop {
        match core.run_until_all_blocked(u64::MAX / 4) {
            RunOutcome::AllHalted => {
                return Ok((core.cycles(), core.thread(t).counters.snapshot()))
            }
            RunOutcome::AllYielded => core.resume(t),
            other => return Err(outcome_error(other)),
        }
    }
}

/// Co-schedule two programs on a 2-context core until **both** halt,
/// resuming either whenever it yields; returns total cycles or the trap
/// / budget-exhaustion error.
pub fn run_pair(
    cfg: &CoreConfig,
    a: (&Program, usize),
    b: (&Program, usize),
) -> Result<u64, RunError> {
    run_pair_core(cfg, a, b).map(|(cycles, _, _)| cycles)
}

fn run_pair_core(
    cfg: &CoreConfig,
    a: (&Program, usize),
    b: (&Program, usize),
) -> Result<(u64, CycleSnapshot, CycleSnapshot), RunError> {
    let mut cfg = cfg.clone();
    cfg.max_threads = cfg.max_threads.max(2);
    let mut core = Core::new(cfg);
    let ta = core.add_thread(a.0, a.1);
    let tb = core.add_thread(b.0, b.1);
    loop {
        match core.run_until_all_blocked(u64::MAX / 4) {
            RunOutcome::AllHalted => {
                return Ok((
                    core.cycles(),
                    core.thread(ta).counters.snapshot(),
                    core.thread(tb).counters.snapshot(),
                ))
            }
            RunOutcome::AllYielded => {
                for t in [ta, tb] {
                    if core.thread(t).state == crate::core::ThreadState::Yielded {
                        core.resume(t);
                    }
                }
            }
            other => return Err(outcome_error(other)),
        }
    }
}

/// Measure the full attribution ledger for a pair of programs: solo
/// snapshots of each, a co-run snapshot of both, and the differential
/// cycle accounting between them.
pub fn measure_ledger_programs(
    cfg: &CoreConfig,
    name_a: &str,
    a: (&Program, usize),
    name_b: &str,
    b: (&Program, usize),
) -> Result<PairLedger, RunError> {
    let (_, solo_a) = run_solo_core(cfg, a.0, a.1)?;
    let (_, solo_b) = run_solo_core(cfg, b.0, b.1)?;
    let (_, co_a, co_b) = run_pair_core(cfg, a, b)?;
    Ok(PairLedger::attribute(
        name_a, name_b, solo_a, solo_b, co_a, co_b,
    ))
}

/// Measure α and its attribution ledger for a pair of kernels on the
/// given core configuration.
pub fn measure_ledger(cfg: &CoreConfig, a: &Kernel, b: &Kernel) -> Result<PairLedger, RunError> {
    let pa = a.program();
    let pb = b.program();
    measure_ledger_programs(
        cfg,
        &a.name,
        (&pa, a.dmem_words),
        &b.name,
        (&pb, b.dmem_words),
    )
}

/// Measure the attribution ledger for every unordered pair (`i ≤ j`) in
/// a kernel set, collected into an [`AlphaReport`].
pub fn ledger_matrix(cfg: &CoreConfig, kernels: &[Kernel]) -> Result<AlphaReport, RunError> {
    let mut pairs = Vec::new();
    for (i, a) in kernels.iter().enumerate() {
        for b in kernels.iter().skip(i) {
            pairs.push(measure_ledger(cfg, a, b)?);
        }
    }
    Ok(AlphaReport { pairs })
}

/// The machine's mean *measured* α: the average contention factor over
/// every unordered kernel-suite pair on the given core. This is the
/// scalar `vds conformance --alpha measured` prices the closed forms
/// with, clamped into the model's valid `[0.5, 1]` range.
pub fn measured_alpha(cfg: &CoreConfig, rounds: u32) -> Result<(f64, AlphaReport), RunError> {
    let report = ledger_matrix(cfg, &crate::kernels::suite(rounds))?;
    let mean = report.mean_alpha().unwrap_or(0.65);
    Ok((mean.clamp(0.5, 1.0), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;

    fn cfg() -> CoreConfig {
        CoreConfig::default()
    }

    #[test]
    fn alpha_is_in_model_range_for_homogeneous_pairs() {
        for k in kernels::suite(2) {
            let m = measure_ledger(&cfg(), &k, &k).unwrap();
            assert!(
                m.alpha >= 0.5 - 1e-9 && m.alpha <= 1.05,
                "kernel {}: alpha={}",
                k.name,
                m.alpha
            );
        }
    }

    #[test]
    fn alpha_reflects_resource_pressure() {
        // Cache-thrashing pointer chases collide on the shared D-cache,
        // so their self-pair overlaps far worse than a latency-bound
        // compute pair whose stall slots the sibling can fill.
        let p = kernels::pchase(512, 256, 2);
        let c = kernels::control(128, 2);
        let chase_self = measure_ledger(&cfg(), &p, &p).unwrap().alpha;
        let ctl_self = measure_ledger(&cfg(), &c, &c).unwrap().alpha;
        assert!(
            chase_self > ctl_self + 0.1,
            "pchase self {chase_self} vs control self {ctl_self}"
        );
        // Two low-conflict kernels co-run near the perfect-overlap limit.
        assert!(ctl_self < 0.6, "control self {ctl_self}");
    }

    #[test]
    fn matmul_self_pair_lands_in_papers_alpha_regime() {
        // The paper's headline α is 0.65 (Pentium 4). Our matmul — the
        // most "application-like" kernel (mul + loads + branches) — pairs
        // with itself in that regime on the default core.
        let k = kernels::matmul(8, 2);
        let m = measure_ledger(&cfg(), &k, &k).unwrap();
        assert!(
            (0.55..=0.8).contains(&m.alpha),
            "matmul self alpha={}",
            m.alpha
        );
    }

    #[test]
    fn pair_time_bounded_by_serial_and_longest() {
        let a = kernels::vecsum(128, 2);
        let b = kernels::control(64, 2);
        let m = measure_ledger(&cfg(), &a, &b).unwrap();
        assert!(m.t_pair <= m.t_a + m.t_b, "{m:?}");
        assert!(m.t_pair >= m.t_a.max(m.t_b), "{m:?}");
    }

    #[test]
    fn measurement_is_deterministic() {
        let a = kernels::bsort(16, 1);
        let b = kernels::crc(64, 1);
        assert_eq!(
            measure_ledger(&cfg(), &a, &b).unwrap(),
            measure_ledger(&cfg(), &a, &b).unwrap()
        );
    }

    #[test]
    fn trapping_program_is_an_error_not_a_panic() {
        // An empty text section traps with PcOutOfRange on cycle one.
        let prog = Program {
            text: vec![],
            data: vec![],
            symbols: Default::default(),
            entry: 0,
        };
        let err = run_to_completion(&cfg(), &prog, 16).unwrap_err();
        assert!(matches!(
            err,
            RunError::Trapped(_, Trap::PcOutOfRange { .. })
        ));
        assert!(err.to_string().contains("trapped"));
        let ok = kernels::control(8, 1);
        let pk = ok.program();
        let err = run_pair(&cfg(), (&prog, 16), (&pk, ok.dmem_words)).unwrap_err();
        assert!(matches!(err, RunError::Trapped(_, _)));
    }

    #[test]
    fn ledger_times_are_the_runs_and_attribution_is_exact() {
        let a = kernels::vecsum(128, 1);
        let b = kernels::crc(64, 1);
        let (pa, pb) = (a.program(), b.program());
        let l = measure_ledger(&cfg(), &a, &b).unwrap();
        assert_eq!(l.t_a, run_to_completion(&cfg(), &pa, a.dmem_words).unwrap());
        assert_eq!(l.t_b, run_to_completion(&cfg(), &pb, b.dmem_words).unwrap());
        let t_pair = run_pair(&cfg(), (&pa, a.dmem_words), (&pb, b.dmem_words)).unwrap();
        assert_eq!(l.t_pair, t_pair);
        assert_eq!(l.alpha, t_pair as f64 / (l.t_a + l.t_b) as f64);
        assert!(l.is_exact());
        assert_eq!(l.excess, l.t_pair as i64 - l.t_a.max(l.t_b) as i64);
    }

    #[test]
    fn ledger_matrix_covers_unordered_pairs_deterministically() {
        let ks = [kernels::vecsum(64, 1), kernels::control(32, 1)];
        let r1 = ledger_matrix(&cfg(), &ks).unwrap();
        let r2 = ledger_matrix(&cfg(), &ks).unwrap();
        assert_eq!(r1.pairs.len(), 3); // aa, ab, bb
        assert_eq!(r1, r2);
        assert!(r1.pairs.iter().all(|p| p.is_exact()));
    }

    #[test]
    fn measured_alpha_is_in_model_range() {
        let (alpha, report) = measured_alpha(&cfg(), 1).unwrap();
        assert!((0.5..=1.0).contains(&alpha), "measured alpha {alpha}");
        assert!(!report.pairs.is_empty());
    }
}
