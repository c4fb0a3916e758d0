//! Property tests for the cycle-accounting conservation law and the
//! exactness of α-attribution ledgers.
//!
//! The ledger (`vds_obs::alpha`) is only sound if, for every thread on
//! every run, `issued_cycles + stall_icache + stall_dcache + stall_fu +
//! stall_width + stall_branch + parked == cycles` — including trapping
//! runs, where the trap-transition cycle is booked as parked. These
//! properties drive random kernels on random core shapes and assert the
//! invariant, then assert the ledger identity: attributed per-cause
//! deltas + parked delta + residual equal the measured co-run excess
//! exactly, in integer arithmetic.

mod common;

use common::{cfg_for, kernel_for};
use proptest::prelude::*;
use vds_smtsim::core::{Core, CoreConfig, RunOutcome};
use vds_smtsim::{alpha, perf::ThreadCounters};

fn assert_conserved(c: &ThreadCounters, context: &str) {
    let accounted = c.issued_cycles + c.total_stalls() + c.parked;
    assert_eq!(
        accounted,
        c.cycles,
        "{context}: issued {} + stalls {} + parked {} != cycles {}",
        c.issued_cycles,
        c.total_stalls(),
        c.parked,
        c.cycles
    );
    assert!(c.snapshot().is_conserved(), "{context}: snapshot drifted");
}

proptest! {
    #[test]
    fn per_thread_conservation_holds_on_random_runs(
        ka in 0u64..6,
        kb in 0u64..6,
        size in 0u64..1000,
        width in 0u64..4,
        latency in 0u64..30,
    ) {
        let cfg = cfg_for(width, latency);
        let a = kernel_for(ka, size, 1);
        let b = kernel_for(kb, size.wrapping_add(17), 1);

        // Solo runs and the co-run all conserve, thread by thread.
        let mut core = Core::new(cfg.clone());
        let ta = core.add_thread(&a.program(), a.dmem_words);
        let tb = core.add_thread(&b.program(), b.dmem_words);
        loop {
            match core.run_until_all_blocked(2_000_000) {
                RunOutcome::AllHalted | RunOutcome::CycleBudgetExhausted => break,
                RunOutcome::AllYielded => {
                    for t in [ta, tb] {
                        if core.thread(t).state == vds_smtsim::core::ThreadState::Yielded {
                            core.resume(t);
                        }
                    }
                }
                RunOutcome::Trapped(..) => break,
            }
        }
        for t in [ta, tb] {
            assert_conserved(&core.thread(t).counters, &format!("{}+{}", a.name, b.name));
        }
    }

    #[test]
    fn conservation_holds_on_trapping_runs(seed in 0u64..500) {
        // Corrupt one text word so decode traps mid-run (or the PC walks
        // off the end): the trap-transition cycle must still be booked.
        let k = kernel_for(seed, seed, 1);
        let mut prog = k.program();
        let idx = (seed as usize * 7) % prog.text.len();
        prog.text[idx] = 63 << 26;
        let mut core = Core::new(CoreConfig::default());
        let t = core.add_thread(&prog, k.dmem_words);
        while let RunOutcome::AllYielded = core.run_until_all_blocked(2_000_000) {
            core.resume(t);
        }
        assert_conserved(&core.thread(t).counters, &format!("trapping {}", k.name));
    }

    #[test]
    fn ledger_attribution_is_exact_on_random_pairs(
        ka in 0u64..6,
        kb in 0u64..6,
        size in 0u64..1000,
        width in 0u64..4,
        latency in 0u64..30,
    ) {
        let cfg = cfg_for(width, latency);
        let a = kernel_for(ka, size, 1);
        let b = kernel_for(kb, size.wrapping_add(29), 1);
        let m = alpha::measure(&cfg, &a, &b).expect("suite kernels complete");
        let l = alpha::measure_ledger(&cfg, &a, &b).expect("suite kernels complete");

        // The ledger's times agree with the scalar measurement…
        prop_assert_eq!((l.t_a, l.t_b, l.t_pair), (m.t_a, m.t_b, m.t_pair));
        // …the excess is the definition…
        prop_assert_eq!(l.excess, l.t_pair as i64 - l.t_a.max(l.t_b) as i64);
        // …and attributed deltas + parked + residual equal it exactly.
        let attributed: i64 = l.deltas.iter().sum();
        prop_assert_eq!(attributed + l.d_parked + l.residual, l.excess);
        prop_assert!(l.is_exact());
        // Co-scheduling never beats the critical kernel's solo time.
        prop_assert!(l.excess >= 0, "negative excess: {:?}", l);
    }
}
