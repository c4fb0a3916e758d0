//! E14 — ablation studies of the design choices DESIGN.md calls out.
//!
//! * **A1 — fetch policy**: does the thread-priority policy (round-robin
//!   vs ICOUNT) move α?
//! * **A2 — D-cache geometry**: shared-cache pressure is the main α
//!   driver for memory-bound pairs; sweep the cache size.
//! * **A3 — diversity transforms**: which transformation actually makes
//!   *permanent* functional-unit faults detectable? Runs version pairs
//!   (base vs transformed) with a stuck-at fault armed and measures the
//!   probability that their states diverge within a round budget.

use crate::Report;
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};
use std::fmt::Write as _;
use vds_core::workload;
use vds_diversity::transform::{
    CommutativeSwap, ImmediateRewrite, NopPadding, RegisterPermutation, Transform,
};
use vds_smtsim::alpha;
use vds_smtsim::cache::CacheConfig;
use vds_smtsim::core::{Core, CoreConfig, FetchPolicy, RunOutcome, ThreadId};
use vds_smtsim::kernels;
use vds_smtsim::program::Program;

/// A1: α under both fetch policies for a few kernel pairs.
pub fn fetch_policy_ablation(rounds: u32) -> Vec<(String, f64, f64)> {
    let pairs = [
        (kernels::crc(64, rounds), kernels::control(64, rounds)),
        (kernels::matmul(6, rounds), kernels::matmul(6, rounds)),
        (kernels::vecsum(128, rounds), kernels::bsort(16, rounds)),
    ];
    pairs
        .iter()
        .map(|(a, b)| {
            let rr = CoreConfig {
                fetch_policy: FetchPolicy::RoundRobin,
                ..CoreConfig::default()
            };
            let ic = CoreConfig {
                fetch_policy: FetchPolicy::ICount,
                ..CoreConfig::default()
            };
            (
                format!("{}+{}", a.name, b.name),
                alpha::measure_ledger(&rr, a, b)
                    .expect("ablation kernels complete")
                    .alpha,
                alpha::measure_ledger(&ic, a, b)
                    .expect("ablation kernels complete")
                    .alpha,
            )
        })
        .collect()
}

/// A2: α of the cache-thrashing pointer-chase self-pair versus shared
/// D-cache capacity (in words).
pub fn cache_ablation(rounds: u32) -> Vec<(usize, f64)> {
    [
        CacheConfig {
            sets: 16,
            ways: 1,
            line_words: 4,
        },
        CacheConfig {
            sets: 64,
            ways: 2,
            line_words: 4,
        },
        CacheConfig {
            sets: 256,
            ways: 2,
            line_words: 4,
        },
        CacheConfig {
            sets: 256,
            ways: 4,
            line_words: 4,
        },
    ]
    .iter()
    .map(|&dcache| {
        let cfg = CoreConfig {
            dcache,
            ..CoreConfig::default()
        };
        let k = kernels::pchase(512, 256, rounds);
        (
            dcache.capacity_words(),
            alpha::measure_ledger(&cfg, &k, &k)
                .expect("ablation kernels complete")
                .alpha,
        )
    })
    .collect()
}

/// Outcome of one duplex run under a shared permanent fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DuplexOutcome {
    /// The fault was *detected*: the versions' states diverged at some
    /// round boundary, or at least one version trapped/hung (fail-stop).
    pub detected: bool,
    /// The duplex emitted a wrong final state with no detection — the
    /// dependability failure mode the paper's diversity requirement
    /// exists to prevent.
    pub silent_wrong: bool,
}

/// Run `base` and `variant` as a (time-shared) duplex under the same
/// stuck-at fault, comparing state windows at every round boundary, and
/// classify the outcome. `clean` is the fault-free reference state after
/// `max_rounds`.
fn duplex_under_fault(
    base: &Program,
    variant: &Program,
    clean_final: &[u32],
    fault: vds_smtsim::core::FuFault,
    max_rounds: u32,
) -> DuplexOutcome {
    let run_round = |core: &mut Core, t: ThreadId| -> Option<Vec<u32>> {
        match core.run_until_all_blocked(2_000_000) {
            RunOutcome::AllYielded => {
                let img = core.thread(t).dmem.clone();
                core.resume(t);
                Some(img)
            }
            _ => None, // trap or hang: fail-stop, always detectable
        }
    };
    let w = workload::STATE_WINDOW;
    let win = |img: &[u32]| img[w.start as usize..w.end as usize].to_vec();
    let mut ca = Core::new(CoreConfig::single_threaded());
    let ta = ca.add_thread(base, workload::DMEM_WORDS);
    ca.inject_fu_fault(fault);
    let mut cb = Core::new(CoreConfig::single_threaded());
    let tb = cb.add_thread(variant, workload::DMEM_WORDS);
    cb.inject_fu_fault(fault);
    let mut last = Vec::new();
    for _ in 0..max_rounds {
        let (ia, ib) = match (run_round(&mut ca, ta), run_round(&mut cb, tb)) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                return DuplexOutcome {
                    detected: true,
                    silent_wrong: false,
                }
            }
        };
        if win(&ia) != win(&ib) {
            return DuplexOutcome {
                detected: true,
                silent_wrong: false,
            };
        }
        last = win(&ia);
    }
    DuplexOutcome {
        detected: false,
        silent_wrong: last != win(clean_final),
    }
}

/// A3: per transformation, the probability that a random permanent fault
/// is detected, and the probability it slips through as silent wrong
/// output. Returns `(name, detected_rate, silent_wrong_rate)` rows.
/// A named generator of diversified program variants.
type VariantGen = (String, Box<dyn Fn(&mut SmallRng) -> Program>);

pub fn diversity_ablation(trials: u64, max_rounds: u32) -> Vec<(String, f64, f64)> {
    let base = workload::build(1_000_000);
    let variants: Vec<VariantGen> = vec![
        (
            "identical (no diversity)".into(),
            Box::new({
                let b = base.clone();
                move |_| b.clone()
            }),
        ),
        (
            "register-permutation".into(),
            Box::new({
                let b = base.clone();
                move |rng| RegisterPermutation.apply(&b, rng)
            }),
        ),
        (
            "commutative-swap".into(),
            Box::new({
                let b = base.clone();
                move |rng| CommutativeSwap { prob: 0.7 }.apply(&b, rng)
            }),
        ),
        (
            "nop-padding".into(),
            Box::new({
                let b = base.clone();
                move |rng| NopPadding { density: 0.12 }.apply(&b, rng)
            }),
        ),
        (
            "immediate-rewrite".into(),
            Box::new({
                let b = base.clone();
                move |rng| ImmediateRewrite.apply(&b, rng)
            }),
        ),
        (
            "full pipeline".into(),
            Box::new({
                let b = base.clone();
                move |rng| vds_diversity::diversify(&b, 1, rng.gen())
            }),
        ),
    ];
    // fault-free reference state after max_rounds
    let clean_final = {
        let mut c = Core::new(CoreConfig::single_threaded());
        let t = c.add_thread(&base, workload::DMEM_WORDS);
        for _ in 0..max_rounds {
            assert_eq!(c.run_until_all_blocked(2_000_000), RunOutcome::AllYielded);
            c.resume(t);
        }
        c.thread(t).dmem.clone()
    };
    variants
        .into_iter()
        .map(|(name, make)| {
            let mut detected = 0u64;
            let mut silent = 0u64;
            for t in 0..trials {
                let mut rng = SmallRng::seed_from_u64(0xAB1A ^ t);
                let variant = make(&mut rng);
                let fault = vds_fault::model::sample_fu_fault(&mut rng, 2, 1);
                let out = duplex_under_fault(&base, &variant, &clean_final, fault, max_rounds);
                detected += u64::from(out.detected);
                silent += u64::from(out.silent_wrong);
            }
            (
                name,
                detected as f64 / trials as f64,
                silent as f64 / trials as f64,
            )
        })
        .collect()
}

/// Regenerate all three ablation tables.
pub fn report(trials: u64) -> Report {
    let mut text = String::new();
    let mut csv = String::from("ablation,setting,value\n");

    let _ = writeln!(text, "A1 — fetch policy (α round-robin vs ICOUNT):");
    for (pair, rr, ic) in fetch_policy_ablation(2) {
        let _ = writeln!(text, "  {pair:<22} RR={rr:.3} ICOUNT={ic:.3}");
        let _ = writeln!(csv, "fetch-rr,{pair},{rr}");
        let _ = writeln!(csv, "fetch-icount,{pair},{ic}");
    }

    let _ = writeln!(
        text,
        "\nA2 — shared D-cache capacity vs α (pchase self-pair):"
    );
    for (cap, a) in cache_ablation(2) {
        let _ = writeln!(text, "  {cap:>6} words: α = {a:.3}");
        let _ = writeln!(csv, "dcache,{cap},{a}");
    }

    let _ = writeln!(
        text,
        "\nA3 — permanent-fault coverage by transformation\n\
         ({trials} random stuck-at ALU/MUL/MEM faults, duplex compared for 12 rounds):"
    );
    let _ = writeln!(
        text,
        "  {:<26} {:>10} {:>14}",
        "transformation", "detected", "SILENT WRONG"
    );
    for (name, det, silent) in diversity_ablation(trials, 12) {
        let _ = writeln!(
            text,
            "  {name:<26} {:>9.1}% {:>13.1}%",
            100.0 * det,
            100.0 * silent
        );
        let _ = writeln!(csv, "diversity-detected,{name},{det}");
        let _ = writeln!(csv, "diversity-silent,{name},{silent}");
    }
    let _ = writeln!(
        text,
        "\nidentical versions compute identical *values*, so a stuck-at fault\n\
         corrupts both alike: zero divergence, maximal silent-wrong rate.\n\
         Value-preserving transforms (renaming, swaps, padding) cannot help\n\
         on an in-order single-issue machine — only *value* diversity\n\
         (arithmetic recoding, as in Lovrić's systematic diversity) and the\n\
         SMT co-run's unit-assignment diversity make permanent faults visible.\n\
         This is the quantitative backing for the paper's §2.1 requirement."
    );
    Report {
        id: "E14",
        title: "Ablations — fetch policy, cache pressure, diversity transforms",
        text,
        data: vec![("ablation.csv".into(), csv)],
        metrics: Default::default(),
        spans: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_versions_never_desynchronise_under_shared_fault() {
        // identical programs on identical (single-issue) hardware are
        // corrupted identically: detection only via fail-stop traps,
        // never via state comparison — silent wrong output is possible
        let rows = diversity_ablation(8, 8);
        let (name, detected, silent) = &rows[0];
        assert!(name.contains("identical"));
        // any detection here must be trap-based; combined with silent
        // cases the two outcomes partition the effective faults
        assert!(
            *detected + *silent <= 1.0 + 1e-12,
            "detected {detected} + silent {silent}"
        );
    }

    #[test]
    fn recoded_pipeline_detects_alu_faults_identical_versions_miss() {
        // The effect lives in the ALU class: loads/stores and multiplies
        // feed the *same* value streams through the faulty unit in every
        // version, so only value diversity (arithmetic recoding, in the
        // full pipeline) desynchronises the corruption. Compare focused
        // ALU stuck-bit faults.
        use vds_smtsim::core::FuFault;
        use vds_smtsim::isa::FuClass;
        let base = workload::build(1_000_000);
        let full = vds_diversity::diversify(&base, 1, 777);
        let rounds = 10;
        let clean_final = {
            let mut c = Core::new(CoreConfig::single_threaded());
            let t = c.add_thread(&base, workload::DMEM_WORDS);
            for _ in 0..rounds {
                assert_eq!(c.run_until_all_blocked(2_000_000), RunOutcome::AllYielded);
                c.resume(t);
            }
            c.thread(t).dmem.clone()
        };
        let mut ident_div = 0;
        let mut full_div = 0;
        let mut effective = 0;
        for bit in 0..10u8 {
            for value in [true, false] {
                let fault = FuFault {
                    class: FuClass::Alu,
                    unit: 0,
                    bit,
                    value,
                };
                let i = duplex_under_fault(&base, &base, &clean_final, fault, rounds);
                let f = duplex_under_fault(&base, &full, &clean_final, fault, rounds);
                if i.silent_wrong || i.detected {
                    effective += 1;
                }
                ident_div += u32::from(i.detected);
                full_div += u32::from(f.detected);
            }
        }
        assert!(effective > 5, "need effective faults, got {effective}");
        assert!(
            full_div > ident_div,
            "full pipeline detected {full_div} vs identical {ident_div}"
        );
    }

    #[test]
    fn cache_capacity_lowers_alpha_for_thrashing_pair() {
        let curve = cache_ablation(1);
        let small = curve.first().unwrap().1;
        let large = curve.last().unwrap().1;
        assert!(
            large < small,
            "bigger shared cache must improve overlap: {small} -> {large}"
        );
    }

    #[test]
    fn fetch_policy_alphas_in_range() {
        for (pair, rr, ic) in fetch_policy_ablation(1) {
            assert!((0.4..=1.1).contains(&rr), "{pair} RR {rr}");
            assert!((0.4..=1.1).contains(&ic), "{pair} ICOUNT {ic}");
        }
    }
}
