//! E18 — real programs under duplex: the bytecode-VM workload.
//!
//! The micro platform runs a synthetic mix; this experiment duplexes the
//! four `vds-vm` seed programs (checksum, sort, matmul, strhash) as two
//! diversified variants under [`vds_core::vm_vds`] and measures what the
//! paper's model predicts qualitatively:
//!
//! 1. **Round gain** — each SMT scheme's total time against the
//!    conventional (serial) execution of the same program, fault-free.
//!    `g_vs_serial > 1` is the co-scheduling win of Eq. (4) realised on
//!    a real instruction stream.
//! 2. **Coverage** — a seeded architectural-state fault campaign
//!    ([`vds_fault::vm::sample_vm_site`]: registers, pc, literal pool,
//!    data memory) per program, with every trial classified
//!    detected / masked / escaped and the conservation invariant
//!    `detected + masked + escaped == injected` checked row by row.
//!
//! Everything is seed-determined and single-threaded, so the report is
//! byte-identical across runs and worker counts.

use crate::Report;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use vds_core::vm_vds::{run_vm_duplex, VmConfig, VmFault};
use vds_core::{Scheme, Victim};
use vds_fault::vm::sample_vm_site;

/// Fault-free rounds for the gain table.
const GAIN_ROUNDS: u64 = 20;

/// Schemes in the gain table (the serial baseline first).
const SCHEMES: &[Scheme] = &[
    Scheme::Conventional,
    Scheme::SmtDeterministic,
    Scheme::SmtProbabilistic,
    Scheme::SmtPredictive,
];

/// Run the VM duplex gain table and per-program fault campaigns.
/// `trials` is the campaign size per program.
pub fn report(trials: u64, seed: u64) -> Report {
    let trials = trials.max(1);
    let mut text = format!(
        "E18 — bytecode-VM programs under duplex (seed {seed}, {trials} trials/program)\n\n\
         {:<10} {:<14} {:>9} {:>12} {:>12}\n",
        "program", "scheme", "committed", "total_time", "g_vs_serial"
    );
    let mut gain_csv = String::from("program,scheme,committed,total_time,g_vs_serial\n");
    let mut metrics = vds_obs::Registry::new();

    for sp in vds_vm::SEED_PROGRAMS {
        let mut serial_time = 0.0f64;
        for &scheme in SCHEMES {
            let mut cfg = VmConfig::new(sp.name);
            cfg.scheme = scheme;
            cfg.seed = seed;
            let r = run_vm_duplex(&cfg, None, GAIN_ROUNDS);
            if scheme == Scheme::Conventional {
                serial_time = r.total_time;
            }
            let g = serial_time / r.total_time.max(1e-9);
            let _ = writeln!(
                text,
                "{:<10} {:<14} {:>9} {:>12.1} {:>12.4}",
                sp.name,
                scheme.name(),
                r.committed_rounds,
                r.total_time,
                g
            );
            let _ = writeln!(
                gain_csv,
                "{},{},{},{},{g}",
                sp.name,
                scheme.name(),
                r.committed_rounds,
                r.total_time
            );
            metrics.count(
                &format!("vm.{}.{}.steps", sp.name, scheme.name()),
                r.total_time as u64,
            );
        }
    }

    let _ = writeln!(
        text,
        "\n{:<10} {:>7} {:>9} {:>7} {:>8} {:>9}",
        "program", "trials", "detected", "masked", "escaped", "coverage"
    );
    let mut campaign_csv =
        String::from("program,trials,injected,detected,masked,escaped,coverage\n");
    for sp in vds_vm::SEED_PROGRAMS {
        let lit_words = sp.assembled().lits.len() as u32;
        let mut cfg = VmConfig::new(sp.name);
        cfg.scheme = Scheme::SmtDeterministic;
        let (mut detected, mut masked, mut escaped) = (0u64, 0u64, 0u64);
        for i in 0..trials {
            let mut rng = SmallRng::seed_from_u64(
                i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed) ^ 0xE18,
            );
            cfg.seed = seed.wrapping_add(i);
            let fault = VmFault {
                at_round: rng.gen_range(1..=cfg.s),
                victim: if rng.gen() { Victim::V1 } else { Victim::V2 },
                site: sample_vm_site(&mut rng, vds_vm::DMEM_WORDS as u32, lit_words),
            };
            let r = run_vm_duplex(&cfg, Some(fault), GAIN_ROUNDS);
            detected += r.faults_detected;
            masked += r.faults_masked;
            escaped += r.faults_escaped;
        }
        let coverage = detected as f64 / trials as f64;
        let _ = writeln!(
            text,
            "{:<10} {:>7} {:>9} {:>7} {:>8} {:>9.4}",
            sp.name, trials, detected, masked, escaped, coverage
        );
        let _ = writeln!(
            campaign_csv,
            "{},{trials},{trials},{detected},{masked},{escaped},{coverage}",
            sp.name
        );
        metrics.count(&format!("vm.{}.campaign.detected", sp.name), detected);
        metrics.count(&format!("vm.{}.campaign.masked", sp.name), masked);
        metrics.count(&format!("vm.{}.campaign.escaped", sp.name), escaped);
    }
    let _ = writeln!(
        text,
        "\nevery campaign row satisfies detected + masked + escaped == injected\n\
         (the forensics conservation invariant, per trial and in aggregate)"
    );

    Report {
        id: "E18",
        title: "Real programs under duplex: the bytecode-VM workload",
        text,
        data: vec![
            ("vm_gain.csv".into(), gain_csv),
            ("vm_campaign.csv".into(), campaign_csv),
        ],
        metrics,
        spans: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_deterministic_and_conserves_faults() {
        let r1 = report(12, 1);
        let r2 = report(12, 1);
        assert_eq!(r1.text, r2.text);
        assert_eq!(r1.data, r2.data);
        // every campaign row balances and detects something
        for line in r1.data[1].1.lines().skip(1) {
            let f: Vec<&str> = line.split(',').collect();
            let injected: u64 = f[2].parse().unwrap();
            let detected: u64 = f[3].parse().unwrap();
            let masked: u64 = f[4].parse().unwrap();
            let escaped: u64 = f[5].parse().unwrap();
            assert_eq!(detected + masked + escaped, injected, "{line}");
            assert!(detected > 0, "coverage must be > 0: {line}");
        }
    }

    #[test]
    fn smt_schemes_beat_the_serial_baseline_on_every_program() {
        let r = report(1, 1);
        for line in r.data[0].1.lines().skip(1) {
            let f: Vec<&str> = line.split(',').collect();
            let g: f64 = f[4].parse().unwrap();
            if f[1] == "conventional" {
                assert!((g - 1.0).abs() < 1e-12, "{line}");
            } else {
                assert!(g > 1.0, "SMT scheme must beat serial: {line}");
            }
        }
    }
}
