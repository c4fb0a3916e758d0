//! E13 — the §5 outlook: more than two hardware threads, and the clock
//! trade.
//!
//! * **Boosted variants**: 3-thread probabilistic and 5-thread
//!   deterministic recovery, evaluated with the `α_k` contention model
//!   and by the abstract engine.
//! * **Clock scaling**: "we could employ a multithreaded processor with a
//!   clock frequency reduced by a factor of at least 1/α" — the frequency
//!   ratio for equal performance and the implied dynamic-power saving.

use crate::Report;
use std::fmt::Write as _;
use vds_analytic::multithread::{alpha_k, dynamic_power_ratio, equal_performance_clock_ratio};
use vds_analytic::Params;
use vds_core::abstract_vds::AbstractConfig;
use vds_core::gain::average_incident_gain;
use vds_core::Scheme;

/// Regenerate the boosted-variant and clock-trade tables.
pub fn report() -> Report {
    let mut text = String::new();
    let mut csv = String::from("alpha,scheme,p,gbar_analytic,gbar_measured\n");
    let _ = writeln!(
        text,
        "recovery gain by scheme and α (s = 20, β = 0.1; α_k interpolated from α₂):"
    );
    let _ = writeln!(
        text,
        "{:>6} {:>12} {:>5} {:>10} {:>10}",
        "alpha", "scheme", "p", "analytic", "measured"
    );
    for &alpha in &[0.5, 0.65, 0.8] {
        let params = Params::with_beta(alpha, 0.1, 20);
        for (scheme, p) in [
            (Scheme::SmtPredictive, 0.5),
            (Scheme::SmtBoosted3, 0.5),
            (Scheme::SmtBoosted3, 1.0),
            (Scheme::SmtBoosted5, 1.0), // p irrelevant: guaranteed
        ] {
            let analytic = scheme.gbar(&params, p);
            let cfg = AbstractConfig::new(params, scheme);
            let measured = average_incident_gain(&cfg, p);
            let _ = writeln!(
                text,
                "{alpha:>6.2} {:>12} {p:>5.1} {analytic:>10.4} {measured:>10.4}",
                scheme.name()
            );
            let _ = writeln!(csv, "{alpha},{},{p},{analytic},{measured}", scheme.name());
        }
        let _ = writeln!(
            text,
            "        (α₂={alpha:.2} → α₃={:.3}, α₅={:.3})",
            alpha_k(alpha, 3),
            alpha_k(alpha, 5)
        );
    }

    let _ = writeln!(text, "\nclock trade (equal normal-processing performance):");
    let mut clock_csv = String::from("alpha,beta,clock_ratio,power_ratio\n");
    for &alpha in &[0.5, 0.65, 0.8, 0.95] {
        let params = Params::with_beta(alpha, 0.1, 20);
        let ratio = equal_performance_clock_ratio(&params);
        let power = dynamic_power_ratio(ratio);
        let _ = writeln!(
            text,
            "  α={alpha:.2}: f_smt/f_conv = {ratio:.3}, dynamic power ratio ≈ {power:.3}"
        );
        let _ = writeln!(clock_csv, "{alpha},0.1,{ratio},{power}");
    }
    Report {
        id: "E13",
        title: "§5 outlook — boosted multi-thread recovery and clock scaling",
        text,
        data: vec![
            ("boosted_gains.csv".into(), csv),
            ("clock_trade.csv".into(), clock_csv),
        ],
        metrics: Default::default(),
        spans: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_matches_analytic_within_integral_rounding() {
        let r = report();
        for line in r.data[0].1.lines().skip(1) {
            let f: Vec<&str> = line.split(',').collect();
            let analytic: f64 = f[3].parse().unwrap();
            let measured: f64 = f[4].parse().unwrap();
            assert!((analytic - measured).abs() / analytic < 0.02, "{line}");
        }
    }

    #[test]
    fn clock_ratio_saves_power() {
        let r = report();
        for line in r.data[1].1.lines().skip(1) {
            let f: Vec<&str> = line.split(',').collect();
            let ratio: f64 = f[2].parse().unwrap();
            let power: f64 = f[3].parse().unwrap();
            assert!(ratio < 1.0, "{line}");
            assert!(power < ratio, "cubing helps: {line}");
        }
    }

    #[test]
    fn boost3_with_perfect_pick_beats_two_thread_predictive() {
        // more parallel roll-forward at modest extra contention
        let params = Params::with_beta(0.65, 0.1, 20);
        let b3 = Scheme::SmtBoosted3.gbar(&params, 1.0);
        let p2 = Scheme::SmtPredictive.gbar(&params, 1.0);
        // the 3-thread scheme retains detection during roll-forward yet
        // approaches the predictive scheme's progress
        assert!(b3 > 0.8 * p2, "b3={b3} p2={p2}");
    }
}
