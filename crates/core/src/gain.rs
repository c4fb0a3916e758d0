//! Measured-gain helpers: simulating recovery incidents one by one to
//! measure the per-incident gains the paper's equations predict.

use crate::abstract_vds::{simulate_incident, AbstractConfig};
use crate::config::{Scheme, Victim};
use vds_analytic::timing;

/// Measured per-incident recovery gain for a fault at round `i`:
/// `(T1_corr + progress·T1_round) / THT2_corr(measured)` — the exact
/// quantity Eqs. (6), (9)–(12) model, with the engine's *integral*
/// roll-forward progress.
pub fn incident_gain(cfg: &AbstractConfig, i: u32, pick_correct: Option<bool>) -> f64 {
    let inc = simulate_incident(cfg, i, Victim::V1, pick_correct);
    let p = &cfg.params;
    (timing::t1_corr(p, i) + f64::from(inc.progress) * timing::t1_round(p)) / inc.recovery_time
}

/// Average measured gain over all fault rounds `i = 1..=s`, with picks
/// resolved by expectation: `p·gain(hit) + (1−p)·gain(miss)`.
pub fn average_incident_gain(cfg: &AbstractConfig, p_correct: f64) -> f64 {
    let s = cfg.params.s;
    (1..=s)
        .map(|i| {
            if cfg.scheme.progress_guaranteed() || cfg.scheme == Scheme::Conventional {
                incident_gain(cfg, i, None)
            } else {
                p_correct * incident_gain(cfg, i, Some(true))
                    + (1.0 - p_correct) * incident_gain(cfg, i, Some(false))
            }
        })
        .sum::<f64>()
        / f64::from(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duplex::rollforward_window;
    use vds_analytic::Params;

    /// The analytic average the engine should match, evaluated with the
    /// same integral roll-forward progress the engine performs (the
    /// paper's real-valued `i/2`, `i/4` are replaced by their floors).
    fn analytic_average_integral(params: &Params, scheme: Scheme, p_correct: f64) -> f64 {
        let s = params.s;
        (1..=s)
            .map(|i| {
                let x = f64::from(rollforward_window(scheme, i, s));
                let corr = scheme.corr_time(params, i);
                let hit = (timing::t1_corr(params, i) + x * timing::t1_round(params)) / corr;
                let miss = timing::t1_corr(params, i) / corr;
                if scheme == Scheme::Conventional {
                    // the reference architecture: gain over itself is 1
                    1.0
                } else if scheme.progress_guaranteed() {
                    hit
                } else {
                    p_correct * hit + (1.0 - p_correct) * miss
                }
            })
            .sum::<f64>()
            / f64::from(s)
    }

    fn cfg(scheme: Scheme) -> AbstractConfig {
        AbstractConfig::new(Params::paper_default(), scheme)
    }

    #[test]
    fn engine_matches_integral_analytic_exactly_per_scheme() {
        // The engine and the integral-progress analytic evaluation must
        // agree to machine precision: same clamps, same floors, same
        // denominators.
        for scheme in [
            Scheme::SmtDeterministic,
            Scheme::SmtProbabilistic,
            Scheme::SmtPredictive,
            Scheme::SmtBoosted3,
            Scheme::SmtBoosted5,
        ] {
            for &p in &[0.0, 0.5, 1.0] {
                let measured = average_incident_gain(&cfg(scheme), p);
                let analytic = analytic_average_integral(&Params::paper_default(), scheme, p);
                assert!(
                    (measured - analytic).abs() < 1e-9,
                    "{scheme:?} p={p}: {measured} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn integral_average_close_to_papers_continuous_average() {
        // The paper's Eq. (13) uses real-valued roll-forward lengths; the
        // integral version differs only by O(1/s) + rounding. At s = 20
        // they should agree within a few percent for the predictive
        // scheme (whose x = min(i, s−i) is already integral!).
        let p = Params::paper_default();
        for &pc in &[0.5, 1.0] {
            let integral = analytic_average_integral(&p, Scheme::SmtPredictive, pc);
            let continuous = vds_analytic::predictive::gbar_corr_exact(&p, pc);
            assert!(
                (integral - continuous).abs() < 1e-9,
                "predictive x is integral; forms must coincide: {integral} vs {continuous}"
            );
        }
        // deterministic: floors genuinely differ, but only slightly
        let integral = analytic_average_integral(&p, Scheme::SmtDeterministic, 0.5);
        let continuous = vds_analytic::rollforward::gbar_det_exact(&p);
        assert!(
            (integral - continuous).abs() / continuous < 0.12,
            "{integral} vs {continuous}"
        );
        assert!(integral <= continuous, "flooring can only lose progress");
    }

    #[test]
    fn ordering_of_schemes_at_p_half() {
        // At p = 0.5 the paper's ordering: predictive ≥ prob ≈ det.
        let p_half = 0.5;
        let pred = average_incident_gain(&cfg(Scheme::SmtPredictive), p_half);
        let prob = average_incident_gain(&cfg(Scheme::SmtProbabilistic), p_half);
        let det = average_incident_gain(&cfg(Scheme::SmtDeterministic), p_half);
        assert!(pred > prob, "pred={pred} prob={prob}");
        assert!((prob - det).abs() < 0.15, "prob={prob} det={det}");
    }

    #[test]
    fn headline_gain_reproduced_by_the_engine() {
        // The paper's G_max ≈ 1.38 at (p=.5, α=.65, β=.1) — the engine's
        // measured average at s=20 should land within a few percent
        // (finite s + integral rounding).
        let g = average_incident_gain(&cfg(Scheme::SmtPredictive), 0.5);
        assert!((g - 1.38).abs() < 0.06, "measured {g}");
    }
}
