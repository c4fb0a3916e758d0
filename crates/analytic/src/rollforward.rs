//! §3.3 — recovery gains for the roll-forward schemes *with* fault
//! detection during roll-forward (Eqs. 6–8).
//!
//! After a mismatch at round `i`, thread 1 replays version 3 for `i` rounds
//! while thread 2 rolls forward. Let `P`, `Q` be the two candidate states
//! (the end-of-round-`i` states of versions 1 and 2; exactly one is
//! fault-free, but which is unknown until the vote).
//!
//! * **Deterministic** scheme: thread 2 runs `i/4` rounds of each version
//!   starting from each state (4 segments, `i` rounds total, one context
//!   switch). The two segments seeded by the fault-free state constitute
//!   guaranteed progress of `i/4` rounds.
//! * **Probabilistic** scheme: thread 2 picks one state `R ∈ {P, Q}` and
//!   runs both versions `i/2` rounds from it. If `R` was fault-free
//!   (probability `p`; `p = ½` for a random pick) the progress is `i/2`
//!   rounds, otherwise zero.
//!
//! Roll-forward never crosses the checkpoint horizon: intended progress `x`
//! becomes `min(x, s − i)` ([`Scheme::progress`]).
//!
//! The gain compares conventional correction time *plus* the conventional
//! cost of the rounds the SMT system is now ahead by, against the SMT
//! correction time:
//! `G(i) = (T1_corr + progress·T1_round) / THT2_corr`.

use crate::params::Params;
use crate::schemes::Scheme;
use crate::timing::{t1_corr, t1_round, tht2_corr};

/// Eq. (6), exact: gain of the deterministic scheme for a fault at round
/// `i`.
pub fn g_det_exact(p: &Params, i: u32) -> f64 {
    (t1_corr(p, i) + Scheme::SmtDeterministic.progress(p, i) * t1_round(p)) / tht2_corr(p, i)
}

/// Eq. (6), approximate (`c, t' ≪ t`):
/// `3/(4α)` for `i ≤ 4s/5`, `(2s − i)/(2iα)` beyond.
pub fn g_det_approx(p: &Params, i: u32) -> f64 {
    let (i_f, s_f) = (f64::from(i), f64::from(p.s));
    if i_f <= 4.0 * s_f / 5.0 {
        3.0 / (4.0 * p.alpha)
    } else {
        (2.0 * s_f - i_f) / (2.0 * i_f * p.alpha)
    }
}

/// Average of Eq. (6) over `i = 1..s` (faults uniform over rounds), exact.
pub fn gbar_det_exact(p: &Params) -> f64 {
    (1..=p.s).map(|i| g_det_exact(p, i)).sum::<f64>() / f64::from(p.s)
}

/// Eq. (7): `Ḡ_det ≈ (1 + 2·ln(5/4)) / (2α) ≈ 0.7231/α`.
///
/// The deterministic scheme beats the conventional VDS whenever
/// `α < (1 + 2·ln(5/4))/2 ≈ 0.723` — "a medium utilization of the
/// processor suffices to gain".
pub fn gbar_det_approx(p: &Params) -> f64 {
    (1.0 + 2.0 * crate::math::consts::ln_5_4()) / (2.0 * p.alpha)
}

/// The α below which the deterministic scheme's average gain exceeds 1
/// (paper: ≈ 0.723).
pub fn det_alpha_threshold() -> f64 {
    (1.0 + 2.0 * crate::math::consts::ln_5_4()) / 2.0
}

/// Probabilistic-scheme gain for a fault at round `i` given pick-accuracy
/// `p_correct`, exact. A correct pick advances `min(i/2, s−i)` rounds, a
/// wrong pick advances nothing (but costs the same SMT time), so the
/// expected catch-up value scales by `p_correct`.
pub fn g_prob_exact(p: &Params, i: u32, p_correct: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p_correct));
    let progress = Scheme::SmtProbabilistic.progress(p, i);
    (t1_corr(p, i) + p_correct * progress * t1_round(p)) / tht2_corr(p, i)
}

/// Average probabilistic gain over `i = 1..s`, exact.
pub fn gbar_prob_exact(p: &Params, p_correct: f64) -> f64 {
    (1..=p.s)
        .map(|i| g_prob_exact(p, i, p_correct))
        .sum::<f64>()
        / f64::from(p.s)
}

/// Eq. (8): `Ḡ_prob ≈ (1 + 2p·ln(3/2)) / (2α)` — "for p = 0.5, a random
/// choice, [Eqs. (7)] and [(8)] have approximately equal values".
pub fn gbar_prob_approx(p: &Params, p_correct: f64) -> f64 {
    (1.0 + 2.0 * p_correct * crate::math::consts::ln_3_2()) / (2.0 * p.alpha)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> Params {
        Params::paper_default()
    }

    #[test]
    fn det_approx_piecewise_boundary() {
        let p = paper();
        // below 4s/5 = 16 the approximation is constant 3/(4α)
        let g = 3.0 / (4.0 * p.alpha);
        assert_eq!(g_det_approx(&p, 1), g);
        assert_eq!(g_det_approx(&p, 16), g);
        // at i = s it degenerates to plain retry ratio 1/(2α)
        assert!((g_det_approx(&p, 20) - 1.0 / (2.0 * p.alpha)).abs() < 1e-12);
    }

    #[test]
    fn exact_approaches_approx_for_small_beta() {
        let p = Params::with_beta(0.65, 1e-9, 20);
        for i in 1..=20 {
            let e = g_det_exact(&p, i);
            let a = g_det_approx(&p, i);
            assert!((e - a).abs() < 1e-6, "i={i}: exact={e} approx={a}");
        }
    }

    #[test]
    fn eq7_average_value() {
        // Ḡ_det ≈ 0.7231/α; the paper's α-threshold for gain > 1 is 0.723.
        let thr = det_alpha_threshold();
        assert!((thr - 0.723).abs() < 5e-4, "threshold={thr}");
        let p = Params::with_beta(0.65, 0.0, 20);
        let approx = gbar_det_approx(&p);
        assert!((approx - 0.7231 / 0.65).abs() < 1e-3);
        // exact (with β = 0) agrees with the log-approximation to O(1/s)
        let exact = gbar_det_exact(&p);
        assert!(
            (exact - approx).abs() < 0.05,
            "exact={exact} approx={approx}"
        );
    }

    #[test]
    fn eq8_probabilistic_average() {
        let p = Params::with_beta(0.65, 0.0, 20);
        // p = 0.5: det and prob approximately equal (paper statement)
        let det = gbar_det_approx(&p);
        let prob = gbar_prob_approx(&p, 0.5);
        assert!(
            (det - prob).abs() / det < 0.03,
            "det={det} prob={prob} should be ~equal at p=0.5"
        );
        // p > 0.5: prob wins
        assert!(gbar_prob_approx(&p, 0.8) > det);
        assert!(gbar_prob_approx(&p, 1.0) > gbar_prob_approx(&p, 0.8));
    }

    #[test]
    fn exact_prob_average_matches_approx_at_beta_zero() {
        let p = Params::with_beta(0.6, 0.0, 40);
        for &pc in &[0.5, 0.75, 1.0] {
            let e = gbar_prob_exact(&p, pc);
            let a = gbar_prob_approx(&p, pc);
            assert!((e - a).abs() < 0.04, "pc={pc} exact={e} approx={a}");
        }
    }

    #[test]
    fn gain_monotone_decreasing_in_alpha() {
        for i in [1u32, 8, 15, 20] {
            let mut last = f64::INFINITY;
            for &a in &[0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
                let p = Params::with_beta(a, 0.1, 20);
                let g = g_det_exact(&p, i);
                assert!(g <= last + 1e-12, "not monotone at alpha={a}, i={i}");
                last = g;
            }
        }
    }

    #[test]
    fn perfect_overlap_always_gains() {
        // α = 0.5: SMT runs the retry at no extra wall cost versus one
        // version; every scheme must gain over the conventional processor.
        let p = Params::with_beta(0.5, 0.1, 20);
        assert!(gbar_det_exact(&p) > 1.0);
        assert!(gbar_prob_exact(&p, 0.5) > 1.0);
    }

    #[test]
    #[should_panic]
    fn prob_rejects_bad_probability() {
        g_prob_exact(&paper(), 5, 1.5);
    }
}
