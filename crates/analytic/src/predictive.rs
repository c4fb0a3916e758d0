//! §4 — prediction-guided roll-forward *without* fault detection during
//! roll-forward (Eqs. 9–13) and the `G_max` limit.
//!
//! If the VDS refrains from comparisons during roll-forward, thread 2 can
//! simply continue **one** version for `i` further rounds while thread 1
//! retries version 3. A fault-version predictor (crash evidence, fault
//! history — see `vds-predictor`) guesses which version is faulty with
//! probability `p` of being right:
//!
//! * correct guess → roll-forward of `min(i, s−i)` rounds survives the
//!   vote (Eqs. 9–10);
//! * wrong guess → the roll-forward is worthless and the SMT system merely
//!   matches a conventional retry (Eq. 11).

use crate::math::clamp_rollforward;
use crate::params::Params;
use crate::timing::{t1_corr, t1_round, tht2_corr};

/// Roll-forward progress of the predictive scheme when the guess is
/// correct: `min(i, s − i)` rounds.
pub fn hit_progress(p: &Params, i: u32) -> f64 {
    clamp_rollforward(f64::from(i), p.s, i)
}

/// Eqs. (9)–(10), exact: gain when the fault-free version was predicted
/// correctly.
///
/// For `i ≤ s/2` this expands to the paper's
/// `(3it + (2+i)t' + 2ic) / (2iαt + 2t')`, and for `i > s/2` to
/// `((2s−i)t + (2+s−i)t' + 2(s−i)c) / (2iαt + 2t')`.
pub fn g_hit_exact(p: &Params, i: u32) -> f64 {
    (t1_corr(p, i) + hit_progress(p, i) * t1_round(p)) / tht2_corr(p, i)
}

/// Eq. (10), approximate: `3/(2α)` for `i ≤ s/2`, `(2s/i − 1)/(2α)` beyond.
pub fn g_hit_approx(p: &Params, i: u32) -> f64 {
    let (i_f, s_f) = (f64::from(i), f64::from(p.s));
    if i_f <= s_f / 2.0 {
        3.0 / (2.0 * p.alpha)
    } else {
        (2.0 * s_f / i_f - 1.0) / (2.0 * p.alpha)
    }
}

/// Eq. (11), exact: the *loss* factor when the guess was wrong — the
/// roll-forward contributed nothing, so this is just
/// `T1_corr / THT2_corr = (it + 2t') / (2iαt + 2t')`.
pub fn l_miss_exact(p: &Params, i: u32) -> f64 {
    t1_corr(p, i) / tht2_corr(p, i)
}

/// Eq. (11), approximate: `1/(2α)` — "in the best case (α = ½) the
/// hyperthreaded processor loses nothing … in the worst case it loses a
/// factor of two".
pub fn l_miss_approx(p: &Params) -> f64 {
    1.0 / (2.0 * p.alpha)
}

/// Eq. (12), exact: expected gain for a fault at round `i` with prediction
/// accuracy `p_correct`:
/// `G_corr(i) = p·G_hit(i) + (1−p)·L_miss(i)`.
pub fn g_corr_exact(p: &Params, i: u32, p_correct: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p_correct));
    p_correct * g_hit_exact(p, i) + (1.0 - p_correct) * l_miss_exact(p, i)
}

/// Eq. (13), exact: `Ḡ_corr = (1/s) Σ_{i=1}^{s} G_corr(i)` using the exact
/// per-round gains. **This is the quantity plotted in Figures 4 and 5**
/// ("we obtain the figures not by using the approximated values … but by
/// using exact equations (10), (11), (12), (13), and (14)").
pub fn gbar_corr_exact(p: &Params, p_correct: f64) -> f64 {
    (1..=p.s)
        .map(|i| g_corr_exact(p, i, p_correct))
        .sum::<f64>()
        / f64::from(p.s)
}

/// Eq. (13), approximate: `Ḡ_corr ≈ (1 + 2p·ln2) / (2α)`.
pub fn gbar_corr_approx(p: &Params, p_correct: f64) -> f64 {
    (1.0 + 2.0 * p_correct * crate::math::consts::LN_2) / (2.0 * p.alpha)
}

/// Minimum prediction accuracy for the predictive scheme to gain
/// (`Ḡ_corr ≥ 1`): `p ≥ (α − ½)/ln2`. Zero when even random guessing
/// gains; can exceed 1 only for α beyond [`alpha_threshold_for_p`]\(1\).
pub fn p_threshold(alpha: f64) -> f64 {
    ((alpha - 0.5) / crate::math::consts::LN_2).max(0.0)
}

/// Largest α at which accuracy `p` still yields `Ḡ_corr ≥ 1`:
/// `α ≤ ½ + p·ln2`. For random guesses (p = ½) this is
/// `(1 + ln2)/2 ≈ 0.847`.
pub fn alpha_threshold_for_p(p_correct: f64) -> f64 {
    0.5 + p_correct * crate::math::consts::LN_2
}

/// The large-`s` limit of the exact Eq. (13) under the `c = t' = βt`
/// normalisation:
///
/// `G_max = lim_{s→∞} Ḡ_corr = (1 + (2 + 3β)·ln2·p) / (2α)`.
///
/// For β = 0.1 this is the paper's `(1 + (23·ln2/10)·p) / (2α)`; at
/// `p = 0.5, α = 0.65` it evaluates to ≈ 1.38 (the headline number), and
/// the paper notes `Ḡ_corr` is already very close to this limit at s = 20.
pub fn g_max(alpha: f64, beta: f64, p_correct: f64) -> f64 {
    (1.0 + (2.0 + 3.0 * beta) * crate::math::consts::LN_2 * p_correct) / (2.0 * alpha)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> Params {
        Params::paper_default()
    }

    #[test]
    fn eq10_exact_matches_papers_expansion() {
        let p = paper();
        let (t, tp, c, a) = (p.t, p.t_cmp, p.c, p.alpha);
        for i in 1..=p.s {
            let i_f = f64::from(i);
            let s_f = f64::from(p.s);
            let expect = if i_f <= s_f / 2.0 {
                (3.0 * i_f * t + (2.0 + i_f) * tp + 2.0 * i_f * c) / (2.0 * i_f * a * t + 2.0 * tp)
            } else {
                ((2.0 * s_f - i_f) * t + (2.0 + s_f - i_f) * tp + 2.0 * (s_f - i_f) * c)
                    / (2.0 * i_f * a * t + 2.0 * tp)
            };
            let got = g_hit_exact(&p, i);
            assert!((got - expect).abs() < 1e-12, "i={i}: {got} vs {expect}");
        }
    }

    #[test]
    fn eq10_approx_for_small_beta() {
        let p = Params::with_beta(0.7, 1e-9, 20);
        for i in 1..=20 {
            assert!(
                (g_hit_exact(&p, i) - g_hit_approx(&p, i)).abs() < 1e-6,
                "i={i}"
            );
        }
    }

    #[test]
    fn eq11_miss_bounds() {
        // best case α = ½ loses nothing, worst case α = 1 loses 2×
        let best = Params::with_beta(0.5, 0.0, 20);
        let worst = Params::with_beta(1.0, 0.0, 20);
        assert!((l_miss_approx(&best) - 1.0).abs() < 1e-12);
        assert!((l_miss_approx(&worst) - 0.5).abs() < 1e-12);
        for i in 1..=20 {
            assert!(l_miss_exact(&best, i) <= 1.0 + 1e-9);
            assert!(l_miss_exact(&worst, i) >= 0.5 - 1e-9);
        }
    }

    #[test]
    fn eq12_is_convex_combination() {
        let p = paper();
        for i in [1u32, 10, 20] {
            let hit = g_hit_exact(&p, i);
            let miss = l_miss_exact(&p, i);
            let mid = g_corr_exact(&p, i, 0.5);
            assert!((mid - 0.5 * (hit + miss)).abs() < 1e-12);
            assert_eq!(g_corr_exact(&p, i, 1.0), hit);
            assert_eq!(g_corr_exact(&p, i, 0.0), miss);
        }
    }

    #[test]
    fn eq13_approx_vs_exact_at_beta_zero() {
        for &pc in &[0.5, 0.75, 1.0] {
            let p = Params::with_beta(0.65, 0.0, 100);
            let e = gbar_corr_exact(&p, pc);
            let a = gbar_corr_approx(&p, pc);
            assert!((e - a).abs() < 0.02, "pc={pc}: exact={e} approx={a}");
        }
    }

    #[test]
    fn predictive_beats_detecting_schemes_for_p_at_least_half() {
        // Paper: Ḡ_corr > Ḡ_prob, Ḡ_det for p ≥ 0.5.
        let p = Params::with_beta(0.65, 0.0, 20);
        for &pc in &[0.5, 0.7, 1.0] {
            let corr = gbar_corr_approx(&p, pc);
            let prob = crate::rollforward::gbar_prob_approx(&p, pc);
            let det = crate::rollforward::gbar_det_approx(&p);
            assert!(corr > prob, "pc={pc}");
            assert!(corr > det, "pc={pc}");
        }
    }

    #[test]
    fn thresholds_match_paper() {
        // p ≥ (α − ½)/ln2
        assert!((p_threshold(0.65) - 0.15 / std::f64::consts::LN_2).abs() < 1e-12);
        assert_eq!(p_threshold(0.5), 0.0); // "α = 0.5: we always gain"
                                           // α ≤ (1 + ln2)/2 ≈ 0.847 for random guessing
        let thr = alpha_threshold_for_p(0.5);
        assert!((thr - 0.8466).abs() < 1e-3, "thr={thr}");
    }

    #[test]
    fn g_max_headline_number() {
        // Paper: p = 0.5, α = 0.65, β = 0.1 ⇒ G_max ≈ 1.38.
        let g = g_max(0.65, 0.1, 0.5);
        assert!((g - 1.38).abs() < 0.01, "G_max={g}");
        // And the β = 0.1 coefficient is exactly 23·ln2/10.
        let g2 = (1.0 + 23.0 * std::f64::consts::LN_2 / 10.0 * 0.5) / (2.0 * 0.65);
        assert!((g - g2).abs() < 1e-12);
    }

    #[test]
    fn g_max_alpha_near_one_does_not_lose() {
        // Paper: even with <10% multithreading improvement (α ≈ 0.9+),
        // G_max ≈ 1.0 — "we still would not lose".
        let g = g_max(0.92, 0.1, 0.5);
        assert!(g > 0.97 && g < 1.2, "g={g}");
    }

    #[test]
    fn s20_is_close_to_the_limit() {
        // Paper: "beyond s = 20, Ḡ_corr is already very close to the
        // limit, independently of the values for α and β".
        for &(alpha, beta) in &[(0.5, 0.0), (0.65, 0.1), (0.9, 0.5), (1.0, 1.0)] {
            for &pc in &[0.5, 1.0] {
                let p20 = Params::with_beta(alpha, beta, 20);
                let g20 = gbar_corr_exact(&p20, pc);
                let lim = g_max(alpha, beta, pc);
                let rel = (g20 - lim).abs() / lim;
                // The finite-s correction carries O(β/i) terms, so the
                // extreme β = 1 corner converges more slowly; the paper's
                // "very close" claim is tightest at realistic β.
                let tol = if beta >= 1.0 { 0.15 } else { 0.08 };
                assert!(
                    rel < tol,
                    "alpha={alpha} beta={beta} p={pc}: {g20} vs {lim}"
                );
            }
        }
    }

    #[test]
    fn exact_gbar_converges_to_g_max() {
        let (alpha, beta, pc) = (0.65, 0.1, 0.5);
        let mut last_err = f64::INFINITY;
        for &s in &[10u32, 40, 160, 640] {
            let p = Params::with_beta(alpha, beta, s);
            let err = (gbar_corr_exact(&p, pc) - g_max(alpha, beta, pc)).abs();
            assert!(err < last_err, "s={s}: err={err} last={last_err}");
            last_err = err;
        }
        assert!(last_err < 2e-3);
    }
}
