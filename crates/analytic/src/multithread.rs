//! §5 outlook — more than two hardware threads, and the
//! clock-frequency-reduction trade.
//!
//! The paper sketches two "boosted" recovery variants for processors with
//! more hardware threads, both of which keep fault detection *during*
//! roll-forward (unlike the §4 predictive scheme):
//!
//! * **3-thread probabilistic**: versions 1 and 2 run `i` rounds each in
//!   two separate threads (from the chosen common state) while version 3
//!   retries in the third.
//! * **5-thread deterministic**: versions 1 and 2 run `i` rounds each
//!   starting from *both* candidate states (four roll-forward threads)
//!   while version 3 retries — guaranteed full progress.
//!
//! The paper gives no formulas for these; we derive them with the natural
//! generalisation of α to `k` co-scheduled threads and document the model
//! here (see `DESIGN.md` for the substitution note).
//!
//! ## The `α_k` contention model
//!
//! With `k` threads co-scheduled, `k` rounds of work complete in wall time
//! `k·α_k·t`, where `α_k = 1` means full serialisation and `α_k = 1/k`
//! perfect overlap. We interpolate from the measured 2-way factor `α₂` via
//! a machine "contention coefficient" `γ = 2α₂ − 1 ∈ [0, 1]`:
//!
//! `α_k = 1/k + γ·(1 − 1/k)`
//!
//! which is exact at both extremes and recovers `α₂` at `k = 2`. A real
//! machine saturates faster (shared issue width); callers can override
//! `alpha_k` with measurements from `vds-smtsim`.

use crate::math::consts::LN_2;
use crate::params::Params;
use crate::schemes::Scheme;
use crate::timing::{t1_corr, t1_round};

/// Generalised contention factor `α_k` interpolated from the 2-way `α₂`.
///
/// # Panics
/// Panics if `k == 0` or `alpha2 ∉ [0.5, 1]`.
pub fn alpha_k(alpha2: f64, k: u32) -> f64 {
    assert!(k >= 1, "need at least one thread");
    assert!((0.5..=1.0).contains(&alpha2), "alpha2 must be in [0.5, 1]");
    let gamma = 2.0 * alpha2 - 1.0;
    let inv_k = 1.0 / f64::from(k);
    inv_k + gamma * (1.0 - inv_k)
}

/// Wall time for `k` co-scheduled threads to execute one round each.
pub fn round_wall_time(p: &Params, k: u32) -> f64 {
    f64::from(k) * alpha_k(p.alpha, k) * p.t
}

/// Recovery time of a `k`-thread boosted scheme for a fault at round `i`:
/// all `k` threads run `i` rounds co-scheduled, then two comparisons.
pub fn boosted_corr_time(p: &Params, k: u32, i: u32) -> f64 {
    f64::from(i) * round_wall_time(p, k) + 2.0 * p.t_cmp
}

/// Exact gain of the 3-thread boosted probabilistic scheme at round `i`:
/// progress `min(i, s−i)` with probability `p_correct` (detection during
/// roll-forward is retained, so a wrong pick is discovered but useless).
pub fn g_boost3_exact(p: &Params, i: u32, p_correct: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p_correct));
    let progress = Scheme::SmtBoosted3.progress(p, i);
    (t1_corr(p, i) + p_correct * progress * t1_round(p)) / boosted_corr_time(p, 3, i)
}

/// Exact gain of the 5-thread boosted deterministic scheme at round `i`:
/// guaranteed progress `min(i, s−i)`.
pub fn g_boost5_exact(p: &Params, i: u32) -> f64 {
    let progress = Scheme::SmtBoosted5.progress(p, i);
    (t1_corr(p, i) + progress * t1_round(p)) / boosted_corr_time(p, 5, i)
}

/// Average 3-thread boosted gain over `i = 1..s`.
pub fn gbar_boost3_exact(p: &Params, p_correct: f64) -> f64 {
    (1..=p.s)
        .map(|i| g_boost3_exact(p, i, p_correct))
        .sum::<f64>()
        / f64::from(p.s)
}

/// Average 5-thread boosted gain over `i = 1..s`.
pub fn gbar_boost5_exact(p: &Params) -> f64 {
    (1..=p.s).map(|i| g_boost5_exact(p, i)).sum::<f64>() / f64::from(p.s)
}

/// Approximate (`c, t' ≪ t`) averages, mirroring the 2-thread Eq. (13)
/// derivation with denominator `k·α_k` instead of `2α`:
/// `Ḡ_boost,k ≈ (1 + 2p·ln2) / (k·α_k)`.
pub fn gbar_boost_approx(p: &Params, k: u32, p_correct: f64) -> f64 {
    (1.0 + 2.0 * p_correct * LN_2) / (f64::from(k) * alpha_k(p.alpha, k))
}

/// §5 clock trade: the factor by which an SMT processor's clock may be
/// reduced while still matching the conventional VDS's *normal-processing*
/// rate ("a clock frequency reduced by a factor of at least 1/α").
///
/// Returns the frequency ratio `f_smt / f_conv` required for equality of
/// round times, i.e. `THT2_round(scaled) = T1_round`. With negligible
/// overheads this is exactly `α`.
pub fn equal_performance_clock_ratio(p: &Params) -> f64 {
    // All SMT activity stretches by 1/ratio; solve
    // (2αt + t') / ratio = 2(t+c) + t'.
    (2.0 * p.alpha * p.t + p.t_cmp) / (2.0 * (p.t + p.c) + p.t_cmp)
}

/// Crude dynamic-power ratio for the clock trade, assuming voltage scales
/// with frequency (`P ∝ f·V² ∝ f³`): running the SMT part at ratio `r`
/// costs `r³` of the conventional processor's dynamic power.
pub fn dynamic_power_ratio(clock_ratio: f64) -> f64 {
    clock_ratio.powi(3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_k_extremes_and_midpoint() {
        // perfect machine: α₂ = ½ ⇒ α_k = 1/k
        assert!((alpha_k(0.5, 4) - 0.25).abs() < 1e-12);
        // serial machine: α₂ = 1 ⇒ α_k = 1
        assert!((alpha_k(1.0, 4) - 1.0).abs() < 1e-12);
        // recovers α₂ at k = 2
        assert!((alpha_k(0.65, 2) - 0.65).abs() < 1e-12);
        // single thread always α₁ = 1 (no co-run stretch)
        assert!((alpha_k(0.65, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn alpha_k_monotone_in_k_for_real_machines() {
        // For γ < 1 the per-thread efficiency improves with k in this
        // model (wall time grows sublinearly): k·α_k increasing, α_k
        // decreasing.
        let mut last_wall = 0.0;
        let mut last_alpha = 2.0;
        for k in 1..=8 {
            let a = alpha_k(0.65, k);
            let wall = f64::from(k) * a;
            assert!(wall > last_wall, "k={k}");
            assert!(a < last_alpha, "k={k}");
            last_wall = wall;
            last_alpha = a;
        }
    }

    #[test]
    fn boosted_gains_paper_point() {
        let p = Params::paper_default();
        // 3-thread probabilistic with random picks must beat the 2-thread
        // predictive random scheme in progress terms... but it pays 3-way
        // contention. Sanity: all gains positive and finite.
        let g3 = gbar_boost3_exact(&p, 0.5);
        let g5 = gbar_boost5_exact(&p);
        assert!(g3 > 0.5 && g3.is_finite());
        assert!(g5 > 0.5 && g5.is_finite());
        // With perfect prediction the 3-thread scheme beats its random self.
        assert!(gbar_boost3_exact(&p, 1.0) > g3);
    }

    #[test]
    fn boost5_guarantees_what_boost3_only_expects() {
        // At equal contention, deterministic 5-thread progress equals the
        // 3-thread scheme's progress with p = 1, but it pays 5-way
        // contention; with p = 1 the 3-thread variant must win.
        let p = Params::paper_default();
        assert!(gbar_boost3_exact(&p, 1.0) > gbar_boost5_exact(&p));
    }

    #[test]
    fn boost_approx_tracks_exact_at_beta_zero() {
        let p = Params::with_beta(0.65, 0.0, 100);
        let e = gbar_boost3_exact(&p, 0.5);
        let a = gbar_boost_approx(&p, 3, 0.5);
        assert!((e - a).abs() / a < 0.05, "exact={e} approx={a}");
    }

    #[test]
    fn clock_ratio_close_to_alpha() {
        let p = Params::with_beta(0.65, 0.0, 20);
        assert!((equal_performance_clock_ratio(&p) - 0.65).abs() < 1e-12);
        // with overheads the SMT side needs even less frequency
        let p2 = Params::paper_default();
        assert!(equal_performance_clock_ratio(&p2) < 0.65);
    }

    #[test]
    fn power_cubes() {
        assert!((dynamic_power_ratio(0.65) - 0.65f64.powi(3)).abs() < 1e-12);
        assert!(dynamic_power_ratio(0.65) < 0.3); // >70% dynamic power saved
    }
}
