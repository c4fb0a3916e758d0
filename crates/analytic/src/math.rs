//! Harmonic sums and the logarithmic tail approximations used by the paper.
//!
//! The averages over the fault round `i` reduce to partial harmonic sums
//! `Σ_{i=n+1}^{m} 1/i`, which the paper approximates by `ln(m/n)`
//! (ln 5/4, ln 3/2, ln 2 for the three schemes). We provide both the exact
//! sums and the approximations so tests can bound the approximation error.

/// Exact partial harmonic sum `Σ_{i=lo}^{hi} 1/i` (inclusive; 0 when
/// `lo > hi`).
pub fn harmonic_between(lo: u32, hi: u32) -> f64 {
    if lo > hi || lo == 0 {
        return 0.0;
    }
    (lo..=hi).map(|i| 1.0 / f64::from(i)).sum()
}

/// Exact harmonic number `H(n) = Σ_{i=1}^{n} 1/i`.
pub fn harmonic(n: u32) -> f64 {
    harmonic_between(1, n)
}

/// ln 2, ln(3/2), ln(5/4) — the three constants appearing in Eqs. (7), (8),
/// (13). Exposed so gain formulas read like the paper.
pub mod consts {
    /// `ln 2 ≈ 0.6931`.
    pub const LN_2: f64 = std::f64::consts::LN_2;
    /// `ln(3/2) ≈ 0.4055` (the paper rounds to 0.405).
    pub fn ln_3_2() -> f64 {
        1.5f64.ln()
    }
    /// `ln(5/4) ≈ 0.2231`.
    pub fn ln_5_4() -> f64 {
        1.25f64.ln()
    }
}

/// Clamp the roll-forward length at the checkpoint horizon: when the scheme
/// intends to advance `x` rounds after a fault at round `i` with checkpoint
/// interval `s`, it really advances `min(x, s − i)` rounds (real-valued,
/// following the paper's "we do not consider the detail that i/2 may not be
/// an integer").
pub fn clamp_rollforward(x: f64, s: u32, i: u32) -> f64 {
    debug_assert!(i >= 1 && i <= s);
    x.min(f64::from(s) - f64::from(i)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_small_values() {
        assert_eq!(harmonic(1), 1.0);
        assert!((harmonic(2) - 1.5).abs() < 1e-15);
        assert!((harmonic(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-15);
        assert_eq!(harmonic(0), 0.0);
    }

    #[test]
    fn between_is_difference_of_harmonics() {
        let a = harmonic_between(6, 10);
        let b = harmonic(10) - harmonic(5);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn empty_ranges_are_zero() {
        assert_eq!(harmonic_between(5, 4), 0.0);
        assert_eq!(harmonic_between(0, 10), 0.0);
    }

    #[test]
    fn tail_approx_converges() {
        // Σ_{i=n+1}^{2n} 1/i → ln 2; error is O(1/n).
        for &n in &[10u32, 100, 1000] {
            let exact = harmonic_between(n + 1, 2 * n);
            let err = (exact - consts::LN_2).abs();
            assert!(err < 1.0 / f64::from(n), "n={n} err={err}");
        }
    }

    #[test]
    #[allow(clippy::approx_constant)]
    fn paper_constants() {
        assert!((consts::ln_5_4() - 0.2231).abs() < 5e-4);
        assert!((consts::ln_3_2() - 0.4055).abs() < 5e-4);
        assert!((consts::LN_2 - 0.6931).abs() < 5e-4);
    }

    #[test]
    fn clamp_behaviour() {
        // fault early: full roll-forward
        assert_eq!(clamp_rollforward(5.0, 20, 4), 5.0);
        // fault late: clipped to the checkpoint horizon
        assert_eq!(clamp_rollforward(5.0, 20, 18), 2.0);
        // fault at the checkpoint: nothing to gain
        assert_eq!(clamp_rollforward(5.0, 20, 20), 0.0);
    }
}
