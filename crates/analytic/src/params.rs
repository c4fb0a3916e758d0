//! Model parameters.

/// The paper's headline contention factor α: two co-scheduled rounds on
/// the Pentium 4 with Hyper-Threading take `2·0.65·t`.
pub const PAPER_ALPHA: f64 = 0.65;

/// The overhead ratio `β = c/t = t'/t` (Eq. 14) of the paper's figures
/// and headline gain.
pub const PAPER_BETA: f64 = 0.1;

/// The checkpoint interval of the paper's figures, in rounds.
pub const PAPER_S: u32 = 20;

/// Parameters of the VDS performance model.
///
/// All times are in the same (arbitrary) unit; only ratios matter for the
/// gains. The paper reduces unknowns via Eq. (14): `c = t' = β·t` with
/// `0 ≤ β ≤ 1` (β = 0: overhead negligible; β = 1: a context switch or a
/// comparison is as expensive as a whole round — called "unrealistic" in
/// the paper) and usually sets `t = 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Time for one version to execute one round.
    pub t: f64,
    /// Context-switch time `c` (`c ≪ t` assumed by the approximations).
    pub c: f64,
    /// State-comparison time `t'` (`t' ≪ t` assumed by the approximations).
    pub t_cmp: f64,
    /// SMT contention factor `α ∈ [½, 1]`: two co-scheduled rounds take
    /// wall time `2αt`.
    pub alpha: f64,
    /// Checkpoint interval in rounds (`s ≥ 1`); the paper's figures use
    /// `s = 20`.
    pub s: u32,
}

impl Params {
    /// The paper's figure configuration: `t = 1`, `c = t' = β`,
    /// free `α`, given `s`.
    ///
    /// # Panics
    /// Panics if `alpha ∉ [0.5, 1]`, `beta` is negative or NaN, or
    /// `s == 0`. A β above 1 is accepted: the paper calls it unrealistic,
    /// not undefined.
    pub fn with_beta(alpha: f64, beta: f64, s: u32) -> Self {
        let p = Params {
            t: 1.0,
            c: beta,
            t_cmp: beta,
            alpha,
            s,
        };
        p.validate();
        p
    }

    /// The paper's headline operating point: [`PAPER_ALPHA`],
    /// [`PAPER_BETA`], [`PAPER_S`] (α = 0.65, β = 0.1, s = 20).
    pub fn paper_default() -> Self {
        Self::with_beta(PAPER_ALPHA, PAPER_BETA, PAPER_S)
    }

    /// Check invariants; called by constructors, public for custom builds.
    ///
    /// # Panics
    /// Panics on violated invariants, with a message naming the offender.
    pub fn validate(&self) {
        assert!(
            self.t > 0.0,
            "round time t must be positive, got {}",
            self.t
        );
        assert!(self.c >= 0.0, "context-switch time c must be >= 0");
        assert!(self.t_cmp >= 0.0, "comparison time t' must be >= 0");
        assert!(
            (0.5..=1.0).contains(&self.alpha),
            "alpha must be in [0.5, 1], got {}",
            self.alpha
        );
        assert!(self.s >= 1, "checkpoint interval s must be >= 1");
    }
}

impl Default for Params {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_headline_point() {
        let p = Params::paper_default();
        assert_eq!(p.alpha, 0.65);
        assert_eq!(p.c, 0.1);
        assert_eq!(p.t_cmp, 0.1);
        assert_eq!(p.s, 20);
        assert_eq!(p.t, 1.0);
    }

    #[test]
    fn with_beta_sets_both_overheads() {
        let p = Params::with_beta(0.7, 0.25, 10);
        assert_eq!(p.c, 0.25);
        assert_eq!(p.t_cmp, 0.25);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_alpha_below_half() {
        Params::with_beta(0.4, 0.1, 20);
    }

    #[test]
    #[should_panic(expected = "s must be")]
    fn rejects_zero_s() {
        Params::with_beta(0.65, 0.1, 0);
    }
}
