//! The paper's six recovery schemes and their closed forms.
//!
//! [`Scheme`] is the one scheme vocabulary of the workspace: the engines
//! in `vds-core` run it (`vds_core::Scheme` is this type), the
//! conformance tracker in `vds-obs` and the sweep exporters price it, and
//! journal headers and run reports carry its [`Scheme::name`], parsed
//! back once by [`Scheme::from_name`]. Each scheme is fixed by two rules
//! the paper states: its roll-forward length ([`Scheme::rollforward_intent`],
//! §3–5) and its recovery time ([`Scheme::corr_time`], Eq. 2 / Eq. 5, the
//! boosted variants via `α_k`). Everything else here follows from them
//! and the timing equations: normal-round time (Eq. 1 / Eq. 3), the
//! steady-state recovery gain ḡ (Eqs. 7, 8, 13 and the boosted averages),
//! and the whole-run gain those predict for a run's measured phase times.

use crate::multithread::{boosted_corr_time, gbar_boost3_exact, gbar_boost5_exact};
use crate::params::Params;
use crate::predictive::gbar_corr_exact;
use crate::rollforward::{gbar_det_exact, gbar_prob_exact};
use crate::timing::{g_round_exact, t1_corr, t1_round, tht2_corr, tht2_round};

/// Which recovery scheme (and hence which processor architecture and
/// execution model) the VDS uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// §3.1 — conventional processor, versions alternate with context
    /// switches; recovery is plain stop-and-retry.
    Conventional,
    /// §3.2 — 2-way SMT, deterministic roll-forward: `i/4` rounds of each
    /// version from each candidate state (guaranteed progress, fault
    /// detection retained).
    SmtDeterministic,
    /// §3.2 — 2-way SMT, probabilistic roll-forward: pick one candidate
    /// state, run both versions `i/2` rounds from it (progress with
    /// probability of a correct pick; fault detection retained).
    SmtProbabilistic,
    /// §4 — 2-way SMT, prediction-guided roll-forward: continue one
    /// version a full `i` rounds with **no comparisons** (maximal
    /// progress on a hit, nothing on a miss, and faults during the
    /// roll-forward go undetected).
    SmtPredictive,
    /// §5 — 3-thread boosted probabilistic: versions 1 and 2 each roll
    /// forward `i` rounds in their own threads (from the picked state)
    /// while version 3 retries; detection retained.
    SmtBoosted3,
    /// §5 — 5-thread boosted deterministic: both versions from both
    /// states, `i` rounds each; guaranteed progress with detection.
    SmtBoosted5,
}

impl Scheme {
    /// All schemes, in canonical order.
    pub const ALL: [Scheme; 6] = [
        Scheme::Conventional,
        Scheme::SmtDeterministic,
        Scheme::SmtProbabilistic,
        Scheme::SmtPredictive,
        Scheme::SmtBoosted3,
        Scheme::SmtBoosted5,
    ];

    /// Short identifier for reports and journal headers.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Conventional => "conventional",
            Scheme::SmtDeterministic => "smt-det",
            Scheme::SmtProbabilistic => "smt-prob",
            Scheme::SmtPredictive => "smt-pred",
            Scheme::SmtBoosted3 => "smt-boost3",
            Scheme::SmtBoosted5 => "smt-boost5",
        }
    }

    /// The scheme whose [`Scheme::name`] is `name`, if any.
    pub fn from_name(name: &str) -> Option<Scheme> {
        Scheme::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Hardware threads the scheme needs during recovery.
    pub fn threads_needed(self) -> u32 {
        match self {
            Scheme::Conventional => 1,
            Scheme::SmtDeterministic | Scheme::SmtProbabilistic | Scheme::SmtPredictive => 2,
            Scheme::SmtBoosted3 => 3,
            Scheme::SmtBoosted5 => 5,
        }
    }

    /// Whether the scheme co-schedules both versions on one SMT core
    /// (everything except the conventional two-processor duplex).
    pub fn is_smt(self) -> bool {
        self != Scheme::Conventional
    }

    /// `true` if state comparisons run during roll-forward (a fault there
    /// is detected and the roll-forward discarded).
    pub fn detects_during_rollforward(self) -> bool {
        !matches!(self, Scheme::SmtPredictive | Scheme::Conventional)
    }

    /// Intended roll-forward length for a fault at round `i` (before the
    /// checkpoint-horizon clamp). Zero for the conventional scheme.
    pub fn rollforward_intent(self, i: u32) -> f64 {
        let i = f64::from(i);
        match self {
            Scheme::Conventional => 0.0,
            Scheme::SmtDeterministic => i / 4.0,
            Scheme::SmtProbabilistic => i / 2.0,
            Scheme::SmtPredictive | Scheme::SmtBoosted3 | Scheme::SmtBoosted5 => i,
        }
    }

    /// Whether the roll-forward progress is guaranteed (deterministic
    /// variants) rather than conditional on a correct pick.
    pub fn progress_guaranteed(self) -> bool {
        matches!(self, Scheme::SmtDeterministic | Scheme::SmtBoosted5)
    }

    /// Roll-forward progress after a fault at round `i`, conditional on a
    /// correct pick where the scheme picks: the intent clamped at the
    /// checkpoint horizon, `min(intent, s − i)`, real-valued (following
    /// the paper's "we do not consider the detail that i/2 may not be an
    /// integer"). The engines advance its floor.
    pub fn progress(self, p: &Params, i: u32) -> f64 {
        debug_assert!(i >= 1 && i <= p.s);
        let horizon = f64::from(p.s) - f64::from(i);
        self.rollforward_intent(i).min(horizon).max(0.0)
    }

    /// Predicted duration of one fault-free round: `T1_round` (Eq. 1) for
    /// the conventional duplex, `THT2_round` (Eq. 3) for every SMT scheme.
    pub fn round_time(self, p: &Params) -> f64 {
        if self.is_smt() {
            tht2_round(p)
        } else {
            t1_round(p)
        }
    }

    /// Predicted recovery time for a fault detected at in-interval round
    /// `i`: `T1_corr` (Eq. 2), `THT2_corr` (Eq. 5), or the boosted
    /// `i·k·α_k·t + 2t'`.
    pub fn corr_time(self, p: &Params, i: u32) -> f64 {
        match self {
            Scheme::Conventional => t1_corr(p, i),
            Scheme::SmtDeterministic | Scheme::SmtProbabilistic | Scheme::SmtPredictive => {
                tht2_corr(p, i)
            }
            Scheme::SmtBoosted3 => boosted_corr_time(p, 3, i),
            Scheme::SmtBoosted5 => boosted_corr_time(p, 5, i),
        }
    }

    /// Steady-state expected per-round gain ḡ during recovery: Eq. 7
    /// (deterministic), Eq. 8 (probabilistic), Eq. 13 (predictive), the
    /// boosted averages, and `1.0` for the conventional duplex (its
    /// recovery proceeds at conventional speed by definition).
    /// `p_correct` applies to the schemes that guess (probabilistic,
    /// predictive, boost3).
    pub fn gbar(self, p: &Params, p_correct: f64) -> f64 {
        match self {
            Scheme::Conventional => 1.0,
            Scheme::SmtDeterministic => gbar_det_exact(p),
            Scheme::SmtProbabilistic => gbar_prob_exact(p, p_correct),
            Scheme::SmtPredictive => gbar_corr_exact(p, p_correct),
            Scheme::SmtBoosted3 => gbar_boost3_exact(p, p_correct),
            Scheme::SmtBoosted5 => gbar_boost5_exact(p),
        }
    }
}

/// [`Scheme::gbar`] of the scheme named `name`; `None` for an unknown
/// label. The benchmark's closed-form probe prices cells through this
/// label form, so it stays while that caller does.
pub fn gbar(name: &str, p: &Params, p_correct: f64) -> Option<f64> {
    Scheme::from_name(name).map(|s| s.gbar(p, p_correct))
}

/// Simulated time a run spent in each phase, in the engine's own unit
/// (only ratios enter [`predicted_gain`], so abstract time units and
/// micro cycles both work).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// Normal (fault-free) rounds.
    pub normal: f64,
    /// Recovery: retry, roll-forward and vote.
    pub recovery: f64,
    /// Checkpoint writes.
    pub checkpoint: f64,
    /// The whole run. It may exceed the sum of the phases: the abstract
    /// engine charges a rollback's restore cost to the clock only.
    pub total: f64,
}

/// The closed-form whole-run gain of `scheme` over a conventional
/// duplex, for a run with the given phase times: normal time valued at
/// Eq. 4's `G_round` (1 for the conventional duplex), recovery time at
/// the steady-state [`Scheme::gbar`], checkpoint time at parity (both
/// architectures pay it alike):
///
/// ```text
/// (time_normal·G_round + time_recovery·ḡ + time_checkpoint) / total_time
/// ```
///
/// `None` for a run with no elapsed time.
pub fn predicted_gain(scheme: Scheme, p: &Params, p_correct: f64, t: &PhaseTimes) -> Option<f64> {
    if t.total <= 0.0 {
        return None;
    }
    let gbar = scheme.gbar(p, p_correct);
    let g_round = if scheme.is_smt() {
        g_round_exact(p)
    } else {
        1.0
    };
    Some((t.normal * g_round + t.recovery * gbar + t.checkpoint) / t.total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_canonical_name_resolves() {
        let p = Params::paper_default();
        for scheme in Scheme::ALL {
            assert_eq!(Scheme::from_name(scheme.name()), Some(scheme));
            assert!(scheme.round_time(&p) > 0.0, "{scheme:?}");
            assert!(scheme.corr_time(&p, 3) > 0.0, "{scheme:?}");
            assert!(scheme.gbar(&p, 0.5) > 0.0, "{scheme:?}");
            assert_eq!(gbar(scheme.name(), &p, 0.5), Some(scheme.gbar(&p, 0.5)));
        }
        for bad in ["", "smt", "SMT-DET", "boost3"] {
            assert_eq!(Scheme::from_name(bad), None, "{bad}");
        }
        assert_eq!(gbar("smt", &p, 0.5), None);
    }

    #[test]
    fn lookups_agree_with_the_direct_forms() {
        let p = Params::paper_default();
        assert_eq!(Scheme::Conventional.round_time(&p), t1_round(&p));
        assert_eq!(Scheme::SmtProbabilistic.round_time(&p), tht2_round(&p));
        assert_eq!(Scheme::SmtDeterministic.corr_time(&p, 7), tht2_corr(&p, 7));
        assert_eq!(
            Scheme::SmtBoosted3.corr_time(&p, 7),
            boosted_corr_time(&p, 3, 7)
        );
        assert_eq!(Scheme::SmtDeterministic.gbar(&p, 0.5), gbar_det_exact(&p));
        assert_eq!(Scheme::SmtBoosted5.gbar(&p, 0.0), gbar_boost5_exact(&p));
    }

    #[test]
    fn scheme_properties() {
        assert_eq!(Scheme::Conventional.threads_needed(), 1);
        assert_eq!(Scheme::SmtBoosted5.threads_needed(), 5);
        assert!(!Scheme::Conventional.is_smt());
        assert!(Scheme::SmtPredictive.is_smt());
        assert!(Scheme::SmtDeterministic.detects_during_rollforward());
        assert!(!Scheme::SmtPredictive.detects_during_rollforward());
        assert!(Scheme::SmtDeterministic.progress_guaranteed());
        assert!(!Scheme::SmtProbabilistic.progress_guaranteed());
        assert!(Scheme::SmtBoosted5.progress_guaranteed());
    }

    #[test]
    fn rollforward_intents_match_paper() {
        assert_eq!(Scheme::SmtDeterministic.rollforward_intent(8), 2.0);
        assert_eq!(Scheme::SmtProbabilistic.rollforward_intent(8), 4.0);
        assert_eq!(Scheme::SmtPredictive.rollforward_intent(8), 8.0);
        assert_eq!(Scheme::Conventional.rollforward_intent(8), 0.0);
    }

    #[test]
    fn progress_clamps_at_checkpoint_horizon() {
        let p = Params::paper_default(); // s = 20
        let det = |i| Scheme::SmtDeterministic.progress(&p, i);
        let prob = |i| Scheme::SmtProbabilistic.progress(&p, i);
        // deterministic: x = i/4; clamp kicks in for i > 4s/5 = 16
        assert_eq!(det(8), 2.0);
        assert_eq!(det(16), 4.0);
        assert_eq!(det(18), 2.0); // s - i = 2 < 18/4
        assert_eq!(det(20), 0.0);
        // probabilistic: x = i/2; clamp for i > 2s/3 ≈ 13.3
        assert_eq!(prob(10), 5.0);
        assert_eq!(prob(14), 6.0); // s - i = 6 < 7
        assert_eq!(prob(20), 0.0);
    }

    #[test]
    fn predicted_gain_blends_the_phases() {
        let p = Params::paper_default();
        let g = |scheme, normal, recovery, checkpoint, total| {
            let t = PhaseTimes {
                normal,
                recovery,
                checkpoint,
                total,
            };
            predicted_gain(scheme, &p, 0.9, &t)
        };
        // normal rounds at G_round (1 for the conventional duplex),
        // recovery at ḡ(p), checkpoints at parity, other time at zero
        assert_eq!(g(Scheme::Conventional, 7.0, 0.0, 0.0, 7.0), Some(1.0));
        assert_eq!(
            g(Scheme::SmtDeterministic, 7.0, 0.0, 0.0, 7.0),
            Some(g_round_exact(&p))
        );
        assert_eq!(
            g(Scheme::SmtProbabilistic, 0.0, 1.0, 0.0, 1.0),
            Some(gbar_prob_exact(&p, 0.9))
        );
        assert_eq!(g(Scheme::SmtPredictive, 0.0, 0.0, 2.0, 4.0), Some(0.5));
        assert_eq!(g(Scheme::SmtDeterministic, 1.0, 0.0, 0.0, 0.0), None);
    }
}
