//! Closed-form lookups keyed by scheme *name*.
//!
//! The engine crates own the `Scheme` enum; layers below them — the
//! conformance tracker in `vds-obs`, the sweep exporters — see schemes
//! only as the label recorded in journal headers and run reports. This
//! module centralizes the name → closed-form mapping so every consumer
//! prices a scheme identically: normal-round time (Eq. 1 / Eq. 3),
//! recovery time for a fault at in-interval round `i` (Eq. 2 / Eq. 5,
//! boosted variants via `α_k`), the steady-state recovery gain ḡ
//! (Eqs. 7, 8, 13 and the boosted averages), and the whole-run gain
//! those predict for a run's measured phase times.

use crate::multithread::{boosted_corr_time, gbar_boost3_exact, gbar_boost5_exact};
use crate::params::Params;
use crate::predictive::gbar_corr_exact;
use crate::rollforward::{gbar_det_exact, gbar_prob_exact};
use crate::timing::{g_round_exact, t1_corr, t1_round, tht2_corr, tht2_round};

/// Every scheme label the engines emit, in canonical order.
pub const SCHEME_NAMES: [&str; 6] = [
    "conventional",
    "smt-det",
    "smt-prob",
    "smt-pred",
    "smt-boost3",
    "smt-boost5",
];

/// Whether `name` is a known scheme label.
pub fn is_scheme_name(name: &str) -> bool {
    SCHEME_NAMES.contains(&name)
}

/// Whether the named scheme co-schedules both versions on one SMT core
/// (everything except the conventional two-processor duplex).
pub fn is_smt(name: &str) -> bool {
    name != "conventional"
}

/// Predicted duration of one fault-free round: `T1_round` (Eq. 1) for
/// the conventional duplex, `THT2_round` (Eq. 3) for every SMT scheme.
/// `None` for an unknown label.
pub fn round_time(name: &str, p: &Params) -> Option<f64> {
    if !is_scheme_name(name) {
        return None;
    }
    Some(if is_smt(name) {
        tht2_round(p)
    } else {
        t1_round(p)
    })
}

/// Predicted recovery time for a fault detected at in-interval round
/// `i`: `T1_corr` (Eq. 2), `THT2_corr` (Eq. 5), or the boosted
/// `i·k·α_k·t + 2t'`. `None` for an unknown label.
pub fn corr_time(name: &str, p: &Params, i: u32) -> Option<f64> {
    match name {
        "conventional" => Some(t1_corr(p, i)),
        "smt-det" | "smt-prob" | "smt-pred" => Some(tht2_corr(p, i)),
        "smt-boost3" => Some(boosted_corr_time(p, 3, i)),
        "smt-boost5" => Some(boosted_corr_time(p, 5, i)),
        _ => None,
    }
}

/// Steady-state expected per-round gain ḡ during recovery: Eq. 7
/// (deterministic), Eq. 8 (probabilistic), Eq. 13 (predictive), the
/// boosted averages, and `1.0` for the conventional duplex (its recovery
/// proceeds at conventional speed by definition). `p_correct` applies to
/// the schemes that guess (probabilistic, predictive, boost3). `None`
/// for an unknown label.
pub fn gbar(name: &str, p: &Params, p_correct: f64) -> Option<f64> {
    match name {
        "conventional" => Some(1.0),
        "smt-det" => Some(gbar_det_exact(p)),
        "smt-prob" => Some(gbar_prob_exact(p, p_correct)),
        "smt-pred" => Some(gbar_corr_exact(p, p_correct)),
        "smt-boost3" => Some(gbar_boost3_exact(p, p_correct)),
        "smt-boost5" => Some(gbar_boost5_exact(p)),
        _ => None,
    }
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

/// The closed-form whole-run gain of the named scheme over a
/// conventional duplex, for a run with the given phase times: normal
/// time valued at Eq. 4's `G_round` (1 for the conventional duplex),
/// recovery time at the steady-state [`gbar`], checkpoint time at
/// parity (both architectures pay it alike):
///
/// ```text
/// (time_normal·G_round + time_recovery·ḡ + time_checkpoint) / total_time
/// ```
///
/// `None` for an unknown label or a run with no elapsed time.
pub fn predicted_gain(name: &str, p: &Params, p_correct: f64, t: &PhaseTimes) -> Option<f64> {
    if t.total <= 0.0 {
        return None;
    }
    let gbar = gbar(name, p, p_correct)?;
    let g_round = if is_smt(name) { g_round_exact(p) } else { 1.0 };
    Some((t.normal * g_round + t.recovery * gbar + t.checkpoint) / t.total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_canonical_name_resolves() {
        let p = Params::paper_default();
        for name in SCHEME_NAMES {
            assert!(is_scheme_name(name));
            assert!(round_time(name, &p).unwrap() > 0.0, "{name}");
            assert!(corr_time(name, &p, 3).unwrap() > 0.0, "{name}");
            assert!(gbar(name, &p, 0.5).unwrap() > 0.0, "{name}");
        }
        for bad in ["", "smt", "SMT-DET", "boost3"] {
            assert!(round_time(bad, &p).is_none(), "{bad}");
            assert!(corr_time(bad, &p, 1).is_none(), "{bad}");
            assert!(gbar(bad, &p, 0.5).is_none(), "{bad}");
        }
    }

    #[test]
    fn lookups_agree_with_the_direct_forms() {
        let p = Params::paper_default();
        assert_eq!(round_time("conventional", &p), Some(t1_round(&p)));
        assert_eq!(round_time("smt-prob", &p), Some(tht2_round(&p)));
        assert_eq!(corr_time("smt-det", &p, 7), Some(tht2_corr(&p, 7)));
        assert_eq!(
            corr_time("smt-boost3", &p, 7),
            Some(boosted_corr_time(&p, 3, 7))
        );
        assert_eq!(gbar("smt-det", &p, 0.5), Some(gbar_det_exact(&p)));
        assert_eq!(gbar("smt-boost5", &p, 0.0), Some(gbar_boost5_exact(&p)));
    }

    #[test]
    fn predicted_gain_blends_the_phases() {
        let p = Params::paper_default();
        let g = |name, normal, recovery, checkpoint, total| {
            let t = PhaseTimes {
                normal,
                recovery,
                checkpoint,
                total,
            };
            predicted_gain(name, &p, 0.9, &t)
        };
        // normal rounds at G_round (1 for the conventional duplex),
        // recovery at ḡ(p), checkpoints at parity, other time at zero
        assert_eq!(g("conventional", 7.0, 0.0, 0.0, 7.0), Some(1.0));
        assert_eq!(g("smt-det", 7.0, 0.0, 0.0, 7.0), Some(g_round_exact(&p)));
        assert_eq!(
            g("smt-prob", 0.0, 1.0, 0.0, 1.0),
            Some(gbar_prob_exact(&p, 0.9))
        );
        assert_eq!(g("smt-pred", 0.0, 0.0, 2.0, 4.0), Some(0.5));
        assert_eq!(g("smt-det", 1.0, 0.0, 0.0, 0.0), None);
        assert_eq!(g("smt", 7.0, 0.0, 0.0, 7.0), None);
    }
}
