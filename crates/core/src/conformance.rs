//! Run-level model conformance for the abstract engine.
//!
//! The abstract backend's [`RunReport`] already splits simulated time
//! into normal processing, recovery and checkpointing phases. Each phase
//! has a closed-form prediction of its gain over a conventional duplex:
//! normal rounds run at `G_round` (Eq. 4), recovery at the scheme's
//! steady-state `ḡ` (Eqs. 7 / 8 / 13, boosted averages), and checkpoint
//! writes proceed at conventional speed (both architectures pay them
//! alike). Blending the three by measured phase duration gives a
//! *predicted* whole-run gain; the *measured* gain is the
//! conventional-equivalent value of the committed work divided by the
//! SMT time actually spent. Their difference is the run-level residual:
//!
//! ```text
//! measured_G  = (committed · T1_round + time_checkpoint) / total_time
//! predicted_G = (time_normal · G_round
//!               + time_recovery · ḡ(scheme)
//!               + time_checkpoint · 1.0) / total_time
//! residual    = measured_G − predicted_G
//! ```
//!
//! A fault-free run has `residual = 0` by construction (the blend
//! collapses to `G_round`); with faults the residual measures how far
//! the engine's realized recovery mix drifts from the steady-state
//! uniform-`i` assumption behind `ḡ` — exactly the model error the
//! paper's estimates carry. The windowed per-round view lives in
//! `vds-obs`'s `ConformanceTracker` (fed by the journal); this module is
//! the cheap whole-run summary exported with the rest of the run
//! metrics.
//!
//! Only the abstract backend gets a run-level export: the micro engine
//! reports time in cycles, not abstract units, so its conformance is
//! assessed from its journal (where per-round deltas let the tracker
//! calibrate the unit scale).

use crate::abstract_vds::AbstractConfig;
use crate::report::RunReport;
use vds_analytic::{schemes, timing};
use vds_obs::{obs_gauge, obs_hist, Record};

/// Predicted-vs-measured whole-run gain for one completed abstract run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConformance {
    /// Phase-blended closed-form prediction of the run's gain.
    pub predicted_g: f64,
    /// Conventional-equivalent committed work over SMT time spent.
    pub measured_g: f64,
    /// `measured_g − predicted_g`.
    pub residual: f64,
}

/// Assess predicted-vs-measured gain for a completed abstract run.
/// Returns `None` for an empty run (no simulated time elapsed).
pub fn assess(cfg: &AbstractConfig, report: &RunReport) -> Option<RunConformance> {
    assess_with_alpha(cfg, report, None)
}

/// [`assess`] with an optional *measured* α override: when `Some`, the
/// closed forms (G_round, ḡ) are priced at the α-attribution ledger's
/// contention factor instead of the configuration's parametric one
/// (clamped into the model's `[0.5, 1]` domain). The measured gain is
/// untouched — it comes from the run itself — so the residual isolates
/// how much of the model error the parametric α was responsible for.
pub fn assess_with_alpha(
    cfg: &AbstractConfig,
    report: &RunReport,
    measured_alpha: Option<f64>,
) -> Option<RunConformance> {
    if report.total_time <= 0.0 {
        return None;
    }
    let priced;
    let p = match measured_alpha {
        Some(a) => {
            priced = cfg.params.with_alpha(a.clamp(0.5, 1.0));
            &priced
        }
        None => &cfg.params,
    };
    let name = cfg.scheme.name();
    let conv_equiv = report.committed_rounds as f64 * timing::t1_round(p) + report.time_checkpoint;
    let measured_g = conv_equiv / report.total_time;
    let g_round = if schemes::is_smt(name) {
        timing::g_round_exact(p)
    } else {
        1.0
    };
    let gbar = schemes::gbar(name, p, cfg.p_correct)?;
    let predicted_g =
        (report.time_normal * g_round + report.time_recovery * gbar + report.time_checkpoint)
            / report.total_time;
    Some(RunConformance {
        predicted_g,
        measured_g,
        residual: measured_g - predicted_g,
    })
}

/// Export the run-level conformance gauges and the `|residual|`
/// histogram into `rec` under `{prefix}.conformance.*`. Gauges and
/// histograms only — never counters, so benchmark work-unit totals
/// (sums of counters) are unaffected.
pub fn export_metrics<R: Record>(
    rec: &mut R,
    prefix: &str,
    cfg: &AbstractConfig,
    report: &RunReport,
) {
    if !rec.is_active() {
        return;
    }
    let Some(c) = assess(cfg, report) else {
        return;
    };
    obs_gauge!(
        rec,
        &format!("{prefix}.conformance.predicted_g"),
        c.predicted_g
    );
    obs_gauge!(
        rec,
        &format!("{prefix}.conformance.measured_g"),
        c.measured_g
    );
    obs_gauge!(rec, &format!("{prefix}.conformance.residual"), c.residual);
    obs_hist!(
        rec,
        &format!("{prefix}.conformance.residual_abs"),
        c.residual.abs()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstract_vds::run;
    use crate::config::{FaultModel, Scheme, Victim};
    use vds_analytic::Params;

    fn cfg(scheme: Scheme) -> AbstractConfig {
        AbstractConfig::new(Params::paper_default(), scheme)
    }

    #[test]
    fn fault_free_runs_have_zero_residual_for_every_scheme() {
        for scheme in Scheme::ALL {
            let c = cfg(scheme);
            let report = run(&c, FaultModel::None, 200, 7);
            let conf = assess(&c, &report).unwrap();
            assert!(
                conf.residual.abs() < 1e-9,
                "{}: residual {}",
                scheme.name(),
                conf.residual
            );
            assert!(conf.measured_g > 0.0, "{}", scheme.name());
        }
    }

    #[test]
    fn faulty_runs_report_a_finite_bounded_residual() {
        let c = cfg(Scheme::SmtDeterministic);
        let report = run(
            &c,
            FaultModel::OneShot {
                round: 5,
                victim: Victim::V1,
            },
            200,
            11,
        );
        let conf = assess(&c, &report).unwrap();
        assert!(conf.residual.is_finite());
        assert!(conf.residual.abs() < 0.5, "residual {}", conf.residual);
        assert!(conf.predicted_g > 1.0); // SMT schemes beat the duplex
    }

    #[test]
    fn measured_alpha_repricing_moves_only_the_prediction() {
        let c = cfg(Scheme::SmtDeterministic);
        let report = run(&c, FaultModel::None, 200, 7);
        let parametric = assess(&c, &report).unwrap();
        let measured = assess_with_alpha(&c, &report, Some(0.9)).unwrap();
        assert_eq!(measured.measured_g, parametric.measured_g);
        assert!(
            (measured.predicted_g - parametric.predicted_g).abs() > 1e-6,
            "repricing at α=0.9 left predicted_g at {}",
            measured.predicted_g
        );
        // α=0.9 predicts less SMT gain than the paper's 0.65.
        assert!(measured.predicted_g < parametric.predicted_g);
        // Out-of-domain overrides clamp instead of panicking.
        let clamped = assess_with_alpha(&c, &report, Some(2.0)).unwrap();
        let at_one = assess_with_alpha(&c, &report, Some(1.0)).unwrap();
        assert_eq!(clamped, at_one);
        // None is exactly the parametric path.
        assert_eq!(assess_with_alpha(&c, &report, None).unwrap(), parametric);
    }

    #[test]
    fn empty_runs_yield_no_assessment() {
        let c = cfg(Scheme::SmtProbabilistic);
        let report = RunReport::default();
        assert!(assess(&c, &report).is_none());
    }

    #[test]
    fn run_recorded_exports_gauges_and_histogram_but_no_counters() {
        let c = cfg(Scheme::SmtDeterministic);
        let rec = vds_obs::Recorder::new();
        let (_report, rec) =
            crate::abstract_vds::run_with_recorder(&c, FaultModel::None, 100, 3, rec);
        let reg = rec.registry();
        assert!(reg.gauge_value("vds.conformance.predicted_g").is_some());
        assert!(reg.gauge_value("vds.conformance.measured_g").is_some());
        let resid = reg.gauge_value("vds.conformance.residual").unwrap();
        assert!(resid.abs() < 1e-9, "residual {resid}");
        let h = reg.histogram("vds.conformance.residual_abs").unwrap();
        assert_eq!(h.count(), 1);
        assert!(
            reg.counters().all(|(k, _)| !k.contains("conformance")),
            "conformance must never mint counters (bench work_units sums them)"
        );
    }
}
