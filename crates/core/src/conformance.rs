//! Run-level model conformance for the abstract engine.
//!
//! The abstract backend's [`RunReport`] splits simulated time into
//! normal processing, recovery and checkpointing phases, and
//! [`vds_analytic::schemes::predicted_gain`] blends them at their
//! closed-form gains over a conventional duplex (`G_round`, the scheme's
//! steady-state `ḡ`, parity) into a *predicted* whole-run gain — the
//! same blend every sweep cell is priced with. The *measured* gain is
//! the conventional-equivalent value of the committed work divided by
//! the SMT time actually spent:
//!
//! ```text
//! measured_G  = (committed · T1_round + time_checkpoint) / total_time
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

/// Assess predicted-vs-measured gain for a completed abstract run,
/// pricing the closed forms at the run's own parameters and `p`.
/// Returns `None` for an empty run (no simulated time elapsed).
pub fn assess(cfg: &AbstractConfig, report: &RunReport) -> Option<RunConformance> {
    let p = &cfg.params;
    let predicted_g =
        schemes::predicted_gain(cfg.scheme.name(), p, cfg.p_correct, &report.phase_times())?;
    let conv_equiv = report.committed_rounds as f64 * timing::t1_round(p) + report.time_checkpoint;
    let measured_g = conv_equiv / report.total_time;
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
