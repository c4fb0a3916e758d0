//! Run accounting.

use vds_obs::SpanRecord;

/// Everything a VDS run reports.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Total wall time (abstract units on the abstract backend, cycles
    /// converted to f64 on the micro backend).
    pub total_time: f64,
    /// Rounds of useful work committed (net of rollbacks).
    pub committed_rounds: u64,
    /// Faults injected.
    pub faults_injected: u64,
    /// Injected faults whose corruption a comparison later caught.
    /// Lifecycle counters (`faults_detected`/`masked`/`escaped` and the
    /// latency sums) are engine-maintained run accounting; they are
    /// deliberately *not* exported by [`RunReport::export_metrics`] —
    /// journaled paths export the equivalent `faults.*` counters via
    /// `vds_obs::ForensicsTracker`, keeping bench work-unit accounting
    /// (which sums every exported counter) untouched.
    pub faults_detected: u64,
    /// Injected faults whose corrupted state was overwritten before any
    /// comparison saw it (final output correct).
    pub faults_masked: u64,
    /// Injected faults still latent at end of run (silent corruption).
    pub faults_escaped: u64,
    /// Sum over detected faults of detection latency in rounds.
    pub detect_latency_rounds_sum: u64,
    /// Sum over detected faults of detection latency in sim-time.
    pub detect_latency_time_sum: f64,
    /// State-mismatch (or trap) detections.
    pub detections: u64,
    /// Recoveries where the majority vote identified the faulty version.
    pub recoveries_ok: u64,
    /// Recoveries that had to resort to rollback (vote impossible), plus
    /// processor-stop rollbacks.
    pub rollbacks: u64,
    /// Whole-processor stops (all volatile state lost; always end in a
    /// rollback from stable storage).
    pub processor_stops: u64,
    /// Roll-forwards whose progress survived (correct pick / guaranteed).
    pub rollforward_hits: u64,
    /// Roll-forwards that picked the faulty state (no progress).
    pub rollforward_misses: u64,
    /// Roll-forwards discarded because a further fault was detected
    /// during the roll-forward itself.
    pub rollforward_discards: u64,
    /// Predictive-scheme adoptions of a state corrupted *during*
    /// roll-forward — undetectable by construction (§4 trades detection
    /// for speed). Always 0 for detecting schemes.
    pub silent_corruptions: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Wall time spent in normal processing (rounds + comparisons).
    pub time_normal: f64,
    /// Wall time spent in recovery (retry + roll-forward + votes).
    pub time_recovery: f64,
    /// Wall time spent writing/reading checkpoints.
    pub time_checkpoint: f64,
    /// Whether the run ended in a fail-safe shutdown.
    pub shutdown: bool,
    /// Figure 1 execution timeline, one span per activity (only when
    /// recording was requested): component = scheme name, name =
    /// `vds_desim::trace::SpanKind::name`, tid = lane, and a `label`
    /// field when the activity has one.
    pub timeline: Option<Vec<SpanRecord>>,
}

impl RunReport {
    /// Committed rounds per unit time — the throughput the gains compare.
    pub fn throughput(&self) -> f64 {
        if self.total_time <= 0.0 {
            0.0
        } else {
            self.committed_rounds as f64 / self.total_time
        }
    }

    /// Fault coverage: detected over injected (1.0 when nothing was
    /// injected — a fault-free run covers everything it saw).
    pub fn coverage(&self) -> f64 {
        if self.faults_injected == 0 {
            1.0
        } else {
            self.faults_detected as f64 / self.faults_injected as f64
        }
    }

    /// Mean detection latency in rounds over detected faults (0 when
    /// nothing was detected).
    pub fn mean_detect_latency_rounds(&self) -> f64 {
        if self.faults_detected == 0 {
            0.0
        } else {
            self.detect_latency_rounds_sum as f64 / self.faults_detected as f64
        }
    }

    /// Fraction of wall time spent on recovery.
    pub fn recovery_fraction(&self) -> f64 {
        if self.total_time <= 0.0 {
            0.0
        } else {
            self.time_recovery / self.total_time
        }
    }

    /// Mirror the report into a metrics registry under `<prefix>.*`:
    /// event counters plus per-phase simulated-time gauges. End-of-run
    /// export: generic over the facade, never feature-gated.
    pub fn export_metrics<R: vds_obs::Record>(&self, rec: &mut R, prefix: &str) {
        for (field, v) in [
            ("committed_rounds", self.committed_rounds),
            ("faults_injected", self.faults_injected),
            ("detections", self.detections),
            ("recoveries_ok", self.recoveries_ok),
            ("rollbacks", self.rollbacks),
            ("processor_stops", self.processor_stops),
            ("rollforward.hits", self.rollforward_hits),
            ("rollforward.misses", self.rollforward_misses),
            ("rollforward.discards", self.rollforward_discards),
            ("silent_corruptions", self.silent_corruptions),
            ("checkpoints", self.checkpoints),
            ("shutdown", u64::from(self.shutdown)),
        ] {
            rec.count(&format!("{prefix}.{field}"), v);
        }
        for (field, v) in [
            ("time.total", self.total_time),
            ("time.normal", self.time_normal),
            ("time.recovery", self.time_recovery),
            ("time.checkpoint", self.time_checkpoint),
            ("throughput", self.throughput()),
            ("recovery_fraction", self.recovery_fraction()),
        ] {
            rec.gauge(&format!("{prefix}.{field}"), v);
        }
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "time={:.3} committed={} throughput={:.4}",
            self.total_time,
            self.committed_rounds,
            self.throughput()
        )?;
        writeln!(
            f,
            "  faults={} detections={} recoveries={} rollbacks={} shutdown={}",
            self.faults_injected,
            self.detections,
            self.recoveries_ok,
            self.rollbacks,
            self.shutdown
        )?;
        writeln!(
            f,
            "  rollforward: hits={} misses={} discards={} silent={}",
            self.rollforward_hits,
            self.rollforward_misses,
            self.rollforward_discards,
            self.silent_corruptions
        )?;
        write!(
            f,
            "  time: normal={:.3} recovery={:.3} checkpoint={:.3} (checkpoints={})",
            self.time_normal, self.time_recovery, self.time_checkpoint, self.checkpoints
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_and_fractions() {
        let r = RunReport {
            total_time: 10.0,
            committed_rounds: 40,
            time_recovery: 2.5,
            ..Default::default()
        };
        assert!((r.throughput() - 4.0).abs() < 1e-12);
        assert!((r.recovery_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = RunReport::default();
        assert_eq!(r.throughput(), 0.0);
        assert_eq!(r.recovery_fraction(), 0.0);
        let _ = format!("{r}");
    }
}
