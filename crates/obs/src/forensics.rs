//! Fault-lifecycle forensics: per-fault tracing from injection to
//! detection (or escape), priced from flight-recorder journal bytes.
//!
//! The paper's gain equations treat recovery as an aggregate, but
//! adaptive fault tolerance needs to know what happens to *individual*
//! faults: how long each one survives before the duplex comparison
//! catches it, and which ones are never caught at all. This module
//! assigns every injected fault a stable identity — the pair
//! `(lane, fault_id)` where `fault_id` is the lane-local ordinal of
//! fault-bearing journal entries — and reconstructs its causal chain:
//!
//! * **injection** — the journal entry whose `fault` field carries the
//!   canonical fault spec (round, lane, corrupted component);
//! * **detection** — the first entry in the same lane, at or after the
//!   injection, whose comparator verdict is not `match`. The *detection
//!   latency* is reported both in rounds (lane-local entry-index delta;
//!   0 means the fault was caught at the very comparison that followed
//!   it) and in sim-time (`sim_time` delta);
//! * **recovery** — the first cleanly committed entry (`commit` or
//!   `checkpoint` action) strictly after the detection; the
//!   *time-to-recover* is its `sim_time` minus the detection's. Lanes
//!   that end before committing again contribute no recovery sample;
//! * **resolution** — faults never detected carry a terminal
//!   `fault_outcome` stamped by the engine at end of run: `masked`
//!   (the corrupted state was overwritten before any comparison saw a
//!   difference, and the final output is correct) or `escaped` (the
//!   corruption is still latent in the output — a silent data
//!   corruption the duplex failed to catch). An absent outcome on an
//!   undetected fault is conservatively counted as escaped.
//!
//! ## Determinism contract
//!
//! The tracker is a pure function of journal bytes. Lanes are campaign
//! trial indices and shards merge in a fixed order, so every derived
//! artifact — the trace list, the report text/JSON, exported metrics —
//! is byte-identical across `--workers` settings, exactly like the
//! conformance layer.
//!
//! When several faults are latent in one lane at once, each searches
//! independently for its own first divergent comparison, so one
//! detection event can resolve (and be attributed to) every fault
//! injected before it. This overcounts detection only when a second
//! fault would have been masked had the first not triggered recovery —
//! acceptable for latency statistics, and deterministic.

use crate::journal::{Action, Journal, RoundEntry, Verdict};
use crate::json::{json_array, JsonObj};
use crate::registry::Registry;
use std::collections::BTreeMap;

/// How one injected fault's lifecycle ended.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultOutcome {
    /// A comparison diverged at or after the injection.
    Detected {
        /// Lane-local entry-index delta from injection to the first
        /// non-`match` verdict (0 = caught at the injection round's own
        /// comparison).
        latency_rounds: u64,
        /// Sim-time delta from injection to detection.
        latency_time: f64,
        /// Sim-time from detection to the next cleanly committed round
        /// (`commit`/`checkpoint` action), when the lane reached one.
        time_to_recover: Option<f64>,
    },
    /// Never detected; the corrupted state was overwritten before any
    /// comparison saw it and the final output is correct.
    Masked,
    /// Never detected and still latent at end of run: a silent data
    /// corruption the duplex comparison failed to catch.
    Escaped,
}

impl FaultOutcome {
    /// Canonical lower-case class label (`detected`/`masked`/`escaped`).
    pub fn class(&self) -> &'static str {
        match self {
            FaultOutcome::Detected { .. } => "detected",
            FaultOutcome::Masked => "masked",
            FaultOutcome::Escaped => "escaped",
        }
    }
}

/// One fault's reconstructed lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTrace {
    /// Journal lane (campaign trial index; 0 for single runs).
    pub lane: u64,
    /// Stable per-lane fault ordinal (from the entry's `fault_id`
    /// field; lane-local fault-bearing-entry ordinal for journals whose
    /// producer predates the field).
    pub fault_id: u64,
    /// Canonical fault spec string as injected.
    pub spec: String,
    /// In-interval round number of the injecting entry.
    pub injected_round: u64,
    /// Sim-time of the injecting entry.
    pub injected_time: f64,
    /// Last in-interval round number seen on the lane (bounds the round
    /// range an escaped fault stayed latent over).
    pub lane_last_round: u64,
    /// How the lifecycle ended.
    pub outcome: FaultOutcome,
}

/// One escaped fault, as listed in reports.
#[derive(Debug, Clone, PartialEq)]
pub struct EscapeRecord {
    /// Journal lane.
    pub lane: u64,
    /// Stable fault ordinal within the lane.
    pub fault_id: u64,
    /// Canonical fault spec string.
    pub spec: String,
    /// Round the fault was injected at.
    pub injected_round: u64,
    /// Last round of the lane — the fault stayed latent over
    /// `injected_round..=last_round`.
    pub last_round: u64,
}

/// Builds [`FaultTrace`]s from journal bytes and aggregates them.
#[derive(Debug, Clone, PartialEq)]
pub struct ForensicsTracker {
    scheme: String,
    traces: Vec<FaultTrace>,
}

/// Everything `vds faults` prints: counts by class, coverage, latency
/// quantiles and the escape list.
#[derive(Debug, Clone, PartialEq)]
pub struct ForensicsReport {
    /// Scheme label from the journal header.
    pub scheme: String,
    /// Faults injected (journal entries carrying a fault spec).
    pub injected: u64,
    /// Faults whose lane diverged at or after the injection.
    pub detected: u64,
    /// Undetected faults whose outcome was stamped `masked`.
    pub masked: u64,
    /// Undetected faults latent at end of run (includes unstamped).
    pub escaped: u64,
    /// `detected / injected` (1.0 when nothing was injected).
    pub coverage: f64,
    /// Mean detection latency in rounds over detected faults.
    pub mean_latency_rounds: f64,
    /// Median detection latency in rounds.
    pub p50_latency_rounds: f64,
    /// 99th-percentile detection latency in rounds.
    pub p99_latency_rounds: f64,
    /// Mean detection latency in sim-time.
    pub mean_latency_time: f64,
    /// Median detection latency in sim-time.
    pub p50_latency_time: f64,
    /// 99th-percentile detection latency in sim-time.
    pub p99_latency_time: f64,
    /// Detected faults whose lane committed cleanly again.
    pub recover_samples: u64,
    /// Mean sim-time from detection to the next clean commit.
    pub mean_time_to_recover: f64,
    /// Escaped faults with their latent round ranges.
    pub escapes: Vec<EscapeRecord>,
}

impl ForensicsTracker {
    /// Price a journal's fault lifecycles. Errors when the journal has
    /// no header (truncated or not a journal).
    pub fn for_journal(journal: &Journal) -> Result<ForensicsTracker, String> {
        let header = journal
            .header()
            .ok_or_else(|| "journal has no header".to_string())?;
        let mut t = ForensicsTracker {
            scheme: header.scheme.clone(),
            traces: Vec::new(),
        };
        t.ingest(journal);
        Ok(t)
    }

    /// The reconstructed per-fault lifecycles, lane order then
    /// injection order.
    pub fn traces(&self) -> &[FaultTrace] {
        &self.traces
    }

    fn ingest(&mut self, journal: &Journal) {
        let mut lanes: BTreeMap<u64, Vec<&RoundEntry>> = BTreeMap::new();
        for e in journal.entries() {
            lanes.entry(e.lane).or_default().push(e);
        }
        for (lane, entries) in lanes {
            self.ingest_lane(lane, &entries);
        }
    }

    fn ingest_lane(&mut self, lane: u64, entries: &[&RoundEntry]) {
        let lane_last_round = entries.last().map(|e| e.round).unwrap_or(0);
        let mut ordinal = 0u64;
        for (idx, &e) in entries.iter().enumerate() {
            let Some(spec) = &e.fault else { continue };
            let fault_id = e.fault_id.unwrap_or(ordinal);
            ordinal += 1;
            let detection = entries[idx..]
                .iter()
                .enumerate()
                .find(|(_, d)| d.verdict != Verdict::Match);
            let outcome = match detection {
                Some((delta, det)) => {
                    let time_to_recover = entries[idx + delta + 1..]
                        .iter()
                        .find(|r| matches!(r.action, Action::Commit | Action::Checkpoint))
                        .map(|r| r.sim_time - det.sim_time);
                    FaultOutcome::Detected {
                        latency_rounds: delta as u64,
                        latency_time: det.sim_time - e.sim_time,
                        time_to_recover,
                    }
                }
                None => match e.fault_outcome.as_deref() {
                    Some("masked") => FaultOutcome::Masked,
                    _ => FaultOutcome::Escaped,
                },
            };
            self.traces.push(FaultTrace {
                lane,
                fault_id,
                spec: spec.clone(),
                injected_round: e.round,
                injected_time: e.sim_time,
                lane_last_round,
                outcome,
            });
        }
    }

    /// Exact quantile over a sorted sample vector (0 when empty).
    fn quantile(sorted: &[f64], p: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let target = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[target - 1]
    }

    /// Snapshot the aggregate report.
    pub fn report(&self) -> ForensicsReport {
        let mut detected = 0u64;
        let mut masked = 0u64;
        let mut escaped = 0u64;
        let mut lat_rounds: Vec<f64> = Vec::new();
        let mut lat_time: Vec<f64> = Vec::new();
        let mut recover: Vec<f64> = Vec::new();
        let mut escapes = Vec::new();
        for t in &self.traces {
            match &t.outcome {
                FaultOutcome::Detected {
                    latency_rounds,
                    latency_time,
                    time_to_recover,
                } => {
                    detected += 1;
                    lat_rounds.push(*latency_rounds as f64);
                    lat_time.push(*latency_time);
                    if let Some(r) = time_to_recover {
                        recover.push(*r);
                    }
                }
                FaultOutcome::Masked => masked += 1,
                FaultOutcome::Escaped => {
                    escaped += 1;
                    escapes.push(EscapeRecord {
                        lane: t.lane,
                        fault_id: t.fault_id,
                        spec: t.spec.clone(),
                        injected_round: t.injected_round,
                        last_round: t.lane_last_round,
                    });
                }
            }
        }
        lat_rounds.sort_by(f64::total_cmp);
        lat_time.sort_by(f64::total_cmp);
        let injected = self.traces.len() as u64;
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        ForensicsReport {
            scheme: self.scheme.clone(),
            injected,
            detected,
            masked,
            escaped,
            coverage: if injected == 0 {
                1.0
            } else {
                detected as f64 / injected as f64
            },
            mean_latency_rounds: mean(&lat_rounds),
            p50_latency_rounds: Self::quantile(&lat_rounds, 0.5),
            p99_latency_rounds: Self::quantile(&lat_rounds, 0.99),
            mean_latency_time: mean(&lat_time),
            p50_latency_time: Self::quantile(&lat_time, 0.5),
            p99_latency_time: Self::quantile(&lat_time, 0.99),
            recover_samples: recover.len() as u64,
            mean_time_to_recover: mean(&recover),
            escapes,
        }
    }

    /// Export fault-lifecycle metrics into a registry: the
    /// `faults.injected/detected/escaped/masked` counters plus
    /// detection-latency and time-to-recover histograms. Only journaled
    /// paths (duplex and campaign runs with the flight recorder on)
    /// call this, so the counters never perturb bench work-unit
    /// accounting, which covers journal-free experiment runs.
    pub fn export_metrics(&self, reg: &mut Registry) {
        let r = self.report();
        reg.count("faults.injected", r.injected);
        reg.count("faults.detected", r.detected);
        reg.count("faults.masked", r.masked);
        reg.count("faults.escaped", r.escaped);
        reg.gauge("faults.coverage", r.coverage);
        for t in &self.traces {
            if let FaultOutcome::Detected {
                latency_rounds,
                latency_time,
                time_to_recover,
            } = &t.outcome
            {
                reg.observe_hist("faults.detect_latency_rounds", *latency_rounds as f64);
                reg.observe_hist("faults.detect_latency_time", *latency_time);
                if let Some(rt) = time_to_recover {
                    reg.observe_hist("faults.time_to_recover", *rt);
                }
            }
        }
    }
}

impl ForensicsReport {
    /// Deterministic human-readable rendering (what `vds faults`
    /// prints).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "faults: scheme {}, {} injected",
            self.scheme, self.injected
        );
        if self.injected == 0 {
            let _ = writeln!(out, "  no faults injected (0 samples)");
            return out;
        }
        let _ = writeln!(
            out,
            "  coverage: {}/{} detected ({:.1}%)  masked {}  escaped {}",
            self.detected,
            self.injected,
            100.0 * self.coverage,
            self.masked,
            self.escaped
        );
        if self.detected > 0 {
            let _ = writeln!(
                out,
                "  detection latency (rounds):   mean {:.3}  p50 {:.0}  p99 {:.0}",
                self.mean_latency_rounds, self.p50_latency_rounds, self.p99_latency_rounds
            );
            let _ = writeln!(
                out,
                "  detection latency (sim-time): mean {:.6}  p50 {:.6}  p99 {:.6}",
                self.mean_latency_time, self.p50_latency_time, self.p99_latency_time
            );
            let _ = writeln!(
                out,
                "  time to recover: mean {:.6} over {} sample{}",
                self.mean_time_to_recover,
                self.recover_samples,
                if self.recover_samples == 1 { "" } else { "s" }
            );
        }
        if !self.escapes.is_empty() {
            let _ = writeln!(out, "  escapes:");
            for e in &self.escapes {
                let _ = writeln!(
                    out,
                    "    lane {} fault {} {} latent rounds {}..{}",
                    e.lane, e.fault_id, e.spec, e.injected_round, e.last_round
                );
            }
        }
        out
    }

    /// JSON report (`vds faults --json`, `/faults`).
    pub fn to_json(&self) -> String {
        let escapes: Vec<String> = self
            .escapes
            .iter()
            .map(|e| {
                JsonObj::new()
                    .u64("lane", e.lane)
                    .u64("fault_id", e.fault_id)
                    .str("spec", &e.spec)
                    .u64("injected_round", e.injected_round)
                    .u64("last_round", e.last_round)
                    .finish()
            })
            .collect();
        JsonObj::report("faults")
            .str("scheme", &self.scheme)
            .u64("injected", self.injected)
            .u64("detected", self.detected)
            .u64("masked", self.masked)
            .u64("escaped", self.escaped)
            .f64("coverage", self.coverage)
            .f64("mean_latency_rounds", self.mean_latency_rounds)
            .f64("p50_latency_rounds", self.p50_latency_rounds)
            .f64("p99_latency_rounds", self.p99_latency_rounds)
            .f64("mean_latency_time", self.mean_latency_time)
            .f64("p50_latency_time", self.p50_latency_time)
            .f64("p99_latency_time", self.p99_latency_time)
            .u64("recover_samples", self.recover_samples)
            .f64("mean_time_to_recover", self.mean_time_to_recover)
            .raw("escapes", &json_array(&escapes))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Action, Journal, JournalHeader, RoundEntry, Verdict};

    #[allow(clippy::too_many_arguments)]
    fn entry(
        lane: u64,
        round: u64,
        sim_time: f64,
        verdict: Verdict,
        action: Action,
        fault: Option<(&str, u64)>,
        fault_outcome: Option<&str>,
    ) -> RoundEntry {
        RoundEntry {
            seq: 0,
            lane,
            round,
            committed: round,
            sim_time,
            d1: crate::digest_words128(&[round as u32]),
            d2: crate::digest_words128(&[round as u32, u32::from(verdict != Verdict::Match)]),
            verdict,
            sched: "coschedule[v1,v2]".to_string(),
            action,
            rollforward: 0,
            fault: fault.map(|(s, _)| s.to_string()),
            fault_id: fault.map(|(_, id)| id),
            fault_outcome: fault_outcome.map(str::to_string),
        }
    }

    fn lifecycle_journal() -> Journal {
        let header = JournalHeader::new("abstract", "smt-det", 7, 8, 12);
        let mut j = Journal::enabled(header);
        // lane 0: fault at round 2 detected two rounds later, then a
        // clean commit one time unit after the detection
        j.push(entry(0, 1, 1.0, Verdict::Match, Action::Commit, None, None));
        j.push(entry(
            0,
            2,
            2.0,
            Verdict::Match,
            Action::Commit,
            Some(("transient:mem:4:9@v2", 0)),
            None,
        ));
        j.push(entry(0, 3, 3.0, Verdict::Match, Action::Commit, None, None));
        j.push(entry(
            0,
            4,
            4.5,
            Verdict::Mismatch,
            Action::Recover,
            None,
            None,
        ));
        j.push(entry(0, 4, 6.0, Verdict::Match, Action::Commit, None, None));
        // lane 1: fault masked (stamped by the engine), never detected
        j.push(entry(
            1,
            1,
            1.0,
            Verdict::Match,
            Action::Commit,
            Some(("transient:reg:5:3@v1", 0)),
            Some("masked"),
        ));
        j.push(entry(1, 2, 2.0, Verdict::Match, Action::Commit, None, None));
        // lane 2: fault escaped (stamped), latent to end of lane
        j.push(entry(
            2,
            1,
            1.0,
            Verdict::Match,
            Action::Commit,
            Some(("transient:mem:8:1@v2", 0)),
            Some("escaped"),
        ));
        j.push(entry(2, 2, 2.0, Verdict::Match, Action::Commit, None, None));
        j.push(entry(2, 3, 3.0, Verdict::Match, Action::Commit, None, None));
        j
    }

    #[test]
    fn lifecycles_are_classified_and_priced() {
        let t = ForensicsTracker::for_journal(&lifecycle_journal()).unwrap();
        let r = t.report();
        assert_eq!(r.injected, 3);
        assert_eq!(r.detected, 1);
        assert_eq!(r.masked, 1);
        assert_eq!(r.escaped, 1);
        assert_eq!(r.detected + r.masked + r.escaped, r.injected);
        assert!((r.coverage - 1.0 / 3.0).abs() < 1e-12);
        // detection two entries after injection, 2.5 time units later
        assert_eq!(r.mean_latency_rounds, 2.0);
        assert!((r.mean_latency_time - 2.5).abs() < 1e-12);
        // recovery committed 1.5 time units after the detection stamp
        assert_eq!(r.recover_samples, 1);
        assert!((r.mean_time_to_recover - 1.5).abs() < 1e-12);
        // escape list names the latent range
        assert_eq!(r.escapes.len(), 1);
        let e = &r.escapes[0];
        assert_eq!((e.lane, e.fault_id), (2, 0));
        assert_eq!((e.injected_round, e.last_round), (1, 3));
    }

    #[test]
    fn same_round_detection_has_zero_latency() {
        let header = JournalHeader::new("abstract", "smt-prob", 1, 8, 4);
        let mut j = Journal::enabled(header);
        j.push(entry(
            0,
            1,
            1.0,
            Verdict::Trap,
            Action::Rollback,
            Some(("crash@v1", 0)),
            None,
        ));
        let t = ForensicsTracker::for_journal(&j).unwrap();
        let r = t.report();
        assert_eq!((r.injected, r.detected), (1, 1));
        assert_eq!(r.mean_latency_rounds, 0.0);
        assert_eq!(r.mean_latency_time, 0.0);
        assert_eq!(r.recover_samples, 0, "lane never commits again");
    }

    #[test]
    fn unstamped_undetected_faults_count_as_escaped() {
        let header = JournalHeader::new("abstract", "smt-det", 1, 8, 4);
        let mut j = Journal::enabled(header);
        j.push(entry(
            0,
            1,
            1.0,
            Verdict::Match,
            Action::Commit,
            Some(("transient:mem:1:1@v2", 0)),
            None,
        ));
        let t = ForensicsTracker::for_journal(&j).unwrap();
        let r = t.report();
        assert_eq!((r.masked, r.escaped), (0, 1));
    }

    #[test]
    fn header_only_journal_reports_zero_samples() {
        let j = Journal::enabled(JournalHeader::new("micro", "smt-det", 1, 8, 0));
        let t = ForensicsTracker::for_journal(&j).unwrap();
        let r = t.report();
        assert_eq!(r.injected, 0);
        assert_eq!(r.coverage, 1.0);
        assert!(r.render_text().contains("0 samples"));
        let headerless = Journal::from_jsonl("").unwrap();
        assert!(ForensicsTracker::for_journal(&headerless)
            .unwrap_err()
            .contains("no header"));
    }

    #[test]
    fn report_is_deterministic_and_schema_versioned() {
        let j = lifecycle_journal();
        let a = ForensicsTracker::for_journal(&j).unwrap().report();
        let b = ForensicsTracker::for_journal(&j).unwrap().report();
        assert_eq!(a, b);
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_json().starts_with(
            "{\"schema\":\"vds.report.v1\",\"kind\":\"faults\",\"scheme\":\"smt-det\""
        ));
        assert!(a.to_json().contains("\"escapes\":["));
    }

    #[test]
    fn export_metrics_counts_classes_and_latencies() {
        let t = ForensicsTracker::for_journal(&lifecycle_journal()).unwrap();
        let mut reg = Registry::new();
        t.export_metrics(&mut reg);
        assert_eq!(reg.counter("faults.injected"), 3);
        assert_eq!(reg.counter("faults.detected"), 1);
        assert_eq!(reg.counter("faults.masked"), 1);
        assert_eq!(reg.counter("faults.escaped"), 1);
        assert_eq!(
            reg.histogram("faults.detect_latency_rounds")
                .unwrap()
                .count(),
            1
        );
        assert_eq!(reg.histogram("faults.time_to_recover").unwrap().count(), 1);
    }

    #[test]
    fn legacy_entries_without_fault_id_get_lane_ordinals() {
        let header = JournalHeader::new("abstract", "smt-det", 1, 8, 4);
        let mut j = Journal::enabled(header);
        let mut a = entry(
            0,
            1,
            1.0,
            Verdict::Match,
            Action::Commit,
            Some(("f0", 0)),
            None,
        );
        a.fault_id = None;
        let mut b = entry(
            0,
            2,
            2.0,
            Verdict::Match,
            Action::Commit,
            Some(("f1", 0)),
            None,
        );
        b.fault_id = None;
        j.push(a);
        j.push(b);
        let t = ForensicsTracker::for_journal(&j).unwrap();
        let ids: Vec<u64> = t.traces().iter().map(|x| x.fault_id).collect();
        assert_eq!(ids, vec![0, 1]);
    }
}
