//! Model-conformance layer: predicted-vs-measured G residuals.
//!
//! The paper's deliverable is *performance estimation* — closed forms for
//! the relative gain G of an SMT virtual duplex over the conventional
//! two-processor duplex (Eqs. 1–13). This module turns the deviation
//! between those predictions and what a backend actually did into a
//! first-class observable, computed from the per-round verdict /
//! roll-forward events the flight-recorder journal already emits.
//!
//! ## Residual definition
//!
//! Walk each journal lane in entry order. Between consecutive entries
//! the backend spent `Δ = sim_time(j) − sim_time(j−1)`: one normal round
//! plus, because entries are stamped at the comparison point *before*
//! recovery/checkpoint costs are charged, whatever overhead entry `j−1`'s
//! action incurred. The closed forms price exactly those pieces:
//!
//! * every entry costs one round — `THT2_round` (Eq. 3) on the SMT
//!   schemes, `T1_round` (Eq. 1) on the conventional duplex;
//! * a `recover` at in-interval round `i` adds `THT2_corr(i)` (Eq. 5,
//!   boosted variants via `α_k`); its conventional-duplex equivalent is
//!   `T1_corr(i)` (Eq. 2) *plus* one `T1_round` per roll-forward round
//!   salvaged (Eqs. 9/10: salvaged rounds never re-execute, so they never
//!   appear as journal entries);
//! * a `rollback` after a mismatch prices like a failed recovery; a
//!   rollback after a processor stop (`hang` verdict) costs no retry on
//!   either side — both systems merely restore;
//! * a `checkpoint` adds the calibrated checkpoint overhead to *both*
//!   sides (state saving costs the same on either architecture; the
//!   paper's forms treat it as free).
//!
//! Over a window of `W` consecutive entries on one lane:
//!
//! ```text
//! measured_G  = Σ conventional-equivalent / (Σ Δ / κ)
//! predicted_G = Σ conventional-equivalent / Σ predicted
//! residual    = measured_G − predicted_G
//! ```
//!
//! where κ calibrates the backend's time unit (cycles, abstract units)
//! to the model's: the cheapest overhead-free round observed on the lane
//! divided by the model round time. On the abstract backend κ = 1 and
//! fault-free residuals are exactly zero; on `vds-smtsim` journals the
//! residual measures genuine model deviation.
//!
//! ## Determinism contract
//!
//! The tracker is a pure function of (journal bytes, model parameters,
//! window, tolerance). Campaign journals merge lanes in shard order
//! independent of worker count, so every derived artifact — the residual
//! series, the report text/JSON, exported metrics — is byte-identical
//! across `--workers` settings, exactly like spans and the journal
//! itself.

use crate::journal::{Action, Journal, JournalHeader, RoundEntry, Verdict};
use crate::json::JsonObj;
use crate::registry::Registry;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use vds_analytic::{schemes, Params};

/// Default conformance window: residuals are aggregated over this many
/// consecutive journal entries per lane.
pub const DEFAULT_WINDOW: usize = 8;

/// Default |residual| tolerance for flagging a window.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// Default bounded capacity of the residual ring.
pub const DEFAULT_SERIES_CAPACITY: usize = 4096;

/// Fallback contention factor when a journal header carries no `alpha`
/// meta key (the paper's measured α₂ for SPEC-like pairs).
pub const DEFAULT_ALPHA: f64 = 0.65;

/// Fallback β = c/t = t'/t when the header carries no `beta` meta key.
pub const DEFAULT_BETA: f64 = 0.1;

/// One conformance window: predicted and measured G over `W` consecutive
/// rounds of a single lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSample {
    /// Journal lane (campaign trial index; 0 for single runs).
    pub lane: u64,
    /// In-interval round number of the window's first entry.
    pub first_round: u64,
    /// In-interval round number of the window's last entry.
    pub last_round: u64,
    /// Closed-form G prediction for the window's work mix.
    pub predicted_g: f64,
    /// Measured G: conventional-equivalent work over measured time.
    pub measured_g: f64,
    /// `measured_g − predicted_g`.
    pub residual: f64,
    /// Entries with an injected fault or a non-match verdict.
    pub fault_count: u64,
}

/// Bounded ring of [`WindowSample`]s, oldest-out, like the trace and
/// span rings: memory is bounded however long a campaign runs, and the
/// retained window is deterministic for a fixed input.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualSeries {
    cap: usize,
    dropped: u64,
    samples: VecDeque<WindowSample>,
}

impl ResidualSeries {
    /// Ring with room for `cap` samples (at least 1).
    pub fn with_capacity(cap: usize) -> Self {
        ResidualSeries {
            cap: cap.max(1),
            dropped: 0,
            samples: VecDeque::new(),
        }
    }

    /// Append a sample, evicting the oldest when full.
    pub fn push(&mut self, s: WindowSample) {
        if self.samples.len() == self.cap {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(s);
    }

    /// Retained samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &WindowSample> {
        self.samples.iter()
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

/// The closed-form cost model for one scheme: a scheme label plus the
/// paper's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeModel {
    /// Scheme label as recorded in journal headers (e.g. `smt-det`).
    pub scheme: String,
    /// Model parameters (t, c, t', α, s).
    pub params: Params,
}

impl SchemeModel {
    /// Build a model for a known scheme label; errors on an unknown one.
    pub fn new(scheme: &str, params: Params) -> Result<SchemeModel, String> {
        if !schemes::is_scheme_name(scheme) {
            return Err(format!(
                "unknown scheme `{scheme}` (expected one of: {})",
                schemes::SCHEME_NAMES.join(", ")
            ));
        }
        Ok(SchemeModel {
            scheme: scheme.to_string(),
            params,
        })
    }

    /// Model for a journal header: scheme, `s` and β from the header
    /// (β from the `beta` meta key, paper default otherwise). α is
    /// `alpha_override` when given — the measured-α pricing rule behind
    /// `vds conformance --alpha measured`, clamped into the model's
    /// valid `[0.5, 1]` range — else the `alpha` meta key, else the
    /// paper default.
    pub fn for_header(
        header: &JournalHeader,
        alpha_override: Option<f64>,
    ) -> Result<SchemeModel, String> {
        let alpha = match alpha_override {
            Some(a) => a.clamp(0.5, 1.0),
            None => header
                .meta("alpha")
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(DEFAULT_ALPHA),
        };
        let beta = header
            .meta("beta")
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(DEFAULT_BETA);
        let s = header.s.max(1);
        Self::new(&header.scheme, Params::with_beta(alpha, beta, s))
    }

    /// Predicted duration of one normal round on this scheme.
    pub fn round_pred(&self) -> f64 {
        schemes::round_time(&self.scheme, &self.params).expect("validated at construction")
    }

    /// Conventional-duplex-equivalent duration of one normal round.
    pub fn round_conv(&self) -> f64 {
        vds_analytic::timing::t1_round(&self.params)
    }

    /// Predicted recovery time for a detection at in-interval round `i`.
    pub fn corr_pred(&self, i: u32) -> f64 {
        schemes::corr_time(&self.scheme, &self.params, i).expect("validated at construction")
    }

    /// Conventional-duplex-equivalent recovery time (Eq. 2).
    pub fn corr_conv(&self, i: u32) -> f64 {
        vds_analytic::timing::t1_corr(&self.params, i)
    }
}

/// Per-window accumulator (conventional-equivalent work, predicted time,
/// measured time, fault count, round range).
#[derive(Debug, Clone, Copy, Default)]
struct WindowAcc {
    len: usize,
    conv: f64,
    pred: f64,
    meas: f64,
    faults: u64,
    first_round: u64,
    last_round: u64,
}

impl WindowAcc {
    fn add(&mut self, round: u64, conv: f64, pred: f64, meas: f64, faults: u64) {
        if self.len == 0 {
            self.first_round = round;
        }
        self.last_round = round;
        self.len += 1;
        self.conv += conv;
        self.pred += pred;
        self.meas += meas;
        self.faults += faults;
    }
}

/// Streams journal round events into windowed G residuals.
#[derive(Debug, Clone)]
pub struct ConformanceTracker {
    model: SchemeModel,
    alpha_source: &'static str,
    window: usize,
    tolerance: f64,
    series: ResidualSeries,
    windows: u64,
    out_of_tolerance: u64,
    sum_residual: f64,
    sum_abs_residual: f64,
    fault_entries: u64,
    skipped_entries: u64,
    worst: Option<WindowSample>,
}

/// Everything `vds conformance` prints: aggregate residual statistics
/// plus the worst window.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformanceReport {
    /// Scheme label the residuals were priced against.
    pub scheme: String,
    /// The contention factor α the closed forms were priced with.
    pub alpha: f64,
    /// Where α came from: `"parametric"` (header meta or paper default)
    /// or `"measured"` (the α-attribution ledger's mean).
    pub alpha_source: String,
    /// Window length in journal entries.
    pub window: usize,
    /// |residual| threshold used for the out-of-tolerance count.
    pub tolerance: f64,
    /// Completed windows.
    pub windows: u64,
    /// Windows with `|residual| > tolerance`.
    pub out_of_tolerance: u64,
    /// Mean signed residual over all windows.
    pub mean_residual: f64,
    /// Mean |residual| over all windows.
    pub mean_abs_residual: f64,
    /// Median residual over the retained series.
    pub p50_residual: f64,
    /// 99th-percentile residual over the retained series.
    pub p99_residual: f64,
    /// Journal entries carrying a fault or non-match verdict.
    pub fault_entries: u64,
    /// Trailing entries discarded because their lane ended mid-window.
    pub skipped_entries: u64,
    /// Windows evicted from the bounded series (quantiles cover the
    /// retained tail only; means cover everything).
    pub dropped_windows: u64,
    /// The window with the largest |residual|.
    pub worst: Option<WindowSample>,
}

impl ConformanceTracker {
    /// Tracker with the default series capacity.
    pub fn new(model: SchemeModel, window: usize, tolerance: f64) -> Self {
        Self::with_capacity(model, window, tolerance, DEFAULT_SERIES_CAPACITY)
    }

    /// Tracker with an explicit residual-ring capacity.
    pub fn with_capacity(
        model: SchemeModel,
        window: usize,
        tolerance: f64,
        capacity: usize,
    ) -> Self {
        ConformanceTracker {
            model,
            alpha_source: "parametric",
            window: window.max(1),
            tolerance: tolerance.abs(),
            series: ResidualSeries::with_capacity(capacity),
            windows: 0,
            out_of_tolerance: 0,
            sum_residual: 0.0,
            sum_abs_residual: 0.0,
            fault_entries: 0,
            skipped_entries: 0,
            worst: None,
        }
    }

    /// Build a tracker from a journal's own header and ingest it.
    pub fn for_journal(
        journal: &Journal,
        window: usize,
        tolerance: f64,
    ) -> Result<ConformanceTracker, String> {
        Self::for_journal_with_alpha(journal, window, tolerance, None)
    }

    /// [`ConformanceTracker::for_journal`] with an optional *measured*
    /// α override: when `Some`, the closed forms are priced from the
    /// α-attribution ledger's contention factor instead of the header's
    /// parametric one, and the report labels its `alpha_source`
    /// `"measured"`.
    pub fn for_journal_with_alpha(
        journal: &Journal,
        window: usize,
        tolerance: f64,
        measured_alpha: Option<f64>,
    ) -> Result<ConformanceTracker, String> {
        let header = journal
            .header()
            .ok_or_else(|| "journal has no header".to_string())?;
        let model = SchemeModel::for_header(header, measured_alpha)?;
        let mut t = ConformanceTracker::new(model, window, tolerance);
        if measured_alpha.is_some() {
            t.alpha_source = "measured";
        }
        t.ingest(journal);
        Ok(t)
    }

    /// The model being evaluated.
    pub fn model(&self) -> &SchemeModel {
        &self.model
    }

    /// The retained residual series.
    pub fn series(&self) -> &ResidualSeries {
        &self.series
    }

    /// Consume every journal entry, lane by lane in lane order.
    pub fn ingest(&mut self, journal: &Journal) {
        let mut lanes: BTreeMap<u64, Vec<&RoundEntry>> = BTreeMap::new();
        for e in journal.entries() {
            lanes.entry(e.lane).or_default().push(e);
        }
        for (lane, entries) in lanes {
            self.ingest_lane(lane, &entries);
        }
    }

    /// Calibrate κ (backend time units per model unit) for a lane: the
    /// cheapest delta following a plain commit is one overhead-free
    /// round. Falls back to the first entry (one round from lane time
    /// zero), then to 1.
    fn calibrate_kappa(&self, entries: &[&RoundEntry]) -> (f64, f64) {
        let mut min_round = f64::INFINITY;
        if let Some(first) = entries.first() {
            if first.sim_time > 0.0 {
                min_round = first.sim_time;
            }
        }
        for w in entries.windows(2) {
            if w[0].action == Action::Commit {
                let d = w[1].sim_time - w[0].sim_time;
                if d > 0.0 && d < min_round {
                    min_round = d;
                }
            }
        }
        let round_pred = self.model.round_pred();
        let kappa = if min_round.is_finite() && round_pred > 0.0 {
            min_round / round_pred
        } else {
            1.0
        };
        // Checkpoint overhead, in model units: cheapest delta following a
        // checkpoint minus one plain round. State saving costs the same
        // on either architecture, so it is charged to both sides.
        let mut min_after_ckpt = f64::INFINITY;
        for w in entries.windows(2) {
            if w[0].action == Action::Checkpoint {
                let d = w[1].sim_time - w[0].sim_time;
                if d > 0.0 && d < min_after_ckpt {
                    min_after_ckpt = d;
                }
            }
        }
        let ckpt_units = if min_after_ckpt.is_finite() && min_round.is_finite() {
            ((min_after_ckpt - min_round) / kappa).max(0.0)
        } else {
            0.0
        };
        (kappa, ckpt_units)
    }

    fn ingest_lane(&mut self, lane: u64, entries: &[&RoundEntry]) {
        let (kappa, ckpt_units) = self.calibrate_kappa(entries);
        let round_conv = self.model.round_conv();
        let round_pred = self.model.round_pred();
        let mut prev: Option<&RoundEntry> = None;
        let mut prev_time = 0.0;
        let mut acc = WindowAcc::default();
        for &e in entries {
            let meas = (e.sim_time - prev_time) / kappa;
            prev_time = e.sim_time;
            let mut conv = round_conv;
            let mut pred = round_pred;
            if let Some(p) = prev {
                // The previous entry's post-comparison overhead lands in
                // this delta (entries are stamped before recovery and
                // checkpoint costs are charged).
                let i = u32::try_from(p.round)
                    .unwrap_or(u32::MAX)
                    .clamp(1, self.model.params.s);
                match p.action {
                    Action::Commit => {}
                    Action::Checkpoint => {
                        conv += ckpt_units;
                        pred += ckpt_units;
                    }
                    Action::Recover => {
                        // Roll-forward credit: salvaged rounds never
                        // re-execute, so the conventional duplex would
                        // have spent a full round on each of them.
                        conv += self.model.corr_conv(i) + f64::from(p.rollforward) * round_conv;
                        pred += self.model.corr_pred(i);
                    }
                    Action::Rollback => {
                        if p.verdict != Verdict::Hang {
                            conv += self.model.corr_conv(i);
                            pred += self.model.corr_pred(i);
                        }
                        // A processor stop spends no retry time on either
                        // side: both systems restore and move on.
                    }
                    Action::Shutdown => {}
                }
            }
            let faults = u64::from(e.fault.is_some() || e.verdict != Verdict::Match);
            acc.add(e.round, conv, pred, meas, faults);
            prev = Some(e);
            if acc.len == self.window {
                self.flush(lane, &mut acc);
            }
        }
        // A trailing partial window would bias quantiles; drop it but
        // account for it so reports never silently truncate.
        self.skipped_entries += acc.len as u64;
    }

    fn flush(&mut self, lane: u64, acc: &mut WindowAcc) {
        let measured_g = if acc.meas > 0.0 {
            acc.conv / acc.meas
        } else {
            0.0
        };
        let predicted_g = if acc.pred > 0.0 {
            acc.conv / acc.pred
        } else {
            0.0
        };
        let residual = measured_g - predicted_g;
        let sample = WindowSample {
            lane,
            first_round: acc.first_round,
            last_round: acc.last_round,
            predicted_g,
            measured_g,
            residual,
            fault_count: acc.faults,
        };
        self.windows += 1;
        self.sum_residual += residual;
        self.sum_abs_residual += residual.abs();
        self.fault_entries += acc.faults;
        if residual.abs() > self.tolerance {
            self.out_of_tolerance += 1;
        }
        let is_worst = match self.worst {
            None => true,
            Some(w) => residual.abs() > w.residual.abs(),
        };
        if is_worst {
            self.worst = Some(sample);
        }
        self.series.push(sample);
        *acc = WindowAcc::default();
    }

    /// Exact quantile over the retained residuals (sorted copy; the ring
    /// is bounded so this stays cheap).
    fn series_quantile(&self, p: f64) -> f64 {
        let mut rs: Vec<f64> = self.series.iter().map(|s| s.residual).collect();
        if rs.is_empty() {
            return 0.0;
        }
        rs.sort_by(f64::total_cmp);
        let target = ((p * rs.len() as f64).ceil() as usize).clamp(1, rs.len());
        rs[target - 1]
    }

    /// Snapshot the aggregate report.
    pub fn report(&self) -> ConformanceReport {
        let n = self.windows.max(1) as f64;
        ConformanceReport {
            scheme: self.model.scheme.clone(),
            alpha: self.model.params.alpha,
            alpha_source: self.alpha_source.to_string(),
            window: self.window,
            tolerance: self.tolerance,
            windows: self.windows,
            out_of_tolerance: self.out_of_tolerance,
            mean_residual: if self.windows == 0 {
                0.0
            } else {
                self.sum_residual / n
            },
            mean_abs_residual: if self.windows == 0 {
                0.0
            } else {
                self.sum_abs_residual / n
            },
            p50_residual: self.series_quantile(0.5),
            p99_residual: self.series_quantile(0.99),
            fault_entries: self.fault_entries,
            skipped_entries: self.skipped_entries,
            dropped_windows: self.series.dropped(),
            worst: self.worst,
        }
    }

    /// Export conformance metrics into a registry: gauges for the
    /// aggregates plus the `conformance.residual_abs` histogram.
    /// Deliberately no counters — bench work-unit accounting sums
    /// counters, and conformance must never perturb it.
    pub fn export_metrics(&self, reg: &mut Registry) {
        let r = self.report();
        reg.gauge("conformance.alpha", r.alpha);
        reg.gauge("conformance.windows", r.windows as f64);
        reg.gauge(
            "conformance.windows_out_of_tolerance",
            r.out_of_tolerance as f64,
        );
        reg.gauge("conformance.mean_residual", r.mean_residual);
        reg.gauge("conformance.mean_abs_residual", r.mean_abs_residual);
        reg.gauge("conformance.p50_residual", r.p50_residual);
        reg.gauge("conformance.p99_residual", r.p99_residual);
        if let Some(w) = r.worst {
            reg.gauge("conformance.worst_abs_residual", w.residual.abs());
        }
        for s in self.series.iter() {
            reg.observe_hist("conformance.residual_abs", s.residual.abs());
        }
    }
}

impl ConformanceReport {
    /// Deterministic human-readable rendering (what `vds conformance`
    /// prints).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "conformance: scheme {}, {} window{} of {} rounds",
            self.scheme,
            self.windows,
            if self.windows == 1 { "" } else { "s" },
            self.window
        );
        let _ = writeln!(
            out,
            "  priced at alpha {:.4} ({})",
            self.alpha, self.alpha_source
        );
        if self.windows == 0 {
            let _ = writeln!(
                out,
                "  no complete windows ({} entries skipped); try a smaller --window",
                self.skipped_entries
            );
            return out;
        }
        let _ = writeln!(
            out,
            "  residual: mean {:+.6}  |mean| {:.6}  p50 {:+.6}  p99 {:+.6}",
            self.mean_residual, self.mean_abs_residual, self.p50_residual, self.p99_residual
        );
        let pct = 100.0 * self.out_of_tolerance as f64 / self.windows as f64;
        let _ = writeln!(
            out,
            "  outside |residual| <= {:.3}: {} of {} windows ({:.1}%)",
            self.tolerance, self.out_of_tolerance, self.windows, pct
        );
        if let Some(w) = &self.worst {
            let _ = writeln!(
                out,
                "  worst window: lane {} rounds {}..{} residual {:+.6} (measured {:.6}, predicted {:.6}, faults {})",
                w.lane,
                w.first_round,
                w.last_round,
                w.residual,
                w.measured_g,
                w.predicted_g,
                w.fault_count
            );
        }
        let _ = writeln!(
            out,
            "  fault entries: {}  skipped (partial windows): {}  evicted windows: {}",
            self.fault_entries, self.skipped_entries, self.dropped_windows
        );
        out
    }

    /// JSON report (`vds conformance --json`, `/conformance`).
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::report("conformance")
            .str("scheme", &self.scheme)
            .f64("alpha", self.alpha)
            .str("alpha_source", &self.alpha_source)
            .u64("window", self.window as u64)
            .f64("tolerance", self.tolerance)
            .u64("windows", self.windows)
            .u64("out_of_tolerance", self.out_of_tolerance)
            .f64("mean_residual", self.mean_residual)
            .f64("mean_abs_residual", self.mean_abs_residual)
            .f64("p50_residual", self.p50_residual)
            .f64("p99_residual", self.p99_residual)
            .u64("fault_entries", self.fault_entries)
            .u64("skipped_entries", self.skipped_entries)
            .u64("dropped_windows", self.dropped_windows);
        if let Some(w) = &self.worst {
            let worst = JsonObj::new()
                .u64("lane", w.lane)
                .u64("first_round", w.first_round)
                .u64("last_round", w.last_round)
                .f64("predicted_g", w.predicted_g)
                .f64("measured_g", w.measured_g)
                .f64("residual", w.residual)
                .u64("fault_count", w.fault_count)
                .finish();
            o = o.raw("worst", &worst);
        }
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Action, Journal, JournalHeader, RoundEntry, Verdict};
    use vds_analytic::timing;

    #[allow(clippy::too_many_arguments)]
    fn entry(
        seq: u64,
        lane: u64,
        round: u64,
        sim_time: f64,
        verdict: Verdict,
        action: Action,
        rollforward: u32,
        fault: Option<&str>,
    ) -> RoundEntry {
        RoundEntry {
            seq,
            lane,
            round,
            committed: 0,
            sim_time,
            d1: crate::digest_words128(&[seq as u32]),
            d2: crate::digest_words128(&[seq as u32]),
            verdict,
            sched: "coschedule[v1,v2]".to_string(),
            action,
            rollforward,
            fault: fault.map(str::to_string),
            fault_id: fault.map(|_| 0),
            fault_outcome: None,
        }
    }

    /// A synthetic lane timed exactly by the closed forms must produce
    /// residuals of exactly zero.
    fn model_timed_journal(faulty_round: Option<u64>) -> Journal {
        let header = JournalHeader::new("abstract", "smt-det", 1, 20, 12);
        let model = SchemeModel::for_header(&header, None).unwrap();
        let mut j = Journal::enabled(header);
        let mut clock = 0.0;
        let mut round = 1u64;
        for seq in 0..12u64 {
            clock += model.round_pred();
            let fault_here = faulty_round == Some(seq);
            let (verdict, action) = if fault_here {
                (Verdict::Mismatch, Action::Recover)
            } else if round == 20 {
                (Verdict::Match, Action::Checkpoint)
            } else {
                (Verdict::Match, Action::Commit)
            };
            j.push(entry(
                seq,
                0,
                round,
                clock,
                verdict,
                action,
                0,
                fault_here.then_some("transient:mem:1:1@v2"),
            ));
            if fault_here {
                clock += model.corr_pred(u32::try_from(round).unwrap());
                // the retry recommits the round; in-interval position
                // stays put (engine debits then re-runs)
            } else {
                round += 1;
            }
        }
        j
    }

    #[test]
    fn model_timed_lane_has_zero_residual() {
        for faulty in [None, Some(5)] {
            let j = model_timed_journal(faulty);
            let t = ConformanceTracker::for_journal(&j, 4, 0.25).unwrap();
            let r = t.report();
            assert_eq!(r.windows, 3, "fault {faulty:?}");
            assert!(
                r.mean_abs_residual < 1e-9,
                "fault {faulty:?}: {}",
                r.mean_abs_residual
            );
            assert_eq!(r.out_of_tolerance, 0);
            assert_eq!(r.fault_entries, u64::from(faulty.is_some()));
            assert_eq!(r.skipped_entries, 0);
        }
    }

    #[test]
    fn a_slow_backend_yields_negative_residuals() {
        // time every round 25% slower than the model predicts, but leave
        // the cheapest round at model speed so κ calibrates to 1
        let header = JournalHeader::new("micro", "smt-det", 1, 20, 9);
        let model = SchemeModel::for_header(&header, None).unwrap();
        let mut j = Journal::enabled(header);
        let mut clock = model.round_pred(); // entry 0 at model speed
        j.push(entry(
            0,
            0,
            1,
            clock,
            Verdict::Match,
            Action::Commit,
            0,
            None,
        ));
        for seq in 1..9u64 {
            clock += model.round_pred() * 1.25;
            j.push(entry(
                seq,
                0,
                seq + 1,
                clock,
                Verdict::Match,
                Action::Commit,
                0,
                None,
            ));
        }
        let t = ConformanceTracker::for_journal(&j, 3, 0.05).unwrap();
        let r = t.report();
        assert_eq!(r.windows, 3);
        assert!(r.mean_residual < -0.05, "mean {}", r.mean_residual);
        assert!(r.out_of_tolerance >= 2, "{r:?}");
        let w = r.worst.unwrap();
        assert!(w.measured_g < w.predicted_g);
    }

    #[test]
    fn report_is_deterministic_and_lane_invariant_shapes() {
        let j = model_timed_journal(Some(3));
        let a = ConformanceTracker::for_journal(&j, 4, 0.25).unwrap();
        let b = ConformanceTracker::for_journal(&j, 4, 0.25).unwrap();
        assert_eq!(a.report(), b.report());
        assert_eq!(a.report().render_text(), b.report().render_text());
        assert_eq!(a.report().to_json(), b.report().to_json());
        assert!(a.report().to_json().starts_with(
            "{\"schema\":\"vds.report.v1\",\"kind\":\"conformance\",\"scheme\":\"smt-det\""
        ));
    }

    #[test]
    fn measured_alpha_override_reprices_the_model() {
        // The faulty journal matters: κ-calibration absorbs a pure α
        // rescale on all-commit lanes, but recovery time scales with α
        // differently from round time, so repricing moves the residual.
        let j = model_timed_journal(Some(5));
        let parametric = ConformanceTracker::for_journal(&j, 4, 0.25).unwrap();
        let measured = ConformanceTracker::for_journal_with_alpha(&j, 4, 0.25, Some(0.9)).unwrap();
        assert_eq!(parametric.report().alpha_source, "parametric");
        assert_eq!(parametric.report().alpha, DEFAULT_ALPHA);
        assert_eq!(measured.report().alpha_source, "measured");
        assert_eq!(measured.report().alpha, 0.9);
        assert_eq!(measured.model().params.alpha, 0.9);
        // The journal is timed at the parametric α, so pricing with a
        // different α must move the residuals.
        assert!(
            (measured.report().mean_abs_residual - parametric.report().mean_abs_residual).abs()
                > 1e-3,
            "measured-α pricing did not change residuals"
        );
        assert!(measured
            .report()
            .render_text()
            .contains("priced at alpha 0.9000 (measured)"));
        assert!(measured
            .report()
            .to_json()
            .contains("\"alpha\":0.9,\"alpha_source\":\"measured\""));
        // Out-of-range measured α is clamped into the model's domain.
        let clamped = ConformanceTracker::for_journal_with_alpha(&j, 4, 0.25, Some(1.7)).unwrap();
        assert_eq!(clamped.report().alpha, 1.0);
    }

    #[test]
    fn residual_series_ring_is_bounded() {
        let mut s = ResidualSeries::with_capacity(2);
        for i in 0..5u64 {
            s.push(WindowSample {
                lane: 0,
                first_round: i,
                last_round: i,
                predicted_g: 1.0,
                measured_g: 1.0,
                residual: i as f64,
                fault_count: 0,
            });
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 3);
        let kept: Vec<u64> = s.iter().map(|w| w.first_round).collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn export_metrics_uses_no_counters() {
        let j = model_timed_journal(None);
        let t = ConformanceTracker::for_journal(&j, 4, 0.25).unwrap();
        let mut reg = Registry::new();
        t.export_metrics(&mut reg);
        assert_eq!(reg.counters().count(), 0, "work-unit accounting guard");
        assert_eq!(reg.gauge_value("conformance.windows"), Some(3.0));
        assert_eq!(
            reg.histogram("conformance.residual_abs").unwrap().count(),
            3
        );
    }

    #[test]
    fn header_model_respects_meta_overrides() {
        let h = JournalHeader::new("abstract", "smt-prob", 7, 10, 50)
            .with_meta("alpha", "0.8")
            .with_meta("beta", "0.05");
        let m = SchemeModel::for_header(&h, None).unwrap();
        assert_eq!(m.params.alpha, 0.8);
        assert!((m.params.t_cmp - 0.05).abs() < 1e-12);
        assert_eq!(m.params.s, 10);
        // round prediction follows Eq. 3 with those params
        assert_eq!(m.round_pred(), timing::tht2_round(&m.params));
        assert!(SchemeModel::new("bogus", Params::paper_default()).is_err());
    }

    #[test]
    fn unknown_scheme_in_header_is_an_error() {
        let h = JournalHeader::new("abstract", "adaptive-v2", 7, 10, 50);
        let err = SchemeModel::for_header(&h, None).unwrap_err();
        assert!(err.contains("adaptive-v2"), "{err}");
        assert!(err.contains("smt-det"), "lists valid names: {err}");
    }
}
