//! The [`Recorder`] handle: the single object components accept to emit
//! metrics, spans and journal entries.
//!
//! A recorder bundles a [`Registry`], a [`SpanSet`] and a [`Journal`]
//! and keeps everything it is given; a run that records nothing is
//! driven through the zero-sized [`crate::NoopRecorder`] instead.
//! Recorders are plain owned values: parallel code gives each shard its
//! own recorder and merges them in a fixed order, which keeps content
//! deterministic for a fixed seed regardless of worker count.

use crate::conformance::{ConformanceTracker, DEFAULT_TOLERANCE, DEFAULT_WINDOW};
use crate::forensics::ForensicsTracker;
use crate::journal::{Journal, JournalHeader, RoundEntry};
use crate::registry::Registry;
use crate::span::{SpanGuard, SpanRecord, SpanSet, Value, DEFAULT_SPAN_CAPACITY};
use std::time::Instant;

/// Metrics + span + journal sink handed through the stack.
#[derive(Debug, Clone, PartialEq)]
pub struct Recorder {
    /// Whether spans keep their key/value fields; a recorder kept only
    /// for its registry rolls spans up without them.
    span_fields: bool,
    registry: Registry,
    spans: SpanSet,
    journal: Journal,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Recorder with the default span capacity.
    pub fn new() -> Self {
        Self::with_span_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// Recorder keeping at most `capacity` spans (0 = metrics and
    /// journal only).
    pub fn with_span_capacity(capacity: usize) -> Self {
        Recorder {
            span_fields: true,
            registry: Registry::new(),
            spans: SpanSet::with_capacity(capacity),
            journal: Journal::default(),
        }
    }

    /// Recorder for a run of which only the registry (span rollups
    /// included) and the journal are kept, as a campaign trial's
    /// ([`Recorder::adopt_run`]): spans are kept for the rollup alone,
    /// without their fields.
    pub fn registry_only() -> Self {
        Recorder {
            span_fields: false,
            ..Self::new()
        }
    }

    /// Always `true`: the facade's [`crate::Record::is_active`] on a
    /// concrete `Recorder`, so the `obs_*!` macros work on one without
    /// importing the trait.
    pub fn is_active(&self) -> bool {
        true
    }

    /// Whether spans keep the key/value fields they are closed with.
    pub fn keeps_span_fields(&self) -> bool {
        self.span_fields
    }

    /// Add `n` to a counter.
    pub fn count(&mut self, name: &str, n: u64) {
        self.registry.count(name, n);
    }

    /// Increment a counter by one.
    pub fn bump(&mut self, name: &str) {
        self.count(name, 1);
    }

    /// Set a gauge (last write wins).
    pub fn gauge(&mut self, name: &str, v: f64) {
        self.registry.gauge(name, v);
    }

    /// Raise a gauge to at least `v` (high-water marks).
    pub fn gauge_max(&mut self, name: &str, v: f64) {
        self.registry.gauge_max(name, v);
    }

    /// Record a numeric observation into a streaming summary.
    pub fn observe(&mut self, name: &str, x: f64) {
        self.registry.observe(name, x);
    }

    /// Record one observation into the named first-class histogram.
    pub fn observe_hist(&mut self, name: &str, x: f64) {
        self.registry.observe_hist(name, x);
    }

    /// Open a span at simulated time `begin` on lane (tid) 0. Close the
    /// returned guard with [`Recorder::end_span`].
    pub fn span(&mut self, component: &'static str, name: &'static str, begin: f64) -> SpanGuard {
        self.span_on(0, component, name, begin)
    }

    /// Open a span on an explicit hardware-thread lane.
    pub fn span_on(
        &mut self,
        tid: u32,
        component: &'static str,
        name: &'static str,
        begin: f64,
    ) -> SpanGuard {
        SpanGuard {
            id: self.spans.begin_span(component, name, tid, begin),
        }
    }

    /// Close a span at simulated time `end`.
    pub fn end_span(&mut self, guard: SpanGuard, end: f64) {
        self.end_span_with(guard, end, Vec::new());
    }

    /// Close a span, attaching key/value fields (they become the Chrome
    /// trace event's `args`; dropped unless [`Recorder::keeps_span_fields`]).
    pub fn end_span_with(
        &mut self,
        guard: SpanGuard,
        end: f64,
        mut fields: Vec<(&'static str, Value)>,
    ) {
        if !self.span_fields {
            fields = Vec::new();
        }
        self.spans.end_span(guard.id, end, fields);
    }

    /// Record an already-completed span directly (timeline conversions;
    /// its fields are dropped unless [`Recorder::keeps_span_fields`]).
    pub fn record_span(&mut self, mut record: SpanRecord) {
        if !self.span_fields {
            record.fields = Vec::new();
        }
        self.spans.push(record);
    }

    /// Read access to the collected spans.
    pub fn spans(&self) -> &SpanSet {
        &self.spans
    }

    /// Fold per-phase `span.<component>.<name>.total` / `.self` summaries
    /// of the spans held so far into this recorder's registry. Every call
    /// observes every held span again, so call it once per span set: the
    /// duplex engines roll up each run's own spans at the end of the run,
    /// and a campaign rolls up its merged shard spans once, after the
    /// merge. Merging a rolled-up registry into another recorder carries
    /// the rollups along; do not merge that recorder's spans too and roll
    /// up again.
    pub fn rollup_spans(&mut self) {
        self.spans.rollup_into(&mut self.registry);
    }

    /// Read access to the collected metrics.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Turn on the execution flight recorder for this recorder's run.
    pub fn enable_journal(&mut self, header: JournalHeader) {
        self.journal = Journal::enabled(header);
    }

    /// Whether journal entries are being kept.
    pub fn journal_enabled(&self) -> bool {
        self.journal.is_enabled()
    }

    /// Append one round entry to the journal (dropped unless
    /// [`Recorder::enable_journal`] was called).
    pub fn journal_push(&mut self, entry: RoundEntry) {
        self.journal.push(entry);
    }

    /// Stamp the terminal outcome (`masked` / `escaped`) onto the journal
    /// entry that injected fault `fault_id` (dropped unless the journal
    /// is enabled).
    pub fn journal_resolve_fault(&mut self, fault_id: u64, outcome: &str) {
        self.journal.resolve_fault(fault_id, outcome);
    }

    /// Read access to the flight-recorder journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Adopt a finished run's recording as campaign trial `lane`: merge
    /// its registry into this one and move its journal entries over under
    /// lane `lane` (kept only if this recorder's journal is enabled). Its
    /// spans are dropped.
    pub fn adopt_run(&mut self, run: Recorder, lane: u64) {
        self.registry.merge(&run.registry);
        self.journal.adopt(run.journal, lane);
    }

    /// Price the journal into this recorder's registry: the `journal.*`
    /// counters and last-divergence gauge, the model-conformance
    /// residuals ([`ConformanceTracker`] at [`DEFAULT_WINDOW`] /
    /// [`DEFAULT_TOLERANCE`]: gauges and a histogram, never counters) and
    /// the per-fault `faults.*` forensics ([`ForensicsTracker`]). Call
    /// once at the top level, after shard merging, so nothing is double
    /// counted; the engines never export these themselves, so bench work
    /// units on unjournaled paths stay untouched.
    pub fn export_journal_metrics(&mut self) {
        let journal = std::mem::take(&mut self.journal);
        journal.export_metrics(&mut self.registry);
        if let Ok(tracker) =
            ConformanceTracker::for_journal(&journal, DEFAULT_WINDOW, DEFAULT_TOLERANCE)
        {
            let mut reg = Registry::new();
            tracker.export_metrics(&mut reg);
            self.registry.merge(&reg);
        }
        if let Ok(tracker) = ForensicsTracker::for_journal(&journal) {
            let mut reg = Registry::new();
            tracker.export_metrics(&mut reg);
            self.registry.merge(&reg);
        }
        self.journal = journal;
    }

    /// Consume the recorder, returning its registry and spans.
    pub fn into_parts(self) -> (Registry, SpanSet) {
        (self.registry, self.spans)
    }

    /// Merge another recorder's content into this one (counters add,
    /// gauges max, summaries merge, spans and journal entries
    /// concatenate). Merge shards in a fixed order for
    /// bit-reproducibility.
    pub fn merge(&mut self, other: Recorder) {
        self.registry.merge(&other.registry);
        self.spans.extend_from(&other.spans);
        self.journal.extend_from(other.journal);
    }

    /// Merge only another recorder's completed spans (callers that merge
    /// registries with [`Recorder::merge_prefixed`] still want the spans).
    pub fn merge_spans(&mut self, other: &Recorder) {
        self.spans.extend_from(&other.spans);
    }

    /// Merge with every metric name prefixed by `prefix.`.
    pub fn merge_prefixed(&mut self, other: &Registry, prefix: &str) {
        self.registry.merge(&other.prefixed(prefix));
    }

    /// Fold an already-accumulated summary into the named summary.
    pub fn merge_summary(&mut self, name: &str, s: &crate::summary::Summary) {
        self.registry.merge_summary(name, s);
    }
}

/// Host wall-clock stopwatch. Host time never enters a [`Registry`]:
/// it differs run to run, and every registry export is deterministic.
#[derive(Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Seconds elapsed since `start`.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_collects() {
        let mut r = Recorder::new();
        r.bump("c");
        r.count("c", 2);
        r.observe("s", 5.0);
        let g = r.span("t", "p", 1.0);
        r.end_span_with(g, 2.0, vec![("k", 7u64.into())]);
        assert_eq!(r.registry().counter("c"), 3);
        assert_eq!(r.spans().len(), 1);
    }

    #[test]
    fn a_default_recorder_records() {
        let mut r = Recorder::default();
        assert_eq!(r, Recorder::new());
        r.bump("c");
        assert_eq!(r.registry().counter("c"), 1);
    }

    #[test]
    fn merge_folds_both_parts() {
        let mut a = Recorder::new();
        a.bump("c");
        let mut b = Recorder::new();
        b.bump("c");
        let g = b.span("t", "p", 2.0);
        b.end_span(g, 3.0);
        a.merge(b);
        assert_eq!(a.registry().counter("c"), 2);
        assert_eq!(a.spans().len(), 1);
    }
}
