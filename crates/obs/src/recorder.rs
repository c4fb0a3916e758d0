//! The [`Recorder`] handle: the single object components accept to emit
//! metrics and trace events.
//!
//! A recorder bundles a [`Registry`] and a [`Trace`] behind an enabled
//! flag, so instrumented code takes `&mut Recorder` unconditionally and a
//! disabled recorder costs one branch per call site. Recorders are plain
//! owned values: parallel code gives each shard its own recorder and
//! merges them in a fixed order, which keeps content deterministic for a
//! fixed seed regardless of worker count.

use crate::conformance::{ConformanceTracker, DEFAULT_TOLERANCE, DEFAULT_WINDOW};
use crate::forensics::ForensicsTracker;
use crate::journal::{Journal, JournalHeader, RoundEntry};
use crate::registry::Registry;
use crate::span::{SpanGuard, SpanRecord, SpanSet, DEFAULT_SPAN_CAPACITY};
use crate::trace::{Trace, TraceRecord, Value};
use std::time::Instant;

/// Default trace capacity for enabled recorders.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// Metrics + trace + span + journal sink handed through the stack.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Recorder {
    enabled: bool,
    /// Whether spans keep their key/value fields; a recorder kept only
    /// for its registry rolls spans up without them.
    span_fields: bool,
    registry: Registry,
    trace: Trace,
    spans: SpanSet,
    journal: Journal,
}

impl Recorder {
    /// Enabled recorder with the default trace and span capacities.
    pub fn new() -> Self {
        Self::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// Enabled recorder with an explicit trace capacity, mirrored onto
    /// the span ring (0 = metrics only).
    pub fn with_trace_capacity(capacity: usize) -> Self {
        Self::with_capacities(capacity, capacity)
    }

    /// Enabled recorder with independent trace and span capacities
    /// (campaign shards keep spans but skip per-trial event traces).
    pub fn with_capacities(trace_capacity: usize, span_capacity: usize) -> Self {
        Recorder {
            enabled: true,
            span_fields: true,
            registry: Registry::new(),
            trace: Trace::with_capacity(trace_capacity),
            spans: SpanSet::with_capacity(span_capacity),
            journal: Journal::disabled(),
        }
    }

    /// Enabled recorder for a run of which only the registry (span
    /// rollups included) and the journal are kept, as a campaign trial's
    /// ([`Recorder::adopt_run`]): no event trace, and spans kept for the
    /// rollup alone, without their fields.
    pub fn registry_only() -> Self {
        Recorder {
            span_fields: false,
            ..Self::with_capacities(0, DEFAULT_SPAN_CAPACITY)
        }
    }

    /// A recorder that ignores everything (for uninstrumented runs).
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            span_fields: false,
            registry: Registry::new(),
            trace: Trace::with_capacity(0),
            spans: SpanSet::with_capacity(0),
            journal: Journal::disabled(),
        }
    }

    /// Whether this recorder keeps what it is given.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Alias of [`Recorder::is_enabled`] matching the facade's
    /// [`crate::Record::is_active`], so the `obs_*!` macros work on a
    /// concrete `Recorder` without importing the trait.
    pub fn is_active(&self) -> bool {
        self.enabled
    }

    /// Whether trace events are kept: the recorder is enabled and its
    /// trace has room for at least one record.
    pub fn keeps_events(&self) -> bool {
        self.enabled && self.trace.capacity() > 0
    }

    /// Whether spans keep the key/value fields they are closed with.
    pub fn keeps_span_fields(&self) -> bool {
        self.enabled && self.span_fields
    }

    /// Add `n` to a counter.
    pub fn count(&mut self, name: &str, n: u64) {
        if self.enabled {
            self.registry.count(name, n);
        }
    }

    /// Increment a counter by one.
    pub fn bump(&mut self, name: &str) {
        self.count(name, 1);
    }

    /// Set a gauge (last write wins).
    pub fn gauge(&mut self, name: &str, v: f64) {
        if self.enabled {
            self.registry.gauge(name, v);
        }
    }

    /// Raise a gauge to at least `v` (high-water marks).
    pub fn gauge_max(&mut self, name: &str, v: f64) {
        if self.enabled {
            self.registry.gauge_max(name, v);
        }
    }

    /// Record a numeric observation into a streaming summary.
    pub fn observe(&mut self, name: &str, x: f64) {
        if self.enabled {
            self.registry.observe(name, x);
        }
    }

    /// Record one observation into the named first-class histogram.
    pub fn observe_hist(&mut self, name: &str, x: f64) {
        if self.enabled {
            self.registry.observe_hist(name, x);
        }
    }

    /// Emit a trace event at simulated time `sim_time`.
    pub fn event(
        &mut self,
        sim_time: f64,
        component: &'static str,
        event: &'static str,
        fields: Vec<(&'static str, Value)>,
    ) {
        if self.enabled {
            self.trace.push(TraceRecord {
                sim_time,
                component,
                event,
                fields,
            });
        }
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
        if !self.enabled {
            return SpanGuard::inert();
        }
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
        if self.enabled {
            if !self.span_fields {
                fields = Vec::new();
            }
            self.spans.end_span(guard.id, end, fields);
        }
    }

    /// Record an already-completed span directly (timeline conversions;
    /// its fields are dropped unless [`Recorder::keeps_span_fields`]).
    pub fn record_span(&mut self, mut record: SpanRecord) {
        if self.enabled {
            if !self.span_fields {
                record.fields = Vec::new();
            }
            self.spans.push(record);
        }
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
        if self.enabled {
            self.spans.rollup_into(&mut self.registry);
        }
    }

    /// Read access to the collected metrics.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Read access to the collected trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Turn on the execution flight recorder for this recorder's run.
    /// No-op on a disabled recorder.
    pub fn enable_journal(&mut self, header: JournalHeader) {
        if self.enabled {
            self.journal = Journal::enabled(header);
        }
    }

    /// Whether journal entries are being kept.
    pub fn journal_enabled(&self) -> bool {
        self.enabled && self.journal.is_enabled()
    }

    /// Append one round entry to the journal (dropped unless
    /// [`Recorder::enable_journal`] was called).
    pub fn journal_push(&mut self, entry: RoundEntry) {
        if self.enabled {
            self.journal.push(entry);
        }
    }

    /// Stamp the terminal outcome (`masked` / `escaped`) onto the journal
    /// entry that injected fault `fault_id` (dropped unless the journal
    /// is enabled).
    pub fn journal_resolve_fault(&mut self, fault_id: u64, outcome: &str) {
        if self.enabled {
            self.journal.resolve_fault(fault_id, outcome);
        }
    }

    /// Read access to the flight-recorder journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Adopt a finished run's recording as campaign trial `lane`: merge
    /// its registry into this one and move its journal entries over under
    /// lane `lane` (kept only if this recorder's journal is enabled). Its
    /// trace and spans are dropped.
    pub fn adopt_run(&mut self, run: Recorder, lane: u64) {
        if self.enabled {
            self.registry.merge(&run.registry);
            self.journal.adopt(run.journal, lane);
        }
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
        if !self.enabled {
            return;
        }
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

    /// Consume the recorder, returning its registry, trace and spans.
    pub fn into_parts(self) -> (Registry, Trace, SpanSet) {
        (self.registry, self.trace, self.spans)
    }

    /// Merge another recorder's content into this one (counters add,
    /// gauges max, summaries merge, traces/spans/journal entries
    /// concatenate). Merge shards in a fixed order for
    /// bit-reproducibility.
    pub fn merge(&mut self, other: Recorder) {
        if self.enabled {
            self.registry.merge(&other.registry);
            self.trace.extend_from(&other.trace);
            self.spans.extend_from(&other.spans);
            self.journal.extend_from(other.journal);
        }
    }

    /// Merge only another recorder's completed spans (callers that merge
    /// registries with [`Recorder::merge_prefixed`] still want the spans).
    pub fn merge_spans(&mut self, other: &Recorder) {
        if self.enabled {
            self.spans.extend_from(&other.spans);
        }
    }

    /// Merge a registry's content into this recorder's registry as-is
    /// (counters add, gauges max, summaries merge; no prefixing).
    pub fn merge_registry(&mut self, other: &Registry) {
        if self.enabled {
            self.registry.merge(other);
        }
    }

    /// Merge with every metric name prefixed by `prefix.`.
    pub fn merge_prefixed(&mut self, other: &Registry, prefix: &str) {
        if self.enabled {
            self.registry.merge(&other.prefixed(prefix));
        }
    }

    /// Fold an already-accumulated summary into the named summary.
    pub fn merge_summary(&mut self, name: &str, s: &crate::summary::Summary) {
        if self.enabled {
            self.registry.merge_summary(name, s);
        }
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
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::disabled();
        r.bump("c");
        r.gauge("g", 1.0);
        r.observe("s", 2.0);
        r.event(0.0, "t", "e", vec![]);
        assert!(r.registry().is_empty());
        assert!(r.trace().is_empty());
    }

    #[test]
    fn enabled_recorder_collects() {
        let mut r = Recorder::new();
        r.bump("c");
        r.count("c", 2);
        r.observe("s", 5.0);
        r.event(1.0, "t", "e", vec![("k", 7u64.into())]);
        assert_eq!(r.registry().counter("c"), 3);
        assert_eq!(r.trace().len(), 1);
    }

    #[test]
    fn merge_folds_both_parts() {
        let mut a = Recorder::new();
        a.bump("c");
        let mut b = Recorder::new();
        b.bump("c");
        b.event(2.0, "t", "e", vec![]);
        a.merge(b);
        assert_eq!(a.registry().counter("c"), 2);
        assert_eq!(a.trace().len(), 1);
    }
}
