//! The statically-dispatched recording facade.
//!
//! Engines are generic over [`Record`], so every emission call is
//! monomorphized against the concrete recorder type. The zero-sized
//! [`NoopRecorder`] implements the trait with empty bodies and
//! `is_active() == false`, which lets the optimizer fold away not only
//! the calls themselves but — via the `obs_*!` macros, which guard
//! argument construction behind `is_active()` — the argument
//! allocations (`vec![…]` field lists, `format!` labels) at the call
//! sites too. Uninstrumented runs pay literally nothing.
//!
//! The concrete [`Recorder`] implements the same trait by delegating to
//! its inherent methods, so instrumented entry points (the engines'
//! `*_with_recorder`, journaled runs) keep their exact behaviour and
//! byte-identical exports.
//!
//! **Determinism contract.** Whether a run is driven through
//! [`NoopRecorder`] or a [`Recorder`] must never change the simulation
//! itself: recording is write-only, no control flow may read recorder
//! state, and per-round digests are computed for the comparator
//! regardless of instrumentation. The feature-matrix tests pin this by
//! comparing run reports and journal digest sequences across recorder
//! types.

use crate::journal::RoundEntry;
use crate::recorder::Recorder;
use crate::span::{SpanGuard, SpanRecord, Value};

/// The facade instrumented code is generic over.
///
/// Every method has a no-op default so sinks only override what they
/// keep. Hot paths should go through the `obs_*!` macros rather than
/// calling these directly: the macros skip argument construction when
/// [`Record::is_active`] is false, which is what makes instrumentation
/// through [`NoopRecorder`] compile to nothing.
pub trait Record {
    /// Whether emissions are kept: constant `false` for
    /// [`NoopRecorder`], constant `true` for [`Recorder`].
    #[inline]
    fn is_active(&self) -> bool {
        false
    }

    /// Whether spans keep their key/value fields: the `obs_end_span!`
    /// macro builds a field list only when this holds. Constant `false`
    /// for [`NoopRecorder`].
    #[inline]
    fn keeps_span_fields(&self) -> bool {
        false
    }

    /// Add `n` to a counter.
    #[inline]
    fn count(&mut self, _name: &str, _n: u64) {}

    /// Increment a counter by one.
    #[inline]
    fn bump(&mut self, name: &str) {
        self.count(name, 1);
    }

    /// Set a gauge (last write wins).
    #[inline]
    fn gauge(&mut self, _name: &str, _v: f64) {}

    /// Raise a gauge to at least `v` (high-water marks).
    #[inline]
    fn gauge_max(&mut self, _name: &str, _v: f64) {}

    /// Record a numeric observation into a streaming summary.
    #[inline]
    fn observe(&mut self, _name: &str, _x: f64) {}

    /// Record a numeric observation into a first-class histogram
    /// (log-bucket counts; exact, order-invariant shard merges).
    #[inline]
    fn observe_hist(&mut self, _name: &str, _x: f64) {}

    /// Open a span at simulated time `begin` on lane (tid) 0.
    #[inline]
    fn span(&mut self, component: &'static str, name: &'static str, begin: f64) -> SpanGuard {
        self.span_on(0, component, name, begin)
    }

    /// Open a span on an explicit hardware-thread lane.
    #[inline]
    fn span_on(
        &mut self,
        _tid: u32,
        _component: &'static str,
        _name: &'static str,
        _begin: f64,
    ) -> SpanGuard {
        SpanGuard::inert()
    }

    /// Close a span at simulated time `end`.
    #[inline]
    fn end_span(&mut self, guard: SpanGuard, end: f64) {
        self.end_span_with(guard, end, Vec::new());
    }

    /// Close a span, attaching key/value fields.
    #[inline]
    fn end_span_with(&mut self, _guard: SpanGuard, _end: f64, _fields: Vec<(&'static str, Value)>) {
    }

    /// Record an already-completed span directly.
    #[inline]
    fn record_span(&mut self, _record: SpanRecord) {}

    /// Fold per-phase span rollups into the registry, once per span set
    /// (see [`Recorder::rollup_spans`]).
    #[inline]
    fn rollup_spans(&mut self) {}

    /// Whether flight-recorder journal entries are being kept. The
    /// journal is gated at run time only, so replay and audit work the
    /// same whichever recorder drives the run.
    #[inline]
    fn journal_enabled(&self) -> bool {
        false
    }

    /// Append one round entry to the journal.
    #[inline]
    fn journal_push(&mut self, _entry: RoundEntry) {}

    /// Stamp a terminal outcome (`masked` / `escaped`) onto the journal
    /// entry that injected fault `fault_id`. Engines call this once at
    /// end of run for faults that were never detected.
    #[inline]
    fn journal_resolve_fault(&mut self, _fault_id: u64, _outcome: &str) {}
}

/// The zero-sized sink: recording through it compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Record for NoopRecorder {}

impl Record for Recorder {
    #[inline]
    fn is_active(&self) -> bool {
        true
    }

    #[inline]
    fn keeps_span_fields(&self) -> bool {
        Recorder::keeps_span_fields(self)
    }

    #[inline]
    fn count(&mut self, name: &str, n: u64) {
        Recorder::count(self, name, n);
    }

    #[inline]
    fn gauge(&mut self, name: &str, v: f64) {
        Recorder::gauge(self, name, v);
    }

    #[inline]
    fn gauge_max(&mut self, name: &str, v: f64) {
        Recorder::gauge_max(self, name, v);
    }

    #[inline]
    fn observe(&mut self, name: &str, x: f64) {
        Recorder::observe(self, name, x);
    }

    #[inline]
    fn observe_hist(&mut self, name: &str, x: f64) {
        Recorder::observe_hist(self, name, x);
    }

    #[inline]
    fn span_on(
        &mut self,
        tid: u32,
        component: &'static str,
        name: &'static str,
        begin: f64,
    ) -> SpanGuard {
        Recorder::span_on(self, tid, component, name, begin)
    }

    #[inline]
    fn end_span_with(&mut self, guard: SpanGuard, end: f64, fields: Vec<(&'static str, Value)>) {
        Recorder::end_span_with(self, guard, end, fields);
    }

    #[inline]
    fn record_span(&mut self, record: SpanRecord) {
        Recorder::record_span(self, record);
    }

    #[inline]
    fn rollup_spans(&mut self) {
        Recorder::rollup_spans(self);
    }

    #[inline]
    fn journal_enabled(&self) -> bool {
        Recorder::journal_enabled(self)
    }

    #[inline]
    fn journal_push(&mut self, entry: RoundEntry) {
        Recorder::journal_push(self, entry);
    }

    #[inline]
    fn journal_resolve_fault(&mut self, fault_id: u64, outcome: &str) {
        Recorder::journal_resolve_fault(self, fault_id, outcome);
    }
}

/// Add to a counter iff the recorder is active; the name/value
/// expressions are not evaluated otherwise.
#[macro_export]
macro_rules! obs_count {
    ($rec:expr, $name:expr, $n:expr) => {
        if $rec.is_active() {
            $rec.count($name, $n);
        }
    };
}

/// Set a gauge iff the recorder is active (lazy arguments).
#[macro_export]
macro_rules! obs_gauge {
    ($rec:expr, $name:expr, $v:expr) => {
        if $rec.is_active() {
            $rec.gauge($name, $v);
        }
    };
}

/// Record a histogram observation iff the recorder is active (lazy
/// arguments).
#[macro_export]
macro_rules! obs_hist {
    ($rec:expr, $name:expr, $x:expr) => {
        if $rec.is_active() {
            $rec.observe_hist($name, $x);
        }
    };
}

/// Open a span (lane 0) iff the recorder is active; evaluates to a
/// [`SpanGuard`] (inert when inactive).
#[macro_export]
macro_rules! obs_span {
    ($rec:expr, $comp:expr, $name:expr, $begin:expr) => {{
        if $rec.is_active() {
            $rec.span($comp, $name, $begin)
        } else {
            $crate::SpanGuard::inert()
        }
    }};
}

/// Open a span on an explicit lane iff the recorder is active.
#[macro_export]
macro_rules! obs_span_on {
    ($rec:expr, $tid:expr, $comp:expr, $name:expr, $begin:expr) => {{
        if $rec.is_active() {
            $rec.span_on($tid, $comp, $name, $begin)
        } else {
            $crate::SpanGuard::inert()
        }
    }};
}

/// Close a span iff the recorder is active; trailing `key => value`
/// fields are only allocated when kept.
#[macro_export]
macro_rules! obs_end_span {
    ($rec:expr, $guard:expr, $end:expr $(, $k:expr => $v:expr)* $(,)?) => {
        if $rec.keeps_span_fields() {
            $rec.end_span_with($guard, $end, vec![$(($k, $crate::Value::from($v))),*]);
        } else if $rec.is_active() {
            $rec.end_span_with($guard, $end, Vec::new());
        } else {
            let _ = $guard;
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit<R: Record>(rec: &mut R) {
        obs_count!(rec, "c", 2);
        obs_gauge!(rec, "g", 1.5);
        obs_hist!(rec, "h", 0.25);
        let g = obs_span!(rec, "t", "phase", 0.0);
        obs_end_span!(rec, g, 2.0, "n" => 1u64, "ok" => true);
        let g2 = obs_span_on!(rec, 1, "t", "lane", 0.5);
        rec.end_span(g2, 1.0);
        rec.bump("c");
    }

    #[test]
    fn noop_recorder_is_zero_sized_and_silent() {
        assert_eq!(std::mem::size_of::<NoopRecorder>(), 0);
        let mut rec = NoopRecorder;
        assert!(!rec.is_active());
        emit(&mut rec); // must compile and do nothing
        assert!(!rec.journal_enabled());
    }

    #[test]
    fn concrete_recorder_keeps_macro_emissions() {
        let mut rec = Recorder::new();
        emit(&mut rec);
        assert_eq!(rec.registry().counter("c"), 3);
        assert_eq!(rec.registry().gauge_value("g"), Some(1.5));
        assert_eq!(rec.registry().histogram("h").unwrap().count(), 1);
        assert_eq!(rec.spans().len(), 2);
    }

    #[test]
    fn a_registry_only_recorder_keeps_spans_without_fields() {
        let mut rec = Recorder::registry_only();
        assert!(rec.is_active() && !rec.keeps_span_fields());
        emit(&mut rec);
        rec.record_span(SpanRecord {
            begin: 0.0,
            end: 1.0,
            component: "t",
            name: "direct",
            tid: 0,
            fields: vec![("k", 1u64.into())],
        });
        assert_eq!(rec.spans().len(), 3);
        assert!(rec.spans().records().all(|r| r.fields.is_empty()));
        assert_eq!(rec.registry().counter("c"), 3);
    }

    #[test]
    fn generic_run_matches_concrete_run() {
        // the same generic body drives both sinks without divergence
        fn body<R: Record>(rec: &mut R) -> u64 {
            let mut acc = 0;
            for i in 0..10u64 {
                acc += i;
                obs_count!(rec, "loop.iters", 1);
            }
            acc
        }
        let mut noop = NoopRecorder;
        let mut real = Recorder::new();
        assert_eq!(body(&mut noop), body(&mut real));
        assert_eq!(real.registry().counter("loop.iters"), 10);
    }
}
