#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # vds-obs — the deterministic observability layer
//!
//! Zero-dependency metrics and tracing for the VDS-SMT reproduction. The
//! paper's entire contribution is *performance estimation*, so every
//! backend must be able to say where simulated time goes — cheaply, and
//! reproducibly.
//!
//! Four pieces:
//!
//! * [`Registry`] — named counters, gauges, [`Summary`] streaming
//!   statistics (Welford mean/variance plus fixed-bucket percentiles)
//!   and first-class [`Histogram`]s (same log-bucket grid, exact
//!   order-invariant merges, Prometheus `_bucket` exposition), stored
//!   sorted so exports are deterministic.
//! * [`conformance`] — the model-conformance layer: a
//!   [`ConformanceTracker`] prices the journal's per-round events with
//!   the paper's closed forms and streams windowed predicted-vs-measured
//!   G residuals into a bounded [`ResidualSeries`].
//! * [`forensics`] — fault-lifecycle forensics: a [`ForensicsTracker`]
//!   reconstructs every injected fault's injection → detection →
//!   recovery (or escape) chain from journal bytes, yielding
//!   detection-latency and coverage observables.
//! * [`alpha`] — α-attribution: differential cycle-accounting ledgers
//!   ([`PairLedger`]) that decompose measured SMT contention into
//!   per-cause stall deltas under an exact conservation invariant, with
//!   text/JSON/registry surfaces ([`AlphaReport`]).
//! * [`Trace`] — a bounded ring buffer of `(sim_time, component, event,
//!   fields)` records with a JSON-lines exporter.
//! * [`SpanSet`] — a bounded ring buffer of `(begin, end, component,
//!   name, tid, fields)` phase spans with three exporters: Chrome
//!   trace-event JSON ([`SpanSet::to_chrome_json`], loadable in
//!   Perfetto/`chrome://tracing`), folded stacks for flamegraph tools
//!   ([`SpanSet::to_folded`]), and per-phase self/total rollups into the
//!   registry ([`SpanSet::rollup_into`]).
//! * [`Journal`] — the execution flight recorder: one schema-versioned
//!   entry per simulated round (per-version state digests, comparator
//!   verdict, scheduler decision, recovery action, injected fault), with
//!   a JSONL codec and a linear-scan first-divergence diff
//!   ([`Journal::first_divergence`]) behind `vds replay` / `vds audit`.
//! * [`Recorder`] — the concrete sink; a disabled recorder costs one
//!   branch per call.
//! * [`Record`] + [`NoopRecorder`] — the statically-dispatched facade
//!   ([`facade`]): engines are generic over `R: Record`, the `obs_*!`
//!   macros guard argument construction behind `is_active()`, and the
//!   zero-sized [`NoopRecorder`] monomorphizes instrumentation away
//!   entirely on uninstrumented runs.
//!
//! Live telemetry rides on top of the same registry: [`prom`] renders
//! Prometheus text exposition, [`serve`] adds a [`TelemetryHub`] +
//! zero-dependency HTTP [`TelemetryServer`] (`/metrics`, `/healthz`,
//! `/readyz`, `/trace`, `/progress`), and [`logging`] is the leveled
//! JSONL-on-stderr facade (`log_warn!` & friends, `VDS_LOG` /
//! `--log-level`).
//!
//! **Determinism contract:** for a fixed seed, the content of a
//! recorder's registry, trace, spans and journal — and therefore the
//! bytes of [`Registry::to_csv`] / [`Registry::to_jsonl`] /
//! [`Trace::to_jsonl`] / [`SpanSet::to_chrome_json`] /
//! [`SpanSet::to_folded`] / [`Journal::to_jsonl`] — are identical
//! across runs and across worker counts, provided parallel shards are
//! merged in a fixed order (see `vds-fault`'s logical shards). Host
//! wall-clock time never enters a recorder: [`Stopwatch`] measures it
//! for the callers that print it, and the telemetry server reports it
//! only in `/progress`.
//!
//! Every journal and export reaches disk through [`write_atomic`]: a
//! temp sibling renamed over the destination, so a reader never sees a
//! half-written file.
//!
//! ```
//! use vds_obs::Recorder;
//!
//! let mut rec = Recorder::new();
//! rec.bump("core.rounds.committed");
//! rec.observe("core.recovery_time", 12.5);
//! rec.event(3.0, "core", "fault_detected", vec![("round", 3u64.into())]);
//! assert_eq!(rec.registry().counter("core.rounds.committed"), 1);
//! let csv = rec.registry().to_csv();
//! assert!(csv.contains("counter,core.rounds.committed,value,1"));
//! ```

pub mod alpha;
mod atomic_file;
pub mod conformance;
pub mod facade;
pub mod forensics;
pub mod histogram;
pub mod journal;
pub mod json;
pub mod logging;
pub mod prom;
pub mod recorder;
pub mod registry;
pub mod serve;
pub mod span;
pub mod summary;
pub mod trace;

pub use alpha::{AlphaReport, CycleSnapshot, PairLedger, STALL_KINDS};
pub use atomic_file::write_atomic;
pub use conformance::{
    ConformanceReport, ConformanceTracker, ResidualSeries, SchemeModel, WindowSample,
};
pub use facade::{NoopRecorder, Record};
pub use forensics::{EscapeRecord, FaultOutcome, FaultTrace, ForensicsReport, ForensicsTracker};
pub use histogram::Histogram;
pub use journal::{
    digest_words128, Action, Digest128, Digester128, Divergence, Journal, JournalHeader,
    RoundEntry, Verdict, JOURNAL_SCHEMA,
};
pub use json::{json_array, JsonObj, REPORT_SCHEMA};
pub use logging::Level;
pub use recorder::{Recorder, Stopwatch, DEFAULT_TRACE_CAPACITY};
pub use registry::{KeyPrefix, Registry};
pub use serve::{TelemetryHub, TelemetryServer};
pub use span::{SpanGuard, SpanRecord, SpanSet, DEFAULT_SPAN_CAPACITY};
pub use summary::Summary;
pub use trace::{Trace, TraceRecord, Value};
