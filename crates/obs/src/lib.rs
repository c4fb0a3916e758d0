#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # vds-obs — the deterministic observability layer
//!
//! Zero-dependency metrics, spans and journals for the VDS-SMT
//! reproduction. The paper's entire contribution is *performance
//! estimation*, so every backend must be able to say where simulated
//! time goes — cheaply, and reproducibly.
//!
//! Four pieces:
//!
//! * [`Registry`] — named counters, gauges, [`Summary`] streaming
//!   statistics (Welford mean/variance plus fixed-bucket percentiles)
//!   and first-class [`Histogram`]s (same log-bucket grid, exact
//!   order-invariant merges, cumulative `le` buckets), stored sorted so
//!   exports are deterministic.
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
//! * [`SpanSet`] — a bounded ring buffer of `(begin, end, component,
//!   name, tid, fields)` phase spans with three exporters: Chrome
//!   trace-event JSON ([`SpanSet::to_chrome_json`], loadable in
//!   Perfetto/`chrome://tracing`), folded stacks for flamegraph tools
//!   ([`SpanSet::to_folded`]), and per-phase self/total rollups into the
//!   registry ([`SpanSet::rollup_into`]).
//! * [`Journal`] — the execution flight recorder, and the one per-round
//!   record of the protocol: one schema-versioned entry per simulated
//!   round (per-version state digests, comparator verdict, scheduler
//!   decision, recovery action, injected fault), with
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
//! Every export is a file: the registry as CSV or JSON, the spans as
//! Chrome trace JSON, the journal as JSONL.
//! [`logging`] is the leveled JSONL-on-stderr facade (`log_warn!` &
//! friends, `VDS_LOG` / `--log-level`).
//!
//! **Determinism contract:** for a fixed seed, the content of a
//! recorder's registry, spans and journal — and therefore the
//! bytes of [`Registry::to_csv`] / [`Registry::to_jsonl`] /
//! [`SpanSet::to_chrome_json`] /
//! [`SpanSet::to_folded`] / [`Journal::to_jsonl`] — are identical
//! across runs and across worker counts, provided parallel shards are
//! merged in a fixed order (see `vds-fault`'s logical shards). Host
//! wall-clock time never enters a recorder: [`Stopwatch`] measures it
//! for the callers that print it.
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
pub mod recorder;
pub mod registry;
pub mod span;
pub mod summary;

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
pub use recorder::{Recorder, Stopwatch};
pub use registry::{KeyPrefix, Registry};
pub use span::{SpanGuard, SpanRecord, SpanSet, Value, DEFAULT_SPAN_CAPACITY};
pub use summary::Summary;
