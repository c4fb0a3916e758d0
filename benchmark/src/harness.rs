//! Timing, failure and output bookkeeping shared by the workloads.
//!
//! A [`Phase`] is one timed phase of a workload. It keeps every op's host
//! latency, the attempted/failed counts, the output digest of the current
//! pass, per-layer sums, and a wall-time ledger: each timed section and
//! each parallel call is charged to a named row, and whatever the rows do
//! not cover is the `unattributed` residual, so the ledger always sums to
//! the phase's wall time.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;
use std::thread::{self, ThreadId};
use std::time::Instant;
use vds_obs::{Digest128, Digester128, SpanRecord, SpanSet};

/// Spans kept by a traced phase; a full vm-campaign phase records about
/// 30k op spans, so this keeps every span of a standard run.
const SPAN_CAPACITY: usize = 200_000;

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Run `f`, turning a panic into `None`. The panic message is suppressed
/// on this thread while `f` runs; panics elsewhere (a failing test
/// assertion, say) still reach the previous hook.
pub(crate) fn guarded<R>(f: impl FnOnce() -> R) -> Option<R> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                previous(info);
            }
        }));
    });
    let outer = QUIET.with(|q| q.replace(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    QUIET.with(|q| q.set(outer));
    result.ok()
}

/// One op run on a worker thread: what kind it was, its place in its
/// call's schedule, which thread ran it, and when.
pub(crate) struct Op {
    pub kind: &'static str,
    pub slot: usize,
    pub thread: ThreadId,
    pub start: Instant,
    pub end: Instant,
}

impl Op {
    /// Op `slot` of its call, of `kind`, that started at `start` and
    /// ends now, on this thread.
    pub fn since(kind: &'static str, slot: usize, start: Instant) -> Op {
        Op {
            kind,
            slot,
            thread: thread::current().id(),
            start,
            end: Instant::now(),
        }
    }

    fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// One completed pass over a workload's fixed schedule.
struct Pass {
    /// Wall seconds from the end of the previous pass.
    wall: f64,
    /// Indices of the pass's ops in [`Phase::lat_ms`], in schedule order.
    ops: Range<usize>,
}

/// One timed phase: ops, failures, outputs, ledger and spans.
pub(crate) struct Phase {
    t0: Instant,
    workers: usize,
    traced: bool,
    /// Host latency of every op, in milliseconds, each call's ops in
    /// schedule order.
    pub lat_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Duplex rounds committed (or, for the audit, journal entries
    /// analysed) by the ops of this phase.
    pub rounds: f64,
    passes: Vec<Pass>,
    /// Peak live heap of each batch, in MiB.
    pub batch_heap_mb: Vec<f64>,
    /// Elapsed seconds and ops when the current pass began.
    pass_start: (f64, usize),
    /// Wall seconds of the phase, set when it ends.
    pub wall: f64,
    ledger: BTreeMap<&'static str, f64>,
    sums: BTreeMap<&'static str, f64>,
    idle_s: f64,
    capacity_s: f64,
    out: Digester128,
    pub spans: SpanSet,
}

impl Phase {
    pub fn new(workers: usize, traced: bool) -> Phase {
        Phase {
            t0: Instant::now(),
            workers,
            traced,
            lat_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            rounds: 0.0,
            passes: Vec::new(),
            batch_heap_mb: Vec::new(),
            pass_start: (0.0, 0),
            wall: 0.0,
            ledger: BTreeMap::new(),
            sums: BTreeMap::new(),
            idle_s: 0.0,
            capacity_s: 0.0,
            out: Digester128::new(),
            spans: SpanSet::with_capacity(if traced { SPAN_CAPACITY } else { 0 }),
        }
    }

    pub fn elapsed(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64() * 1e6
    }

    /// Record a span on lane `tid` (0 is the main thread, workers count
    /// from 1) when this phase is traced.
    fn span(&mut self, name: &'static str, tid: u32, b: Instant, e: Instant) {
        if self.traced {
            let (begin, end) = (self.us(b), self.us(e));
            self.spans.push(SpanRecord {
                begin,
                end,
                component: "bench",
                name,
                tid,
                fields: Vec::new(),
            });
        }
    }

    /// Charge the main-thread section that began at `start` and ends now
    /// to ledger row `row`.
    pub fn section(&mut self, row: &'static str, start: Instant) {
        let end = Instant::now();
        let secs = (end - start).as_secs_f64();
        *self.ledger.entry(row).or_default() += secs;
        *self.sums.entry(row).or_default() += secs;
        self.span(row, 0, start, end);
    }

    /// Book one parallel call that ran `ops` between `start` and `end`:
    /// every op's latency and span, per-kind busy seconds summed over all
    /// workers, and the call's wall time split into the busiest worker's
    /// op time (charged per kind) and the remainder (charged to `rest`).
    pub fn book_call(&mut self, start: Instant, end: Instant, ops: &[Op], rest: &'static str) {
        let wall = (end - start).as_secs_f64();
        let mut by_slot: Vec<&Op> = ops.iter().collect();
        by_slot.sort_by_key(|op| op.slot);
        self.lat_ms.extend(by_slot.iter().map(|op| op.secs() * 1e3));
        let mut threads: Vec<(ThreadId, f64)> = Vec::new();
        for op in ops {
            let secs = op.secs();
            *self.sums.entry(op.kind).or_default() += secs;
            let lane = match threads.iter().position(|(t, _)| *t == op.thread) {
                Some(i) => {
                    threads[i].1 += secs;
                    i
                }
                None => {
                    threads.push((op.thread, secs));
                    threads.len() - 1
                }
            };
            self.span(op.kind, lane as u32 + 1, op.start, op.end);
        }
        let busy: f64 = threads.iter().map(|(_, s)| s).sum();
        let busiest = threads.iter().max_by(|a, b| a.1.total_cmp(&b.1));
        let busiest_s = busiest.map_or(0.0, |(_, s)| *s);
        if let Some(&(tid, _)) = busiest {
            for op in ops.iter().filter(|op| op.thread == tid) {
                *self.ledger.entry(op.kind).or_default() += op.secs();
            }
        }
        let rest_s = (wall - busiest_s).max(0.0);
        *self.ledger.entry(rest).or_default() += rest_s;
        *self.sums.entry(rest).or_default() += rest_s;
        let capacity = self.workers as f64 * wall;
        self.idle_s += (capacity - busy).max(0.0);
        self.capacity_s += capacity;
        self.span("call", 0, start, end);
    }

    /// Add `v` to per-layer sum `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_default() += v;
    }

    /// Per-layer sum `key` (0 if never added).
    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// Per-layer sum `key` per completed pass.
    pub fn per_pass(&self, key: &str) -> f64 {
        self.sum(key) / self.passes.len().max(1) as f64
    }

    /// Completed passes.
    pub fn pass_count(&self) -> usize {
        self.passes.len()
    }

    /// The pass as it runs when the host's other tenants leave it alone.
    ///
    /// Every pass runs the same ops in the same schedule, so each op has
    /// one latency per pass, and other tenants only ever slow it. Each
    /// op's settled latency is its fastest over the passes. A settled pass
    /// is its ops' settled latencies spread over the workers, plus the
    /// least time a pass spent beyond that (journal encode and write,
    /// merge, export, checks). Returns the rounds per second of a settled
    /// pass and every op's settled latency, in ms.
    pub fn settled(&self) -> (f64, Vec<f64>) {
        let fastest = |v: &mut dyn Iterator<Item = f64>| v.fold(f64::INFINITY, f64::min);
        let n = self.passes.first().map_or(0, |p| p.ops.len());
        // a pass whose call aborted holds fewer ops; its slots do not line up
        let passes: Vec<&Pass> = self.passes.iter().filter(|p| p.ops.len() == n).collect();
        let lat_ms: Vec<f64> = (0..n)
            .map(|j| fastest(&mut passes.iter().map(|p| self.lat_ms[p.ops.start + j])))
            .collect();
        let workers = self.workers.max(1) as f64;
        let beyond = fastest(
            &mut passes
                .iter()
                .map(|p| p.wall - self.lat_ms[p.ops.clone()].iter().sum::<f64>() / 1e3 / workers),
        );
        let pass_s = lat_ms.iter().sum::<f64>() / 1e3 / workers + beyond;
        let rounds = self.rounds / self.passes.len().max(1) as f64;
        (ratio(rounds, pass_s), lat_ms)
    }

    /// Share of worker capacity (workers × call wall) spent outside ops.
    pub fn idle_frac(&self) -> f64 {
        ratio(self.idle_s, self.capacity_s)
    }

    /// Start a batch: restart the heap peak from the bytes live now.
    pub fn begin_batch(&mut self) {
        crate::heap::reset_peak();
    }

    /// End a batch: record its heap peak.
    pub fn end_batch(&mut self) {
        self.batch_heap_mb.push(crate::heap::peak_mb());
    }

    /// Absorb one output of the current pass into its digest.
    pub fn output(&mut self, bytes: &[u8]) {
        digest_bytes(&mut self.out, bytes);
    }

    /// Close the current pass and return its output digest.
    pub fn end_pass(&mut self) -> Digest128 {
        let (t0, op0) = self.pass_start;
        let (t, ops) = (self.elapsed(), self.lat_ms.len());
        self.passes.push(Pass {
            wall: t - t0,
            ops: op0..ops,
        });
        self.pass_start = (t, ops);
        std::mem::take(&mut self.out).finish()
    }

    /// Count a failed check as one failed op and say why on stderr.
    pub fn fail(&mut self, why: &str) {
        eprintln!("check failed: {why}");
        self.failed += 1;
    }

    /// The wall-time ledger, with the `unattributed` residual last; the
    /// rows sum to [`Phase::wall`].
    pub fn table(&self) -> Vec<(&'static str, f64)> {
        let mut rows: Vec<(&'static str, f64)> =
            self.ledger.iter().map(|(k, v)| (*k, *v)).collect();
        let attributed: f64 = rows.iter().map(|(_, v)| v).sum();
        rows.push(("unattributed", self.wall - attributed));
        rows
    }
}

/// `a / b`, or 0 when `b` is 0.
pub(crate) fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Absorb a byte string as little-endian words behind its length, so
/// distinct strings never share a word stream.
fn digest_bytes(d: &mut Digester128, bytes: &[u8]) {
    let len = bytes.len() as u64;
    d.push_word(len as u32);
    d.push_word((len >> 32) as u32);
    let mut chunks = bytes.chunks_exact(4);
    for c in &mut chunks {
        d.push_word(u32::from_le_bytes([c[0], c[1], c[2], c[3]]));
    }
    for &b in chunks.remainder() {
        d.push_word(u32::from(b));
    }
}

/// Linear-interpolated percentile `p` (0..=100) of `v`; 0 for no samples.
pub(crate) fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// Seconds per call of `f`, as the median over `reps` timed calls.
pub(crate) fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    percentile(&times, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_op_is_caught_and_the_next_one_runs() {
        let results: Vec<Option<u32>> = (0..3u32)
            .map(|i| {
                guarded(|| {
                    assert!(i != 1, "injected failure");
                    i
                })
            })
            .collect();
        assert_eq!(results, vec![Some(0), None, Some(2)]);
    }

    #[test]
    fn ledger_rows_sum_to_wall_time() {
        let mut ph = Phase::new(2, true);
        let t = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        ph.section("a", t);
        let start = Instant::now();
        let ops = vec![Op::since("b", 1, start), Op::since("b", 0, start)];
        ph.book_call(start, Instant::now(), &ops, "rest");
        ph.wall = ph.elapsed();
        let table = ph.table();
        assert_eq!(table.last().unwrap().0, "unattributed");
        let total: f64 = table.iter().map(|(_, v)| v).sum();
        assert!((total - ph.wall).abs() < 1e-12);
        assert!(table.iter().all(|(_, v)| *v >= 0.0), "{table:?}");
    }

    #[test]
    fn settled_latency_is_each_ops_fastest_over_the_passes() {
        let mut ph = Phase::new(1, false);
        // op 0 costs 1 ms and op 1 costs 3 ms; passes 2 and 4 are slowed
        for slow in [1.0, 2.0, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0] {
            std::thread::sleep(std::time::Duration::from_secs_f64(4e-3 * slow));
            ph.lat_ms.extend([1.0 * slow, 3.0 * slow]);
            ph.rounds += 8.0;
            ph.end_pass();
        }
        let (rps, lat_ms) = ph.settled();
        assert_eq!(lat_ms, vec![1.0, 3.0]);
        // a settled pass takes the ops' 4 ms plus whatever else a pass did
        assert!(rps > 0.0 && rps <= 8.0 / 4e-3, "{rps}");
    }

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 99.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
