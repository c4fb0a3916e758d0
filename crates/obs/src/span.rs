//! Sim-time spans: well-nested time attribution with deterministic
//! exporters.
//!
//! A [`SpanSet`] records `(begin, end, component, name, tid, fields)`
//! intervals of *simulated* time in a bounded ring buffer (always-on,
//! bounded memory, dropped counter).
//! Spans answer the question flat counters cannot: where inside a VDS
//! round does the time go — `round ⊃ compute ⊃ compare ⊃ checkpoint ⊃
//! recovery ⊃ roll-forward` — per hardware thread.
//!
//! Three deterministic exporters:
//!
//! * [`SpanSet::to_chrome_json`] — Chrome trace-event JSON (`ph:"B"/"E"`),
//!   loadable in `chrome://tracing` and Perfetto. One *pid* per component
//!   (backend), one *tid* per hardware thread.
//! * [`SpanSet::to_folded`] — folded-stack self-time lines in the format
//!   `flamegraph.pl` / `inferno` consume (`comp;outer;inner <self>`).
//! * [`SpanSet::rollup_into`] — per-phase `span.<comp>.<name>.total` /
//!   `.self` summaries folded into a metric registry.
//!
//! **Well-nestedness is enforced at export time.** Recording is free-form
//! (any begin/end order, merged shards, clamped ring contents); the
//! exporters run a deterministic sweep per `(component, tid)` lane that
//! clamps every child span into its parent, so every emitted `"E"`
//! matches the innermost open `"B"` and timestamps are non-decreasing per
//! tid — for *any* input. Content is deterministic for a fixed seed and
//! merge order, so export bytes are identical across runs and across
//! worker counts (see `vds-fault`'s logical shards).

use crate::registry::{fmt_f64, json_escape, Registry};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// A field value attached to a span (or a structured log line).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Short string (outcome names, labels).
    Str(&'static str),
    /// Owned string (runtime-built labels, e.g. timeline annotations).
    Owned(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Value::Str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Owned(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Str(if v { "true" } else { "false" })
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{}", fmt_f64(*v)),
            Value::Str(v) => write!(f, "{v}"),
            Value::Owned(v) => write!(f, "{v}"),
        }
    }
}

impl Value {
    pub(crate) fn to_json(&self) -> String {
        match self {
            Value::U64(v) => v.to_string(),
            Value::I64(v) => v.to_string(),
            Value::F64(v) if v.is_finite() => format!("{v}"),
            Value::F64(v) => format!("\"{}\"", fmt_f64(*v)),
            Value::Str(v) => format!("\"{}\"", json_escape(v)),
            Value::Owned(v) => format!("\"{}\"", json_escape(v)),
        }
    }
}

/// Default span capacity for enabled recorders.
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

/// One completed span of simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Begin time (simulated units of the emitting backend).
    pub begin: f64,
    /// End time; always `>= begin` after recording.
    pub end: f64,
    /// Emitting component; becomes the Chrome trace *pid*.
    pub component: &'static str,
    /// Phase name, e.g. `"round"`, `"compute"`, `"recovery"`.
    pub name: &'static str,
    /// Hardware-thread lane; becomes the Chrome trace *tid*.
    pub tid: u32,
    /// Ordered key/value payload (Chrome trace `args`).
    pub fields: Vec<(&'static str, Value)>,
}

/// Token returned by [`SpanSet::begin_span`]; closing it completes the
/// span. Dropping a guard without closing leaves the span open — open
/// spans are not exported.
#[must_use = "a span guard must be closed with end_span, or the span is lost"]
#[derive(Debug)]
pub struct SpanGuard {
    pub(crate) id: u64,
}

impl SpanGuard {
    /// An inert guard: closing it is a no-op. This is what a disabled
    /// recorder hands out, and what the `obs_span!` / `obs_span_on!`
    /// macros evaluate to when the recorder is inactive.
    pub const fn inert() -> SpanGuard {
        SpanGuard { id: u64::MAX }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct OpenSpan {
    id: u64,
    begin: f64,
    component: &'static str,
    name: &'static str,
    tid: u32,
}

/// Bounded ring buffer of completed spans plus the stack of open ones.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSet {
    records: VecDeque<SpanRecord>,
    capacity: usize,
    dropped: u64,
    open: Vec<OpenSpan>,
    next_id: u64,
}

/// The default set has the *default capacity*, not zero — a
/// `SpanSet::default()` used as a merge accumulator must not silently
/// drop everything pushed into it. Use [`SpanSet::with_capacity`]`(0)` to
/// disable retention explicitly.
impl Default for SpanSet {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY)
    }
}

/// One step of the nesting sweep (see [`SpanSet::sweep`]).
enum SweepEv<'a> {
    Begin(&'a SpanRecord, f64),
    End(&'a SpanRecord, f64),
}

/// The lanes of [`SpanSet::by_lane`]'s ordering, as `((component, tid),
/// spans)` in lane order.
fn lanes<'s, 'a>(
    sorted: &'s [(u64, &'a SpanRecord)],
) -> impl Iterator<Item = ((&'static str, u32), &'s [(u64, &'a SpanRecord)])> {
    sorted
        .chunk_by(|(a, _), (b, _)| a == b)
        .map(|lane| ((lane[0].1.component, lane[0].1.tid), lane))
}

fn sane_time(t: f64) -> f64 {
    if t.is_finite() {
        t
    } else {
        0.0
    }
}

impl SpanSet {
    /// Span set keeping at most `capacity` completed spans (0 disables
    /// retention; opens/closes still balance, pushes just count as
    /// dropped). The ring grows on demand up to `capacity`; nothing is
    /// reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        SpanSet {
            records: VecDeque::new(),
            capacity,
            dropped: 0,
            open: Vec::new(),
            next_id: 0,
        }
    }

    /// Append a completed span, evicting the oldest when full. Times are
    /// sanitized: non-finite begins become 0, ends clamp to `>= begin`.
    pub fn push(&mut self, mut record: SpanRecord) {
        record.begin = sane_time(record.begin);
        record.end = sane_time(record.end).max(record.begin);
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
    }

    /// Open a span; returns the id to pass to [`SpanSet::end_span`].
    pub fn begin_span(
        &mut self,
        component: &'static str,
        name: &'static str,
        tid: u32,
        begin: f64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.open.push(OpenSpan {
            id,
            begin: sane_time(begin),
            component,
            name,
            tid,
        });
        id
    }

    /// Close the span with this id at time `end`, attaching `fields`.
    /// Still-open *children* on the same `(component, tid)` lane — spans
    /// opened after it and not yet closed — are auto-closed first at the
    /// same time, innermost first, so the completed set stays well
    /// ordered. Unknown ids are ignored (the guard was already closed).
    pub fn end_span(&mut self, id: u64, end: f64, fields: Vec<(&'static str, Value)>) {
        let Some(target) = self.open.iter().position(|o| o.id == id) else {
            return;
        };
        let key = (self.open[target].component, self.open[target].tid);
        // collect same-lane children above the target, innermost first
        let child_idxs: Vec<usize> = (target + 1..self.open.len())
            .rev()
            .filter(|&j| (self.open[j].component, self.open[j].tid) == key)
            .collect();
        for j in child_idxs {
            let o = self.open.remove(j);
            self.push(SpanRecord {
                begin: o.begin,
                end: sane_time(end),
                component: o.component,
                name: o.name,
                tid: o.tid,
                fields: Vec::new(),
            });
        }
        let o = self.open.remove(target);
        self.push(SpanRecord {
            begin: o.begin,
            end: sane_time(end),
            component: o.component,
            name: o.name,
            tid: o.tid,
            fields,
        });
    }

    /// Completed spans currently held, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &SpanRecord> {
        self.records.iter()
    }

    /// Number of completed spans currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no completed spans are held.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of spans currently open.
    pub fn open_len(&self) -> usize {
        self.open.len()
    }

    /// Completed spans evicted (or discarded at capacity 0) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append another set's *completed* spans (parents merge shards in a
    /// fixed order for bit-reproducible exports). Open spans do not
    /// travel.
    pub fn extend_from(&mut self, other: &SpanSet) {
        self.dropped += other.dropped;
        for r in other.records() {
            self.push(r.clone());
        }
    }

    /// Completed spans ordered by lane `(component, tid)` and, within a
    /// lane, by `(begin, -end, insertion)`, the order the nesting sweep
    /// needs, each with its lane's rank; [`lanes`] splits the result into
    /// lanes.
    fn by_lane(&self) -> Vec<(u64, &SpanRecord)> {
        // components in name order, so (component rank, tid) orders lanes
        // as (component, tid) does
        let mut comps: Vec<&str> = Vec::new();
        for r in &self.records {
            if !comps.contains(&r.component) {
                comps.push(r.component);
            }
        }
        comps.sort_unstable();
        // `f64::total_cmp` as an integer order
        let time = |t: f64| {
            let bits = t.to_bits() as i64;
            bits ^ (((bits >> 63) as u64) >> 1) as i64
        };
        let mut v: Vec<(u64, i64, i64, usize, &SpanRecord)> = self
            .records
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let comp = comps
                    .binary_search(&r.component)
                    .expect("every component was collected above")
                    as u64;
                (
                    comp << 32 | u64::from(r.tid),
                    time(r.begin),
                    !time(r.end),
                    i,
                    r,
                )
            })
            .collect();
        // the insertion index makes the order total, so an unstable sort
        // gives the stable order without a buffer
        v.sort_unstable_by_key(|&(lane, begin, end, i, _)| (lane, begin, end, i));
        v.into_iter().map(|(lane, _, _, _, r)| (lane, r)).collect()
    }

    /// Run the nesting sweep over one lane, emitting clamped begin/end
    /// events: children are clamped into their parents and timestamps are
    /// non-decreasing, for any input.
    fn sweep<'a>(lane: &[(u64, &'a SpanRecord)], mut emit: impl FnMut(SweepEv<'a>)) {
        let mut stack: Vec<(&SpanRecord, f64)> = Vec::new();
        let mut clock = f64::NEG_INFINITY;
        for &(_, r) in lane {
            let b = r.begin.max(clock);
            while let Some(&(top, tend)) = stack.last() {
                if tend <= b {
                    let e = tend.max(clock);
                    emit(SweepEv::End(top, e));
                    clock = e;
                    stack.pop();
                } else {
                    break;
                }
            }
            let b = r.begin.max(clock);
            let mut e = r.end.max(b);
            if let Some(&(_, tend)) = stack.last() {
                e = e.min(tend);
            }
            emit(SweepEv::Begin(r, b));
            clock = b;
            stack.push((r, e));
        }
        while let Some((top, tend)) = stack.pop() {
            let e = tend.max(clock);
            emit(SweepEv::End(top, e));
            clock = e;
        }
    }

    /// Chrome trace-event JSON: `{"traceEvents":[...]}` with one event
    /// per line, `"M"` metadata naming each component (pid) and lane
    /// (tid), and well-nested `"B"`/`"E"` pairs per tid with
    /// non-decreasing timestamps. Deterministic bytes for deterministic
    /// content.
    pub fn to_chrome_json(&self) -> String {
        let sorted = self.by_lane();
        let mut pids: BTreeMap<&'static str, usize> = BTreeMap::new();
        for ((comp, _), _) in lanes(&sorted) {
            let next = pids.len() + 1;
            pids.entry(comp).or_insert(next);
        }
        let mut lines: Vec<String> = Vec::new();
        for (comp, pid) in &pids {
            lines.push(format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
                json_escape(comp)
            ));
        }
        for ((comp, tid), _) in lanes(&sorted) {
            let pid = pids[comp];
            lines.push(format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"hw{tid}\"}}}}"
            ));
        }
        for ((comp, tid), lane) in lanes(&sorted) {
            let pid = pids[comp];
            Self::sweep(lane, |ev| match ev {
                SweepEv::Begin(r, ts) => {
                    let mut line = format!(
                        "{{\"ph\":\"B\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"name\":\"{}\",\"cat\":\"{}\"",
                        fmt_f64(ts),
                        json_escape(r.name),
                        json_escape(comp)
                    );
                    if !r.fields.is_empty() {
                        line.push_str(",\"args\":{");
                        for (i, (k, v)) in r.fields.iter().enumerate() {
                            if i > 0 {
                                line.push(',');
                            }
                            let _ = write!(line, "\"{}\":{}", json_escape(k), v.to_json());
                        }
                        line.push('}');
                    }
                    line.push('}');
                    lines.push(line);
                }
                SweepEv::End(r, ts) => {
                    lines.push(format!(
                        "{{\"ph\":\"E\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"name\":\"{}\"}}",
                        fmt_f64(ts),
                        json_escape(r.name)
                    ));
                }
            });
        }
        let mut out = String::from("{\"traceEvents\":[");
        if !lines.is_empty() {
            out.push('\n');
            out.push_str(&lines.join(",\n"));
            out.push('\n');
        }
        let _ = write!(
            out,
            "],\"otherData\":{{\"spans\":{},\"dropped\":{}}}}}",
            self.records.len(),
            self.dropped
        );
        out.push('\n');
        out
    }

    /// Folded-stack self-time lines (`component;outer;inner <self>`),
    /// sorted, self time rounded to whole simulated units — pipe into
    /// `flamegraph.pl` or `inferno-flamegraph` for an SVG.
    pub fn to_folded(&self) -> String {
        let mut agg: BTreeMap<String, f64> = BTreeMap::new();
        for ((comp, _tid), lane) in lanes(&self.by_lane()) {
            let mut frames: Vec<(String, f64, f64)> = Vec::new(); // (path, self, last)
            Self::sweep(lane, |ev| match ev {
                SweepEv::Begin(r, ts) => {
                    let path = match frames.last_mut() {
                        Some(parent) => {
                            parent.1 += ts - parent.2;
                            parent.2 = ts;
                            format!("{};{}", parent.0, r.name)
                        }
                        None => format!("{comp};{}", r.name),
                    };
                    frames.push((path, 0.0, ts));
                }
                SweepEv::End(_, ts) => {
                    let (path, self_t, last) = frames.pop().expect("sweep is balanced");
                    *agg.entry(path).or_insert(0.0) += self_t + (ts - last);
                    if let Some(parent) = frames.last_mut() {
                        parent.2 = ts;
                    }
                }
            });
        }
        let mut out = String::new();
        for (path, t) in agg {
            let _ = writeln!(out, "{path} {}", t.max(0.0).round() as u64);
        }
        out
    }

    /// Fold per-phase rollups into a registry: for every completed span a
    /// `span.<component>.<name>.total` observation (end − begin) and a
    /// `span.<component>.<name>.self` observation (total minus time
    /// covered by nested children on the same lane). Observations are
    /// gathered per phase first, so each summary is looked up once per
    /// call and fed its observations in sweep order.
    pub fn rollup_into(&self, registry: &mut Registry) {
        // distinct (component, name) phases, in order of first sight
        let mut phases: Vec<(&str, &str)> = Vec::new();
        // (phase, total, self) for every span, in sweep order
        let mut obs: Vec<(usize, f64, f64)> = Vec::with_capacity(self.records.len());
        let mut frames: Vec<(f64, f64, f64)> = Vec::new(); // (begin, self, last)
        for ((comp, _tid), lane) in lanes(&self.by_lane()) {
            Self::sweep(lane, |ev| match ev {
                SweepEv::Begin(_, ts) => {
                    if let Some(parent) = frames.last_mut() {
                        parent.1 += ts - parent.2;
                        parent.2 = ts;
                    }
                    frames.push((ts, 0.0, ts));
                }
                SweepEv::End(r, ts) => {
                    let (begin, self_t, last) = frames.pop().expect("sweep is balanced");
                    let phase = match phases.iter().position(|&p| p == (comp, r.name)) {
                        Some(at) => at,
                        None => {
                            phases.push((comp, r.name));
                            phases.len() - 1
                        }
                    };
                    obs.push((phase, ts - begin, self_t + (ts - last)));
                    if let Some(parent) = frames.last_mut() {
                        parent.2 = ts;
                    }
                }
            });
        }
        let mut key = String::new();
        for (at, (comp, name)) in phases.iter().enumerate() {
            let of_phase = || obs.iter().filter(move |o| o.0 == at);
            key.clear();
            let _ = write!(key, "span.{comp}.{name}.total");
            registry.observe_each(&key, of_phase().map(|o| o.1));
            key.truncate(key.len() - "total".len());
            key.push_str("self");
            registry.observe_each(&key, of_phase().map(|o| o.2));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The rollup as it was before observations were gathered per phase:
    /// lanes grouped in a map and sorted with `f64::total_cmp`, two
    /// `format!`s and two registry lookups per span. Kept only as the
    /// differential oracle of [`SpanSet::rollup_into`].
    fn rollup_oracle(set: &SpanSet, registry: &mut Registry) {
        let mut lanes: BTreeMap<(&str, u32), Vec<(usize, &SpanRecord)>> = BTreeMap::new();
        for (i, r) in set.records.iter().enumerate() {
            lanes.entry((r.component, r.tid)).or_default().push((i, r));
        }
        for ((comp, _tid), mut lane) in lanes {
            lane.sort_by(|(ia, a), (ib, b)| {
                a.begin
                    .total_cmp(&b.begin)
                    .then(b.end.total_cmp(&a.end))
                    .then(ia.cmp(ib))
            });
            let lane: Vec<(u64, &SpanRecord)> = lane.into_iter().map(|(_, r)| (0, r)).collect();
            let mut frames: Vec<(f64, f64, f64)> = Vec::new();
            SpanSet::sweep(&lane, |ev| match ev {
                SweepEv::Begin(_, ts) => {
                    if let Some(parent) = frames.last_mut() {
                        parent.1 += ts - parent.2;
                        parent.2 = ts;
                    }
                    frames.push((ts, 0.0, ts));
                }
                SweepEv::End(r, ts) => {
                    let (begin, self_t, last) = frames.pop().expect("sweep is balanced");
                    registry.observe(&format!("span.{comp}.{}.total", r.name), ts - begin);
                    registry.observe(
                        &format!("span.{comp}.{}.self", r.name),
                        self_t + (ts - last),
                    );
                    if let Some(parent) = frames.last_mut() {
                        parent.2 = ts;
                    }
                }
            });
        }
    }

    /// A span time: mostly small integers so spans collide and nest,
    /// sometimes fractional, negative (`-0.0` included), NaN or ±inf.
    fn time(x: u64) -> f64 {
        match x % 16 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => (x >> 8) as f64 / 7.0,
            4 => -(((x >> 8) % 4) as f64),
            _ => ((x >> 8) % 40) as f64,
        }
    }

    proptest! {
        #[test]
        fn rollup_matches_the_per_span_formatting_oracle(
            raw in prop::collection::vec(any::<u64>(), 0..60),
            capacity in 1usize..80,
            pre in any::<bool>(),
        ) {
            const COMPONENTS: [&str; 3] = ["micro", "smt", "campaign"];
            // one name on several lanes and components
            const NAMES: [&str; 4] = ["round", "compute", "compare", "round"];
            let mut set = SpanSet::with_capacity(capacity);
            for (i, &x) in raw.iter().enumerate() {
                let y = x.rotate_left(29) ^ i as u64;
                set.push(SpanRecord {
                    begin: time(x),
                    end: time(y),
                    component: COMPONENTS[(x >> 40) as usize % 3],
                    name: NAMES[(y >> 40) as usize % 4],
                    tid: (x >> 50) as u32 % 3,
                    fields: Vec::new(),
                });
            }
            let (mut got, mut want) = (Registry::new(), Registry::new());
            if pre {
                // keys that already exist take the lookup path
                for reg in [&mut got, &mut want] {
                    reg.observe("span.micro.round.total", 1.5);
                    reg.count("span.micro.round.self", 2);
                }
            }
            set.rollup_into(&mut got);
            rollup_oracle(&set, &mut want);
            prop_assert_eq!(got.to_csv(), want.to_csv());
            prop_assert_eq!(got, want);
        }
    }

    fn span(begin: f64, end: f64, name: &'static str, tid: u32) -> SpanRecord {
        SpanRecord {
            begin,
            end,
            component: "test",
            name,
            tid,
            fields: vec![],
        }
    }

    /// Parse the chrome JSON back into (ph, tid, ts, name) tuples and
    /// assert stack discipline + monotone timestamps per tid.
    fn assert_well_nested(json: &str) {
        let mut stacks: BTreeMap<(String, String), Vec<String>> = BTreeMap::new();
        let mut last_ts: BTreeMap<(String, String), f64> = BTreeMap::new();
        // crude line parser — span names in these tests never contain , or }
        let field = |line: &str, key: &str| -> Option<String> {
            let pat = format!("\"{key}\":");
            let at = line.find(&pat)? + pat.len();
            let rest = &line[at..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            Some(rest[..end].trim_matches('"').to_string())
        };
        for line in json.lines() {
            let Some(ph) = field(line, "ph") else {
                continue;
            };
            if ph != "B" && ph != "E" {
                continue;
            }
            let key = (field(line, "pid").unwrap(), field(line, "tid").unwrap());
            let ts: f64 = field(line, "ts").unwrap().parse().unwrap();
            let name = field(line, "name").unwrap();
            let prev = last_ts.entry(key.clone()).or_insert(f64::NEG_INFINITY);
            assert!(ts >= *prev, "timestamps regress on {key:?}: {line}");
            *prev = ts;
            let stack = stacks.entry(key).or_default();
            if ph == "B" {
                stack.push(name);
            } else {
                let open = stack.pop().expect("E without open B");
                assert_eq!(open, name, "E does not match innermost B");
            }
        }
        for (k, s) in stacks {
            assert!(s.is_empty(), "unclosed spans on {k:?}: {s:?}");
        }
    }

    #[test]
    fn guards_nest_and_export() {
        let mut s = SpanSet::with_capacity(16);
        let outer = s.begin_span("test", "round", 0, 0.0);
        let inner = s.begin_span("test", "compute", 0, 1.0);
        s.end_span(inner, 5.0, vec![("k", 1u64.into())]);
        s.end_span(outer, 10.0, vec![]);
        assert_eq!(s.len(), 2);
        let json = s.to_chrome_json();
        assert_well_nested(&json);
        assert!(json.contains("\"name\":\"round\""));
        assert!(json.contains("\"args\":{\"k\":1}"));
    }

    #[test]
    fn close_auto_closes_same_lane_children_only() {
        let mut s = SpanSet::with_capacity(16);
        let outer = s.begin_span("test", "outer", 0, 0.0);
        let _leak = s.begin_span("test", "child", 0, 1.0);
        let other = s.begin_span("test", "other-lane", 1, 1.0);
        s.end_span(outer, 4.0, vec![]);
        // child auto-closed with outer; other lane untouched
        assert_eq!(s.len(), 2);
        assert_eq!(s.open_len(), 1);
        s.end_span(other, 9.0, vec![]);
        assert_eq!(s.len(), 3);
        assert_well_nested(&s.to_chrome_json());
    }

    #[test]
    fn ring_evicts_and_counts() {
        let mut s = SpanSet::with_capacity(2);
        for i in 0..5 {
            s.push(span(f64::from(i), f64::from(i) + 0.5, "x", 0));
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 3);
        let mut zero = SpanSet::with_capacity(0);
        zero.push(span(0.0, 1.0, "x", 0));
        assert!(zero.is_empty());
        assert_eq!(zero.dropped(), 1);
    }

    #[test]
    fn adversarial_overlaps_still_export_well_nested() {
        let mut s = SpanSet::with_capacity(32);
        s.push(span(0.0, 10.0, "a", 0));
        s.push(span(5.0, 15.0, "b", 0)); // overlaps, not nested
        s.push(span(2.0, 3.0, "c", 0));
        s.push(span(2.0, 30.0, "d", 0)); // same begin, longer than parent
        s.push(span(f64::NAN, f64::INFINITY, "e", 1));
        s.push(span(7.0, 1.0, "f", 1)); // inverted
        assert_well_nested(&s.to_chrome_json());
    }

    #[test]
    fn export_bytes_are_deterministic() {
        let build = || {
            let mut s = SpanSet::with_capacity(8);
            let a = s.begin_span("m", "round", 0, 0.0);
            let b = s.begin_span("m", "compare", 0, 3.0);
            s.end_span(b, 4.0, vec![]);
            s.end_span(a, 5.0, vec![("round", 1u64.into())]);
            s.push(span(0.0, 5.0, "pipeline", 1));
            s
        };
        assert_eq!(build().to_chrome_json(), build().to_chrome_json());
        assert_eq!(build().to_folded(), build().to_folded());
    }

    #[test]
    fn folded_attributes_self_time() {
        let mut s = SpanSet::with_capacity(8);
        let outer = s.begin_span("m", "round", 0, 0.0);
        let inner = s.begin_span("m", "compare", 0, 4.0);
        s.end_span(inner, 10.0, vec![]);
        s.end_span(outer, 10.0, vec![]);
        let folded = s.to_folded();
        assert!(folded.contains("m;round 4\n"), "{folded}");
        assert!(folded.contains("m;round;compare 6\n"), "{folded}");
    }

    #[test]
    fn rollup_observes_total_and_self() {
        let mut s = SpanSet::with_capacity(8);
        let outer = s.begin_span("m", "round", 0, 0.0);
        let inner = s.begin_span("m", "compare", 0, 4.0);
        s.end_span(inner, 10.0, vec![]);
        s.end_span(outer, 10.0, vec![]);
        let mut reg = Registry::new();
        s.rollup_into(&mut reg);
        let total = reg.summary("span.m.round.total").unwrap();
        assert_eq!(total.count(), 1);
        assert!((total.mean() - 10.0).abs() < 1e-12);
        let self_t = reg.summary("span.m.round.self").unwrap();
        assert!((self_t.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn extend_from_merges_completed_only() {
        let mut a = SpanSet::with_capacity(8);
        a.push(span(0.0, 1.0, "x", 0));
        let mut b = SpanSet::with_capacity(8);
        b.push(span(2.0, 3.0, "y", 0));
        let _open = b.begin_span("test", "open", 0, 4.0);
        a.extend_from(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.open_len(), 0);
    }

    #[test]
    fn empty_set_exports_valid_json() {
        let s = SpanSet::with_capacity(4);
        let json = s.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"spans\":0"));
        assert_eq!(s.to_folded(), "");
    }
}
