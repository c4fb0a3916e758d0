//! Bounded structured event trace.
//!
//! A [`Trace`] is a ring buffer of `(sim_time, component, event, fields)`
//! records. Components emit one record per interesting state transition
//! (round committed, fault detected, checkpoint written, …); the buffer
//! keeps the most recent `capacity` records and counts what it dropped,
//! so tracing is always-on without unbounded memory. Content is
//! deterministic for a fixed seed: record order follows emission order,
//! which in this codebase follows simulated time.

use crate::registry::{fmt_f64, json_escape};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// A field value attached to a trace record.
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

/// One trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Simulated time of the event (abstract units or cycles-as-f64,
    /// matching the emitting backend).
    pub sim_time: f64,
    /// Emitting component, e.g. `"core"`, `"campaign"`.
    pub component: &'static str,
    /// Event name, e.g. `"round_committed"`.
    pub event: &'static str,
    /// Ordered key/value payload.
    pub fields: Vec<(&'static str, Value)>,
}

/// Bounded event trace (ring buffer).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// Trace keeping at most `capacity` records (0 disables recording).
    /// The ring grows on demand up to `capacity`; nothing is reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            records: VecDeque::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Append a record, evicting the oldest when full.
    pub fn push(&mut self, record: TraceRecord) {
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

    /// Records currently held, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted (or discarded while disabled) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append another trace's records (used when a sub-run's trace is
    /// folded into the parent's).
    pub fn extend_from(&mut self, other: &Trace) {
        self.dropped += other.dropped;
        for r in other.records() {
            self.push(r.clone());
        }
    }

    /// JSON-lines export: one object per record, preceded by a header
    /// object with the drop count.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"kind\":\"trace_header\",\"records\":{},\"dropped\":{}}}",
            self.records.len(),
            self.dropped
        );
        for r in &self.records {
            let _ = write!(
                out,
                "{{\"t\":{},\"component\":\"{}\",\"event\":\"{}\"",
                if r.sim_time.is_finite() {
                    format!("{}", r.sim_time)
                } else {
                    format!("\"{}\"", fmt_f64(r.sim_time))
                },
                json_escape(r.component),
                json_escape(r.event)
            );
            for (k, v) in &r.fields {
                let _ = write!(out, ",\"{}\":{}", json_escape(k), v.to_json());
            }
            out.push_str("}\n");
        }
        out
    }
}

impl std::fmt::Display for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "  trace: {} records ({} dropped)",
            self.records.len(),
            self.dropped
        )?;
        for r in &self.records {
            write!(
                f,
                "  [{:>12.3}] {:<10} {:<24}",
                r.sim_time, r.component, r.event
            )?;
            for (k, v) in &r.fields {
                write!(f, " {k}={v}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: f64, event: &'static str) -> TraceRecord {
        TraceRecord {
            sim_time: t,
            component: "test",
            event,
            fields: vec![("k", Value::U64(1))],
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut tr = Trace::with_capacity(3);
        for i in 0..5 {
            tr.push(rec(f64::from(i), "e"));
        }
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.dropped(), 2);
        let times: Vec<f64> = tr.records().map(|r| r.sim_time).collect();
        assert_eq!(times, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn zero_capacity_discards() {
        let mut tr = Trace::with_capacity(0);
        tr.push(rec(1.0, "e"));
        assert!(tr.is_empty());
        assert_eq!(tr.dropped(), 1);
    }

    #[test]
    fn jsonl_shape() {
        let mut tr = Trace::with_capacity(8);
        tr.push(TraceRecord {
            sim_time: 1.5,
            component: "core",
            event: "round_committed",
            fields: vec![("round", Value::U64(3)), ("ok", Value::Str("yes"))],
        });
        let j = tr.to_jsonl();
        assert!(j.starts_with("{\"kind\":\"trace_header\""));
        assert!(j.contains("\"t\":1.5"));
        assert!(j.contains("\"round\":3"));
        assert!(j.contains("\"ok\":\"yes\""));
        assert_eq!(j.lines().count(), 2);
    }

    #[test]
    fn extend_from_folds() {
        let mut a = Trace::with_capacity(4);
        a.push(rec(1.0, "a"));
        let mut b = Trace::with_capacity(4);
        b.push(rec(2.0, "b"));
        a.extend_from(&b);
        assert_eq!(a.len(), 2);
    }
}
