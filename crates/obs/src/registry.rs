//! The metrics registry: named counters, gauges and observation
//! summaries, with deterministic (sorted) content and exporters.

use crate::histogram::Histogram;
use crate::summary::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape a string for inclusion in a JSON document.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    let _ = write_json_escaped(&mut out, s);
    out
}

/// The escape sequence standing for `c` in a JSON string, if `c` needs
/// one.
fn json_escape_char(c: char) -> Option<&'static str> {
    Some(match c {
        '"' => "\\\"",
        '\\' => "\\\\",
        '\n' => "\\n",
        '\r' => "\\r",
        '\t' => "\\t",
        _ => return None,
    })
}

/// [`json_escape`] written straight into `out`, allocating nothing.
pub(crate) fn write_json_escaped(out: &mut impl std::fmt::Write, s: &str) -> std::fmt::Result {
    let mut plain = 0; // start of the run not yet written
    for (i, c) in s.char_indices() {
        let short = json_escape_char(c);
        if short.is_none() && (c as u32) >= 0x20 {
            continue;
        }
        out.write_str(&s[plain..i])?;
        match short {
            Some(esc) => out.write_str(esc)?,
            None => write!(out, "\\u{:04x}", c as u32)?,
        }
        plain = i + c.len_utf8();
    }
    out.write_str(&s[plain..])
}

/// Length in bytes of [`json_escape`]`(s)`, computed without escaping.
pub(crate) fn json_escaped_len(s: &str) -> usize {
    s.chars()
        .map(|c| match json_escape_char(c) {
            Some(esc) => esc.len(),
            None if (c as u32) < 0x20 => 6,
            None => c.len_utf8(),
        })
        .sum()
}

/// Format an `f64` for export: shortest round-trip representation, with a
/// fixed spelling for the non-finite values.
pub(crate) fn fmt_f64(x: f64) -> String {
    let mut out = String::new();
    let _ = write_f64(&mut out, x);
    out
}

/// [`fmt_f64`] written straight into `out`, allocating nothing.
pub(crate) fn write_f64(out: &mut impl std::fmt::Write, x: f64) -> std::fmt::Result {
    if x.is_nan() {
        out.write_str("nan")
    } else if x == f64::INFINITY {
        out.write_str("inf")
    } else if x == f64::NEG_INFINITY {
        out.write_str("-inf")
    } else {
        write!(out, "{x}")
    }
}

/// Apply `f` to the value under `name`, inserting `V::default()` first
/// if the name is new. The key is looked up by `&str` and allocated only
/// for a new name.
fn update<V: Default>(map: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => {
            let mut v = V::default();
            f(&mut v);
            map.insert(name.to_string(), v);
        }
    }
}

/// Metric names `<prefix>.<field>` built in one reused buffer, so an
/// exporter naming a group of metrics allocates once for the group, not
/// once per metric.
#[derive(Debug, Clone)]
pub struct KeyPrefix {
    buf: String,
    len: usize,
}

impl KeyPrefix {
    /// Names under `prefix`.
    pub fn new(prefix: &str) -> Self {
        let mut buf = String::with_capacity(prefix.len() + 32);
        buf.push_str(prefix);
        buf.push('.');
        KeyPrefix {
            len: buf.len(),
            buf,
        }
    }

    /// The name `<prefix>.<field>`.
    pub fn with(&mut self, field: &str) -> &str {
        self.buf.truncate(self.len);
        self.buf.push_str(field);
        &self.buf
    }
}

/// Named metrics, kept sorted so exports are deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    summaries: BTreeMap<String, Summary>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to the named counter (creating it at zero first).
    pub fn count(&mut self, name: &str, n: u64) {
        update(&mut self.counters, name, |c| *c += n);
    }

    /// Set the named gauge to `v` (last write wins).
    pub fn gauge(&mut self, name: &str, v: f64) {
        update(&mut self.gauges, name, |g| *g = v);
    }

    /// Set the named gauge to the maximum of its current value and `v`.
    pub fn gauge_max(&mut self, name: &str, v: f64) {
        match self.gauges.get_mut(name) {
            Some(g) if v > *g => *g = v,
            Some(_) => {}
            None => {
                self.gauges.insert(name.to_string(), v);
            }
        }
    }

    /// Record one observation into the named summary.
    pub fn observe(&mut self, name: &str, x: f64) {
        update(&mut self.summaries, name, |s| s.observe(x));
    }

    /// Record observations into the named summary, in order, looking the
    /// name up once.
    pub(crate) fn observe_each(&mut self, name: &str, xs: impl IntoIterator<Item = f64>) {
        update(&mut self.summaries, name, |s| {
            xs.into_iter().for_each(|x| s.observe(x))
        });
    }

    /// Fold an already-accumulated summary into the named summary.
    pub fn merge_summary(&mut self, name: &str, s: &Summary) {
        update(&mut self.summaries, name, |sum| sum.merge(s));
    }

    /// Record one observation into the named histogram (first-class
    /// log-bucket histogram: exact counts, order-invariant merge).
    pub fn observe_hist(&mut self, name: &str, x: f64) {
        update(&mut self.histograms, name, |h| h.observe(x));
    }

    /// Fold an already-accumulated histogram into the named histogram.
    pub fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        update(&mut self.histograms, name, |hist| hist.merge(h));
    }

    /// Counter value (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Summary for a name, if any observations were recorded.
    pub fn summary(&self, name: &str) -> Option<&Summary> {
        self.summaries.get(name)
    }

    /// Histogram for a name, if any observations were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterate gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterate summaries in name order.
    pub fn summaries(&self) -> impl Iterator<Item = (&str, &Summary)> {
        self.summaries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterate histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.summaries.is_empty()
            && self.histograms.is_empty()
    }

    /// Merge another registry into this one: counters add, gauges take
    /// the maximum, summaries and histograms merge. Merge shards in a
    /// fixed order for bit-reproducible means/variances.
    pub fn merge(&mut self, other: &Registry) {
        for (k, &v) in &other.counters {
            self.count(k, v);
        }
        for (k, &v) in &other.gauges {
            self.gauge_max(k, v);
        }
        for (k, v) in &other.summaries {
            self.merge_summary(k, v);
        }
        for (k, v) in &other.histograms {
            self.merge_histogram(k, v);
        }
    }

    /// Prefix every metric name with `prefix.` and return the result
    /// (used to namespace a sub-component's registry before merging).
    pub fn prefixed(&self, prefix: &str) -> Registry {
        let pre = |k: &str| format!("{prefix}.{k}");
        Registry {
            counters: self.counters.iter().map(|(k, &v)| (pre(k), v)).collect(),
            gauges: self.gauges.iter().map(|(k, &v)| (pre(k), v)).collect(),
            summaries: self
                .summaries
                .iter()
                .map(|(k, v)| (pre(k), v.clone()))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| (pre(k), v.clone()))
                .collect(),
        }
    }

    fn summary_rows(out: &mut String, kind: &str, name: &str, s: &Summary) {
        if s.count() == 0 {
            // An empty summary has no meaningful statistics; emit only the
            // count row so exports stay nan-free.
            let _ = writeln!(out, "{kind},{name},count,0");
            return;
        }
        let rows: [(&str, String); 7] = [
            ("count", s.count().to_string()),
            ("mean", fmt_f64(s.mean())),
            ("variance", fmt_f64(s.variance())),
            ("min", fmt_f64(s.min())),
            ("p50", fmt_f64(s.quantile(0.5).unwrap_or(f64::NAN))),
            ("p99", fmt_f64(s.quantile(0.99).unwrap_or(f64::NAN))),
            ("max", fmt_f64(s.max())),
        ];
        for (field, value) in rows {
            let _ = writeln!(out, "{kind},{name},{field},{value}");
        }
    }

    fn histogram_rows(out: &mut String, name: &str, h: &Histogram) {
        if h.count() == 0 {
            let _ = writeln!(out, "histogram,{name},count,0");
            return;
        }
        let rows: [(&str, String); 6] = [
            ("count", h.count().to_string()),
            ("sum", fmt_f64(h.sum())),
            ("min", fmt_f64(h.min())),
            ("p50", fmt_f64(h.quantile(0.5).unwrap_or(f64::NAN))),
            ("p99", fmt_f64(h.quantile(0.99).unwrap_or(f64::NAN))),
            ("max", fmt_f64(h.max())),
        ];
        for (field, value) in rows {
            let _ = writeln!(out, "histogram,{name},{field},{value}");
        }
        for (le, cum) in h.cumulative() {
            let _ = writeln!(out, "histogram,{name},le_{},{cum}", fmt_f64(le));
        }
        let _ = writeln!(out, "histogram,{name},le_inf,{}", h.count());
    }

    /// CSV export (`kind,name,field,value`). A fixed-seed run exports
    /// byte-identical bytes regardless of worker count or machine.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,field,value\n");
        for (k, v) in &self.counters {
            let _ = writeln!(out, "counter,{k},value,{v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "gauge,{k},value,{}", fmt_f64(*v));
        }
        for (k, s) in &self.summaries {
            Self::summary_rows(&mut out, "summary", k, s);
        }
        for (k, h) in &self.histograms {
            Self::histogram_rows(&mut out, k, h);
        }
        out
    }

    /// JSON-lines export: one object per metric.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(
                out,
                "{{\"kind\":\"counter\",\"name\":\"{}\",\"value\":{v}}}",
                json_escape(k)
            );
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(
                out,
                "{{\"kind\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
                json_escape(k),
                json_number(*v)
            );
        }
        for (k, s) in &self.summaries {
            if s.count() == 0 {
                let _ = writeln!(
                    out,
                    "{{\"kind\":\"summary\",\"name\":\"{}\",\"count\":0}}",
                    json_escape(k)
                );
                continue;
            }
            let _ = writeln!(
                out,
                "{{\"kind\":\"summary\",\"name\":\"{}\",\"count\":{},\"mean\":{},\"variance\":{},\"min\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
                json_escape(k),
                s.count(),
                json_number(s.mean()),
                json_number(s.variance()),
                json_number(s.min()),
                json_number(s.quantile(0.5).unwrap_or(f64::NAN)),
                json_number(s.quantile(0.99).unwrap_or(f64::NAN)),
                json_number(s.max()),
            );
        }
        for (k, h) in &self.histograms {
            if h.count() == 0 {
                let _ = writeln!(
                    out,
                    "{{\"kind\":\"histogram\",\"name\":\"{}\",\"count\":0}}",
                    json_escape(k)
                );
                continue;
            }
            let _ = writeln!(
                out,
                "{{\"kind\":\"histogram\",\"name\":\"{}\",{}}}",
                json_escape(k),
                histogram_json_body(h)
            );
        }
        out
    }

    /// One JSON object covering every metric:
    /// `{"counters":{…},"gauges":{…},"summaries":{…},"histograms":{…}}`.
    /// This is the shared serializer behind every `--json` report that
    /// embeds a registry, so their metric blocks never drift apart.
    pub fn to_json_object(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", json_escape(k));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", json_escape(k), json_number(*v));
        }
        out.push_str("},\"summaries\":{");
        for (i, (k, s)) in self.summaries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if s.count() == 0 {
                let _ = write!(out, "\"{}\":{{\"count\":0}}", json_escape(k));
                continue;
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"mean\":{},\"variance\":{},\"min\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
                json_escape(k),
                s.count(),
                json_number(s.mean()),
                json_number(s.variance()),
                json_number(s.min()),
                json_number(s.quantile(0.5).unwrap_or(f64::NAN)),
                json_number(s.quantile(0.99).unwrap_or(f64::NAN)),
                json_number(s.max()),
            );
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if h.count() == 0 {
                let _ = write!(out, "\"{}\":{{\"count\":0}}", json_escape(k));
                continue;
            }
            let _ = write!(out, "\"{}\":{{{}}}", json_escape(k), histogram_json_body(h));
        }
        out.push_str("}}");
        out
    }
}

/// JSON has no inf/nan literals; encode them as strings.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        format!("\"{}\"", fmt_f64(x))
    }
}

/// Shared JSON body of a non-empty histogram (no surrounding braces):
/// scalar statistics plus cumulative `[le, count]` bucket pairs.
fn histogram_json_body(h: &Histogram) -> String {
    let mut out = format!(
        "\"count\":{},\"sum\":{},\"mean\":{},\"min\":{},\"p50\":{},\"p99\":{},\"max\":{},\"buckets\":[",
        h.count(),
        json_number(h.sum()),
        json_number(h.mean()),
        json_number(h.min()),
        json_number(h.quantile(0.5).unwrap_or(f64::NAN)),
        json_number(h.quantile(0.99).unwrap_or(f64::NAN)),
        json_number(h.max()),
    );
    for (i, (le, cum)) in h.cumulative().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},{cum}]", json_number(le));
    }
    out.push(']');
    out
}

/// Human-readable rendering: one line per metric, grouped by kind.
impl std::fmt::Display for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (k, v) in &self.counters {
            writeln!(f, "  counter  {k:<44} {v}")?;
        }
        for (k, v) in &self.gauges {
            writeln!(f, "  gauge    {k:<44} {}", fmt_f64(*v))?;
        }
        for (k, s) in &self.summaries {
            writeln!(f, "  summary  {k:<44} {s}")?;
        }
        for (k, h) in &self.histograms {
            writeln!(f, "  histogram {k:<43} {h}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_summaries() {
        let mut r = Registry::new();
        r.count("a.events", 3);
        r.count("a.events", 2);
        r.gauge("q.depth", 7.0);
        r.gauge_max("q.depth", 5.0);
        r.gauge_max("q.depth", 9.0);
        r.observe("lat", 1.0);
        r.observe("lat", 3.0);
        assert_eq!(r.counter("a.events"), 5);
        assert_eq!(r.gauge_value("q.depth"), Some(9.0));
        assert_eq!(r.summary("lat").unwrap().count(), 2);
        assert!((r.summary("lat").unwrap().mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn csv_is_sorted_and_deterministic() {
        let mut r = Registry::new();
        r.count("z.last", 1);
        r.count("a.first", 2);
        let csv = r.to_csv();
        let a = csv.find("a.first").unwrap();
        let z = csv.find("z.last").unwrap();
        assert!(a < z);
        assert_eq!(csv, r.clone().to_csv());
    }

    #[test]
    fn empty_summary_exports_are_nan_free() {
        let mut a = Registry::new();
        a.observe("s", 1.0);
        let mut r = Registry::new();
        r.merge(&a.prefixed("x"));
        // Merging created summary entries; simulate one that stays empty.
        r.merge_summary("empty", &Summary::new());
        let csv = r.to_csv();
        assert!(csv.contains("summary,empty,count,0"), "csv: {csv}");
        assert!(!csv.to_lowercase().contains("nan"), "csv: {csv}");
        let jsonl = r.to_jsonl();
        assert!(
            jsonl.contains("{\"kind\":\"summary\",\"name\":\"empty\",\"count\":0}"),
            "jsonl: {jsonl}"
        );
        assert!(!jsonl.to_lowercase().contains("nan"), "jsonl: {jsonl}");
    }

    #[test]
    fn single_observation_summary_rows_report_the_value() {
        let mut r = Registry::new();
        r.observe("lat", 12.5);
        let csv = r.to_csv();
        assert!(csv.contains("summary,lat,p50,12.5"), "csv: {csv}");
        assert!(csv.contains("summary,lat,p99,12.5"), "csv: {csv}");
        assert!(!csv.to_lowercase().contains("nan"), "csv: {csv}");
    }

    #[test]
    fn merge_adds_and_maxes() {
        let mut a = Registry::new();
        a.count("c", 1);
        a.gauge("g", 2.0);
        a.observe("s", 1.0);
        let mut b = Registry::new();
        b.count("c", 4);
        b.gauge("g", 1.0);
        b.observe("s", 3.0);
        b.observe("s2", 9.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 5);
        assert_eq!(a.gauge_value("g"), Some(2.0));
        assert_eq!(a.summary("s").unwrap().count(), 2);
        assert_eq!(a.summary("s2").unwrap().count(), 1);
    }

    #[test]
    fn prefixed_namespaces_everything() {
        let mut r = Registry::new();
        r.count("x", 1);
        r.gauge("y", 2.0);
        r.observe("z", 3.0);
        let p = r.prefixed("sub");
        assert_eq!(p.counter("sub.x"), 1);
        assert_eq!(p.gauge_value("sub.y"), Some(2.0));
        assert!(p.summary("sub.z").is_some());
    }

    #[test]
    fn jsonl_renders_valid_shapes() {
        let mut r = Registry::new();
        r.count("c", 1);
        r.gauge("g", 1.5);
        r.observe("s", 2.0);
        let j = r.to_jsonl();
        assert!(j.contains("\"kind\":\"counter\""));
        assert!(j.contains("\"kind\":\"gauge\""));
        assert!(j.contains("\"kind\":\"summary\""));
        assert_eq!(j.lines().count(), 3);
    }

    #[test]
    fn histogram_kind_round_trips_through_every_exporter() {
        let mut r = Registry::new();
        r.observe_hist("resid", 0.5);
        r.observe_hist("resid", 1.0);
        r.observe_hist("resid", -0.25);
        r.merge_histogram("empty", &Histogram::new());
        let csv = r.to_csv();
        assert!(csv.contains("histogram,resid,count,3"), "csv: {csv}");
        assert!(csv.contains("histogram,resid,sum,1.25"), "csv: {csv}");
        assert!(csv.contains("histogram,resid,le_0,1"), "csv: {csv}");
        assert!(csv.contains("histogram,resid,le_0.5,2"), "csv: {csv}");
        assert!(csv.contains("histogram,resid,le_1,3"), "csv: {csv}");
        assert!(csv.contains("histogram,resid,le_inf,3"), "csv: {csv}");
        assert!(csv.contains("histogram,empty,count,0"), "csv: {csv}");
        assert!(!csv.to_lowercase().contains("nan"), "csv: {csv}");
        let jsonl = r.to_jsonl();
        assert!(
            jsonl.contains("{\"kind\":\"histogram\",\"name\":\"resid\",\"count\":3,\"sum\":1.25"),
            "jsonl: {jsonl}"
        );
        assert!(
            jsonl.contains("\"buckets\":[[0,1],[0.5,2],[1,3]]"),
            "jsonl: {jsonl}"
        );
        assert!(
            jsonl.contains("{\"kind\":\"histogram\",\"name\":\"empty\",\"count\":0}"),
            "jsonl: {jsonl}"
        );
        let j = r.to_json_object();
        assert!(
            j.contains("\"histograms\":{\"empty\":{\"count\":0},\"resid\":{"),
            "{j}"
        );
        assert!(j.ends_with("]}}}"), "{j}");
    }

    #[test]
    fn histograms_merge_and_prefix_like_other_kinds() {
        let mut a = Registry::new();
        a.observe_hist("h", 1.0);
        let mut b = Registry::new();
        b.observe_hist("h", 2.0);
        a.merge(&b);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        let p = a.prefixed("sub");
        assert_eq!(p.histogram("sub.h").unwrap().count(), 2);
        assert!(!p.is_empty());
        let only_hist = b.clone();
        assert!(
            !only_hist.is_empty(),
            "a histogram alone makes it non-empty"
        );
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn json_object_shape_and_determinism() {
        let mut r = Registry::new();
        r.count("b", 2);
        r.count("a", 1);
        r.gauge("g", f64::INFINITY);
        r.observe("s", 4.0);
        r.merge_summary("empty", &Summary::new());
        let j = r.to_json_object();
        assert!(j.starts_with("{\"counters\":{\"a\":1,\"b\":2}"), "{j}");
        assert!(j.contains("\"gauges\":{\"g\":\"inf\"}"), "{j}");
        assert!(j.contains("\"empty\":{\"count\":0}"), "{j}");
        assert!(j.contains("\"s\":{\"count\":1,\"mean\":4,"), "{j}");
        assert_eq!(j, r.clone().to_json_object());
    }
}
