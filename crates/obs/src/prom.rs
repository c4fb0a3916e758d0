//! Prometheus text exposition (format version 0.0.4) rendering of a
//! [`Registry`].
//!
//! This is what `GET /metrics` on the telemetry server serves. The
//! renderer maps the registry's dotted metric names onto the Prometheus
//! grammar:
//!
//! * **names** are sanitized to `[a-zA-Z_:][a-zA-Z0-9_:]*` (every other
//!   character becomes `_`; a leading digit is prefixed with `_`),
//! * **counters** gain the conventional `_total` suffix,
//! * **summaries** render as native Prometheus summaries: `{quantile=…}`
//!   samples plus `_sum` and `_count`,
//! * **histograms** render as native Prometheus histograms: cumulative
//!   `_bucket{le=…}` samples in ascending bound order, the mandatory
//!   `le="+Inf"` bucket, then `_sum` and `_count`,
//! * when two distinct registry names collapse onto one sanitized family
//!   (e.g. `a.b` and `a/b`), every sample in that family carries a
//!   `name="<original>"` label so no data is silently lost,
//! * **non-finite values are suppressed**: a NaN/Inf gauge, quantile or
//!   sum emits no sample (and a family whose samples are all suppressed
//!   emits nothing at all) — scrapers treat NaN as "no data", and the
//!   deterministic registry never needs them.
//!
//! The output is a pure function of registry content: families and
//! samples render in sorted order, so for a fixed seed the `/metrics`
//! bytes are as reproducible as the registry's CSV export.

use crate::histogram::Histogram;
use crate::registry::Registry;
use crate::summary::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Sanitize a registry metric name into a legal Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`). Illegal characters map to `_`; a name
/// starting with a digit is prefixed with `_`; an empty name becomes `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphabetic() || c == '_' || c == ':' {
            out.push(c);
        } else if c.is_ascii_digit() {
            if i == 0 {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape a label value per the exposition format: backslash, double
/// quote and newline must be escaped; everything else passes through.
pub fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape HELP text: backslash and newline only (quotes are legal there).
pub fn escape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// One source metric inside a family.
enum Sample<'a> {
    Counter(u64),
    Gauge(f64),
    Summary(&'a Summary),
    Histogram(&'a Histogram),
}

/// Format a finite f64 the way Prometheus expects (plain decimal /
/// scientific, as produced by Rust's shortest round-trip formatting).
fn fmt_sample(x: f64) -> String {
    format!("{x}")
}

/// The `{name="…"}` label clause for a sample, or the empty string when
/// the family has a single member (the common case).
fn name_label(multi: bool, orig: &str) -> String {
    if multi {
        format!("{{name=\"{}\"}}", escape_label_value(orig))
    } else {
        String::new()
    }
}

/// Like [`name_label`] but merging the `name` label with an extra
/// `quantile` label (summaries).
fn quantile_label(multi: bool, orig: &str, q: &str) -> String {
    if multi {
        format!("{{name=\"{}\",quantile=\"{q}\"}}", escape_label_value(orig))
    } else {
        format!("{{quantile=\"{q}\"}}")
    }
}

/// Like [`name_label`] but merging the `name` label with the `le` bucket
/// label (histograms). Both values go through [`escape_label_value`], so a
/// colliding source name with quotes or backslashes cannot break the
/// label clause the `le` sample lives in.
fn le_label(multi: bool, orig: &str, le: &str) -> String {
    if multi {
        format!(
            "{{name=\"{}\",le=\"{}\"}}",
            escape_label_value(orig),
            escape_label_value(le)
        )
    } else {
        format!("{{le=\"{}\"}}", escape_label_value(le))
    }
}

/// Render a registry as Prometheus text exposition (version 0.0.4).
pub fn render(registry: &Registry) -> String {
    // Group source metrics into exposition families keyed by sanitized
    // name. Counters, gauges and summaries use distinct suffix patterns,
    // so families stay homogeneous; same-kind collisions share a family
    // and are told apart by a `name` label.
    let mut counters: BTreeMap<String, Vec<(&str, Sample)>> = BTreeMap::new();
    for (k, v) in registry.counters() {
        let mut fam = sanitize_metric_name(k);
        if !fam.ends_with("_total") {
            fam.push_str("_total");
        }
        counters
            .entry(fam)
            .or_default()
            .push((k, Sample::Counter(v)));
    }
    let mut gauges: BTreeMap<String, Vec<(&str, Sample)>> = BTreeMap::new();
    for (k, v) in registry.gauges() {
        gauges
            .entry(sanitize_metric_name(k))
            .or_default()
            .push((k, Sample::Gauge(v)));
    }
    let mut summaries: BTreeMap<String, Vec<(&str, Sample)>> = BTreeMap::new();
    for (k, s) in registry.summaries() {
        summaries
            .entry(sanitize_metric_name(k))
            .or_default()
            .push((k, Sample::Summary(s)));
    }
    let mut histograms: BTreeMap<String, Vec<(&str, Sample)>> = BTreeMap::new();
    for (k, h) in registry.histograms() {
        histograms
            .entry(sanitize_metric_name(k))
            .or_default()
            .push((k, Sample::Histogram(h)));
    }

    let mut out = String::new();
    for (fam, members) in &counters {
        render_family(&mut out, fam, "counter", members);
    }
    for (fam, members) in &gauges {
        render_family(&mut out, fam, "gauge", members);
    }
    for (fam, members) in &summaries {
        render_family(&mut out, fam, "summary", members);
    }
    for (fam, members) in &histograms {
        render_family(&mut out, fam, "histogram", members);
    }
    out
}

fn render_family(out: &mut String, fam: &str, kind: &str, members: &[(&str, Sample)]) {
    let multi = members.len() > 1;
    // Render samples first so a fully-suppressed family (all-NaN gauges)
    // emits no HELP/TYPE header either.
    let mut body = String::new();
    for (orig, sample) in members {
        match sample {
            Sample::Counter(v) => {
                let _ = writeln!(body, "{fam}{} {v}", name_label(multi, orig));
            }
            Sample::Gauge(v) => {
                if v.is_finite() {
                    let _ = writeln!(body, "{fam}{} {}", name_label(multi, orig), fmt_sample(*v));
                }
            }
            Sample::Summary(s) => {
                if s.count() > 0 {
                    for (q, qs) in [(0.5, "0.5"), (0.99, "0.99")] {
                        if let Some(v) = s.quantile(q).filter(|v| v.is_finite()) {
                            let _ = writeln!(
                                body,
                                "{fam}{} {}",
                                quantile_label(multi, orig, qs),
                                fmt_sample(v)
                            );
                        }
                    }
                    if s.sum().is_finite() {
                        let _ = writeln!(
                            body,
                            "{fam}_sum{} {}",
                            name_label(multi, orig),
                            fmt_sample(s.sum())
                        );
                    }
                }
                let _ = writeln!(body, "{fam}_count{} {}", name_label(multi, orig), s.count());
            }
            Sample::Histogram(h) => {
                // Cumulative buckets ascend by upper bound; the mandatory
                // +Inf bucket always closes the series at the total count.
                for (le, cum) in h.cumulative() {
                    let _ = writeln!(
                        body,
                        "{fam}_bucket{} {cum}",
                        le_label(multi, orig, &fmt_sample(le))
                    );
                }
                let _ = writeln!(
                    body,
                    "{fam}_bucket{} {}",
                    le_label(multi, orig, "+Inf"),
                    h.count()
                );
                if h.sum().is_finite() {
                    let _ = writeln!(
                        body,
                        "{fam}_sum{} {}",
                        name_label(multi, orig),
                        fmt_sample(h.sum())
                    );
                }
                let _ = writeln!(body, "{fam}_count{} {}", name_label(multi, orig), h.count());
            }
        }
    }
    if body.is_empty() {
        return;
    }
    let help = if multi {
        format!("vds {kind} ({} source metrics)", members.len())
    } else {
        format!("vds {kind} {}", escape_help(members[0].0))
    };
    let _ = writeln!(out, "# HELP {fam} {help}");
    let _ = writeln!(out, "# TYPE {fam} {kind}");
    out.push_str(&body);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sample line must be `name[{labels}] value`.
    fn assert_well_formed(exposition: &str) {
        for line in exposition.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment: {line}"
                );
                continue;
            }
            let (name_part, value) = line.rsplit_once(' ').expect("sample has a value");
            let name_end = name_part.find('{').unwrap_or(name_part.len());
            let name = &name_part[..name_end];
            assert!(!name.is_empty(), "empty metric name: {line}");
            let mut chars = name.chars();
            let first = chars.next().unwrap();
            assert!(
                first.is_ascii_alphabetic() || first == '_' || first == ':',
                "bad first char in {line}"
            );
            assert!(
                chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad name char in {line}"
            );
            assert!(value.parse::<f64>().is_ok(), "bad value in {line}");
            assert!(
                value.parse::<f64>().unwrap().is_finite(),
                "non-finite sample: {line}"
            );
        }
    }

    #[test]
    fn sanitization() {
        assert_eq!(sanitize_metric_name("a.b-c/d"), "a_b_c_d");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(sanitize_metric_name("ok_name:sub"), "ok_name:sub");
        assert_eq!(sanitize_metric_name("smt.thread0.ipc"), "smt_thread0_ipc");
    }

    #[test]
    fn label_and_help_escaping() {
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_help("a\\b\nc\"d"), "a\\\\b\\nc\"d");
    }

    #[test]
    fn counters_get_total_suffix_once() {
        let mut r = Registry::new();
        r.count("x.events", 3);
        r.count("y.bytes_total", 9);
        let p = render(&r);
        assert!(p.contains("# TYPE x_events_total counter"), "{p}");
        assert!(p.contains("x_events_total 3\n"), "{p}");
        assert!(p.contains("y_bytes_total 9\n"), "{p}");
        assert!(!p.contains("_total_total"), "{p}");
        assert_well_formed(&p);
    }

    #[test]
    fn nan_and_inf_gauges_are_suppressed_family_and_all() {
        let mut r = Registry::new();
        r.gauge("bad.nan", f64::NAN);
        r.gauge("bad.inf", f64::INFINITY);
        r.gauge("good", 1.5);
        let p = render(&r);
        assert!(!p.to_lowercase().contains("nan"), "{p}");
        assert!(!p.to_lowercase().contains("inf"), "{p}");
        assert!(
            !p.contains("bad_nan"),
            "suppressed family leaked header: {p}"
        );
        assert!(p.contains("# TYPE good gauge"), "{p}");
        assert!(p.contains("good 1.5\n"), "{p}");
        assert_well_formed(&p);
    }

    #[test]
    fn name_collisions_get_name_labels() {
        let mut r = Registry::new();
        r.count("a.b", 1);
        r.count("a/b", 2);
        let p = render(&r);
        assert_eq!(p.matches("# TYPE a_b_total counter").count(), 1, "{p}");
        assert!(p.contains("a_b_total{name=\"a.b\"} 1\n"), "{p}");
        assert!(p.contains("a_b_total{name=\"a/b\"} 2\n"), "{p}");
        assert_well_formed(&p);
    }

    #[test]
    fn summaries_render_quantiles_sum_count() {
        let mut r = Registry::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            r.observe("lat.ms", v);
        }
        r.merge_summary("empty", &Summary::new());
        let p = render(&r);
        assert!(p.contains("# TYPE lat_ms summary"), "{p}");
        assert!(p.contains("lat_ms{quantile=\"0.5\"}"), "{p}");
        assert!(p.contains("lat_ms{quantile=\"0.99\"}"), "{p}");
        assert!(p.contains("lat_ms_sum 10\n"), "{p}");
        assert!(p.contains("lat_ms_count 4\n"), "{p}");
        // empty summary: count row only, no quantiles, no NaN
        assert!(p.contains("empty_count 0\n"), "{p}");
        assert!(!p.contains("empty{"), "{p}");
        assert!(!p.to_lowercase().contains("nan"), "{p}");
        assert_well_formed(&p);
    }

    #[test]
    fn histograms_render_cumulative_buckets_inf_and_escaped_le_labels() {
        let mut r = Registry::new();
        for v in [-0.5, 0.25, 0.5, 3.0, 3.1] {
            r.observe_hist("resid.abs", v);
        }
        let p = render(&r);
        assert!(p.contains("# TYPE resid_abs histogram"), "{p}");
        // cumulative ordering: bounds ascend, counts never decrease, and
        // the +Inf bucket closes the series at the total count
        let buckets: Vec<(f64, u64)> = p
            .lines()
            .filter(|l| l.starts_with("resid_abs_bucket{le=\"") && !l.contains("+Inf"))
            .map(|l| {
                let le = l.split("le=\"").nth(1).unwrap().split('"').next().unwrap();
                let v = l.rsplit(' ').next().unwrap();
                (le.parse().unwrap(), v.parse().unwrap())
            })
            .collect();
        assert!(buckets.len() >= 3, "{p}");
        for w in buckets.windows(2) {
            assert!(w[0].0 < w[1].0, "le bounds must ascend: {p}");
            assert!(w[0].1 <= w[1].1, "bucket counts must accumulate: {p}");
        }
        assert_eq!(buckets.first().unwrap(), &(0.0, 1), "underflow bucket: {p}");
        assert!(p.contains("resid_abs_bucket{le=\"+Inf\"} 5\n"), "{p}");
        let sum: f64 = p
            .lines()
            .find(|l| l.starts_with("resid_abs_sum "))
            .and_then(|l| l.rsplit(' ').next())
            .unwrap()
            .parse()
            .unwrap();
        assert!((sum - 6.35).abs() < 1e-12, "{p}");
        assert!(p.contains("resid_abs_count 5\n"), "{p}");
        // the +Inf bucket is the last bucket line
        let last_bucket = p
            .lines()
            .rfind(|l| l.starts_with("resid_abs_bucket"))
            .unwrap();
        assert!(last_bucket.contains("+Inf"), "{p}");
        assert_well_formed(&p);

        // colliding source names put an escaped `name` label inside the
        // same clause as `le`; quotes/backslashes must not break it
        let mut r = Registry::new();
        r.observe_hist("h\"q.x", 1.0);
        r.observe_hist("h\\q.x", 2.0);
        let p = render(&r);
        assert_eq!(p.matches("# TYPE h_q_x histogram").count(), 1, "{p}");
        assert!(
            p.contains("h_q_x_bucket{name=\"h\\\"q.x\",le=\"1\"} 1\n"),
            "{p}"
        );
        assert!(
            p.contains("h_q_x_bucket{name=\"h\\\\q.x\",le=\"+Inf\"} 1\n"),
            "{p}"
        );
        assert!(p.contains("h_q_x_count{name=\"h\\\"q.x\"} 1\n"), "{p}");
        assert_well_formed(&p);
    }

    #[test]
    fn rendering_is_deterministic() {
        let mut r = Registry::new();
        r.count("z.c", 1);
        r.count("a.c", 2);
        r.gauge("m.g", 0.25);
        r.observe("s", 7.0);
        assert_eq!(render(&r), render(&r));
        let a = render(&r).find("# HELP a_c_total").unwrap();
        let z = render(&r).find("# HELP z_c_total").unwrap();
        assert!(a < z, "families must be sorted");
    }

    /// Golden-file pin of the full exposition for a synthetic registry
    /// exercising sanitization, escaping, collisions and suppression.
    /// Regenerate with `VDS_UPDATE_GOLDEN=1 cargo test -p vds-obs`.
    #[test]
    fn golden_exposition() {
        let mut r = Registry::new();
        r.count("campaign.count.transient/recovered", 12);
        r.count("campaign.trials", 64);
        r.count("9starts.with.digit", 1);
        r.gauge("smt.thread0.ipc", 1.75);
        r.gauge("broken.gauge", f64::NAN);
        r.gauge("label\"quote", 2.0);
        for v in [0.5, 1.0, 2.0] {
            r.observe("vds.recovery_time", v);
        }
        r.merge_summary("never.observed", &Summary::new());
        // first-class histogram kind: cumulative buckets, +Inf, and a
        // name collision forcing escaped labels in the `le` clause
        for v in [-0.01, 0.125, 0.25, 4.0] {
            r.observe_hist("conformance.residual", v);
        }
        r.observe_hist("conformance\"residual", 1.0);
        // the α-attribution ledger families, exactly as `vds alpha`
        // exports them (crate::alpha::AlphaReport::export_metrics)
        r.gauge("smt.alpha", 0.7222222222222222);
        r.count("alpha.stall.dcache", 20);
        r.count("alpha.stall.width", 8);
        r.observe_hist("alpha_excess_cycles", 30.0);
        // the flight-recorder journal block, exactly as a journaled run
        // exports it (crate::journal::Journal::export_metrics)
        let mut j =
            crate::Journal::enabled(crate::JournalHeader::new("micro", "smt-prob", 1, 10, 2));
        j.push(crate::RoundEntry {
            seq: 0,
            lane: 0,
            round: 1,
            committed: 1,
            sim_time: 0.5,
            d1: crate::digest_words128(&[1]),
            d2: crate::digest_words128(&[2]),
            verdict: crate::journal::Verdict::Mismatch,
            sched: "coschedule[v1,v2]".to_string(),
            action: crate::journal::Action::Recover,
            rollforward: 2,
            fault: Some("transient:mem:4:9@v2".to_string()),
            fault_id: Some(0),
            fault_outcome: None,
        });
        j.export_metrics(&mut r);
        let got = render(&r);
        assert!(got.contains("journal_rounds_total 1"), "{got}");
        assert!(
            got.contains("# TYPE conformance_residual histogram"),
            "{got}"
        );
        assert!(
            got.contains(
                "conformance_residual_bucket{name=\"conformance.residual\",le=\"+Inf\"} 4"
            ),
            "{got}"
        );
        assert!(got.contains("smt_alpha 0.7222222222222222"), "{got}");
        assert!(got.contains("alpha_stall_dcache_total 20"), "{got}");
        assert!(
            got.contains("# TYPE alpha_excess_cycles histogram"),
            "{got}"
        );
        assert!(got.contains("journal_divergences_total 1"), "{got}");
        assert!(got.contains("# TYPE journal_bytes_total counter"), "{got}");
        assert!(got.contains("journal_last_divergence_round 1"), "{got}");
        assert_well_formed(&got);
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/testdata/exposition.golden.prom"
        );
        if std::env::var_os("VDS_UPDATE_GOLDEN").is_some() {
            std::fs::write(path, &got).unwrap();
        }
        let want = std::fs::read_to_string(path)
            .expect("golden file present (regenerate with VDS_UPDATE_GOLDEN=1)");
        assert_eq!(got, want, "exposition drifted from the golden file");
    }
}
