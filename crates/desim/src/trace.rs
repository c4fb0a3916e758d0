//! Figure 1 span vocabulary and its ASCII Gantt / TSV renderers.
//!
//! The paper's Figure 1 shows the execution models of a VDS on a
//! conventional and on a multithreaded processor as timelines of rounds,
//! context switches, comparisons and recovery activity. The VDS engine
//! records each activity as a [`SpanRecord`] named after its
//! [`SpanKind`], with the lane (hardware thread or CPU) as `tid` and an
//! optional `label` field; [`render_ascii`] reproduces the figure in text
//! form and [`to_tsv`] emits the raw data for external plotting.

use std::fmt::Write as _;
use vds_obs::SpanRecord;

/// What a span of processor time was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// A version executing one round of useful work.
    Round,
    /// A context switch.
    ContextSwitch,
    /// State comparison between versions.
    Compare,
    /// Checkpoint being written to stable storage.
    Checkpoint,
    /// Retry execution of the spare version during recovery.
    Retry,
    /// Roll-forward execution during recovery.
    RollForward,
    /// Majority vote.
    Vote,
    /// Copying a state image between versions.
    StateCopy,
    /// Processor idle (e.g. a hardware thread with nothing scheduled).
    Idle,
}

impl SpanKind {
    /// Every kind, in declaration order.
    const ALL: [SpanKind; 9] = [
        SpanKind::Round,
        SpanKind::ContextSwitch,
        SpanKind::Compare,
        SpanKind::Checkpoint,
        SpanKind::Retry,
        SpanKind::RollForward,
        SpanKind::Vote,
        SpanKind::StateCopy,
        SpanKind::Idle,
    ];

    /// Single character used by the ASCII renderer.
    pub fn glyph(self) -> char {
        match self {
            SpanKind::Round => '=',
            SpanKind::ContextSwitch => 'x',
            SpanKind::Compare => 'c',
            SpanKind::Checkpoint => 'S',
            SpanKind::Retry => 'r',
            SpanKind::RollForward => 'f',
            SpanKind::Vote => 'V',
            SpanKind::StateCopy => 'y',
            SpanKind::Idle => '.',
        }
    }

    /// Human-readable name; the span name of every Figure 1 record.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Round => "round",
            SpanKind::ContextSwitch => "context-switch",
            SpanKind::Compare => "compare",
            SpanKind::Checkpoint => "checkpoint",
            SpanKind::Retry => "retry",
            SpanKind::RollForward => "roll-forward",
            SpanKind::Vote => "vote",
            SpanKind::StateCopy => "state-copy",
            SpanKind::Idle => "idle",
        }
    }

    /// The kind whose [`name`](Self::name) is `name`.
    pub fn from_name(name: &str) -> Option<SpanKind> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The span's `label` field, or `""` when it has none.
fn label(s: &SpanRecord) -> String {
    s.fields
        .iter()
        .find(|(k, _)| *k == "label")
        .map_or_else(String::new, |(_, v)| v.to_string())
}

/// Render an ASCII Gantt chart, `width` characters wide, one row per
/// lane (`tid`). Each cell shows the glyph of the span covering the
/// midpoint of that cell's time slice; `.` where nothing is recorded.
/// Later spans overlay earlier ones; zero-length spans never cover a
/// midpoint, so they appear only in the TSV output.
pub fn render_ascii(spans: &[SpanRecord], width: usize) -> String {
    let mut out = String::new();
    let end = spans.iter().map(|s| s.end).fold(0.0, f64::max);
    if end == 0.0 || width == 0 {
        return out;
    }
    let lanes = spans.iter().map(|s| s.tid + 1).max().unwrap_or(0);
    let dt = end / width as f64;
    for lane in 0..lanes {
        let _ = write!(out, "T{lane} |");
        for cell in 0..width {
            let mid = (cell as f64 + 0.5) * dt;
            let glyph = spans
                .iter()
                .rev()
                .find(|s| s.tid == lane && s.begin <= mid && mid < s.end)
                .map_or('.', |s| {
                    SpanKind::from_name(s.name).map_or('?', SpanKind::glyph)
                });
            out.push(glyph);
        }
        out.push_str("|\n");
    }
    let _ = writeln!(
        out,
        "    0{:>width$}",
        format!("{end:.2}"),
        width = width - 1
    );
    out.push_str("    legend: = round  x switch  c compare  S checkpoint  r retry  f roll-forward  V vote  y copy\n");
    out
}

/// Tab-separated dump: `lane  start  end  kind  label`.
pub fn to_tsv(spans: &[SpanRecord]) -> String {
    let mut out = String::from("lane\tstart\tend\tkind\tlabel\n");
    for s in spans {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.tid,
            s.begin,
            s.end,
            s.name,
            label(s)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(lane: u32, begin: f64, end: f64, kind: SpanKind, label: &str) -> SpanRecord {
        let fields = if label.is_empty() {
            Vec::new()
        } else {
            vec![("label", vds_obs::Value::from(label.to_string()))]
        };
        SpanRecord {
            begin,
            end,
            component: "test",
            name: kind.name(),
            tid: lane,
            fields,
        }
    }

    #[test]
    fn names_round_trip() {
        for k in SpanKind::ALL {
            assert_eq!(SpanKind::from_name(k.name()), Some(k));
        }
        assert_eq!(SpanKind::from_name("bogus"), None);
    }

    #[test]
    fn ascii_render_shape() {
        let spans = [
            span(0, 0.0, 1.0, SpanKind::Round, "V1 R1"),
            span(1, 0.0, 1.0, SpanKind::Round, "V2 R1"),
        ];
        let s = render_ascii(&spans, 20);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("T0 |"));
        assert!(lines[1].starts_with("T1 |"));
        assert!(lines[0].contains("===="));
    }

    #[test]
    fn ascii_handles_empty() {
        assert_eq!(render_ascii(&[], 40), "");
    }

    #[test]
    fn tsv_dump() {
        let spans = [
            span(0, 0.0, 1.5, SpanKind::Retry, "V3 R1..R3"),
            span(0, 1.5, 1.6, SpanKind::ContextSwitch, ""),
        ];
        let tsv = to_tsv(&spans);
        assert!(tsv.contains("0\t0\t1.5\tretry\tV3 R1..R3\n"));
        assert!(tsv.ends_with("0\t1.5\t1.6\tcontext-switch\t\n"));
    }

    #[test]
    fn later_spans_overlay_earlier() {
        let spans = [
            span(0, 0.0, 2.0, SpanKind::Idle, ""),
            span(0, 0.5, 1.5, SpanKind::Round, "V1"),
        ];
        let s = render_ascii(&spans, 4);
        // cells at midpoints 0.25,0.75,1.25,1.75 -> idle, round, round, idle
        let row = s.lines().next().unwrap();
        assert!(row.contains(".==."), "row was {row}");
    }
}
