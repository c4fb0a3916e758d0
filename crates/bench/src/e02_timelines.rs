//! E2 — Figure 1: execution models of a VDS on a conventional and on a
//! multithreaded processor, as recorded timelines.
//!
//! The engine records every round, context switch, comparison, retry and
//! roll-forward span; the ASCII Gantt rendering reproduces the figure,
//! and the TSV block carries the raw spans for external plotting.

use crate::Report;
use std::fmt::Write as _;
use vds_analytic::Params;
use vds_core::abstract_vds::{run_with_recorder, AbstractConfig};
use vds_core::{FaultModel, Scheme, Victim};
use vds_desim::trace::{render_ascii, to_tsv};
use vds_obs::Recorder;

/// Produce both timelines with a fault at round `fault_round`.
pub fn report(fault_round: u32, rounds: u64, width: usize) -> Report {
    let params = Params::paper_default();
    let fm = FaultModel::OneShot {
        round: fault_round,
        victim: Victim::V2,
    };
    let mut text = String::new();
    let mut data = Vec::new();
    let mut metrics = vds_obs::Registry::new();
    let mut spans = vds_obs::SpanSet::default();
    for (name, scheme) in [
        ("conventional (Figure 1a)", Scheme::Conventional),
        (
            "multithreaded, probabilistic roll-forward (Figure 1b)",
            Scheme::SmtProbabilistic,
        ),
    ] {
        let mut cfg = AbstractConfig::new(params, scheme);
        cfg.record_timeline = true;
        let (r, rec) = run_with_recorder(&cfg, fm, rounds, 1, Recorder::new());
        let (reg, sp) = rec.into_parts();
        metrics.merge(&reg.prefixed(scheme.name()));
        spans.extend_from(&sp);
        let tl = r.timeline.expect("timeline recorded");
        let _ = writeln!(
            text,
            "{name}: total={:.2}, committed={} rounds, fault detected once={}",
            r.total_time,
            r.committed_rounds,
            r.detections == 1
        );
        let _ = writeln!(text, "{}", render_ascii(&tl, width));
        data.push((format!("timeline_{}.tsv", scheme.name()), to_tsv(&tl)));
    }
    Report {
        id: "E2",
        title: "Figure 1 — execution models with recovery",
        text,
        data,
        metrics,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timelines_show_both_architectures() {
        let r = report(4, 10, 100);
        assert!(r.text.contains("Figure 1a"));
        assert!(r.text.contains("Figure 1b"));
        // conventional rendering has one lane, SMT two
        assert_eq!(r.data.len(), 2);
        let conv = &r.data[0].1;
        let smt = &r.data[1].1;
        assert!(conv.contains("context-switch"));
        assert!(smt.contains("roll-forward"));
        assert!(!conv.contains("roll-forward"));
    }

    #[test]
    fn smt_timeline_is_shorter() {
        let r = report(4, 12, 80);
        // extract totals from the text: conventional line comes first
        let totals: Vec<f64> = r
            .text
            .lines()
            .filter_map(|l| {
                l.split("total=")
                    .nth(1)?
                    .split(',')
                    .next()?
                    .parse::<f64>()
                    .ok()
            })
            .collect();
        assert_eq!(totals.len(), 2);
        assert!(
            totals[1] < totals[0],
            "SMT {} vs conv {}",
            totals[1],
            totals[0]
        );
    }
}
