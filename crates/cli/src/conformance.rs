//! `vds conformance` — predicted-vs-measured G residuals over a journal.
//!
//! Prices every recorded round with the paper's closed forms (via
//! `vds-obs`'s [`ConformanceTracker`]) and prints the windowed residual
//! report: mean / p50 / p99 residual, the fraction of windows outside
//! the tolerance band, and the worst window with its round range. The
//! input is a journal file written by `--journal` (any backend — micro
//! duplex runs, `vds campaign` recordings, abstract runs).
//!
//! The report depends only on the journal bytes, so it is identical for
//! any worker count that produced the recording — the same determinism
//! contract the journal itself carries.
//!
//! `--alpha measured` reprices the closed forms at the α the attribution
//! ledger actually measures on the micro core (the mean over the kernel
//! suite's pairwise ledgers) instead of the journal header's parametric
//! α. The measured gain side is untouched, so the residual shift shows
//! how much model error the parametric α was responsible for.

use crate::CliError;
use vds_obs::conformance::{DEFAULT_TOLERANCE, DEFAULT_WINDOW};
use vds_obs::ConformanceTracker;

pub(crate) fn cmd_conformance(args: &[String]) -> Result<String, CliError> {
    let f = crate::args::CONFORMANCE.parse(args)?;
    if f.help {
        return Ok(crate::args::CONFORMANCE.help());
    }
    let source = f
        .positional
        .first()
        .ok_or_else(|| CliError::usage("conformance: missing journal path"))?;
    if f.positional.len() > 1 {
        return Err(CliError::usage("conformance: too many arguments"));
    }
    let window = f.window.unwrap_or(DEFAULT_WINDOW);
    let tolerance = f.tolerance.unwrap_or(DEFAULT_TOLERANCE);
    let journal = crate::read_journal_tolerant(source)?;
    if journal.header().is_none() {
        return Err(CliError::runtime(format!(
            "`{source}` has no journal header (missing or truncated?)"
        )));
    }
    let measured_alpha = match f.alpha_mode.as_deref() {
        Some("measured") => {
            let (alpha, _) =
                vds_smtsim::alpha::measured_alpha(&vds_smtsim::core::CoreConfig::default(), 2)
                    .map_err(|e| {
                        CliError::runtime(format!("conformance: --alpha measured: {e}"))
                    })?;
            Some(alpha)
        }
        _ => None,
    };
    let tracker =
        ConformanceTracker::for_journal_with_alpha(&journal, window, tolerance, measured_alpha)
            .map_err(CliError::runtime)?;
    let report = tracker.report();
    if f.json {
        let mut out = report.to_json();
        out.push('\n');
        Ok(out)
    } else {
        Ok(report.render_text())
    }
}

#[cfg(test)]
mod tests {
    use crate::{dispatch, CliError};

    fn run(args: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        dispatch(&v)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("vds-cli-conformance");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn conformance_reports_over_a_recorded_duplex_journal() {
        let p = tmp("duplex.journal.jsonl");
        let ps = p.to_str().unwrap();
        run(&["duplex", "smt-det", "24", "4", "--journal", ps]).unwrap();
        let out = run(&["conformance", ps, "--window", "4"]).unwrap();
        assert!(out.contains("conformance: scheme smt-det"), "{out}");
        assert!(out.contains("residual: mean"), "{out}");
        // the same journal, priced twice, renders byte-identically
        let again = run(&["conformance", ps, "--window", "4"]).unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn conformance_json_is_a_schema_versioned_report() {
        let p = tmp("json.journal.jsonl");
        let ps = p.to_str().unwrap();
        run(&["duplex", "smt-prob", "24", "--journal", ps]).unwrap();
        let out = run(&["conformance", ps, "--json"]).unwrap();
        assert!(
            out.starts_with("{\"schema\":\"vds.report.v1\",\"kind\":\"conformance\""),
            "{out}"
        );
        assert!(out.contains("\"scheme\":\"smt-prob\""), "{out}");
        assert!(out.contains("\"mean_abs_residual\":"), "{out}");
    }

    #[test]
    fn conformance_accepts_a_header_only_journal_as_zero_samples() {
        // a valid journal whose run recorded no rounds: header line only.
        // zero complete windows is a report, not an error (exit 0).
        let p = tmp("header-only.jsonl");
        let params = vds_core::recording::RunParams {
            scheme: vds_core::Scheme::SmtDeterministic,
            seed: 7,
            s: 10,
            rounds: 0,
        };
        let recording = vds_core::recording::Recording::Micro(params, None);
        let header = vds_obs::Journal::enabled(recording.header()).to_jsonl();
        assert_eq!(header.lines().count(), 1);
        std::fs::write(&p, &header).unwrap();
        let ps = p.to_str().unwrap();
        let out = run(&["conformance", ps]).unwrap();
        assert!(out.contains("0 windows"), "{out}");
        assert!(out.contains("no complete windows"), "{out}");
        let json = run(&["conformance", ps, "--json"]).unwrap();
        assert!(json.contains("\"windows\":0"), "{json}");
    }

    #[test]
    fn conformance_alpha_measured_reprices_the_model() {
        let p = tmp("alpha-mode.journal.jsonl");
        let ps = p.to_str().unwrap();
        run(&["duplex", "smt-det", "24", "4", "--journal", ps]).unwrap();
        let parametric = run(&["conformance", ps, "--alpha", "parametric"]).unwrap();
        assert!(parametric.contains("(parametric)"), "{parametric}");
        let measured = run(&["conformance", ps, "--alpha", "measured"]).unwrap();
        assert!(measured.contains("(measured)"), "{measured}");
        // the measured pricing is deterministic: two invocations agree
        let again = run(&["conformance", ps, "--alpha", "measured"]).unwrap();
        assert_eq!(measured, again);
        let json = run(&["conformance", ps, "--alpha", "measured", "--json"]).unwrap();
        assert!(json.contains("\"alpha_source\":\"measured\""), "{json}");
        // an invalid mode is a usage error
        let e = run(&["conformance", ps, "--alpha", "bogus"]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.msg.contains("measured|parametric"), "{}", e.msg);
    }

    #[test]
    fn conformance_rejects_headerless_and_missing_inputs() {
        let bare = tmp("no-header.jsonl");
        std::fs::write(&bare, "").unwrap();
        let bs = bare.to_str().unwrap();
        let e = run(&["conformance", bs]).unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.msg.contains("no journal header"), "{}", e.msg);
        let e = run(&["conformance", "/nonexistent/x.jsonl"]).unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.msg.contains("cannot read"), "{}", e.msg);
        assert_eq!(run(&["conformance"]).unwrap_err().code, 2);
        assert_eq!(run(&["conformance", bs, "extra"]).unwrap_err().code, 2);
        assert_eq!(
            run(&["conformance", bs, "--window", "0"]).unwrap_err().code,
            2
        );
        assert_eq!(
            run(&["conformance", bs, "--tolerance", "-1"])
                .unwrap_err()
                .code,
            2
        );
    }
}
