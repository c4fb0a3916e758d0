//! `vds faults` — per-fault lifecycle forensics over a journal.
//!
//! Reconstructs every injected fault's lifecycle from the
//! flight-recorder journal (via `vds-obs`'s [`ForensicsTracker`]) and
//! prints the forensics report: coverage (detected / injected),
//! masked and escaped counts, detection-latency quantiles in rounds
//! and sim-time, mean time-to-recover, and the escape list with each
//! escaped fault's latent round range. The input is a journal file
//! written by `--journal` (any backend).
//!
//! The report depends only on the journal bytes, so it is identical
//! for any worker count that produced the recording — the same
//! determinism contract the journal itself carries. A header-only
//! journal (a run that injected nothing and recorded no rounds) is a
//! valid zero-sample input, not an error.

use crate::CliError;
use vds_obs::ForensicsTracker;

pub(crate) fn cmd_faults(args: &[String]) -> Result<String, CliError> {
    let f = crate::args::FAULTS.parse(args)?;
    if f.help {
        return Ok(crate::args::FAULTS.help());
    }
    let source = f
        .positional
        .first()
        .ok_or_else(|| CliError::usage("faults: missing journal path"))?;
    if f.positional.len() > 1 {
        return Err(CliError::usage("faults: too many arguments"));
    }
    let journal = crate::read_journal_tolerant(source)?;
    if journal.header().is_none() {
        return Err(CliError::runtime(format!(
            "`{source}` has no journal header (missing or truncated?)"
        )));
    }
    let tracker = ForensicsTracker::for_journal(&journal).map_err(CliError::runtime)?;
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
        let dir = std::env::temp_dir().join("vds-cli-faults");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn faults_reports_over_a_recorded_duplex_journal() {
        let p = tmp("duplex.journal.jsonl");
        let ps = p.to_str().unwrap();
        run(&["duplex", "smt-det", "24", "4", "--journal", ps]).unwrap();
        let out = run(&["faults", ps]).unwrap();
        assert!(out.contains("faults: scheme smt-det, 1 injected"), "{out}");
        assert!(out.contains("coverage: 1/1 detected (100.0%)"), "{out}");
        assert!(out.contains("detection latency (rounds)"), "{out}");
        // the same journal, priced twice, renders byte-identically
        let again = run(&["faults", ps]).unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn faults_json_is_a_schema_versioned_report() {
        let p = tmp("json.journal.jsonl");
        let ps = p.to_str().unwrap();
        run(&["duplex", "smt-prob", "24", "9", "--journal", ps]).unwrap();
        let out = run(&["faults", ps, "--json"]).unwrap();
        assert!(
            out.starts_with("{\"schema\":\"vds.report.v1\",\"kind\":\"faults\""),
            "{out}"
        );
        assert!(out.contains("\"scheme\":\"smt-prob\""), "{out}");
        assert!(out.contains("\"injected\":1"), "{out}");
        assert!(out.contains("\"escapes\":["), "{out}");
    }

    #[test]
    fn faults_accepts_a_header_only_journal_as_zero_samples() {
        // a valid journal whose run recorded no rounds: header line only.
        // this is a zero-sample report, not an error (exit 0).
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
        let out = run(&["faults", ps]).unwrap();
        assert!(out.contains("0 injected"), "{out}");
        assert!(out.contains("no faults injected (0 samples)"), "{out}");
        let json = run(&["faults", ps, "--json"]).unwrap();
        assert!(json.contains("\"injected\":0"), "{json}");
        assert!(json.contains("\"coverage\":1"), "{json}");
    }

    #[test]
    fn faults_rejects_headerless_and_missing_inputs() {
        let bare = tmp("no-header.jsonl");
        std::fs::write(&bare, "").unwrap();
        let bs = bare.to_str().unwrap();
        let e = run(&["faults", bs]).unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.msg.contains("no journal header"), "{}", e.msg);
        let e = run(&["faults", "/nonexistent/x.jsonl"]).unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.msg.contains("cannot read"), "{}", e.msg);
        assert_eq!(run(&["faults"]).unwrap_err().code, 2);
        assert_eq!(run(&["faults", bs, "extra"]).unwrap_err().code, 2);
    }
}
