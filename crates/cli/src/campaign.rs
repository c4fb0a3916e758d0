//! `vds campaign` — a fault campaign that writes its recordings to files.
//!
//! Runs the instrumented campaign ([`vds_core::recording::campaign_trial_for`],
//! or [`vds_core::recording::vm_campaign_trial_for`] under `--workload
//! vm:<program>`) and prints the campaign report followed by the
//! conformance and forensics reports of its journal. `--journal` writes
//! the flight-recorder journal and `--metrics` the merged registry CSV
//! plus the Chrome trace of the campaign spans. Every file is
//! byte-identical for a fixed seed at any `--workers`; `vds replay`,
//! `vds faults` and `vds conformance` read the journal afterwards.

use crate::{write_metrics, CliError, Flags};
use vds_core::recording::{Outcome, Recording};
use vds_obs::log_info;

pub(crate) fn cmd_campaign(args: &[String]) -> Result<String, CliError> {
    let f = crate::args::CAMPAIGN.parse(args)?;
    if f.help {
        return Ok(crate::args::CAMPAIGN.help());
    }
    if !f.positional.is_empty() {
        return Err(CliError::usage("campaign: unexpected positional arguments"));
    }
    let opts = CampaignOpts::from_flags(&f)?;
    campaign(&opts, &f)
}

/// Resolved `vds campaign` options.
#[derive(Debug)]
struct CampaignOpts {
    recording: Recording,
    /// `--workload vm:<program>`: the seed program the trials run instead
    /// of the micro workload.
    vm_program: Option<&'static str>,
    workers: usize,
}

impl CampaignOpts {
    fn from_flags(f: &Flags) -> Result<CampaignOpts, CliError> {
        let vm_program = match f.workload.as_deref() {
            Some(w) => Some(crate::vm_cmd::workload_program(w)?.name),
            None => None,
        };
        let scheme = match f.scheme.as_deref() {
            Some(name) => crate::parse_scheme(name)?,
            None => vds_core::Scheme::SmtProbabilistic,
        };
        let (trials, seed) = (f.trials.unwrap_or(200), f.seed.unwrap_or(1));
        let recording =
            Recording::campaign(vm_program, scheme, trials, seed, f.rounds.unwrap_or(40));
        recording
            .check()
            .map_err(|e| CliError::usage(format!("campaign: {e}")))?;
        Ok(CampaignOpts {
            recording,
            vm_program,
            workers: f
                .workers
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get())),
        })
    }
}

fn campaign(opts: &CampaignOpts, f: &Flags) -> Result<String, CliError> {
    let started = std::time::Instant::now();
    let (Outcome::Campaign(report), rec) = opts
        .recording
        .record(vds_obs::Recorder::new(), opts.workers)
    else {
        unreachable!("a campaign records a campaign report")
    };
    log_info!(
        "campaign",
        "campaign finished: {} trials in {:.2}s",
        report.trials,
        started.elapsed().as_secs_f64()
    );

    let workload = match opts.vm_program {
        Some(p) => format!(", workload vm:{p}"),
        None => String::new(),
    };
    let mut out = format!(
        "vds campaign — scheme {}{workload}\n{report}",
        opts.recording.params().scheme.name()
    );
    // price the campaign journal against the closed forms, then
    // reconstruct every fault's lifecycle from it (the registry already
    // carries the conformance.* gauges and faults.* counters)
    if let Ok(tracker) = vds_obs::ConformanceTracker::for_journal(
        rec.journal(),
        vds_obs::conformance::DEFAULT_WINDOW,
        vds_obs::conformance::DEFAULT_TOLERANCE,
    ) {
        out.push_str(&tracker.report().render_text());
    }
    if let Ok(tracker) = vds_obs::ForensicsTracker::for_journal(rec.journal()) {
        out.push_str(&tracker.report().render_text());
    }
    if let Some(path) = &f.metrics {
        out.push_str(&write_metrics(path, rec.registry(), Some(rec.spans()))?);
    }
    if let Some(path) = &f.journal {
        out.push_str(&crate::write_journal(path, rec.journal())?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_opts_defaults_and_overrides() {
        use vds_core::Scheme;
        let d = CampaignOpts::from_flags(&Flags::default()).unwrap();
        let want = Recording::campaign(None, Scheme::SmtProbabilistic, 200, 1, 40);
        assert_eq!(d.recording, want);
        let f = Flags {
            trials: Some(12),
            rounds: Some(25),
            seed: Some(7),
            scheme: Some("smt-det".into()),
            ..Flags::default()
        };
        let o = CampaignOpts::from_flags(&f).unwrap();
        let want = Recording::campaign(None, Scheme::SmtDeterministic, 12, 7, 25);
        assert_eq!(o.recording, want);
    }

    #[test]
    fn campaign_workload_flag_selects_a_vm_program() {
        let f = Flags {
            workload: Some("vm:matmul".into()),
            ..Flags::default()
        };
        let o = CampaignOpts::from_flags(&f).unwrap();
        assert_eq!(o.vm_program, Some("matmul"));
        for bad in ["micro:matmul", "vm:bogus"] {
            let f = Flags {
                workload: Some(bad.into()),
                ..Flags::default()
            };
            let e = CampaignOpts::from_flags(&f).unwrap_err();
            assert_eq!(e.code, 2, "{bad}");
        }
    }

    #[test]
    fn campaign_rejects_the_abstract_only_scheme() {
        // over either workload, as `vds replay` refuses such a header
        for workload in [None, Some("vm:sort".to_string())] {
            let f = Flags {
                scheme: Some("smt-boost5".into()),
                workload,
                ..Flags::default()
            };
            let e = CampaignOpts::from_flags(&f).unwrap_err();
            assert_eq!(e.code, 2);
            assert!(e.msg.contains("abstract backend only"), "{}", e.msg);
        }
    }

    #[test]
    fn campaign_rejects_positionals() {
        let args = vec!["extra".to_string()];
        assert!(cmd_campaign(&args).is_err());
    }
}
