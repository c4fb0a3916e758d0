//! `vds campaign` — a fault campaign that writes its recordings to files.
//!
//! Runs the instrumented campaign ([`vds_bench::live::campaign_trial_for`],
//! or [`vds_bench::live::vm_campaign_trial_for`] under `--workload
//! vm:<program>`) and prints the campaign report followed by the
//! conformance and forensics reports of its journal. `--journal` writes
//! the flight-recorder journal and `--metrics` the merged registry CSV
//! plus the Chrome trace of the campaign spans. Every file is
//! byte-identical for a fixed seed at any `--workers`; `vds replay`,
//! `vds faults` and `vds conformance` read the journal afterwards.

use crate::{write_metrics, CliError, Flags};
use std::fmt::Write as _;
use vds_fault::campaign::run_campaign_journaled;
use vds_obs::log_info;

/// The component every campaign span and metric is keyed on. The metrics
/// CSV and Chrome trace bytes depend on it, and
/// `crates/bench/tests/campaign_pins.rs` pins them under this name.
const COMPONENT: &str = "serve";

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
    trials: u64,
    target_rounds: u64,
    seed: u64,
    workers: usize,
    scheme: vds_core::Scheme,
    /// `--workload vm:<program>`: run the campaign trials against the
    /// bytecode-VM seed program instead of the micro workload.
    vm_program: Option<String>,
}

impl CampaignOpts {
    fn from_flags(f: &Flags) -> Result<CampaignOpts, CliError> {
        let vm_program = match f.workload.as_deref() {
            Some(w) => {
                let name = w.strip_prefix("vm:").ok_or_else(|| {
                    CliError::usage(format!(
                        "--workload: `{w}` is not a workload (vm:<program>, e.g. vm:checksum)"
                    ))
                })?;
                if vds_vm::seed_program(name).is_none() {
                    return Err(CliError::usage(format!(
                        "--workload: unknown program `{name}` (known: {})",
                        vds_vm::SEED_PROGRAMS
                            .iter()
                            .map(|p| p.name)
                            .collect::<Vec<_>>()
                            .join(", ")
                    )));
                }
                Some(name.to_string())
            }
            None => None,
        };
        let scheme = match f.scheme.as_deref() {
            Some(name) => {
                let s = crate::parse_scheme(name)?;
                if s == vds_core::Scheme::SmtBoosted5 {
                    return Err(CliError::usage(
                        "campaign: smt-boost5 runs on the abstract backend only \
                         (micro-capable schemes: conventional, smt-det, smt-prob, \
                         smt-pred, smt-boost3)",
                    ));
                }
                s
            }
            None => vds_core::Scheme::SmtProbabilistic,
        };
        Ok(CampaignOpts {
            trials: f.trials.unwrap_or(200),
            target_rounds: f.rounds.unwrap_or(40),
            seed: f.seed.unwrap_or(1),
            workers: f
                .workers
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get())),
            scheme,
            vm_program,
        })
    }
}

fn campaign(opts: &CampaignOpts, f: &Flags) -> Result<String, CliError> {
    let started = std::time::Instant::now();
    let (base_seed, target_rounds, scheme) = (opts.seed, opts.target_rounds, opts.scheme);
    // the VM workload swaps the per-trial body and journal header; the
    // campaign plumbing (sharding, journal adoption) is identical either way
    let (report, rec) = match &opts.vm_program {
        Some(program) => {
            let header = vds_bench::live::vm_campaign_journal_header_for(
                program,
                scheme,
                opts.trials,
                base_seed,
                target_rounds,
            );
            run_campaign_journaled(
                COMPONENT,
                opts.trials,
                opts.workers,
                None,
                &header,
                |i, rec| {
                    vds_bench::live::vm_campaign_trial_for(
                        program,
                        scheme,
                        i,
                        base_seed,
                        target_rounds,
                        rec,
                    )
                },
            )
        }
        None => {
            let header = vds_bench::live::campaign_journal_header_for(
                scheme,
                opts.trials,
                base_seed,
                target_rounds,
            );
            run_campaign_journaled(
                COMPONENT,
                opts.trials,
                opts.workers,
                None,
                &header,
                |i, rec| {
                    vds_bench::live::campaign_trial_for(scheme, i, base_seed, target_rounds, rec)
                },
            )
        }
    };
    log_info!(
        "campaign",
        "campaign finished: {} trials in {:.2}s",
        report.trials,
        started.elapsed().as_secs_f64()
    );

    let workload = match &opts.vm_program {
        Some(p) => format!(", workload vm:{p}"),
        None => String::new(),
    };
    let mut out = format!(
        "vds campaign — scheme {}{workload}\n{report}",
        scheme.name()
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
        crate::write_atomic(path, rec.journal().to_jsonl().as_bytes())
            .map_err(|e| CliError::runtime(format!("cannot write `{path}`: {e}")))?;
        let _ = writeln!(
            out,
            "journal ({} rounds) written to {path} — replay with `vds replay {path}`",
            rec.journal().len()
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_opts_defaults_and_overrides() {
        let d = CampaignOpts::from_flags(&Flags::default()).unwrap();
        assert_eq!((d.trials, d.target_rounds, d.seed), (200, 40, 1));
        assert_eq!(d.scheme, vds_core::Scheme::SmtProbabilistic);
        let f = Flags {
            trials: Some(12),
            rounds: Some(25),
            seed: Some(7),
            scheme: Some("smt-det".into()),
            ..Flags::default()
        };
        let o = CampaignOpts::from_flags(&f).unwrap();
        assert_eq!((o.trials, o.target_rounds, o.seed), (12, 25, 7));
        assert_eq!(o.scheme, vds_core::Scheme::SmtDeterministic);
    }

    #[test]
    fn campaign_workload_flag_selects_a_vm_program() {
        let f = Flags {
            workload: Some("vm:matmul".into()),
            ..Flags::default()
        };
        let o = CampaignOpts::from_flags(&f).unwrap();
        assert_eq!(o.vm_program.as_deref(), Some("matmul"));
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
        let f = Flags {
            scheme: Some("smt-boost5".into()),
            ..Flags::default()
        };
        let e = CampaignOpts::from_flags(&f).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.msg.contains("abstract backend only"), "{}", e.msg);
    }

    #[test]
    fn campaign_rejects_positionals() {
        let args = vec!["extra".to_string()];
        assert!(cmd_campaign(&args).is_err());
    }
}
