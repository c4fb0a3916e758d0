//! Spec-driven argument parsing shared by every `vds` subcommand.
//!
//! Each subcommand declares a [`CommandSpec`]: its usage line, a one-line
//! summary, and the exact set of flags it accepts. Parsing, `--help`
//! rendering and error wording all come from the spec, so every command
//! reports problems the same way:
//!
//! * `` <cmd>: unknown flag `--x` (known: …; see `vds <cmd> --help`) ``
//! * `` <cmd>: `--flag` needs a value ``
//! * `` <cmd>: `--flag` takes no value ``
//!
//! Both `--flag value` and `--flag=value` spellings are accepted, flags
//! and positionals can be interleaved, and `--help` is recognised by
//! every command. A flag a command does not declare is an error — `vds
//! duplex --trials 8` does not parse silently.

use crate::{parse_num, CliError, Flags};
use std::fmt::Write as _;

/// One flag a command accepts.
pub(crate) struct FlagSpec {
    /// Flag name without the leading `--`.
    name: &'static str,
    /// Value placeholder (`"N"`, `"PATH"`, …); `None` marks a boolean.
    value: Option<&'static str>,
    /// One-line help text.
    help: &'static str,
}

const fn flag(name: &'static str, value: Option<&'static str>, help: &'static str) -> FlagSpec {
    FlagSpec { name, value, help }
}

const ROUNDS: FlagSpec = flag("rounds", Some("N"), "size knob: rounds, trials or samples");
const SEED: FlagSpec = flag("seed", Some("N"), "seed override for seeded runs");
const WORKERS: FlagSpec = flag("workers", Some("N"), "worker threads (default: all cores)");
const METRICS: FlagSpec = flag(
    "metrics",
    Some("PATH"),
    "write metrics CSV to PATH (+ the PATH.trace.json Chrome trace when recorded)",
);
const TRACE_CAPACITY: FlagSpec = flag("trace-capacity", Some("N"), "resize the bounded span ring");
const JOURNAL: FlagSpec = flag(
    "journal",
    Some("PATH"),
    "write the flight-recorder round journal (JSONL) to PATH",
);
const JSON: FlagSpec = flag("json", None, "machine-readable JSON on stdout");
const LOG_LEVEL: FlagSpec = flag(
    "log-level",
    Some("LEVEL"),
    "off|error|warn|info|debug (default info; also VDS_LOG)",
);
const OUT: FlagSpec = flag(
    "out",
    Some("PATH"),
    "write the report/export to PATH instead of the default",
);
const CHECK: FlagSpec = flag(
    "check",
    Some("PATH"),
    "compare against a baseline report; exit 1 on drift",
);
const THRESHOLD: FlagSpec = flag(
    "threshold",
    Some("FRAC"),
    "allowed relative throughput drop for --check (default 0.5, e.g. 0.15)",
);
const TRIALS: FlagSpec = flag("trials", Some("N"), "campaign trials (default 200)");
const GRID: FlagSpec = flag(
    "grid",
    Some("SPEC|FILE"),
    "inline axes (alpha=0.55,0.65;s=10,20;scheme=smt-det;q=0.01) or a TOML file",
);
const RESUME: FlagSpec = flag(
    "resume",
    Some("PATH"),
    "append completed cells to a journal at PATH; re-runs skip journaled cells",
);
const WINDOW: FlagSpec = flag(
    "window",
    Some("N"),
    "rounds per residual window (default 8)",
);
const TOLERANCE: FlagSpec = flag(
    "tolerance",
    Some("F"),
    "|residual| bound a window must stay within (default 0.25)",
);
const SCHEME: FlagSpec = flag(
    "scheme",
    Some("NAME"),
    "campaign recovery scheme (default smt-prob; smt-boost5 is abstract-only)",
);
const ALPHA_MODE: FlagSpec = flag(
    "alpha",
    Some("MODE"),
    "price the model at the measured or parametric α (measured|parametric)",
);
const WORKLOAD: FlagSpec = flag(
    "workload",
    Some("KIND"),
    "run against a bytecode-VM seed program (vm:checksum|sort|matmul|strhash)",
);
const FAULT: FlagSpec = flag(
    "fault",
    Some("SPEC"),
    "VM fault site vm:reg:<i>:<b> | vm:pc:<b> | vm:lit:<i>:<b> | vm:mem:<a>:<b>, optional @v1/@v2 victim suffix",
);

/// A subcommand's argument contract.
pub(crate) struct CommandSpec {
    /// Subcommand name as typed, e.g. `"duplex"`.
    name: &'static str,
    /// Usage line, e.g. `"vds duplex <scheme> [rounds] [at]"`.
    usage: &'static str,
    /// One-line summary for `--help`.
    about: &'static str,
    /// Every flag this command accepts.
    flags: &'static [FlagSpec],
}

pub(crate) const ALPHA: CommandSpec = CommandSpec {
    name: "alpha",
    usage: "vds alpha [rounds|program.s]",
    about: "per-cycle α-attribution ledger over the kernel suite (or one program)",
    flags: &[ROUNDS, WORKERS, METRICS, JSON, LOG_LEVEL],
};

const DUPLEX_FLAGS: &[FlagSpec] = &[
    ROUNDS,
    SEED,
    TRACE_CAPACITY,
    METRICS,
    JOURNAL,
    JSON,
    LOG_LEVEL,
];

pub(crate) const DUPLEX: CommandSpec = CommandSpec {
    name: "duplex",
    usage: "vds duplex <scheme> [rounds] [fault-round]",
    about: "run a micro VDS, optionally injecting a fault",
    flags: &[
        ROUNDS,
        SEED,
        TRACE_CAPACITY,
        METRICS,
        JOURNAL,
        JSON,
        LOG_LEVEL,
        WORKLOAD,
        FAULT,
    ],
};

pub(crate) const VM: CommandSpec = CommandSpec {
    name: "vm",
    usage: "vds vm <asm|run|duplex> <program> [rounds] [fault-round]",
    about: "assemble, run or duplex a bytecode-VM seed program",
    flags: &[
        ROUNDS,
        SEED,
        FAULT,
        SCHEME,
        TRACE_CAPACITY,
        METRICS,
        JOURNAL,
        JSON,
        LOG_LEVEL,
    ],
};

pub(crate) const STATS: CommandSpec = CommandSpec {
    name: "stats",
    usage: "vds stats <scheme> [rounds] [fault-round]",
    about: "run a micro VDS and print its metrics",
    flags: DUPLEX_FLAGS,
};

pub(crate) const REPORT: CommandSpec = CommandSpec {
    name: "report",
    usage: "vds report <scheme> [rounds] [fault-round]",
    about: "run a micro VDS and print folded span stacks",
    flags: DUPLEX_FLAGS,
};

pub(crate) const EXPERIMENT: CommandSpec = CommandSpec {
    name: "experiment",
    usage: "vds experiment <e1..e18|all>",
    about: "regenerate a paper artefact",
    flags: &[ROUNDS, SEED, WORKERS, METRICS, LOG_LEVEL],
};

pub(crate) const BENCH: CommandSpec = CommandSpec {
    name: "bench",
    usage: "vds bench [--out PATH] [--check BASELINE.json [--threshold FRAC]]",
    about: "run the pinned perf suite (BENCH_<n>.json)",
    flags: &[
        ROUNDS, SEED, WORKERS, OUT, CHECK, THRESHOLD, JSON, LOG_LEVEL,
    ],
};

pub(crate) const SWEEP: CommandSpec = CommandSpec {
    name: "sweep",
    usage: "vds sweep --grid SPEC|FILE",
    about: "deterministic parallel parameter sweep over the VDS grid",
    flags: &[
        GRID, RESUME, ROUNDS, SEED, WORKERS, OUT, METRICS, JSON, LOG_LEVEL, WORKLOAD,
    ],
};

pub(crate) const CAMPAIGN: CommandSpec = CommandSpec {
    name: "campaign",
    usage: "vds campaign [--trials N] [--scheme NAME] [--journal PATH] [--metrics PATH]",
    about: "run a fault campaign and write its journal, metrics and Chrome trace files",
    flags: &[
        TRIALS, ROUNDS, SEED, WORKERS, SCHEME, METRICS, JOURNAL, LOG_LEVEL, WORKLOAD,
    ],
};

pub(crate) const CONFORMANCE: CommandSpec = CommandSpec {
    name: "conformance",
    usage: "vds conformance <journal> [--window N] [--tolerance F] [--json]",
    about: "predicted-vs-measured G residuals over a recorded journal",
    flags: &[WINDOW, TOLERANCE, ALPHA_MODE, JSON, LOG_LEVEL],
};

pub(crate) const FAULTS: CommandSpec = CommandSpec {
    name: "faults",
    usage: "vds faults <journal> [--json]",
    about: "per-fault lifecycle forensics over a recorded journal",
    flags: &[JSON, LOG_LEVEL],
};

pub(crate) const REPLAY: CommandSpec = CommandSpec {
    name: "replay",
    usage: "vds replay <journal>",
    about: "re-execute a recorded run, assert digest-for-digest agreement",
    flags: &[WORKERS, LOG_LEVEL],
};

pub(crate) const AUDIT: CommandSpec = CommandSpec {
    name: "audit",
    usage: "vds audit diff <a> <b>",
    about: "first divergent round between two journals",
    flags: &[LOG_LEVEL],
};

impl CommandSpec {
    /// Parse `args` against this spec. Positionals pass through in order
    /// (the historical positional forms keep working); `--help` sets
    /// [`Flags::help`] instead of failing.
    pub(crate) fn parse(&self, args: &[String]) -> Result<Flags, CliError> {
        let mut f = Flags::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(rest) = a.strip_prefix("--") else {
                f.positional.push(a.clone());
                continue;
            };
            let (name, inline) = match rest.split_once('=') {
                Some((n, v)) => (n, Some(v.to_string())),
                None => (rest, None),
            };
            if name == "help" {
                f.help = true;
                continue;
            }
            let Some(spec) = self.flags.iter().find(|s| s.name == name) else {
                return Err(CliError::usage(format!(
                    "{}: unknown flag `--{name}` (known: {}; see `vds {} --help`)",
                    self.name,
                    self.known(),
                    self.name
                )));
            };
            if spec.value.is_none() {
                if inline.is_some() {
                    return Err(CliError::usage(format!(
                        "{}: `--{name}` takes no value",
                        self.name
                    )));
                }
                set_bool(&mut f, name);
                continue;
            }
            let value = match inline {
                Some(v) => v,
                None => it.next().cloned().ok_or_else(|| {
                    CliError::usage(format!("{}: `--{name}` needs a value", self.name))
                })?,
            };
            set_value(&mut f, name, value)?;
        }
        Ok(f)
    }

    /// The command's `--help` text.
    pub(crate) fn help(&self) -> String {
        let mut out = format!(
            "vds {} — {}\n\nUSAGE:\n    {}\n",
            self.name, self.about, self.usage
        );
        if !self.flags.is_empty() {
            out.push_str("\nFLAGS (`--flag value` or `--flag=value`):\n");
            for s in self.flags {
                let head = match s.value {
                    Some(v) => format!("--{} {v}", s.name),
                    None => format!("--{}", s.name),
                };
                let _ = writeln!(out, "    {head:<22} {}", s.help);
            }
        }
        out
    }

    fn known(&self) -> String {
        self.flags
            .iter()
            .map(|s| format!("--{}", s.name))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

fn set_bool(f: &mut Flags, name: &str) {
    match name {
        "json" => f.json = true,
        _ => unreachable!("boolean flag `--{name}` missing from set_bool"),
    }
}

fn set_value(f: &mut Flags, name: &str, value: String) -> Result<(), CliError> {
    match name {
        "rounds" => f.rounds = Some(parse_num(&value, "--rounds")?),
        "seed" => f.seed = Some(parse_num(&value, "--seed")?),
        "workers" => f.workers = Some(parse_num(&value, "--workers")?),
        "trace-capacity" => f.trace_capacity = Some(parse_num(&value, "--trace-capacity")?),
        "metrics" => f.metrics = Some(value),
        "out" => f.out = Some(value),
        "check" => f.check = Some(value),
        "threshold" => {
            let t: f64 = value
                .parse()
                .ok()
                .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                .ok_or_else(|| {
                    CliError::usage(format!(
                        "--threshold: `{value}` is not a non-negative number (e.g. 0.15)"
                    ))
                })?;
            f.threshold = Some(t);
        }
        "log-level" => vds_obs::logging::set_level_str(&value).map_err(CliError::usage)?,
        "trials" => f.trials = Some(parse_num(&value, "--trials")?),
        "journal" => f.journal = Some(value),
        "grid" => f.grid = Some(value),
        "resume" => f.resume = Some(value),
        "window" => {
            let w: usize = parse_num(&value, "--window")?;
            if w == 0 {
                return Err(CliError::usage("--window: must be at least 1"));
            }
            f.window = Some(w);
        }
        "tolerance" => {
            let t: f64 = value
                .parse()
                .ok()
                .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                .ok_or_else(|| {
                    CliError::usage(format!(
                        "--tolerance: `{value}` is not a non-negative number (e.g. 0.25)"
                    ))
                })?;
            f.tolerance = Some(t);
        }
        "scheme" => f.scheme = Some(value),
        "workload" => f.workload = Some(value),
        "fault" => f.fault = Some(value),
        "alpha" => {
            if value != "measured" && value != "parametric" {
                return Err(CliError::usage(format!(
                    "--alpha: `{value}` is not a pricing mode (measured|parametric)"
                )));
            }
            f.alpha_mode = Some(value);
        }
        _ => unreachable!("value flag `--{name}` missing from set_value"),
    }
    Ok(())
}

#[cfg(test)]
mod fuzz;

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn per_command_specs_reject_other_commands_flags() {
        // --trials belongs to campaign, not duplex
        let e = DUPLEX.parse(&v(&["smt-det", "--trials", "8"])).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(
            e.msg.contains("duplex: unknown flag `--trials`"),
            "{}",
            e.msg
        );
        assert!(e.msg.contains("see `vds duplex --help`"), "{}", e.msg);
        // --grid belongs to sweep, not bench
        let e = BENCH.parse(&v(&["--grid", "alpha=0.5"])).unwrap_err();
        assert!(e.msg.contains("bench: unknown flag `--grid`"), "{}", e.msg);
    }

    #[test]
    fn help_flag_is_universal_and_lists_the_command_flags() {
        for spec in [&ALPHA, &DUPLEX, &BENCH, &SWEEP, &CAMPAIGN, &REPLAY, &AUDIT] {
            let f = spec.parse(&v(&["--help"])).unwrap();
            assert!(f.help, "vds {}", spec.name);
            let h = spec.help();
            assert!(h.contains("USAGE:"), "{h}");
            for fl in spec.flags {
                assert!(h.contains(&format!("--{}", fl.name)), "{h}");
            }
        }
        assert!(CAMPAIGN.help().contains("--trials"), "{}", CAMPAIGN.help());
    }

    #[test]
    fn threshold_parses_fractions_and_rejects_garbage() {
        let f = BENCH.parse(&v(&["--threshold", "0.15"])).unwrap();
        assert_eq!(f.threshold, Some(0.15));
        let f = BENCH.parse(&v(&["--threshold=0.5"])).unwrap();
        assert_eq!(f.threshold, Some(0.5));
        for bad in ["nope", "-0.1", "NaN"] {
            let e = BENCH.parse(&v(&["--threshold", bad])).unwrap_err();
            assert_eq!(e.code, 2, "{bad}");
        }
    }

    #[test]
    fn error_wording_is_uniform_across_commands() {
        let e = SWEEP.parse(&v(&["--grid"])).unwrap_err();
        assert_eq!(e.msg, "sweep: `--grid` needs a value");
        let e = CAMPAIGN.parse(&v(&["--trials"])).unwrap_err();
        assert_eq!(e.msg, "campaign: `--trials` needs a value");
        let e = STATS.parse(&v(&["--json=1"])).unwrap_err();
        assert_eq!(e.msg, "stats: `--json` takes no value");
    }
}
