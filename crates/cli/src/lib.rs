#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # vds-cli — the command-line interface
//!
//! One binary, `vds`, exposing the whole system:
//!
//! ```text
//! vds asm <file.s>                  assemble; print a summary
//! vds disasm <file.s>               assemble then disassemble (round-trip view)
//! vds run <file.s> [copies] [max]   run on the SMT core, print counters
//! vds alpha [rounds|prog.s]         per-cycle α-attribution ledger
//! vds duplex <scheme> [rounds] [fault-round]
//!                                   run a micro VDS, optionally injecting a fault
//! vds stats <scheme> [rounds] [at]  run a micro VDS and print its metrics
//! vds report <scheme> [rounds] [at] run a micro VDS, print folded span stacks
//! vds flowchart <scheme>            print a recovery flow chart as Graphviz DOT
//! vds experiment <id>               regenerate a paper artefact (e1..e18, all)
//! vds vm <asm|run|duplex> <prog>    assemble, run or duplex a bytecode-VM program
//! vds bench                         run the pinned perf suite (BENCH_<n>.json)
//! vds sweep --grid SPEC             deterministic parallel parameter sweep
//! vds campaign                      fault campaign; writes journal/metrics files
//! vds gains [alpha] [beta] [p]      print the closed-form gain summary
//! ```
//!
//! The `duplex`, `stats`, `alpha` and `experiment` commands additionally
//! accept `--rounds N`, `--seed N`, `--workers N` and `--metrics PATH`
//! flags (both `--flag value` and `--flag=value` spellings); the old
//! positional forms keep working. `--metrics` writes the run's metric
//! registry as CSV to PATH and the profiler spans as Chrome trace-event
//! JSON to `PATH.trace.json` when any were recorded — both
//! byte-identical for a fixed seed regardless of worker count.
//! `--trace-capacity N` resizes the bounded span ring; `vds stats` warns
//! when spans were dropped. `vds bench` writes the performance
//! trajectory (`--out PATH`, default the next free `BENCH_<n>.json`) and
//! `vds bench --check BASELINE.json` exits nonzero on work-counter drift
//! or a throughput regression against the committed baseline.
//!
//! `vds campaign` runs a seeded fault campaign and writes what it
//! recorded to files: `--journal` (the flight-recorder journal that
//! `vds replay`, `vds conformance` and `vds faults` read) and `--metrics`
//! (the registry CSV plus the `PATH.trace.json` Chrome trace), all
//! byte-identical for a fixed seed at any `--workers`. `vds duplex`,
//! `stats`, `report`, `vm duplex` and `bench` take `--json` for the
//! machine-readable forms of their reports; `--log-level` (or
//! `VDS_LOG`) tunes the structured JSONL logging on stderr.
//!
//! The command dispatch lives in this library crate so it is unit-testable;
//! `main.rs` only forwards `std::env::args`.

use std::fmt::Write as _;
use vds_core::recording::{Outcome, Recording, RunParams};

mod args;
mod audit;
mod campaign;
mod conformance;
mod faults;
mod sweep_cmd;
mod vm_cmd;

/// CLI error: message plus the exit code to use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable message.
    pub msg: String,
    /// Process exit code.
    pub code: i32,
}

impl CliError {
    fn usage(msg: impl Into<String>) -> Self {
        CliError {
            msg: msg.into(),
            code: 2,
        }
    }

    fn runtime(msg: impl Into<String>) -> Self {
        CliError {
            msg: msg.into(),
            code: 1,
        }
    }
}

/// Top-level usage text.
pub fn usage() -> &'static str {
    "vds — virtual duplex systems on simultaneous multithreaded processors

USAGE:
    vds asm <file.s>                    assemble and summarise
    vds disasm <file.s>                 assemble, then disassemble
    vds run <file.s> [copies] [maxcyc]  execute on the SMT core
    vds alpha [rounds|prog.s]           per-cycle α-attribution ledger (suite pairs or one program)
    vds duplex <scheme> [rounds] [at]   run a micro VDS (fault at round `at`)
    vds vm <asm|run|duplex> <program>   assemble, run or duplex a bytecode-VM seed program
                                        (checksum, sort, matmul, strhash)
    vds stats <scheme> [rounds] [at]    run a micro VDS, print its metrics
    vds report <scheme> [rounds] [at]   run a micro VDS, print folded span stacks
    vds flowchart <scheme>              recovery flow chart as DOT
    vds experiment <e1..e18|all>        regenerate a paper artefact
    vds bench                           run the pinned perf suite
    vds sweep --grid SPEC|FILE          deterministic parallel parameter sweep over the VDS grid
    vds campaign                        run a fault campaign; write its journal and metrics files
    vds replay <journal>                re-execute a recorded run, assert digest-for-digest agreement
    vds audit diff <a> <b>              first divergent round between two journals
    vds conformance <journal>           predicted-vs-measured G residuals over a journal
    vds faults <journal>                per-fault lifecycle forensics over a journal
    vds gains [alpha] [beta] [p]        closed-form gain summary
    vds <command> --help                per-command flag reference

FLAGS (alpha / duplex / stats / report / experiment / bench / campaign; `--flag v` or `--flag=v`):
    --rounds N           size knob: rounds, trials or samples
    --seed N             seed override for seeded runs
    --workers N          worker threads for campaign-style experiments
    --metrics PATH       write metrics CSV to PATH (+ the PATH.trace.json
                         Chrome trace when spans were recorded)
    --trace-capacity N   resize the bounded span ring
    --out PATH           bench: write BENCH json to PATH (default BENCH_<n>.json)
    --check PATH         bench: compare against a baseline; exit 1 on drift
    --threshold FRAC     bench: allowed relative throughput drop for --check (default 0.5)
    --json               duplex / stats / report / vm / bench: machine-readable JSON on stdout
    --log-level LEVEL    off|error|warn|info|debug (default info; also VDS_LOG)
    --trials N           campaign: trials (default 200)
    --journal PATH       duplex / stats / report / campaign: write the flight-recorder
                         round journal (JSONL) to PATH; replay it with `vds replay`
    --grid SPEC|FILE     sweep: inline axes (alpha=0.55,0.65;s=10,20;scheme=smt-det;
                         q=0.01;backend=abstract;rounds=2000;seed=1) or a TOML file
    --resume PATH        sweep: append completed cells to a journal at PATH and, when
                         it already holds rows for this grid, skip those cells
    --scheme NAME        campaign: recovery scheme (default smt-prob;
                         smt-boost5 is abstract-only)
    --workload KIND      duplex / campaign / sweep: run against a bytecode-VM seed
                         program (vm:checksum | vm:sort | vm:matmul | vm:strhash)
    --fault SPEC         vm duplex: fault site vm:reg:<i>:<b> | vm:pc:<b> |
                         vm:lit:<i>:<b> | vm:mem:<a>:<b>, optional @v1/@v2 suffix
    --window N           conformance: rounds per residual window (default 8)
    --tolerance F        conformance: |residual| bound a window must stay within
                         (default 0.25)
    --alpha MODE         conformance: price the model at the measured or the
                         parametric α (measured|parametric; default parametric)

SCHEMES: conventional, smt-det, smt-prob, smt-pred, smt-boost3, smt-boost5"
}

/// Flags shared by the run-style commands, plus the surviving positional
/// arguments in their original order.
#[derive(Debug, Default, Clone, PartialEq)]
struct Flags {
    rounds: Option<u64>,
    seed: Option<u64>,
    workers: Option<usize>,
    metrics: Option<String>,
    trace_capacity: Option<usize>,
    out: Option<String>,
    check: Option<String>,
    json: bool,
    trials: Option<u64>,
    journal: Option<String>,
    grid: Option<String>,
    resume: Option<String>,
    threshold: Option<f64>,
    window: Option<usize>,
    tolerance: Option<f64>,
    scheme: Option<String>,
    alpha_mode: Option<String>,
    workload: Option<String>,
    fault: Option<String>,
    /// `--help` was given: the command should print its flag reference.
    help: bool,
    positional: Vec<String>,
}

/// Write `bytes` to `path` atomically (temp sibling + rename), so a kill
/// mid-write — or a concurrent reader; CI tails `BENCH_<n>.json` and the
/// sweep exports — never observes a truncated file. Thin `&str`-path
/// wrapper over [`vds_obs::write_atomic`], the same path journal flushes
/// take.
pub(crate) fn write_atomic(path: &str, bytes: &[u8]) -> std::io::Result<()> {
    vds_obs::write_atomic(std::path::Path::new(path), bytes)
}

/// Write `journal` to `path`; returns a printable confirmation.
fn write_journal(path: &str, journal: &vds_obs::Journal) -> Result<String, CliError> {
    write_atomic(path, journal.to_jsonl().as_bytes())
        .map_err(|e| CliError::runtime(format!("cannot write `{path}`: {e}")))?;
    Ok(format!(
        "journal ({} rounds) written to {path} — replay with `vds replay {path}`\n",
        journal.len()
    ))
}

/// Write the registry as CSV to `path` and, when spans were recorded,
/// their Chrome trace next to it; returns a printable confirmation.
fn write_metrics(
    path: &str,
    registry: &vds_obs::Registry,
    spans: Option<&vds_obs::SpanSet>,
) -> Result<String, CliError> {
    write_atomic(path, registry.to_csv().as_bytes())
        .map_err(|e| CliError::runtime(format!("cannot write `{path}`: {e}")))?;
    let mut note = format!("metrics CSV written to {path}\n");
    if let Some(s) = spans.filter(|s| !s.is_empty()) {
        let spath = format!("{path}.trace.json");
        write_atomic(&spath, s.to_chrome_json().as_bytes())
            .map_err(|e| CliError::runtime(format!("cannot write `{spath}`: {e}")))?;
        let _ = writeln!(
            note,
            "Chrome trace ({} spans) written to {spath} — open in ui.perfetto.dev",
            s.len()
        );
    }
    Ok(note)
}

/// The `[rounds] [fault-round]` positionals of `duplex`, `stats`,
/// `report` and `vm duplex`: the target rounds (from `--rounds` when
/// given, which leaves its slot to the fault round, else 30) and the
/// round to inject the fault at, if any.
fn rounds_and_fault_round<'a>(
    mut rest: impl Iterator<Item = &'a String>,
    f: &Flags,
    what: &str,
) -> Result<(u64, Option<u32>), CliError> {
    let rounds = match f.rounds {
        Some(n) => n,
        None => rest
            .next()
            .map_or(Ok(30), |s| parse_num(s, "round count"))?,
    };
    let at = rest
        .next()
        .map(|s| parse_num(s, "fault round"))
        .transpose()?;
    if rest.next().is_some() {
        return Err(CliError::usage(format!("{what}: too many arguments")));
    }
    Ok((rounds, at))
}

/// Run and render a single-run recording (`duplex`, `stats`, `report`,
/// `vm duplex`) once [`Recording::check`] passes it. The text is the run
/// report and the oracle verdict, a VM run's program and scheme first;
/// `stats` appends the metrics and `report` the folded span stacks.
/// Under `--json` stdout is the `vds.report.v1` envelope of `kind`
/// instead, and the "written to" notes go to the log.
///
/// The run is journaled into a live recorder, its span ring sized by
/// `--trace-capacity`, when `mode` or any flag needs what it records,
/// else it runs on the zero-sized `NoopRecorder`. A recorded run's
/// journal is priced and written to `--journal`, and its metrics and
/// trace to `--metrics`.
fn run_and_render(
    recording: &Recording,
    kind: &str,
    mode: DuplexMode,
    f: &Flags,
) -> Result<String, CliError> {
    recording.check().map_err(CliError::usage)?;
    let program = match recording {
        Recording::Vm(_, program, _) => Some(program.as_str()),
        _ => None,
    };
    let mut out = match program {
        Some(program) => format!("{program} on {}\n", recording.params().scheme.name()),
        None => String::new(),
    };
    let record = mode != DuplexMode::Plain
        || f.metrics.is_some()
        || f.trace_capacity.is_some()
        || f.journal.is_some()
        || f.json;
    let (r, correct, rec) = if record {
        let capacity = f.trace_capacity.unwrap_or(vds_obs::DEFAULT_SPAN_CAPACITY);
        match recording.record(vds_obs::Recorder::with_span_capacity(capacity), 1) {
            (Outcome::Run(r, correct), rec) => (r, correct, Some(rec)),
            (Outcome::Campaign(_), _) => unreachable!("a single run records a run report"),
        }
    } else {
        let (r, correct, _) = recording.run_single(vds_obs::NoopRecorder);
        (r, correct, None)
    };
    let verdict = if correct { "correct" } else { "wrong" };
    let _ = writeln!(
        out,
        "{r}\noutput {} versus the oracle",
        verdict.to_uppercase()
    );
    let Some(mut rec) = rec else {
        return Ok(out);
    };
    rec.export_journal_metrics();
    let journal_note = f
        .journal
        .as_deref()
        .map(|path| write_journal(path, rec.journal()))
        .transpose()?;
    let journal_summary = rec.journal().summary_json();
    let (registry, spans) = rec.into_parts();
    if mode == DuplexMode::Stats && spans.dropped() > 0 {
        // overflow reporting goes through the structured-logging facade
        // (stderr JSONL), keeping stdout clean for --json
        vds_obs::logging::log_with(
            vds_obs::Level::Warn,
            "cli",
            "span records dropped — raise --trace-capacity",
            &[
                ("dropped", spans.dropped().into()),
                ("capacity", (spans.capacity() as u64).into()),
            ],
        );
    }
    if f.json {
        // one serializer with every other `--json` report
        let mut json = vds_obs::JsonObj::report(kind);
        if let Some(program) = program {
            json = json.str("program", program);
        }
        out = json
            .str("verdict", verdict)
            .raw("journal", &journal_summary)
            .raw("metrics", &registry.to_json_object())
            .finish();
        out.push('\n');
    } else if mode == DuplexMode::Stats {
        let _ = write!(out, "\n---- metrics ----\n{registry}");
    } else if mode == DuplexMode::Report {
        let _ = write!(
            out,
            "\n---- folded span stacks (self sim-time; feed to inferno/flamegraph.pl) ----\n{}",
            spans.to_folded()
        );
    }
    let metrics_note = f
        .metrics
        .as_deref()
        .map(|path| write_metrics(path, &registry, Some(&spans)))
        .transpose()?;
    for note in [metrics_note, journal_note].into_iter().flatten() {
        if f.json {
            vds_obs::log_info!("cli", "{}", note.trim_end());
        } else {
            out.push_str(&note);
        }
    }
    Ok(out)
}

fn parse_scheme(s: &str) -> Result<vds_core::Scheme, CliError> {
    vds_core::Scheme::from_name(s)
        .ok_or_else(|| CliError::usage(format!("unknown scheme `{s}` (see `vds` for the list)")))
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, CliError> {
    s.parse()
        .map_err(|_| CliError::usage(format!("bad {what}: `{s}`")))
}

fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path)
        .map_err(|e| CliError::runtime(format!("cannot read `{path}`: {e}")))
}

/// Read the journal file at `path` for the read-side consumers
/// (`replay`, `faults`, `conformance`, `audit diff`) a line at a time:
/// the file's text is never held whole next to the decoded entries.
/// Errors and warnings are those of reading the whole text first. A
/// torn final line, the leftover of a kill mid-append, is logged and
/// dropped, the same truncate-and-warn recovery the sweep resume
/// journal applies; corruption anywhere else fails with a one-line
/// error naming `path`.
fn read_journal_tolerant(path: &str) -> Result<vds_obs::Journal, CliError> {
    let (journal, warn) = vds_obs::Journal::read_jsonl_tolerant(path)
        .map_err(|e| CliError::runtime(format!("cannot read `{path}`: {e}")))?
        .map_err(|e| CliError::runtime(format!("cannot parse `{path}`: {e}")))?;
    if let Some(w) = warn {
        vds_obs::log_warn!("journal", "{path}: {w}");
    }
    Ok(journal)
}

/// Run one command; returns the text to print.
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    let cmd = args.first().map(String::as_str).unwrap_or("");
    match cmd {
        "asm" => cmd_asm(
            args.get(1)
                .ok_or_else(|| CliError::usage("asm: missing file"))?,
        ),
        "disasm" => cmd_disasm(
            args.get(1)
                .ok_or_else(|| CliError::usage("disasm: missing file"))?,
        ),
        "run" => cmd_run(
            args.get(1)
                .ok_or_else(|| CliError::usage("run: missing file"))?,
            args.get(2).map(String::as_str),
            args.get(3).map(String::as_str),
        ),
        "alpha" => cmd_alpha(&args[1..]),
        "duplex" => cmd_duplex(&args[1..], DuplexMode::Plain),
        "stats" => cmd_duplex(&args[1..], DuplexMode::Stats),
        "report" => cmd_duplex(&args[1..], DuplexMode::Report),
        "bench" => cmd_bench(&args[1..]),
        "sweep" => sweep_cmd::cmd_sweep(&args[1..]),
        "campaign" => campaign::cmd_campaign(&args[1..]),
        "vm" => vm_cmd::cmd_vm(&args[1..]),
        "replay" => audit::cmd_replay(&args[1..]),
        "audit" => audit::cmd_audit(&args[1..]),
        "conformance" => conformance::cmd_conformance(&args[1..]),
        "faults" => faults::cmd_faults(&args[1..]),
        "flowchart" => {
            let scheme = parse_scheme(
                args.get(1)
                    .ok_or_else(|| CliError::usage("flowchart: missing scheme"))?,
            )?;
            Ok(vds_core::flowchart::for_scheme(scheme).to_dot())
        }
        "experiment" => cmd_experiment(&args[1..]),
        "gains" => cmd_gains(
            args.get(1).map(String::as_str),
            args.get(2).map(String::as_str),
            args.get(3).map(String::as_str),
        ),
        "" | "help" | "--help" | "-h" => Ok(usage().to_string()),
        other => Err(CliError::usage(format!(
            "unknown command `{other}`\n\n{}",
            usage()
        ))),
    }
}

fn cmd_asm(path: &str) -> Result<String, CliError> {
    let src = read_file(path)?;
    let prog = vds_smtsim::asm::assemble(&src).map_err(|e| CliError::runtime(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{path}: {} instructions, {} data words, entry {}",
        prog.len(),
        prog.data.len(),
        prog.entry
    );
    for (name, sym) in &prog.symbols {
        let _ = writeln!(out, "  {name}: {sym:?}");
    }
    let _ = writeln!(out, "text digest: {:016x}", prog.text_digest());
    Ok(out)
}

fn cmd_disasm(path: &str) -> Result<String, CliError> {
    let src = read_file(path)?;
    let prog = vds_smtsim::asm::assemble(&src).map_err(|e| CliError::runtime(e.to_string()))?;
    Ok(vds_smtsim::disasm::disassemble(&prog))
}

fn cmd_run(path: &str, copies: Option<&str>, maxcyc: Option<&str>) -> Result<String, CliError> {
    use vds_smtsim::core::{Core, CoreConfig, RunOutcome, ThreadId, ThreadState};
    let src = read_file(path)?;
    let prog = vds_smtsim::asm::assemble(&src).map_err(|e| CliError::runtime(e.to_string()))?;
    let copies: usize = copies.map_or(Ok(1), |s| parse_num(s, "copy count"))?;
    let maxcyc: u64 = maxcyc.map_or(Ok(10_000_000), |s| parse_num(s, "cycle limit"))?;
    if !(1..=8).contains(&copies) {
        return Err(CliError::usage("copies must be 1..=8"));
    }
    let cfg = CoreConfig {
        max_threads: copies,
        ..CoreConfig::default()
    };
    let mut core = Core::new(cfg);
    let dmem = (prog.data.len() + 1024).max(4096);
    let tids: Vec<ThreadId> = (0..copies).map(|_| core.add_thread(&prog, dmem)).collect();
    loop {
        match core.run_until_all_blocked(maxcyc) {
            RunOutcome::AllYielded => {
                for &t in &tids {
                    if core.thread(t).state == ThreadState::Yielded {
                        core.resume(t);
                    }
                }
            }
            RunOutcome::AllHalted => break,
            RunOutcome::Trapped(tid, trap) => {
                return Err(CliError::runtime(format!(
                    "thread {tid:?} trapped: {trap:?} after {} cycles",
                    core.cycles()
                )))
            }
            RunOutcome::CycleBudgetExhausted => {
                return Err(CliError::runtime(format!("cycle limit {maxcyc} exhausted")))
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "completed in {} cycles", core.cycles());
    for &t in &tids {
        let c = core.thread(t).counters;
        let _ = writeln!(out, "  thread {}: {}", t.0, c);
    }
    let _ = writeln!(
        out,
        "  I$ hit rate {:.3}, D$ hit rate {:.3}",
        core.icache_stats().hit_rate(),
        core.dcache_stats().hit_rate()
    );
    Ok(out)
}

/// `vds alpha` — the per-cycle α-attribution ledger. With a numeric
/// positional (or `--rounds`), every unordered kernel-suite pair is
/// measured; with a `.s` positional the program is co-run against
/// itself. The ledger is computed once on one thread regardless of
/// `--workers`, so the report bytes are identical for any worker count.
fn cmd_alpha(args: &[String]) -> Result<String, CliError> {
    use vds_smtsim::core::CoreConfig;
    let f = args::ALPHA.parse(args)?;
    if f.help {
        return Ok(args::ALPHA.help());
    }
    if f.positional.len() > 1 {
        return Err(CliError::usage("alpha: too many arguments"));
    }
    let cfg = CoreConfig::default();
    let report = match f.positional.first().filter(|p| p.ends_with(".s")) {
        Some(path) => {
            let src = read_file(path)?;
            let prog =
                vds_smtsim::asm::assemble(&src).map_err(|e| CliError::runtime(e.to_string()))?;
            let dmem = (prog.data.len() + 1024).max(4096);
            let name = std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("program");
            let ledger = vds_smtsim::alpha::measure_ledger_programs(
                &cfg,
                name,
                (&prog, dmem),
                name,
                (&prog, dmem),
            )
            .map_err(|e| CliError::runtime(format!("alpha: {e}")))?;
            vds_obs::AlphaReport {
                pairs: vec![ledger],
            }
        }
        None => {
            let rounds: u32 = match (f.rounds, f.positional.first()) {
                (Some(n), _) => {
                    u32::try_from(n).map_err(|_| CliError::usage("--rounds too large"))?
                }
                (None, Some(s)) => parse_num(s, "round count")?,
                (None, None) => 2,
            };
            vds_smtsim::alpha::ledger_matrix(&cfg, &vds_smtsim::kernels::suite(rounds))
                .map_err(|e| CliError::runtime(format!("alpha: {e}")))?
        }
    };
    let mut out = if f.json {
        let mut j = report.to_json();
        j.push('\n');
        j
    } else {
        report.render_text()
    };
    if let Some(path) = &f.metrics {
        let mut reg = vds_obs::Registry::new();
        report.export_metrics(&mut reg);
        let note = write_metrics(path, &reg, None)?;
        if f.json {
            vds_obs::log_info!("cli", "{}", note.trim_end());
        } else {
            out.push_str(&note);
        }
    }
    Ok(out)
}

/// The three faces of a recorded micro-VDS run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DuplexMode {
    /// `vds duplex` — report + oracle verdict only.
    Plain,
    /// `vds stats` — the same run with its metrics printed.
    Stats,
    /// `vds report` — the same run with folded span stacks printed.
    Report,
}

/// Backs `vds duplex` (report + oracle verdict), `vds stats` (the same
/// run with the metric registry printed) and `vds report`
/// (the same run with folded profiler stacks printed).
fn cmd_duplex(args: &[String], mode: DuplexMode) -> Result<String, CliError> {
    use vds_core::micro_vds::MicroFault;
    let (spec, what) = match mode {
        DuplexMode::Plain => (&args::DUPLEX, "duplex"),
        DuplexMode::Stats => (&args::STATS, "stats"),
        DuplexMode::Report => (&args::REPORT, "report"),
    };
    let f = spec.parse(args)?;
    if f.help {
        return Ok(spec.help());
    }
    // `--workload vm:<prog>` swaps the micro workload for a bytecode-VM
    // seed program; the positional grammar is unchanged
    if let Some(w) = &f.workload {
        return vm_cmd::duplex_via_workload(&f, w);
    }
    let scheme = parse_scheme(
        f.positional
            .first()
            .ok_or_else(|| CliError::usage(format!("{what}: missing scheme")))?,
    )?;
    let (rounds, at) = rounds_and_fault_round(f.positional.iter().skip(1), &f, what)?;
    let fault = at.map(|at_round| MicroFault {
        at_round,
        victim: vds_core::Victim::V2,
        kind: MicroFault::CANONICAL_KIND,
    });
    let params = RunParams {
        scheme,
        seed: f.seed.unwrap_or(vds_core::DEFAULT_SEED),
        s: 10,
        rounds,
    };
    run_and_render(&Recording::Micro(params, fault), what, mode, &f)
}

fn cmd_experiment(args: &[String]) -> Result<String, CliError> {
    use vds_bench::registry::{find, registry, Params};
    let f = args::EXPERIMENT.parse(args)?;
    if f.help {
        return Ok(args::EXPERIMENT.help());
    }
    let id = f
        .positional
        .first()
        .ok_or_else(|| CliError::usage("experiment: missing id (e1..e18|all)"))?;
    if f.positional.len() > 1 {
        return Err(CliError::usage("experiment: too many arguments"));
    }
    let params = Params {
        rounds: f.rounds,
        seed: f.seed,
        workers: f
            .workers
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get())),
    };
    let selected: Vec<&dyn vds_bench::registry::Experiment> = if id == "all" {
        registry().to_vec()
    } else {
        vec![find(id).ok_or_else(|| {
            CliError::usage(format!("unknown experiment `{id}` (e1..e18 or all)"))
        })?]
    };
    let mut out = String::new();
    let mut merged = vds_obs::Registry::new();
    let mut spans = vds_obs::SpanSet::default();
    for exp in &selected {
        let r = exp.run(&params);
        let _ = write!(out, "{r}");
        merged.merge(&r.metrics.prefixed(&exp.id().to_ascii_lowercase()));
        spans.extend_from(&r.spans);
    }
    if let Some(path) = &f.metrics {
        out.push_str(&write_metrics(path, &merged, Some(&spans))?);
    }
    Ok(out)
}

/// `BENCH_<n>.json` with n = (highest existing index) + 1 — the default
/// `vds bench` output path, so successive runs always append to the end
/// of the perf trajectory. Filling the first gap instead would renumber
/// history: with BENCH_1 and BENCH_3 present, a gap-filling default
/// would write a fresh run as BENCH_2 and corrupt the trajectory's
/// time order.
fn next_bench_path() -> String {
    next_bench_path_in(std::path::Path::new("."))
}

fn next_bench_path_in(dir: &std::path::Path) -> String {
    let max = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            name.strip_prefix("BENCH_")?
                .strip_suffix(".json")?
                .parse::<u32>()
                .ok()
        })
        .max()
        .unwrap_or(0);
    format!("BENCH_{}.json", max + 1)
}

/// `vds bench` — run the pinned perf suite, print the table, write the
/// `BENCH_<n>.json` trajectory point and/or check against a baseline.
fn cmd_bench(args: &[String]) -> Result<String, CliError> {
    use vds_bench::perf::{self, BenchReport};
    let f = args::BENCH.parse(args)?;
    if f.help {
        return Ok(args::BENCH.help());
    }
    if !f.positional.is_empty() {
        return Err(CliError::usage("bench: unexpected positional arguments"));
    }
    let threshold = f.threshold.unwrap_or(perf::DEFAULT_REGRESSION_THRESHOLD);
    let workers = f
        .workers
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()));
    let report = perf::run_suite_with(workers, f.seed, f.rounds);
    let json = report.to_json();
    // `--json` prints exactly the BENCH_<n>.json bytes and writes them only
    // to `--out`; the table form also writes a trajectory point to the
    // next free BENCH_<n>.json slot unless `--check` alone was asked for
    let (mut out, out_path) = if f.json {
        (json.clone(), f.out.clone())
    } else {
        let mut table = format!(
            "vds bench — pinned perf suite, schema v{}\n{:<5} {:>10} {:>11} {:>12} {:>10}\n",
            report.schema_version, "id", "sim_rounds", "host_ms", "work_units", "work/ms"
        );
        for e in &report.experiments {
            let _ = writeln!(
                table,
                "{:<5} {:>10} {:>11.3} {:>12} {:>10.1}",
                e.id,
                e.sim_rounds,
                e.host_ms,
                e.work_units,
                e.work_per_ms()
            );
        }
        let path = match (&f.out, &f.check) {
            (Some(p), _) => Some(p.clone()),
            (None, Some(_)) => None,
            (None, None) => Some(next_bench_path()),
        };
        (table, path)
    };
    if let Some(p) = &out_path {
        write_atomic(p, json.as_bytes())
            .map_err(|e| CliError::runtime(format!("cannot write `{p}`: {e}")))?;
        if !f.json {
            let _ = writeln!(out, "bench report written to {p}");
        }
    }
    if let Some(base_path) = &f.check {
        let base = BenchReport::from_json(&read_file(base_path)?)
            .map_err(|e| CliError::runtime(format!("cannot parse `{base_path}`: {e}")))?;
        let issues = perf::check(&report, &base, threshold);
        if !issues.is_empty() {
            // the failure report follows the table, or stands alone
            // under `--json`
            let mut msg = if f.json { String::new() } else { out };
            let _ = writeln!(msg, "bench check FAILED against {base_path}:");
            for issue in &issues {
                let _ = writeln!(msg, "  - {issue}");
            }
            return Err(CliError::runtime(msg));
        }
        if !f.json {
            let _ = writeln!(out, "bench check OK against {base_path}");
        }
    }
    Ok(out)
}

fn cmd_gains(alpha: Option<&str>, beta: Option<&str>, p: Option<&str>) -> Result<String, CliError> {
    use vds_analytic::{predictive, rollforward, timing, Params};
    let alpha: f64 = alpha.map_or(Ok(0.65), |s| parse_num(s, "alpha"))?;
    let beta: f64 = beta.map_or(Ok(0.1), |s| parse_num(s, "beta"))?;
    let p: f64 = p.map_or(Ok(0.5), |s| parse_num(s, "p"))?;
    if !(0.5..=1.0).contains(&alpha) || !(0.0..=1.0).contains(&beta) || !(0.0..=1.0).contains(&p) {
        return Err(CliError::usage(
            "need alpha in [0.5,1], beta in [0,1], p in [0,1]",
        ));
    }
    let params = Params::with_beta(alpha, beta, 20);
    let mut out = String::new();
    let _ = writeln!(out, "α={alpha} β={beta} p={p} s=20");
    let _ = writeln!(
        out,
        "  G_round      = {:.4}   (Eq. 4)",
        timing::g_round_exact(&params)
    );
    let _ = writeln!(
        out,
        "  Ḡ_det        = {:.4}   (Eq. 7)",
        rollforward::gbar_det_exact(&params)
    );
    let _ = writeln!(
        out,
        "  Ḡ_prob(p)    = {:.4}   (Eq. 8)",
        rollforward::gbar_prob_exact(&params, p)
    );
    let _ = writeln!(
        out,
        "  Ḡ_corr(p)    = {:.4}   (Eq. 13)",
        predictive::gbar_corr_exact(&params, p)
    );
    let _ = writeln!(
        out,
        "  G_max        = {:.4}   (s → ∞ limit)",
        predictive::g_max(alpha, beta, p)
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        dispatch(&v)
    }

    #[test]
    fn help_and_unknown() {
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run(&["help"]).unwrap().contains("USAGE"));
        let e = run(&["frobnicate"]).unwrap_err();
        assert_eq!(e.code, 2);
    }

    #[test]
    fn gains_defaults_give_headline() {
        let out = run(&["gains"]).unwrap();
        assert!(out.contains("G_max"));
        assert!(out.contains("1.38"), "{out}");
    }

    #[test]
    fn gains_validates_ranges() {
        assert!(run(&["gains", "0.3"]).is_err());
        assert!(run(&["gains", "0.7", "2.0"]).is_err());
        assert!(run(&["gains", "0.7", "0.1", "0.9"]).is_ok());
    }

    #[test]
    fn flowchart_dot() {
        let out = run(&["flowchart", "smt-prob"]).unwrap();
        assert!(out.starts_with("digraph"));
        assert!(run(&["flowchart", "bogus"]).is_err());
    }

    #[test]
    fn asm_run_roundtrip_via_tempfile() {
        let dir = std::env::temp_dir().join("vds-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prog.s");
        std::fs::write(
            &path,
            "addi r1, r0, 6\nmul r2, r1, r1\nst r2, 0(r0)\nhalt\n",
        )
        .unwrap();
        let p = path.to_str().unwrap();
        let asm = run(&["asm", p]).unwrap();
        assert!(asm.contains("4 instructions"));
        let dis = run(&["disasm", p]).unwrap();
        assert!(dis.contains("mul r2, r1, r1"));
        let ran = run(&["run", p]).unwrap();
        assert!(ran.contains("completed in"), "{ran}");
        let ran2 = run(&["run", p, "2"]).unwrap();
        assert!(ran2.contains("thread 1"));
    }

    #[test]
    fn run_rejects_bad_args() {
        assert!(run(&["run", "/nonexistent/x.s"]).is_err());
        let dir = std::env::temp_dir().join("vds-cli-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("h.s");
        std::fs::write(&path, "halt\n").unwrap();
        let p = path.to_str().unwrap();
        assert!(run(&["run", p, "99"]).is_err(), "copies out of range");
        assert!(run(&["run", p, "nope"]).is_err());
    }

    #[test]
    fn duplex_fault_free_and_faulty() {
        let ok = run(&["duplex", "smt-prob", "12"]).unwrap();
        assert!(ok.contains("output CORRECT"), "{ok}");
        let faulty = run(&["duplex", "smt-det", "15", "4"]).unwrap();
        assert!(faulty.contains("detections=1"), "{faulty}");
        assert!(faulty.contains("output CORRECT"), "{faulty}");
        assert!(run(&["duplex", "smt-boost5"]).is_err());
    }

    #[test]
    fn experiment_dispatch() {
        let out = run(&["experiment", "e8"]).unwrap();
        assert!(out.contains("1.38"));
        assert!(run(&["experiment", "e99"]).is_err());
    }

    #[test]
    fn flag_parser_accepts_both_spellings_and_keeps_positionals() {
        let args: Vec<String> = [
            "smt-det",
            "--rounds",
            "12",
            "--seed=7",
            "--workers",
            "2",
            "4",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let f = args::EXPERIMENT.parse(&args).unwrap();
        assert_eq!(f.rounds, Some(12));
        assert_eq!(f.seed, Some(7));
        assert_eq!(f.workers, Some(2));
        assert_eq!(f.metrics, None);
        assert_eq!(f.positional, vec!["smt-det".to_string(), "4".to_string()]);
    }

    #[test]
    fn flag_parser_rejects_unknown_and_valueless_flags() {
        for bad in [
            vec!["duplex", "smt-det", "--bogus"],
            vec!["duplex", "smt-det", "--bogus=1"],
            vec!["duplex", "smt-det", "--rounds"],
            vec!["duplex", "smt-det", "--rounds", "nope"],
            vec!["experiment", "e8", "--frobs=3"],
            vec!["stats", "smt-det", "--seeds", "1"],
        ] {
            let e = run(&bad).unwrap_err();
            assert_eq!(e.code, 2, "{bad:?}: {}", e.msg);
        }
    }

    #[test]
    fn duplex_flags_mirror_positionals() {
        let pos = run(&["duplex", "smt-det", "15", "4"]).unwrap();
        let flg = run(&["duplex", "--rounds", "15", "smt-det", "4"]).unwrap();
        assert_eq!(pos, flg);
        // a different seed diversifies the versions differently but the
        // run must still succeed and stay correct
        let seeded = run(&["duplex", "smt-det", "12", "--seed", "99"]).unwrap();
        assert!(seeded.contains("output CORRECT"), "{seeded}");
    }

    #[test]
    fn stats_prints_metrics() {
        let out = run(&["stats", "smt-det", "12", "4"]).unwrap();
        assert!(out.contains("output CORRECT"), "{out}");
        assert!(out.contains("---- metrics ----"), "{out}");
        assert!(out.contains("vds.detections"), "{out}");
        assert!(out.contains("smt.cycles"), "{out}");
        assert!(!out.contains("---- trace ----"), "{out}");
    }

    #[test]
    fn duplex_metrics_flag_writes_csv_and_chrome_trace() {
        let dir = std::env::temp_dir().join("vds-cli-metrics");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("duplex.csv");
        // drop leftovers from other configurations so a stale trace file
        // can't mask a missing write
        let _ = std::fs::remove_file(dir.join("duplex.csv.trace.json"));
        let p = path.to_str().unwrap();
        let out = run(&["duplex", "smt-det", "12", "4", "--metrics", p]).unwrap();
        assert!(
            out.contains(&format!("metrics CSV written to {p}")),
            "{out}"
        );
        let csv = std::fs::read_to_string(&path).unwrap();
        assert!(csv.starts_with("kind,name,field,value"), "{csv}");
        assert!(csv.contains("counter,vds.detections,value,1"), "{csv}");
        let trace = std::fs::read_to_string(dir.join("duplex.csv.trace.json")).unwrap();
        assert!(trace.starts_with("{\"traceEvents\":["), "{trace}");
        assert!(trace.contains("\"name\":\"recovery\""), "{trace}");
    }

    #[test]
    fn experiment_metrics_flag_writes_per_experiment_csv() {
        let dir = std::env::temp_dir().join("vds-cli-exp-metrics");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("e8.csv");
        let p = path.to_str().unwrap();
        run(&["experiment", "e8", "--metrics", p]).unwrap();
        let csv = std::fs::read_to_string(&path).unwrap();
        assert!(csv.contains("counter,e8.report.text_bytes"), "{csv}");
    }

    #[test]
    fn report_prints_folded_span_stacks() {
        let out = run(&["report", "smt-det", "12", "4"]).unwrap();
        assert!(out.contains("output CORRECT"), "{out}");
        assert!(out.contains("folded span stacks"), "{out}");
        // engine-phase spans come from the obs_*! hot-path macros; the
        // pipeline windows are exported at end of run
        assert!(out.contains("micro;round;compare "), "{out}");
        assert!(out.contains("micro;recovery;retry "), "{out}");
        assert!(out.contains("smt;pipeline "), "{out}");
    }

    #[test]
    fn stats_warns_when_span_ring_overflows() {
        // overflow reporting goes through the structured-logging facade
        let cap = vds_obs::logging::capture();
        let out = run(&["stats", "smt-det", "40", "--trace-capacity", "8"]).unwrap();
        let logged = cap.take();
        assert!(logged.contains("\"level\":\"warn\""), "{logged}");
        assert!(logged.contains("span records dropped"), "{logged}");
        assert!(logged.contains("\"capacity\":8"), "{logged}");
        assert!(!out.contains("WARNING"), "stdout stays clean: {out}");
        // a roomy ring stays silent
        let cap = vds_obs::logging::capture();
        run(&["stats", "smt-det", "12", "4"]).unwrap();
        let quiet = cap.take();
        assert!(!quiet.contains("dropped"), "{quiet}");
    }

    #[test]
    fn stats_json_opens_with_the_shared_report_envelope() {
        let out = run(&["stats", "smt-det", "12", "4", "--json"]).unwrap();
        assert!(
            out.starts_with(
                "{\"schema\":\"vds.report.v1\",\"kind\":\"stats\",\"verdict\":\"correct\""
            ),
            "{out}"
        );
        // the flight-recorder summary rides along
        assert!(out.contains("\"journal\":{\"rounds\":"), "{out}");
        assert!(out.contains("\"divergences\":1"), "{out}");
        assert!(out.contains("\"counters\":{"), "{out}");
        assert!(out.contains("\"journal.rounds\":"), "{out}");
        assert!(out.contains("\"vds.detections\":1"), "{out}");
        assert!(out.contains("\"gauges\":{"), "{out}");
        assert!(out.contains("\"summaries\":{"), "{out}");
        // the journal is priced: faults.* counters, conformance.* gauges
        let (counters, gauges) = out.split_once("\"gauges\":{").unwrap();
        assert!(counters.contains("\"faults.injected\":1"), "{out}");
        assert!(counters.contains("\"faults.detected\":1"), "{out}");
        assert!(!counters.contains("conformance."), "{out}");
        assert!(gauges.contains("\"conformance.windows\":1"), "{out}");
        assert!(gauges.contains("\"conformance.alpha\":0.65"), "{out}");
        // byte-stable for the fixed seed
        let again = run(&["stats", "smt-det", "12", "4", "--json"]).unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn duplex_json_is_the_report_envelope_on_both_workloads() {
        // the micro run `stats --json` records, under its own kind
        let duplex = run(&["duplex", "smt-det", "12", "4", "--json"]).unwrap();
        let stats = run(&["stats", "smt-det", "12", "4", "--json"]).unwrap();
        assert_eq!(
            duplex,
            stats.replacen("\"kind\":\"stats\"", "\"kind\":\"duplex\"", 1)
        );
        assert!(duplex.ends_with("}\n") && !duplex.contains("output CORRECT"));
        let report = run(&["report", "smt-det", "12", "4", "--json"]).unwrap();
        assert!(!report.contains("folded span stacks"), "{report}");
        // and the VM workload through `duplex` is `vm duplex`'s envelope
        let vm = run(&[
            "duplex",
            "smt-det",
            "12",
            "4",
            "--workload",
            "vm:checksum",
            "--json",
        ])
        .unwrap();
        assert_eq!(
            vm,
            run(&["vm", "duplex", "checksum", "12", "4", "--json"]).unwrap()
        );
        assert!(
            vm.starts_with(
                "{\"schema\":\"vds.report.v1\",\"kind\":\"vm-duplex\",\"program\":\"checksum\""
            ),
            "{vm}"
        );
    }

    #[test]
    fn bench_json_emits_the_report_json() {
        let out = run(&["bench", "--rounds", "2", "--json"]).unwrap();
        assert!(out.contains("\"schema_version\": 1"), "{out}");
        assert!(out.contains("\"id\":\"E1\""), "{out}");
        assert!(!out.contains("pinned perf suite"), "no table: {out}");
    }

    #[test]
    fn log_level_flag_applies_and_rejects_garbage() {
        let cap = vds_obs::logging::capture();
        run(&[
            "stats",
            "smt-det",
            "40",
            "--trace-capacity",
            "8",
            "--log-level",
            "error",
        ])
        .unwrap();
        let logged = cap.take();
        assert!(
            logged.is_empty(),
            "warn suppressed at error level: {logged}"
        );
        vds_obs::logging::set_level_str("info").unwrap();
        let e = run(&["stats", "smt-det", "--log-level", "loud"]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.msg.contains("unknown log level"), "{}", e.msg);
    }

    #[test]
    fn experiment_metrics_flag_writes_chrome_trace() {
        let dir = std::env::temp_dir().join("vds-cli-exp-trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("e2.csv");
        let p = path.to_str().unwrap();
        let out = run(&["experiment", "e2", "--metrics", p]).unwrap();
        assert!(out.contains("Chrome trace"), "{out}");
        let trace = std::fs::read_to_string(dir.join("e2.csv.trace.json")).unwrap();
        assert!(trace.starts_with("{\"traceEvents\":["), "{trace}");
        assert!(trace.contains("\"ph\":\"B\""), "{trace}");
        assert!(trace.contains("\"ph\":\"E\""), "{trace}");
        // byte-identical across a re-run
        let path2 = dir.join("e2b.csv");
        run(&["experiment", "e2", "--metrics", path2.to_str().unwrap()]).unwrap();
        let trace2 = std::fs::read_to_string(dir.join("e2b.csv.trace.json")).unwrap();
        assert_eq!(trace, trace2);
    }

    #[test]
    fn bench_writes_and_checks_a_baseline() {
        let dir = std::env::temp_dir().join("vds-cli-bench");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let p = path.to_str().unwrap();
        // tiny size cap keeps the debug-mode test fast
        let out = run(&["bench", "--rounds", "2", "--out", p]).unwrap();
        assert!(out.contains("bench report written to"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"schema_version\": 1"), "{json}");
        assert!(json.contains("\"id\":\"E1\""), "{json}");
        // a fresh run at the same sizes passes the check against it. Host
        // time in a debug build beside parallel tests is noise, so every
        // baseline `host_ms` gains a leading 1000000 (each row at least
        // 10^6 ms): the throughput gate cannot fail, the deterministic
        // comparisons (rows, sim_rounds, work_units) still can.
        let slow = dir.join("BENCH_slow.json");
        std::fs::write(&slow, json.replace("\"host_ms\":", "\"host_ms\":1000000")).unwrap();
        let out = run(&["bench", "--rounds", "2", "--check", slow.to_str().unwrap()]).unwrap();
        assert!(out.contains("bench check OK"), "{out}");
        // a doctored baseline (work_units drift) fails it
        let doctored = json.replace("\"work_units\":", "\"work_units\":9");
        let bad = dir.join("BENCH_bad.json");
        std::fs::write(&bad, doctored).unwrap();
        let e = run(&["bench", "--rounds", "2", "--check", bad.to_str().unwrap()]).unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.msg.contains("work_units drifted"), "{}", e.msg);
        assert!(run(&["bench", "extra-positional"]).is_err());
    }

    #[test]
    fn next_bench_path_appends_after_the_highest_index() {
        let dir = std::env::temp_dir().join("vds-cli-bench-numbering");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(next_bench_path_in(&dir), "BENCH_1.json");
        // a gap below the maximum must NOT be filled — that would
        // renumber the trajectory's history
        for name in ["BENCH_1.json", "BENCH_3.json", "BENCH_x.json", "other"] {
            std::fs::write(dir.join(name), "{}").unwrap();
        }
        assert_eq!(next_bench_path_in(&dir), "BENCH_4.json");
    }

    #[test]
    fn duplex_journal_flag_writes_a_replayable_journal() {
        let dir = std::env::temp_dir().join("vds-cli-journal");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.journal.jsonl");
        let p = path.to_str().unwrap();
        let out = run(&["duplex", "smt-det", "12", "4", "--journal", p]).unwrap();
        assert!(out.contains("journal ("), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let j = vds_obs::Journal::from_jsonl(&text).unwrap();
        let h = j.header().expect("header present");
        assert_eq!(
            (h.backend.as_str(), h.scheme.as_str()),
            ("micro", "smt-det")
        );
        assert_eq!(h.meta("fault"), Some("transient:mem:4:9"));
        assert_eq!(h.meta("fault_round"), Some("4"));
        assert_eq!(h.meta("fault_victim"), Some("v2"));
        assert_eq!(j.divergences(), 1);
        // byte-identical on a re-run (the determinism contract)
        run(&["duplex", "smt-det", "12", "4", "--journal", p]).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
    }

    #[test]
    fn alpha_ledger_report_is_worker_invariant_and_exact() {
        let w1 = run(&["alpha", "1", "--json", "--workers", "1"]).unwrap();
        let w8 = run(&["alpha", "1", "--json", "--workers", "8"]).unwrap();
        assert_eq!(w1, w8, "report bytes must not depend on --workers");
        assert!(
            w1.starts_with("{\"schema\":\"vds.report.v1\",\"kind\":\"alpha\""),
            "{w1}"
        );
        assert!(w1.contains("\"mean_alpha\":"), "{w1}");
        assert!(w1.contains("\"dominant_stall\":"), "{w1}");
        let text = run(&["alpha", "1"]).unwrap();
        assert!(text.contains("alpha attribution:"), "{text}");
        assert!(text.contains("mean alpha"), "{text}");
    }

    #[test]
    fn alpha_accepts_a_program_and_reports_traps_as_one_line_errors() {
        let dir = std::env::temp_dir().join("vds-cli-alpha");
        std::fs::create_dir_all(&dir).unwrap();
        // a well-formed program: self-pair ledger over one .s file
        let good = dir.join("good.s");
        std::fs::write(
            &good,
            "addi r1, r0, 6\nmul r2, r1, r1\nst r2, 0(r0)\nhalt\n",
        )
        .unwrap();
        let out = run(&["alpha", good.to_str().unwrap()]).unwrap();
        assert!(out.contains("alpha attribution: 1 pair(s)"), "{out}");
        assert!(out.contains("good+good"), "{out}");
        // a program that traps (jump past the text section) must be a
        // single-line runtime error, not a panic
        let bad = dir.join("bad.s");
        std::fs::write(&bad, "j 40\nhalt\n").unwrap();
        let e = run(&["alpha", bad.to_str().unwrap()]).unwrap_err();
        assert_eq!(e.code, 1);
        assert_eq!(e.msg.lines().count(), 1, "one-line error: {}", e.msg);
        assert!(e.msg.contains("trapped"), "{}", e.msg);
    }

    #[test]
    fn alpha_metrics_flag_writes_the_ledger_families() {
        let dir = std::env::temp_dir().join("vds-cli-alpha-metrics");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("alpha.csv");
        let p = path.to_str().unwrap();
        run(&["alpha", "1", "--metrics", p]).unwrap();
        let csv = std::fs::read_to_string(&path).unwrap();
        assert!(csv.contains("gauge,smt.alpha"), "{csv}");
        assert!(csv.contains("histogram,alpha_excess_cycles"), "{csv}");
    }

    #[test]
    fn malformed_user_input_is_a_one_line_error_never_a_panic() {
        // the panic-hygiene contract for every user-reachable surface:
        // malformed numbers, removed flags, and missing files must come back
        // as a single-line CliError (exit 1 or 2), never as a panic or a
        // multi-line debug dump
        let cases: &[&[&str]] = &[
            &["duplex", "smt-det", "--rounds", "banana"],
            &["duplex", "smt-det", "--rounds", "-3"],
            &["duplex", "smt-det", "--rounds", "18446744073709551616"],
            &["campaign", "--trials", "banana"],
            &["campaign", "--rounds", "-1"],
            &["campaign", "--workload", "vm:bogus"],
            &["campaign", "--port", "0"],
            &["vm", "run", "checksum", "nope"],
            &["vm", "duplex", "checksum", "12", "x"],
            &["replay", "/nonexistent/journal.jsonl"],
            &["faults", "/nonexistent/journal.jsonl"],
            &["conformance", "/nonexistent/journal.jsonl"],
            &["audit", "diff", "/nonexistent/a", "/nonexistent/b"],
            &["asm", "/nonexistent/file.s"],
            &["alpha", "/nonexistent/file.s"],
            &["bench", "--check", "/nonexistent/BENCH.json"],
            &["sweep", "--grid", "/nonexistent/grid.toml"],
        ];
        for case in cases {
            let e = run(case).unwrap_err();
            assert!(e.code == 1 || e.code == 2, "{case:?}: code {}", e.code);
            assert_eq!(e.msg.lines().count(), 1, "{case:?}: {}", e.msg);
            assert!(!e.msg.is_empty(), "{case:?}");
        }
    }

    #[test]
    fn experiment_registry_spellings_and_size_knobs() {
        // registry lookup is spelling-tolerant now
        let out = run(&["experiment", "E08"]).unwrap();
        assert!(out.contains("1.38"), "{out}");
        // the size knob reaches the experiment (tiny e1 still reports)
        let out = run(&["experiment", "e1", "--rounds", "5"]).unwrap();
        assert!(out.contains("E1"), "{out}");
    }
}
