//! `vds vm` — assemble, run and duplex the bytecode-VM seed programs.
//!
//! Three verbs over the register-based bytecode VM (`vds-vm`):
//!
//! * `vds vm asm <program>` — deterministic listing (pc, encoded word,
//!   mnemonic) plus the literal pool.
//! * `vds vm run <program> [rounds]` — a single undiversified VM driven
//!   through the round protocol, checked against the pure-Rust oracle.
//! * `vds vm duplex <program> [rounds] [fault-round]` — two diversified
//!   variants under the VDS engine ([`vds_core::vm_vds`]), with the same
//!   `--journal` / `--metrics` / `--json` recording surface as
//!   `vds duplex`; journals replay with `vds replay`.
//!
//! `vds duplex --workload vm:<program>` routes here too, so the micro
//! and VM workloads share one flag vocabulary.

use crate::{args, parse_num, rounds_and_fault_round, run_and_render, CliError, DuplexMode, Flags};
use std::fmt::Write as _;
use vds_core::recording::{Recording, RunParams};
use vds_core::vm_vds::{VmConfig, VmFault};
use vds_core::Victim;
use vds_fault::vm::VmFaultSite;
use vds_vm::{run_round, seed_program, Outcome, SeedProgram, Vm};

/// Comma-separated seed-program names for error messages.
fn known_programs() -> String {
    vds_vm::SEED_PROGRAMS
        .iter()
        .map(|p| p.name)
        .collect::<Vec<_>>()
        .join(", ")
}

fn lookup_program(name: &str) -> Result<&'static SeedProgram, CliError> {
    seed_program(name).ok_or_else(|| {
        CliError::usage(format!(
            "vm: unknown program `{name}` (known: {})",
            known_programs()
        ))
    })
}

/// The seed program a `--workload vm:<program>` flag names (`vds duplex`,
/// `vds campaign`).
pub(crate) fn workload_program(workload: &str) -> Result<&'static SeedProgram, CliError> {
    let name = workload.strip_prefix("vm:").ok_or_else(|| {
        CliError::usage(format!(
            "--workload: `{workload}` is not a workload (vm:<program>, e.g. vm:checksum)"
        ))
    })?;
    seed_program(name).ok_or_else(|| {
        CliError::usage(format!(
            "--workload: unknown program `{name}` (known: {})",
            known_programs()
        ))
    })
}

/// Parse a `--fault` spec: a [`VmFaultSite`] spec string with an
/// optional `@v1` / `@v2` victim suffix (default victim [`Victim::V2`]).
pub(crate) fn parse_vm_fault_spec(spec: &str) -> Result<(VmFaultSite, Victim), CliError> {
    let (site_str, victim) = match spec.rsplit_once('@') {
        Some((s, "v1")) => (s, Victim::V1),
        Some((s, "v2")) => (s, Victim::V2),
        Some((_, other)) => {
            return Err(CliError::usage(format!(
                "--fault: bad victim `@{other}` (use @v1 or @v2)"
            )))
        }
        None => (spec, Victim::V2),
    };
    let site = VmFaultSite::parse_spec(site_str).ok_or_else(|| {
        CliError::usage(format!(
            "--fault: bad site `{site_str}` (vm:reg:<i>:<b> | vm:pc:<b> | vm:lit:<i>:<b> | vm:mem:<a>:<b>)"
        ))
    })?;
    Ok((site, victim))
}

/// `vds vm <asm|run|duplex> …` dispatch.
pub(crate) fn cmd_vm(args: &[String]) -> Result<String, CliError> {
    let f = args::VM.parse(args)?;
    if f.help {
        return Ok(args::VM.help());
    }
    let verb = f
        .positional
        .first()
        .ok_or_else(|| CliError::usage("vm: missing subcommand (asm|run|duplex)"))?
        .as_str();
    let name = f.positional.get(1).ok_or_else(|| {
        CliError::usage(format!(
            "vm {verb}: missing program (known: {})",
            known_programs()
        ))
    })?;
    let sp = lookup_program(name)?;
    match verb {
        "asm" => {
            if f.positional.len() > 2 {
                return Err(CliError::usage("vm asm: too many arguments"));
            }
            cmd_vm_asm(sp)
        }
        "run" => cmd_vm_run(sp, &f),
        "duplex" => cmd_vm_duplex(sp, &f),
        other => Err(CliError::usage(format!(
            "vm: unknown subcommand `{other}` (asm|run|duplex)"
        ))),
    }
}

fn cmd_vm_asm(sp: &SeedProgram) -> Result<String, CliError> {
    let prog = sp.assembled();
    let mut out = format!("; {} — {}\n", sp.name, sp.title);
    out.push_str(&prog.listing());
    for (i, lit) in prog.lits.iter().enumerate() {
        let _ = writeln!(out, "; lit[{i}] = 0x{lit:08x}");
    }
    Ok(out)
}

/// A single undiversified VM through the round protocol, with the final
/// data memory checked against [`SeedProgram::oracle`].
fn cmd_vm_run(sp: &SeedProgram, f: &Flags) -> Result<String, CliError> {
    let mut rest = f.positional.iter().skip(2);
    let rounds: u32 = match f.rounds {
        Some(n) => u32::try_from(n).map_err(|_| CliError::usage("--rounds too large"))?,
        None => match rest.next() {
            Some(s) => parse_num(s, "round count")?,
            None => 10,
        },
    };
    if rest.next().is_some() {
        return Err(CliError::usage("vm run: too many arguments"));
    }
    let seed = f.seed.unwrap_or(2024);
    let prog = sp.assembled();
    let mut vm = Vm::with_mem(sp.initial_dmem(seed));
    let mut steps = 0u64;
    for round in 1..=rounds {
        let r = run_round(&mut vm, &prog, round, None);
        match r.outcome {
            Outcome::Halted => steps += r.steps,
            Outcome::Trapped { trap, pc } => {
                return Err(CliError::runtime(format!(
                    "vm run: {} trapped at round {round}: {} at pc {pc}",
                    sp.name,
                    trap.name()
                )))
            }
            Outcome::Hung => {
                return Err(CliError::runtime(format!(
                    "vm run: {} exceeded the step budget at round {round}",
                    sp.name
                )))
            }
        }
    }
    let digest = vm.output_regs();
    let verdict = if vm.mem == sp.oracle(seed, rounds) {
        "output CORRECT"
    } else {
        "output WRONG"
    };
    Ok(format!(
        "{}: {rounds} rounds, {steps} steps, digest {:08x} {:08x} {:08x} {:08x}\n{verdict} versus the oracle\n",
        sp.name, digest[0], digest[1], digest[2], digest[3]
    ))
}

/// `vds vm duplex <program> [rounds] [fault-round]`.
fn cmd_vm_duplex(sp: &SeedProgram, f: &Flags) -> Result<String, CliError> {
    let scheme = match f.scheme.as_deref() {
        Some(name) => crate::parse_scheme(name)?,
        None => vds_core::Scheme::SmtDeterministic,
    };
    run_vm_duplex_cli(sp, scheme, f.positional.iter().skip(2), "vm duplex", f)
}

/// `vds duplex <scheme> [rounds] [fault-round] --workload vm:<program>`:
/// the micro command's positional grammar routed onto the VM engine.
pub(crate) fn duplex_via_workload(f: &Flags, workload: &str) -> Result<String, CliError> {
    let sp = workload_program(workload)?;
    let scheme = crate::parse_scheme(
        f.positional
            .first()
            .ok_or_else(|| CliError::usage("duplex: missing scheme"))?,
    )?;
    run_vm_duplex_cli(sp, scheme, f.positional.iter().skip(1), "duplex", f)
}

/// The shared VM duplex runner: read the `[rounds] [fault-round]`
/// positionals in `rest`, build the recording, and run and render it as
/// `vds duplex` does, under the JSON kind `vm-duplex`.
fn run_vm_duplex_cli<'a>(
    sp: &SeedProgram,
    scheme: vds_core::Scheme,
    rest: impl Iterator<Item = &'a String>,
    what: &str,
    f: &Flags,
) -> Result<String, CliError> {
    let (rounds, fault_round) = rounds_and_fault_round(rest, f, what)?;
    let fault = match (&f.fault, fault_round) {
        (None, None) => None,
        (spec, at) => {
            // a bare fault-round injects the canonical register fault;
            // `--fault` overrides the site/victim (and defaults the
            // round to 3 when no positional was given)
            let (site, victim) = match spec {
                Some(s) => parse_vm_fault_spec(s)?,
                None => (VmFault::CANONICAL_SITE, Victim::V2),
            };
            Some(VmFault {
                at_round: at.unwrap_or(3),
                victim,
                site,
            })
        }
    };
    let params = RunParams {
        scheme,
        seed: f.seed.unwrap_or(vds_core::DEFAULT_SEED),
        s: VmConfig::new(sp.name).s,
        rounds,
    };
    let recording = Recording::Vm(params, sp.name.to_string(), fault);
    run_and_render(&recording, "vm-duplex", DuplexMode::Plain, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        crate::dispatch(&v)
    }

    #[test]
    fn vm_asm_lists_every_seed_program() {
        for sp in vds_vm::SEED_PROGRAMS {
            let out = run(&["vm", "asm", sp.name]).unwrap();
            assert!(out.contains(sp.name), "{out}");
            assert!(out.contains("lit[0]"), "{out}");
        }
        let e = run(&["vm", "asm", "bogus"]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(
            e.msg.contains("checksum, sort, matmul, strhash"),
            "{}",
            e.msg
        );
    }

    #[test]
    fn vm_run_matches_the_oracle_on_every_program() {
        for sp in vds_vm::SEED_PROGRAMS {
            let out = run(&["vm", "run", sp.name, "6"]).unwrap();
            assert!(out.contains("output CORRECT"), "{}: {out}", sp.name);
        }
        // seeded runs stay correct too
        let out = run(&["vm", "run", "sort", "--rounds", "4", "--seed", "99"]).unwrap();
        assert!(out.contains("output CORRECT"), "{out}");
    }

    #[test]
    fn vm_duplex_fault_free_and_faulty() {
        let ok = run(&["vm", "duplex", "checksum", "12"]).unwrap();
        assert!(ok.contains("output CORRECT"), "{ok}");
        let faulty = run(&["vm", "duplex", "checksum", "15", "4"]).unwrap();
        assert!(faulty.contains("output CORRECT"), "{faulty}");
        let spec = run(&[
            "vm",
            "duplex",
            "matmul",
            "12",
            "3",
            "--fault",
            "vm:mem:5:9@v1",
        ])
        .unwrap();
        assert!(spec.contains("output CORRECT"), "{spec}");
        let e = run(&["vm", "duplex", "checksum", "--fault", "nope"]).unwrap_err();
        assert_eq!(e.code, 2);
        let e = run(&["vm", "duplex", "checksum", "--fault", "vm:pc:2@v9"]).unwrap_err();
        assert!(e.msg.contains("@v9"), "{}", e.msg);
    }

    #[test]
    fn vm_missing_or_unknown_subcommand_is_a_usage_error() {
        assert_eq!(run(&["vm"]).unwrap_err().code, 2);
        assert_eq!(run(&["vm", "frob", "checksum"]).unwrap_err().code, 2);
        assert_eq!(run(&["vm", "run"]).unwrap_err().code, 2);
    }

    #[test]
    fn vm_duplex_journal_is_replayable_and_byte_stable() {
        let dir = std::env::temp_dir().join("vds-cli-vm-journal");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("vm.journal.jsonl");
        let p = path.to_str().unwrap();
        let out = run(&["vm", "duplex", "strhash", "12", "4", "--journal", p]).unwrap();
        assert!(out.contains("journal ("), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let j = vds_obs::Journal::from_jsonl(&text).unwrap();
        let h = j.header().expect("header present");
        assert_eq!((h.backend.as_str(), h.scheme.as_str()), ("vm", "smt-det"));
        assert_eq!(h.meta("program"), Some("strhash"));
        assert_eq!(h.meta("fault"), Some("vm:reg:1:5"));
        assert_eq!(h.meta("fault_round"), Some("4"));
        assert_eq!(h.meta("fault_victim"), Some("v2"));
        // byte-identical on a re-run (the determinism contract)
        run(&["vm", "duplex", "strhash", "12", "4", "--journal", p]).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        // and replayable
        let replay = run(&["replay", p]).unwrap();
        assert!(replay.contains("replay OK"), "{replay}");
    }

    #[test]
    fn duplex_workload_flag_routes_to_the_vm_engine() {
        let out = run(&["duplex", "smt-prob", "12", "--workload", "vm:sort"]).unwrap();
        assert!(out.contains("sort on smt-prob"), "{out}");
        assert!(out.contains("output CORRECT"), "{out}");
        let e = run(&["duplex", "smt-det", "--workload", "micro:sort"]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.msg.contains("vm:<program>"), "{}", e.msg);
        let e = run(&["duplex", "smt-det", "--workload", "vm:bogus"]).unwrap_err();
        assert!(e.msg.contains("unknown program"), "{}", e.msg);
        // stats/report keep their micro-only flag set
        let e = run(&["stats", "smt-det", "--workload", "vm:sort"]).unwrap_err();
        assert!(e.msg.contains("unknown flag `--workload`"), "{}", e.msg);
    }

    #[test]
    fn vm_duplex_json_shares_the_report_serializer() {
        let out = run(&["vm", "duplex", "checksum", "12", "4", "--json"]).unwrap();
        assert!(
            out.starts_with("{\"schema\":\"vds.report.v1\",\"kind\":\"vm-duplex\""),
            "{out}"
        );
        assert!(out.contains("\"program\":\"checksum\""), "{out}");
        assert!(out.contains("\"verdict\":\"correct\""), "{out}");
        assert!(out.contains("\"journal\":{\"rounds\":"), "{out}");
        // the journal is priced: faults.* counters, conformance.* gauges
        let (counters, gauges) = out.split_once("\"gauges\":{").unwrap();
        assert!(counters.contains("\"faults.injected\":1"), "{out}");
        assert!(counters.contains("\"faults.masked\":1"), "{out}");
        assert!(!counters.contains("conformance."), "{out}");
        assert!(gauges.contains("\"conformance.windows\":1"), "{out}");
        assert!(gauges.contains("\"faults.coverage\":0"), "{out}");
        let again = run(&["vm", "duplex", "checksum", "12", "4", "--json"]).unwrap();
        assert_eq!(out, again);
    }
}
