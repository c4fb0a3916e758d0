//! `journal-audit`: the read side of the journal layer the campaigns
//! write. `vds faults`, `vds conformance` and `vds audit diff` run through
//! `vds_cli::dispatch` over a corpus of recorded micro and vm campaign
//! journals, each next to a copy with one digest bit flipped.

use crate::harness::{guarded, ratio, Op, Phase};
use crate::{campaign, micro, Config, Workload};
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;
use vds_bench::live;
use vds_cli::{dispatch, CliError};
use vds_core::Scheme;
use vds_obs::conformance::{DEFAULT_TOLERANCE, DEFAULT_WINDOW};
use vds_obs::{ConformanceTracker, ForensicsTracker, Journal};

/// Trials and rounds per corpus journal: the size the CI smoke jobs record.
const TRIALS: u64 = 24;
const ROUNDS: u64 = 40;
const VM_PROGRAMS: [&str; 4] = ["checksum", "sort", "matmul", "strhash"];

/// One recorded journal and its corrupted copy.
struct Recording {
    path: String,
    bad: String,
    /// Entry index whose `d2` digest the copy flips.
    flipped: usize,
    entries: u64,
}

#[derive(Clone, Copy)]
enum Expect {
    Faults,
    Conformance,
    DivergesAt(usize),
    Identical,
}

struct Command {
    args: Vec<String>,
    kind: &'static str,
    expect: Expect,
    /// Journal entries the command parses.
    entries: u64,
}

pub(crate) struct Audit {
    /// The scratch directory, cut from outputs so they do not depend on
    /// where a run keeps its files.
    dir: String,
    corpus: Vec<Recording>,
    commands: Vec<Command>,
}

impl Workload for Audit {
    fn setup(cfg: &Config, dir: &Path) -> Result<Self, String> {
        let (per_backend, trials) = if cfg.tiny { (2, 3) } else { (8, TRIALS) };
        let mut corpus = Vec::with_capacity(2 * per_backend);
        // recorded the way the campaigns write journals, micro ones from
        // the campaign's data-fault trials as the micro-campaign runs
        // them; the phase's counts are discarded
        let mut ph = Phase::new(cfg.workers, false);
        for k in 0..per_backend as u64 {
            let base = cfg.seed.wrapping_mul(1_000_003).wrapping_add(k);
            let path = dir.join(format!("micro-{k}.jsonl"));
            let scheme = micro::SCHEME;
            let header = live::campaign_journal_header_for(scheme, trials, base, ROUNDS);
            let indices: Vec<u64> = micro::data_fault_trials(base)
                .take(trials as usize)
                .collect();
            campaign::batch(
                &mut ph,
                cfg.workers,
                &header,
                &path,
                "corpus",
                trials,
                |i, rec| live::campaign_trial_for(scheme, indices[i as usize], base, ROUNDS, rec),
            );
            corpus.push(corrupt(&path, base)?);

            let path = dir.join(format!("vm-{k}.jsonl"));
            let program = VM_PROGRAMS[k as usize % VM_PROGRAMS.len()];
            let scheme = Scheme::SmtDeterministic;
            let header =
                live::vm_campaign_journal_header_for(program, scheme, trials, base, ROUNDS);
            campaign::batch(
                &mut ph,
                cfg.workers,
                &header,
                &path,
                "corpus",
                trials,
                |i, rec| live::vm_campaign_trial_for(program, scheme, i, base, ROUNDS, rec),
            );
            corpus.push(corrupt(&path, base)?);
        }
        let mut commands = Vec::with_capacity(4 * corpus.len());
        for r in &corpus {
            let cmd = |args: &[&str], kind, expect, journals: u64| Command {
                args: args.iter().map(|s| s.to_string()).collect(),
                kind,
                expect,
                entries: journals * r.entries,
            };
            commands.push(cmd(
                &["faults", &r.path, "--json"],
                "cli.faults",
                Expect::Faults,
                1,
            ));
            commands.push(cmd(
                &["conformance", &r.path, "--json"],
                "cli.conformance",
                Expect::Conformance,
                1,
            ));
            commands.push(cmd(
                &["audit", "diff", &r.path, &r.bad],
                "cli.audit",
                Expect::DivergesAt(r.flipped),
                2,
            ));
            commands.push(cmd(
                &["audit", "diff", &r.path, &r.path],
                "cli.audit",
                Expect::Identical,
                2,
            ));
        }
        Ok(Audit {
            dir: dir.to_string_lossy().into_owned(),
            corpus,
            commands,
        })
    }

    fn pass(&mut self, cfg: &Config, ph: &mut Phase) {
        ph.begin_batch();
        let n = self.commands.len();
        let next = AtomicUsize::new(0);
        let results: Vec<OnceLock<Option<Result<String, CliError>>>> =
            (0..n).map(|_| OnceLock::new()).collect();
        let ops = Mutex::new(Vec::with_capacity(n));
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..cfg.workers.clamp(1, n.max(1)) {
                s.spawn(|| loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cmd) = self.commands.get(k) else {
                        break;
                    };
                    let t = Instant::now();
                    let r = guarded(|| dispatch(&cmd.args));
                    ops.lock()
                        .expect("op log lock")
                        .push(Op::since(cmd.kind, k, t));
                    let _ = results[k].set(r);
                });
            }
        });
        let end = Instant::now();
        ph.book_call(
            start,
            end,
            &ops.into_inner().expect("op log lock"),
            "cli.idle",
        );
        ph.attempted += n as u64;

        let t = Instant::now();
        for (cmd, result) in self.commands.iter().zip(results) {
            let Some(result) = result.into_inner().flatten() else {
                ph.fail(&format!("`vds {}` panicked", cmd.args.join(" ")));
                continue;
            };
            let out = match &result {
                Ok(text) => text,
                Err(e) => &e.msg,
            };
            ph.output(out.replace(&self.dir, "").as_bytes());
            ph.rounds += cmd.entries as f64;
            if let Err(why) = check(cmd.expect, &result) {
                ph.fail(&format!("`vds {}`: {why}", cmd.args.join(" ")));
            }
        }
        ph.section("bench.check", t);
        ph.end_batch();
    }

    fn layers(&self, _cfg: &Config, ph: &Phase) -> Vec<(&'static str, f64)> {
        let mut v = vec![
            ("cli.faults_s", ph.per_pass("cli.faults")),
            ("cli.conformance_s", ph.per_pass("cli.conformance")),
            ("cli.audit_s", ph.per_pass("cli.audit")),
        ];
        v.extend(self.probes());
        v
    }
}

impl Audit {
    /// Layer probes over one pass of the same files, on one thread: file
    /// reads, journal parsing, the three analyses, and what the CLI
    /// spends beyond them.
    fn probes(&self) -> Vec<(&'static str, f64)> {
        let mut s = BTreeMap::<&str, f64>::new();
        let mut bytes = 0.0;
        let mut timed = |key, f: &mut dyn FnMut()| {
            let t = Instant::now();
            f();
            *s.entry(key).or_default() += t.elapsed().as_secs_f64();
        };
        // each journal's four commands run right after its probed parts,
        // so machine noise hits both sides of the difference alike
        for (r, commands) in self.corpus.iter().zip(self.commands.chunks(4)) {
            let (mut good, mut bad) = (String::new(), String::new());
            timed("read_good", &mut || {
                good = std::fs::read_to_string(&r.path).unwrap_or_default()
            });
            timed("read_bad", &mut || {
                bad = std::fs::read_to_string(&r.bad).unwrap_or_default()
            });
            bytes += (good.len() + bad.len()) as f64;
            let (mut jg, mut jb) = (Journal::default(), Journal::default());
            timed("parse_good", &mut || {
                jg = Journal::from_jsonl_tolerant(&good)
                    .map(|(j, _)| j)
                    .unwrap_or_default()
            });
            timed("parse_bad", &mut || {
                jb = Journal::from_jsonl_tolerant(&bad)
                    .map(|(j, _)| j)
                    .unwrap_or_default()
            });
            timed("forensics", &mut || {
                black_box(
                    ForensicsTracker::for_journal(&jg)
                        .map(|t| t.report().to_json())
                        .ok(),
                );
            });
            timed("conformance", &mut || {
                black_box(
                    ConformanceTracker::for_journal(&jg, DEFAULT_WINDOW, DEFAULT_TOLERANCE)
                        .map(|t| t.report().to_json())
                        .ok(),
                );
            });
            timed("first_divergence", &mut || {
                black_box(jg.first_divergence(&jb));
                black_box(jg.first_divergence(&jg));
            });
            for cmd in commands {
                timed(cmd.kind, &mut || {
                    black_box(guarded(|| dispatch(&cmd.args)));
                });
            }
        }
        let g = |k| s.get(k).copied().unwrap_or(0.0);
        let read = g("read_good") + g("read_bad");
        let parse = g("parse_good") + g("parse_bad");
        // per journal the four commands read and parse the good copy five
        // times and the corrupted copy once
        let components = 5.0 * (g("read_good") + g("parse_good"))
            + g("read_bad")
            + g("parse_bad")
            + g("forensics")
            + g("conformance")
            + g("first_divergence");
        vec![
            ("fs.read_mb_per_s", ratio(bytes / 1e6, read)),
            ("journal.parse_mb_per_s", ratio(bytes / 1e6, parse)),
            ("forensics.s", g("forensics")),
            ("conformance.s", g("conformance")),
            ("audit.first_divergence_s", g("first_divergence")),
            (
                "cli.unattributed_s",
                g("cli.faults") + g("cli.conformance") + g("cli.audit") - components,
            ),
        ]
    }
}

/// Write a copy of the journal at `path` with one hex digit of one
/// entry's `d2` digest flipped, the entry drawn from `seed`.
fn corrupt(path: &Path, seed: u64) -> Result<Recording, String> {
    let name = path.display();
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {name}: {e}"))?;
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let entries = lines.len().saturating_sub(1);
    if entries == 0 {
        return Err(format!("corpus journal {name} has no entries"));
    }
    let flipped = SmallRng::seed_from_u64(seed ^ 0xF11F).gen_range(0..entries);
    let line = &mut lines[flipped + 1];
    let at = line
        .find("\"d2\":\"")
        .map(|i| i + "\"d2\":\"".len())
        .ok_or_else(|| format!("corpus journal {name} entry {flipped} has no d2 digest"))?;
    let digit = u8::from_str_radix(&line[at..=at], 16).map_err(|e| format!("{name}: {e}"))?;
    line.replace_range(at..=at, &format!("{:x}", digit ^ 1));
    let bad = path.with_extension("bad.jsonl");
    vds_obs::write_atomic(&bad, lines.join("\n") + "\n")
        .map_err(|e| format!("cannot write {}: {e}", bad.display()))?;
    Ok(Recording {
        path: path.to_string_lossy().into_owned(),
        bad: bad.to_string_lossy().into_owned(),
        flipped,
        entries: entries as u64,
    })
}

/// Whether a command's result is what its input calls for.
fn check(expect: Expect, result: &Result<String, CliError>) -> Result<(), String> {
    match (expect, result) {
        (Expect::Faults, Ok(json)) => {
            let field = |k: &str| -> Result<u64, String> {
                let key = format!("\"{k}\":");
                let at = json.find(&key).ok_or(format!("no `{k}` in the report"))? + key.len();
                let digits: String = json[at..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect();
                digits
                    .parse()
                    .map_err(|_| format!("bad `{k}` in the report"))
            };
            let injected = field("injected")?;
            let resolved = field("detected")? + field("masked")? + field("escaped")?;
            if resolved == injected {
                Ok(())
            } else {
                Err(format!(
                    "detected+masked+escaped = {resolved}, injected = {injected}"
                ))
            }
        }
        (Expect::Conformance, Ok(json))
            if json.starts_with(r#"{"schema":"vds.report.v1","kind":"conformance""#) =>
        {
            Ok(())
        }
        (Expect::DivergesAt(e), Err(err))
            if err.code == 1
                && err.msg.contains(&format!("journals diverge at entry {e} "))
                && err.msg.contains("first differing field: d2") =>
        {
            Ok(())
        }
        (Expect::Identical, Ok(text)) if text.starts_with("journals identical") => Ok(()),
        (_, Ok(text)) => Err(format!(
            "unexpected output: {}",
            text.lines().next().unwrap_or("")
        )),
        (_, Err(e)) => Err(format!(
            "unexpected error: {}",
            e.msg.lines().next().unwrap_or("")
        )),
    }
}
