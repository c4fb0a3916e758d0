//! `vds replay` and `vds audit diff` — consumers of the flight-recorder
//! journal.
//!
//! `vds replay <journal>` rebuilds the run the journal's header describes
//! ([`Recording::from_header`]), records it again and asserts
//! digest-for-digest agreement with the recorded entries: any
//! nondeterminism, code drift or file tampering surfaces as a structured
//! first-divergence report. `vds audit diff <a> <b>` compares two
//! recordings directly, scanning to the first divergent round;
//! it exits 0 when they are identical and 1 with the report otherwise.

use crate::{read_journal_tolerant, CliError};
use vds_core::recording::Recording;
use vds_obs::Recorder;

/// `vds replay <journal>` — re-execute and verify a recording.
pub(crate) fn cmd_replay(args: &[String]) -> Result<String, CliError> {
    let f = crate::args::REPLAY.parse(args)?;
    if f.help {
        return Ok(crate::args::REPLAY.help());
    }
    let path = f
        .positional
        .first()
        .ok_or_else(|| CliError::usage("replay: missing journal path"))?;
    if f.positional.len() > 1 {
        return Err(CliError::usage("replay: too many arguments"));
    }
    let recorded = read_journal_tolerant(path)?;
    let header = recorded
        .header()
        .ok_or_else(|| CliError::runtime(format!("`{path}` has no journal header to replay")))?;
    let recording = Recording::from_header(header).map_err(CliError::runtime)?;
    let workers = f
        .workers
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()));
    let (_, replayed) = recording.record(Recorder::new(), workers);
    match recorded.first_divergence(replayed.journal()) {
        None => Ok(format!(
            "replay OK: {path} — {} rounds re-executed digest-for-digest \
             (backend {}, scheme {}, seed {})\n",
            recorded.len(),
            header.backend,
            header.scheme,
            header.seed
        )),
        Some(d) => Err(CliError::runtime(format!(
            "replay DIVERGED: {path} does not match its re-execution \
             (a = recorded, b = replayed)\n{}",
            d.report()
        ))),
    }
}

/// `vds audit diff <a> <b>` — first divergent round between recordings.
pub(crate) fn cmd_audit(args: &[String]) -> Result<String, CliError> {
    let f = crate::args::AUDIT.parse(args)?;
    if f.help {
        return Ok(crate::args::AUDIT.help());
    }
    if f.positional.first().map(String::as_str) != Some("diff") {
        return Err(CliError::usage("audit: expected `audit diff <a> <b>`"));
    }
    let a_path = f
        .positional
        .get(1)
        .ok_or_else(|| CliError::usage("audit diff: missing first journal"))?;
    let b_path = f
        .positional
        .get(2)
        .ok_or_else(|| CliError::usage("audit diff: missing second journal"))?;
    if f.positional.len() > 3 {
        return Err(CliError::usage("audit diff: too many arguments"));
    }
    let a = read_journal_tolerant(a_path)?;
    let b = read_journal_tolerant(b_path)?;
    // a headerless file is a truncated or non-journal input, not a
    // comparable recording — refuse with one clear line, no backtrace
    for (path, j) in [(a_path, &a), (b_path, &b)] {
        if j.header().is_none() {
            return Err(CliError::runtime(format!(
                "`{path}` has no journal header (missing or truncated?)"
            )));
        }
    }
    match a.first_divergence(&b) {
        None => Ok(format!(
            "journals identical: {} entries ({a_path} vs {b_path})\n",
            a.len()
        )),
        Some(d) => Err(CliError::runtime(format!(
            "audit diff {a_path} {b_path}:\n{}",
            d.report()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::{Recorder, Recording};
    use crate::{dispatch, CliError};

    fn run(args: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        dispatch(&v)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("vds-cli-audit");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Flip the low bit of the first hex digit of the first `d2` digest
    /// at or after `from_line`, returning the corrupted text and the
    /// `round` field of the entry that was hit.
    fn corrupt_one_digest_bit(text: &str, from_line: usize) -> (String, u64) {
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let idx = (from_line..lines.len())
            .find(|&i| lines[i].contains("\"d2\":\""))
            .expect("no entry with a d2 digest");
        let line = &lines[idx];
        let pos = line.find("\"d2\":\"").unwrap() + "\"d2\":\"".len();
        let old = line.as_bytes()[pos] as char;
        let flipped = char::from_digit(old.to_digit(16).unwrap() ^ 1, 16).unwrap();
        let mut corrupted = line.clone();
        corrupted.replace_range(pos..pos + 1, &flipped.to_string());
        let round = corrupted
            .split("\"round\":")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.parse().ok())
            .unwrap();
        lines[idx] = corrupted;
        (lines.join("\n") + "\n", round)
    }

    #[test]
    fn replay_verifies_a_faulty_duplex_recording() {
        let p = tmp("duplex.journal.jsonl");
        let ps = p.to_str().unwrap();
        let out = run(&["duplex", "smt-det", "15", "4", "--journal", ps]).unwrap();
        assert!(out.contains("journal ("), "{out}");
        assert!(out.contains("vds replay"), "{out}");
        let ok = run(&["replay", ps]).unwrap();
        assert!(ok.contains("replay OK"), "{ok}");
        assert!(ok.contains("backend micro, scheme smt-det"), "{ok}");
    }

    #[test]
    fn replay_rejects_a_tampered_recording() {
        let p = tmp("tampered.journal.jsonl");
        let ps = p.to_str().unwrap();
        run(&["duplex", "smt-prob", "12", "--seed", "7", "--journal", ps]).unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        let (bad, _) = corrupt_one_digest_bit(&text, 1);
        std::fs::write(&p, bad).unwrap();
        let e = run(&["replay", ps]).unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.msg.contains("replay DIVERGED"), "{}", e.msg);
        assert!(e.msg.contains("d2 (version 2 digest)"), "{}", e.msg);
    }

    #[test]
    fn audit_diff_identical_then_pinpoints_the_corrupted_round() {
        let (pa, pb) = (tmp("a.journal.jsonl"), tmp("b.journal.jsonl"));
        let (sa, sb) = (pa.to_str().unwrap(), pb.to_str().unwrap());
        run(&["duplex", "smt-det", "20", "4", "--journal", sa]).unwrap();
        run(&["duplex", "smt-det", "20", "4", "--journal", sb]).unwrap();
        // recovery roll-forward salvages a round, so entries < rounds
        let ok = run(&["audit", "diff", sa, sb]).unwrap();
        assert!(ok.contains("journals identical: 19 entries"), "{ok}");
        // flip one digest bit deep in b: the diff names that exact round
        let text = std::fs::read_to_string(&pb).unwrap();
        let (bad, round) = corrupt_one_digest_bit(&text, 13);
        std::fs::write(&pb, bad).unwrap();
        let e = run(&["audit", "diff", sa, sb]).unwrap_err();
        assert_eq!(e.code, 1);
        assert!(
            e.msg.contains(&format!("round {round})")),
            "expected round {round} in: {}",
            e.msg
        );
        assert!(e.msg.contains("first differing field: d2"), "{}", e.msg);
    }

    #[test]
    fn replay_and_audit_reject_bad_usage() {
        assert_eq!(run(&["replay"]).unwrap_err().code, 2);
        assert_eq!(run(&["audit", "frob"]).unwrap_err().code, 2);
        assert_eq!(run(&["audit", "diff", "only-one"]).unwrap_err().code, 2);
        // a journal without a header cannot be replayed
        let p = tmp("headerless.jsonl");
        std::fs::write(&p, "").unwrap();
        let e = run(&["replay", p.to_str().unwrap()]).unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.msg.contains("no journal header"), "{}", e.msg);
    }

    #[test]
    fn replay_refuses_a_stuck_at_bit_beyond_the_word() {
        // bit 40 used to overflow `1 << bit` in the faulty unit's result
        // (a panic in a debug build, bit 8 forced in a release build)
        let header = vds_obs::JournalHeader::new("micro", "smt-det", 2024, 8, 12)
            .with_meta("fault", "permfu:alu:0:40:1")
            .with_meta("fault_round", "3");
        let p = tmp("permfu-bit40.journal.jsonl");
        std::fs::write(&p, vds_obs::Journal::enabled(header).to_jsonl()).unwrap();
        let e = run(&["replay", p.to_str().unwrap()]).unwrap_err();
        assert_eq!(e.code, 1);
        assert_eq!(
            e.msg,
            "journal header has malformed fault spec `permfu:alu:0:40:1`"
        );
    }

    #[test]
    fn replay_refuses_a_campaign_header_whose_s_is_not_the_trials_interval() {
        for (name, workload, s) in [("micro", "", "9"), ("vm", "--workload vm:sort", "3")] {
            let p = tmp(&format!("s-edit-{name}.journal.jsonl"));
            let ps = p.to_str().unwrap();
            let args =
                format!("campaign --trials 4 --rounds 20 --seed 3 --journal {ps} {workload}");
            run(&args.split_whitespace().collect::<Vec<_>>()).unwrap();
            let text = std::fs::read_to_string(&p).unwrap();
            std::fs::write(&p, text.replacen("\"s\":8", &format!("\"s\":{s}"), 1)).unwrap();
            let e = run(&["replay", ps]).unwrap_err();
            assert_eq!(e.code, 1, "{name}");
            let want = format!("journal header has s = {s}, but its trials run at s = 8");
            assert_eq!(e.msg, want);
        }
    }

    #[test]
    fn replay_holds_a_header_to_the_schemes_its_engine_runs() {
        use vds_obs::{Journal, JournalHeader};
        // smt-boost5 is refused by a micro run and by campaigns over
        // either workload...
        let micro = JournalHeader::new("micro", "smt-boost5", 2024, 10, 12);
        let campaign = JournalHeader::new("campaign", "smt-boost5", 3, 8, 20);
        let vm = JournalHeader::new("vm", "smt-boost5", 3, 8, 20).with_meta("program", "sort");
        let campaigns = [campaign, vm].map(|h| h.with_meta("trials", "4"));
        for (i, header) in [micro].into_iter().chain(campaigns).enumerate() {
            let p = tmp(&format!("boost5-{i}.journal.jsonl"));
            std::fs::write(&p, Journal::enabled(header).to_jsonl()).unwrap();
            let e = run(&["replay", p.to_str().unwrap()]).unwrap_err();
            assert_eq!(e.code, 1, "{}", e.msg);
            let refusal = "smt-boost5 runs on the abstract backend only";
            assert!(
                e.msg.starts_with(refusal) && !e.msg.contains('\n'),
                "{}",
                e.msg
            );
        }
        // ...while a single VM run records and replays under it
        let p = tmp("boost5-vm.journal.jsonl");
        let ps = p.to_str().unwrap();
        let args = format!("vm duplex sort 10 3 --scheme smt-boost5 --journal {ps}");
        run(&args.split_whitespace().collect::<Vec<_>>()).unwrap();
        let ok = run(&["replay", ps]).unwrap();
        assert!(ok.contains("replay OK"), "{ok}");
    }

    #[test]
    fn audit_diff_requires_headers_on_both_journals() {
        // a real recording vs a headerless file: one clear runtime error
        // naming the offending path, never a panic
        let good = tmp("with-header.journal.jsonl");
        let gs = good.to_str().unwrap();
        run(&["duplex", "smt-det", "12", "--journal", gs]).unwrap();
        let bare = tmp("no-header.jsonl");
        std::fs::write(&bare, "").unwrap();
        let bs = bare.to_str().unwrap();
        for (a, b) in [(gs, bs), (bs, gs)] {
            let e = run(&["audit", "diff", a, b]).unwrap_err();
            assert_eq!(e.code, 1);
            assert_eq!(
                e.msg,
                format!("`{bs}` has no journal header (missing or truncated?)")
            );
            assert_eq!(e.msg.lines().count(), 1, "{}", e.msg);
        }
    }

    #[test]
    fn torn_final_line_is_dropped_with_a_warning_not_an_error() {
        // A kill mid-append leaves one incomplete line at the tail; every
        // read-side consumer should truncate-and-warn like the sweep
        // resume journal, not refuse the whole recording.
        let p = tmp("torn-tail.journal.jsonl");
        let ps = p.to_str().unwrap();
        run(&["duplex", "smt-det", "14", "4", "--journal", ps]).unwrap();
        let intact = std::fs::read_to_string(&p).unwrap();
        std::fs::write(&p, format!("{intact}{{\"kind\":\"round\",\"seq\":9")).unwrap();
        for cmd in [
            &["replay", ps][..],
            &["faults", ps][..],
            &["conformance", ps][..],
        ] {
            let cap = vds_obs::logging::capture();
            let out = run(cmd).unwrap_or_else(|e| panic!("{cmd:?}: {}", e.msg));
            let logged = cap.take();
            assert!(
                logged.contains("torn final journal line"),
                "{cmd:?} should warn, logged: {logged} out: {out}"
            );
        }
        // The drop is surgical: corruption before the tail still fails.
        let lines: Vec<&str> = intact.lines().collect();
        let mut mid: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        mid[2] = "not json".into();
        std::fs::write(&p, mid.join("\n")).unwrap();
        let e = run(&["replay", ps]).unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.msg.contains(&format!("cannot parse `{ps}`")), "{}", e.msg);
        assert!(e.msg.contains("line 3"), "{}", e.msg);
    }

    #[test]
    fn truncated_headers_fail_with_one_parse_line_not_a_panic() {
        // chop the header line mid-JSON: both consumers report a single
        // `cannot parse` line with exit code 1
        let p = tmp("truncated.journal.jsonl");
        let ps = p.to_str().unwrap();
        run(&["duplex", "smt-det", "12", "--journal", ps]).unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        let header_len = text.lines().next().unwrap().len();
        std::fs::write(&p, &text[..header_len / 2]).unwrap();
        for cmd in [&["replay", ps][..], &["audit", "diff", ps, ps][..]] {
            let e = run(cmd).unwrap_err();
            assert_eq!(e.code, 1, "{cmd:?}");
            assert!(e.msg.contains(&format!("cannot parse `{ps}`")), "{}", e.msg);
            assert_eq!(e.msg.lines().count(), 1, "{}", e.msg);
        }
    }

    #[test]
    fn vm_campaign_journals_replay_and_reject_tampering() {
        let scheme = vds_core::Scheme::SmtProbabilistic;
        let campaign = Recording::campaign(Some("matmul"), scheme, 4, 11, 16);
        let (_, rec) = campaign.record(Recorder::new(), 2);
        let p = tmp("vm-campaign.journal.jsonl");
        std::fs::write(&p, rec.journal().to_jsonl()).unwrap();
        let ok = run(&["replay", p.to_str().unwrap(), "--workers", "3"]).unwrap();
        assert!(ok.contains("replay OK"), "{ok}");
        assert!(ok.contains("backend vm"), "{ok}");
        let text = std::fs::read_to_string(&p).unwrap();
        let (bad, _) = corrupt_one_digest_bit(&text, 1);
        std::fs::write(&p, bad).unwrap();
        let e = run(&["replay", p.to_str().unwrap()]).unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.msg.contains("replay DIVERGED"), "{}", e.msg);
    }

    #[test]
    fn abstract_journals_replay_and_reject_tampering() {
        use vds_core::abstract_vds::AbstractConfig;
        use vds_core::{FaultModel, Scheme};
        let mut cfg = AbstractConfig::new(
            vds_analytic::Params::with_beta(0.7, 0.2, 12),
            Scheme::SmtBoosted5,
        );
        cfg.max_consecutive_rollbacks = 4;
        let fm = FaultModel::Mission {
            q: 0.05,
            crash_fraction: 0.2,
            stop_fraction: 0.3,
        };
        let recording = Recording::abstract_run(&cfg, fm, 11, 300).unwrap();
        let (_, rec) = recording.record(Recorder::new(), 1);
        let p = tmp("abstract.journal.jsonl");
        let ps = p.to_str().unwrap();
        std::fs::write(&p, rec.journal().to_jsonl()).unwrap();
        let ok = run(&["replay", ps]).unwrap();
        assert!(ok.contains("replay OK"), "{ok}");
        assert!(ok.contains("backend abstract, scheme smt-boost5"), "{ok}");
        let text = std::fs::read_to_string(&p).unwrap();
        let (bad, round) = corrupt_one_digest_bit(&text, 1);
        std::fs::write(&p, bad).unwrap();
        let e = run(&["replay", ps]).unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.msg.contains("replay DIVERGED"), "{}", e.msg);
        assert!(e.msg.contains(&format!("round {round})")), "{}", e.msg);
    }

    #[test]
    fn campaign_replay_honours_the_header_scheme() {
        let scheme = vds_core::Scheme::SmtDeterministic;
        let (_, rec) = Recording::campaign(None, scheme, 4, 42, 20).record(Recorder::new(), 2);
        let p = tmp("det-campaign.journal.jsonl");
        std::fs::write(&p, rec.journal().to_jsonl()).unwrap();
        let ok = run(&["replay", p.to_str().unwrap(), "--workers", "2"]).unwrap();
        assert!(ok.contains("replay OK"), "{ok}");
        assert!(ok.contains("scheme smt-det"), "{ok}");
    }
}
