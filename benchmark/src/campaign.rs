//! One batch of a journaled fault campaign, the way `vds serve --once
//! --journal` runs it: `run_campaign_journaled`, then `Journal::to_jsonl`
//! and `vds_obs::write_atomic`. Shared by the micro and vm campaigns.

use crate::harness::{guarded, ratio, Op, Phase};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use vds_fault::campaign::{run_campaign_journaled, TrialResult};
use vds_obs::{JournalHeader, Recorder};

/// Run `n` trials as one journaled campaign on `workers` threads, write
/// its journal to `path`, and check it. Each trial is one op, timed and
/// guarded: a panicking trial is a failed op and the batch carries on.
pub(crate) fn batch<F>(
    ph: &mut Phase,
    workers: usize,
    header: &JournalHeader,
    path: &Path,
    kind: &'static str,
    n: u64,
    trial: F,
) where
    F: Fn(u64, &mut Recorder) -> TrialResult + Sync,
{
    ph.begin_batch();
    let ops = Mutex::new(Vec::with_capacity(n as usize));
    let panics = AtomicU64::new(0);
    let start = Instant::now();
    let run = guarded(|| {
        run_campaign_journaled("bench", n, workers, None, header, |i, rec| {
            let t = Instant::now();
            let r = guarded(|| trial(i, rec)).unwrap_or_else(|| {
                panics.fetch_add(1, Ordering::Relaxed);
                TrialResult::labelled("panic")
            });
            ops.lock()
                .expect("op log lock")
                .push(Op::since(kind, i as usize, t));
            r
        })
    });
    let end = Instant::now();
    let ops = ops.into_inner().expect("op log lock");
    ph.book_call(start, end, &ops, "campaign.merge");
    ph.attempted += n;
    let panics = panics.into_inner();
    let Some((report, rec)) = run else {
        ph.failed += n;
        eprintln!(
            "check failed: campaign aborted after {} of {n} trials",
            ops.len()
        );
        return;
    };
    ph.failed += panics;

    let t = Instant::now();
    let text = rec.journal().to_jsonl();
    ph.section("journal.encode", t);
    let t = Instant::now();
    let written = vds_obs::write_atomic(path, text.as_bytes());
    ph.section("journal.write", t);

    let t = Instant::now();
    if let Err(e) = written {
        ph.fail(&format!("cannot write {}: {e}", path.display()));
    }
    let reg = rec.registry();
    let injected = reg.counter("faults.injected");
    let resolved = reg.counter("faults.detected")
        + reg.counter("faults.masked")
        + reg.counter("faults.escaped");
    if resolved != injected {
        ph.fail(&format!(
            "fault conservation: detected+masked+escaped = {resolved}, injected = {injected}"
        ));
    }
    if report.trials != n {
        ph.fail(&format!(
            "campaign reported {} of {n} trials",
            report.trials
        ));
    }
    ph.output(text.as_bytes());
    ph.output(report.to_string().as_bytes());
    ph.rounds += reg.counter("vds.committed_rounds") as f64;
    ph.add("faults.injected", injected as f64);
    ph.add("faults.detected", reg.counter("faults.detected") as f64);
    ph.add("smtsim.cycles", reg.counter("smt.cycles") as f64);
    let retired: u64 = reg
        .counters()
        .filter(|(name, _)| name.starts_with("smt.thread") && name.ends_with(".retired"))
        .map(|(_, v)| v)
        .sum();
    ph.add("smtsim.retired", retired as f64);
    ph.add("journal.bytes", text.len() as f64);
    // each lane's last entry carries the trial's final simulated time
    let entries = rec.journal().entries();
    let lane_time = entries
        .windows(2)
        .filter(|w| w[0].lane != w[1].lane)
        .map(|w| w[0].sim_time)
        .sum::<f64>()
        + entries.last().map_or(0.0, |e| e.sim_time);
    ph.add("journal.lane_time", lane_time);
    ph.section("bench.check", t);
    ph.end_batch();
}

/// The per-layer metrics both campaigns share, per pass.
pub(crate) fn layers(ph: &Phase) -> Vec<(&'static str, f64)> {
    let encode_s = ph.per_pass("journal.encode");
    let bytes = ph.per_pass("journal.bytes");
    vec![
        ("campaign.worker_idle_frac", ph.idle_frac()),
        ("campaign.merge_s", ph.per_pass("campaign.merge")),
        ("faults.injected", ph.per_pass("faults.injected")),
        (
            "faults.coverage",
            ratio(ph.sum("faults.detected"), ph.sum("faults.injected")),
        ),
        ("journal.encode_s", encode_s),
        ("journal.encode_mb_per_s", ratio(bytes / 1e6, encode_s)),
        ("journal.bytes", bytes),
        ("journal.write_s", ph.per_pass("journal.write")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_injected_panicking_trial_is_counted_and_the_batch_continues() {
        let dir = crate::scratch_dir("campaign-test").unwrap();
        let header = JournalHeader::new("campaign", "smt-det", 1, 8, 4);
        let mut ph = Phase::new(2, false);
        batch(
            &mut ph,
            2,
            &header,
            &dir.join("j.jsonl"),
            "trial",
            6,
            |i, rec| {
                assert!(i != 3, "injected failure");
                rec.count("vds.committed_rounds", 4);
                TrialResult::labelled("ok")
            },
        );
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(ph.attempted, 6);
        assert_eq!(ph.failed, 1);
        assert_eq!(ph.lat_ms.len(), 6);
        assert_eq!(ph.rounds, 20.0);
    }
}
