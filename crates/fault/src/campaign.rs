//! Parallel fault-injection campaigns.
//!
//! A campaign runs `n` independent trials, each with its own
//! deterministically derived seed, across worker threads. Trials return a
//! label (outcome class) and optionally a numeric observation (e.g.
//! detection latency); the campaign merges everything into label counts
//! and per-label streaming statistics ([`vds_obs::Summary`]: Welford
//! mean/variance, min/max, bucketed percentiles — numerically stable for
//! arbitrarily large campaigns, unlike a naive `(sum, count)` pair).
//!
//! **Determinism.** Results are *bit-identical* regardless of the worker
//! count: trials are partitioned into a fixed number of logical shards by
//! trial index (independent of `workers`), each shard accumulates its
//! trials in index order, and shards merge in shard order. Worker threads
//! only decide *who* computes a shard, never what it contains or when it
//! is merged.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use vds_obs::{JournalHeader, Recorder, Registry, Summary};

/// Number of logical shards a campaign is split into (capped by the
/// trial count). Fixed so that the shard partition — and therefore the
/// merged floating-point results — do not depend on the worker count.
pub const LOGICAL_SHARDS: u64 = 64;

/// Result of one trial.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialResult {
    /// Outcome class, e.g. `"detected-round"`, `"masked"`.
    pub label: String,
    /// Optional numeric observation (latency, rounds to detection, …).
    pub value: Option<f64>,
}

impl TrialResult {
    /// A labelled outcome without an observation.
    pub fn labelled(label: impl Into<String>) -> Self {
        TrialResult {
            label: label.into(),
            value: None,
        }
    }

    /// A labelled outcome with a numeric observation.
    pub fn with_value(label: impl Into<String>, value: f64) -> Self {
        TrialResult {
            label: label.into(),
            value: Some(value),
        }
    }
}

/// Aggregated campaign outcome.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignReport {
    /// Trials per label.
    pub counts: BTreeMap<String, u64>,
    /// Streaming statistics of numeric observations per label.
    pub observations: BTreeMap<String, Summary>,
    /// Total trials.
    pub trials: u64,
}

impl CampaignReport {
    /// Count for a label (0 if absent).
    pub fn count(&self, label: &str) -> u64 {
        self.counts.get(label).copied().unwrap_or(0)
    }

    /// Fraction of trials with this label.
    pub fn fraction(&self, label: &str) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.count(label) as f64 / self.trials as f64
        }
    }

    /// Mean numeric observation for a label, if any were recorded.
    pub fn mean_value(&self, label: &str) -> Option<f64> {
        let s = self.observations.get(label)?;
        if s.count() == 0 {
            None
        } else {
            Some(s.mean())
        }
    }

    /// Full streaming statistics for a label's observations.
    pub fn stats(&self, label: &str) -> Option<&Summary> {
        self.observations.get(label)
    }

    fn absorb(&mut self, r: TrialResult) {
        *self.counts.entry(r.label.clone()).or_insert(0) += 1;
        if let Some(v) = r.value {
            self.observations.entry(r.label).or_default().observe(v);
        }
        self.trials += 1;
    }

    /// Merge another report into this one.
    pub fn merge(&mut self, other: &CampaignReport) {
        for (l, c) in &other.counts {
            *self.counts.entry(l.clone()).or_insert(0) += c;
        }
        for (l, s) in &other.observations {
            self.observations.entry(l.clone()).or_default().merge(s);
        }
        self.trials += other.trials;
    }

    /// Mirror this report into a metrics registry: `campaign.trials`,
    /// per-label `campaign.count.<label>` counters and
    /// `campaign.value.<label>` summaries.
    pub fn export_metrics(&self, rec: &mut Recorder) {
        rec.count("campaign.trials", self.trials);
        for (l, c) in &self.counts {
            rec.count(&format!("campaign.count.{l}"), *c);
        }
        for (l, s) in &self.observations {
            rec.merge_summary(&format!("campaign.value.{l}"), s);
        }
    }
}

impl std::fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "trials: {}", self.trials)?;
        for (label, count) in &self.counts {
            write!(
                f,
                "  {:<28} {:>8}  ({:6.2}%)",
                label,
                count,
                100.0 * self.fraction(label)
            )?;
            if let Some(s) = self.observations.get(label) {
                if s.count() > 0 {
                    write!(
                        f,
                        "  mean={:.3} sd={:.3} min={:.3} max={:.3}",
                        s.mean(),
                        s.std_dev(),
                        s.min(),
                        s.max()
                    )?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Observer of a running campaign, called from worker threads.
///
/// Monitors are *read-only taps*: a campaign hands them progress events
/// and per-shard registry copies, and nothing flows back. Trial and
/// shard callbacks arrive in completion order (which varies with the
/// worker count), so a monitor must only do order-insensitive things
/// with them — counting, and merging commutative aggregates. The
/// canonical campaign result is accumulated separately, in shard order,
/// and is bit-identical with or without a monitor attached. No command
/// attaches one today; the parameter stays for the callers that pass
/// `None` positionally.
pub trait CampaignMonitor: Sync {
    /// One trial finished (called after every trial, any worker).
    fn trial_done(&self) {}

    /// One logical shard finished; `registry` is that shard's metric
    /// content (already including the shard's trial recordings).
    fn shard_done(&self, registry: &Registry) {
        let _ = registry;
    }
}

/// `[lo, hi)` trial range of logical shard `s` out of `shards`.
fn shard_bounds(n: u64, shards: u64, s: u64) -> (u64, u64) {
    (s * n / shards, (s + 1) * n / shards)
}

fn run_campaign_impl<F>(
    component: &'static str,
    n: u64,
    workers: usize,
    record: bool,
    monitor: Option<&dyn CampaignMonitor>,
    journal: Option<&JournalHeader>,
    trial: F,
) -> (CampaignReport, Recorder)
where
    F: Fn(u64, &mut Recorder) -> TrialResult + Sync,
{
    let workers = workers.max(1);
    let shards = n.clamp(1, LOGICAL_SHARDS);
    let slots: Vec<Mutex<Option<(CampaignReport, Recorder)>>> =
        (0..shards).map(|_| Mutex::new(None)).collect();
    let next = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(shards as usize) {
            scope.spawn(|| loop {
                let s = next.fetch_add(1, Ordering::Relaxed);
                if s >= shards {
                    break;
                }
                let (lo, hi) = shard_bounds(n, shards, s);
                let mut local = CampaignReport::default();
                let mut rec = if record {
                    // Span merging is shard-ordered, so a shard keeps
                    // exactly its own spans (one per shard plus one per
                    // trial) on the trial-index time axis.
                    Recorder::with_span_capacity((hi - lo) as usize + 1)
                } else {
                    Recorder::disabled()
                };
                if let Some(h) = journal {
                    // trials record journal entries into the shard
                    // recorder; shard journals concatenate in shard (=
                    // trial) order below, so the merged journal is
                    // worker-count invariant like everything else.
                    rec.enable_journal(h.clone());
                }
                let shard_g = rec.span(component, "shard", lo as f64);
                for i in lo..hi {
                    let trial_g = rec.span(component, "trial", i as f64);
                    local.absorb(trial(i, &mut rec));
                    rec.end_span(trial_g, (i + 1) as f64);
                    if let Some(m) = monitor {
                        m.trial_done();
                    }
                }
                rec.end_span_with(shard_g, hi as f64, vec![("shard", s.into())]);
                if let Some(m) = monitor {
                    m.shard_done(rec.registry());
                }
                *slots[s as usize].lock().unwrap() = Some((local, rec));
            });
        }
    });
    let mut report = CampaignReport::default();
    let mut rec = if record {
        Recorder::new()
    } else {
        Recorder::disabled()
    };
    if let Some(h) = journal {
        rec.enable_journal(h.clone());
    }
    for slot in slots {
        let (shard_report, shard_rec) = slot
            .into_inner()
            .unwrap()
            .expect("every logical shard completes");
        report.merge(&shard_report);
        rec.merge(shard_rec);
    }
    if record {
        report.export_metrics(&mut rec);
        rec.gauge("campaign.shards", shards as f64);
        if journal.is_some() {
            // only here, after the shard merge — never inside the per-run
            // engines — so the counters are not double counted
            rec.export_journal_metrics();
        }
        rec.rollup_spans();
    }
    (report, rec)
}

/// Run `n` trials of `trial` (given the trial index as a seed component)
/// on `workers` threads. Deterministic: the result is bit-identical for
/// any worker count.
pub fn run_campaign<F>(n: u64, workers: usize, trial: F) -> CampaignReport
where
    F: Fn(u64) -> TrialResult + Sync,
{
    run_campaign_impl("campaign", n, workers, false, None, None, |i, _| trial(i)).0
}

/// [`run_campaign`] with metrics: each trial may record into a shard
/// recorder; shard registries merge in shard order (bit-deterministic),
/// and the campaign's own counters/summaries are added under
/// `campaign.*`. Shard and trial spans (on the trial-index time axis)
/// land under `component`, so callers running several campaigns into
/// one recorder (e.g. experiment E10's diverse vs identical arms) keep
/// their span lanes apart.
pub fn run_campaign_recorded_as<F>(
    component: &'static str,
    n: u64,
    workers: usize,
    trial: F,
) -> (CampaignReport, Recorder)
where
    F: Fn(u64, &mut Recorder) -> TrialResult + Sync,
{
    run_campaign_impl(component, n, workers, true, None, None, trial)
}

/// [`run_campaign_recorded_as`] with the flight-recorder journal
/// enabled: every shard recorder handed to `trial` has a journal carrying
/// a clone of `header`, so trials can journal their rounds (typically by
/// running a journaled engine and adopting its journal under the trial
/// index as lane). Shard journals concatenate in shard order into the
/// returned recorder — like every other campaign output, the merged
/// journal is **byte-identical for any worker count** — and it is
/// priced into the merged registry after the merge
/// ([`Recorder::export_journal_metrics`]).
///
/// With a [`CampaignMonitor`] attached, trial/shard completions and shard
/// registry snapshots stream to it as they happen, while the returned
/// report and recorder stay byte-identical to an unmonitored run (the
/// monitor only ever receives copies and reference taps; it cannot write
/// back).
pub fn run_campaign_journaled<F>(
    component: &'static str,
    n: u64,
    workers: usize,
    monitor: Option<&dyn CampaignMonitor>,
    header: &JournalHeader,
    trial: F,
) -> (CampaignReport, Recorder)
where
    F: Fn(u64, &mut Recorder) -> TrialResult + Sync,
{
    run_campaign_impl(component, n, workers, true, monitor, Some(header), trial)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_trials_counted() {
        let r = run_campaign(1000, 4, |i| {
            TrialResult::labelled(if i % 3 == 0 { "a" } else { "b" })
        });
        assert_eq!(r.trials, 1000);
        assert_eq!(r.count("a"), 334);
        assert_eq!(r.count("b"), 666);
        assert!((r.fraction("a") - 0.334).abs() < 1e-12);
    }

    #[test]
    fn observations_aggregate() {
        let r = run_campaign(100, 3, |i| TrialResult::with_value("lat", i as f64));
        assert_eq!(r.count("lat"), 100);
        assert!((r.mean_value("lat").unwrap() - 49.5).abs() < 1e-9);
        assert_eq!(r.mean_value("nope"), None);
        let s = r.stats("lat").unwrap();
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 99.0);
        assert!(s.variance() > 0.0);
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let f = |i: u64| {
            TrialResult::with_value(
                if i.wrapping_mul(0x9E3779B9).is_multiple_of(7) {
                    "x"
                } else {
                    "y"
                },
                (i % 13) as f64,
            )
        };
        let a = run_campaign(500, 1, f);
        let b = run_campaign(500, 8, f);
        // logical shards make the whole report bit-identical, not merely
        // equal within tolerance
        assert_eq!(a, b);
        for l in ["x", "y"] {
            assert!((a.mean_value(l).unwrap() - b.mean_value(l).unwrap()).abs() < 1e-9);
        }
    }

    #[test]
    fn recorded_campaign_metrics_are_worker_invariant() {
        let f = |i: u64, rec: &mut Recorder| {
            rec.bump("trial.custom");
            rec.observe("trial.latency", (i % 10) as f64);
            TrialResult::with_value("lat", i as f64)
        };
        let (ra, reca) = run_campaign_recorded_as("campaign", 300, 1, f);
        let (rb, recb) = run_campaign_recorded_as("campaign", 300, 7, f);
        assert_eq!(ra, rb);
        assert_eq!(reca.registry(), recb.registry());
        assert_eq!(
            reca.registry().to_csv(),
            recb.registry().to_csv(),
            "CSV export must be byte-identical across worker counts"
        );
        assert_eq!(reca.registry().counter("campaign.trials"), 300);
        assert_eq!(reca.registry().counter("campaign.count.lat"), 300);
        assert_eq!(reca.registry().counter("trial.custom"), 300);
        assert_eq!(
            reca.registry()
                .summary("campaign.value.lat")
                .unwrap()
                .count(),
            300
        );
        let shards = reca.spans().records().filter(|r| r.name == "shard");
        assert_eq!(shards.count(), LOGICAL_SHARDS as usize);
    }

    #[test]
    fn campaign_spans_are_worker_invariant() {
        let f = |i: u64, _: &mut Recorder| TrialResult::with_value("lat", i as f64);
        let (_, reca) = run_campaign_recorded_as("campaign", 150, 1, f);
        let (_, recb) = run_campaign_recorded_as("campaign", 150, 4, f);
        // one span per shard plus one per trial, merged in shard order
        assert_eq!(reca.spans().len(), 150 + LOGICAL_SHARDS as usize);
        assert_eq!(
            reca.spans().to_chrome_json(),
            recb.spans().to_chrome_json(),
            "span export must be byte-identical across worker counts"
        );
        assert!(reca
            .registry()
            .summary("span.campaign.trial.total")
            .is_some());
        let (_, recc) = run_campaign_recorded_as("custom", 10, 2, f);
        assert!(recc.spans().records().all(|s| s.component == "custom"));
    }

    /// A test monitor: counts trial and shard callbacks and merges the
    /// shard registry copies it is handed.
    #[derive(Default)]
    struct CountingMonitor {
        trials: AtomicU64,
        shards: AtomicU64,
        registry: Mutex<Registry>,
    }

    impl CampaignMonitor for CountingMonitor {
        fn trial_done(&self) {
            self.trials.fetch_add(1, Ordering::Relaxed);
        }

        fn shard_done(&self, registry: &Registry) {
            self.registry.lock().unwrap().merge(registry);
            self.shards.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn monitor_sees_everything_and_changes_nothing() {
        let f = |i: u64, rec: &mut Recorder| {
            rec.bump("trial.custom");
            TrialResult::with_value("lat", (i % 11) as f64)
        };
        let header = JournalHeader::new("campaign", "test", 1, 10, 1);
        let (plain_report, plain_rec) = run_campaign_journaled("mon", 200, 3, None, &header, f);
        let monitor = CountingMonitor::default();
        let (report, rec) = run_campaign_journaled("mon", 200, 3, Some(&monitor), &header, f);
        // canonical outputs are byte-identical with the monitor attached
        assert_eq!(plain_report, report);
        assert_eq!(plain_rec.registry().to_csv(), rec.registry().to_csv());
        assert_eq!(
            plain_rec.spans().to_chrome_json(),
            rec.spans().to_chrome_json()
        );
        assert_eq!(plain_rec.journal().to_jsonl(), rec.journal().to_jsonl());
        // and the monitor saw every trial once and every shard once, and
        // the shard copies it merged converge to the canonical counters
        assert_eq!(monitor.trials.load(Ordering::Relaxed), 200);
        assert_eq!(monitor.shards.load(Ordering::Relaxed), LOGICAL_SHARDS);
        let merged = monitor.registry.lock().unwrap();
        assert_eq!(merged.counter("trial.custom"), 200);
        assert_eq!(
            merged.counter("trial.custom"),
            rec.registry().counter("trial.custom")
        );
    }

    #[test]
    fn journaled_campaign_is_worker_invariant() {
        use vds_obs::journal::{Action, RoundEntry, Verdict};
        let trial = |i: u64, rec: &mut Recorder| {
            assert!(rec.journal_enabled());
            rec.journal_push(RoundEntry {
                seq: 0,
                lane: i,
                round: 1,
                committed: 1,
                sim_time: i as f64,
                d1: vds_obs::digest_words128(&[i as u32]),
                d2: vds_obs::digest_words128(&[i as u32]),
                verdict: if i.is_multiple_of(5) {
                    Verdict::Mismatch
                } else {
                    Verdict::Match
                },
                sched: "coschedule[v1,v2]".to_string(),
                action: Action::Commit,
                rollforward: 0,
                fault: None,
                fault_id: None,
                fault_outcome: None,
            });
            TrialResult::labelled("done")
        };
        let header = JournalHeader::new("campaign", "test", 1, 10, 1);
        let (ra, reca) = run_campaign_journaled("jc", 100, 1, None, &header, trial);
        let (rb, recb) = run_campaign_journaled("jc", 100, 4, None, &header, trial);
        assert_eq!(ra, rb);
        let j = reca.journal();
        assert_eq!(j.len(), 100);
        // entries land in trial order with gap-free seq, any worker count
        for (k, e) in j.entries().iter().enumerate() {
            assert_eq!(e.seq, k as u64);
            assert_eq!(e.lane, k as u64);
        }
        assert_eq!(j.to_jsonl(), recb.journal().to_jsonl());
        assert!(j.first_divergence(recb.journal()).is_none());
        // journal metrics exported once, after the shard merge
        assert_eq!(reca.registry().counter("journal.rounds"), 100);
        assert_eq!(reca.registry().counter("journal.divergences"), 20);
        assert!(reca.registry().counter("journal.bytes") > 0);
        // unjournaled campaigns export no journal metrics
        let (_, plain) =
            run_campaign_recorded_as("campaign", 10, 2, |_, _| TrialResult::labelled("x"));
        assert_eq!(plain.registry().counter("journal.rounds"), 0);
        assert!(plain.journal().is_empty());
    }

    #[test]
    fn zero_trials() {
        let r = run_campaign(0, 4, |_| TrialResult::labelled("never"));
        assert_eq!(r.trials, 0);
        assert_eq!(r.fraction("never"), 0.0);
    }

    #[test]
    fn display_renders() {
        let r = run_campaign(10, 2, |i| TrialResult::with_value("d", i as f64));
        let s = format!("{r}");
        assert!(s.contains("trials: 10"));
        assert!(s.contains("mean="));
    }

    #[test]
    fn shard_bounds_cover_exactly() {
        for n in [0u64, 1, 7, 63, 64, 65, 500, 1000] {
            let shards = n.clamp(1, LOGICAL_SHARDS);
            let mut covered = 0;
            for s in 0..shards {
                let (lo, hi) = shard_bounds(n, shards, s);
                assert!(lo <= hi);
                covered += hi - lo;
                if s > 0 {
                    assert_eq!(lo, shard_bounds(n, shards, s - 1).1);
                }
            }
            assert_eq!(covered, n);
        }
    }
}
