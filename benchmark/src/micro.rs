//! `micro-campaign`: the `vds serve --once` fault campaign on the
//! cycle-level micro VDS (smt-prob, s = 8, 40 rounds per trial), in
//! batches, each journaled and written the way the CLI writes it.

use crate::campaign;
use crate::harness::{guarded, median_secs, percentile, ratio, Phase};
use crate::{Config, Workload};
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use vds_bench::live::{campaign_journal_header_for, campaign_trial_for};
use vds_core::micro_vds::MicroConfig;
use vds_core::{workload, Scheme};
use vds_fault::campaign::{run_campaign_recorded_as, TrialResult};
use vds_fault::model::{sample_transient_site, FaultSite};

pub(crate) const SCHEME: Scheme = Scheme::SmtProbabilistic;
pub(crate) const ROUNDS: u64 = 40;
/// A trial whose run took this many simulated cycles hit the micro
/// engine's 5M-cycle round watchdog; a regular trial takes about 32k.
const HANG_CYCLES: u64 = 5_000_000;
/// Candidates screened per campaign once the first screen falls short.
const SCREEN_CHUNK: usize = 50;
/// Give up when this many candidates hold too few regular trials.
const MAX_CANDIDATES: u64 = 20_000;

pub(crate) struct Micro {
    seed: u64,
    /// Trial indices of each batch of one pass, in op order.
    batches: Vec<Vec<u64>>,
    /// Candidate trials the screen left out because they panicked or hung.
    screened_out: u64,
    journal: PathBuf,
}

/// (trials per batch, batches per pass)
fn sizes(cfg: &Config) -> (usize, usize) {
    if cfg.tiny {
        (3, 2)
    } else {
        (200, 2)
    }
}

/// Whether trial `index` of the serve campaign at `seed` injects its
/// fault into a register or data memory rather than into the program
/// text. This repeats the draws `campaign_trial_for` makes before it
/// runs anything.
///
/// Only text faults make a version hang until the round watchdog (1.7%
/// of them, each costing about 200 regular trials' host time) or panic
/// (`micro_vds` on `normal round: unexpected Halted`). How many of those
/// a seed draws swung set-up time 3× between seeds, so the workload
/// runs the data-fault trials only.
pub(crate) fn data_fault(index: u64, seed: u64) -> bool {
    let mut rng = SmallRng::seed_from_u64(
        index.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed) ^ 0x5EE7,
    );
    let _victim: bool = rng.gen();
    let _at_round = rng.gen_range(1..=MicroConfig::new(SCHEME, 8).s);
    let text_len = workload::build(4).text.len() as u32 + 8;
    let site = sample_transient_site(&mut rng, workload::DMEM_WORDS as u32, text_len);
    !matches!(site, FaultSite::Text { .. })
}

/// The serve campaign's data-fault trial indices at `seed`, in order,
/// among its first `MAX_CANDIDATES` trials.
pub(crate) fn data_fault_trials(seed: u64) -> impl Iterator<Item = u64> {
    (0..MAX_CANDIDATES).filter(move |&i| data_fault(i, seed))
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Regular,
    /// A version hung until the round watchdog fired: ~5M simulated
    /// cycles, about 200 times a regular trial's host time.
    Hang,
    /// `micro_vds` panics on a version that halts mid-round.
    Panic,
}

/// Run the serve campaign's trials `indices` at `seed` once, unjournaled,
/// and classify each by what its run did.
fn screen(workers: usize, seed: u64, indices: &[u64]) -> Vec<(u64, Class)> {
    let classes = Mutex::new(Vec::with_capacity(indices.len()));
    guarded(|| {
        run_campaign_recorded_as("bench", indices.len() as u64, workers, |i, rec| {
            let index = indices[i as usize];
            let before = rec.registry().counter("smt.cycles");
            let result = guarded(|| campaign_trial_for(SCHEME, index, seed, ROUNDS, rec));
            let class = match &result {
                None => Class::Panic,
                Some(_) if rec.registry().counter("smt.cycles") - before >= HANG_CYCLES => {
                    Class::Hang
                }
                Some(_) => Class::Regular,
            };
            classes.lock().expect("screen lock").push((index, class));
            result.unwrap_or_else(|| TrialResult::labelled("panic"))
        })
    });
    let mut classes = classes.into_inner().expect("screen lock");
    classes.sort_unstable_by_key(|&(i, _)| i);
    classes
}

impl Workload for Micro {
    /// Screen the campaign's data-fault trials in index order and fill
    /// the batches with the first ones that neither hang nor panic (none
    /// has, at any seed tried), so that every timed op is expected to
    /// succeed. The screen doubles as warm-up.
    fn setup(cfg: &Config, dir: &Path) -> Result<Self, String> {
        let (batch, batches) = sizes(cfg);
        let need = batch * batches;
        let mut candidates = data_fault_trials(cfg.seed);
        let (mut regular, mut screened_out) = (Vec::with_capacity(need), 0);
        while regular.len() < need {
            let chunk: Vec<u64> = candidates
                .by_ref()
                .take(if regular.is_empty() {
                    need
                } else {
                    SCREEN_CHUNK
                })
                .collect();
            if chunk.is_empty() {
                return Err(format!(
                    "{MAX_CANDIDATES} candidate trials hold fewer than {need} regular trials"
                ));
            }
            for (index, class) in screen(cfg.workers, cfg.seed, &chunk) {
                match class {
                    Class::Regular if regular.len() < need => regular.push(index),
                    Class::Regular => {}
                    Class::Hang | Class::Panic => screened_out += 1,
                }
            }
        }
        Ok(Micro {
            seed: cfg.seed,
            batches: regular.chunks(batch).map(<[u64]>::to_vec).collect(),
            screened_out,
            journal: dir.join("micro.journal.jsonl"),
        })
    }

    fn pass(&mut self, cfg: &Config, ph: &mut Phase) {
        for trials in &self.batches {
            let n = trials.len() as u64;
            let header = campaign_journal_header_for(SCHEME, n, self.seed, ROUNDS);
            campaign::batch(
                ph,
                cfg.workers,
                &header,
                &self.journal,
                "micro.trials",
                n,
                |i, rec| campaign_trial_for(SCHEME, trials[i as usize], self.seed, ROUNDS, rec),
            );
        }
    }

    fn layers(&self, cfg: &Config, ph: &Phase) -> Vec<(&'static str, f64)> {
        let busy = ph.per_pass("micro.trials");
        let cycles = ph.per_pass("smtsim.cycles");
        let mut v = vec![
            ("micro.trial_busy_s", busy),
            ("smtsim.cycles", cycles),
            ("smtsim.retired", ph.per_pass("smtsim.retired")),
            ("smtsim.host_ns_per_cycle", ratio(busy * 1e9, cycles)),
            ("micro.screened_out_trials", self.screened_out as f64),
        ];
        v.extend(campaign::layers(ph));
        v.extend(probes(cfg));
        v
    }
}

/// Layer probes on this workload's programs: the cycle loop solo and
/// co-scheduled on diversified versions, the diversity transform, the
/// checkpoint digest, and the recorder's cost on E10's campaign.
fn probes(cfg: &Config) -> Vec<(&'static str, f64)> {
    let (rounds, reps, trials) = if cfg.tiny { (4, 2, 4) } else { (2000, 50, 400) };
    let core = MicroConfig::new(SCHEME, 8).core;
    let base = workload::build(rounds);
    let v1 = vds_diversity::diversify(&base, 1, cfg.seed);
    let v2 = vds_diversity::diversify(&base, 2, cfg.seed);
    let mut solo_cycles = 0;
    let solo_s = median_secs(3, || {
        solo_cycles =
            vds_smtsim::alpha::run_to_completion(&core, &v1, workload::DMEM_WORDS).unwrap_or(0);
    });
    let mut pair_cycles = 0;
    let pair_s = median_secs(3, || {
        pair_cycles = vds_smtsim::alpha::run_pair(
            &core,
            (&v1, workload::DMEM_WORDS),
            (&v2, workload::DMEM_WORDS),
        )
        .unwrap_or(0);
    });
    let transform_s = median_secs(reps, || {
        for index in 1..=3 {
            black_box(vds_diversity::diversify(black_box(&base), index, cfg.seed));
        }
    }) / 3.0;
    let image = vec![0x5A5A_5A5Au32; workload::DMEM_WORDS];
    let digest_s = median_secs(reps, || {
        for _ in 0..1000 {
            black_box(vds_checkpoint::digest::digest_words(black_box(&image)));
        }
    }) / 1000.0;
    vec![
        (
            "smtsim.solo_mcycles_per_s",
            ratio(solo_cycles as f64 / 1e6, solo_s),
        ),
        (
            "smtsim.pair_mcycles_per_s",
            ratio(pair_cycles as f64 / 1e6, pair_s),
        ),
        ("diversity.transform_us", transform_s * 1e6),
        ("checkpoint.digest_ns", digest_s * 1e9),
        (
            "obs.recorder_overhead_frac",
            recorder_overhead(cfg.workers, trials),
        ),
    ]
}

/// E10's campaign with recording on over recording off, on the same
/// trials, minus one; medians of alternating runs. E10 draws its trials
/// from fixed seeds, none of which panic.
fn recorder_overhead(workers: usize, trials: u64) -> f64 {
    use vds_bench::e10_coverage::{campaign, campaign_recorded};
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        off.push(median_secs(1, || {
            black_box(campaign(trials, workers, 16));
        }));
        on.push(median_secs(1, || {
            black_box(campaign_recorded(trials, workers, 16));
        }));
    }
    percentile(&on, 50.0) / percentile(&off, 50.0) - 1.0
}
