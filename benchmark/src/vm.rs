//! `vm-campaign`: the `vds serve --once --workload vm:<prog>` fault
//! campaign on the bytecode-VM VDS (smt-det, 40 rounds per trial), one
//! batch per seed program, each journaled and written the way the CLI
//! writes it.

use crate::campaign;
use crate::harness::{median_secs, ratio, Phase};
use crate::{Config, Workload};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use vds_bench::live::{vm_campaign_journal_header_for, vm_campaign_trial_for};
use vds_core::Scheme;

const SCHEME: Scheme = Scheme::SmtDeterministic;
const ROUNDS: u64 = 40;
/// One batch per program per pass, in this order.
const PROGRAMS: [&str; 4] = ["checksum", "sort", "matmul", "strhash"];
const WARM_SALT: u64 = 0x5741_524D;

pub(crate) struct VmCampaign {
    seed: u64,
    batch: u64,
    journal: PathBuf,
}

impl Workload for VmCampaign {
    fn setup(cfg: &Config, dir: &Path) -> Result<Self, String> {
        let batch = if cfg.tiny { 3 } else { 150 };
        let journal = dir.join("vm.journal.jsonl");
        // warm up with one pass over other trials, and discard the phase
        let warm_seed = cfg.seed ^ WARM_SALT;
        let mut ph = Phase::new(cfg.workers, false);
        for program in PROGRAMS {
            let header = vm_campaign_journal_header_for(program, SCHEME, batch, warm_seed, ROUNDS);
            campaign::batch(
                &mut ph,
                cfg.workers,
                &header,
                &journal,
                "vm.trials",
                batch,
                |i, rec| vm_campaign_trial_for(program, SCHEME, i, warm_seed, ROUNDS, rec),
            );
        }
        Ok(VmCampaign {
            seed: cfg.seed,
            batch,
            journal,
        })
    }

    fn pass(&mut self, cfg: &Config, ph: &mut Phase) {
        for program in PROGRAMS {
            let header =
                vm_campaign_journal_header_for(program, SCHEME, self.batch, self.seed, ROUNDS);
            campaign::batch(
                ph,
                cfg.workers,
                &header,
                &self.journal,
                "vm.trials",
                self.batch,
                |i, rec| vm_campaign_trial_for(program, SCHEME, i, self.seed, ROUNDS, rec),
            );
        }
    }

    fn layers(&self, cfg: &Config, ph: &Phase) -> Vec<(&'static str, f64)> {
        let busy = ph.per_pass("vm.trials");
        // the VM backend's simulated time is interpreted instructions
        let steps = ph.per_pass("journal.lane_time");
        let mut v = vec![
            ("vm.trial_busy_s", busy),
            ("vm.steps", steps),
            ("vm.host_ns_per_step", ratio(busy * 1e9, steps)),
        ];
        v.extend(campaign::layers(ph));
        v.extend(probes(cfg));
        v
    }
}

/// Layer probes on the seed programs: the interpreter's round loop, the
/// VM diversity transform, and a Digest128 over a VM data memory.
fn probes(cfg: &Config) -> Vec<(&'static str, f64)> {
    let (rounds, reps) = if cfg.tiny { (2, 2) } else { (200, 50) };
    let mut steps = 0u64;
    let interp_s = median_secs(3, || {
        steps = 0;
        for sp in PROGRAMS.iter().filter_map(|p| vds_vm::seed_program(p)) {
            let prog = sp.assembled();
            let mut vm = vds_vm::Vm::with_mem(sp.initial_dmem(cfg.seed));
            for round in 1..=rounds {
                steps += vds_vm::run_round(&mut vm, &prog, round, None).steps;
            }
        }
    });
    let progs: Vec<vds_vm::Program> = PROGRAMS
        .iter()
        .filter_map(|p| vds_vm::seed_program(p))
        .map(|sp| sp.assembled())
        .collect();
    let transforms = progs.len() * 2;
    let transform_s = median_secs(reps, || {
        for prog in &progs {
            for index in 1..=2 {
                black_box(vds_diversity::vm::diversify_vm(
                    black_box(prog),
                    index,
                    cfg.seed,
                ));
            }
        }
    }) / transforms as f64;
    let mem = vec![0xA5A5_A5A5u32; vds_vm::DMEM_WORDS];
    let digest_s = median_secs(reps, || {
        for _ in 0..1000 {
            black_box(vds_obs::digest_words128(black_box(&mem)));
        }
    }) / 1000.0;
    vec![
        (
            "vm.interp_msteps_per_s",
            ratio(steps as f64 / 1e6, interp_s),
        ),
        ("diversity.vm_transform_us", transform_s * 1e6),
        ("obs.digest128_ns", digest_s * 1e9),
    ]
}
