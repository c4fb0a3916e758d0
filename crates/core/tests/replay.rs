//! The SMT core's replay of repeated segments on the micro VDS workload.
//!
//! `Core::advance_until_block` replays a segment it has simulated before
//! from the same scheduling state instead of simulating it again. On the
//! micro backend's diversified versions, whose steady rounds repeat, it
//! must leave the core exactly where the per-cycle scan does, while the
//! host corrupts text, data and registers, parks threads, restarts them
//! at the round entry and installs functional-unit faults (the shared
//! host loop in `crates/smtsim/tests/common`).

#[path = "../../smtsim/tests/common/mod.rs"]
mod common;

use common::replay_matches_scan;
use proptest::prelude::*;
use vds_core::workload;
use vds_smtsim::core::{Core, CoreConfig};

proptest! {
    #[test]
    fn micro_workload_replays_exactly_as_the_per_cycle_scan(
        boosted in any::<bool>(),
        pair in 0usize..3,
        rounds in 30u32..40,
        seed in any::<u64>(),
        chunk in 100u64..5000,
        host in any::<u64>(),
    ) {
        let (cfg, versions) = if boosted {
            (CoreConfig::with_threads(3), vec![1, 2, 3])
        } else {
            (CoreConfig::default(), [vec![1, 2], vec![1, 3], vec![2, 3]][pair].clone())
        };
        let base = workload::build(rounds);
        let programs: Vec<_> = versions
            .into_iter()
            .map(|k| (vds_diversity::diversify(&base, k, seed), workload::DMEM_WORDS))
            .collect();
        let mut core = Core::new(cfg);
        core.set_window_recording(true);
        for (prog, dmem_words) in &programs {
            core.add_thread(prog, *dmem_words);
        }
        replay_matches_scan(core, &programs, chunk, host, 400);
    }
}
