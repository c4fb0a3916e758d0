//! The experiment registry: every paper artefact behind one uniform API.
//!
//! Each experiment module keeps its typed `report(...)` function; this
//! module wraps them in the [`Experiment`] trait so callers (`vds
//! experiment <id|all>`, `vds bench`, integration tests) can enumerate
//! and run them without hard-coding the list. [`Params`] carries the
//! shared size/seed/worker knobs; experiments map them onto their own
//! arguments and fall back to their defaults when a knob is absent.

use crate::Report;

/// Shared experiment parameters.
///
/// `rounds` is the generic size knob — rounds, trials or samples,
/// whatever the experiment scales by. `None` selects each experiment's
/// default: the size `vds experiment all` regenerates the paper at.
#[derive(Debug, Clone)]
pub struct Params {
    /// Size knob (rounds / trials / samples); `None` = experiment default.
    pub rounds: Option<u64>,
    /// Seed override for seeded experiments; `None` = experiment default.
    pub seed: Option<u64>,
    /// Worker threads for campaign-style experiments.
    pub workers: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            rounds: None,
            seed: None,
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

impl Params {
    /// `rounds` with a per-experiment default.
    fn rounds_or(&self, default: u64) -> u64 {
        self.rounds.unwrap_or(default)
    }
}

/// A runnable experiment.
pub trait Experiment: Sync {
    /// Stable identifier, e.g. `"E10"`.
    fn id(&self) -> &'static str;
    /// What the experiment reproduces.
    fn title(&self) -> &'static str;
    /// Run it and render the report.
    fn run(&self, p: &Params) -> Report;
}

/// Attach the standard per-report metrics every experiment exports.
fn finalize(mut r: Report) -> Report {
    r.metrics.count("report.text_bytes", r.text.len() as u64);
    r.metrics.count("report.data_blocks", r.data.len() as u64);
    r.metrics.count(
        "report.data_bytes",
        r.data.iter().map(|(_, b)| b.len() as u64).sum(),
    );
    r
}

macro_rules! experiment {
    ($struct_:ident, $id:literal, $title:literal, |$p:ident| $body:expr) => {
        struct $struct_;
        impl Experiment for $struct_ {
            fn id(&self) -> &'static str {
                $id
            }
            fn title(&self) -> &'static str {
                $title
            }
            fn run(&self, $p: &Params) -> Report {
                finalize($body)
            }
        }
    };
}

experiment!(
    E01,
    "E1",
    "Eq. (4) — normal-processing speedup of the SMT VDS",
    |p| crate::e01_round_gain::report(p.rounds_or(200))
);
experiment!(
    E02,
    "E2",
    "Figure 1 — execution models with recovery",
    |p| crate::e02_timelines::report(8, p.rounds_or(24), 140)
);
experiment!(
    E03,
    "E3",
    "Figures 2–3 — recovery flow charts (DOT export)",
    |_p| crate::e03_flowcharts::report()
);
experiment!(
    E04,
    "E4",
    "Eqs. (6)–(7) — deterministic roll-forward gain",
    |_p| crate::e04_det_rollforward::report()
);
experiment!(
    E05,
    "E5",
    "Eq. (8) — probabilistic roll-forward gain versus pick accuracy",
    |_p| crate::e05_prob_rollforward::report()
);
experiment!(
    E06,
    "E6",
    "Figure 4 — Ḡ_corr(α, β) for p = 0.5",
    |_p| crate::e06_fig4::report()
);
experiment!(
    E07,
    "E7",
    "Figure 5 — Ḡ_corr(α, β) for p = 1.0",
    |_p| crate::e07_fig5::report()
);
experiment!(
    E08,
    "E8",
    "G_max — limit of the expected recovery gain",
    |_p| crate::e08_gmax::report()
);
experiment!(
    E09,
    "E9",
    "Measured SMT contention factor α on the simulated machine",
    |p| crate::e09_alpha::report(p.rounds_or(3) as u32)
);
experiment!(
    E10,
    "E10",
    "Fault-injection coverage on the micro platform",
    |p| crate::e10_coverage::report(p.rounds_or(400), p.workers)
);
experiment!(
    E11,
    "E11",
    "Fault-version prediction accuracy and its recovery-gain value",
    |p| crate::e11_prediction::report(p.rounds_or(20_000))
);
experiment!(
    E12,
    "E12",
    "Checkpoint-interval trade-off under faults",
    |p| crate::e12_checkpoint::report(p.rounds_or(2_000))
);
experiment!(
    E13,
    "E13",
    "§5 outlook — boosted multi-thread recovery and clock scaling",
    |_p| crate::e13_multithread::report()
);
experiment!(
    E14,
    "E14",
    "Ablations — fetch policy, cache pressure, diversity transforms",
    |p| crate::e14_ablation::report(p.rounds_or(60))
);
experiment!(
    E15,
    "E15",
    "Measured α-sensitivity of G_round (sweep-backed)",
    |p| crate::e15_alpha_sweep::report(p.rounds_or(1_000), p.workers, p.seed.unwrap_or(1))
);
experiment!(
    E16,
    "E16",
    "s × scheme heatmap under stochastic faults (sweep-backed)",
    |p| crate::e16_heatmap::report(p.rounds_or(1_000), p.workers, p.seed.unwrap_or(1))
);
experiment!(
    E17,
    "E17",
    "α-decomposition: per-cycle SMT interference ledger",
    |p| crate::e17_alpha_ledger::report(p.rounds_or(2) as u32)
);
experiment!(
    E18,
    "E18",
    "Real programs under duplex: the bytecode-VM workload",
    |p| crate::e18_vm_duplex::report(p.rounds_or(24), p.seed.unwrap_or(1))
);

/// All experiments, in id order.
pub fn registry() -> &'static [&'static dyn Experiment] {
    const REGISTRY: &[&'static dyn Experiment] = &[
        &E01, &E02, &E03, &E04, &E05, &E06, &E07, &E08, &E09, &E10, &E11, &E12, &E13, &E14, &E15,
        &E16, &E17, &E18,
    ];
    REGISTRY
}

/// Look an experiment up by id, case-insensitively, accepting both the
/// short (`e1`) and zero-padded (`e01`) spellings.
pub fn find(id: &str) -> Option<&'static dyn Experiment> {
    let wanted = id.trim().trim_start_matches(['e', 'E']);
    let wanted = wanted.trim_start_matches('0');
    registry()
        .iter()
        .copied()
        .find(|e| e.id().trim_start_matches(['e', 'E']) == wanted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_ordered() {
        let ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
        assert_eq!(ids.len(), 18);
        let mut nums: Vec<u32> = ids
            .iter()
            .map(|i| i.trim_start_matches('E').parse().unwrap())
            .collect();
        let sorted = nums.clone();
        nums.sort_unstable();
        assert_eq!(nums, sorted, "registry not in id order");
        nums.dedup();
        assert_eq!(nums.len(), 18, "duplicate ids");
    }

    #[test]
    fn find_accepts_spelling_variants() {
        for probe in ["e1", "E1", "e01", "E01"] {
            assert_eq!(find(probe).unwrap().id(), "E1", "{probe}");
        }
        assert_eq!(find("e10").unwrap().id(), "E10");
        assert_eq!(find("E014").unwrap().id(), "E14");
        assert_eq!(find("e15").unwrap().id(), "E15");
        assert_eq!(find("E016").unwrap().id(), "E16");
        assert_eq!(find("e17").unwrap().id(), "E17");
        assert_eq!(find("E018").unwrap().id(), "E18");
        assert!(find("e19").is_none());
        assert!(find("bogus").is_none());
    }

    #[test]
    fn run_attaches_standard_metrics() {
        let r = find("e8").unwrap().run(&Params::default());
        assert_eq!(r.id, "E8");
        assert!(r.metrics.counter("report.text_bytes") > 0);
        assert_eq!(r.metrics.counter("report.data_blocks"), r.data.len() as u64);
    }

    #[test]
    fn trait_ids_match_report_ids() {
        // cheap experiments only; the report's own id must agree with the
        // trait's
        let p = Params {
            rounds: Some(5),
            ..Params::default()
        };
        for probe in ["e3", "e4", "e5", "e8", "e13"] {
            let e = find(probe).unwrap();
            assert_eq!(e.run(&p).id, e.id());
        }
    }
}
