#![forbid(unsafe_code)]

//! # vds-bench — the figure-regeneration harness
//!
//! One module per experiment in DESIGN.md's index (E1–E18), each built
//! around a `report()` function that regenerates the corresponding paper
//! artefact (equation curve, figure surface, timeline, flow chart) and
//! returns it as printable text plus machine-readable CSV/TSV blocks.
//! `vds experiment <id|all>` runs them through the [`registry()`];
//! integration tests call the same functions with scaled-down parameters.
//!
//! | module | paper artefact |
//! |--------|----------------|
//! | [`e01_round_gain`] | Eq. (4) normal-processing speedup |
//! | [`e02_timelines`] | Figure 1 execution models |
//! | [`e03_flowcharts`] | Figures 2–3 recovery flow charts |
//! | [`e04_det_rollforward`] | Eqs. (6)–(7), α < 0.723 threshold |
//! | [`e05_prob_rollforward`] | Eq. (8) |
//! | [`e06_fig4`] / [`e07_fig5`] | Figures 4 and 5 gain surfaces |
//! | [`e08_gmax`] | the G_max limit and the headline 1.38 |
//! | [`e09_alpha`] | measured α on the SMT simulator |
//! | [`e10_coverage`] | fault-injection coverage campaign |
//! | [`e11_prediction`] | §4/§5 predictor accuracy → gain |
//! | [`e12_checkpoint`] | §2.2 interval trade-off |
//! | [`e13_multithread`] | §5 boosted variants + clock scaling |
//! | [`e14_ablation`] | design-choice ablations (fetch policy, cache, diversity) |
//! | [`e15_alpha_sweep`] | sweep-backed α-sensitivity of measured G_round |
//! | [`e16_heatmap`] | sweep-backed s × scheme heatmap under faults |
//! | [`e17_alpha_ledger`] | α-decomposition: per-cycle interference ledger |
//! | [`e18_vm_duplex`] | bytecode-VM programs duplexed: gain + coverage |

pub mod e01_round_gain;
pub mod e02_timelines;
pub mod e03_flowcharts;
pub mod e04_det_rollforward;
pub mod e05_prob_rollforward;
pub mod e06_fig4;
pub mod e07_fig5;
pub mod e08_gmax;
pub mod e09_alpha;
pub mod e10_coverage;
pub mod e11_prediction;
pub mod e12_checkpoint;
pub mod e13_multithread;
pub mod e14_ablation;
pub mod e15_alpha_sweep;
pub mod e16_heatmap;
pub mod e17_alpha_ledger;
pub mod e18_vm_duplex;
/// The recorded runs and campaign trials, under the path `benchmark/`
/// imports them by. This re-export goes away in the next change that may
/// edit `benchmark/`.
pub use vds_core::recording as live;
pub mod perf;
pub mod registry;

pub use registry::{registry, Experiment, Params as ExpParams};

/// A rendered experiment: headline text plus named data blocks.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Experiment id, e.g. `"E6"`.
    pub id: &'static str,
    /// What it reproduces.
    pub title: &'static str,
    /// Human-readable summary lines.
    pub text: String,
    /// `(name, csv/tsv content)` data blocks for external plotting.
    pub data: Vec<(String, String)>,
    /// Metrics collected while the experiment ran (deterministic content
    /// for a fixed seed; empty for purely analytic experiments that
    /// record nothing).
    pub metrics: vds_obs::Registry,
    /// Profiler spans collected while the experiment ran (empty for
    /// analytic experiments). Exported to Chrome trace JSON by the CLI's
    /// `--metrics` path.
    pub spans: vds_obs::SpanSet,
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "==== {} — {} ====", self.id, self.title)?;
        writeln!(f, "{}", self.text)?;
        for (name, block) in &self.data {
            writeln!(f, "---- data: {name} ----")?;
            writeln!(f, "{block}")?;
        }
        if !self.metrics.is_empty() {
            writeln!(f, "---- metrics ----")?;
            write!(f, "{}", self.metrics)?;
        }
        Ok(())
    }
}
