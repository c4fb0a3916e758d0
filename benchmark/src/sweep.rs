//! `param-sweep`: `vds sweep` on the abstract backend over α × s ×
//! scheme × q, exported to CSV and JSONL and written the way the CLI
//! writes them. One sweep is one pass.

use crate::harness::{guarded, median_secs, ratio, Op, Phase};
use crate::{Config, Workload};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::thread::{self, ThreadId};
use std::time::Instant;
use vds_core::abstract_vds::{self, AbstractConfig};
use vds_core::FaultModel;
use vds_sweep::engine::BETA;
use vds_sweep::export::{to_csv, to_jsonl};
use vds_sweep::{run_sweep, CellResult, GridSpec};

/// 8 α × 4 s × 6 schemes × 4 q = 768 cells. Per-cell cost grows with the
/// fault pressure q·s, which this grid spans; cells at one (s, q) share a
/// memoized conventional baseline.
const AXES: &str = "alpha=0.55,0.6,0.65,0.7,0.75,0.8,0.85,0.9;s=5,10,20,40;\
                    scheme=conventional,smt-det,smt-prob,smt-pred,smt-boost3,smt-boost5;\
                    q=0,0.01,0.02,0.05";
const TINY_AXES: &str = "alpha=0.6,0.8;s=5,10;scheme=conventional,smt-prob;q=0,0.05";

pub(crate) struct Sweep {
    spec: GridSpec,
    csv: PathBuf,
    jsonl: PathBuf,
}

fn grid(axes: &str, rounds: u64, seed: u64) -> Result<GridSpec, String> {
    GridSpec::parse_inline(&format!("{axes};rounds={rounds};seed={seed}"))
}

impl Workload for Sweep {
    /// Parse the grid and warm up with one untimed sweep over it at half
    /// the rounds.
    fn setup(cfg: &Config, dir: &Path) -> Result<Self, String> {
        let (axes, rounds) = if cfg.tiny {
            (TINY_AXES, 200)
        } else {
            (AXES, 40_000)
        };
        let warm = grid(axes, rounds / 2, cfg.seed)?;
        guarded(|| black_box(run_sweep(&warm, cfg.workers, None, &BTreeMap::new(), None)));
        Ok(Sweep {
            spec: grid(axes, rounds, cfg.seed)?,
            csv: dir.join("sweep.csv"),
            jsonl: dir.join("sweep.csv.jsonl"),
        })
    }

    fn pass(&mut self, cfg: &Config, ph: &mut Phase) {
        let spec = &self.spec;
        ph.begin_batch();
        let cells = spec.cell_count();
        let ops = Mutex::new(Vec::with_capacity(cells as usize));
        let last: Mutex<Vec<(ThreadId, Instant)>> = Mutex::new(Vec::new());
        let start = Instant::now();
        // a cell's latency is the gap since the previous callback on
        // its worker, or since the call began for a worker's first cell
        let on_cell = |r: &CellResult| {
            let now = Instant::now();
            let me = thread::current().id();
            let mut last = last.lock().expect("cell clock lock");
            let begin = match last.iter_mut().find(|(t, _)| *t == me) {
                Some((_, prev)) => std::mem::replace(prev, now),
                None => {
                    last.push((me, now));
                    start
                }
            };
            ops.lock().expect("op log lock").push(Op {
                kind: "sweep.cells",
                slot: r.cell.index as usize,
                thread: me,
                start: begin,
                end: now,
            });
        };
        let outcome =
            guarded(|| run_sweep(spec, cfg.workers, None, &BTreeMap::new(), Some(&on_cell)));
        let end = Instant::now();
        let ops = ops.into_inner().expect("op log lock");
        ph.book_call(start, end, &ops, "sweep.merge");
        ph.attempted += cells;
        let Some(outcome) = outcome else {
            ph.failed += cells;
            eprintln!(
                "check failed: sweep aborted after {} of {cells} cells",
                ops.len()
            );
            return;
        };

        let t = Instant::now();
        let csv = to_csv(&outcome.results);
        let jsonl = to_jsonl(&outcome.results);
        ph.section("sweep.export", t);
        let t = Instant::now();
        let written = vds_obs::write_atomic(&self.csv, csv.as_bytes())
            .and_then(|()| vds_obs::write_atomic(&self.jsonl, jsonl.as_bytes()));
        ph.section("sweep.write", t);

        let t = Instant::now();
        if let Err(e) = written {
            ph.fail(&format!("cannot write sweep exports: {e}"));
        }
        let rows = csv.lines().count() as u64;
        if rows != cells + 1 || jsonl.lines().count() as u64 != cells {
            ph.fail(&format!("sweep CSV has {rows} lines for {cells} cells"));
        }
        ph.output(csv.as_bytes());
        ph.output(jsonl.as_bytes());
        ph.rounds += outcome
            .results
            .iter()
            .map(|r| r.committed_rounds)
            .sum::<u64>() as f64;
        ph.add("sweep.memo_hits", outcome.baseline_memo_hits as f64);
        ph.add("sweep.cells_done", cells as f64);
        ph.section("bench.check", t);
        ph.end_batch();
    }

    fn layers(&self, cfg: &Config, ph: &Phase) -> Vec<(&'static str, f64)> {
        let mut v = vec![
            ("sweep.cell_busy_s", ph.per_pass("sweep.cells")),
            ("sweep.worker_idle_frac", ph.idle_frac()),
            ("sweep.merge_s", ph.per_pass("sweep.merge")),
            ("sweep.export_s", ph.per_pass("sweep.export")),
            ("sweep.write_s", ph.per_pass("sweep.write")),
            (
                "sweep.memo_hit_ratio",
                ratio(ph.sum("sweep.memo_hits"), ph.sum("sweep.cells_done")),
            ),
        ];
        v.extend(self.probes(cfg));
        v
    }
}

impl Sweep {
    /// Layer probes: the per-sweep α stamp (the only smtsim work a sweep
    /// does), the abstract engine on sampled cells, and the closed forms
    /// every cell prices itself with.
    fn probes(&self, cfg: &Config) -> Vec<(&'static str, f64)> {
        let reps = if cfg.tiny { 1 } else { 3 };
        let core = vds_smtsim::core::CoreConfig::default();
        let kernel = vds_smtsim::kernels::matmul(6, 1);
        let mut cycles = 0;
        let stamp_s = median_secs(reps, || {
            if let Ok(l) = vds_smtsim::alpha::measure_ledger(&core, &kernel, &kernel) {
                cycles = l.t_a + l.t_b + l.t_pair;
            }
        });
        let cells = self.spec.cells();
        let sampled: Vec<_> = cells.iter().step_by(32).collect();
        let mut rounds = 0;
        let abstract_s = median_secs(reps, || {
            rounds = 0;
            for c in &sampled {
                let cfg = AbstractConfig::new(
                    vds_analytic::Params::with_beta(c.alpha, BETA, c.s),
                    c.scheme,
                );
                let fm = if c.q > 0.0 {
                    FaultModel::PerRound { q: c.q }
                } else {
                    FaultModel::None
                };
                rounds += abstract_vds::run(&cfg, fm, c.rounds, c.seed).committed_rounds;
            }
        });
        let evals = 100 * cells.len();
        let closed_s = median_secs(reps, || {
            for _ in 0..100 {
                for c in &cells {
                    let p = vds_analytic::Params::with_beta(black_box(c.alpha), BETA, c.s);
                    black_box(vds_analytic::timing::g_round_exact(&p));
                    black_box(vds_analytic::schemes::gbar(c.scheme.name(), &p, 0.5));
                }
            }
        }) / evals as f64;
        vec![
            ("sweep.alpha_stamp_s", stamp_s),
            ("smtsim.cycles", cycles as f64),
            (
                "smtsim.host_ns_per_cycle",
                ratio(stamp_s * 1e9, cycles as f64),
            ),
            (
                "abstract.mrounds_per_s",
                ratio(rounds as f64 / 1e6, abstract_s),
            ),
            ("analytic.closed_form_ns", closed_s * 1e9),
        ]
    }
}
