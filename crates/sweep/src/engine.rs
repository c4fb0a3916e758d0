//! The work-stealing sweep executor.
//!
//! Cells are the work units: a shared atomic cursor hands each worker the
//! next unclaimed cell (work stealing — a slow cell never blocks the
//! rest), results land in per-cell slots and merge **in cell-index
//! order**, so every export is byte-identical for any `--workers` count.
//! The determinism contract is the same one `vds_fault::campaign` and the
//! flight-recorder journal pin: threads decide *who* computes a cell,
//! never what it contains or where it lands.
//!
//! Two hot-path economies ride along:
//!
//! * the conventional reference run behind every cell's `G_round` is
//!   **memoized** per `(backend, s, q, rounds)` — all α values and all
//!   schemes at one grid point share a single baseline execution;
//! * the engines' window digests use the batched
//!   [`vds_obs::Digester128::push_words`] loop (state stays in registers
//!   across the slice) and hash in place instead of copying data memory.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use vds_analytic::{schemes, Params};
use vds_core::abstract_vds::{self, AbstractConfig};
use vds_core::micro_vds::{run_micro, MicroConfig, MicroFault};
use vds_core::vm_vds::{run_vm_duplex, VmConfig, VmFault};
use vds_core::{FaultModel, RunReport, Scheme, Victim};
use vds_desim::rng::child_seed;
use vds_fault::campaign::CampaignMonitor;
use vds_fault::model::{FaultKind, FaultSite};
use vds_fault::vm::VmFaultSite;
use vds_obs::Registry;

use crate::grid::{Backend, Cell, GridSpec};

/// The paper's figure overhead ratio `β = c/t = t'/t` used for every
/// abstract-backend cell (the grid varies α, s, scheme and q; β stays at
/// the figures' value).
pub const BETA: f64 = 0.1;

/// Measured outcome of one grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The cell's coordinates.
    pub cell: Cell,
    /// Rounds committed (should equal `cell.rounds` unless a fail-safe
    /// shutdown ended the mission early).
    pub committed_rounds: u64,
    /// Total simulated wall time.
    pub total_time: f64,
    /// Committed rounds per simulated time unit.
    pub throughput: f64,
    /// Throughput relative to the memoized conventional reference at the
    /// same `(backend, s, q, rounds)` — the measured counterpart of
    /// Eq. (4)'s `G_round ≈ 1/α`.
    pub g_round: f64,
    /// Fraction of wall time spent in normal processing.
    pub availability: f64,
    /// Roll-forward windows whose progress survived.
    pub rf_hits: u64,
    /// Roll-forward windows that picked the faulty state.
    pub rf_misses: u64,
    /// Roll-forward windows discarded by a detection mid-window.
    pub rf_discards: u64,
    /// `hits / (hits + misses + discards)`; 0 when no window was ever
    /// attempted (zero-intent windows at i < 4 don't count as attempts).
    pub rf_hit_rate: f64,
    /// Mismatch/trap detections.
    pub detections: u64,
    /// Rollbacks (vote failures + processor stops).
    pub rollbacks: u64,
    /// Whether the cell ended in a fail-safe shutdown.
    pub shutdown: bool,
    /// Closed-form phase-blend prediction of `g_round` at this cell's
    /// coordinates ([`vds_analytic::schemes::predicted_gain`]): normal
    /// time at Eq. 4's `G_round`, recovery time at the scheme's
    /// steady-state `ḡ`, checkpoint time at parity; 0 for an empty run.
    pub predicted_g: f64,
    /// `g_round − predicted_g`: the cell's model-conformance residual
    /// (what the E15/E16 heatmaps plot as model error).
    pub residual: f64,
    /// Fault coverage: detected over injected (1.0 for fault-free cells).
    pub coverage: f64,
    /// Mean detection latency in rounds over the cell's detected faults
    /// (0 when nothing was detected).
    pub mean_detect_latency: f64,
    /// The α the attribution ledger measures on the micro core (one
    /// matmul self-pair per sweep — every cell of a run shares it, so the
    /// column lets a heatmap compare the grid's parametric α axis against
    /// what the simulated pipeline actually exhibits).
    pub measured_alpha: f64,
    /// The stall cause the ledger attributes the most co-run excess
    /// cycles to (`icache`/`dcache`/`fu`/`width`/`branch`, or `none`).
    pub dominant_stall: String,
}

impl CellResult {
    fn from_report(cell: Cell, r: &RunReport, baseline_throughput: f64) -> CellResult {
        let throughput = r.throughput();
        let attempts = r.rollforward_hits + r.rollforward_misses + r.rollforward_discards;
        let g_round = if baseline_throughput > 0.0 {
            throughput / baseline_throughput
        } else {
            0.0
        };
        let (params, p_correct) = match cell.backend {
            Backend::Abstract => {
                let cfg = abstract_config(&cell);
                (cfg.params, cfg.p_correct)
            }
            // The micro and VM engines take no closed-form parameters:
            // price them at the cell's α and s, the figures' β and the
            // paper's p = 0.5. The blend uses phase-time ratios only, so
            // cycle- or step-denominated reports price unchanged.
            Backend::Micro | Backend::Vm => (Params::with_beta(cell.alpha, BETA, cell.s), 0.5),
        };
        let predicted_g =
            schemes::predicted_gain(cell.scheme.name(), &params, p_correct, &r.phase_times())
                .unwrap_or(0.0);
        CellResult {
            cell,
            committed_rounds: r.committed_rounds,
            total_time: r.total_time,
            throughput,
            g_round,
            availability: if r.total_time > 0.0 {
                r.time_normal / r.total_time
            } else {
                0.0
            },
            rf_hits: r.rollforward_hits,
            rf_misses: r.rollforward_misses,
            rf_discards: r.rollforward_discards,
            rf_hit_rate: if attempts > 0 {
                r.rollforward_hits as f64 / attempts as f64
            } else {
                0.0
            },
            detections: r.detections,
            rollbacks: r.rollbacks,
            shutdown: r.shutdown,
            predicted_g,
            residual: g_round - predicted_g,
            coverage: r.coverage(),
            mean_detect_latency: r.mean_detect_latency_rounds(),
            measured_alpha: 0.0,
            dominant_stall: String::new(),
        }
    }
}

/// Measure the sweep's α-attribution stamp once: a matmul self-pair
/// ledger on the default micro core. Deterministic and independent of
/// the grid, so every cell of a run (and any worker count) carries the
/// same two values. The suite kernels cannot trap, so the `expect` is
/// unreachable in practice.
fn measured_alpha_stamp() -> (f64, String) {
    let cfg = vds_smtsim::core::CoreConfig::default();
    let k = vds_smtsim::kernels::matmul(6, 1);
    let ledger =
        vds_smtsim::alpha::measure_ledger(&cfg, &k, &k).expect("suite kernels run to completion");
    (ledger.alpha, ledger.dominant_stall().to_string())
}

/// Completed sweep: every cell's result in index order plus the canonical
/// `sweep.*` metrics registry (both byte-stable across worker counts).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// One result per cell, in grid (index) order.
    pub results: Vec<CellResult>,
    /// Canonical metrics: totals, per-scheme cell counts and G_round /
    /// availability / hit-rate summaries, assembled in index order.
    pub registry: Registry,
    /// Cells reused from a resume journal.
    pub resumed: u64,
    /// Baseline lookups served from the memo instead of re-executing the
    /// conventional reference.
    pub baseline_memo_hits: u64,
}

/// Rounds to bake into a micro cell's workload: twice the target plus
/// 64, so the budget stays ahead of the target plus recovery replays.
/// Saturates at `u32::MAX` for huge targets.
fn micro_workload_rounds(rounds: u64) -> u32 {
    u32::try_from(rounds)
        .unwrap_or(u32::MAX)
        .saturating_mul(2)
        .saturating_add(64)
}

/// The abstract engine's configuration for a cell.
fn abstract_config(cell: &Cell) -> AbstractConfig {
    AbstractConfig::new(Params::with_beta(cell.alpha, BETA, cell.s), cell.scheme)
}

/// Execute one cell on its backend.
fn execute(cell: &Cell) -> RunReport {
    match cell.backend {
        Backend::Abstract => {
            let cfg = abstract_config(cell);
            let fm = if cell.q > 0.0 {
                FaultModel::PerRound { q: cell.q }
            } else {
                FaultModel::None
            };
            abstract_vds::run(&cfg, fm, cell.rounds, cell.seed)
        }
        Backend::Micro => {
            let mut cfg = MicroConfig::new(cell.scheme, cell.s);
            cfg.seed = cell.seed;
            cfg.workload_rounds = cfg.workload_rounds.max(micro_workload_rounds(cell.rounds));
            // The micro platform injects placed one-shot faults rather
            // than a per-round Bernoulli draw; q > 0 selects one
            // seed-derived transient memory fault per mission.
            let fault = if cell.q > 0.0 {
                let at = 1 + (cell.seed % u64::from(cell.s)) as u32;
                let victim = if cell.seed & 1 == 0 {
                    Victim::V1
                } else {
                    Victim::V2
                };
                Some(MicroFault {
                    at_round: at,
                    victim,
                    kind: FaultKind::Transient(FaultSite::Memory { addr: 4, bit: 9 }),
                })
            } else {
                None
            };
            run_micro(&cfg, fault, cell.rounds)
        }
        Backend::Vm => {
            let mut cfg = VmConfig::new(&cell.program);
            cfg.scheme = cell.scheme;
            cfg.s = cell.s;
            cfg.seed = cell.seed;
            // Like the micro platform: q > 0 selects one seed-derived
            // placed fault per mission — a live-register flip, the site
            // class every seed program detects or masks (never escapes).
            let fault = if cell.q > 0.0 {
                Some(VmFault {
                    at_round: 1 + (cell.seed % u64::from(cell.s)) as u32,
                    victim: if cell.seed & 1 == 0 {
                        Victim::V1
                    } else {
                        Victim::V2
                    },
                    site: VmFaultSite::Reg { index: 1, bit: 5 },
                })
            } else {
                None
            };
            run_vm_duplex(&cfg, fault, cell.rounds)
        }
    }
}

/// Memoized conventional reference throughputs, keyed by
/// [`Cell::baseline_key`]. The first worker to need a key computes it
/// (under a per-key [`OnceLock`], so others block on that key only);
/// everyone else reuses the value. The computed number depends only on
/// the key and the base seed — never on which worker got there first.
struct BaselineCache {
    map: Mutex<BTreeMap<String, Arc<OnceLock<f64>>>>,
    hits: AtomicU64,
}

impl BaselineCache {
    fn new() -> Self {
        BaselineCache {
            map: Mutex::new(BTreeMap::new()),
            hits: AtomicU64::new(0),
        }
    }

    fn conventional_throughput(&self, cell: &Cell, base_seed: u64) -> f64 {
        let key = cell.baseline_key();
        let slot = {
            let mut m = self.map.lock().unwrap();
            match m.get(&key) {
                Some(s) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    Arc::clone(s)
                }
                None => {
                    let s = Arc::new(OnceLock::new());
                    m.insert(key, Arc::clone(&s));
                    s
                }
            }
        };
        *slot.get_or_init(|| {
            let mut b = cell.clone();
            b.scheme = Scheme::Conventional;
            // α does not enter conventional timing; pin it so the
            // reference is literally the same run for every α row
            b.alpha = 0.65;
            b.seed = child_seed(base_seed, &format!("baseline|{}", b.baseline_key()));
            execute(&b).throughput()
        })
    }
}

/// The per-cell metric delta streamed to a monitor as the cell finishes
/// (a monitor merges it commutatively; the canonical registry is rebuilt
/// in index order afterwards and matches the converged stream).
fn cell_registry(r: &CellResult, resumed: bool) -> Registry {
    let mut reg = Registry::new();
    reg.count("sweep.cells_done", 1);
    if resumed {
        reg.count("sweep.cells_resumed", 1);
    }
    accumulate_cell(&mut reg, r);
    reg
}

fn accumulate_cell(reg: &mut Registry, r: &CellResult) {
    reg.count(&format!("sweep.cells.scheme.{}", r.cell.scheme.name()), 1);
    reg.count("sweep.detections", r.detections);
    reg.count("sweep.rollbacks", r.rollbacks);
    reg.count("sweep.rollforward_hits", r.rf_hits);
    reg.count("sweep.rollforward_misses", r.rf_misses);
    reg.count("sweep.rollforward_discards", r.rf_discards);
    if r.shutdown {
        reg.count("sweep.shutdowns", 1);
    }
    reg.observe("sweep.g_round", r.g_round);
    reg.observe("sweep.availability", r.availability);
    if r.rf_hits + r.rf_misses + r.rf_discards > 0 {
        reg.observe("sweep.hit_rate", r.rf_hit_rate);
    }
    // first-class histogram of per-cell model error (gauges/histograms
    // only — counters feed bench work-unit accounting)
    reg.observe_hist("sweep.conformance.residual_abs", r.residual.abs());
    // fault-forensics observables, summaries only for the same reason
    reg.observe("sweep.faults.coverage", r.coverage);
    reg.observe_hist("sweep.faults.detect_latency_rounds", r.mean_detect_latency);
    // the measured-α stamp is one value per sweep — a gauge (last write
    // wins, every cell writes the same number), never a counter
    reg.gauge("sweep.alpha.measured", r.measured_alpha);
}

/// Run the sweep across `workers` threads.
///
/// * `resume` — previously completed cells (from
///   [`crate::export::parse_journal`]); they are reused verbatim, not
///   re-executed.
/// * `monitor` — read-only progress tap (one `trial_done` +
///   `shard_done(delta)` per cell, completion order). Canonical outputs
///   are byte-identical with or without a monitor.
/// * `on_cell` — called for every **newly computed** cell in completion
///   order; the CLI appends the resume-journal row here so a killed sweep
///   can pick up where it left off.
///
/// # Panics
/// Panics if `spec` fails [`GridSpec::validate`].
pub fn run_sweep(
    spec: &GridSpec,
    workers: usize,
    monitor: Option<&dyn CampaignMonitor>,
    resume: &BTreeMap<u64, CellResult>,
    on_cell: Option<&(dyn Fn(&CellResult) + Sync)>,
) -> SweepOutcome {
    spec.validate().expect("validated grid");
    let cells = spec.cells();
    let workers = workers.max(1).min(cells.len().max(1));
    let slots: Vec<Mutex<Option<CellResult>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicU64::new(0);
    let resumed = AtomicU64::new(0);
    let baseline = BaselineCache::new();
    // one α-attribution measurement per sweep, taken up front on this
    // thread so the stamp never depends on worker scheduling
    let (measured_alpha, dominant_stall) = measured_alpha_stamp();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed) as usize;
                if k >= cells.len() {
                    break;
                }
                let cell = &cells[k];
                let (res, was_resumed) = match resume.get(&cell.index) {
                    Some(prev) => {
                        resumed.fetch_add(1, Ordering::Relaxed);
                        (prev.clone(), true)
                    }
                    None => {
                        let conv = baseline.conventional_throughput(cell, spec.base_seed);
                        let report = execute(cell);
                        let mut res = CellResult::from_report(cell.clone(), &report, conv);
                        res.measured_alpha = measured_alpha;
                        res.dominant_stall = dominant_stall.clone();
                        (res, false)
                    }
                };
                if !was_resumed {
                    if let Some(cb) = on_cell {
                        cb(&res);
                    }
                }
                if let Some(m) = monitor {
                    m.trial_done();
                    m.shard_done(&cell_registry(&res, was_resumed));
                }
                *slots[k].lock().unwrap() = Some(res);
            });
        }
    });
    let results: Vec<CellResult> = slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("every cell completes"))
        .collect();
    let resumed = resumed.into_inner();
    let baseline_memo_hits = baseline.hits.into_inner();
    // canonical registry, rebuilt single-threaded in index order
    let mut registry = Registry::new();
    registry.count("sweep.cells_total", cells.len() as u64);
    registry.count("sweep.cells_done", cells.len() as u64);
    registry.count("sweep.cells_resumed", resumed);
    registry.count("sweep.baseline_memo_hits", baseline_memo_hits);
    for r in &results {
        accumulate_cell(&mut registry, r);
    }
    SweepOutcome {
        results,
        registry,
        resumed,
        baseline_memo_hits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid() -> GridSpec {
        GridSpec::parse_inline(
            "alpha=0.55,0.75;s=10,20;scheme=conventional,smt-det,smt-prob;q=0,0.02;rounds=200",
        )
        .unwrap()
    }

    #[test]
    fn sweep_is_worker_count_invariant() {
        let g = small_grid();
        let a = run_sweep(&g, 1, None, &BTreeMap::new(), None);
        let b = run_sweep(&g, 8, None, &BTreeMap::new(), None);
        assert_eq!(a.results, b.results);
        assert_eq!(a.registry, b.registry);
        assert_eq!(
            a.registry.to_csv(),
            b.registry.to_csv(),
            "registry export must be byte-identical across worker counts"
        );
        assert_eq!(a.results.len(), 2 * 2 * 3 * 2);
    }

    #[test]
    fn fault_free_smt_cells_approach_one_over_alpha() {
        let g =
            GridSpec::parse_inline("alpha=0.55,0.95;s=20;scheme=smt-det;q=0;rounds=400").unwrap();
        let out = run_sweep(&g, 2, None, &BTreeMap::new(), None);
        for r in &out.results {
            // Eq. (4): G_round = T1/THT2 ≈ 1/α, exact form with β = 0.1
            let p = Params::with_beta(r.cell.alpha, BETA, r.cell.s);
            let expect = vds_analytic::timing::g_round_exact(&p);
            assert!(
                (r.g_round - expect).abs() < 1e-6,
                "alpha={} got {} want {expect}",
                r.cell.alpha,
                r.g_round
            );
            assert!(r.availability > 0.9);
            assert_eq!(r.detections, 0);
        }
    }

    #[test]
    fn conformance_residuals_vanish_fault_free_and_stay_finite_with_faults() {
        let g = GridSpec::parse_inline(
            "alpha=0.55,0.75;s=20;scheme=conventional,smt-det,smt-prob;q=0,0.02;rounds=400",
        )
        .unwrap();
        let out = run_sweep(&g, 2, None, &BTreeMap::new(), None);
        for r in &out.results {
            assert!(r.predicted_g > 0.0, "{}", r.cell.key());
            assert!(r.residual.is_finite(), "{}", r.cell.key());
            assert!(
                (r.residual - (r.g_round - r.predicted_g)).abs() < 1e-15,
                "{}",
                r.cell.key()
            );
            if r.cell.q == 0.0 {
                // fault-free: the blend collapses to G_round (or 1.0 for
                // the conventional reference) and the residual vanishes
                assert!(
                    r.residual.abs() < 1e-6,
                    "{}: residual {}",
                    r.cell.key(),
                    r.residual
                );
            } else {
                assert!(r.residual.abs() < 0.5, "{}: {}", r.cell.key(), r.residual);
            }
        }
        // per-cell |residual| lands in the registry's histogram
        let h = out
            .registry
            .histogram("sweep.conformance.residual_abs")
            .unwrap();
        assert_eq!(h.count(), out.results.len() as u64);
    }

    #[test]
    fn abstract_cells_are_priced_like_the_engines_own_conformance() {
        let g = GridSpec::parse_inline("alpha=0.6,0.85;s=5,20;q=0.03;rounds=300").unwrap();
        assert_eq!(g.schemes, Scheme::ALL.to_vec());
        let out = run_sweep(&g, 2, None, &BTreeMap::new(), None);
        for r in &out.results {
            let report = execute(&r.cell);
            let conf = vds_core::conformance::assess(&abstract_config(&r.cell), &report).unwrap();
            assert_eq!(r.predicted_g, conf.predicted_g, "{}", r.cell.key());
        }
        assert!(out.results.iter().any(|r| r.detections > 0));
    }

    #[test]
    fn default_pricing_constants_are_the_papers_operating_point() {
        let p = Params::paper_default();
        assert_eq!(BETA, p.beta_from_c());
        assert_eq!(vds_obs::conformance::DEFAULT_ALPHA, p.alpha);
        assert_eq!(vds_obs::conformance::DEFAULT_BETA, p.beta_from_c());
    }

    #[test]
    fn baseline_memo_shares_the_conventional_reference() {
        let g = small_grid();
        let out = run_sweep(&g, 4, None, &BTreeMap::new(), None);
        // distinct (s, q) pairs = 4 baselines; every other lookup is a hit
        let distinct = 2 * 2;
        assert_eq!(
            out.baseline_memo_hits,
            out.results.len() as u64 - distinct,
            "memo hits must be exact and worker-invariant"
        );
        assert_eq!(
            out.registry.counter("sweep.baseline_memo_hits"),
            out.baseline_memo_hits
        );
    }

    #[test]
    fn resume_reuses_cells_verbatim() {
        let g = small_grid();
        let full = run_sweep(&g, 2, None, &BTreeMap::new(), None);
        // pretend the first half was journaled before a kill
        let half: BTreeMap<u64, CellResult> = full
            .results
            .iter()
            .take(full.results.len() / 2)
            .map(|r| (r.cell.index, r.clone()))
            .collect();
        let computed = Mutex::new(0u64);
        let resumed_run = run_sweep(
            &g,
            3,
            None,
            &half,
            Some(&|_r: &CellResult| {
                *computed.lock().unwrap() += 1;
            }),
        );
        assert_eq!(resumed_run.results, full.results);
        assert_eq!(resumed_run.resumed, half.len() as u64);
        assert_eq!(
            *computed.lock().unwrap(),
            full.results.len() as u64 - half.len() as u64,
            "on_cell fires only for newly computed cells"
        );
        // totals match; only the resumed counter differs
        assert_eq!(
            resumed_run.registry.counter("sweep.cells_done"),
            full.registry.counter("sweep.cells_done")
        );
        assert_eq!(
            resumed_run.registry.counter("sweep.cells_resumed"),
            half.len() as u64
        );
    }

    #[test]
    fn micro_workload_sizing_saturates_instead_of_overflowing() {
        assert_eq!(micro_workload_rounds(0), 64);
        assert_eq!(micro_workload_rounds(500), 1064);
        // the largest target whose budget is still exact, and the next
        assert_eq!(micro_workload_rounds(2_147_483_615), u32::MAX - 1);
        assert_eq!(micro_workload_rounds(2_147_483_616), u32::MAX);
        assert_eq!(micro_workload_rounds(1 << 31), u32::MAX);
        assert_eq!(micro_workload_rounds(u64::MAX), u32::MAX);
    }

    #[test]
    fn micro_backend_cells_run_and_detect() {
        let g = GridSpec::parse_inline(
            "backend=micro;alpha=0.65;s=10;scheme=smt-det,smt-prob;q=0,0.5;rounds=20",
        )
        .unwrap();
        let out = run_sweep(&g, 2, None, &BTreeMap::new(), None);
        assert_eq!(out.results.len(), 4);
        for r in &out.results {
            assert_eq!(r.committed_rounds, 20, "{}", r.cell.key());
            if r.cell.q > 0.0 {
                assert_eq!(r.detections, 1, "{}", r.cell.key());
                // the placed state-word fault is caught in its own round
                assert!((r.coverage - 1.0).abs() < 1e-12, "{}", r.cell.key());
                assert_eq!(r.mean_detect_latency, 0.0, "{}", r.cell.key());
            } else {
                assert_eq!(r.detections, 0, "{}", r.cell.key());
                // nothing injected: vacuous full coverage
                assert!((r.coverage - 1.0).abs() < 1e-12, "{}", r.cell.key());
            }
            assert!(r.g_round > 1.0, "SMT beats conventional: {}", r.cell.key());
        }
    }

    #[test]
    fn vm_backend_cells_run_detect_and_beat_the_serial_baseline() {
        let g = GridSpec::parse_inline(
            "backend=vm;program=strhash;alpha=0.65;s=8;scheme=smt-det,smt-prob;q=0,0.5;rounds=24",
        )
        .unwrap();
        let out = run_sweep(&g, 2, None, &BTreeMap::new(), None);
        assert_eq!(out.results.len(), 4);
        for r in &out.results {
            assert_eq!(r.committed_rounds, 24, "{}", r.cell.key());
            assert!(!r.shutdown, "{}", r.cell.key());
            if r.cell.q > 0.0 {
                // one placed live-register flip: all-or-nothing coverage
                // (detected same round, or erased by the register reset)
                assert!(
                    r.coverage == 0.0 || r.coverage == 1.0,
                    "{}: coverage {}",
                    r.cell.key(),
                    r.coverage
                );
                assert_eq!(r.detections > 0, r.coverage == 1.0, "{}", r.cell.key());
            } else {
                assert_eq!(r.detections, 0, "{}", r.cell.key());
            }
            assert!(
                r.g_round > 1.0,
                "co-scheduled variants beat the serial conventional duplex: {} g={}",
                r.cell.key(),
                r.g_round
            );
        }
        // worker invariance holds for the vm backend too
        let again = run_sweep(&g, 7, None, &BTreeMap::new(), None);
        assert_eq!(out.results, again.results);
    }

    #[test]
    fn monitor_stream_converges_to_the_canonical_registry() {
        use std::sync::atomic::{AtomicU64, Ordering};
        /// Counts callbacks and merges the per-cell deltas it is handed.
        #[derive(Default)]
        struct CountingMonitor {
            trials: AtomicU64,
            merged: Mutex<Registry>,
        }
        impl CampaignMonitor for CountingMonitor {
            fn trial_done(&self) {
                self.trials.fetch_add(1, Ordering::Relaxed);
            }
            fn shard_done(&self, registry: &Registry) {
                self.merged.lock().unwrap().merge(registry);
            }
        }
        let g = small_grid();
        let monitor = CountingMonitor::default();
        let out = run_sweep(&g, 3, Some(&monitor), &BTreeMap::new(), None);
        // one trial_done per cell, and the streamed deltas converge
        assert_eq!(monitor.trials.load(Ordering::Relaxed), g.cell_count());
        let live = monitor.merged.lock().unwrap();
        assert_eq!(
            live.counter("sweep.cells_done"),
            out.registry.counter("sweep.cells_done")
        );
        assert_eq!(
            live.counter("sweep.detections"),
            out.registry.counter("sweep.detections")
        );
        // the monitor changes nothing in the canonical outputs
        let plain = run_sweep(&g, 3, None, &BTreeMap::new(), None);
        assert_eq!(plain.results, out.results);
        assert_eq!(plain.registry.to_csv(), out.registry.to_csv());
    }
}
