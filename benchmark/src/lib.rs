//! # vds-benchmark — host time of the VDS system, end to end and per layer
//!
//! Four closed-loop workloads, each the host-time traffic of one way the
//! system is used: a fault campaign on the cycle-level micro VDS, a fault
//! campaign on the bytecode-VM VDS, a parameter sweep on the abstract
//! engine, and audits of recorded journals. Every workload calls the
//! library crates' public functions from outside; nothing inside them is
//! instrumented.
//!
//! A run builds the workload's inputs from the seed (`Workload::setup`,
//! done `SETUP_REPS` times so its median is `setup_s`), then runs short
//! whole passes over a fixed schedule until the requested seconds have
//! elapsed and at least `MIN_PASSES` passes and `MIN_OPS` ops have run.
//! Every pass produces the same bytes, so a pass that differs from the
//! first is a failed check, and the first pass's digest pins the outputs
//! across runs and worker counts. The host's other tenants slow stretches
//! of a run by up to 1.7×, so the time metrics come from each op's
//! fastest run over the passes (see `Phase::settled`).
//!
//! An untraced run reports [`END_TO_END`]. A traced run repeats the timed
//! phase with spans and a wall-time ledger on, then runs the workload's
//! probes, and reports [`PER_LAYER`].

mod audit;
mod campaign;
mod harness;
mod heap;
mod micro;
mod sweep;
mod vm;

use harness::{percentile, Phase};
use std::path::{Path, PathBuf};
use std::time::Instant;
use vds_obs::{Digest128, JsonObj, SpanSet};

/// The workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = [
    "micro-campaign",
    "vm-campaign",
    "param-sweep",
    "journal-audit",
];

/// How many times a run sets its workload up; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Fewest ops a standard timed phase runs.
const MIN_OPS: u64 = 1000;

/// Fewest passes a standard timed phase runs, so that each op's settled
/// latency is the fastest of at least ten.
const MIN_PASSES: usize = 10;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [MetricDef; 4] = [
    def("rounds_per_s", "1/s", "higher"),
    def("op_p50_ms", "ms", "lower"),
    def("setup_s", "s", "lower"),
    def("peak_heap_mb", "MiB", "lower"),
];

/// Per-layer metrics, reported by every traced run. Sums of time, counts
/// and bytes are per pass over the workload's schedule; a metric whose
/// layer or probe a workload does not run reads 0 there.
pub const PER_LAYER: [MetricDef; 44] = [
    // micro-campaign
    def("micro.trial_busy_s", "s", "lower"),
    def("smtsim.cycles", "count", "lower"),
    def("smtsim.retired", "count", "higher"),
    def("smtsim.host_ns_per_cycle", "ns", "lower"),
    def("micro.screened_out_trials", "count", "lower"),
    def("campaign.worker_idle_frac", "ratio", "lower"),
    def("faults.injected", "count", "higher"),
    def("faults.coverage", "ratio", "higher"),
    def("smtsim.solo_mcycles_per_s", "Mcycles/s", "higher"),
    def("smtsim.pair_mcycles_per_s", "Mcycles/s", "higher"),
    def("diversity.transform_us", "us", "lower"),
    def("checkpoint.digest_ns", "ns", "lower"),
    def("obs.recorder_overhead_frac", "ratio", "lower"),
    // vm-campaign
    def("vm.trial_busy_s", "s", "lower"),
    def("vm.steps", "count", "higher"),
    def("vm.host_ns_per_step", "ns", "lower"),
    def("campaign.merge_s", "s", "lower"),
    def("journal.encode_s", "s", "lower"),
    def("journal.encode_mb_per_s", "MB/s", "higher"),
    def("journal.bytes", "bytes", "lower"),
    def("journal.write_s", "s", "lower"),
    def("vm.interp_msteps_per_s", "Msteps/s", "higher"),
    def("diversity.vm_transform_us", "us", "lower"),
    def("obs.digest128_ns", "ns", "lower"),
    // param-sweep
    def("sweep.cell_busy_s", "s", "lower"),
    def("sweep.worker_idle_frac", "ratio", "lower"),
    def("sweep.merge_s", "s", "lower"),
    def("sweep.export_s", "s", "lower"),
    def("sweep.write_s", "s", "lower"),
    def("sweep.memo_hit_ratio", "ratio", "higher"),
    def("sweep.alpha_stamp_s", "s", "lower"),
    def("abstract.mrounds_per_s", "Mrounds/s", "higher"),
    def("analytic.closed_form_ns", "ns", "lower"),
    // journal-audit
    def("cli.faults_s", "s", "lower"),
    def("cli.conformance_s", "s", "lower"),
    def("cli.audit_s", "s", "lower"),
    def("fs.read_mb_per_s", "MB/s", "higher"),
    def("journal.parse_mb_per_s", "MB/s", "higher"),
    def("forensics.s", "s", "lower"),
    def("conformance.s", "s", "lower"),
    def("audit.first_divergence_s", "s", "lower"),
    def("cli.unattributed_s", "s", "lower"),
    // every workload
    def("trace.overhead_frac", "ratio", "lower"),
    def("trace.unattributed_frac", "ratio", "lower"),
];

/// How one workload run is configured.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed every input derives from.
    pub seed: u64,
    /// Minimum seconds each timed phase runs.
    pub seconds: f64,
    /// Worker threads per parallel call.
    pub workers: usize,
    /// Run the traced phase and probes, and report [`PER_LAYER`].
    pub trace: bool,
    /// Shrink every schedule, warm-up and probe to a few ops, for tests.
    pub tiny: bool,
}

/// What one workload run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// Digest of every output byte of the first pass, in op order.
    pub digest: Digest128,
    /// [`END_TO_END`] values, or [`PER_LAYER`] values when traced, in
    /// declaration order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// The traced phase's wall-time ledger (empty when untraced).
    pub table: Vec<(&'static str, f64)>,
    /// The traced phase's and probes' spans, host microseconds.
    pub spans: SpanSet,
}

impl Outcome {
    /// Whether every op ran and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric as `{"value": v, "unit": u}`.
    pub fn result_json(&self) -> String {
        let mut metrics = JsonObj::new();
        for (d, v) in &self.metrics {
            metrics = metrics.raw(
                d.name,
                &JsonObj::new().f64("value", *v).str("unit", d.unit).finish(),
            );
        }
        JsonObj::new()
            .raw("correct", if self.correct() { "true" } else { "false" })
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .raw("metrics", &metrics.finish())
            .finish()
    }
}

/// One workload: its inputs and warm-up, one pass over its schedule, and
/// the per-layer metrics of a traced phase.
trait Workload: Sized {
    fn setup(cfg: &Config, dir: &Path) -> Result<Self, String>;
    fn pass(&mut self, cfg: &Config, ph: &mut Phase);
    fn layers(&self, cfg: &Config, ph: &Phase) -> Vec<(&'static str, f64)>;
}

/// Run one workload. Scratch files live under `out/` next to this
/// package's manifest and are removed before returning.
pub fn run(workload: &str, cfg: &Config) -> Result<Outcome, String> {
    let name = WORKLOADS
        .into_iter()
        .find(|w| *w == workload)
        .ok_or_else(|| {
            format!(
                "unknown workload `{workload}` (known: {})",
                WORKLOADS.join(", ")
            )
        })?;
    let dir = scratch_dir(name)?;
    let result = match name {
        "micro-campaign" => measure::<micro::Micro>(name, cfg, &dir),
        "vm-campaign" => measure::<vm::VmCampaign>(name, cfg, &dir),
        "param-sweep" => measure::<sweep::Sweep>(name, cfg, &dir),
        _ => measure::<audit::Audit>(name, cfg, &dir),
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Where generated files go: `out/` beside this package's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh scratch directory, unique to this process and call.
fn scratch_dir(name: &str) -> Result<PathBuf, String> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = out_dir().join(format!("work-{}-{name}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn measure<W: Workload>(name: &'static str, cfg: &Config, dir: &Path) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        workload = Some(W::setup(cfg, dir)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("SETUP_REPS > 0");
    let (plain, digest) = timed(&mut w, cfg, false);
    let mut out = Outcome {
        workload: name,
        attempted: plain.attempted,
        failed: plain.failed,
        digest,
        metrics: Vec::new(),
        table: Vec::new(),
        spans: SpanSet::with_capacity(0),
    };
    let (plain_rps, plain_lat) = plain.settled();
    if !cfg.trace {
        let values = [
            plain_rps,
            percentile(&plain_lat, 50.0),
            percentile(&setup_s, 50.0),
            percentile(&plain.batch_heap_mb, 50.0),
        ];
        out.metrics = END_TO_END.into_iter().zip(values).collect();
        return Ok(out);
    }
    let (traced, traced_digest) = timed(&mut w, cfg, true);
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    if traced_digest != digest {
        eprintln!("check failed: traced outputs differ from untraced ones");
        out.failed += 1;
    }
    out.table = traced.table();
    let unattributed = out.table.last().map_or(0.0, |(_, v)| *v);
    let mut values = w.layers(cfg, &traced);
    values.push(("trace.overhead_frac", 1.0 - traced.settled().0 / plain_rps));
    values.push(("trace.unattributed_frac", unattributed / traced.wall));
    for (k, _) in &values {
        debug_assert!(
            PER_LAYER.iter().any(|d| d.name == *k),
            "undeclared metric {k}"
        );
    }
    out.metrics = PER_LAYER
        .into_iter()
        .map(|d| {
            let v = values
                .iter()
                .find(|(k, _)| *k == d.name)
                .map_or(0.0, |(_, v)| *v);
            (d, v)
        })
        .collect();
    out.spans = traced.spans;
    Ok(out)
}

/// One timed phase: whole passes until `cfg.seconds` have elapsed and
/// enough passes and ops have run. Returns the phase and its first pass's
/// digest.
fn timed<W: Workload>(w: &mut W, cfg: &Config, traced: bool) -> (Phase, Digest128) {
    let (min_passes, min_ops) = if cfg.tiny {
        (1, 1)
    } else {
        (MIN_PASSES, MIN_OPS)
    };
    let mut ph = Phase::new(cfg.workers, traced);
    let mut first = None;
    loop {
        w.pass(cfg, &mut ph);
        let t = Instant::now();
        let d = ph.end_pass();
        match first {
            None => first = Some(d),
            Some(f) if f != d => ph.fail(&format!(
                "pass {} outputs differ from pass 1",
                ph.pass_count()
            )),
            Some(_) => {}
        }
        ph.section("bench.check", t);
        if ph.elapsed() >= cfg.seconds && ph.pass_count() >= min_passes && ph.attempted >= min_ops {
            break;
        }
    }
    ph.wall = ph.elapsed();
    (ph, first.expect("at least one pass"))
}
