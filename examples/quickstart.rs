//! Quickstart: the paper's model and the executable VDS in thirty lines.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use vds::analytic::{predictive, rollforward, timing, Params};
use vds::core::abstract_vds::{run, AbstractConfig};
use vds::core::micro_vds::{run_micro_with_recorder, MicroConfig, MicroFault};
use vds::core::{FaultModel, Scheme, Victim};
use vds::fault::model::{FaultKind, FaultSite};

fn main() {
    // The paper's operating point: α = 0.65 (Pentium 4), β = 0.1, s = 20.
    let params = Params::paper_default();

    println!("== closed forms (vds-analytic) ==");
    println!(
        "normal-processing speedup  G_round      = {:.3}  (≈ 1/α = {:.3})",
        timing::g_round_exact(&params),
        timing::g_round_approx(&params)
    );
    println!(
        "deterministic roll-forward Ḡ_det        = {:.3}  (profitable for α < {:.3})",
        rollforward::gbar_det_exact(&params),
        rollforward::det_alpha_threshold()
    );
    println!(
        "predictive, random picks   Ḡ_corr(p=.5) = {:.3}",
        predictive::gbar_corr_exact(&params, 0.5)
    );
    println!(
        "limit                      G_max        = {:.3}  (the paper's 1.38)",
        predictive::g_max(0.65, 0.1, 0.5)
    );

    println!("\n== the executable VDS (vds-core, abstract backend) ==");
    let n = 10_000;
    let q = 0.01; // per-round fault probability
    for scheme in [
        Scheme::Conventional,
        Scheme::SmtDeterministic,
        Scheme::SmtProbabilistic,
        Scheme::SmtPredictive,
    ] {
        let cfg = AbstractConfig::new(params, scheme);
        let r = run(&cfg, FaultModel::PerRound { q }, n, 42);
        println!(
            "{:<14} {} rounds in {:>9.1} time  (throughput {:.4}, {} recoveries, {} rollbacks)",
            scheme.name(),
            r.committed_rounds,
            r.total_time,
            r.throughput(),
            r.recoveries_ok,
            r.rollbacks
        );
    }
    println!("\nSMT schemes finish the same work in less time — Eq. (4) and Eq. (13) at work.");

    println!("\n== where the time goes (vds-obs profiler spans) ==");
    // A recorded micro-VDS run on the cycle-level SMT core: metrics land
    // in a CSV, the phase spans in a Chrome trace-event JSON.
    let cfg = MicroConfig::new(Scheme::SmtDeterministic, 10);
    let fault = MicroFault {
        at_round: 4,
        victim: Victim::V2,
        kind: FaultKind::Transient(FaultSite::Memory { addr: 4, bit: 9 }),
    };
    let (report, _, rec) =
        run_micro_with_recorder(&cfg, Some(fault), 15, vds::obs::Recorder::new());
    println!(
        "smt-det micro run: {} rounds committed, {} detection(s), {} recovery(ies)",
        report.committed_rounds, report.detections, report.recoveries_ok
    );
    let dir = std::env::temp_dir();
    let csv_path = dir.join("quickstart_metrics.csv");
    let trace_path = dir.join("quickstart_metrics.csv.trace.json");
    std::fs::write(&csv_path, rec.registry().to_csv()).expect("write metrics CSV");
    std::fs::write(&trace_path, rec.spans().to_chrome_json()).expect("write Chrome trace");
    println!("metrics CSV     : {}", csv_path.display());
    println!("Chrome trace    : {}", trace_path.display());
    println!(
        "open the trace  : visit https://ui.perfetto.dev and load {}",
        trace_path.display()
    );
}
