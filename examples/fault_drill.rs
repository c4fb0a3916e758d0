//! A fault drill on the *micro* platform: three diversified program
//! versions on the cycle-level SMT machine, one injected fault, full
//! detection-vote-roll-forward recovery — then an audit of the final
//! output against the pure-Rust oracle.
//!
//! ```text
//! cargo run --release --example fault_drill
//! ```

use vds::core::micro_vds::{run_micro_with_recorder, MicroConfig, MicroFault};
use vds::core::{workload, Scheme, Victim};
use vds::fault::model::{FaultKind, FaultSite};

fn drill(name: &str, scheme: Scheme, kind: FaultKind) {
    let mut cfg = MicroConfig::new(scheme, 10);
    cfg.p_correct = 0.5;
    let fault = MicroFault {
        at_round: 6,
        victim: Victim::V2,
        kind,
    };
    let target = 30;
    let (r, img, _) = run_micro_with_recorder(&cfg, Some(fault), target, vds::obs::NoopRecorder);
    let (_, want) = workload::oracle(r.committed_rounds as u32);
    let got = &img
        [workload::ADDR_STATE as usize..(workload::ADDR_STATE + workload::STATE_WORDS) as usize];
    let verdict = if got == &want[..] {
        "OUTPUT CORRECT"
    } else {
        "OUTPUT WRONG"
    };
    println!(
        "{name:<36} [{}] {} cycles, {} detections, {} recoveries, {} rollbacks, rf {}/{}/{} (hit/miss/discard) → {verdict}",
        scheme.name(),
        r.total_time,
        r.detections,
        r.recoveries_ok,
        r.rollbacks,
        r.rollforward_hits,
        r.rollforward_misses,
        r.rollforward_discards,
    );
}

fn main() {
    println!("fault drill: fault injected into V2 during round 6 of a 30-round run (s=10)\n");

    let mem_flip = FaultKind::Transient(FaultSite::Memory { addr: 4, bit: 13 });
    let text_flip = FaultKind::Transient(FaultSite::Text { index: 9, bit: 28 });

    drill(
        "state bit flip, conventional",
        Scheme::Conventional,
        mem_flip,
    );
    drill(
        "state bit flip, deterministic RF",
        Scheme::SmtDeterministic,
        mem_flip,
    );
    drill(
        "state bit flip, probabilistic RF",
        Scheme::SmtProbabilistic,
        mem_flip,
    );
    drill(
        "state bit flip, predictive RF",
        Scheme::SmtPredictive,
        mem_flip,
    );
    println!();
    drill("program-memory flip", Scheme::SmtProbabilistic, text_flip);
    drill(
        "version crash",
        Scheme::SmtPredictive,
        FaultKind::CrashVersion,
    );

    println!("\nevery drill must end OUTPUT CORRECT: detection, vote and recovery are");
    println!("executed by real diversified programs on the cycle-level SMT machine.");
}
