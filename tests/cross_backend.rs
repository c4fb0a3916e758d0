//! Cross-backend consistency: the micro platform, measured in cycles,
//! must obey the paper's timing model with its *own* measured parameters
//! (t, c, t', α) — closing the loop between the cycle-level machine and
//! the closed forms.

use vds::analytic::{timing, Params};
use vds::core::micro_vds::{run_micro, MicroConfig, CMP_CYCLES, CTX_SWITCH_CYCLES};
use vds::core::{workload, Scheme};
use vds::smtsim::core::{Core, CoreConfig, RunOutcome, ThreadState};

/// Cycles for one version to execute `rounds` rounds alone.
fn solo_cycles(prog: &vds::smtsim::program::Program, rounds: u32) -> u64 {
    let mut core = Core::new(CoreConfig::single_threaded());
    let t = core.add_thread(prog, workload::DMEM_WORDS);
    for _ in 0..rounds {
        assert_eq!(
            core.run_until_all_blocked(10_000_000),
            RunOutcome::AllYielded
        );
        core.resume(t);
    }
    core.cycles()
}

/// Cycles for two versions to co-run `rounds` rounds each on a 2-way core.
fn pair_cycles(
    a: &vds::smtsim::program::Program,
    b: &vds::smtsim::program::Program,
    rounds: u32,
) -> u64 {
    let mut core = Core::new(CoreConfig::default());
    let ta = core.add_thread(a, workload::DMEM_WORDS);
    let tb = core.add_thread(b, workload::DMEM_WORDS);
    for _ in 0..rounds {
        assert_eq!(
            core.run_until_all_blocked(10_000_000),
            RunOutcome::AllYielded
        );
        for t in [ta, tb] {
            if core.thread(t).state == ThreadState::Yielded {
                core.resume(t);
            }
        }
    }
    core.cycles()
}

#[test]
fn micro_round_times_obey_the_papers_model() {
    // Measure the model parameters from the machine itself…
    let base = workload::build(1_000);
    let v1 = vds::diversity::diversify(&base, 1, 2024);
    let v2 = vds::diversity::diversify(&base, 2, 2024);
    let rounds = 40u32;
    let t1 = solo_cycles(&v1, rounds) as f64 / f64::from(rounds);
    let t2 = solo_cycles(&v2, rounds) as f64 / f64::from(rounds);
    let t = 0.5 * (t1 + t2); // per-version round time
    let pair = pair_cycles(&v1, &v2, rounds) as f64 / f64::from(rounds);
    let alpha = (pair / (2.0 * t)).clamp(0.5, 1.0);

    // …and predict the VDS round times from the closed forms.
    let cfg = MicroConfig::new(Scheme::SmtProbabilistic, 1_000); // no ckpt in range
    let params = Params {
        t,
        c: f64::from(CTX_SWITCH_CYCLES),
        t_cmp: f64::from(CMP_CYCLES),
        alpha,
        s: 1_000,
    };
    let n = 40u64;
    let conv = run_micro(&MicroConfig::new(Scheme::Conventional, 1_000), None, n);
    let smt = run_micro(&cfg, None, n);
    let conv_round = conv.total_time / n as f64;
    let smt_round = smt.total_time / n as f64;

    let pred_conv = timing::t1_round(&params);
    let pred_smt = timing::tht2_round(&params);
    let err_conv = (conv_round - pred_conv).abs() / pred_conv;
    let err_smt = (smt_round - pred_smt).abs() / pred_smt;
    assert!(
        err_conv < 0.15,
        "conventional round: measured {conv_round:.1} vs model {pred_conv:.1} cycles"
    );
    assert!(
        err_smt < 0.15,
        "SMT round: measured {smt_round:.1} vs model {pred_smt:.1} cycles"
    );

    // and the measured end-to-end gain tracks Eq. (4) with the measured α
    let gain = conv.total_time / smt.total_time;
    let pred_gain = timing::g_round_exact(&params);
    assert!(
        (gain - pred_gain).abs() / pred_gain < 0.15,
        "gain: measured {gain:.3} vs Eq.(4) {pred_gain:.3} (α={alpha:.3}, t={t:.0})"
    );
}

#[test]
fn abstract_and_micro_agree_on_scheme_ordering() {
    // Fault-free throughput: SMT schemes beat conventional on both
    // backends; among SMT schemes fault-free timing is identical on the
    // abstract backend and near-identical on the micro backend.
    let n = 30u64;
    let micro_conv = run_micro(&MicroConfig::new(Scheme::Conventional, 10), None, n);
    let micro_smt = run_micro(&MicroConfig::new(Scheme::SmtProbabilistic, 10), None, n);
    assert!(micro_smt.total_time < micro_conv.total_time);

    use vds::core::abstract_vds::{run, AbstractConfig};
    use vds::core::FaultModel;
    let p = Params::paper_default();
    let a_conv = run(
        &AbstractConfig::new(p, Scheme::Conventional),
        FaultModel::None,
        n,
        1,
    );
    let a_smt = run(
        &AbstractConfig::new(p, Scheme::SmtProbabilistic),
        FaultModel::None,
        n,
        1,
    );
    assert!(a_smt.total_time < a_conv.total_time);
}
