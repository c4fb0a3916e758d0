//! E9 — measuring α on the cycle-level SMT machine.
//!
//! The paper takes α = 0.65 from Intel's published figures; here we
//! co-schedule every ordered pair of workload kernels on the simulated
//! 2-way core and *measure* α, reporting the pair matrix and the implied
//! normal-processing gain `G_round ≈ 1/α` for each pair.

use crate::Report;
use std::fmt::Write as _;
use vds_smtsim::alpha::measure_ledger;
use vds_smtsim::core::CoreConfig;
use vds_smtsim::kernels;

/// Measure the α matrix at the given per-kernel round count.
pub fn report(rounds: u32) -> Report {
    let cfg = CoreConfig::default();
    let ks = kernels::suite(rounds);
    let mut text = String::new();
    let mut csv = String::from("kernel_a,kernel_b,t_a,t_b,t_pair,alpha\n");
    let _ = write!(text, "{:>8} |", "α");
    for k in &ks {
        let _ = write!(text, " {:>7}", k.name);
    }
    let _ = writeln!(text);
    let mut stats = vds_obs::Summary::new();
    for a in &ks {
        let _ = write!(text, "{:>8} |", a.name);
        for b in &ks {
            let m = measure_ledger(&cfg, a, b).expect("suite kernels complete");
            let _ = write!(text, " {:>7.3}", m.alpha);
            stats.observe(m.alpha);
            let (ka, kb) = (&m.kernel_a, &m.kernel_b);
            let _ = writeln!(
                csv,
                "{ka},{kb},{},{},{},{}",
                m.t_a, m.t_b, m.t_pair, m.alpha
            );
        }
        let _ = writeln!(text);
    }
    let _ = writeln!(
        text,
        "\nmeasured α: mean={:.3} min={:.3} max={:.3}  (paper assumes α≈0.65 for the Pentium 4)",
        stats.mean(),
        stats.min(),
        stats.max()
    );
    let _ = writeln!(text, "implied G_round at mean α: {:.3}", 1.0 / stats.mean());
    let _ = writeln!(
        text,
        "note: pairs of cache-thrashing kernels can exceed α = 1 (co-running\n\
         hurts) — real SMT machines show the same pathology; the paper's model\n\
         assumes workloads in the α < 1 regime"
    );
    Report {
        id: "E9",
        title: "Measured SMT contention factor α on the simulated machine",
        text,
        data: vec![("alpha_matrix.csv".into(), csv)],
        metrics: Default::default(),
        spans: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use vds_smtsim::alpha::measure_ledger;
    use vds_smtsim::core::CoreConfig;
    use vds_smtsim::kernels;

    // The full 6×6 matrix is expensive in debug builds; tests use a
    // small sub-matrix and the binary regenerates the full one.
    #[test]
    fn submatrix_alpha_values_in_model_range() {
        let cfg = CoreConfig::default();
        let ks = [kernels::crc(32, 1), kernels::control(32, 1)];
        for a in &ks {
            for b in &ks {
                let m = measure_ledger(&cfg, a, b).unwrap();
                assert!(
                    (0.45..=1.05).contains(&m.alpha),
                    "{}×{}: alpha={}",
                    a.name,
                    b.name,
                    m.alpha
                );
            }
        }
    }

    #[test]
    fn matmul_pair_near_papers_alpha() {
        let cfg = CoreConfig::default();
        let k = kernels::matmul(6, 1);
        let m = measure_ledger(&cfg, &k, &k).unwrap();
        assert!((0.5..=0.85).contains(&m.alpha), "α = {}", m.alpha);
    }
}
