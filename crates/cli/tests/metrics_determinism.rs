//! Cross-crate determinism of the observability layer, end to end
//! through the CLI: for a fixed seed the exported metrics CSV and Chrome
//! trace must be byte-identical across consecutive runs and across
//! worker counts (campaign partitioning uses fixed logical shards, so
//! `--workers` may change wall-clock but never content).

use vds_cli::dispatch;

fn run(args: &[&str]) -> String {
    let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    dispatch(&v).unwrap_or_else(|e| panic!("{args:?}: {}", e.msg))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("vds-metrics-determinism");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn duplex_exports_are_bytewise_reproducible() {
    let a = tmp("dup-a.csv");
    let b = tmp("dup-b.csv");
    for p in [&a, &b] {
        run(&[
            "duplex",
            "smt-det",
            "12",
            "4",
            "--seed",
            "2024",
            "--metrics",
            p.to_str().unwrap(),
        ]);
    }
    let (csv_a, csv_b) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    assert!(!csv_a.is_empty());
    assert_eq!(csv_a, csv_b, "metrics CSV differs between identical runs");
    let trace_a = std::fs::read(a.with_extension("csv.trace.json")).unwrap();
    let trace_b = std::fs::read(b.with_extension("csv.trace.json")).unwrap();
    assert!(!trace_a.is_empty());
    assert_eq!(trace_a, trace_b, "trace differs between identical runs");
}

#[test]
fn campaign_metrics_are_invariant_across_worker_counts() {
    // E10 runs two fault-injection campaigns; its merged registry must
    // not depend on how many OS threads partitioned the trials
    let mut exports = Vec::new();
    for workers in ["1", "8"] {
        let p = tmp(&format!("e10-w{workers}.csv"));
        run(&[
            "experiment",
            "e10",
            "--rounds",
            "6",
            "--workers",
            workers,
            "--metrics",
            p.to_str().unwrap(),
        ]);
        exports.push(std::fs::read_to_string(&p).unwrap());
    }
    assert!(exports[0].contains("e10.with_diversity.campaign.trials"));
    assert_eq!(
        exports[0], exports[1],
        "campaign metrics depend on worker count"
    );
}

#[test]
fn experiment_all_exports_per_experiment_metrics() {
    // the acceptance path: `vds experiment all --metrics out.csv` at tiny
    // sizes; every experiment must contribute a prefixed metrics block
    let p = tmp("all.csv");
    run(&[
        "experiment",
        "all",
        "--rounds",
        "4",
        "--workers",
        "2",
        "--metrics",
        p.to_str().unwrap(),
    ]);
    let csv = std::fs::read_to_string(&p).unwrap();
    for k in 1..=14 {
        assert!(
            csv.contains(&format!("counter,e{k}.report.text_bytes")),
            "e{k} missing from merged export:\n{csv}"
        );
    }
}
