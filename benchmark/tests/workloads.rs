//! Every workload at a few ops: it runs, its outputs are identical at one
//! and two workers, and it reports exactly the metrics `BENCHMARK.json`
//! declares.

use vds_benchmark::{run, Config, MetricDef, Outcome, END_TO_END, PER_LAYER, WORKLOADS};

fn tiny(workers: usize, trace: bool) -> Config {
    Config {
        seed: 3,
        seconds: 0.0,
        workers,
        trace,
        tiny: true,
    }
}

/// Metric names in the order a result line lists them.
fn result_names(out: &Outcome) -> Vec<String> {
    let json = out.result_json();
    json.split(r#"":{"value":"#)
        .filter_map(|head| head.rsplit('"').next())
        .take(out.metrics.len())
        .map(str::to_string)
        .collect()
}

fn names(defs: &[MetricDef]) -> Vec<String> {
    defs.iter().map(|d| d.name.to_string()).collect()
}

#[test]
fn every_workload_runs_with_identical_outputs_at_one_and_two_workers() {
    for w in WORKLOADS {
        let one = run(w, &tiny(1, false)).unwrap();
        let two = run(w, &tiny(2, false)).unwrap();
        for out in [&one, &two] {
            assert!(
                out.correct(),
                "{w}: {} of {} ops failed",
                out.failed,
                out.attempted
            );
            assert_eq!(result_names(out), names(&END_TO_END), "{w}");
            assert!(
                out.metrics.iter().all(|(_, v)| *v > 0.0),
                "{w}: {:?}",
                out.metrics
            );
        }
        assert_eq!(
            one.digest, two.digest,
            "{w}: outputs depend on the worker count"
        );
    }
}

#[test]
fn traced_runs_report_every_layer_metric_and_a_ledger_that_covers_wall_time() {
    for w in WORKLOADS {
        let out = run(w, &tiny(2, true)).unwrap();
        assert!(
            out.correct(),
            "{w}: {} of {} ops failed",
            out.failed,
            out.attempted
        );
        assert_eq!(result_names(&out), names(&PER_LAYER), "{w}");
        let (last, unattributed) = *out.table.last().unwrap();
        assert_eq!(last, "unattributed", "{w}");
        // the attributed rows are disjoint slices of the wall time
        assert!(unattributed >= 0.0, "{w}: {:?}", out.table);
        let chrome = out.spans.to_chrome_json();
        assert!(
            chrome.starts_with("{\"traceEvents\":[") && chrome.contains("\"ph\":\"B\""),
            "{w}"
        );
    }
}

/// The `"name"` values of the objects in the top-level array `key`.
fn declared(text: &str, key: &str) -> Vec<(String, String)> {
    let start = text.find(&format!("\"{key}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[body.find('[').unwrap()..=body.find(']').unwrap()];
    let field = |obj: &str, f: &str| -> String {
        let at = obj.find(&format!("\"{f}\"")).map(|i| i + f.len() + 2);
        at.map(|i| obj[i..].split('"').nth(1).unwrap_or("").to_string())
            .unwrap_or_default()
    };
    body.split('}')
        .filter(|obj| obj.contains("\"name\""))
        .map(|obj| {
            (
                field(obj, "name"),
                format!("{} {}", field(obj, "unit"), field(obj, "better")),
            )
        })
        .collect()
}

#[test]
fn declared_metrics_match_benchmark_json() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let workloads: Vec<String> = declared(&text, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let want: Vec<(String, String)> = defs
            .iter()
            .map(|d| (d.name.to_string(), format!("{} {}", d.unit, d.better)))
            .collect();
        assert_eq!(declared(&text, key), want, "{key}");
    }
}
