//! Byte pins for the figure reports: E2 (Figure 1 timelines), E6/E7
//! (Figures 4 and 5 gain surfaces), E9 (measured α) and E10 (the micro
//! platform's fault-injection coverage).
//!
//! Each entry is the Digest128 of one rendered output at a small size:
//! the report text, every named data block, and for E2 the Chrome JSON
//! of the span set the engine exported. Any refactor of the span
//! recording, the Gantt/TSV renderers, the surface renderers or the
//! summary statistics must reproduce these bytes exactly. None of these
//! outputs depends on the `obs` cargo feature: the Figure 1 spans reach
//! the recorder directly, not through the `obs_*!` macros.
//!
//! On a deliberate change, the failure message lists every current value
//! in table form for regeneration.

use vds_bench::{e02_timelines, e06_fig4, e07_fig5, e09_alpha, e10_coverage, Report};
use vds_obs::Digester128;

fn digest(text: &str) -> String {
    let mut d = Digester128::new();
    d.push_bytes(text.as_bytes());
    d.finish().to_string()
}

/// `(output name, digest)` for the text and each data block of `r`.
fn outputs(r: &Report) -> Vec<(String, String)> {
    let mut out = vec![(format!("{} text", r.id), digest(&r.text))];
    for (name, block) in &r.data {
        out.push((format!("{} {name}", r.id), digest(block)));
    }
    out
}

fn check(pins: &[(&str, &str)], actual: &[(String, String)]) {
    let table: String = actual
        .iter()
        .map(|(name, d)| format!("        (\"{name}\", \"{d}\"),\n"))
        .collect();
    let names: Vec<&str> = actual.iter().map(|(n, _)| n.as_str()).collect();
    let pinned: Vec<&str> = pins.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, pinned, "pinned outputs changed; current:\n{table}");
    for ((name, d), (_, want)) in actual.iter().zip(pins) {
        assert_eq!(d, want, "{name} moved; current:\n{table}");
    }
}

#[test]
fn figure1_timelines_match_their_pins() {
    let r = e02_timelines::report(4, 10, 80);
    let mut actual = outputs(&r);
    actual.push(("E2 spans".into(), digest(&r.spans.to_chrome_json())));
    check(
        &[
            ("E2 text", "8a6af42a440800a44904f5d06a29be3c"),
            (
                "E2 timeline_conventional.tsv",
                "3760e78174a56cb3b7a6f9da64e25405",
            ),
            (
                "E2 timeline_smt-prob.tsv",
                "0727ea48dd00439e57b15263d20d65d6",
            ),
            ("E2 spans", "d70cc17c14528c1a7dcc1a46d1747013"),
        ],
        &actual,
    );
}

#[test]
fn gain_surfaces_match_their_pins() {
    let mut actual = outputs(&e06_fig4::report());
    actual.extend(outputs(&e07_fig5::report()));
    check(
        &[
            ("E6 text", "a8bfda3d91065584ec44854d729cd0ca"),
            ("E6 surface_long.csv", "40ae00e3c92506b02361cb3ab6455614"),
            ("E6 surface_matrix.tsv", "249b24b222c366667e09bed6a0895d06"),
            ("E7 text", "324b2f9b5360fcd4658ad110f44ce2f3"),
            ("E7 surface_long.csv", "4e517e3d28b10fa23c8d1a2a221842aa"),
            ("E7 surface_matrix.tsv", "163d3b1b3409da66d1c6eaeecea8b2db"),
        ],
        &actual,
    );
}

#[test]
fn measured_alpha_text_matches_its_pin() {
    let r = e09_alpha::report(1);
    check(
        &[("E9 text", "ad4a66b09f822bafdf06b91d53a3105e")],
        &outputs(&r)[..1],
    );
}

/// The campaign's text and table are the same bytes at every worker count.
#[test]
fn coverage_campaign_matches_its_pins_at_any_worker_count() {
    let pins = [
        ("E10 text", "18a205905d7b1ed8b5e3add1535b0d9f"),
        ("E10 coverage.csv", "a6f83a82353d653d0ca0935947d487e7"),
    ];
    for workers in [1, 2] {
        check(&pins, &outputs(&e10_coverage::report(24, workers)));
    }
}
