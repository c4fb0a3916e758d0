//! Byte pins for `vds sweep` exports on all three backends.
//!
//! Each case sweeps a small grid with fault-free (q = 0) and faulty
//! (q > 0) cells and pins three Digest128 values: the CSV export, the
//! JSONL export and the canonical `sweep.*` registry CSV. The same grid
//! is then resumed from a journal holding every other cell (written and
//! read back the way `vds sweep --resume` does) and must export the same
//! CSV and JSONL bytes. Together they freeze what a sweep cell runs, how
//! its conventional baseline is chosen and how results are priced, so a
//! refactor of the sweep engine must reproduce them exactly.
//!
//! On a deliberate behaviour change, the failure message lists every
//! case's current values in table form for regeneration.

use std::collections::BTreeMap;
use vds_obs::Digester128;
use vds_sweep::export::{csv_row, journal_header, parse_journal, to_csv, to_jsonl};
use vds_sweep::{run_sweep, GridSpec};

fn digest(text: &str) -> String {
    let mut d = Digester128::new();
    d.push_bytes(text.as_bytes());
    d.finish().to_string()
}

/// `(name, inline grid)` of every pinned sweep.
const GRIDS: [(&str, &str); 3] = [
    (
        "abstract",
        "alpha=0.55,0.75;s=10,20;scheme=conventional,smt-det,smt-prob,smt-boost5;\
         q=0,0.02;rounds=300;seed=7",
    ),
    (
        "micro",
        "backend=micro;alpha=0.65;s=10;scheme=conventional,smt-det,smt-prob;\
         q=0,0.5;rounds=20;seed=7",
    ),
    (
        "vm",
        "backend=vm;program=strhash;alpha=0.65;s=8;scheme=conventional,smt-det,smt-prob;\
         q=0,0.5;rounds=24;seed=7",
    ),
];

/// `[csv, jsonl, registry]` digests per grid, in [`GRIDS`] order.
const PINS: [[&str; 3]; 3] = [
    // abstract
    [
        "de90a017d7c6b148f6beea2ff4849bba",
        "40988812eca57cc91707b96ff836de2b",
        "f22f4aedc567943412ef24c5198536c8",
    ],
    // micro
    [
        "1a109fd5e8a9d463af56f7a8e05500ec",
        "f6ee960358063a86a35f8da6e12fde2a",
        "20568592a2bf7054e77e7851bc82f89e",
    ],
    // vm
    [
        "77ee3efba606c407b93c19a824fc648e",
        "3a02b8220cc67cc5128b120cf93b09b3",
        "0003fff288e77ffad885eb5ceeb0a396",
    ],
];

/// `[csv, jsonl, registry]` digests of a cold sweep of `spec`, after
/// checking that resuming from every other cell exports the same bytes.
fn fingerprint(spec: &GridSpec) -> [String; 3] {
    let cold = run_sweep(spec, 2, None, &BTreeMap::new(), None);
    let (csv, jsonl) = (to_csv(&cold.results), to_jsonl(&cold.results));
    let mut journal = journal_header(spec);
    for r in cold.results.iter().step_by(2) {
        journal.push_str(&csv_row(r));
        journal.push('\n');
    }
    let resume = parse_journal(&journal, spec).expect("a journal of this grid");
    let resumed = run_sweep(spec, 3, None, &resume, None);
    assert_eq!(resumed.resumed, resume.len() as u64);
    assert_eq!(to_csv(&resumed.results), csv, "resumed CSV");
    assert_eq!(to_jsonl(&resumed.results), jsonl, "resumed JSONL");
    [
        digest(&csv),
        digest(&jsonl),
        digest(&cold.registry.to_csv()),
    ]
}

#[test]
fn sweep_exports_are_pinned_on_every_backend() {
    let got: Vec<[String; 3]> = GRIDS
        .iter()
        .map(|(_, grid)| fingerprint(&GridSpec::parse_inline(grid).unwrap()))
        .collect();
    let table: String = GRIDS
        .iter()
        .zip(&got)
        .map(|((name, _), [c, j, r])| format!("    // {name}\n    [\"{c}\", \"{j}\", \"{r}\"],\n"))
        .collect();
    for ((name, _), (got, want)) in GRIDS.iter().zip(got.iter().zip(PINS)) {
        assert_eq!(got, &want, "{name} sweep moved; current pins:\n{table}");
    }
}

#[test]
fn every_pinned_grid_has_fault_free_and_faulty_cells() {
    for (name, grid) in GRIDS {
        let spec = GridSpec::parse_inline(grid).unwrap();
        let qs: Vec<f64> = spec.cells().iter().map(|c| c.q).collect();
        assert!(qs.contains(&0.0), "{name}");
        assert!(qs.iter().any(|&q| q > 0.0), "{name}");
    }
}
