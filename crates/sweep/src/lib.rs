#![forbid(unsafe_code)]

//! # vds-sweep — deterministic parallel parameter sweeps
//!
//! The paper's results are curves and surfaces over a handful of axes:
//! SMT stretch `α`, checkpoint distance `s`, recovery scheme, fault rate
//! `q`. This crate turns "run the model over a grid of those axes" into
//! one declarative, parallel, **byte-deterministic** operation:
//!
//! 1. [`grid`] — a [`GridSpec`] (inline `alpha=0.55,0.65;s=10,20;...`
//!    syntax or a minimal TOML file) expands into row-major [`Cell`]s,
//!    each with an RNG seed derived from its *coordinates* via
//!    `vds_desim::rng::child_seed`, never from position or scheduling.
//! 2. [`engine`] — [`run_sweep`] runs each cell as the
//!    `vds_core::recording::Recording` of its backend on the campaign
//!    executor's ordered parallel map; results come back in index order,
//!    the conventional reference behind every `G_round` runs once per
//!    `(backend, s, q, rounds)`, and a canonical `sweep.*`
//!    [`vds_obs::Registry`] is rebuilt single-threaded at the end.
//! 3. [`export`] — CSV / JSONL heatmap exports of the index-ordered
//!    results, plus a fingerprinted resume journal appended in
//!    completion order so a killed sweep restarts without repeating
//!    finished cells.
//!
//! The determinism contract, stated once and tested in all three
//! modules: **for a fixed grid and base seed, every exported byte is
//! identical for any worker count, with or without a progress monitor,
//! and across kill/resume boundaries.** Threads only ever decide *who*
//! computes a cell — never what it contains or where it lands.

pub mod engine;
pub mod export;
pub mod grid;

pub use engine::{run_sweep, CellResult, SweepOutcome};
pub use export::{
    csv_row, journal_header, parse_journal, to_csv, to_jsonl, to_measured_csv, CSV_HEADER,
    MEASURED_CSV_HEADER,
};
pub use grid::{Backend, Cell, GridSpec};
