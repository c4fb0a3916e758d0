//! `vds sweep` — the deterministic parallel parameter sweep.
//!
//! ```text
//! vds sweep --grid "alpha=0.55,0.65,0.75;s=10,20;scheme=smt-det,smt-prob;q=0.01"
//!           [--workers N] [--out PATH] [--json] [--resume PATH]
//!           [--metrics PATH]
//! ```
//!
//! `--grid` takes the inline axis syntax or a path to a TOML grid file
//! (omitted: the default single-point grid over all six schemes).
//! `--out PATH` writes the heatmap CSV to `PATH` and the JSONL twin to
//! `PATH.jsonl`, both atomically and byte-identical for any worker
//! count. `--json` prints the JSONL rows on stdout instead of the
//! summary table. `--resume PATH` keeps a crash-tolerant journal: cells
//! append as they finish, and a re-run against the same grid skips every
//! cell already journaled. `--metrics PATH` writes the sweep's merged
//! registry as CSV.

use crate::{write_atomic, write_metrics, CliError};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::Mutex;
use vds_obs::log_info;
use vds_sweep::export::{csv_row, journal_header, parse_journal, to_csv, to_jsonl};
use vds_sweep::{run_sweep, CellResult, GridSpec, SweepOutcome};

pub(crate) fn cmd_sweep(args: &[String]) -> Result<String, CliError> {
    let f = crate::args::SWEEP.parse(args)?;
    if f.help {
        return Ok(crate::args::SWEEP.help());
    }
    if !f.positional.is_empty() {
        return Err(CliError::usage(
            "sweep: unexpected positional arguments (axes go in --grid)",
        ));
    }
    let mut spec = match &f.grid {
        Some(arg) => {
            GridSpec::parse_arg(arg).map_err(|e| CliError::usage(format!("--grid: {e}")))?
        }
        None => GridSpec::default(),
    };
    // --rounds / --seed override the grid's own values, like everywhere else
    if let Some(r) = f.rounds {
        spec.rounds = r;
    }
    if let Some(s) = f.seed {
        spec.base_seed = s;
    }
    // --workload vm:<program> swaps the whole grid onto the bytecode-VM
    // backend; validate() below rejects unknown program names
    if let Some(w) = &f.workload {
        let name = w.strip_prefix("vm:").ok_or_else(|| {
            CliError::usage(format!(
                "--workload: `{w}` is not a workload (vm:<program>, e.g. vm:checksum)"
            ))
        })?;
        spec.backend = vds_sweep::Backend::Vm;
        spec.program = name.to_string();
    }
    spec.validate()
        .map_err(|e| CliError::usage(format!("--grid: {e}")))?;
    let workers = f
        .workers
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()));

    // resume journal: recover completed cells, then rewrite the file
    // clean (header + recovered rows) so a torn tail never accumulates
    let resumed: BTreeMap<u64, CellResult> = match &f.resume {
        Some(path) if std::path::Path::new(path).is_file() => {
            let text = crate::read_file(path)?;
            parse_journal(&text, &spec)
                .map_err(|e| CliError::runtime(format!("--resume `{path}`: {e}")))?
        }
        _ => BTreeMap::new(),
    };
    let journal_sink: Option<Mutex<std::fs::File>> = match &f.resume {
        Some(path) => {
            // publish the cleaned journal (header + recovered rows)
            // atomically, then reopen it in append mode for fresh rows: a
            // kill during the rewrite can no longer destroy the cells a
            // previous run already journaled
            let mut clean = journal_header(&spec);
            for r in resumed.values() {
                clean.push_str(&csv_row(r));
                clean.push('\n');
            }
            write_atomic(path, clean.as_bytes())
                .map_err(|e| CliError::runtime(format!("cannot write `{path}`: {e}")))?;
            let file = std::fs::OpenOptions::new()
                .append(true)
                .open(path)
                .map_err(|e| CliError::runtime(format!("cannot write `{path}`: {e}")))?;
            Some(Mutex::new(file))
        }
        None => None,
    };
    let append_row = journal_sink.as_ref().map(|m| {
        move |r: &CellResult| {
            let mut g = m.lock().unwrap_or_else(|e| e.into_inner());
            // flush per row: the journal's whole point is surviving a kill
            let _ = writeln!(g, "{}", csv_row(r));
            let _ = g.flush();
        }
    });
    let on_cell: Option<&(dyn Fn(&CellResult) + Sync)> = append_row
        .as_ref()
        .map(|w| w as &(dyn Fn(&CellResult) + Sync));

    let started = std::time::Instant::now();
    let outcome = run_sweep(&spec, workers, None, &resumed, on_cell);
    let host_secs = started.elapsed().as_secs_f64();

    let mut out = if f.json {
        to_jsonl(&outcome.results)
    } else {
        summary(&spec, &outcome, workers, host_secs)
    };
    if let Some(path) = &f.out {
        write_atomic(path, to_csv(&outcome.results).as_bytes())
            .map_err(|e| CliError::runtime(format!("cannot write `{path}`: {e}")))?;
        let jpath = format!("{path}.jsonl");
        write_atomic(&jpath, to_jsonl(&outcome.results).as_bytes())
            .map_err(|e| CliError::runtime(format!("cannot write `{jpath}`: {e}")))?;
        let note = format!("sweep CSV written to {path} (+ {jpath})\n");
        if f.json {
            log_info!("sweep", "{}", note.trim_end());
        } else {
            out.push_str(&note);
        }
    }
    if let Some(path) = &f.metrics {
        let note = write_metrics(path, &outcome.registry, None)?;
        if f.json {
            log_info!("sweep", "{}", note.trim_end());
        } else {
            out.push_str(&note);
        }
    }
    Ok(out)
}

/// Human summary: one aggregate row per scheme (index order preserves the
/// grid's scheme order), G_round and availability as means over the
/// scheme's cells, hit rate pooled over all its roll-forward windows.
fn summary(spec: &GridSpec, o: &SweepOutcome, workers: usize, host_secs: f64) -> String {
    let mut out = format!(
        "vds sweep — {} cells ({} backend), {} workers\n  grid {}\n  \
         {} resumed, {} baseline memo hits, {:.2}s host\n\n",
        o.results.len(),
        spec.backend.name(),
        workers,
        spec.canonical(),
        o.resumed,
        o.baseline_memo_hits,
        host_secs
    );
    let _ = writeln!(
        out,
        "{:<14} {:>5} {:>12} {:>11} {:>12}",
        "scheme", "cells", "mean G_round", "mean avail", "rf hit rate"
    );
    let mut order: Vec<&str> = Vec::new();
    let mut agg: BTreeMap<&str, (u64, f64, f64, u64, u64)> = BTreeMap::new();
    for r in &o.results {
        let name = r.cell.scheme.name();
        if !agg.contains_key(name) {
            order.push(name);
        }
        let e = agg.entry(name).or_default();
        e.0 += 1;
        e.1 += r.g_round;
        e.2 += r.availability;
        e.3 += r.rf_hits;
        e.4 += r.rf_hits + r.rf_misses + r.rf_discards;
    }
    for name in order {
        let (n, g, a, hits, attempts) = agg[name];
        let hit_rate = if attempts > 0 {
            format!("{:.3}", hits as f64 / attempts as f64)
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            out,
            "{:<14} {:>5} {:>12.4} {:>11.4} {:>12}",
            name,
            n,
            g / n as f64,
            a / n as f64,
            hit_rate
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        crate::dispatch(&v)
    }

    const GRID: &str =
        "alpha=0.55,0.75;s=10,20;scheme=conventional,smt-det,smt-prob;q=0,0.02;rounds=150";

    #[test]
    fn sweep_summary_table_lists_every_scheme() {
        let out = run(&["sweep", "--grid", GRID, "--workers", "2"]).unwrap();
        assert!(out.contains("24 cells"), "{out}");
        for scheme in ["conventional", "smt-det", "smt-prob"] {
            assert!(out.contains(scheme), "{out}");
        }
        assert!(out.contains("baseline memo hits"), "{out}");
    }

    #[test]
    fn sweep_exports_are_byte_identical_across_worker_counts() {
        let dir = std::env::temp_dir().join("vds-cli-sweep-det");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("w1.csv");
        let p8 = dir.join("w8.csv");
        run(&[
            "sweep",
            "--grid",
            GRID,
            "--workers",
            "1",
            "--out",
            p1.to_str().unwrap(),
        ])
        .unwrap();
        run(&[
            "sweep",
            "--grid",
            GRID,
            "--workers",
            "8",
            "--out",
            p8.to_str().unwrap(),
        ])
        .unwrap();
        let csv1 = std::fs::read_to_string(&p1).unwrap();
        let csv8 = std::fs::read_to_string(&p8).unwrap();
        assert_eq!(csv1, csv8, "CSV must not depend on worker count");
        assert!(csv1.starts_with(vds_sweep::CSV_HEADER), "{csv1}");
        let j1 = std::fs::read_to_string(dir.join("w1.csv.jsonl")).unwrap();
        let j8 = std::fs::read_to_string(dir.join("w8.csv.jsonl")).unwrap();
        assert_eq!(j1, j8, "JSONL must not depend on worker count");
        // no stray temp files left behind by the atomic writes
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }

    #[test]
    fn sweep_json_prints_one_object_per_cell() {
        let out = run(&[
            "sweep",
            "--grid",
            "alpha=0.65;scheme=smt-det,smt-prob;rounds=100",
            "--json",
        ])
        .unwrap();
        assert_eq!(out.lines().count(), 2, "{out}");
        assert!(out.lines().all(|l| l.starts_with("{\"index\":")), "{out}");
        assert!(out.contains("\"g_round\":"), "{out}");
    }

    #[test]
    fn sweep_resume_skips_journaled_cells_and_matches_a_cold_run() {
        let dir = std::env::temp_dir().join("vds-cli-sweep-resume");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("sweep.journal");
        let jp = journal.to_str().unwrap();
        let cold = dir.join("cold.csv");
        run(&["sweep", "--grid", GRID, "--out", cold.to_str().unwrap()]).unwrap();

        // first pass journals everything
        run(&["sweep", "--grid", GRID, "--resume", jp]).unwrap();
        let text = std::fs::read_to_string(&journal).unwrap();
        assert!(text.starts_with("#vds-sweep-journal v4 grid="), "{text}");
        assert_eq!(text.lines().count(), 24 + 1, "{text}");

        // truncate to half the cells + a torn tail, as a kill would leave
        let keep: Vec<&str> = text.lines().take(13).collect();
        std::fs::write(&journal, format!("{}\n5,abstract,smt", keep.join("\n"))).unwrap();
        let out = run(&[
            "sweep",
            "--grid",
            GRID,
            "--resume",
            jp,
            "--out",
            dir.join("resumed.csv").to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("12 resumed"), "{out}");
        // the resumed export is byte-identical to the cold run's
        assert_eq!(
            std::fs::read_to_string(dir.join("resumed.csv")).unwrap(),
            std::fs::read_to_string(&cold).unwrap()
        );
        // and the journal is clean and complete again
        let text = std::fs::read_to_string(&journal).unwrap();
        assert_eq!(text.lines().count(), 24 + 1, "{text}");

        // a journal from a different grid is refused
        let e = run(&["sweep", "--grid", "alpha=0.6;rounds=50", "--resume", jp]).unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.msg.contains("different grid"), "{}", e.msg);
    }

    #[test]
    fn sweep_workload_flag_moves_the_grid_onto_the_vm_backend() {
        let out = run(&[
            "sweep",
            "--grid",
            "scheme=smt-det,smt-prob;q=0,0.5;rounds=16",
            "--workload",
            "vm:strhash",
            "--workers",
            "2",
        ])
        .unwrap();
        assert!(out.contains("vm backend"), "{out}");
        assert!(out.contains("program=strhash"), "{out}");
        let e = run(&["sweep", "--workload", "vm:bogus"]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.msg.contains("unknown seed program"), "{}", e.msg);
        let e = run(&["sweep", "--workload", "abstract"]).unwrap_err();
        assert!(e.msg.contains("vm:<program>"), "{}", e.msg);
    }

    #[test]
    fn sweep_rejects_bad_grids_and_positionals() {
        assert!(run(&["sweep", "stray"]).is_err());
        assert!(run(&["sweep", "--grid", "alpha=0.2"]).is_err());
        assert!(run(&["sweep", "--grid", "frobs=1"]).is_err());
        // --rounds overrides reach validation too
        let e = run(&["sweep", "--grid", "alpha=0.65", "--rounds", "0"]).unwrap_err();
        assert_eq!(e.code, 2);
    }

    #[test]
    fn sweep_grid_toml_file_and_rounds_override() {
        let dir = std::env::temp_dir().join("vds-cli-sweep-toml");
        std::fs::create_dir_all(&dir).unwrap();
        let grid = dir.join("grid.toml");
        std::fs::write(
            &grid,
            "alpha = [0.6, 0.7]\nscheme = [\"smt-det\"]\nq = [0.01]\nrounds = 5000\n",
        )
        .unwrap();
        let out = run(&["sweep", "--grid", grid.to_str().unwrap(), "--rounds", "100"]).unwrap();
        assert!(out.contains("2 cells"), "{out}");
        assert!(out.contains("rounds=100"), "--rounds override: {out}");
    }

    #[test]
    fn sweep_metrics_writes_the_canonical_registry() {
        let dir = std::env::temp_dir().join("vds-cli-sweep-metrics");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("sweep-metrics.csv");
        let out = run(&[
            "sweep",
            "--grid",
            "alpha=0.65;scheme=smt-det;rounds=50",
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("1 cells"), "{out}");
        let csv = std::fs::read_to_string(&metrics).unwrap();
        assert!(csv.contains("counter,sweep.cells_done,value,1"), "{csv}");
        // a removed telemetry flag is a usage error
        let e = run(&["sweep", "--port", "0"]).unwrap_err();
        assert_eq!(e.code, 2);
    }
}
