//! Heatmap exports and the resume journal.
//!
//! Both exports serialise the index-ordered result vector, so their bytes
//! depend only on the grid and base seed — never on `--workers` or
//! completion order:
//!
//! * **CSV** — one row per cell with coordinates and measured metrics
//!   (`g_round`, availability, roll-forward hit rate, …); a heatmap is a
//!   pivot of two coordinate columns against a metric column.
//! * **JSONL** — the same rows as one JSON object per line.
//!
//! The **resume journal** is the crash-tolerant variant: a header line
//! fingerprinting the grid ([`GridSpec::canonical`] hashed with
//! [`Digest128`]) followed by CSV rows appended in *completion* order as
//! cells finish. A killed sweep restarts with `--resume`: rows whose
//! coordinates match the grid are reused verbatim, a torn final line
//! (kill mid-write) is dropped, and a journal from a different grid is
//! rejected by the fingerprint before any row is trusted.

use std::collections::BTreeMap;
use std::fmt;
use vds_core::Scheme;
use vds_obs::{Digest128, Digester128};

use crate::engine::CellResult;
use crate::grid::{Backend, Cell, GridSpec};

/// Column order of every CSV row (also the JSONL field order).
pub const CSV_HEADER: &str = "index,backend,scheme,alpha,s,q,rounds,seed,\
committed_rounds,total_time,throughput,g_round,availability,\
rf_hits,rf_misses,rf_discards,rf_hit_rate,detections,rollbacks,shutdown,\
predicted_g,residual,coverage,mean_detect_latency,measured_alpha,dominant_stall";

/// The measured-only column set: [`CSV_HEADER`] without the trailing
/// derived conformance columns (`predicted_g,residual`). This is the
/// layout the bench suite attaches to E15/E16 — their attachment bytes
/// feed the deterministic `report.data_bytes` counter that the
/// `vds bench --check` work-unit gate pins, so the figure artefact must
/// stay byte-stable while the full sweep exports grow columns.
pub const MEASURED_CSV_HEADER: &str = "index,backend,scheme,alpha,s,q,rounds,seed,\
committed_rounds,total_time,throughput,g_round,availability,\
rf_hits,rf_misses,rf_discards,rf_hit_rate,detections,rollbacks,shutdown";

/// A [`fmt::Write`] sink that only counts bytes: each export renders
/// once into it to size its buffer exactly, then once into the buffer.
struct ByteCount(usize);

impl fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

/// Run `render` twice — into a [`ByteCount`], then into a `String` of
/// exactly that capacity — so the text is never reallocated.
fn exact_size(render: impl Fn(&mut dyn fmt::Write) -> fmt::Result) -> String {
    let mut count = ByteCount(0);
    render(&mut count).expect("counting bytes cannot fail");
    let mut out = String::with_capacity(count.0);
    render(&mut out).expect("writing into a String cannot fail");
    debug_assert_eq!(out.len(), count.0);
    out
}

/// The measured columns of one row (no trailing newline). Floats use
/// Rust's shortest round-trip `Display`, so parsing a row back yields
/// bit-identical values.
fn write_measured_row(w: &mut dyn fmt::Write, r: &CellResult) -> fmt::Result {
    let c = &r.cell;
    write!(
        w,
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        c.index,
        c.backend.name(),
        c.scheme.name(),
        c.alpha,
        c.s,
        c.q,
        c.rounds,
        c.seed,
        r.committed_rounds,
        r.total_time,
        r.throughput,
        r.g_round,
        r.availability,
        r.rf_hits,
        r.rf_misses,
        r.rf_discards,
        r.rf_hit_rate,
        r.detections,
        r.rollbacks,
        u8::from(r.shutdown)
    )
}

/// One full CSV row (no trailing newline): the measured columns plus the
/// derived conformance and fault-forensics columns.
fn write_csv_row(w: &mut dyn fmt::Write, r: &CellResult) -> fmt::Result {
    write_measured_row(w, r)?;
    write!(
        w,
        ",{},{},{},{},{},{}",
        r.predicted_g,
        r.residual,
        r.coverage,
        r.mean_detect_latency,
        r.measured_alpha,
        r.dominant_stall
    )
}

/// One full CSV row (no trailing newline), as [`to_csv`] writes it.
pub fn csv_row(r: &CellResult) -> String {
    exact_size(|w| write_csv_row(w, r))
}

/// A CSV document: `header`, then one `row` per cell in index order.
fn csv_document(
    header: &str,
    results: &[CellResult],
    row: fn(&mut dyn fmt::Write, &CellResult) -> fmt::Result,
) -> String {
    exact_size(|w| {
        w.write_str(header)?;
        w.write_char('\n')?;
        for r in results {
            row(w, r)?;
            w.write_char('\n')?;
        }
        Ok(())
    })
}

/// Full CSV document: header plus one row per cell in index order.
pub fn to_csv(results: &[CellResult]) -> String {
    csv_document(CSV_HEADER, results, write_csv_row)
}

/// CSV document restricted to [`MEASURED_CSV_HEADER`]'s columns — the
/// byte-pinned figure artefact for the bench suite (see the header
/// constant for why). Everything else should use [`to_csv`].
pub fn to_measured_csv(results: &[CellResult]) -> String {
    csv_document(MEASURED_CSV_HEADER, results, write_measured_row)
}

/// One JSON object per line, same fields and order as the CSV.
pub fn to_jsonl(results: &[CellResult]) -> String {
    exact_size(|w| {
        for r in results {
            let c = &r.cell;
            writeln!(
                w,
                "{{\"index\":{},\"backend\":\"{}\",\"scheme\":\"{}\",\"alpha\":{},\
                 \"s\":{},\"q\":{},\"rounds\":{},\"seed\":{},\"committed_rounds\":{},\
                 \"total_time\":{},\"throughput\":{},\"g_round\":{},\"availability\":{},\
                 \"rf_hits\":{},\"rf_misses\":{},\"rf_discards\":{},\"rf_hit_rate\":{},\
                 \"detections\":{},\"rollbacks\":{},\"shutdown\":{},\
                 \"predicted_g\":{},\"residual\":{},\
                 \"coverage\":{},\"mean_detect_latency\":{},\
                 \"measured_alpha\":{},\"dominant_stall\":\"{}\"}}",
                c.index,
                c.backend.name(),
                c.scheme.name(),
                JsonF64(c.alpha),
                c.s,
                JsonF64(c.q),
                c.rounds,
                c.seed,
                r.committed_rounds,
                JsonF64(r.total_time),
                JsonF64(r.throughput),
                JsonF64(r.g_round),
                JsonF64(r.availability),
                r.rf_hits,
                r.rf_misses,
                r.rf_discards,
                JsonF64(r.rf_hit_rate),
                r.detections,
                r.rollbacks,
                r.shutdown,
                JsonF64(r.predicted_g),
                JsonF64(r.residual),
                JsonF64(r.coverage),
                JsonF64(r.mean_detect_latency),
                JsonF64(r.measured_alpha),
                r.dominant_stall
            )?;
        }
        Ok(())
    })
}

/// A JSON number. JSON has no NaN/Infinity literals; results should
/// never produce them, but a reader must not choke if one slips through.
struct JsonF64(f64);

impl fmt::Display for JsonF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            fmt::Display::fmt(&self.0, f)
        } else {
            f.write_str("null")
        }
    }
}

/// Fingerprint of the grid a journal belongs to: [`Digest128`] over the
/// canonical spec rendering (axes, backend, rounds, base seed — not
/// worker count, which must not matter).
pub fn grid_digest(spec: &GridSpec) -> Digest128 {
    let mut d = Digester128::new();
    d.push_bytes(spec.canonical().as_bytes());
    d.finish()
}

/// First line of a resume journal for `spec` (with trailing newline).
pub fn journal_header(spec: &GridSpec) -> String {
    // v4: rows carry the measured_alpha / dominant_stall α-attribution
    // columns after the v3 forensics columns; older journals (20-, 22-
    // or 24-column rows) are rejected by the version check below rather
    // than mis-parsed
    format!("#vds-sweep-journal v4 grid={}\n", grid_digest(spec))
}

/// Parse a resume journal against the grid it claims to belong to.
///
/// Returns completed cells keyed by index. Fails if the header or the
/// grid fingerprint mismatch (resuming under a different grid would
/// silently splice unrelated measurements). A malformed **last** line is
/// tolerated — that is what a kill mid-append leaves behind — but a
/// malformed interior line, or a row whose coordinates disagree with the
/// grid's cell at that index, is an error.
pub fn parse_journal(text: &str, spec: &GridSpec) -> Result<BTreeMap<u64, CellResult>, String> {
    let expected = journal_header(spec);
    let mut lines = text.lines();
    match lines.next() {
        Some(first) if first == expected.trim_end() => {}
        Some(first) if first.starts_with("#vds-sweep-journal") => {
            return Err(format!(
                "journal belongs to a different grid or format version \
                 (header `{first}`, this grid is `{}`)",
                expected.trim_end()
            ));
        }
        _ => return Err("not a vds-sweep journal (missing header line)".into()),
    }
    let cells = spec.cells();
    let rows: Vec<&str> = lines.filter(|l| !l.trim().is_empty()).collect();
    let mut done = BTreeMap::new();
    for (i, line) in rows.iter().enumerate() {
        match parse_row(line, &cells) {
            Ok(res) => {
                done.insert(res.cell.index, res);
            }
            Err(e) if i + 1 == rows.len() => {
                // torn final line from a kill mid-write: drop it, the
                // cell just re-runs
                vds_obs::log_warn!(
                    "sweep.journal",
                    "dropping torn final journal line ({e}): {line}"
                );
            }
            Err(e) => return Err(format!("journal line {}: {e}", i + 2)),
        }
    }
    Ok(done)
}

/// Parse one CSV row back into a [`CellResult`], cross-checking every
/// coordinate against the grid's cell at that index.
pub fn parse_row(line: &str, cells: &[Cell]) -> Result<CellResult, String> {
    let f: Vec<&str> = line.split(',').collect();
    let ncols = CSV_HEADER.split(',').count();
    if f.len() != ncols {
        return Err(format!("expected {ncols} fields, got {}", f.len()));
    }
    fn num<T: std::str::FromStr>(v: &str, what: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("bad {what} `{v}`"))
    }
    let index: u64 = num(f[0], "index")?;
    let cell = cells
        .get(usize::try_from(index).map_err(|_| "index overflow".to_string())?)
        .ok_or_else(|| format!("index {index} outside the grid"))?;
    let backend = Backend::parse(f[1])?;
    let scheme = Scheme::from_name(f[2]).ok_or_else(|| format!("unknown scheme `{}`", f[2]))?;
    let row_cell = Cell {
        index,
        alpha: num(f[3], "alpha")?,
        s: num(f[4], "s")?,
        scheme,
        q: num(f[5], "q")?,
        backend,
        rounds: num(f[6], "rounds")?,
        seed: num(f[7], "seed")?,
        // the program axis has no CSV column: the journal fingerprint
        // already pins it grid-wide, and the seed cross-check below
        // (derived from the program-bearing key) catches a swap
        program: cell.program.clone(),
    };
    if row_cell != *cell {
        return Err(format!(
            "row coordinates `{}` disagree with the grid's cell {index} `{}`",
            row_cell.key(),
            cell.key()
        ));
    }
    Ok(CellResult {
        cell: row_cell,
        committed_rounds: num(f[8], "committed_rounds")?,
        total_time: num(f[9], "total_time")?,
        throughput: num(f[10], "throughput")?,
        g_round: num(f[11], "g_round")?,
        availability: num(f[12], "availability")?,
        rf_hits: num(f[13], "rf_hits")?,
        rf_misses: num(f[14], "rf_misses")?,
        rf_discards: num(f[15], "rf_discards")?,
        rf_hit_rate: num(f[16], "rf_hit_rate")?,
        detections: num(f[17], "detections")?,
        rollbacks: num(f[18], "rollbacks")?,
        shutdown: match f[19] {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad shutdown flag `{other}`")),
        },
        predicted_g: num(f[20], "predicted_g")?,
        residual: num(f[21], "residual")?,
        coverage: num(f[22], "coverage")?,
        mean_detect_latency: num(f[23], "mean_detect_latency")?,
        measured_alpha: num(f[24], "measured_alpha")?,
        dominant_stall: f[25].to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_sweep;

    fn grid() -> GridSpec {
        GridSpec::parse_inline("alpha=0.6,0.8;s=10;scheme=smt-det,smt-prob;q=0,0.05;rounds=100")
            .unwrap()
    }

    #[test]
    fn measured_csv_is_the_full_csv_minus_the_conformance_columns() {
        assert_eq!(
            CSV_HEADER,
            format!(
                "{MEASURED_CSV_HEADER},predicted_g,residual,coverage,mean_detect_latency,\
                 measured_alpha,dominant_stall"
            )
        );
        let g = grid();
        let out = run_sweep(&g, 1, None, &BTreeMap::new(), None);
        let full = to_csv(&out.results);
        let measured = to_measured_csv(&out.results);
        for (f, m) in full.lines().zip(measured.lines()) {
            assert!(f.starts_with(m), "`{f}` does not extend `{m}`");
        }
        assert_eq!(full.lines().count(), measured.lines().count());
    }

    #[test]
    fn exports_are_sized_exactly() {
        let out = run_sweep(&grid(), 1, None, &BTreeMap::new(), None);
        for text in [
            to_csv(&out.results),
            to_measured_csv(&out.results),
            to_jsonl(&out.results),
            csv_row(&out.results[0]),
        ] {
            assert_eq!(text.capacity(), text.len());
        }
        // JSON has no NaN/Infinity literal; finite values print as Display
        let json = |x: f64| JsonF64(x).to_string();
        assert_eq!(json(f64::NAN), "null");
        assert_eq!(json(f64::NEG_INFINITY), "null");
        assert_eq!(json(-0.0), "-0");
        assert_eq!(json(0.1 + 0.2), "0.30000000000000004");
    }

    #[test]
    fn csv_rows_round_trip_bit_exactly() {
        let g = grid();
        let out = run_sweep(&g, 2, None, &BTreeMap::new(), None);
        let cells = g.cells();
        for r in &out.results {
            let back = parse_row(&csv_row(r), &cells).unwrap();
            assert_eq!(&back, r, "row `{}`", csv_row(r));
        }
        let csv = to_csv(&out.results);
        assert!(csv.starts_with(CSV_HEADER));
        assert_eq!(csv.lines().count(), out.results.len() + 1);
        let jsonl = to_jsonl(&out.results);
        assert_eq!(jsonl.lines().count(), out.results.len());
        assert!(jsonl
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn journal_resumes_and_rejects_foreign_grids() {
        let g = grid();
        let out = run_sweep(&g, 1, None, &BTreeMap::new(), None);
        // a journal holding the first 3 cells, in scrambled completion order
        let mut text = journal_header(&g);
        for r in out.results.iter().take(3).rev() {
            text.push_str(&csv_row(r));
            text.push('\n');
        }
        let done = parse_journal(&text, &g).unwrap();
        assert_eq!(done.len(), 3);
        assert_eq!(done[&0], out.results[0]);

        // torn final line (kill mid-append) is dropped, earlier rows kept
        let torn = format!("{text}4,abstract,smt-det,0.6,10,0.05,100,99");
        let done = parse_journal(&torn, &g).unwrap();
        assert_eq!(done.len(), 3);

        // malformed interior line is an error, not silently skipped
        let bad = format!(
            "{}garbage\n{}\n",
            journal_header(&g),
            csv_row(&out.results[0])
        );
        assert!(parse_journal(&bad, &g).is_err());

        // a different grid (other seed) is rejected up front
        let mut other = g.clone();
        other.base_seed = 77;
        let err = parse_journal(&text, &other).unwrap_err();
        assert!(err.contains("different grid"), "{err}");

        // not a journal at all
        assert!(parse_journal("index,backend\n", &g).is_err());
    }

    #[test]
    fn journal_row_with_wrong_coordinates_is_rejected() {
        let g = grid();
        let out = run_sweep(&g, 1, None, &BTreeMap::new(), None);
        let mut row = csv_row(&out.results[0]);
        // same index, tampered alpha column
        row = row.replacen("0.6", "0.8", 1);
        let text = format!("{}{row}\nnot-a-row", journal_header(&g));
        // interior tampered row errors even though a torn tail follows
        assert!(parse_journal(&text, &g).is_err());
    }
}
