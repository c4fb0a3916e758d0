//! Declarative parameter grids.
//!
//! A [`GridSpec`] names the axes the paper's study varies — SMT stretch
//! `α`, checkpoint distance `s`, recovery scheme, per-round fault rate
//! `q` — plus the backend, mission length and base seed. [`GridSpec::cells`]
//! expands it into the row-major cross product; every [`Cell`] derives its
//! RNG seed from the *coordinates*, never from worker or completion order,
//! which is what makes the whole sweep worker-count invariant (and lets a
//! resumed sweep reuse any previously completed cell verbatim).
//!
//! Two input syntaxes parse to the same spec:
//!
//! * the inline form `alpha=0.55,0.65;s=10,20;scheme=smt-det,smt-prob`
//!   (semicolon-separated `key=v1,v2,...` pairs), and
//! * a minimal TOML file (`key = value` / `key = [v1, v2]`, `#` comments,
//!   quoted strings) — hand-rolled here because the build environment has
//!   no crates.io access.

use vds_core::Scheme;
use vds_desim::rng::child_seed;

/// Which engine executes a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The abstract-timing engine (`vds_core::abstract_vds`): α is a free
    /// model parameter, all six schemes run.
    Abstract,
    /// The cycle-level micro platform (`vds_core::micro_vds`): α emerges
    /// from pipeline contention (the declared α is carried through to the
    /// exports but not consumed), and `smt-boost5` is not available.
    Micro,
    /// The bytecode-VM platform (`vds_core::vm_vds`): a real seed program
    /// runs as two diversified variants, time is counted in interpreted
    /// instructions, and the declared α is carried through but not
    /// consumed (the measured stretch emerges from the variants' step
    /// counts).
    Vm,
}

impl Backend {
    /// Canonical name used in specs and exports.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Abstract => "abstract",
            Backend::Micro => "micro",
            Backend::Vm => "vm",
        }
    }

    /// Parse a canonical name.
    pub fn parse(s: &str) -> Result<Backend, String> {
        match s {
            "abstract" => Ok(Backend::Abstract),
            "micro" => Ok(Backend::Micro),
            "vm" => Ok(Backend::Vm),
            other => Err(format!("unknown backend `{other}` (abstract|micro|vm)")),
        }
    }
}

/// A declarative parameter grid.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// SMT stretch values (abstract backend only; `α ∈ [0.5, 1]`).
    pub alphas: Vec<f64>,
    /// Checkpoint distances.
    pub s_values: Vec<u32>,
    /// Recovery schemes.
    pub schemes: Vec<Scheme>,
    /// Per-round fault probabilities (`0` = fault-free).
    pub qs: Vec<f64>,
    /// Executing engine.
    pub backend: Backend,
    /// Committed rounds per cell.
    pub rounds: u64,
    /// Base seed every per-cell seed derives from.
    pub base_seed: u64,
    /// Seed-program name — consumed by the [`Backend::Vm`] backend only
    /// (see [`vds_vm::SEED_PROGRAMS`]).
    pub program: String,
}

impl Default for GridSpec {
    fn default() -> Self {
        GridSpec {
            alphas: vec![0.65],
            s_values: vec![20],
            schemes: Scheme::ALL.to_vec(),
            qs: vec![0.01],
            backend: Backend::Abstract,
            rounds: 2_000,
            base_seed: 1,
            program: "checksum".to_string(),
        }
    }
}

/// One point of the expanded grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Position in the row-major expansion (stable across worker counts).
    pub index: u64,
    /// SMT stretch α.
    pub alpha: f64,
    /// Checkpoint distance s.
    pub s: u32,
    /// Recovery scheme.
    pub scheme: Scheme,
    /// Per-round fault probability q.
    pub q: f64,
    /// Executing engine.
    pub backend: Backend,
    /// Committed rounds to run for.
    pub rounds: u64,
    /// Derived RNG seed (see [`Cell::key`]).
    pub seed: u64,
    /// Seed-program name ([`Backend::Vm`] cells only; empty otherwise).
    pub program: String,
}

impl Cell {
    /// Canonical coordinate string. The per-cell seed is
    /// `child_seed(base, key)`, so it depends on *what* the cell is, not
    /// where in the grid (or on which worker) it runs: reordering or
    /// extending the grid never changes an existing cell's results.
    pub fn key(&self) -> String {
        let mut k = format!(
            "a{}|s{}|{}|q{}|{}|r{}",
            self.alpha,
            self.s,
            self.scheme.name(),
            self.q,
            self.backend.name(),
            self.rounds
        );
        // the program axis exists only on the VM backend; keeping it out
        // of every other key preserves historical seeds byte-for-byte
        if self.backend == Backend::Vm {
            k.push('|');
            k.push_str(&self.program);
        }
        k
    }

    /// Coordinates shared by every cell that differs only in scheme/α —
    /// the key of the one conventional reference run (G_round's
    /// denominator) they share, since none of those axes affect it.
    pub fn baseline_key(&self) -> String {
        let mut k = format!(
            "s{}|q{}|{}|r{}",
            self.s,
            self.q,
            self.backend.name(),
            self.rounds
        );
        if self.backend == Backend::Vm {
            k.push('|');
            k.push_str(&self.program);
        }
        k
    }
}

impl GridSpec {
    /// Validate axis values; returns a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        if self.alphas.is_empty()
            || self.s_values.is_empty()
            || self.schemes.is_empty()
            || self.qs.is_empty()
        {
            return Err("every grid axis needs at least one value".into());
        }
        for &a in &self.alphas {
            if !(0.5..=1.0).contains(&a) {
                return Err(format!("alpha {a} outside [0.5, 1]"));
            }
        }
        for &s in &self.s_values {
            if s == 0 {
                return Err("s must be >= 1".into());
            }
        }
        for &q in &self.qs {
            if !(0.0..1.0).contains(&q) {
                return Err(format!("q {q} outside [0, 1)"));
            }
        }
        if self.rounds == 0 {
            return Err("rounds must be >= 1".into());
        }
        if self.backend == Backend::Micro && self.schemes.contains(&Scheme::SmtBoosted5) {
            return Err("smt-boost5 runs on the abstract backend only".into());
        }
        if self.backend == Backend::Vm && vds_vm::seed_program(&self.program).is_none() {
            let known: Vec<&str> = vds_vm::SEED_PROGRAMS.iter().map(|p| p.name).collect();
            return Err(format!(
                "unknown seed program `{}` (known: {})",
                self.program,
                known.join(", ")
            ));
        }
        Ok(())
    }

    /// Number of cells the expansion produces.
    pub fn cell_count(&self) -> u64 {
        (self.alphas.len() * self.s_values.len() * self.schemes.len() * self.qs.len()) as u64
    }

    /// Row-major expansion: α outermost, then s, scheme, q. The order is
    /// part of the export contract (CSV rows appear in it).
    pub fn cells(&self) -> Vec<Cell> {
        let mut out = Vec::with_capacity(self.cell_count() as usize);
        for &alpha in &self.alphas {
            for &s in &self.s_values {
                for &scheme in &self.schemes {
                    for &q in &self.qs {
                        let mut c = Cell {
                            index: out.len() as u64,
                            alpha,
                            s,
                            scheme,
                            q,
                            backend: self.backend,
                            rounds: self.rounds,
                            seed: 0,
                            program: if self.backend == Backend::Vm {
                                self.program.clone()
                            } else {
                                String::new()
                            },
                        };
                        c.seed = child_seed(self.base_seed, &c.key());
                        out.push(c);
                    }
                }
            }
        }
        out
    }

    /// Canonical one-line rendering (also the inline-spec syntax), used
    /// to fingerprint a sweep journal against the grid it belongs to.
    pub fn canonical(&self) -> String {
        let join_f = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
        let mut out = format!(
            "alpha={};s={};scheme={};q={};backend={};rounds={};seed={}",
            join_f(&self.alphas),
            self.s_values
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(","),
            self.schemes
                .iter()
                .map(|s| s.name().to_string())
                .collect::<Vec<_>>()
                .join(","),
            join_f(&self.qs),
            self.backend.name(),
            self.rounds,
            self.base_seed
        );
        // only VM grids carry the axis, so pre-VM journals fingerprint
        // identically under old and new builds
        if self.backend == Backend::Vm {
            out.push_str(";program=");
            out.push_str(&self.program);
        }
        out
    }

    /// Parse either syntax: a path to an existing file is read as TOML,
    /// anything else as the inline `key=v,v;key=v` form.
    pub fn parse_arg(arg: &str) -> Result<GridSpec, String> {
        if std::path::Path::new(arg).is_file() {
            let text = std::fs::read_to_string(arg)
                .map_err(|e| one_line(&format!("cannot read grid file `{arg}`: {e}")))?;
            Self::parse_toml(&text)
        } else {
            Self::parse_inline(arg)
        }
    }

    /// Parse the inline `alpha=0.55,0.65;s=10,20;...` form. Unset keys
    /// keep their [`GridSpec::default`] values. An error is one line:
    /// echoed input has its control characters escaped.
    pub fn parse_inline(spec: &str) -> Result<GridSpec, String> {
        Self::inline_spec(spec).map_err(|e| one_line(&e))
    }

    fn inline_spec(spec: &str) -> Result<GridSpec, String> {
        let mut g = GridSpec::default();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, vals) = part
                .split_once('=')
                .ok_or_else(|| format!("grid term `{part}` is not key=value"))?;
            let vals: Vec<&str> = vals.split(',').map(str::trim).collect();
            g.apply(key.trim(), &vals)?;
        }
        g.validate()?;
        Ok(g)
    }

    /// Parse the minimal TOML subset: `key = value` and
    /// `key = [v1, v2]`, `#` comments, optional quotes around strings.
    /// Section headers are rejected — a grid file is flat by design. An
    /// error is one line, as for [`GridSpec::parse_inline`].
    pub fn parse_toml(text: &str) -> Result<GridSpec, String> {
        Self::toml_spec(text).map_err(|e| one_line(&e))
    }

    fn toml_spec(text: &str) -> Result<GridSpec, String> {
        let mut g = GridSpec::default();
        for (ln, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if line.starts_with('[') {
                return Err(format!("line {}: sections are not supported", ln + 1));
            }
            let (key, val) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected key = value", ln + 1))?;
            let val = val.trim();
            let vals: Vec<String> =
                if let Some(inner) = val.strip_prefix('[').and_then(|v| v.strip_suffix(']')) {
                    inner
                        .split(',')
                        .map(|v| unquote(v.trim()))
                        .filter(|v| !v.is_empty())
                        .collect()
                } else {
                    vec![unquote(val)]
                };
            let refs: Vec<&str> = vals.iter().map(String::as_str).collect();
            g.apply(key.trim(), &refs)
                .map_err(|e| format!("line {}: {e}", ln + 1))?;
        }
        g.validate()?;
        Ok(g)
    }

    fn apply(&mut self, key: &str, vals: &[&str]) -> Result<(), String> {
        let one = || -> Result<&str, String> {
            if vals.len() == 1 {
                Ok(vals[0])
            } else {
                Err(format!("`{key}` takes a single value"))
            }
        };
        match key {
            "alpha" => self.alphas = parse_list(vals, "alpha")?,
            "s" => self.s_values = parse_list(vals, "s")?,
            "q" => self.qs = parse_list(vals, "q")?,
            "scheme" => {
                self.schemes = vals
                    .iter()
                    .map(|v| Scheme::from_name(v).ok_or_else(|| format!("unknown scheme `{v}`")))
                    .collect::<Result<_, _>>()?;
            }
            "backend" => self.backend = Backend::parse(one()?)?,
            "rounds" => self.rounds = parse_one(one()?, "rounds")?,
            "seed" => self.base_seed = parse_one(one()?, "seed")?,
            "program" => self.program = one()?.to_string(),
            other => {
                return Err(format!(
                    "unknown grid key `{other}` \
                     (known: alpha, s, scheme, q, backend, rounds, seed, program)"
                ))
            }
        }
        Ok(())
    }
}

fn parse_list<T: std::str::FromStr>(vals: &[&str], what: &str) -> Result<Vec<T>, String> {
    vals.iter()
        .map(|v| v.parse().map_err(|_| format!("bad {what} value `{v}`")))
        .collect()
}

fn parse_one<T: std::str::FromStr>(v: &str, what: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad {what} value `{v}`"))
}

/// `s` with control characters and Unicode line separators escaped, so
/// an error that echoes input stays on one line.
fn one_line(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_control() || matches!(c, '\u{2028}' | '\u{2029}') {
                c.escape_default().to_string()
            } else {
                c.to_string()
            }
        })
        .collect()
}

/// Drop a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, ch) in line.char_indices() {
        match ch {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn unquote(v: &str) -> String {
    v.strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .unwrap_or(v)
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_expands_all_schemes() {
        let g = GridSpec::default();
        assert_eq!(g.cell_count(), 6);
        let cells = g.cells();
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0].index, 0);
        assert_eq!(cells[0].scheme, Scheme::Conventional);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn inline_spec_round_trips_through_canonical() {
        let g = GridSpec::parse_inline(
            "alpha=0.55,0.65;s=10,20;scheme=smt-det,smt-prob;q=0.01,0.05;rounds=500;seed=7",
        )
        .unwrap();
        assert_eq!(g.cell_count(), 2 * 2 * 2 * 2);
        let again = GridSpec::parse_inline(&g.canonical()).unwrap();
        assert_eq!(g, again);
    }

    #[test]
    fn seeds_depend_on_coordinates_not_position() {
        let small = GridSpec::parse_inline("alpha=0.65;s=20;scheme=smt-det;q=0.01").unwrap();
        let big =
            GridSpec::parse_inline("alpha=0.55,0.65;s=10,20;scheme=conventional,smt-det;q=0.01")
                .unwrap();
        let target = small.cells().remove(0);
        let same = big
            .cells()
            .into_iter()
            .find(|c| c.key() == target.key())
            .expect("shared cell present");
        assert_eq!(same.seed, target.seed, "seed moved with grid shape");
        assert_ne!(same.index, target.index);
    }

    #[test]
    fn toml_subset_parses_with_comments_and_arrays() {
        let g = GridSpec::parse_toml(
            r##"
            # the acceptance grid
            alpha = [0.55, 0.65, 0.75]   # SMT stretch
            s = [10, 20]
            scheme = ["smt-det", "smt-prob"]
            q = [0.01]
            backend = "abstract"
            rounds = 400
            seed = 42
            "##,
        )
        .unwrap();
        assert_eq!(g.cell_count(), 3 * 2 * 2);
        assert_eq!(g.rounds, 400);
        assert_eq!(g.base_seed, 42);
        assert_eq!(g.backend, Backend::Abstract);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(GridSpec::parse_inline("alpha=0.3").is_err(), "alpha range");
        assert!(GridSpec::parse_inline("q=1.5").is_err(), "q range");
        assert!(GridSpec::parse_inline("s=0").is_err(), "s zero");
        assert!(GridSpec::parse_inline("frobs=1").is_err(), "unknown key");
        assert!(GridSpec::parse_inline("scheme=bogus").is_err());
        assert!(GridSpec::parse_inline("backend=quantum").is_err());
        assert!(
            GridSpec::parse_inline("backend=micro;scheme=smt-boost5").is_err(),
            "boost5 is abstract-only"
        );
        assert!(GridSpec::parse_toml("[section]\nalpha = 0.6").is_err());
        assert!(GridSpec::parse_toml("alpha 0.6").is_err());
    }

    #[test]
    fn vm_backend_carries_the_program_axis() {
        let g =
            GridSpec::parse_inline("backend=vm;program=matmul;scheme=smt-det;rounds=50").unwrap();
        assert_eq!(g.backend, Backend::Vm);
        assert_eq!(g.program, "matmul");
        let cells = g.cells();
        assert_eq!(cells[0].program, "matmul");
        assert!(cells[0].key().ends_with("|matmul"));
        assert!(cells[0].baseline_key().ends_with("|matmul"));
        assert!(g.canonical().ends_with(";program=matmul"));
        let again = GridSpec::parse_inline(&g.canonical()).unwrap();
        assert_eq!(g, again);
        // programs are distinct coordinates: same grid shape, different seeds
        let other =
            GridSpec::parse_inline("backend=vm;program=sort;scheme=smt-det;rounds=50").unwrap();
        assert_ne!(cells[0].seed, other.cells()[0].seed);
    }

    #[test]
    fn non_vm_grids_ignore_program_in_keys_and_canonical() {
        let g = GridSpec::default();
        let cells = g.cells();
        assert_eq!(cells[0].program, "");
        assert!(!cells[0].key().contains("checksum"));
        assert!(!g.canonical().contains("program="));
    }

    #[test]
    fn vm_backend_rejects_unknown_program() {
        let err = GridSpec::parse_inline("backend=vm;program=quine").unwrap_err();
        assert!(err.contains("unknown seed program"), "{err}");
        assert!(err.contains("checksum"), "{err}");
        // the program value is only validated on the vm backend
        assert!(GridSpec::parse_inline("program=quine").is_ok());
    }

    #[test]
    fn comment_stripping_respects_strings() {
        assert_eq!(strip_comment("a = 1 # note"), "a = 1 ");
        assert_eq!(strip_comment(r##"a = "#x""##), r##"a = "#x""##);
    }
}
