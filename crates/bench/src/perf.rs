//! `vds bench` — the performance-trajectory suite.
//!
//! Runs a pinned subset of registry experiments at pinned sizes, records
//! the host wall-clock per experiment alongside the **deterministic work
//! counters** the run produced, and renders the result as a
//! schema-versioned `BENCH_<n>.json`. Wall-clock numbers are quarantined
//! exactly like the registry's host summaries: they never feed back into
//! simulation results and are expected to vary between machines. The
//! `work_units` column, by contrast, is the sum of every deterministic
//! counter the experiment recorded — byte-identical for a fixed seed
//! across runs and worker counts — so a drift there is a *determinism*
//! regression, not a slow machine.
//!
//! [`check`] compares a fresh run against a committed baseline: it fails
//! on schema mismatch, missing experiments, size drift, any `work_units`
//! change, and on throughput (`work_units / host_ms`) dropping by more
//! than the threshold (default 50%, generous enough for shared CI
//! runners while still catching order-of-magnitude regressions).

use vds_obs::Stopwatch;

/// Bump when the JSON layout changes incompatibly.
pub const SCHEMA_VERSION: u32 = 1;

/// Default allowed relative throughput drop before [`check`] complains.
pub const DEFAULT_REGRESSION_THRESHOLD: f64 = 0.5;

/// The pinned suite: `(experiment id, size knob)`. Sizes are chosen so a
/// release-mode run finishes in seconds while still exercising all four
/// backends (analytic, abstract engine, SMT simulator, fault campaign).
pub const SUITE: &[(&str, u64)] = &[
    ("E1", 120),
    ("E2", 24),
    ("E9", 2),
    ("E10", 64),
    ("E12", 400),
    // sweep-backed experiments: exercise the parallel sweep engine and
    // its memoized baselines; extra entries are ignored by `check`
    // against older baselines, so adding them here is not a break
    ("E15", 400),
    ("E16", 400),
    // α-decomposition ledger: cycle-level SMT backend, counter-only
    ("E17", 2),
    // bytecode-VM duplex: gain table + per-program fault campaign
    ("E18", 24),
];

/// One experiment's row in the bench report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Registry id, e.g. `"E10"`.
    pub id: String,
    /// The size knob the experiment ran at.
    pub sim_rounds: u64,
    /// Host wall-clock for the run, milliseconds (machine-dependent).
    pub host_ms: f64,
    /// Sum of all deterministic counters the run recorded
    /// (seed-determined; worker-count invariant).
    pub work_units: u64,
    /// Observations in the run's `*.conformance.residual_abs`
    /// histograms (0 when the experiment records no conformance —
    /// additive v1 field, absent in pre-conformance baselines).
    pub conf_samples: u64,
    /// Mean |predicted-vs-measured G residual| across those
    /// observations (0 when there are none). Seed-determined, like
    /// `work_units` — drift here is a model or determinism change.
    pub conf_mean_abs_residual: f64,
}

impl BenchEntry {
    /// Deterministic work per host millisecond — the throughput figure
    /// the regression gate compares.
    pub fn work_per_ms(&self) -> f64 {
        self.work_units as f64 / self.host_ms.max(1e-6)
    }
}

/// A full bench run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Layout version, [`SCHEMA_VERSION`] for fresh runs.
    pub schema_version: u32,
    /// One entry per suite experiment, in suite order.
    pub experiments: Vec<BenchEntry>,
}

/// Run the pinned suite at its pinned sizes.
pub fn run_suite(workers: usize, seed: Option<u64>) -> BenchReport {
    run_suite_with(workers, seed, None)
}

/// Each suite experiment is executed this many times and the fastest
/// repeat is reported. For a deterministic workload the minimum is the
/// low-noise estimator: timer jitter, scheduler preemption and cold
/// caches can only add time, so they inflate the discarded repeats.
pub const TIMING_REPEATS: u32 = 3;

/// [`run_suite`] with every size knob capped at `max_rounds` — used by
/// tests and `vds bench --rounds N` to keep debug-mode runs fast. Capped
/// runs are comparable only against baselines produced at the same cap.
///
/// Panics if an experiment's `work_units` differ between timing repeats:
/// the counters are seed-determined, so any variation is a determinism
/// bug that must not be averaged away.
pub fn run_suite_with(workers: usize, seed: Option<u64>, max_rounds: Option<u64>) -> BenchReport {
    let mut experiments = Vec::with_capacity(SUITE.len());
    for &(id, size) in SUITE {
        let rounds = max_rounds.map_or(size, |cap| size.min(cap));
        let exp = crate::registry::find(id).expect("suite id in registry");
        let p = crate::ExpParams {
            rounds: Some(rounds),
            seed,
            workers,
        };
        let mut host_ms = f64::INFINITY;
        let mut work_units = 0u64;
        let mut conf = (0u64, 0.0f64);
        for rep in 0..TIMING_REPEATS {
            let sw = Stopwatch::start();
            let report = exp.run(&p);
            let ms = sw.elapsed_secs() * 1e3;
            let units: u64 = report.metrics.counters().map(|(_, v)| v).sum();
            if rep == 0 {
                work_units = units;
                conf = conformance_summary(&report.metrics);
            } else {
                assert_eq!(
                    units, work_units,
                    "{id}: work_units varied between identical repeats"
                );
            }
            host_ms = host_ms.min(ms);
        }
        experiments.push(BenchEntry {
            id: id.to_string(),
            sim_rounds: rounds,
            host_ms,
            work_units,
            conf_samples: conf.0,
            conf_mean_abs_residual: conf.1,
        });
    }
    BenchReport {
        schema_version: SCHEMA_VERSION,
        experiments,
    }
}

/// `(observations, mean |residual|)` pooled over every
/// `*.conformance.residual_abs` histogram in the registry (the abstract
/// engine, fault campaigns and the sweep all export under that suffix).
fn conformance_summary(reg: &vds_obs::Registry) -> (u64, f64) {
    let (mut n, mut sum) = (0u64, 0.0f64);
    for (name, h) in reg.histograms() {
        if name.ends_with("conformance.residual_abs") {
            n += h.count();
            sum += h.sum();
        }
    }
    (n, if n > 0 { sum / n as f64 } else { 0.0 })
}

impl BenchReport {
    /// Render as `BENCH_<n>.json` content: the shared report envelope,
    /// then one experiment per line (rows built with
    /// [`vds_obs::JsonObj`], the same serializer `vds stats --json` and
    /// `vds alpha --json` use), trailing newline. Everything except
    /// `host_ms` and the derived `work_per_ms` is byte-stable for a fixed
    /// seed.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .experiments
            .iter()
            .map(|e| {
                format!(
                    "    {}",
                    vds_obs::JsonObj::new()
                        .str("id", &e.id)
                        .u64("sim_rounds", e.sim_rounds)
                        .f64_fixed("host_ms", e.host_ms, 3)
                        .u64("work_units", e.work_units)
                        .f64_fixed("work_per_ms", e.work_per_ms(), 3)
                        .u64("conf_samples", e.conf_samples)
                        .f64_fixed("conf_mean_abs_residual", e.conf_mean_abs_residual, 6)
                        .finish()
                )
            })
            .collect();
        format!(
            "{{\n  \"schema\": \"{}\",\n  \"kind\": \"bench\",\n  \"schema_version\": {},\n  \"experiments\": [\n{}\n  ]\n}}\n",
            vds_obs::REPORT_SCHEMA,
            self.schema_version,
            rows.join(",\n")
        )
    }

    /// Parse a report previously written by [`Self::to_json`]. The
    /// parser is deliberately small: flat objects, no string escapes —
    /// exactly the subset the writer emits.
    pub fn from_json(s: &str) -> Result<BenchReport, String> {
        let schema_version =
            extract_u64(s, "schema_version").ok_or("missing schema_version".to_string())? as u32;
        let key = s
            .find("\"experiments\"")
            .ok_or("missing experiments".to_string())?;
        let arr_start = key
            + s[key..]
                .find('[')
                .ok_or("malformed experiments array".to_string())?;
        let arr_end = arr_start
            + s[arr_start..]
                .rfind(']')
                .ok_or("unterminated experiments array".to_string())?;
        let mut experiments = Vec::new();
        let mut rest = &s[arr_start + 1..arr_end];
        while let Some(open) = rest.find('{') {
            let close = open
                + rest[open..]
                    .find('}')
                    .ok_or("unterminated experiment object".to_string())?;
            let obj = &rest[open + 1..close];
            experiments.push(BenchEntry {
                id: extract_str(obj, "id").ok_or("experiment missing id".to_string())?,
                sim_rounds: extract_u64(obj, "sim_rounds")
                    .ok_or("experiment missing sim_rounds".to_string())?,
                host_ms: extract_f64(obj, "host_ms")
                    .ok_or("experiment missing host_ms".to_string())?,
                work_units: extract_u64(obj, "work_units")
                    .ok_or("experiment missing work_units".to_string())?,
                // additive fields: absent in pre-conformance baselines
                conf_samples: extract_u64(obj, "conf_samples").unwrap_or(0),
                conf_mean_abs_residual: extract_f64(obj, "conf_mean_abs_residual").unwrap_or(0.0),
            });
            rest = &rest[close + 1..];
        }
        Ok(BenchReport {
            schema_version,
            experiments,
        })
    }
}

/// The raw token following `"key":`, trimmed, with no surrounding quotes
/// stripped.
fn raw_value<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let at = s.find(&needle)? + needle.len();
    let after = s[at..].trim_start();
    let after = after.strip_prefix(':')?.trim_start();
    let end = after.find([',', '}', '\n', ']']).unwrap_or(after.len());
    Some(after[..end].trim())
}

fn extract_u64(s: &str, key: &str) -> Option<u64> {
    raw_value(s, key)?.parse().ok()
}

fn extract_f64(s: &str, key: &str) -> Option<f64> {
    raw_value(s, key)?.parse().ok()
}

fn extract_str(s: &str, key: &str) -> Option<String> {
    let v = raw_value(s, key)?;
    Some(v.strip_prefix('"')?.strip_suffix('"')?.to_string())
}

/// Experiments that complete faster than this on the baseline host are
/// exempt from the throughput gate: below a few milliseconds, timer
/// jitter and allocator warm-up swing work/ms by far more than any real
/// regression could. Their deterministic work_units counters are still
/// compared bit-for-bit, so a logic change cannot hide under the floor —
/// only host timing noise is forgiven.
pub const TIMING_FLOOR_MS: f64 = 5.0;

/// Compare a fresh run against a baseline. Returns human-readable issue
/// lines, empty when the run passes. `threshold` is the allowed relative
/// throughput drop (e.g. 0.5 = tolerate anything down to half the
/// baseline's work/ms). Experiments whose baseline run is shorter than
/// [`TIMING_FLOOR_MS`] skip the throughput comparison (see its doc).
pub fn check(current: &BenchReport, baseline: &BenchReport, threshold: f64) -> Vec<String> {
    let mut issues = Vec::new();
    if current.schema_version != baseline.schema_version {
        issues.push(format!(
            "schema_version mismatch: current {} vs baseline {}",
            current.schema_version, baseline.schema_version
        ));
        return issues;
    }
    for base in &baseline.experiments {
        let Some(cur) = current.experiments.iter().find(|e| e.id == base.id) else {
            issues.push(format!("{}: missing from current run", base.id));
            continue;
        };
        if cur.sim_rounds != base.sim_rounds {
            issues.push(format!(
                "{}: sim_rounds differ (current {} vs baseline {}) — runs not comparable",
                base.id, cur.sim_rounds, base.sim_rounds
            ));
            continue;
        }
        if cur.work_units != base.work_units {
            issues.push(format!(
                "{}: work_units drifted (current {} vs baseline {}) — deterministic \
                 counters changed, this is a determinism regression, not a slow host",
                base.id, cur.work_units, base.work_units
            ));
        }
        if base.host_ms < TIMING_FLOOR_MS {
            continue;
        }
        let floor = base.work_per_ms() * (1.0 - threshold);
        if cur.work_per_ms() < floor {
            issues.push(format!(
                "{}: throughput regression ({:.1} vs baseline {:.1} work/ms, \
                 allowed floor {:.1})",
                base.id,
                cur.work_per_ms(),
                base.work_per_ms(),
                floor
            ));
        }
    }
    issues
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            experiments: vec![
                BenchEntry {
                    id: "E1".into(),
                    sim_rounds: 120,
                    host_ms: 12.5,
                    work_units: 4200,
                    conf_samples: 3,
                    conf_mean_abs_residual: 0.012345,
                },
                BenchEntry {
                    id: "E10".into(),
                    sim_rounds: 64,
                    host_ms: 800.0,
                    work_units: 987_654,
                    conf_samples: 0,
                    conf_mean_abs_residual: 0.0,
                },
            ],
        }
    }

    #[test]
    fn suite_ids_resolve_in_the_registry() {
        for &(id, size) in SUITE {
            assert!(crate::registry::find(id).is_some(), "{id} not in registry");
            assert!(size > 0);
        }
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        let parsed = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn check_passes_against_itself_and_catches_tampering() {
        let r = sample();
        assert!(check(&r, &r, DEFAULT_REGRESSION_THRESHOLD).is_empty());

        let mut drifted = r.clone();
        drifted.experiments[0].work_units += 1;
        let issues = check(&drifted, &r, DEFAULT_REGRESSION_THRESHOLD);
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert!(issues[0].contains("work_units drifted"), "{issues:?}");

        let mut slow = r.clone();
        slow.experiments[1].host_ms *= 10.0;
        let issues = check(&slow, &r, DEFAULT_REGRESSION_THRESHOLD);
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert!(issues[0].contains("throughput regression"), "{issues:?}");

        let mut old = r.clone();
        old.schema_version += 1;
        let issues = check(&old, &r, DEFAULT_REGRESSION_THRESHOLD);
        assert!(issues[0].contains("schema_version"), "{issues:?}");

        let mut shrunk = r.clone();
        shrunk.experiments.pop();
        let issues = check(&shrunk, &r, DEFAULT_REGRESSION_THRESHOLD);
        assert!(issues[0].contains("missing"), "{issues:?}");

        let mut resized = r.clone();
        resized.experiments[0].sim_rounds = 1;
        let issues = check(&resized, &r, DEFAULT_REGRESSION_THRESHOLD);
        assert!(issues[0].contains("sim_rounds differ"), "{issues:?}");
    }

    #[test]
    fn microbenchmarks_under_the_timing_floor_skip_the_throughput_gate() {
        let mut r = sample();
        r.experiments[0].host_ms = TIMING_FLOOR_MS / 10.0;
        // a 10x slowdown on a sub-floor experiment is timing noise
        let mut jittery = r.clone();
        jittery.experiments[0].host_ms *= 10.0;
        assert!(check(&jittery, &r, 0.15).is_empty());
        // but its deterministic counters are still gated
        let mut drifted = jittery.clone();
        drifted.experiments[0].work_units -= 1;
        let issues = check(&drifted, &r, 0.15);
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert!(issues[0].contains("work_units drifted"), "{issues:?}");
        // the floor compares the baseline timing, not the current one:
        // an experiment that was timeable at baseline stays gated even
        // if the regression pushes the current run under the floor
        let mut slow = r.clone();
        slow.experiments[1].host_ms *= 10.0;
        let issues = check(&slow, &r, 0.15);
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert!(issues[0].contains("throughput regression"), "{issues:?}");
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        assert!(BenchReport::from_json("{}").is_err());
        assert!(BenchReport::from_json("{\"schema_version\": 1}").is_err());
        assert!(BenchReport::from_json(
            "{\"schema_version\": 1, \"experiments\": [{\"id\":\"E1\"}]}"
        )
        .is_err());
    }

    #[test]
    fn tiny_suite_run_is_deterministic_across_worker_counts() {
        // cap the knobs so the debug-mode run stays cheap; work_units
        // must not depend on the worker count
        let a = run_suite_with(1, Some(1), Some(2));
        let b = run_suite_with(4, Some(1), Some(2));
        assert_eq!(a.schema_version, SCHEMA_VERSION);
        assert_eq!(a.experiments.len(), SUITE.len());
        for (ea, eb) in a.experiments.iter().zip(&b.experiments) {
            assert_eq!(ea.id, eb.id);
            assert_eq!(ea.sim_rounds, eb.sim_rounds);
            assert_eq!(ea.work_units, eb.work_units, "{}", ea.id);
            assert!(ea.work_units > 0, "{} recorded no work", ea.id);
        }
    }
}
