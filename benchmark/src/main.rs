//! `vds-benchmark` — run the host-time benchmark.
//!
//! ```text
//! vds-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--workload`, runs that workload in this process and prints one
//! `<workload> <metric> <value> <unit>` line per metric, its output
//! digest, and (traced) its wall-time ledger and Chrome-trace path, then
//! one JSON result object as the last line. Without it, runs every
//! workload in its own child process, one after another, prints all
//! their lines, and writes them together as JSON under `out/`.

use std::process::{Command, ExitCode, Stdio};
use vds_benchmark::{out_dir, Config, WORKLOADS};
use vds_obs::JsonObj;

const USAGE: &str = "usage: vds-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]";
/// Worker threads per parallel call.
const WORKERS: usize = 1;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("vds-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_one(workload: &str, args: &Args) -> Result<(), String> {
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        workers: WORKERS,
        trace: args.trace,
        tiny: false,
    };
    let out = vds_benchmark::run(workload, &cfg)?;
    let w = out.workload;
    println!("{w} digest {}", out.digest);
    for (row, secs) in &out.table {
        println!("{w} table.{row} {secs} s");
    }
    if args.trace {
        let path = out_dir().join(format!("trace-{w}-seed{}.json", args.seed));
        vds_obs::write_atomic(&path, out.spans.to_chrome_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("{w} trace {}", path.display());
    }
    for (d, v) in &out.metrics {
        println!("{w} {} {v} {}", d.name, d.unit);
    }
    println!("{}", out.result_json());
    Ok(())
}

/// Run every workload in its own child process and collect the results
/// under `out/`.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let mut runs = JsonObj::new();
    let mut ok = true;
    for w in WORKLOADS {
        let child = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {w}: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result = lines.pop().filter(|l| l.starts_with('{'));
        let (Some(result), true) = (result, child.status.success()) else {
            eprintln!("{w}: exited with {} and no result", child.status);
            ok = false;
            continue;
        };
        ok &= result.starts_with(r#"{"correct":true"#);
        let mut digest = String::new();
        let mut table = JsonObj::new();
        for line in &lines {
            println!("{line}");
            let f: Vec<&str> = line.split(' ').collect();
            match f.as_slice() {
                [_, "digest", d] => digest = d.to_string(),
                [_, row, v, _] if row.starts_with("table.") => {
                    table = table.raw(&row["table.".len()..], v);
                }
                _ => {}
            }
        }
        runs = runs.raw(
            w,
            &JsonObj::new()
                .str("digest", &digest)
                .raw("table", &table.finish())
                .raw("result", result)
                .finish(),
        );
    }
    let name = format!(
        "run-seed{}{}.json",
        args.seed,
        if args.trace { "-trace" } else { "" }
    );
    let path = out_dir().join(name);
    let doc = JsonObj::new()
        .u64("seed", args.seed)
        .f64("seconds", args.seconds)
        .u64("workers", WORKERS as u64)
        .raw("trace", if args.trace { "true" } else { "false" })
        .raw("workloads", &runs.finish())
        .finish();
    std::fs::create_dir_all(out_dir())
        .map_err(|e| format!("cannot create {}: {e}", out_dir().display()))?;
    vds_obs::write_atomic(&path, doc + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    if ok {
        Ok(())
    } else {
        Err("a workload failed or reported incorrect outputs".into())
    }
}
