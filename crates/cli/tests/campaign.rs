//! `vds campaign` end to end: the files it writes carry the bytes
//! `crates/bench/tests/campaign_pins.rs` pins for the same campaigns, at
//! any worker count, and the binary records to files and exits cleanly.

use vds_cli::dispatch;
use vds_obs::Digester128;

fn dir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join("vds-cli-campaign").join(name);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn file_digest(path: &std::path::Path) -> String {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut d = Digester128::new();
    d.push_bytes(&bytes);
    d.finish().to_string()
}

/// Record `extra` as a 24-trial, 40-round, seed-1 campaign at one and two
/// workers; both journals must digest to `journal_pin` and both metrics
/// CSVs to `registry_pin`.
fn assert_pinned(name: &str, extra: &[&str], journal_pin: &str, registry_pin: &str) {
    let d = dir(name);
    for workers in ["1", "2"] {
        let journal = d.join(format!("w{workers}.journal.jsonl"));
        let metrics = d.join(format!("w{workers}.csv"));
        let mut args: Vec<String> = [
            "campaign",
            "--trials",
            "24",
            "--rounds",
            "40",
            "--seed",
            "1",
            "--workers",
            workers,
            "--journal",
            journal.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        args.extend(extra.iter().map(|s| s.to_string()));
        dispatch(&args).unwrap_or_else(|e| panic!("{args:?}: {}", e.msg));
        assert_eq!(
            file_digest(&journal),
            journal_pin,
            "{name}: journal at {workers} worker(s)"
        );
        assert_eq!(
            file_digest(&metrics),
            registry_pin,
            "{name}: metrics CSV at {workers} worker(s)"
        );
    }
}

#[test]
fn micro_campaign_files_match_the_campaign_pins() {
    assert_pinned(
        "micro",
        &["--scheme", "smt-prob"],
        "c00a189af729f2077dcd0add84da212c",
        "665b4d06bbe5273487a6c1d7de7a4e67",
    );
}

#[test]
fn vm_campaign_files_match_the_campaign_pins() {
    assert_pinned(
        "vm",
        &["--workload", "vm:checksum", "--scheme", "smt-det"],
        "c5bee95e54d1cc5d5b97ebca35f988fd",
        "1be4589d0a27617b64819d1833c3b265",
    );
}

#[test]
fn campaign_binary_records_to_files_and_exits() {
    let d = dir("binary");
    let journal_file = d.join("campaign.journal.jsonl");
    let _ = std::fs::remove_file(&journal_file);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_vds"))
        .args([
            "campaign",
            "--trials",
            "8",
            "--rounds",
            "10",
            "--journal",
            journal_file.to_str().unwrap(),
        ])
        .output()
        .expect("run vds campaign");
    assert!(out.status.success(), "exit: {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("trials: 8"), "{stdout}");
    assert!(stdout.contains("journal ("), "{stdout}");
    // the recorded journal is a parseable flight-recorder file
    let journal = std::fs::read_to_string(&journal_file).expect("journal file written");
    assert!(
        journal.starts_with("{\"kind\":\"journal_header\""),
        "{journal}"
    );
    assert!(journal.contains("\"backend\":\"campaign\""), "{journal}");
}
