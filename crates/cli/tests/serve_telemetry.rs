//! End-to-end tests of the live telemetry stack: the byte-identity
//! guarantee (an attached, actively-scraped server changes nothing in
//! the canonical campaign exports), the HTTP endpoints while a campaign
//! runs, and the `vds serve --once` binary lifecycle.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vds_fault::campaign::{run_campaign_journaled, HubMonitor, LOGICAL_SHARDS};
use vds_obs::{TelemetryHub, TelemetryServer};

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    let status: u16 = resp
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .unwrap();
    let body = resp
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Every non-comment, non-blank exposition line must be `name[{labels}]
/// value` — two fields once the optional label block is stripped.
fn assert_well_formed_exposition(body: &str) {
    assert!(!body.is_empty());
    for line in body.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let rest = match line.find('{') {
            Some(open) => {
                let close = line.rfind('}').expect("label block closes");
                assert!(close > open, "bad label block: {line}");
                format!("name {}", &line[close + 1..].trim())
            }
            None => line.to_string(),
        };
        assert_eq!(
            rest.split_whitespace().count(),
            2,
            "not `name value`: {line}"
        );
    }
}

fn campaign_trial(i: u64, rec: &mut vds_obs::Recorder) -> vds_fault::campaign::TrialResult {
    vds_bench::live::campaign_trial(i, 42, 30, rec)
}

#[test]
fn attached_server_does_not_change_campaign_bytes() {
    const TRIALS: u64 = 48;
    // reference: no server, no monitor
    let header = vds_bench::live::campaign_journal_header(TRIALS, 42, 30);
    let (plain_report, plain_rec) =
        run_campaign_journaled("serve", TRIALS, 3, None, &header, campaign_trial);

    // live: hub + HTTP server, scraped aggressively while trials run
    let hub = TelemetryHub::new();
    hub.begin_campaign("identity", TRIALS, TRIALS.clamp(1, LOGICAL_SHARDS));
    hub.mark_ready();
    let server = TelemetryServer::bind("127.0.0.1:0", Arc::clone(&hub)).expect("bind");
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let scraper = std::thread::spawn(move || {
        let mut scrapes = 0u32;
        while !stop2.load(Ordering::Acquire) {
            for path in ["/metrics", "/progress", "/healthz", "/trace"] {
                let (status, _) = get(addr, path);
                assert_eq!(status, 200, "{path}");
            }
            scrapes += 1;
        }
        scrapes
    });
    let monitor = HubMonitor::new(Arc::clone(&hub));
    let (report, rec) =
        run_campaign_journaled("serve", TRIALS, 3, Some(&monitor), &header, campaign_trial);
    stop.store(true, Ordering::Release);
    let scrapes = scraper.join().expect("scraper thread");
    assert!(scrapes > 0, "the server was actually scraped");
    server.shutdown();

    // the acceptance criterion: canonical exports are byte-identical
    // with and without the attached, actively-scraped server
    assert_eq!(plain_report, report);
    assert_eq!(plain_rec.registry().to_csv(), rec.registry().to_csv());
    assert_eq!(plain_rec.registry().to_jsonl(), rec.registry().to_jsonl());
    assert_eq!(
        plain_rec.spans().to_chrome_json(),
        rec.spans().to_chrome_json()
    );
    assert_eq!(plain_rec.journal().to_jsonl(), rec.journal().to_jsonl());
}

#[test]
fn endpoints_serve_live_campaign_state_and_stable_metrics() {
    const TRIALS: u64 = 24;
    let hub = TelemetryHub::new();
    hub.begin_campaign("live", TRIALS, TRIALS.clamp(1, LOGICAL_SHARDS));
    hub.mark_ready();
    let server = TelemetryServer::bind("127.0.0.1:0", Arc::clone(&hub)).expect("bind");
    let addr = server.local_addr();

    let monitor = HubMonitor::new(Arc::clone(&hub));
    let header = vds_bench::live::campaign_journal_header(TRIALS, 42, 30);
    let (_, rec) =
        run_campaign_journaled("serve", TRIALS, 2, Some(&monitor), &header, campaign_trial);
    hub.replace_registry(rec.registry().clone());
    hub.publish_spans(rec.spans());
    hub.publish_journal(rec.journal());
    hub.mark_done();

    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_well_formed_exposition(&metrics);
    assert!(
        metrics.contains("# TYPE campaign_trials_total counter"),
        "{metrics}"
    );
    assert!(metrics.contains("vds_detections_total"), "{metrics}");
    assert!(metrics.contains("smt_thread0_utilization"), "{metrics}");
    assert!(metrics.contains("journal_rounds_total"), "{metrics}");

    let (status, progress) = get(addr, "/progress");
    assert_eq!(status, 200);
    assert!(progress.contains("\"done\":true"), "{progress}");
    assert!(
        progress.contains(&format!("\"trials_done\":{TRIALS}")),
        "{progress}"
    );
    assert!(progress.contains("\"counters\":{"), "{progress}");
    assert!(
        progress.contains(&format!("\"journal\":{{\"rounds\":{}", rec.journal().len())),
        "{progress}"
    );

    let (status, trace) = get(addr, "/trace");
    assert_eq!(status, 200);
    assert!(trace.starts_with("{\"traceEvents\":["), "{trace}");
    assert!(trace.contains("\"name\":\"trial\""), "{trace}");

    // the flight-recorder journal is served verbatim
    let (status, journal) = get(addr, "/journal");
    assert_eq!(status, 200);
    assert!(
        journal.starts_with("{\"kind\":\"journal_header\""),
        "{journal}"
    );
    assert_eq!(journal, rec.journal().to_jsonl());

    // /metrics bytes are a pure function of the published canonical
    // registry: a re-run of the same fixed-seed campaign produces the
    // exact same exposition
    let (_, rec2) = run_campaign_journaled("serve", TRIALS, 5, None, &header, campaign_trial);
    hub.replace_registry(rec2.registry().clone());
    let (_, metrics2) = get(addr, "/metrics");
    assert_eq!(metrics, metrics2, "fixed-seed /metrics must be byte-stable");
    assert_eq!(
        rec.journal().to_jsonl(),
        rec2.journal().to_jsonl(),
        "fixed-seed journal must be byte-stable across worker counts"
    );

    server.shutdown();
}

#[test]
fn serve_once_binary_lifecycle() {
    let dir = std::env::temp_dir().join("vds-serve-once-test");
    std::fs::create_dir_all(&dir).unwrap();
    let port_file = dir.join("port");
    let journal_file = dir.join("serve.journal.jsonl");
    let _ = std::fs::remove_file(&port_file);
    let _ = std::fs::remove_file(&journal_file);
    let child = std::process::Command::new(env!("CARGO_BIN_EXE_vds"))
        .args([
            "serve",
            "--port",
            "0",
            "--port-file",
            port_file.to_str().unwrap(),
            "--trials",
            "8",
            "--rounds",
            "10",
            "--journal",
            journal_file.to_str().unwrap(),
            "--once",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn vds serve");

    // wait for the port file, then hit the endpoints while it runs
    let deadline = Instant::now() + Duration::from_secs(60);
    let port: u16 = loop {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            if let Ok(p) = s.trim().parse() {
                break p;
            }
        }
        assert!(Instant::now() < deadline, "port file never appeared");
        std::thread::sleep(Duration::from_millis(20));
    };
    let addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();
    let (status, body) = get(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let out = child.wait_with_output().expect("vds serve exits");
    assert!(out.status.success(), "exit: {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("trials: 8"), "{stdout}");
    assert!(stdout.contains("shut down cleanly"), "{stdout}");
    assert!(stdout.contains("journal ("), "{stdout}");
    // the recorded journal is a parseable flight-recorder file
    let journal = std::fs::read_to_string(&journal_file).expect("journal file written");
    assert!(
        journal.starts_with("{\"kind\":\"journal_header\""),
        "{journal}"
    );
    assert!(journal.contains("\"backend\":\"campaign\""), "{journal}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"component\":\"serve\""), "{stderr}");
    assert!(stderr.contains("listening on http://"), "{stderr}");
}
