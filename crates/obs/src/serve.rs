//! Live telemetry: a publisher hub and a zero-dependency HTTP server.
//!
//! Long-running commands (`vds serve`) publish periodic snapshots of
//! their metric registry into a [`TelemetryHub`]; a [`TelemetryServer`]
//! on a plain [`std::net::TcpListener`] serves them over HTTP/1.1:
//!
//! | endpoint    | content |
//! |-------------|---------|
//! | `/metrics`  | Prometheus text exposition of the latest registry snapshot ([`crate::prom`]) |
//! | `/healthz`  | liveness: `200 ok` while the process runs |
//! | `/readyz`   | readiness: `200` once the campaign is configured, `503` before |
//! | `/trace`    | Chrome trace-event JSON of the latest published [`SpanSet`] |
//! | `/progress` | JSON snapshot: trial/shard completion, work units per second, full metrics |
//! | `/journal`  | flight-recorder journal JSONL (for `vds replay` / `vds audit diff` / `vds conformance`) |
//! | `/conformance` | the last published predicted-vs-measured G residual report (JSON) |
//! | `/faults`   | the last published per-fault lifecycle forensics report (JSON) |
//! | `/alpha`    | the last published α-attribution interference ledger report (JSON) |
//! | `/`         | plain-text index of the above |
//!
//! **Determinism contract.** The hub is strictly write-through from the
//! simulation's point of view: publishers hand it *copies* (merged under
//! a lock the simulation never holds during computation), readers only
//! read, and nothing ever flows back. Attaching or detaching a server —
//! or scraping it at any rate — cannot change a single exported byte;
//! `crates/cli/tests/serve_telemetry.rs` pins that with a byte-identity
//! test. Wall-clock (`elapsed_secs`, `work_units_per_sec`) appears only
//! in `/progress`, never in the registry.

use crate::journal::Journal;
use crate::prom;
use crate::registry::Registry;
use crate::span::SpanSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Mutable snapshot state behind the hub's lock.
struct HubState {
    phase: String,
    registry: Registry,
    trace_json: String,
    journal_jsonl: String,
    journal_summary: String,
    conformance_json: String,
    faults_json: String,
    alpha_json: String,
}

/// The publisher/reader rendezvous: campaigns merge snapshots in,
/// the HTTP server renders them out.
pub struct TelemetryHub {
    start: Instant,
    ready: AtomicBool,
    done: AtomicBool,
    trials_total: AtomicU64,
    trials_done: AtomicU64,
    shards_total: AtomicU64,
    shards_done: AtomicU64,
    state: RwLock<HubState>,
}

impl TelemetryHub {
    /// A fresh hub (not ready, nothing published).
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> Arc<TelemetryHub> {
        Arc::new(TelemetryHub {
            start: Instant::now(),
            ready: AtomicBool::new(false),
            done: AtomicBool::new(false),
            trials_total: AtomicU64::new(0),
            trials_done: AtomicU64::new(0),
            shards_total: AtomicU64::new(0),
            shards_done: AtomicU64::new(0),
            state: RwLock::new(HubState {
                phase: "idle".to_string(),
                registry: Registry::new(),
                trace_json: SpanSet::default().to_chrome_json(),
                journal_jsonl: String::new(),
                journal_summary: Journal::default().summary_json(),
                conformance_json: String::new(),
                faults_json: String::new(),
                alpha_json: String::new(),
            }),
        })
    }

    /// Mark the process ready to serve meaningful answers (`/readyz`).
    pub fn mark_ready(&self) {
        self.ready.store(true, Ordering::Release);
    }

    /// Whether `/readyz` answers 200.
    pub fn is_ready(&self) -> bool {
        self.ready.load(Ordering::Acquire)
    }

    /// Mark the campaign finished (`/progress` reports `done: true`).
    pub fn mark_done(&self) {
        self.done.store(true, Ordering::Release);
    }

    /// Whether the campaign has finished.
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Configure a new campaign phase: its name and the totals progress
    /// is counted against. Resets the done-counters, keeps the registry.
    pub fn begin_campaign(&self, phase: &str, trials_total: u64, shards_total: u64) {
        self.trials_total.store(trials_total, Ordering::Relaxed);
        self.shards_total.store(shards_total, Ordering::Relaxed);
        self.trials_done.store(0, Ordering::Relaxed);
        self.shards_done.store(0, Ordering::Relaxed);
        self.done.store(false, Ordering::Release);
        self.state.write().unwrap_or_else(|e| e.into_inner()).phase = phase.to_string();
    }

    /// One trial finished (called from worker threads; lock-free).
    pub fn trial_done(&self) {
        self.trials_done.fetch_add(1, Ordering::Relaxed);
    }

    /// One logical shard finished (called from worker threads).
    pub fn shard_done(&self) {
        self.shards_done.fetch_add(1, Ordering::Relaxed);
    }

    /// Merge a registry delta into the live snapshot. Publishers hand in
    /// *copies*; merge order here follows completion order, which is fine
    /// for a live view — the canonical export still merges in shard
    /// order on the simulation side.
    pub fn merge_registry(&self, delta: &Registry) {
        self.state
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .registry
            .merge(delta);
    }

    /// Replace the snapshot with the canonical end-of-run registry.
    pub fn replace_registry(&self, canonical: Registry) {
        self.state
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .registry = canonical;
    }

    /// Publish the latest profiler spans (`/trace` serves this rendering).
    pub fn publish_spans(&self, spans: &SpanSet) {
        self.state
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .trace_json = spans.to_chrome_json();
    }

    /// Publish a flight-recorder journal: `/journal` serves its JSONL
    /// rendering, and `/progress` carries its summary block. Like every
    /// other hub publication this is a copy — scraping it cannot perturb
    /// the recording.
    pub fn publish_journal(&self, journal: &Journal) {
        let mut st = self.state.write().unwrap_or_else(|e| e.into_inner());
        st.journal_jsonl = journal.to_jsonl();
        st.journal_summary = journal.summary_json();
    }

    /// Publish a model-conformance report (the `vds conformance` JSON
    /// form); `/conformance` serves it verbatim.
    pub fn publish_conformance(&self, json: String) {
        self.state
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .conformance_json = json;
    }

    /// The `/conformance` body: the last published conformance report
    /// JSON (empty until one is published).
    pub fn conformance_json(&self) -> String {
        self.state
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .conformance_json
            .clone()
    }

    /// Publish a fault-forensics report (the `vds faults` JSON form);
    /// `/faults` serves it verbatim.
    pub fn publish_faults(&self, json: String) {
        self.state
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .faults_json = json;
    }

    /// The `/faults` body: the last published fault-forensics report
    /// JSON (empty until one is published).
    pub fn faults_json(&self) -> String {
        self.state
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .faults_json
            .clone()
    }

    /// Publish an α-attribution ledger report (the `vds alpha` JSON
    /// form); `/alpha` serves it verbatim.
    pub fn publish_alpha(&self, json: String) {
        self.state
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .alpha_json = json;
    }

    /// The `/alpha` body: the last published α-attribution report JSON
    /// (empty until one is published).
    pub fn alpha_json(&self) -> String {
        self.state
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .alpha_json
            .clone()
    }

    /// The `/journal` body: JSONL of the last published journal (empty
    /// until one is published).
    pub fn journal_jsonl(&self) -> String {
        self.state
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .journal_jsonl
            .clone()
    }

    /// A copy of the current registry snapshot.
    pub fn registry_snapshot(&self) -> Registry {
        self.state
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .registry
            .clone()
    }

    /// Seconds since the hub was created (host wall-clock).
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// The `/metrics` body: Prometheus text exposition of the snapshot.
    /// A pure function of published registry content — byte-stable for a
    /// fixed seed once the final snapshot is in.
    pub fn metrics_text(&self) -> String {
        prom::render(
            &self
                .state
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .registry,
        )
    }

    /// The `/trace` body: Chrome trace-event JSON of the latest spans.
    pub fn trace_json(&self) -> String {
        self.state
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .trace_json
            .clone()
    }

    /// The `/progress` body: campaign completion, throughput and the full
    /// metric snapshot (same [`Registry::to_json_object`] serializer as
    /// `vds stats --json`).
    pub fn progress_json(&self) -> String {
        let st = self.state.read().unwrap_or_else(|e| e.into_inner());
        let work_units: u64 = st.registry.counters().map(|(_, v)| v).sum();
        let elapsed = self.elapsed_secs();
        let rate = if elapsed > 0.0 {
            work_units as f64 / elapsed
        } else {
            0.0
        };
        crate::JsonObj::report("progress")
            .str("phase", &st.phase)
            .bool("ready", self.is_ready())
            .bool("done", self.is_done())
            .f64_fixed("elapsed_secs", elapsed, 3)
            .u64("trials_done", self.trials_done.load(Ordering::Relaxed))
            .u64("trials_total", self.trials_total.load(Ordering::Relaxed))
            .u64("shards_done", self.shards_done.load(Ordering::Relaxed))
            .u64("shards_total", self.shards_total.load(Ordering::Relaxed))
            .u64("work_units", work_units)
            .f64_fixed("work_units_per_sec", rate, 3)
            .raw("journal", &st.journal_summary)
            .raw("metrics", &st.registry.to_json_object())
            .finish()
    }
}

/// The HTTP/1.1 telemetry server: one background thread accepting on a
/// [`TcpListener`], answering every request from the hub and closing the
/// connection. Requests are tiny and handled inline; there is no
/// keep-alive, no routing table, no dependency.
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TelemetryServer {
    /// Bind `addr` (e.g. `"127.0.0.1:9898"`; port 0 picks an ephemeral
    /// port — read it back with [`TelemetryServer::local_addr`]) and
    /// start serving `hub` on a background thread.
    pub fn bind(addr: &str, hub: Arc<TelemetryHub>) -> std::io::Result<TelemetryServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("vds-telemetry".to_string())
            .spawn(move || accept_loop(listener, hub, stop2))?;
        Ok(TelemetryServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain the accept loop and join the thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Backlogged connections served after the stop flag flips before the
/// socket closes. Bounds the drain so a scrape flood cannot stall
/// shutdown; anything beyond it gets the ordinary connection reset.
const SHUTDOWN_DRAIN_MAX: usize = 64;

fn accept_loop(listener: TcpListener, hub: Arc<TelemetryHub>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => handle_conn(stream, &hub),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    // A scrape whose TCP handshake completed before the stop flag
    // flipped is sitting in the listen backlog; dropping the listener
    // now would reset it after its request was sent. Drain the backlog
    // with complete responses, then close — later connects get a clean
    // refusal at the TCP layer, never a half-written body.
    for _ in 0..SHUTDOWN_DRAIN_MAX {
        match listener.accept() {
            Ok((stream, _)) => handle_conn(stream, &hub),
            Err(_) => break,
        }
    }
}

const TEXT: &str = "text/plain; charset=utf-8";
const PROM: &str = "text/plain; version=0.0.4; charset=utf-8";
const JSON: &str = "application/json";

const INDEX: &str = "vds telemetry\n\
                     GET /metrics   Prometheus text exposition\n\
                     GET /healthz   liveness\n\
                     GET /readyz    readiness\n\
                     GET /trace     Chrome trace-event JSON (open in ui.perfetto.dev)\n\
                     GET /progress  campaign progress JSON\n\
                     GET /journal   flight-recorder journal (JSONL; for `vds replay` / `vds audit diff`)\n\
                     GET /conformance  predicted-vs-measured G residual report (JSON)\n\
                     GET /faults    per-fault lifecycle forensics report (JSON)\n\
                     GET /alpha     α-attribution interference ledger report (JSON)\n";

fn handle_conn(mut stream: TcpStream, hub: &TelemetryHub) {
    // Accepted sockets do not reliably inherit blocking mode.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(800)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 16 * 1024 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let req = String::from_utf8_lossy(&head);
    let mut parts = req.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or("");
    let (status, ctype, body) = route(method, path, hub);
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let header = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {ctype}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(header.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

fn route(method: &str, path: &str, hub: &TelemetryHub) -> (u16, &'static str, String) {
    if method != "GET" {
        return (405, TEXT, "method not allowed\n".to_string());
    }
    match path {
        "/metrics" => (200, PROM, hub.metrics_text()),
        "/healthz" => (200, TEXT, "ok\n".to_string()),
        "/readyz" => {
            if hub.is_ready() {
                (200, TEXT, "ready\n".to_string())
            } else {
                (503, TEXT, "starting\n".to_string())
            }
        }
        "/trace" => (200, JSON, hub.trace_json()),
        "/progress" => (200, JSON, hub.progress_json()),
        "/journal" => (200, TEXT, hub.journal_jsonl()),
        "/conformance" => {
            let body = hub.conformance_json();
            if body.is_empty() {
                (404, TEXT, "no conformance report published\n".to_string())
            } else {
                (200, JSON, body)
            }
        }
        "/faults" => {
            let body = hub.faults_json();
            if body.is_empty() {
                (
                    404,
                    TEXT,
                    "no fault forensics report published\n".to_string(),
                )
            } else {
                (200, JSON, body)
            }
        }
        "/alpha" => {
            let body = hub.alpha_json();
            if body.is_empty() {
                (404, TEXT, "no alpha report published\n".to_string())
            } else {
                (200, JSON, body)
            }
        }
        "/" => (200, TEXT, INDEX.to_string()),
        _ => (404, TEXT, "not found\n".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut s = TcpStream::connect(addr).unwrap();
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

    #[test]
    fn endpoints_roundtrip() {
        let hub = TelemetryHub::new();
        let mut r = Registry::new();
        r.count("vds.detections", 3);
        r.gauge("smt.thread0.ipc", 1.5);
        hub.merge_registry(&r);
        hub.begin_campaign("test", 10, 4);
        let server = TelemetryServer::bind("127.0.0.1:0", Arc::clone(&hub)).unwrap();
        let addr = server.local_addr();

        let (st, body) = get(addr, "/healthz");
        assert_eq!((st, body.as_str()), (200, "ok\n"));

        // not ready yet
        let (st, _) = get(addr, "/readyz");
        assert_eq!(st, 503);
        hub.mark_ready();
        let (st, body) = get(addr, "/readyz");
        assert_eq!((st, body.as_str()), (200, "ready\n"));

        let (st, body) = get(addr, "/metrics");
        assert_eq!(st, 200);
        assert!(
            body.contains("# TYPE vds_detections_total counter"),
            "{body}"
        );
        assert!(body.contains("vds_detections_total 3"), "{body}");
        assert!(body.contains("smt_thread0_ipc 1.5"), "{body}");

        let (st, body) = get(addr, "/progress");
        assert_eq!(st, 200);
        assert!(body.contains("\"phase\":\"test\""), "{body}");
        assert!(body.contains("\"trials_total\":10"), "{body}");
        assert!(body.contains("\"work_units\":3"), "{body}");
        assert!(
            body.contains("\"counters\":{\"vds.detections\":3}"),
            "{body}"
        );
        // journal block present even before a journal is published
        assert!(
            body.contains(
                "\"journal\":{\"rounds\":0,\"bytes\":0,\"divergences\":0,\"last_divergence\":null}"
            ),
            "{body}"
        );

        // /journal is empty until published, then serves the JSONL
        let (st, body) = get(addr, "/journal");
        assert_eq!((st, body.as_str()), (200, ""));
        let mut j = Journal::enabled(crate::JournalHeader::new("micro", "smt-prob", 1, 10, 2));
        j.push(crate::RoundEntry {
            seq: 0,
            lane: 0,
            round: 1,
            committed: 1,
            sim_time: 0.5,
            d1: crate::digest_words128(&[1]),
            d2: crate::digest_words128(&[1]),
            verdict: crate::journal::Verdict::Match,
            sched: "coschedule[v1,v2]".to_string(),
            action: crate::journal::Action::Commit,
            rollforward: 0,
            fault: None,
            fault_id: None,
            fault_outcome: None,
        });
        hub.publish_journal(&j);
        let (st, body) = get(addr, "/journal");
        assert_eq!(st, 200);
        assert_eq!(body, j.to_jsonl());
        let (_, body) = get(addr, "/progress");
        assert!(body.contains("\"journal\":{\"rounds\":1,"), "{body}");

        let (st, body) = get(addr, "/trace");
        assert_eq!(st, 200);
        assert!(body.starts_with("{\"traceEvents\":["), "{body}");

        // /faults 404s until a forensics report is published, then
        // serves the published JSON verbatim
        let (st, _) = get(addr, "/faults");
        assert_eq!(st, 404);
        let faults = "{\"schema\":\"vds.report.v1\",\"kind\":\"faults\"}".to_string();
        hub.publish_faults(faults.clone());
        let (st, body) = get(addr, "/faults");
        assert_eq!((st, body), (200, faults));

        // /alpha has the same publish-then-verbatim contract
        let (st, body) = get(addr, "/alpha");
        assert_eq!(st, 404);
        assert_eq!(body, "no alpha report published\n");
        let alpha = "{\"schema\":\"vds.report.v1\",\"kind\":\"alpha\"}".to_string();
        hub.publish_alpha(alpha.clone());
        let (st, body) = get(addr, "/alpha");
        assert_eq!((st, body), (200, alpha));

        let (st, _) = get(addr, "/nope");
        assert_eq!(st, 404);
        let (st, body) = get(addr, "/");
        assert_eq!(st, 200);
        assert!(body.contains("/metrics"), "{body}");

        // POST is refused
        let mut s = TcpStream::connect(addr).unwrap();
        write!(
            s,
            "POST /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 405"), "{resp}");

        server.shutdown();
        // the port is released: a fresh bind to the same address works
        let again = TcpListener::bind(addr);
        assert!(again.is_ok());
    }

    #[test]
    fn shutdown_never_tears_an_inflight_scrape() {
        // A scrape racing shutdown — connected (so at worst queued in
        // the listen backlog) before stop flips — must receive the
        // complete declared body; afterwards new connects are refused
        // at the TCP layer. Iterate to hit both sides of the race.
        for _ in 0..20 {
            let hub = TelemetryHub::new();
            hub.mark_ready();
            let server = TelemetryServer::bind("127.0.0.1:0", Arc::clone(&hub)).unwrap();
            let addr = server.local_addr();
            let mut s = TcpStream::connect(addr).unwrap();
            write!(
                s,
                "GET /progress HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
            )
            .unwrap();
            server.shutdown();
            let mut resp = String::new();
            s.read_to_string(&mut resp).unwrap();
            assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
            let (head, body) = resp.split_once("\r\n\r\n").expect("complete header");
            let declared: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .expect("content-length")
                .parse()
                .unwrap();
            assert_eq!(body.len(), declared, "torn body: {resp}");
            assert!(TcpStream::connect(addr).is_err(), "socket still open");
        }
    }

    #[test]
    fn progress_counts_and_done_flag() {
        let hub = TelemetryHub::new();
        hub.begin_campaign("phase-one", 100, 8);
        for _ in 0..5 {
            hub.trial_done();
        }
        hub.shard_done();
        let p = hub.progress_json();
        assert!(p.contains("\"trials_done\":5"), "{p}");
        assert!(p.contains("\"shards_done\":1"), "{p}");
        assert!(p.contains("\"done\":false"), "{p}");
        hub.mark_done();
        assert!(hub.progress_json().contains("\"done\":true"));
        // a new phase resets the counters but keeps the registry
        let mut r = Registry::new();
        r.count("kept", 1);
        hub.merge_registry(&r);
        hub.begin_campaign("phase-two", 7, 2);
        let p = hub.progress_json();
        assert!(p.contains("\"phase\":\"phase-two\""), "{p}");
        assert!(p.contains("\"trials_done\":0"), "{p}");
        assert!(p.contains("\"kept\":1"), "{p}");
    }
}
