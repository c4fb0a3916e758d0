//! Leveled structured-logging facade: JSON lines on stderr.
//!
//! The simulation's *results* flow through the deterministic exporters;
//! everything a human or a log collector needs to know about the
//! *process* (dropped span records, files written, torn journal lines)
//! goes through this facade instead of ad-hoc `eprintln!`.
//! One line per event, machine-parseable:
//!
//! ```text
//! {"ts":1722945600.123,"level":"warn","component":"cli","msg":"span records dropped — raise --trace-capacity","dropped":236,"capacity":8}
//! ```
//!
//! The threshold is process-global: set it with [`set_level`] /
//! [`set_level_str`] (the CLI's `--log-level` flag) or [`init_from_env`]
//! (the `VDS_LOG` environment variable: `off`, `error`, `warn`, `info`,
//! `debug`). Default: `info`. Logging never touches stdout and never
//! feeds back into registries, so exports stay byte-deterministic no
//! matter how chatty the process is.
//!
//! Use the [`crate::log_error!`], [`crate::log_warn!`],
//! [`crate::log_info!`] and [`crate::log_debug!`] macros for plain
//! messages, or [`log_with`] to attach structured fields. Tests capture
//! output with [`capture`].

use crate::registry::json_escape;
use crate::span::Value;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The process cannot do what it was asked to.
    Error,
    /// Results are fine but something needs operator attention.
    Warn,
    /// Milestones (a file written, a campaign finished).
    Info,
    /// High-volume diagnostics.
    Debug,
}

impl Level {
    /// Lower-case name used in the JSON `level` field.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// Threshold encoding: number of enabled levels (0 = off … 4 = debug).
static THRESHOLD: AtomicU8 = AtomicU8::new(3); // info

/// Enable levels up to and including `level`; `None` disables logging.
pub fn set_level(level: Option<Level>) {
    let t = match level {
        None => 0,
        Some(l) => l as u8 + 1,
    };
    THRESHOLD.store(t, Ordering::Relaxed);
}

/// Parse and apply a level name (`off`, `error`, `warn`, `info`,
/// `debug`); returns an error message for anything else.
pub fn set_level_str(s: &str) -> Result<(), String> {
    match s.to_ascii_lowercase().as_str() {
        "off" | "none" => set_level(None),
        "error" => set_level(Some(Level::Error)),
        "warn" | "warning" => set_level(Some(Level::Warn)),
        "info" => set_level(Some(Level::Info)),
        "debug" => set_level(Some(Level::Debug)),
        other => {
            return Err(format!(
                "unknown log level `{other}` (expected off, error, warn, info or debug)"
            ))
        }
    }
    Ok(())
}

/// Apply the `VDS_LOG` environment variable, if set and valid.
pub fn init_from_env() {
    if let Ok(v) = std::env::var("VDS_LOG") {
        let _ = set_level_str(&v);
    }
}

/// Whether a message at `level` would currently be emitted.
pub fn enabled(level: Level) -> bool {
    (level as u8) < THRESHOLD.load(Ordering::Relaxed)
}

/// Emit a plain message. Prefer the `log_*!` macros at call sites.
pub fn log(level: Level, component: &str, msg: &str) {
    log_with(level, component, msg, &[]);
}

/// Emit a message with structured fields appended to the JSON object.
pub fn log_with(level: Level, component: &str, msg: &str, fields: &[(&str, Value)]) {
    if !enabled(level) {
        return;
    }
    let ts = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0);
    let mut line = format!(
        "{{\"ts\":{ts:.3},\"level\":\"{}\",\"component\":\"{}\",\"msg\":\"{}\"",
        level.as_str(),
        json_escape(component),
        json_escape(msg)
    );
    for (k, v) in fields {
        line.push_str(&format!(",\"{}\":{}", json_escape(k), v.to_json()));
    }
    line.push('}');
    let mut cap = CAPTURE.lock().unwrap_or_else(|e| e.into_inner());
    match cap.as_mut() {
        Some(buf) => {
            buf.push_str(&line);
            buf.push('\n');
        }
        None => eprintln!("{line}"),
    }
}

/// While a [`Capture`] is live, log lines accumulate here instead of
/// going to stderr.
static CAPTURE: Mutex<Option<String>> = Mutex::new(None);

/// Serializes concurrent tests that capture; logging itself never waits
/// on this.
static CAPTURE_GATE: Mutex<()> = Mutex::new(());

/// An active log capture (see [`capture`]). Dropping it restores stderr
/// output.
pub struct Capture {
    _gate: MutexGuard<'static, ()>,
}

impl Capture {
    /// Stop capturing and return everything logged since [`capture`].
    pub fn take(self) -> String {
        CAPTURE
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .unwrap_or_default()
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        *CAPTURE.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

/// Redirect log output into a buffer until the returned guard is dropped
/// (or [`Capture::take`]n). Captures are process-global; concurrent
/// callers serialize on an internal lock, so tests can use this safely.
pub fn capture() -> Capture {
    let gate = CAPTURE_GATE.lock().unwrap_or_else(|e| e.into_inner());
    *CAPTURE.lock().unwrap_or_else(|e| e.into_inner()) = Some(String::new());
    Capture { _gate: gate }
}

/// Log at [`Level::Error`]: `log_error!("component", "format {}", args)`.
#[macro_export]
macro_rules! log_error {
    ($component:expr, $($fmt:tt)+) => {
        $crate::logging::log($crate::logging::Level::Error, $component, &format!($($fmt)+))
    };
}

/// Log at [`Level::Warn`]: `log_warn!("component", "format {}", args)`.
#[macro_export]
macro_rules! log_warn {
    ($component:expr, $($fmt:tt)+) => {
        $crate::logging::log($crate::logging::Level::Warn, $component, &format!($($fmt)+))
    };
}

/// Log at [`Level::Info`]: `log_info!("component", "format {}", args)`.
#[macro_export]
macro_rules! log_info {
    ($component:expr, $($fmt:tt)+) => {
        $crate::logging::log($crate::logging::Level::Info, $component, &format!($($fmt)+))
    };
}

/// Log at [`Level::Debug`]: `log_debug!("component", "format {}", args)`.
#[macro_export]
macro_rules! log_debug {
    ($component:expr, $($fmt:tt)+) => {
        $crate::logging::log($crate::logging::Level::Debug, $component, &format!($($fmt)+))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_filter_and_lines_are_jsonl() {
        let cap = capture();
        set_level(Some(Level::Info));
        crate::log_warn!("test", "dropped {} records", 40);
        log_with(
            Level::Info,
            "test",
            "with fields",
            &[("count", 7u64.into()), ("label", "a\"b".into())],
        );
        crate::log_debug!("test", "should be filtered");
        let out = cap.take();
        assert_eq!(out.lines().count(), 2, "{out}");
        assert!(out.contains("\"level\":\"warn\""), "{out}");
        assert!(out.contains("\"msg\":\"dropped 40 records\""), "{out}");
        assert!(out.contains("\"count\":7"), "{out}");
        assert!(out.contains("\"label\":\"a\\\"b\""), "{out}");
        assert!(!out.contains("filtered"), "{out}");
        for line in out.lines() {
            assert!(
                line.starts_with("{\"ts\":") && line.ends_with('}'),
                "{line}"
            );
        }
    }

    #[test]
    fn off_disables_everything_and_env_parsing_rejects_garbage() {
        let cap = capture();
        set_level(None);
        crate::log_error!("test", "silence");
        assert!(!enabled(Level::Error));
        set_level(Some(Level::Debug));
        assert!(enabled(Level::Debug));
        assert!(set_level_str("warn").is_ok());
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        assert!(set_level_str("loud").is_err());
        let out = cap.take();
        assert!(!out.contains("silence"), "{out}");
        // restore the default so other tests keep their expectations
        set_level(Some(Level::Info));
    }
}
