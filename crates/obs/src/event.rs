//! Sampled structured event log: one JSON line per served request or
//! delta batch.
//!
//! The sampler is biased toward what an operator actually greps for:
//! errors, overload rejects, and the slowest decile are **always** kept;
//! fast successes are dropped once the log has seen enough traffic to know
//! what "slow" means. Dropped events are counted, so sampling is honest —
//! `written + dropped` is the true event count.
//!
//! The slowest-decile cut uses the same log-bucketed [`Histogram`] as the
//! serving metrics: every event's latency is recorded, and the keep
//! threshold is refreshed to the p90 every [`THRESHOLD_REFRESH`] events.
//! The first [`WARMUP`] events are always written so short runs (tests,
//! smoke scripts) see their traffic.

use crate::hist::Histogram;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

/// Events always written before the sampler trusts its latency threshold.
const WARMUP: u64 = 32;
/// Refresh the cached p90 threshold every this many events.
const THRESHOLD_REFRESH: u64 = 64;

/// One loggable event. Build with struct-literal syntax; `trace` is
/// omitted from the JSON line when `None`.
#[derive(Debug, Clone)]
pub struct EventRecord<'a> {
    /// Event kind: `"request"`, `"delta"`, or `"reject"`.
    pub kind: &'a str,
    /// Trace id of the request this event belongs to, when traced.
    pub trace: Option<u64>,
    /// Endpoint label (e.g. `POST /query`) or stage name.
    pub endpoint: &'a str,
    /// HTTP status answered (0 when not applicable).
    pub status: u16,
    /// Wall-clock latency in microseconds.
    pub latency_us: u64,
    /// Whether the event is an error outcome (always kept).
    pub error: bool,
}

#[derive(Debug)]
struct Inner {
    file: Mutex<File>,
    latencies: Histogram,
    written: AtomicU64,
    dropped: AtomicU64,
    /// Cached slowest-decile threshold in microseconds (p90 of everything
    /// seen so far; 0 until the first refresh).
    threshold_us: AtomicU64,
}

/// A sampled JSON-lines event log. Cloning shares the underlying file;
/// the default is disabled and makes [`EventLog::emit`] free.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    inner: Option<Arc<Inner>>,
}

impl EventLog {
    /// A disabled log: every emit is a no-op.
    pub fn disabled() -> Self {
        EventLog::default()
    }

    /// Open (create or append to) a JSON-lines log at `path`.
    pub fn to_path(path: &Path) -> std::io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(EventLog {
            inner: Some(Arc::new(Inner {
                file: Mutex::new(file),
                latencies: Histogram::new(),
                written: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                threshold_us: AtomicU64::new(0),
            })),
        })
    }

    /// Whether events go anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Events written so far.
    pub fn written(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.written.load(Ordering::Relaxed))
    }

    /// Events the sampler dropped (fast successes past warm-up).
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }

    /// Offer one event to the sampler; write it as a JSON line if kept.
    /// Errors and rejects are always kept; successes are kept while the
    /// sampler warms up or when they fall in the slowest decile.
    pub fn emit(&self, event: &EventRecord<'_>) {
        let Some(inner) = &self.inner else { return };
        inner.latencies.record(event.latency_us);
        let seen = inner.written.load(Ordering::Relaxed) + inner.dropped.load(Ordering::Relaxed);
        if seen % THRESHOLD_REFRESH == THRESHOLD_REFRESH - 1 {
            let p90 = inner.latencies.snapshot().quantile(0.9);
            inner.threshold_us.store(p90.max(1), Ordering::Relaxed);
        }
        let threshold = inner.threshold_us.load(Ordering::Relaxed);
        let keep = event.error
            || event.kind == "reject"
            || seen < WARMUP
            || threshold == 0
            || event.latency_us >= threshold;
        if !keep {
            inner.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }

        let ts_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros().min(u128::from(u64::MAX)) as u64)
            .unwrap_or(0);
        let mut line = String::with_capacity(160);
        line.push_str("{\"ts_us\":");
        line.push_str(&ts_us.to_string());
        line.push_str(",\"kind\":\"");
        json_escape_into(&mut line, event.kind);
        line.push('"');
        if let Some(trace) = event.trace {
            line.push_str(",\"trace\":\"");
            line.push_str(&format!("{trace:016x}"));
            line.push('"');
        }
        line.push_str(",\"endpoint\":\"");
        json_escape_into(&mut line, event.endpoint);
        line.push_str("\",\"status\":");
        line.push_str(&event.status.to_string());
        line.push_str(",\"latency_us\":");
        line.push_str(&event.latency_us.to_string());
        if event.error {
            line.push_str(",\"error\":true");
        }
        line.push_str("}\n");

        // One write_all per line keeps concurrent writers' lines whole;
        // a failed write is dropped silently (the log must never take the
        // serving path down).
        let mut file = inner.file.lock().expect("event log poisoned");
        if file.write_all(line.as_bytes()).is_ok() {
            inner.written.fetch_add(1, Ordering::Relaxed);
        } else {
            inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn json_escape_into(buf: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                buf.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => buf.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hummer_obs_event_{name}_{}", std::process::id()));
        p
    }

    fn event(latency_us: u64, status: u16) -> EventRecord<'static> {
        EventRecord {
            kind: "request",
            trace: Some(0xabc),
            endpoint: "POST /query",
            status,
            latency_us,
            error: status >= 400,
        }
    }

    #[test]
    fn disabled_log_is_free() {
        let log = EventLog::disabled();
        assert!(!log.is_enabled());
        log.emit(&event(10, 200));
        assert_eq!((log.written(), log.dropped()), (0, 0));
    }

    #[test]
    fn errors_and_slowest_survive_sampling() {
        let path = scratch("sampling");
        let _ = std::fs::remove_file(&path);
        let log = EventLog::to_path(&path).unwrap();
        // Warm-up + enough bimodal traffic to arm the threshold: 80% fast
        // at ~100 µs, 20% slow at ~50 ms, so the nearest-rank p90 lands in
        // the slow mode and fast successes fall below it.
        for i in 0..200 {
            let latency = if i % 5 == 4 { 50_000 } else { 100 };
            log.emit(&event(latency, 200));
        }
        let dropped_before = log.dropped();
        assert!(dropped_before > 0, "fast successes must be sampled out");
        log.emit(&event(50, 500)); // error: always kept
        log.emit(&EventRecord {
            kind: "reject",
            trace: None,
            endpoint: "rejected",
            status: 503,
            latency_us: 0,
            error: true,
        });
        log.emit(&event(1_000_000, 200)); // way past p90: kept
        assert_eq!(log.dropped(), dropped_before);

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len() as u64, log.written());
        assert!(text.contains("\"status\":500"));
        assert!(text.contains("\"kind\":\"reject\""));
        assert!(text.contains("\"latency_us\":1000000"));
        assert!(text.contains("\"trace\":\"0000000000000abc\""));
        // Every line is an object with the required keys.
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"ts_us\":") && line.contains("\"endpoint\":"));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn endpoint_strings_are_escaped() {
        let path = scratch("escape");
        let _ = std::fs::remove_file(&path);
        let log = EventLog::to_path(&path).unwrap();
        log.emit(&EventRecord {
            kind: "request",
            trace: None,
            endpoint: "bad\"quote\\and\nnewline",
            status: 200,
            latency_us: 5,
            error: false,
        });
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("bad\\\"quote\\\\and\\nnewline"));
        std::fs::remove_file(&path).ok();
    }
}
