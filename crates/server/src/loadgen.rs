//! The load-generating client: a minimal HTTP/1.1 client plus a
//! multi-connection load driver with latency statistics.
//!
//! Used three ways: as the `loadgen` binary (fan N concurrent connections
//! over generated scenario worlds against a remote server), from hbench's
//! serving workloads (its [`Client`] and scenario worlds), and from the
//! server's integration tests (`crates/server/tests/smoke.rs`).

use crate::error::{Result, ServerError};
use crate::json::Json;
use hummer_obs::{Histogram, HistogramSnapshot};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// A persistent keep-alive client connection.
#[derive(Debug)]
pub struct Client {
    addr: String,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to `host:port`.
    pub fn connect(addr: &str) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?; // latency benchmark client: no Nagle
        let writer = stream.try_clone()?;
        Ok(Client {
            addr: addr.to_string(),
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Issue one request; reconnects once if the pooled connection died
    /// (e.g. the server restarted between calls).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        content_type: &str,
        body: &[u8],
    ) -> Result<(u16, String)> {
        self.request_meta(method, path, content_type, body)
            .map(|m| (m.status, m.body))
    }

    /// [`Client::request`] returning the full response metadata, the
    /// `X-Hummer-Trace` header the server attaches when its tracer is
    /// enabled included.
    pub fn request_meta(
        &mut self,
        method: &str,
        path: &str,
        content_type: &str,
        body: &[u8],
    ) -> Result<ResponseMeta> {
        match self.request_once(method, path, content_type, body) {
            Err(ServerError::Io(_)) => {
                let fresh = Client::connect(&self.addr)?;
                *self = fresh;
                self.request_once(method, path, content_type, body)
            }
            other => other,
        }
    }

    fn request_once(
        &mut self,
        method: &str,
        path: &str,
        content_type: &str,
        body: &[u8],
    ) -> Result<ResponseMeta> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\n\r\n",
            self.addr,
            body.len(),
        );
        // One write per request (see `write_response` on the Nagle stall).
        let mut message = Vec::with_capacity(head.len() + body.len());
        message.extend_from_slice(head.as_bytes());
        message.extend_from_slice(body);
        self.writer.write_all(&message)?;
        self.writer.flush()?;
        read_response(&mut self.reader)
    }
}

/// One parsed HTTP response with the headers the load driver cares about.
#[derive(Debug, Clone)]
pub struct ResponseMeta {
    /// HTTP status code.
    pub status: u16,
    /// Body text.
    pub body: String,
    /// `X-Hummer-Trace` header, when the server's tracer is enabled.
    pub trace: Option<String>,
}

/// Read one HTTP response: status line, headers (capturing
/// `X-Hummer-Trace`), `Content-Length` body.
fn read_response<R: BufRead>(reader: &mut R) -> Result<ResponseMeta> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(ServerError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before response",
        )));
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ServerError::BadRequest(format!("bad status line `{status_line}`")))?;
    let mut content_length = 0usize;
    let mut trace = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(ServerError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-headers",
            )));
        }
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    ServerError::BadRequest(format!("bad content-length `{value}`"))
                })?;
            } else if name.trim().eq_ignore_ascii_case("x-hummer-trace") {
                trace = Some(value.trim().to_string());
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    String::from_utf8(body)
        .map(|text| ResponseMeta {
            status,
            body: text,
            trace,
        })
        .map_err(|_| ServerError::BadRequest("response body is not UTF-8".into()))
}

/// One-shot convenience request on a fresh connection.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    content_type: &str,
    body: &[u8],
) -> Result<(u16, String)> {
    Client::connect(addr)?
        .request_once(method, path, content_type, body)
        .map(|m| (m.status, m.body))
}

/// Upload one scenario world's sources as `{prefix}_{source}` tables and
/// return the `FUSE BY (objectID)` query exercising them.
pub fn upload_world(
    addr: &str,
    prefix: &str,
    world: &hummer_datagen::GeneratedWorld,
) -> Result<String> {
    let mut aliases = Vec::new();
    for source in &world.sources {
        let alias = format!("{prefix}_{}", source.table.name());
        let csv = hummer_engine::csv::write_csv_str(&source.table);
        let (status, body) = http_request(
            addr,
            "PUT",
            &format!("/tables/{alias}"),
            "text/csv",
            csv.as_bytes(),
        )?;
        if status != 200 {
            return Err(ServerError::Internal(format!(
                "upload {alias} failed with {status}: {body}"
            )));
        }
        aliases.push(alias);
    }
    Ok(format!(
        "SELECT * FUSE FROM {} FUSE BY (objectID)",
        aliases.join(", ")
    ))
}

/// Build the delta-request pool for the mixed read/update workload: for
/// each uploaded world (same `prefix` as [`upload_world`]), two alternating
/// updates of row 0 of its first source — the original row and a perturbed
/// variant — so consecutive deltas genuinely change content and exercise
/// the server's incremental cache-upgrade path.
pub fn update_pool_for_worlds(
    prefixed_worlds: &[(String, &hummer_datagen::GeneratedWorld)],
) -> Vec<(String, String)> {
    use crate::service::value_to_json;
    let mut pool = Vec::new();
    for (prefix, world) in prefixed_worlds {
        let Some(source) = world.sources.first() else {
            continue;
        };
        let Some(row) = source.table.rows().first() else {
            continue;
        };
        let path = format!("/tables/{prefix}_{}/delta", source.table.name());
        let original: Vec<Json> = row.values().iter().map(value_to_json).collect();
        let mut perturbed = original.clone();
        if let Some(slot) = perturbed.iter_mut().find(|v| matches!(v, Json::Str(_))) {
            if let Json::Str(s) = slot {
                s.push_str(" upd");
            }
        } else {
            perturbed.push(Json::Str("upd".into())); // won't arise: worlds carry text
        }
        for values in [perturbed, original] {
            let body = Json::object()
                .with(
                    "update",
                    Json::Arr(vec![Json::object()
                        .with("row", 0usize)
                        .with("values", Json::Arr(values))]),
                )
                .to_string_compact();
            pool.push((path.clone(), body));
        }
    }
    pool
}

/// Generate a standard world mix, cycling the paper's four demo scenarios.
pub fn scenario_worlds(
    count: usize,
    entities: usize,
    seed: u64,
) -> Vec<hummer_datagen::GeneratedWorld> {
    use hummer_datagen::scenarios::{
        cd_shopping, cleansing_service, disaster_registry, student_rosters,
    };
    (0..count)
        .map(|i| {
            let s = seed + i as u64;
            match i % 4 {
                0 => cd_shopping(entities, s),
                1 => disaster_registry(entities, s),
                2 => student_rosters(entities, s),
                _ => cleansing_service(entities, s),
            }
        })
        .collect()
}

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server `host:port`.
    pub addr: String,
    /// Concurrent connections (threads).
    pub connections: usize,
    /// Total requests across all connections.
    pub requests: usize,
    /// SQL statements cycled round-robin across requests.
    pub sql_pool: Vec<String>,
    /// Every `update_every`-th request becomes a delta `POST` drawn from
    /// `update_pool` instead of a query (`0` = read-only run). This is the
    /// mixed read/update mode exercising delta ingestion under concurrent
    /// queries.
    pub update_every: usize,
    /// `(path, json_body)` delta requests, cycled like `sql_pool`.
    pub update_pool: Vec<(String, String)>,
}

/// Aggregated load-run results.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests that returned HTTP 200.
    pub ok: usize,
    /// Requests that failed (transport error or non-200).
    pub errors: usize,
    /// Of `errors`, how many were `503` admission-control rejections
    /// (overloaded server shedding load rather than queueing).
    pub rejects: usize,
    /// Of `ok`, how many were delta (update) requests.
    pub updates_ok: usize,
    /// Of `errors`, how many were delta (update) requests.
    pub update_errors: usize,
    /// Wall time of the whole run.
    pub elapsed: Duration,
    /// Successful requests per second.
    pub throughput_rps: f64,
    /// Mean latency (ms) over successful requests.
    pub mean_ms: f64,
    /// Median latency (ms).
    pub p50_ms: f64,
    /// 90th-percentile latency (ms).
    pub p90_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_ms: f64,
    /// 99.9th-percentile latency (ms).
    pub p999_ms: f64,
    /// Merged latency histogram of all successful requests (microsecond
    /// samples) — the percentiles above are read from it.
    pub latency: HistogramSnapshot,
    /// The slowest successful requests, worst first (at most 10):
    /// `(latency_ms, trace_id)` where the trace id comes from the server's
    /// `X-Hummer-Trace` header (`None` when tracing is disabled). Feed an
    /// id to `GET /trace/{id}` to see where that request's time went.
    pub slowest: Vec<(f64, Option<String>)>,
}

/// Fan `connections` threads over the server, each issuing its share of
/// `requests` (round-robin over `sql_pool`) on a persistent connection.
pub fn run_load(config: &LoadConfig) -> LoadReport {
    let connections = config.connections.max(1);
    let next = Arc::new(AtomicUsize::new(0));
    let started = Instant::now();
    let mut handles = Vec::with_capacity(connections);
    for _ in 0..connections {
        let next = Arc::clone(&next);
        let addr = config.addr.clone();
        let pool = config.sql_pool.clone();
        let updates = config.update_pool.clone();
        let update_every = if config.update_pool.is_empty() {
            0
        } else {
            config.update_every
        };
        let total = config.requests;
        handles.push(thread::spawn(move || {
            // Lock-free per-thread histogram; merged after the join. The
            // slowest list keeps the worst 10 with their trace ids so the
            // tail can be explained span-by-span via `GET /trace/{id}`.
            let hist = Histogram::new();
            let mut tally = ThreadTally::default();
            let mut client = Client::connect(&addr).ok();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let Some(c) = client.as_mut() else {
                    tally.errors += 1;
                    continue;
                };
                // The mixed workload interleaves deltas deterministically:
                // every `update_every`-th global request mutates a source.
                let is_update = update_every > 0 && i % update_every == update_every - 1;
                let t0 = Instant::now();
                let outcome = if is_update {
                    let (path, body) = &updates[(i / update_every) % updates.len()];
                    c.request_meta("POST", path, "application/json", body.as_bytes())
                } else {
                    let sql = &pool[i % pool.len()];
                    c.request_meta("POST", "/query", "text/plain", sql.as_bytes())
                };
                match outcome {
                    Ok(m) if m.status == 200 => {
                        let elapsed = t0.elapsed();
                        hist.record_duration(elapsed);
                        push_slowest(&mut tally.slowest, elapsed.as_secs_f64() * 1e3, m.trace);
                        if is_update {
                            tally.updates_ok += 1;
                        }
                    }
                    Ok(m) => {
                        tally.errors += 1;
                        if m.status == 503 {
                            tally.rejects += 1;
                            // The server closes rejected connections;
                            // reconnect before the next request.
                            client = Client::connect(&addr).ok();
                        }
                        if is_update {
                            tally.update_errors += 1;
                        }
                    }
                    Err(_) => {
                        tally.errors += 1;
                        if is_update {
                            tally.update_errors += 1;
                        }
                        client = None; // connection is poisoned; fail fast
                    }
                }
            }
            (hist.snapshot(), tally)
        }));
    }
    let mut latency = HistogramSnapshot::default();
    let mut total = ThreadTally::default();
    let mut slowest: Vec<(f64, Option<String>)> = Vec::new();
    for h in handles {
        let (snap, tally) = h
            .join()
            .unwrap_or((HistogramSnapshot::default(), ThreadTally::default()));
        latency.merge(&snap);
        for (ms, trace) in tally.slowest {
            push_slowest(&mut slowest, ms, trace);
        }
        total.errors += tally.errors;
        total.rejects += tally.rejects;
        total.updates_ok += tally.updates_ok;
        total.update_errors += tally.update_errors;
    }
    let elapsed = started.elapsed();
    let ok = latency.count() as usize;
    let q = |p: f64| latency.quantile(p) as f64 / 1e3;
    LoadReport {
        ok,
        errors: total.errors,
        rejects: total.rejects,
        updates_ok: total.updates_ok,
        update_errors: total.update_errors,
        elapsed,
        throughput_rps: if elapsed.as_secs_f64() > 0.0 {
            ok as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        },
        mean_ms: latency.mean() / 1e3,
        p50_ms: q(0.5),
        p90_ms: q(0.9),
        p99_ms: q(0.99),
        p999_ms: q(0.999),
        latency,
        slowest,
    }
}

impl LoadReport {
    /// Render the report as the `loadgen` binary prints it: counts,
    /// latency percentiles, and the slowest-10 with their trace ids.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "requests_ok      {}", self.ok);
        let _ = writeln!(out, "requests_err     {}", self.errors);
        let _ = writeln!(out, "rejects_503      {}", self.rejects);
        let _ = writeln!(out, "updates_ok       {}", self.updates_ok);
        let _ = writeln!(out, "updates_err      {}", self.update_errors);
        let _ = writeln!(out, "elapsed_s        {:.3}", self.elapsed.as_secs_f64());
        let _ = writeln!(out, "throughput_rps   {:.1}", self.throughput_rps);
        let _ = writeln!(out, "latency_mean_ms  {:.3}", self.mean_ms);
        let _ = writeln!(out, "latency_p50_ms   {:.3}", self.p50_ms);
        let _ = writeln!(out, "latency_p90_ms   {:.3}", self.p90_ms);
        let _ = writeln!(out, "latency_p99_ms   {:.3}", self.p99_ms);
        let _ = writeln!(out, "latency_p999_ms  {:.3}", self.p999_ms);
        // The tail, explained: the worst requests with their trace ids —
        // `curl http://{addr}/trace/{id}` shows the span tree of each.
        for (i, (ms, trace)) in self.slowest.iter().enumerate() {
            let _ = writeln!(
                out,
                "slowest_{i:02}       {ms:.3} ms  trace={}",
                trace.as_deref().unwrap_or("-")
            );
        }
        out
    }
}

/// Per-thread load counters, merged after the join.
#[derive(Default)]
struct ThreadTally {
    slowest: Vec<(f64, Option<String>)>,
    errors: usize,
    rejects: usize,
    updates_ok: usize,
    update_errors: usize,
}

/// How many of the slowest requests a load run reports.
const SLOWEST_KEPT: usize = 10;

/// Insert into a worst-first top-`SLOWEST_KEPT` list.
fn push_slowest(slowest: &mut Vec<(f64, Option<String>)>, ms: f64, trace: Option<String>) {
    let at = slowest
        .iter()
        .position(|(v, _)| ms > *v)
        .unwrap_or(slowest.len());
    if at < SLOWEST_KEPT {
        slowest.insert(at, (ms, trace));
        slowest.truncate(SLOWEST_KEPT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_response_parses_status_and_body() {
        let raw = "HTTP/1.1 404 Not Found\r\ncontent-type: application/json\r\ncontent-length: 2\r\n\r\n{}";
        let m = read_response(&mut BufReader::new(raw.as_bytes())).unwrap();
        assert_eq!(m.status, 404);
        assert_eq!(m.body, "{}");
        assert_eq!(m.trace, None);
    }

    #[test]
    fn read_response_captures_trace_header() {
        let raw = "HTTP/1.1 200 OK\r\nx-hummer-trace: 00000000000000a1\r\n\
                   content-length: 2\r\n\r\nok";
        let m = read_response(&mut BufReader::new(raw.as_bytes())).unwrap();
        assert_eq!(m.status, 200);
        assert_eq!(m.body, "ok");
        assert_eq!(m.trace.as_deref(), Some("00000000000000a1"));
    }

    #[test]
    fn slowest_list_keeps_worst_first_and_bounds_length() {
        let mut slowest = Vec::new();
        for i in 0..50u64 {
            // Interleave so insertion hits both ends.
            let ms = if i % 2 == 0 {
                i as f64
            } else {
                100.0 - i as f64
            };
            push_slowest(&mut slowest, ms, Some(format!("{i:016x}")));
        }
        assert_eq!(slowest.len(), SLOWEST_KEPT);
        for pair in slowest.windows(2) {
            assert!(pair[0].0 >= pair[1].0, "{slowest:?}");
        }
        assert_eq!(slowest[0].0, 99.0);
    }

    #[test]
    fn render_emits_slowest_traces() {
        let report = LoadReport {
            ok: 3,
            errors: 0,
            rejects: 0,
            updates_ok: 0,
            update_errors: 0,
            elapsed: Duration::from_millis(10),
            throughput_rps: 300.0,
            mean_ms: 1.0,
            p50_ms: 1.0,
            p90_ms: 2.0,
            p99_ms: 2.0,
            p999_ms: 2.0,
            latency: HistogramSnapshot::default(),
            slowest: vec![(2.5, Some("00000000000000a1".into())), (1.0, None)],
        };
        let rendered = report.render();
        assert!(rendered.contains("slowest_00"), "{rendered}");
        assert!(rendered.contains("trace=00000000000000a1"), "{rendered}");
        assert!(rendered.contains("trace=-"), "{rendered}");
    }

    #[test]
    fn read_response_rejects_garbage() {
        assert!(read_response(&mut BufReader::new(&b"NOPE\r\n\r\n"[..])).is_err());
        assert!(read_response(&mut BufReader::new(&b""[..])).is_err());
    }
}
