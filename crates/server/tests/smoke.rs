//! End-to-end smoke tests: a real server on a real socket, driven through
//! the loadgen client — upload, query, cache behavior, errors, concurrency,
//! graceful shutdown.

use hummer_server::loadgen::{http_request, run_load, Client, LoadConfig};
use hummer_server::promlint::{self, Scrape};
use hummer_server::{HummerServer, Json, ObsConfig, ServerConfig, ServiceConfig};
use std::path::PathBuf;
use std::thread;

const EE_CSV: &[u8] =
    b"Name,Age,City\nJohn Smith,24,Berlin\nMary Jones,22,Hamburg\nPeter Miller,27,Munich\n";
const CS_CSV: &[u8] =
    b"FullName,Years,Town\nJohn Smith,25,Berlin\nMary Jones,22,Hamburg\nAda Lovelace,28,London\n";
const PAPER_QUERY: &[u8] =
    b"SELECT Name, RESOLVE(Age, max) FUSE FROM EE_Student, CS_Students FUSE BY (Name)";

/// Start a server on an ephemeral port; returns (addr, shutdown closure).
///
/// Tracing is on (as `hummer-serve` runs by default), so every response
/// carries `X-Hummer-Trace` and the tests exercise the instrumented path.
fn start_server(threads: usize) -> (String, impl FnOnce()) {
    let mut service = ServiceConfig::narrow_schema();
    service.pipeline.obs = ObsConfig::enabled(4096);
    start_server_with(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads,
        service,
        ..ServerConfig::default()
    })
}

/// `GET /metrics`, parsed.
fn scrape(addr: &str) -> Scrape {
    let (status, text) = http_request(addr, "GET", "/metrics", "text/plain", b"").unwrap();
    assert_eq!(status, 200);
    promlint::parse(&text).unwrap()
}

/// `GET /tables`, counted.
fn table_count(addr: &str) -> usize {
    let (status, body) = http_request(addr, "GET", "/tables", "text/plain", b"").unwrap();
    assert_eq!(status, 200, "{body}");
    let tables = Json::parse(&body).unwrap();
    tables.get("tables").unwrap().as_array().unwrap().len()
}

fn start_server_with(config: ServerConfig) -> (String, impl FnOnce()) {
    let server = HummerServer::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let join = thread::spawn(move || server.run().unwrap());
    (addr, move || {
        handle.shutdown();
        join.join().unwrap();
    })
}

#[test]
fn upload_query_metrics_shutdown() {
    let (addr, stop) = start_server(4);

    // Health.
    let (status, body) = http_request(&addr, "GET", "/healthz", "text/plain", b"").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("ok"));

    // Upload the paper's two tables.
    let (status, _) = http_request(&addr, "PUT", "/tables/EE_Student", "text/csv", EE_CSV).unwrap();
    assert_eq!(status, 200);
    let (status, body) =
        http_request(&addr, "PUT", "/tables/CS_Students", "text/csv", CS_CSV).unwrap();
    assert_eq!(status, 200);
    let info = Json::parse(&body).unwrap();
    assert_eq!(info.get("rows").unwrap().as_i64(), Some(3));

    // Table listing.
    assert_eq!(table_count(&addr), 2);

    // The paper's query: heterogeneous schemas fused into 4 students.
    let (status, body) = http_request(&addr, "POST", "/query", "text/plain", PAPER_QUERY).unwrap();
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("row_count").unwrap().as_i64(), Some(4));
    assert_eq!(doc.get("cache").unwrap().as_str(), Some("miss"));
    assert_eq!(doc.get("fused").unwrap(), &Json::Bool(true));

    // Same sources again: served from the prepared-pipeline cache.
    let (_, body) = http_request(&addr, "POST", "/query", "text/plain", PAPER_QUERY).unwrap();
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("cache").unwrap().as_str(), Some("hit"));

    // JSON body form.
    let json_body = Json::object()
        .with(
            "sql",
            "SELECT Name FUSE FROM EE_Student, CS_Students FUSE BY (objectID)",
        )
        .to_string_compact();
    let (status, body) = http_request(
        &addr,
        "POST",
        "/query",
        "application/json",
        json_body.as_bytes(),
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("cache").unwrap().as_str(), Some("hit"));

    // Metrics reflect all of the above.
    let m = scrape(&addr);
    assert!(m.sum("hummer_requests_total", &[]) >= 6.0);
    assert_eq!(
        m.value("hummer_prepared_cache_misses_total", &[]),
        Some(1.0)
    );
    assert_eq!(m.value("hummer_prepared_cache_hits_total", &[]), Some(2.0));

    // The exposition's metadata, as a Prometheus server reads it.
    let (status, prom) = http_request(&addr, "GET", "/metrics", "text/plain", b"").unwrap();
    assert_eq!(status, 200);
    assert!(
        prom.contains("# TYPE hummer_requests_total counter"),
        "{prom}"
    );
    assert!(prom.contains("hummer_requests_total{endpoint=\"POST /query\"}"));
    assert!(prom.contains("# TYPE hummer_stage_seconds histogram"));
    assert!(prom.contains("hummer_prepared_cache_hits_total 2"));

    stop();
}

#[test]
fn error_statuses_on_the_wire() {
    let (addr, stop) = start_server(2);
    let (status, _) = http_request(&addr, "GET", "/nope", "text/plain", b"").unwrap();
    assert_eq!(status, 404);
    let (status, _) = http_request(&addr, "DELETE", "/query", "text/plain", b"").unwrap();
    assert_eq!(status, 405);
    let (status, body) = http_request(
        &addr,
        "POST",
        "/query",
        "text/plain",
        b"SELECT * FROM Ghosts",
    )
    .unwrap();
    assert_eq!(status, 404);
    assert!(Json::parse(&body).unwrap().get("error").is_some());
    let (status, _) =
        http_request(&addr, "POST", "/query", "text/plain", b"SELEKT garbage").unwrap();
    assert_eq!(status, 400);
    let (status, _) = http_request(&addr, "PUT", "/tables/Bad", "text/csv", b"a,b\n1\n").unwrap();
    assert_eq!(status, 400);
    stop();
}

#[test]
fn keep_alive_connection_serves_many_requests() {
    let (addr, stop) = start_server(2);
    http_request(&addr, "PUT", "/tables/EE_Student", "text/csv", EE_CSV).unwrap();
    http_request(&addr, "PUT", "/tables/CS_Students", "text/csv", CS_CSV).unwrap();
    let mut client = Client::connect(&addr).unwrap();
    for _ in 0..10 {
        let (status, body) = client
            .request("POST", "/query", "text/plain", PAPER_QUERY)
            .unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"row_count\":4"));
    }

    // Every response carries X-Hummer-Trace; the span tree for that id is
    // immediately fetchable and rooted at the request's endpoint label.
    let meta = client
        .request_meta("POST", "/query", "text/plain", PAPER_QUERY)
        .unwrap();
    assert_eq!(meta.status, 200);
    let trace = meta.trace.expect("response carries X-Hummer-Trace");
    let (status, body) =
        http_request(&addr, "GET", &format!("/trace/{trace}"), "text/plain", b"").unwrap();
    assert_eq!(status, 200, "{body}");
    let tree = Json::parse(&body).unwrap();
    assert_eq!(tree.get("trace").unwrap().as_str(), Some(trace.as_str()));
    assert!(tree.get("span_count").unwrap().as_i64().unwrap() >= 2);
    assert!(body.contains("POST /query"), "{body}");
    stop();
}

#[test]
fn delta_over_http_upgrades_cache_and_mixed_load_runs() {
    let (addr, stop) = start_server(4);
    http_request(&addr, "PUT", "/tables/EE_Student", "text/csv", EE_CSV).unwrap();
    http_request(&addr, "PUT", "/tables/CS_Students", "text/csv", CS_CSV).unwrap();
    // Warm the prepared cache.
    let (status, _) = http_request(&addr, "POST", "/query", "text/plain", PAPER_QUERY).unwrap();
    assert_eq!(status, 200);

    // POST a delta: insert a fifth student into CS.
    let delta = br#"{"insert": [["Grace Hopper", "37", "Arlington"]]}"#;
    let (status, body) = http_request(
        &addr,
        "POST",
        "/tables/CS_Students/delta",
        "application/json",
        delta,
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("rows").unwrap().as_i64(), Some(4));
    assert_eq!(
        doc.get("cache").unwrap().get("upgraded").unwrap().as_i64(),
        Some(1)
    );

    // The next query hits the upgraded entry and reflects the insert.
    let (_, body) = http_request(&addr, "POST", "/query", "text/plain", PAPER_QUERY).unwrap();
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("row_count").unwrap().as_i64(), Some(5));
    assert_eq!(doc.get("cache").unwrap().as_str(), Some("hit"));

    // Mixed read/update load: every 4th request is a delta update.
    let update_body = Json::object()
        .with(
            "update",
            Json::Arr(vec![Json::object().with("row", 0usize).with(
                "values",
                Json::Arr(vec![
                    Json::Str("John Smith".into()),
                    Json::Int(26),
                    Json::Str("Berlin".into()),
                ]),
            )]),
        )
        .to_string_compact();
    let report = run_load(&LoadConfig {
        addr: addr.clone(),
        connections: 4,
        requests: 40,
        sql_pool: vec![String::from_utf8(PAPER_QUERY.to_vec()).unwrap()],
        update_every: 4,
        update_pool: vec![("/tables/CS_Students/delta".into(), update_body)],
    });
    assert_eq!(report.errors, 0, "{report:?}");
    assert_eq!(report.ok, 40);
    assert_eq!(report.updates_ok, 10);

    // Delta counters surfaced in /metrics.
    let m = scrape(&addr);
    assert_eq!(m.value("hummer_deltas_applied_total", &[]), Some(11.0));
    assert!(
        m.value("hummer_prepared_cache_upgrades_total", &[])
            .unwrap()
            >= 1.0
    );
    stop();
}

#[test]
fn concurrent_load_is_consistent() {
    let (addr, stop) = start_server(4);
    http_request(&addr, "PUT", "/tables/EE_Student", "text/csv", EE_CSV).unwrap();
    http_request(&addr, "PUT", "/tables/CS_Students", "text/csv", CS_CSV).unwrap();
    let report = run_load(&LoadConfig {
        addr: addr.clone(),
        connections: 8,
        requests: 80,
        sql_pool: vec![String::from_utf8(PAPER_QUERY.to_vec()).unwrap()],
        update_every: 0,
        update_pool: Vec::new(),
    });
    assert_eq!(report.errors, 0);
    assert_eq!(report.ok, 80);
    assert!(report.p99_ms >= report.p50_ms);
    // At most a few cold misses (concurrent first arrivals may race), then
    // everything hits.
    let hits = scrape(&addr)
        .value("hummer_prepared_cache_hits_total", &[])
        .unwrap();
    assert!(
        hits >= 72.0,
        "expected most requests to hit the cache, got {hits}"
    );
    stop();
}

#[test]
fn durable_server_recovers_catalog_across_restart() {
    let dir = std::env::temp_dir().join(format!("hummer_smoke_store_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let durable_config = || ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        service: ServiceConfig::narrow_schema(),
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };

    // First life: register, delta, query.
    let before = {
        let (addr, stop) = start_server_with(durable_config());
        http_request(&addr, "PUT", "/tables/EE_Student", "text/csv", EE_CSV).unwrap();
        http_request(&addr, "PUT", "/tables/CS_Students", "text/csv", CS_CSV).unwrap();
        let delta = br#"{"insert": [["Grace Hopper", "37", "Arlington"]]}"#;
        let (status, _) = http_request(
            &addr,
            "POST",
            "/tables/CS_Students/delta",
            "application/json",
            delta,
        )
        .unwrap();
        assert_eq!(status, 200);
        let (_, body) = http_request(&addr, "POST", "/query", "text/plain", PAPER_QUERY).unwrap();
        stop();
        body
    };

    // Second life, same directory: the catalog — including the delta — is
    // back, and the fused result is identical.
    let (addr, stop) = start_server_with(durable_config());
    assert_eq!(table_count(&addr), 2);
    let (_, after) = http_request(&addr, "POST", "/query", "text/plain", PAPER_QUERY).unwrap();
    let result_of = |body: &str| {
        Json::parse(body)
            .unwrap()
            .get("result")
            .unwrap()
            .to_string_compact()
    };
    assert_eq!(result_of(&after), result_of(&before));
    assert!(after.contains("\"row_count\":5"), "{after}");

    // The store gauges (WAL records, recovery time, ...) are on /metrics.
    let m = scrape(&addr);
    assert!(m.value("hummer_store_recovery_seconds", &[]).is_some());
    assert!(m.value("hummer_store_wal_records", &[]).unwrap() >= 3.0);

    // DELETE is durable too.
    let (status, _) =
        http_request(&addr, "DELETE", "/tables/EE_Student", "text/plain", b"").unwrap();
    assert_eq!(status, 200);
    stop();

    let (addr, stop) = start_server_with(durable_config());
    assert_eq!(table_count(&addr), 1);
    stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_endpoint_stops_the_server() {
    let (addr, _stop) = start_server(2);
    let server_thread_addr = addr.clone();
    let (status, _) =
        http_request(&server_thread_addr, "POST", "/shutdown", "text/plain", b"").unwrap();
    assert_eq!(status, 200);
    // The listener stops accepting shortly after; poll until connects fail
    // or the responses stop coming.
    let gone = (0..50).any(|_| {
        thread::sleep(std::time::Duration::from_millis(20));
        http_request(&addr, "GET", "/healthz", "text/plain", b"").is_err()
    });
    assert!(gone, "server kept serving after shutdown");
}

// The `/metrics` exposition, pinned: every family's `# HELP` and `# TYPE`
// line in the order the server prints them, for an in-memory and a durable
// server, and the sample lines one scripted session leaves.

/// Every family's `# HELP` and `# TYPE` line, in print order, with the
/// sample lines the pinned session leaves (byte for byte), up to where a
/// durable server prints its store's families ([`STORE`]), then [`TAIL`].
/// Two of four rows touched is a majority, so the delta's detection
/// rescores in full; the upgraded cache entry replaces the one it was
/// upgraded from, and the delete takes it out of the cache, so no entry is
/// left and none was ever evicted.
const HEAD: &str = r#"# HELP hummer_requests_total Requests served, by endpoint.
# TYPE hummer_requests_total counter
hummer_requests_total{endpoint="DELETE /tables/{name}"} 1
hummer_requests_total{endpoint="POST /query"} 2
hummer_requests_total{endpoint="POST /tables/{name}/delta"} 1
hummer_requests_total{endpoint="PUT /tables/{name}"} 2
# HELP hummer_request_errors_total Requests that returned an error status, by endpoint.
# TYPE hummer_request_errors_total counter
hummer_request_errors_total{endpoint="DELETE /tables/{name}"} 0
hummer_request_errors_total{endpoint="POST /query"} 0
hummer_request_errors_total{endpoint="POST /tables/{name}/delta"} 0
hummer_request_errors_total{endpoint="PUT /tables/{name}"} 0
# HELP hummer_request_seconds End-to-end request latency, by endpoint.
# TYPE hummer_request_seconds histogram
hummer_request_seconds_count{endpoint="POST /query"} 2
# HELP hummer_stage_seconds Pipeline stage latency, by stage and parallelism degree.
# TYPE hummer_stage_seconds histogram
hummer_stage_seconds_count{stage="detect",degree="1"} 1
hummer_stage_seconds_count{stage="fuse",degree="1"} 2
hummer_stage_seconds_count{stage="match",degree="1"} 1
hummer_stage_seconds_count{stage="transform",degree="1"} 1
# HELP hummer_conn_state_seconds Time connections spend in each lifecycle state (event loop).
# TYPE hummer_conn_state_seconds histogram
# HELP hummer_overload_rejects_total Connections refused with 503 at the admission gate.
# TYPE hummer_overload_rejects_total counter
hummer_overload_rejects_total 0
# HELP hummer_read_timeouts_total Started requests that stalled past the read deadline (408).
# TYPE hummer_read_timeouts_total counter
hummer_read_timeouts_total 0
# HELP hummer_idle_reclaims_total Idle keep-alive connections reclaimed silently.
# TYPE hummer_idle_reclaims_total counter
hummer_idle_reclaims_total 0
# HELP hummer_worker_panics_total Requests whose handler panicked (answered 500, socket closed).
# TYPE hummer_worker_panics_total counter
hummer_worker_panics_total 0
# HELP hummer_event_loop_wakeups_total Returns of event-loop workers from their readiness wait.
# TYPE hummer_event_loop_wakeups_total counter
# HELP hummer_prepared_cache_hits_total Prepared-pipeline cache hits.
# TYPE hummer_prepared_cache_hits_total counter
hummer_prepared_cache_hits_total 1
# HELP hummer_prepared_cache_misses_total Prepared-pipeline cache misses (cold prepares).
# TYPE hummer_prepared_cache_misses_total counter
hummer_prepared_cache_misses_total 1
# HELP hummer_prepared_cache_evictions_total Prepared-pipeline cache LRU evictions.
# TYPE hummer_prepared_cache_evictions_total counter
hummer_prepared_cache_evictions_total 0
# HELP hummer_prepared_cache_upgrades_total Prepared entries upgraded in place by deltas.
# TYPE hummer_prepared_cache_upgrades_total counter
hummer_prepared_cache_upgrades_total 1
# HELP hummer_prepared_cache_upgrade_failures_total Delta upgrades that failed (entry dropped).
# TYPE hummer_prepared_cache_upgrade_failures_total counter
hummer_prepared_cache_upgrade_failures_total 0
# HELP hummer_deltas_applied_total Delta batches applied.
# TYPE hummer_deltas_applied_total counter
hummer_deltas_applied_total 1
# HELP hummer_deltas_rows_inserted_total Rows inserted by deltas.
# TYPE hummer_deltas_rows_inserted_total counter
hummer_deltas_rows_inserted_total 1
# HELP hummer_deltas_rows_updated_total Rows updated by deltas.
# TYPE hummer_deltas_rows_updated_total counter
hummer_deltas_rows_updated_total 1
# HELP hummer_deltas_rows_deleted_total Rows deleted by deltas.
# TYPE hummer_deltas_rows_deleted_total counter
hummer_deltas_rows_deleted_total 0
# HELP hummer_deltas_full_rescores_total Delta upgrades that degraded to a full rescore.
# TYPE hummer_deltas_full_rescores_total counter
hummer_deltas_full_rescores_total 1
# HELP hummer_delta_index_builds_total Delta indexes (match + detection) built by delta upgrades.
# TYPE hummer_delta_index_builds_total counter
hummer_delta_index_builds_total 1
# HELP hummer_par_forks_total Scoped worker threads forked for intra-query parallelism.
# TYPE hummer_par_forks_total counter
hummer_par_forks_total 0
# HELP hummer_prepared_cache_entries Prepared-pipeline cache live entries.
# TYPE hummer_prepared_cache_entries gauge
hummer_prepared_cache_entries 0
"#;

/// Four mutations, each acked alone: four records, four fsyncs, four
/// one-record group commits.
const STORE: &str = "\
# HELP hummer_store_generation Live snapshot generation.
# TYPE hummer_store_generation gauge
hummer_store_generation 0
# HELP hummer_store_wal_bytes Current WAL size in bytes.
# TYPE hummer_store_wal_bytes gauge
hummer_store_wal_bytes 565
# HELP hummer_store_wal_records Records in the current WAL.
# TYPE hummer_store_wal_records gauge
hummer_store_wal_records 4
# HELP hummer_store_snapshots_total Snapshots written by this process (compactions).
# TYPE hummer_store_snapshots_total counter
hummer_store_snapshots_total 0
# HELP hummer_store_recovery_seconds Wall time of the most recent open+recover.
# TYPE hummer_store_recovery_seconds gauge
# HELP hummer_store_fsyncs_total WAL commit fsyncs issued.
# TYPE hummer_store_fsyncs_total counter
hummer_store_fsyncs_total 4
# HELP hummer_store_group_commits_total WAL group-commit batches written.
# TYPE hummer_store_group_commits_total counter
hummer_store_group_commits_total 4
# HELP hummer_store_fsync_enabled Whether WAL commits fsync (1) or not (0, --no-fsync).
# TYPE hummer_store_fsync_enabled gauge
hummer_store_fsync_enabled 1
# HELP hummer_store_fsync_seconds WAL commit fsync latency.
# TYPE hummer_store_fsync_seconds histogram
hummer_store_fsync_seconds_count 4
# HELP hummer_store_group_commit_records Records per WAL group-commit batch.
# TYPE hummer_store_group_commit_records histogram
hummer_store_group_commit_records_sum 4
hummer_store_group_commit_records_count 4
";

const TAIL: &str = "\
# HELP hummer_trace_spans Span records currently held in the trace ring.
# TYPE hummer_trace_spans gauge
hummer_trace_spans 0
# HELP hummer_trace_spans_dropped_total Span records evicted from the trace ring.
# TYPE hummer_trace_spans_dropped_total counter
hummer_trace_spans_dropped_total 0
";

/// Run the pinned session — two uploads, a query miss, a hit, one delta,
/// one delete — against a fresh untraced server and return its first
/// `/metrics` body.
fn exposition_after_session(data_dir: Option<PathBuf>) -> String {
    let (addr, stop) = start_server_with(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        service: ServiceConfig::narrow_schema(),
        data_dir,
        ..ServerConfig::default()
    });
    let call = |method: &str, path: &str, body: &[u8]| {
        let (status, text) = http_request(&addr, method, path, "text/plain", body).unwrap();
        assert_eq!(status, 200, "{method} {path}: {text}");
        text
    };
    call("PUT", "/tables/EE_Student", EE_CSV);
    call("PUT", "/tables/CS_Students", CS_CSV);
    assert!(call("POST", "/query", PAPER_QUERY).contains("\"cache\":\"miss\""));
    assert!(call("POST", "/query", PAPER_QUERY).contains("\"cache\":\"hit\""));
    call(
        "POST",
        "/tables/CS_Students/delta",
        br#"{"insert": [["Grace Hopper", "37", "Arlington"]],
             "update": [{"row": 0, "values": ["John Smith", 26, "Berlin"]}]}"#,
    );
    call("DELETE", "/tables/EE_Student", b"");
    let text = call("GET", "/metrics", b"");
    stop();
    text
}

/// `text` is a clean exposition whose `# HELP` / `# TYPE` lines are those
/// of `expected`, in order, and which holds every other line of it.
fn assert_exposition(text: &str, expected: &[&str]) {
    let expected = expected.concat();
    let header = |l: &&str| l.starts_with("# HELP ") || l.starts_with("# TYPE ");
    let headers = |doc: &str| doc.lines().filter(header).collect::<Vec<_>>().join("\n");
    assert_eq!(headers(text), headers(&expected));
    assert!(promlint::lint(text).ok(), "{text}");
    for line in expected.lines().filter(|l| !header(l)) {
        assert!(text.lines().any(|l| l == line), "no `{line}` in\n{text}");
    }
}

#[test]
fn in_memory_exposition_is_pinned() {
    let text = exposition_after_session(None);
    assert_exposition(&text, &[HEAD, TAIL]);
}

#[test]
fn durable_exposition_is_pinned() {
    let dir = hummer_store::scratch::dir("exposition");
    let text = exposition_after_session(Some(dir.clone()));
    std::fs::remove_dir_all(&dir).ok();
    assert_exposition(&text, &[HEAD, STORE, TAIL]);
}
