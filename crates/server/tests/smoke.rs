//! End-to-end smoke tests: a real server on a real socket, driven through
//! the loadgen client — upload, query, cache behavior, errors, concurrency,
//! graceful shutdown.

use hummer_server::loadgen::{http_request, run_load, Client, LoadConfig};
use hummer_server::promlint::{self, Scrape};
use hummer_server::{HummerServer, Json, ObsConfig, ServerConfig, ServiceConfig};
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
    let (status, body) = http_request(&addr, "GET", "/tables", "text/plain", b"").unwrap();
    assert_eq!(status, 200);
    let tables = Json::parse(&body).unwrap();
    assert_eq!(tables.get("tables").unwrap().as_array().unwrap().len(), 2);

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
    let (status, tables) = http_request(&addr, "GET", "/tables", "text/plain", b"").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        Json::parse(&tables)
            .unwrap()
            .get("tables")
            .unwrap()
            .as_array()
            .unwrap()
            .len(),
        2
    );
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
    let (_, tables) = http_request(&addr, "GET", "/tables", "text/plain", b"").unwrap();
    assert_eq!(
        Json::parse(&tables)
            .unwrap()
            .get("tables")
            .unwrap()
            .as_array()
            .unwrap()
            .len(),
        1
    );
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
