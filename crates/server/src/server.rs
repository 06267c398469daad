//! The long-lived HTTP server: listener, routing, graceful shutdown.
//!
//! ## Endpoints
//!
//! | method & path                | effect |
//! |------------------------------|--------|
//! | `PUT /tables/{name}`         | register/replace a table from a CSV body |
//! | `POST /tables/{name}/delta`  | apply row-level changes; *upgrades* cached pipelines in place |
//! | `DELETE /tables/{name}`      | deregister a table |
//! | `GET /tables`                | list registered tables |
//! | `POST /query`                | execute Fuse By SQL (raw text or `{"sql": …}`) |
//! | `GET /metrics`               | the whole registry in Prometheus text format |
//! | `GET /trace/{id}`            | span tree of a finished request (id from the `X-Hummer-Trace` header) |
//! | `GET /healthz`               | liveness probe |
//! | `POST /shutdown`             | graceful shutdown (finish in-flight, then exit) |
//!
//! When the service tracer is enabled (`hummer-serve` default), every
//! response carries an `X-Hummer-Trace` header naming the request's trace
//! id; `GET /trace/{id}` returns that request's span tree while it is
//! still in the ring.
//!
//! With [`ServerConfig::data_dir`] set, the catalog is durable: every
//! mutation is write-ahead-logged before it is acked, and `bind` recovers
//! the pre-crash catalog (content versions included) from the newest valid
//! snapshot plus the WAL tail.
//!
//! [`HummerServer::run`] serves through the event loop in [`crate::event`]:
//! `threads` workers, each multiplexing many keep-alive connections.
//! Shutdown sets a flag and connects to the listener once so every waiting
//! worker wakes; in-flight requests finish before `run` returns.
//!
//! `Route::of` is the one place the path grammar is written: the metrics
//! label of a request and its dispatch both derive from it, and a known
//! route asked with a method it does not serve is answered 405.

use crate::catalog::{delta_result_to_json, parse_delta, table_info_json};
use crate::error::{Result, ServerError};
use crate::http::{Request, Response};
use crate::json::Json;
use crate::metrics::metrics_to_prometheus;
use crate::service::{write_query_result, FusionService, ServiceConfig};
use hummer_obs::{Span, TraceNode, TraceTree};
use hummer_store::{CatalogStore, StoreOptions};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server construction parameters.
///
/// Two thread layers compose here: the event-loop workers (`threads`) provide
/// *inter*-query concurrency, while `service.pipeline.parallelism` is the
/// *intra*-query degree each request may fan pipeline stages out to.
/// Configure them so they multiply to roughly the machine —
/// `hummer_core::Parallelism::auto_shared(threads)` is the fair per-worker
/// share (what the `hummer-serve` binary defaults to). Both default
/// conservatively: 4 workers × sequential queries.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Event-loop worker threads (each multiplexes many connections).
    pub threads: usize,
    /// Service (pipeline + cache) configuration, including the per-request
    /// intra-query parallelism knob.
    pub service: ServiceConfig,
    /// Durable-catalog directory. `None` (the default) keeps the catalog in
    /// memory only; `Some(dir)` recovers the catalog from `dir` on bind and
    /// write-ahead-logs every mutation before acking it.
    pub data_dir: Option<std::path::PathBuf>,
    /// Store tuning (fsync discipline, compaction threshold); only
    /// meaningful with `data_dir`.
    pub store: StoreOptions,
    /// Admission cap on concurrently open connections. Arrivals beyond the
    /// cap get `503` + `Retry-After` and are closed instead of queueing
    /// unboundedly.
    pub max_connections: usize,
    /// How long a *started* request may take to arrive in full before the
    /// connection is answered `408` and closed.
    pub read_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests
    /// before it is silently reclaimed.
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".into(),
            threads: 4,
            service: ServiceConfig::default(),
            data_dir: None,
            store: StoreOptions::default(),
            max_connections: 1024,
            read_timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(60),
        }
    }
}

/// A handle that can stop a running server from another thread.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    addr: SocketAddr,
    flag: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Assemble a handle from its parts (event workers build their own).
    pub(crate) fn from_parts(addr: SocketAddr, flag: Arc<AtomicBool>) -> ShutdownHandle {
        ShutdownHandle { addr, flag }
    }

    /// Request shutdown: set the flag and connect to the listener once,
    /// which wakes every worker waiting in `poll(2)`; any connection, even
    /// one dropped at once, suffices.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }

    /// Whether shutdown has been requested.
    pub fn is_requested(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// The HTTP server.
#[derive(Debug)]
pub struct HummerServer {
    pub(crate) listener: TcpListener,
    pub(crate) service: Arc<FusionService>,
    pub(crate) threads: usize,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) local_addr: SocketAddr,
    pub(crate) max_connections: usize,
    pub(crate) read_timeout: Duration,
    pub(crate) idle_timeout: Duration,
}

impl HummerServer {
    /// Bind the listener and build the shared service — recovering the
    /// catalog from [`ServerConfig::data_dir`] when one is configured. The
    /// server does not accept connections until [`HummerServer::run`].
    pub fn bind(config: ServerConfig) -> std::io::Result<HummerServer> {
        let service = match &config.data_dir {
            Some(dir) => {
                let (store, recovery) = CatalogStore::open(dir, config.store.clone())?;
                FusionService::with_store(config.service, store, recovery)
            }
            None => FusionService::new(config.service),
        };
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        Ok(HummerServer {
            listener,
            service: Arc::new(service),
            threads: config.threads,
            shutdown: Arc::new(AtomicBool::new(false)),
            local_addr,
            max_connections: config.max_connections.max(1),
            read_timeout: config.read_timeout,
            idle_timeout: config.idle_timeout,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared service (to preload tables before serving).
    pub fn service(&self) -> &Arc<FusionService> {
        &self.service
    }

    /// A handle that stops the server from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            addr: self.local_addr,
            flag: Arc::clone(&self.shutdown),
        }
    }

    /// Serve until shutdown is requested. Returns after all workers drained
    /// their in-flight connections.
    pub fn run(self) -> std::io::Result<()> {
        crate::event::run(self)
    }
}

/// Execute one parsed request against the service: root span, routing,
/// panic containment, trace header, request metrics. Transport concerns
/// (keep-alive, when to close the socket) stay with the event loop —
/// except that a panicked handler always demands a close, which the
/// returned response carries.
///
/// `recycled` is a spent buffer whose capacity a large response may take
/// for its body: a `/query` answer is written into it directly, so an event
/// loop that hands each sent body back in here serves its next answer
/// without allocating for it. Its contents are discarded.
pub(crate) fn execute_request(
    request: &Request,
    service: &FusionService,
    shutdown: &ShutdownHandle,
    recycled: Vec<u8>,
) -> Response {
    let endpoint = endpoint_label(request);
    let started = Instant::now();
    // One root span per request, named by its normalized endpoint; the
    // service threads it through the pipeline so stage spans nest under
    // it. Dropped *before* the response goes out, so a client that
    // immediately asks `/trace/{id}` sees the complete tree.
    let root = service.tracer().trace(endpoint.clone());
    let trace_id = root.trace_id();
    let routed = catch_unwind(AssertUnwindSafe(|| {
        route(request, service, shutdown, &root, recycled)
    }));
    drop(root);
    let response = match routed {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => error_response(&e, false),
        Err(_) => {
            // The handler panicked. Answer 500 *and close the socket* —
            // before this existed, the client hung until its own timeout.
            // Any state the handler half-built is suspect, so the
            // connection does not survive.
            service.metrics().worker_panics.inc();
            error_response(
                &ServerError::Internal("handler panicked; connection closed".into()),
                true,
            )
        }
    };
    finish(service, response, &endpoint, trace_id, started.elapsed())
}

/// A known path, by route. [`Route::of`] is the path grammar; the metrics
/// label and [`route`]'s dispatch and 405 set all derive from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route<'a> {
    Healthz,
    Tables,
    Table(&'a str),
    TableDelta(&'a str),
    Query,
    Metrics,
    Trace(&'a str),
    Shutdown,
}

impl<'a> Route<'a> {
    /// The route a path names, or `None` for an unknown path (404).
    fn of(path: &'a str) -> Option<Route<'a>> {
        Some(match path {
            "/healthz" => Route::Healthz,
            // A trailing slash names the collection, not a table whose
            // name is empty.
            "/tables" | "/tables/" => Route::Tables,
            "/query" => Route::Query,
            "/metrics" => Route::Metrics,
            "/shutdown" => Route::Shutdown,
            _ => {
                if let Some(rest) = path.strip_prefix("/tables/") {
                    match rest.strip_suffix("/delta") {
                        Some(name) if !name.is_empty() => Route::TableDelta(name),
                        _ => Route::Table(rest),
                    }
                } else if let Some(id) = path.strip_prefix("/trace/") {
                    Route::Trace(id)
                } else {
                    return None;
                }
            }
        })
    }

    /// The route's path template, as the metrics label spells it.
    fn template(self) -> &'static str {
        match self {
            Route::Healthz => "/healthz",
            Route::Tables => "/tables",
            Route::Table(_) => "/tables/{name}",
            Route::TableDelta(_) => "/tables/{name}/delta",
            Route::Query => "/query",
            Route::Metrics => "/metrics",
            Route::Trace(_) => "/trace/{id}",
            Route::Shutdown => "/shutdown",
        }
    }
}

/// The metrics label for a request: normalized method + route template.
/// Unknown paths all share one bucket — recording raw paths would let junk
/// traffic grow the metrics map (and its latency rings) without bound.
fn endpoint_label(request: &Request) -> String {
    let route = Route::of(&request.path).map_or("{other}", Route::template);
    let method = match request.method.as_str() {
        "GET" | "PUT" | "POST" | "DELETE" | "HEAD" | "OPTIONS" | "PATCH" => request.method.as_str(),
        _ => "{other}",
    };
    format!("{method} {route}")
}

/// Stamp `X-Hummer-Trace` on a finished response and count it under its
/// endpoint label. Responses produced *before* dispatch (408 slowloris,
/// 400 protocol junk, 503 overload) never reach [`execute_request`]; the
/// event loop finishes them here under the `rejected` label with the
/// connection's accept-time trace id, so they are traceable and counted.
pub(crate) fn finish(
    service: &FusionService,
    mut response: Response,
    endpoint: &str,
    trace: Option<u64>,
    latency: Duration,
) -> Response {
    if let Some(id) = trace {
        response = response.with_header("x-hummer-trace", format!("{id:016x}"));
    }
    let is_error = response.status >= 400;
    service
        .metrics()
        .record_request(endpoint, latency, is_error, trace);
    response
}

pub(crate) fn error_response(e: &ServerError, close: bool) -> Response {
    let body = Json::object()
        .with("error", e.to_string())
        .with("status", i64::from(e.status()))
        .to_string_compact();
    let mut r = Response::json(e.status(), body);
    r.close = close;
    r
}

/// A trace tree as wire JSON: nested `{name, start_us, duration_us,
/// counters, children}` objects under `{trace, orphans, roots}`.
fn trace_node_json(node: &TraceNode) -> Json {
    let mut counters = Json::object();
    for (name, value) in &node.record.counters {
        counters.push(name.as_ref(), Json::Int(*value as i64));
    }
    Json::object()
        .with("name", node.record.name.to_string())
        .with("start_us", node.record.start_us)
        .with("duration_us", node.record.duration_us)
        .with("counters", counters)
        .with(
            "children",
            Json::Arr(node.children.iter().map(trace_node_json).collect()),
        )
}

fn trace_tree_json(tree: &TraceTree) -> Json {
    Json::object()
        .with("trace", format!("{:016x}", tree.trace))
        .with("span_count", tree.span_count())
        .with("orphans", tree.orphans)
        .with(
            "roots",
            Json::Arr(tree.roots.iter().map(trace_node_json).collect()),
        )
}

/// Dispatch one request. `parent` is the per-request root span — stage
/// spans of traced endpoints nest under it.
fn route(
    request: &Request,
    service: &FusionService,
    shutdown: &ShutdownHandle,
    parent: &Span,
    mut recycled: Vec<u8>,
) -> Result<Response> {
    // Fault injection for the panic-containment regression tests; only
    // routable when the service opted in (`debug_panic_route`), otherwise
    // the path is unknown (404).
    if request.method == "POST" && request.path == "/__test/panic" && service.debug_panic_route() {
        panic!("fault injection: POST /__test/panic")
    }
    let Some(target) = Route::of(&request.path) else {
        return Err(ServerError::NotFound(request.path.clone()));
    };
    match (request.method.as_str(), target) {
        ("GET", Route::Healthz) => Ok(Response::json(
            200,
            Json::object().with("status", "ok").to_string_compact(),
        )),
        ("GET", Route::Tables) => {
            let tables: Vec<Json> = service.tables().iter().map(table_info_json).collect();
            Ok(Response::json(
                200,
                Json::object()
                    .with("tables", Json::Arr(tables))
                    .to_string_compact(),
            ))
        }
        ("GET", Route::Metrics) => Ok(Response::text(200, metrics_to_prometheus(service))),
        ("GET", Route::Trace(id_text)) => {
            let id = u64::from_str_radix(id_text, 16)
                .map_err(|_| ServerError::BadRequest(format!("bad trace id `{id_text}`")))?;
            let tree = service
                .tracer()
                .trace_tree(id)
                .ok_or_else(|| ServerError::NotFound(format!("trace {id_text}")))?;
            Ok(Response::json(
                200,
                trace_tree_json(&tree).to_string_compact(),
            ))
        }
        ("POST", Route::Query) => {
            let body = request.body_utf8()?;
            let sql = extract_sql(body, request.header("content-type"))?;
            let result = service.query(&sql, parent)?;
            let mut serialize_span = parent.child("serialize");
            recycled.clear();
            let mut body = String::from_utf8(recycled).expect("an empty buffer is valid UTF-8");
            write_query_result(&result, &mut body);
            serialize_span.count("bytes", body.len() as u64);
            drop(serialize_span);
            Ok(Response::json(200, body))
        }
        ("POST", Route::Shutdown) => {
            // Full shutdown (flag + acceptor wake): without the wake the
            // listener would keep the process alive until the next
            // unrelated connection arrived.
            shutdown.shutdown();
            let mut r = Response::json(
                200,
                Json::object()
                    .with("status", "shutting down")
                    .to_string_compact(),
            );
            r.close = true;
            Ok(r)
        }
        ("POST", Route::TableDelta(name)) => {
            let delta = parse_delta(name, request.body_utf8()?)?;
            let outcome = service.apply_delta(name, &delta, parent)?;
            Ok(Response::json(
                200,
                delta_result_to_json(&outcome).to_string_compact(),
            ))
        }
        ("PUT", Route::Table(name)) => {
            let info = service.put_table(name, request.body_utf8()?)?;
            Ok(Response::json(
                200,
                table_info_json(&info).to_string_compact(),
            ))
        }
        ("DELETE", Route::Table(name)) => {
            let info = service.delete_table(name)?;
            Ok(Response::json(
                200,
                table_info_json(&info)
                    .with("deleted", true)
                    .to_string_compact(),
            ))
        }
        _ => Err(ServerError::MethodNotAllowed(format!(
            "{} {}",
            request.method, request.path
        ))),
    }
}

/// `POST /query` accepts raw SQL or a JSON document `{"sql": "..."}`.
fn extract_sql(body: &str, content_type: Option<&str>) -> Result<String> {
    let looks_json = content_type.is_some_and(|c| c.contains("application/json"))
        || body.trim_start().starts_with('{');
    if looks_json {
        let doc = Json::parse(body)?;
        return doc
            .get("sql")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| {
                ServerError::BadRequest("JSON query body needs a string `sql` field".into())
            });
    }
    let sql = body.trim();
    if sql.is_empty() {
        return Err(ServerError::BadRequest("empty query body".into()));
    }
    Ok(sql.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`super::route`] without a buffer to recycle.
    fn route(
        request: &Request,
        service: &FusionService,
        shutdown: &ShutdownHandle,
        parent: &Span,
    ) -> Result<Response> {
        super::route(request, service, shutdown, parent, Vec::new())
    }

    #[test]
    fn extract_sql_variants() {
        assert_eq!(extract_sql("SELECT 1", None).unwrap(), "SELECT 1");
        assert_eq!(
            extract_sql("{\"sql\": \"SELECT 1\"}", Some("application/json")).unwrap(),
            "SELECT 1"
        );
        assert_eq!(extract_sql("  {\"sql\": \"S\"} ", None).unwrap(), "S");
        assert!(extract_sql("{\"nope\": 1}", None).is_err());
        assert!(extract_sql("   ", None).is_err());
        assert!(extract_sql("{broken", Some("application/json")).is_err());
    }

    /// A handle whose wake nudge goes nowhere (no listener behind it).
    fn nowhere() -> ShutdownHandle {
        ShutdownHandle::from_parts("127.0.0.1:9".parse().unwrap(), Arc::default())
    }

    fn req(method: &str, path: &str, body: &[u8]) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            headers: vec![],
            body: body.to_vec(),
        }
    }

    #[test]
    fn endpoint_labels_normalize_table_names() {
        for (method, path, label) in [
            ("PUT", "/tables/EE_Student", "PUT /tables/{name}"),
            (
                "POST",
                "/tables/EE_Student/delta",
                "POST /tables/{name}/delta",
            ),
            // Degenerate paths carry the label of the route that answers
            // them (405, see `routing_statuses`): no table name before
            // `/delta` is a table path, and a bare `/tables/` the collection.
            ("POST", "/tables//delta", "POST /tables/{name}"),
            ("POST", "/tables/delta", "POST /tables/{name}"),
            ("DELETE", "/tables/", "DELETE /tables"),
            ("GET", "/nope", "GET {other}"),
            ("BREW", "/query", "{other} /query"),
            // A route that no longer exists is labelled like any unknown path.
            ("POST", "/shard/execute", "POST {other}"),
        ] {
            assert_eq!(endpoint_label(&req(method, path, b"")), label, "{path}");
        }
    }

    #[test]
    fn routing_statuses() {
        let service = FusionService::new(ServiceConfig::default());
        let shutdown = nowhere();
        let noop = Span::noop();
        let ok = route(&req("GET", "/healthz", b""), &service, &shutdown, &noop).unwrap();
        assert_eq!(ok.status, 200);
        let e = route(&req("GET", "/nope", b""), &service, &shutdown, &noop).unwrap_err();
        assert_eq!(e.status(), 404);
        let e = route(
            &req("POST", "/shard/execute", b"HmSh"),
            &service,
            &shutdown,
            &noop,
        )
        .unwrap_err();
        assert_eq!(e.status(), 404);
        let e = route(&req("DELETE", "/query", b""), &service, &shutdown, &noop).unwrap_err();
        assert_eq!(e.status(), 405);
        let e = route(
            &req("POST", "/query", b"SELECT * FROM Ghosts"),
            &service,
            &shutdown,
            &noop,
        )
        .unwrap_err();
        assert_eq!(e.status(), 404);
        let put = route(
            &req("PUT", "/tables/T", b"a,b\n1,2\n"),
            &service,
            &shutdown,
            &noop,
        )
        .unwrap();
        assert_eq!(put.status, 200);
        // Delta endpoint: applies and answers 200 with the new version.
        let d = route(
            &req("POST", "/tables/T/delta", br#"{"insert": [[3, 4]]}"#),
            &service,
            &shutdown,
            &noop,
        )
        .unwrap();
        assert_eq!(d.status, 200);
        let body = String::from_utf8(d.body.clone()).unwrap();
        assert!(body.contains("\"rows\":2"), "{body}");
        // Unknown table and malformed bodies surface proper statuses.
        let e = route(
            &req("POST", "/tables/Nope/delta", br#"{"delete": [0]}"#),
            &service,
            &shutdown,
            &noop,
        )
        .unwrap_err();
        assert_eq!(e.status(), 404);
        // Degenerate delta paths (no table name) must not panic on the
        // name slice; they fall through to method-not-allowed.
        for degenerate in ["/tables/delta", "/tables//delta"] {
            let e = route(&req("POST", degenerate, b"{}"), &service, &shutdown, &noop).unwrap_err();
            assert_eq!(e.status(), 405, "{degenerate}");
            assert_eq!(
                Route::of(degenerate).map(Route::template),
                Some("/tables/{name}")
            );
        }
        let e = route(
            &req("POST", "/tables/T/delta", b"{"),
            &service,
            &shutdown,
            &noop,
        )
        .unwrap_err();
        assert_eq!(e.status(), 400);
        // Deregistration: 200 with the final shape, then 404 on repeat.
        let del = route(&req("DELETE", "/tables/T", b""), &service, &shutdown, &noop).unwrap();
        assert_eq!(del.status, 200);
        let body = String::from_utf8(del.body.clone()).unwrap();
        assert!(body.contains("\"deleted\":true"), "{body}");
        let e = route(&req("DELETE", "/tables/T", b""), &service, &shutdown, &noop).unwrap_err();
        assert_eq!(e.status(), 404);
        // A bare DELETE /tables/ (no name) is method-not-allowed, not a panic.
        let e = route(&req("DELETE", "/tables/", b""), &service, &shutdown, &noop).unwrap_err();
        assert_eq!(e.status(), 405);
        assert_eq!(Route::of("/tables/"), Some(Route::Tables));
        assert!(!shutdown.is_requested());
        let bye = route(&req("POST", "/shutdown", b""), &service, &shutdown, &noop).unwrap();
        assert_eq!(bye.status, 200);
        assert!(bye.close);
        assert!(shutdown.is_requested());
    }

    #[test]
    fn metrics_routes_and_trace_endpoint() {
        use crate::service::ServiceConfig;
        use hummer_core::ObsConfig;
        let mut config = ServiceConfig::narrow_schema();
        config.pipeline.obs = ObsConfig::enabled(4096);
        let service = FusionService::new(config);
        service
            .put_table("A", "Name,Age\nJohn Smith,24\nMary Jones,22\n")
            .unwrap();
        service
            .put_table("B", "Name,Age\nJohn Smith,25\nAda Lovelace,28\n")
            .unwrap();
        let shutdown = nowhere();

        // A traced query: stage spans nest under the request root.
        let root = service.tracer().trace("POST /query");
        let trace_id = root.trace_id().unwrap();
        let r = route(
            &req(
                "POST",
                "/query",
                b"SELECT Name FUSE FROM A, B FUSE BY (objectID)",
            ),
            &service,
            &shutdown,
            &root,
        )
        .unwrap();
        assert_eq!(r.status, 200);
        drop(root);

        // The trace endpoint returns the assembled tree.
        let t = route(
            &req("GET", &format!("/trace/{trace_id:016x}"), b""),
            &service,
            &shutdown,
            &Span::noop(),
        )
        .unwrap();
        let tree = Json::parse(std::str::from_utf8(&t.body).unwrap()).unwrap();
        let roots = tree.get("roots").unwrap().as_array().unwrap();
        assert_eq!(roots.len(), 1, "one request root, no orphans");
        let names: Vec<&str> = roots[0]
            .get("children")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|c| c.get("name").unwrap().as_str().unwrap())
            .collect();
        assert!(names.contains(&"prepare"), "{names:?}");
        assert!(names.contains(&"fuse"), "{names:?}");
        assert!(names.contains(&"serialize"), "{names:?}");
        // The serialize span accounts for every byte of the served body.
        let serialize = roots[0].get("children").unwrap().as_array().unwrap();
        let serialize = serialize
            .iter()
            .find(|c| c.get("name").unwrap().as_str() == Some("serialize"))
            .unwrap();
        let bytes = serialize.get("counters").unwrap().get("bytes");
        assert_eq!(bytes.and_then(Json::as_i64), Some(r.body.len() as i64));

        // Unknown and malformed trace ids.
        let e = route(
            &req("GET", "/trace/ffffffffffffffff", b""),
            &service,
            &shutdown,
            &Span::noop(),
        )
        .unwrap_err();
        assert_eq!(e.status(), 404);
        let e = route(
            &req("GET", "/trace/not-hex", b""),
            &service,
            &shutdown,
            &Span::noop(),
        )
        .unwrap_err();
        assert_eq!(e.status(), 400);

        // /metrics is Prometheus text.
        let m = route(
            &req("GET", "/metrics", b""),
            &service,
            &shutdown,
            &Span::noop(),
        )
        .unwrap();
        assert!(m.content_type.starts_with("text/plain"));
        let text = String::from_utf8(m.body).unwrap();
        assert!(
            text.contains("# TYPE hummer_stage_seconds histogram"),
            "{text}"
        );
        assert!(
            text.contains("hummer_stage_seconds_bucket{stage=\"detect\""),
            "{text}"
        );
        assert!(
            text.contains("hummer_prepared_cache_misses_total 1"),
            "{text}"
        );
    }
}
