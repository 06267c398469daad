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
//! | `POST /shard/execute`        | run a batch of shard tasks (binary wire format; coordinator → worker) |
//! | `GET /metrics`               | the whole registry in Prometheus text format |
//! | `GET /metrics.json`          | request counts, p50/p99 latency, stage + cache + delta + store stats as JSON |
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
//! The accept loop hands each connection to a fixed [`ThreadPool`]; one
//! worker owns the whole keep-alive conversation. Shutdown sets a flag and
//! nudges the listener with a loopback connection so `accept` wakes; the
//! pool drains in-flight requests before `run` returns.

use crate::error::{Result, ServerError};
use crate::http::{read_request, write_response, Request, Response};
use crate::json::Json;
use crate::pool::ThreadPool;
use crate::service::{
    delta_result_to_json, metrics_to_json, metrics_to_prometheus, parse_delta, write_query_result,
    FusionService, ServiceConfig, TableInfo,
};
use hummer_obs::{EventRecord, Span, TraceNode, TraceTree};
use hummer_store::{CatalogStore, StoreOptions};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which I/O discipline [`HummerServer::run`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServingMode {
    /// Nonblocking readiness-driven event loop (the default): each worker
    /// multiplexes many connections through per-connection state machines,
    /// with read/idle timeouts and 503 admission control. See the
    /// [`crate::event`] module.
    #[default]
    Event,
    /// Thread-per-connection blocking I/O: one pool worker owns the whole
    /// keep-alive conversation. Kept selectable for apples-to-apples
    /// comparisons (the exp15 identity gate runs both modes against the
    /// same catalog).
    Blocking,
}

/// Server construction parameters.
///
/// Two thread layers compose here: the worker pool (`threads`) provides
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
    /// Worker threads (each owns one connection at a time).
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
    /// I/O discipline: nonblocking event loop (default) or the legacy
    /// thread-per-connection blocking path.
    pub mode: ServingMode,
    /// Admission cap on concurrently open connections (event mode).
    /// Arrivals beyond the cap get `503` + `Retry-After` and are closed
    /// instead of queueing unboundedly.
    pub max_connections: usize,
    /// How long a *started* request may take to arrive in full before the
    /// connection is answered `408` and closed (event mode).
    pub read_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests
    /// before it is silently reclaimed (event mode).
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
            mode: ServingMode::default(),
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

    /// Request shutdown: set the flag and wake the acceptor.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
        // Nudge the blocking accept; any connection (even one that is
        // immediately dropped) suffices.
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
    pub(crate) mode: ServingMode,
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
            mode: config.mode,
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
        match self.mode {
            ServingMode::Event => crate::event::run(self),
            ServingMode::Blocking => self.run_blocking(),
        }
    }

    /// The legacy thread-per-connection path.
    fn run_blocking(self) -> std::io::Result<()> {
        let pool = ThreadPool::new(self.threads);
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue, // transient accept failure
            };
            let service = Arc::clone(&self.service);
            let shutdown = self.shutdown_handle();
            pool.execute(move || handle_connection(stream, &service, &shutdown));
        }
        drop(pool); // join workers: graceful drain
        Ok(())
    }
}

/// How often an idle worker re-checks the shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Serve one keep-alive connection until close, error, or shutdown.
fn handle_connection(stream: TcpStream, service: &FusionService, shutdown: &ShutdownHandle) {
    let peer_writable = stream.try_clone();
    let mut writer = match peer_writable {
        Ok(w) => w,
        Err(_) => return,
    };
    // Accept-time trace id: even a request rejected before dispatch gets
    // an `X-Hummer-Trace` header (see `finish_rejected`).
    let pretrace = service.tracer().allocate_trace_id();
    // A read timeout lets the worker notice shutdown while parked on an
    // idle keep-alive connection instead of blocking the drain forever.
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    loop {
        // Wait for the next request's first byte via fill_buf: a timeout
        // here consumes nothing, so polling cannot corrupt request framing.
        match reader.fill_buf() {
            Ok([]) => return, // clean close between requests
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shutdown.is_requested() {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        // A request has started: allow a generous window for the rest of it
        // (the clone shares the socket, so this reaches the reader too).
        let _ = writer.set_read_timeout(Some(Duration::from_secs(30)));
        let started = Instant::now();
        let request = match read_request(&mut reader) {
            Ok(Some(r)) => r,
            Ok(None) => return, // clean close between requests
            Err(e) => {
                // Transport gone → nothing to answer; protocol junk → 400,
                // stamped with the accept-time trace id and accounted under
                // the `rejected` endpoint label.
                if !matches!(e, ServerError::Io(_)) {
                    let r = finish_rejected(
                        service,
                        error_response(&e, true),
                        pretrace,
                        started.elapsed(),
                    );
                    let _ = write_response(&mut writer, &r);
                }
                return;
            }
        };
        let wants_close = request.wants_close();
        let mut response = execute_request(&request, service, shutdown, Vec::new());
        response.close = response.close || wants_close || shutdown.is_requested();
        if write_response(&mut writer, &response).is_err() || response.close {
            return;
        }
        let _ = writer.set_read_timeout(Some(IDLE_POLL));
    }
}

/// Execute one parsed request against the service: root span, routing,
/// panic containment, trace header, request metrics. Both serving paths
/// funnel through here; transport concerns (keep-alive, when to close the
/// socket) stay with the caller — except that a panicked handler always
/// demands a close, which the returned response carries.
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
    let mut response = match routed {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => error_response(&e, false),
        Err(_) => {
            // The handler panicked. Answer 500 *and close the socket* —
            // before this existed, the client hung until its own timeout.
            // Any state the handler half-built is suspect, so the
            // connection does not survive.
            service.metrics().record_worker_panic();
            error_response(
                &ServerError::Internal("handler panicked; connection closed".into()),
                true,
            )
        }
    };
    if let Some(id) = trace_id {
        response = response.with_header("x-hummer-trace", format!("{id:016x}"));
    }
    let is_error = response.status >= 400;
    let latency = started.elapsed();
    service
        .metrics()
        .record_request(&endpoint, latency, is_error, trace_id);
    service.events().emit(&EventRecord {
        kind: "request",
        trace: trace_id,
        endpoint: &endpoint,
        status: response.status,
        latency_us: latency.as_micros().min(u64::MAX as u128) as u64,
        shards: response
            .header("x-hummer-shards")
            .and_then(|v| v.parse().ok()),
        error: is_error,
    });
    response
}

/// The metrics label for a request: normalized method + route. Unmatched
/// paths all share one bucket — recording raw paths would let junk traffic
/// grow the metrics map (and its latency rings) without bound.
fn endpoint_label(request: &Request) -> String {
    let route = match request.path.as_str() {
        "/healthz" | "/tables" | "/query" | "/shard/execute" | "/metrics" | "/metrics.json"
        | "/shutdown" => request.path.as_str(),
        p if p.starts_with("/tables/") && p.ends_with("/delta") => "/tables/{name}/delta",
        p if p.starts_with("/tables/") => "/tables/{name}",
        p if p.starts_with("/trace/") => "/trace/{id}",
        _ => "{other}",
    };
    let method = match request.method.as_str() {
        "GET" | "PUT" | "POST" | "DELETE" | "HEAD" | "OPTIONS" | "PATCH" => request.method.as_str(),
        _ => "{other}",
    };
    format!("{method} {route}")
}

/// Finish a response produced *before* dispatch (408 slowloris, 400
/// protocol junk, 503 overload): stamp `X-Hummer-Trace` from the
/// connection's accept-time trace id, count it under the `rejected`
/// endpoint label, and offer it to the event log. These rejections never
/// reach [`execute_request`], so without this they were untraceable and
/// invisible to the request metrics.
pub(crate) fn finish_rejected(
    service: &FusionService,
    mut response: Response,
    trace: Option<u64>,
    latency: Duration,
) -> Response {
    if let Some(id) = trace {
        response = response.with_header("x-hummer-trace", format!("{id:016x}"));
    }
    service
        .metrics()
        .record_request("rejected", latency, true, trace);
    service.events().emit(&EventRecord {
        kind: "reject",
        trace,
        endpoint: "rejected",
        status: response.status,
        latency_us: latency.as_micros().min(u64::MAX as u128) as u64,
        shards: None,
        error: true,
    });
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

fn table_info_json(info: &TableInfo) -> Json {
    Json::object()
        .with("table", info.name.clone())
        .with("rows", info.rows)
        .with(
            "columns",
            Json::Arr(info.columns.iter().map(|c| Json::Str(c.clone())).collect()),
        )
        .with("version", info.version)
}

/// A trace tree as wire JSON: nested `{name, node, start_us, duration_us,
/// counters, children}` objects under `{trace, orphans, roots}`. `node` is
/// absent for local spans and names the worker for spliced remote spans.
fn trace_node_json(node: &TraceNode) -> Json {
    let mut counters = Json::object();
    for (name, value) in &node.record.counters {
        counters.push(name.as_ref(), Json::Int(*value as i64));
    }
    let mut obj = Json::object().with("name", node.record.name.to_string());
    if let Some(worker) = &node.record.node {
        obj = obj.with("node", worker.clone());
    }
    obj.with("start_us", node.record.start_us)
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
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Ok(Response::json(
            200,
            Json::object().with("status", "ok").to_string_compact(),
        )),
        ("GET", "/tables") => {
            let tables: Vec<Json> = service.tables().iter().map(table_info_json).collect();
            Ok(Response::json(
                200,
                Json::object()
                    .with("tables", Json::Arr(tables))
                    .to_string_compact(),
            ))
        }
        ("GET", "/metrics") => Ok(Response::text(200, metrics_to_prometheus(service))),
        ("GET", "/metrics.json") => Ok(Response::json(
            200,
            metrics_to_json(service).to_string_compact(),
        )),
        ("GET", path) if path.starts_with("/trace/") => {
            let id_text = &path["/trace/".len()..];
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
        ("POST", "/query") => {
            let body = request.body_utf8()?;
            let sql = extract_sql(body, request.header("content-type"))?;
            let result = service.query_traced(&sql, parent)?;
            let mut serialize_span = parent.child("serialize");
            recycled.clear();
            let mut body = String::from_utf8(recycled).expect("an empty buffer is valid UTF-8");
            write_query_result(&result, &mut body);
            serialize_span.count("bytes", body.len() as u64);
            drop(serialize_span);
            let mut response = Response::json(200, body);
            if let Some(k) = result.shards {
                // Coordinator mode: how many shards fanned out for this
                // request (0 = served from the prepared cache).
                response = response.with_header("x-hummer-shards", k.to_string());
            }
            Ok(response)
        }
        // Worker side of scatter-gather: a coordinator posts a binary batch
        // of shard tasks; the worker runs detect/cluster/fuse per shard and
        // answers with binary partials. See `hummer_shard::wire`.
        ("POST", "/shard/execute") => {
            let body = service.shard_execute(&request.body, parent)?;
            Ok(Response::octets(200, body))
        }
        // Fault injection for the panic-containment regression tests; only
        // routable when the service opted in (`debug_panic_route`),
        // otherwise the path falls through to 404.
        ("POST", "/__test/panic") if service.debug_panic_route() => {
            panic!("fault injection: POST /__test/panic")
        }
        ("POST", "/shutdown") => {
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
        ("POST", path)
            if path.len() > "/tables//delta".len()
                && path.starts_with("/tables/")
                && path.ends_with("/delta") =>
        {
            let name = &path["/tables/".len()..path.len() - "/delta".len()];
            let delta = parse_delta(name, request.body_utf8()?)?;
            let outcome = service.apply_delta_traced(name, &delta, parent)?;
            Ok(Response::json(
                200,
                delta_result_to_json(&outcome).to_string_compact(),
            ))
        }
        ("PUT", path) if path.starts_with("/tables/") => {
            let name = &path["/tables/".len()..];
            let info = service.put_table(name, request.body_utf8()?)?;
            Ok(Response::json(
                200,
                table_info_json(&info).to_string_compact(),
            ))
        }
        ("DELETE", path) if path.len() > "/tables/".len() && path.starts_with("/tables/") => {
            let name = &path["/tables/".len()..];
            let info = service.delete_table(name)?;
            Ok(Response::json(
                200,
                table_info_json(&info)
                    .with("deleted", true)
                    .to_string_compact(),
            ))
        }
        (_, path)
            if path == "/healthz"
                || path == "/tables"
                || path == "/metrics"
                || path == "/metrics.json"
                || path == "/query"
                || path == "/shard/execute"
                || path == "/shutdown"
                || path.starts_with("/tables/")
                || path.starts_with("/trace/") =>
        {
            Err(ServerError::MethodNotAllowed(format!(
                "{} {}",
                request.method, path
            )))
        }
        (_, path) => Err(ServerError::NotFound(path.to_string())),
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

    #[test]
    fn endpoint_labels_normalize_table_names() {
        let req = Request {
            method: "PUT".into(),
            path: "/tables/EE_Student".into(),
            headers: vec![],
            body: vec![],
        };
        assert_eq!(endpoint_label(&req), "PUT /tables/{name}");
        let req = Request {
            method: "POST".into(),
            path: "/tables/EE_Student/delta".into(),
            headers: vec![],
            body: vec![],
        };
        assert_eq!(endpoint_label(&req), "POST /tables/{name}/delta");
    }

    #[test]
    fn routing_statuses() {
        let service = FusionService::new(ServiceConfig::default());
        // A handle whose wake nudge goes nowhere (no listener behind it).
        let shutdown = ShutdownHandle {
            addr: "127.0.0.1:9".parse().unwrap(),
            flag: Arc::new(AtomicBool::new(false)),
        };
        let noop = Span::noop();
        let req = |method: &str, path: &str, body: &[u8]| Request {
            method: method.into(),
            path: path.into(),
            headers: vec![],
            body: body.to_vec(),
        };
        let ok = route(&req("GET", "/healthz", b""), &service, &shutdown, &noop).unwrap();
        assert_eq!(ok.status, 200);
        let e = route(&req("GET", "/nope", b""), &service, &shutdown, &noop).unwrap_err();
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
        let shutdown = ShutdownHandle {
            addr: "127.0.0.1:9".parse().unwrap(),
            flag: Arc::new(AtomicBool::new(false)),
        };
        let req = |method: &str, path: &str, body: &[u8]| Request {
            method: method.into(),
            path: path.into(),
            headers: vec![],
            body: body.to_vec(),
        };

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

        // /metrics is Prometheus text; /metrics.json is the JSON document.
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
        let j = route(
            &req("GET", "/metrics.json", b""),
            &service,
            &shutdown,
            &Span::noop(),
        )
        .unwrap();
        assert_eq!(j.content_type, "application/json");
        let doc = Json::parse(std::str::from_utf8(&j.body).unwrap()).unwrap();
        assert!(doc.get("prepared_cache").is_some());
    }
}
