//! # hummer-server — HumMer as a long-lived fusion query service
//!
//! The paper's HumMer is a library plus one-shot experiment binaries; this
//! crate is the production shape the ROADMAP asks for: a multi-threaded
//! HTTP/1.1 server (`std::net` and one libc call — no external dependencies) owning a
//! shared, versioned table catalog and serving Fuse By SQL over a small
//! JSON wire protocol.
//!
//! The performance centerpiece is the **prepared-pipeline cache**
//! ([`cache`]): DUMAS schema matching, the renamed outer-union transform,
//! and duplicate detection's `objectID` annotation are keyed by the
//! (ordered) source-table set and each table's content version, so repeated
//! queries over the same sources skip straight to fusion + query execution.
//!
//! * [`service`] — the transport-independent core: [`FusionService`]
//!   (catalog, cache, metrics, and the optional durable store
//!   (`hummer_store`) that write-ahead-logs every catalog mutation and
//!   recovers it on boot) and the query path with its JSON rendering;
//! * [`catalog`] — catalog mutations (upload, delta, delete), each through
//!   one commit path, and the listing;
//! * [`server`] — listener, routing, graceful shutdown;
//! * [`event`] — the nonblocking event loop that serves every connection:
//!   per-connection state machines that wait in `poll(2)`, read/idle
//!   timeouts, 503 admission control;
//! * [`http`] — minimal HTTP/1.1 request/response framing;
//! * [`json`] — the hand-rolled JSON writer/parser the wire protocol uses;
//! * [`error`] — [`ServerError`] with HTTP status mapping;
//! * [`metrics`] — lock-free latency histograms (`hummer_obs`), request
//!   counts, stage histograms, counters, and their Prometheus text
//!   exposition on `GET /metrics` (read back with [`promlint::parse`]);
//!   per-request span trees are on `GET /trace/{id}`;
//! * [`loadgen`] — the load-generating client (also a binary).
//!
//! ## In-process quickstart
//!
//! ```
//! use hummer_server::{HummerServer, ServerConfig, ServiceConfig};
//! use hummer_server::loadgen::http_request;
//!
//! let mut config = ServerConfig::default();
//! config.addr = "127.0.0.1:0".into(); // ephemeral port
//! config.service = ServiceConfig::narrow_schema();
//! let server = HummerServer::bind(config).unwrap();
//! let addr = server.local_addr().to_string();
//! let handle = server.shutdown_handle();
//! let thread = std::thread::spawn(move || server.run().unwrap());
//!
//! let (status, _) = http_request(
//!     &addr, "PUT", "/tables/People", "text/csv",
//!     b"Name,City\nJohn Smith,Berlin\nJon Smith,Berlin\n",
//! ).unwrap();
//! assert_eq!(status, 200);
//! let (status, body) = http_request(
//!     &addr, "POST", "/query", "text/plain",
//!     b"SELECT Name, City FUSE FROM People FUSE BY (objectID)",
//! ).unwrap();
//! assert_eq!(status, 200);
//! assert!(body.contains("\"row_count\""));
//!
//! handle.shutdown();
//! thread.join().unwrap();
//! ```

#![warn(missing_docs)]
// `deny`, not `forbid`: the event loop's wait is a foreign call (poll(2)),
// and `sys` is the one module allowed to make it. CI holds the line that
// `forbid` held until then: one file, one `allow`.
#![deny(unsafe_code)]

pub mod cache;
pub mod catalog;
pub mod error;
pub mod event;
pub mod http;
pub mod json;
pub mod loadgen;
pub mod metrics;
pub mod promlint;
mod reaper;
pub mod server;
pub mod service;
#[allow(unsafe_code)]
mod sys;

pub use cache::{CacheStats, PreparedCache, PreparedKey};
pub use catalog::{parse_delta, DeltaApplyResult, TableInfo};
pub use error::{Result, ServerError};
pub use hummer_core::{ObsConfig, Parallelism, Tracer};
pub use hummer_store::{CatalogStore, StoreOptions, StoreStats};
pub use json::{Json, JsonError};
pub use metrics::Metrics;
pub use server::{HummerServer, ServerConfig, ShutdownHandle};
pub use service::{FusionService, QueryResult, ServiceConfig};
