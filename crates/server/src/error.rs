//! The server's error type and its HTTP status mapping.
//!
//! Every fallible layer below the wire (socket I/O, CSV ingestion, SQL
//! parsing, pipeline execution) converts into [`ServerError`] via `From`, and
//! [`ServerError::status`] maps each variant onto the HTTP status the wire
//! protocol reports: client mistakes are 400/404/405, everything the server
//! itself broke is 500.

use crate::json::JsonError;
use hummer_core::HummerError;
use hummer_engine::EngineError;
use hummer_query::QueryError;
use std::fmt;

/// Any failure while serving a request.
#[derive(Debug)]
pub enum ServerError {
    /// Socket / transport failure (connection reset, short read, …).
    Io(std::io::Error),
    /// The client sent something unparseable: bad request line, bad CSV,
    /// bad JSON, bad SQL. → 400.
    BadRequest(String),
    /// The query referenced a table nobody uploaded. → 404.
    UnknownTable(String),
    /// No route matches the request path. → 404.
    NotFound(String),
    /// The path exists but not with this method. → 405.
    MethodNotAllowed(String),
    /// The durable catalog store failed (WAL append, snapshot, recovery).
    /// Carries file + operation context end-to-end. → 500.
    Store(hummer_store::StoreError),
    /// The server failed while executing a well-formed request. → 500.
    Internal(String),
}

impl ServerError {
    /// The HTTP status code this error reports on the wire.
    pub fn status(&self) -> u16 {
        match self {
            ServerError::Io(_) => 500,
            ServerError::BadRequest(_) => 400,
            ServerError::UnknownTable(_) | ServerError::NotFound(_) => 404,
            ServerError::MethodNotAllowed(_) => 405,
            ServerError::Store(_) => 500,
            ServerError::Internal(_) => 500,
        }
    }

    /// The canonical reason phrase for [`ServerError::status`].
    pub fn reason(&self) -> &'static str {
        match self.status() {
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            _ => "Internal Server Error",
        }
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "I/O error: {e}"),
            ServerError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServerError::UnknownTable(name) => write!(f, "unknown table `{name}`"),
            ServerError::NotFound(path) => write!(f, "no such resource: {path}"),
            ServerError::MethodNotAllowed(m) => write!(f, "method not allowed: {m}"),
            ServerError::Store(e) => write!(f, "store error: {e}"),
            ServerError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            ServerError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<hummer_store::StoreError> for ServerError {
    fn from(e: hummer_store::StoreError) -> Self {
        ServerError::Store(e)
    }
}

impl From<JsonError> for ServerError {
    fn from(e: JsonError) -> Self {
        ServerError::BadRequest(e.to_string())
    }
}

/// CSV upload failures are the client's fault; anything else the engine
/// reports mid-pipeline is ours.
impl From<EngineError> for ServerError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::Parse(msg) => ServerError::BadRequest(format!("CSV parse error: {msg}")),
            other => ServerError::Internal(other.to_string()),
        }
    }
}

impl From<QueryError> for ServerError {
    fn from(e: QueryError) -> Self {
        match e {
            QueryError::Lex { .. } | QueryError::Parse { .. } | QueryError::Semantic(_) => {
                ServerError::BadRequest(e.to_string())
            }
            QueryError::UnknownTable(name) => ServerError::UnknownTable(name),
            other => ServerError::Internal(other.to_string()),
        }
    }
}

impl From<HummerError> for ServerError {
    fn from(e: HummerError) -> Self {
        match e {
            HummerError::UnknownSource(name) => ServerError::UnknownTable(name),
            HummerError::Query(q) => ServerError::from(q),
            other => ServerError::Internal(other.to_string()),
        }
    }
}

/// Result alias for the server.
pub type Result<T> = std::result::Result<T, ServerError>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn status_mapping() {
        assert_eq!(ServerError::BadRequest("x".into()).status(), 400);
        assert_eq!(ServerError::UnknownTable("t".into()).status(), 404);
        assert_eq!(ServerError::NotFound("/x".into()).status(), 404);
        assert_eq!(ServerError::MethodNotAllowed("PATCH".into()).status(), 405);
        assert_eq!(ServerError::Internal("x".into()).status(), 500);
        assert_eq!(ServerError::Io(std::io::Error::other("x")).status(), 500);
        assert_eq!(ServerError::BadRequest("x".into()).reason(), "Bad Request");
        assert_eq!(
            ServerError::Internal("x".into()).reason(),
            "Internal Server Error"
        );
    }

    #[test]
    fn from_io_preserves_source() {
        let e = ServerError::from(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone"));
        assert!(matches!(e, ServerError::Io(_)));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("gone"));
    }

    #[test]
    fn query_errors_map_by_kind() {
        let parse = hummer_query::parse("SELEKT nope").unwrap_err();
        assert_eq!(ServerError::from(parse).status(), 400);
        let unknown = QueryError::UnknownTable("ghosts".into());
        let e = ServerError::from(unknown);
        assert_eq!(e.status(), 404);
        assert!(e.to_string().contains("ghosts"));
    }

    #[test]
    fn engine_parse_is_bad_request() {
        let csv_err = hummer_engine::csv::read_csv_str("T", "").unwrap_err();
        let e = ServerError::from(csv_err);
        assert_eq!(e.status(), 400);
        assert!(e.to_string().contains("CSV"));
    }

    #[test]
    fn hummer_unknown_source_is_404() {
        let e = ServerError::from(HummerError::UnknownSource("x".into()));
        assert_eq!(e.status(), 404);
        let e = ServerError::from(HummerError::Config("bad".into()));
        assert_eq!(e.status(), 500);
    }

    #[test]
    fn store_errors_are_500_with_full_context() {
        let e = ServerError::from(hummer_store::StoreError::io(
            "append to",
            "/data/wal-3.log",
            std::io::Error::new(std::io::ErrorKind::StorageFull, "disk full"),
        ));
        assert_eq!(e.status(), 500);
        let msg = e.to_string();
        assert!(msg.contains("append to"), "{msg}");
        assert!(msg.contains("/data/wal-3.log"), "{msg}");
        assert!(msg.contains("disk full"), "{msg}");
        assert!(e.source().is_some());
    }

    #[test]
    fn json_error_is_bad_request() {
        let e = ServerError::from(crate::json::Json::parse("{oops").unwrap_err());
        assert_eq!(e.status(), 400);
    }
}
