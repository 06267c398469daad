//! A minimal HTTP/1.1 request parser and response writer.
//!
//! Covers exactly what the fusion service's wire protocol needs: request
//! line + headers + `Content-Length` bodies, keep-alive connections, and
//! plain (unchunked) responses. No TLS, no chunked encoding, no pipelining
//! beyond serial keep-alive — the loadgen client and `curl` are the target
//! audience.

use crate::error::{Result, ServerError};
use std::io::Write;

/// Upper bound on an accepted body (64 MiB) — a CSV upload beyond this is
/// almost certainly a mistake, and the limit keeps a single connection from
/// exhausting memory.
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// Upper bound on the number of request headers.
const MAX_HEADERS: usize = 128;

/// Upper bound on one request/header line (anything longer is a 400).
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Upper bound on a whole request head (request line + headers) — a peer
/// that never sends the blank line cannot grow a connection buffer past
/// this.
pub const MAX_HEAD_BYTES: usize = 2 * MAX_LINE_BYTES;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercased method (`GET`, `PUT`, …).
    pub method: String,
    /// Path component, percent-decoding *not* applied (table names are
    /// plain identifiers), query string stripped.
    pub path: String,
    /// Headers as `(lowercased-name, value)` pairs, in order.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a (case-insensitive) header.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this request.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false)
    }

    /// The body as UTF-8, or a 400 error.
    pub fn body_utf8(&self) -> Result<&str> {
        std::str::from_utf8(&self.body)
            .map_err(|_| ServerError::BadRequest("request body is not valid UTF-8".into()))
    }
}

/// Parse `GET /path?query HTTP/1.1` into `(method, path)` — method
/// uppercased, query string stripped (the protocol carries parameters in
/// bodies).
fn parse_request_line(line: &str) -> Result<(String, String)> {
    if line.is_empty() {
        return Err(ServerError::BadRequest("empty request line".into()));
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ServerError::BadRequest("missing method".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| ServerError::BadRequest("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| ServerError::BadRequest("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ServerError::BadRequest(format!(
            "unsupported version `{version}`"
        )));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();
    Ok((method, path))
}

/// Parse one `Name: value` header line into the lowercased-name pair.
fn parse_header_line(h: &str) -> Result<(String, String)> {
    let (name, value) = h
        .split_once(':')
        .ok_or_else(|| ServerError::BadRequest(format!("malformed header `{h}`")))?;
    Ok((name.trim().to_ascii_lowercase(), value.trim().to_string()))
}

/// The declared body length, validated against [`MAX_BODY_BYTES`].
fn content_length(headers: &[(String, String)]) -> Result<usize> {
    let length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| ServerError::BadRequest(format!("bad Content-Length `{v}`")))
        })
        .transpose()?
        .unwrap_or(0);
    if length > MAX_BODY_BYTES {
        return Err(ServerError::BadRequest(format!(
            "body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }
    Ok(length)
}

/// Where the request head ends in `buf`: the index just past the blank
/// line. Accepts `\r\n\r\n` and the tolerant bare `\n\n` form.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        match buf[i] {
            b'\n' => {
                if buf.get(i + 1) == Some(&b'\n') {
                    return Some(i + 2);
                }
                if buf.get(i + 1) == Some(&b'\r') && buf.get(i + 2) == Some(&b'\n') {
                    return Some(i + 3);
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    None
}

/// Incremental parse: try to extract one complete request from the front
/// of a connection buffer.
///
/// * `Ok(Some((request, consumed)))` — a full request occupied the first
///   `consumed` bytes; the caller drains them and keeps the rest (the
///   start of a pipelined successor).
/// * `Ok(None)` — the buffer holds a valid *prefix* (nothing at all, a
///   partial head, a truncated body); read more bytes.
/// * `Err` — the prefix can never become a valid request (oversized head,
///   malformed line, bad `Content-Length`, …); answer 400 and close.
pub fn try_parse_request(buf: &[u8]) -> Result<Option<(Request, usize)>> {
    let head_end = match find_head_end(buf) {
        Some(end) => end,
        None => {
            if buf.len() > MAX_HEAD_BYTES {
                return Err(ServerError::BadRequest(format!(
                    "request head exceeds the {MAX_HEAD_BYTES}-byte limit"
                )));
            }
            return Ok(None);
        }
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ServerError::BadRequest("request head is not valid UTF-8".into()))?;

    let mut lines = head.lines();
    let request_line = lines
        .next()
        .ok_or_else(|| ServerError::BadRequest("empty request line".into()))?;
    if request_line.len() > MAX_LINE_BYTES {
        return Err(ServerError::BadRequest(format!(
            "line exceeds the {MAX_LINE_BYTES}-byte limit"
        )));
    }
    let (method, path) = parse_request_line(request_line)?;

    let mut headers = Vec::new();
    for h in lines {
        if h.is_empty() {
            break;
        }
        if h.len() > MAX_LINE_BYTES {
            return Err(ServerError::BadRequest(format!(
                "line exceeds the {MAX_LINE_BYTES}-byte limit"
            )));
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ServerError::BadRequest("too many headers".into()));
        }
        headers.push(parse_header_line(h)?);
    }

    let body_len = content_length(&headers)?;
    let consumed = head_end + body_len;
    if buf.len() < consumed {
        return Ok(None); // body still arriving
    }
    let body = buf[head_end..consumed].to_vec();
    Ok(Some((
        Request {
            method,
            path,
            headers,
            body,
        },
        consumed,
    )))
}

/// A response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Ask the client to close the connection after this response.
    pub close: bool,
    /// Additional response headers as `(name, value)` pairs (e.g.
    /// `x-hummer-trace`). Names go out as given; keep them lowercase.
    pub extra_headers: Vec<(String, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into().into_bytes(),
            close: false,
            extra_headers: Vec::new(),
        }
    }

    /// A plain-text response (Prometheus exposition uses this).
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: body.into().into_bytes(),
            close: false,
            extra_headers: Vec::new(),
        }
    }

    /// Attach an extra response header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Response {
        self.extra_headers.push((name.into(), value.into()));
        self
    }

    /// The reason phrase for a status code.
    fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        }
    }
}

/// Append the response's head — status line, headers, blank line — to `out`.
/// The event loop sends it and the body with one vectored write, so the
/// body is never copied behind it.
pub(crate) fn write_head(out: &mut Vec<u8>, response: &Response) {
    // Writing to a `Vec` cannot fail.
    let _ = write!(
        out,
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        response.status,
        Response::reason(response.status),
        response.content_type,
        response.body.len(),
        if response.close {
            "close"
        } else {
            "keep-alive"
        },
    );
    for (name, value) in &response.extra_headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    out.extend_from_slice(b"\r\n");
}

/// Serialize a response onto the stream. Head and body go out in a single
/// write: two small segments would trip Nagle + delayed-ACK stalls
/// (~40–200 ms per request) on keep-alive connections.
pub fn write_response<W: Write>(stream: &mut W, response: &Response) -> std::io::Result<()> {
    let mut message = Vec::with_capacity(256 + response.body.len());
    write_head(&mut message, response);
    message.extend_from_slice(&response.body);
    stream.write_all(&message)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The request at the front of `raw`, if it is complete.
    fn parse(raw: &str) -> Result<Option<Request>> {
        Ok(try_parse_request(raw.as_bytes())?.map(|(request, _)| request))
    }

    #[test]
    fn parses_request_with_body() {
        let req = parse("POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nBODY")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"BODY");
        assert!(!req.wants_close());
    }

    #[test]
    fn strips_query_string_and_uppercases_method() {
        let req = parse("get /tables?verbose=1 HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/tables");
    }

    #[test]
    fn connection_close_detected() {
        let req = parse("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.wants_close());
    }

    #[test]
    fn eof_before_request_is_none() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn malformed_requests_are_400() {
        for bad in [
            "GARBAGE\r\n\r\n",
            "GET /\r\n\r\n",
            "GET / SPDY/3\r\n\r\n",
            "GET / HTTP/1.1\r\nbroken header\r\n\r\n",
            "GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        ] {
            let e = parse(bad).unwrap_err();
            assert_eq!(e.status(), 400, "{bad:?} → {e}");
        }
    }

    #[test]
    fn endless_header_line_rejected() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE_BYTES + 10));
        let e = parse(&raw).unwrap_err();
        assert_eq!(e.status(), 400);
        let raw = format!(
            "GET / HTTP/1.1\r\nx: {}\r\n\r\n",
            "b".repeat(MAX_LINE_BYTES + 10)
        );
        let e = parse(&raw).unwrap_err();
        assert_eq!(e.status(), 400);
    }

    #[test]
    fn oversized_body_rejected() {
        let e = parse(&format!(
            "PUT /tables/x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        ))
        .unwrap_err();
        assert_eq!(e.status(), 400);
    }

    #[test]
    fn truncated_body_needs_more_bytes() {
        let raw = "POST /query HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        assert!(parse(raw).unwrap().is_none());
        let req = parse(&format!("{raw}still")).unwrap().unwrap();
        assert_eq!(req.body, b"shortstill");
    }

    #[test]
    fn response_serializes_with_length() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{\"ok\":true}")).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: keep-alive"));
        assert!(text.ends_with("{\"ok\":true}"));
    }

    #[test]
    fn extra_headers_serialize_before_body() {
        let mut out = Vec::new();
        let r = Response::text(200, "ok").with_header("x-hummer-trace", "00000000deadbeef");
        write_response(&mut out, &r).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("x-hummer-trace: 00000000deadbeef\r\n"));
        let head_end = text.find("\r\n\r\n").unwrap();
        assert!(text[..head_end].contains("x-hummer-trace"));
        assert!(text.ends_with("ok"));
        assert!(text.contains("content-type: text/plain; version=0.0.4; charset=utf-8\r\n"));
    }

    #[test]
    fn try_parse_incremental_prefixes() {
        let raw = b"POST /query HTTP/1.1\r\nContent-Length: 4\r\n\r\nBODYGET /h";
        // Every proper prefix up to the full request is "keep reading".
        for cut in 0..47 {
            assert!(
                try_parse_request(&raw[..cut]).unwrap().is_none(),
                "cut {cut}"
            );
        }
        // The full request parses and reports exactly its own bytes as
        // consumed, leaving the pipelined successor in place.
        let (req, consumed) = try_parse_request(raw).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.body, b"BODY");
        assert_eq!(consumed, 47);
        assert_eq!(&raw[consumed..], b"GET /h");
    }

    #[test]
    fn try_parse_tolerates_bare_lf() {
        let (req, consumed) = try_parse_request(b"GET /tables HTTP/1.1\nHost: x\n\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/tables");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(consumed, 30);
    }

    #[test]
    fn try_parse_rejects_unbounded_head() {
        // No blank line and past the head cap: the prefix can never become
        // a request, so the parser errs instead of asking for more bytes.
        let junk = vec![b'a'; MAX_HEAD_BYTES + 1];
        let e = try_parse_request(&junk).unwrap_err();
        assert_eq!(e.status(), 400);
        // Under the cap the verdict is "keep reading".
        assert!(try_parse_request(&junk[..MAX_HEAD_BYTES])
            .unwrap()
            .is_none());
    }

    #[test]
    fn try_parse_rejects_oversized_line_and_body() {
        let raw = format!(
            "GET / HTTP/1.1\r\nx: {}\r\n\r\n",
            "b".repeat(MAX_LINE_BYTES + 10)
        );
        assert_eq!(try_parse_request(raw.as_bytes()).unwrap_err().status(), 400);
        let raw = format!(
            "PUT /tables/x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(try_parse_request(raw.as_bytes()).unwrap_err().status(), 400);
        assert_eq!(
            try_parse_request(b"GARBAGE\r\n\r\n").unwrap_err().status(),
            400
        );
    }

    #[test]
    fn new_reason_phrases_serialize() {
        let mut out = Vec::new();
        let mut r = Response::json(408, "{}");
        r.close = true;
        write_response(&mut out, &r).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 408 Request Timeout\r\n"));
        assert!(text.contains("connection: close"));
        let mut head = Vec::new();
        write_head(&mut head, &Response::json(503, "{}"));
        assert!(head.starts_with(b"HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(head.ends_with(b"content-length: 2\r\nconnection: keep-alive\r\n\r\n"));
    }

    #[test]
    fn body_utf8_guard() {
        let req = Request {
            method: "POST".into(),
            path: "/query".into(),
            headers: vec![],
            body: vec![0xFF, 0xFE],
        };
        assert_eq!(req.body_utf8().unwrap_err().status(), 400);
    }
}
