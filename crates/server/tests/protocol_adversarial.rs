//! Adversarial protocol and fault tests against the event-loop serving
//! path: slowloris, oversized frames, half-close, pipelining, idle
//! reclamation, admission control, and mid-request worker panics. Each
//! scenario asserts the exact status/close behavior — and, at the end,
//! that no connection slot leaked (the server still serves sequentially
//! and its counters add up).

use hummer_server::loadgen::http_request;
use hummer_server::promlint;
use hummer_server::{HummerServer, ServerConfig, ServiceConfig};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::thread;
use std::time::Duration;

const CSV: &[u8] = b"Name,City\nJohn Smith,Berlin\nJon Smith,Berlin\n";
const QUERY: &[u8] = b"SELECT Name, City FUSE FROM People FUSE BY (objectID)";

/// A server with aggressively small timeouts so adversarial clients are
/// punished within test budget.
fn tight_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        service: ServiceConfig::narrow_schema(),
        read_timeout: Duration::from_millis(300),
        idle_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    }
}

fn start(config: ServerConfig) -> (String, impl FnOnce()) {
    let server = HummerServer::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let join = thread::spawn(move || server.run().unwrap());
    (addr, move || {
        handle.shutdown();
        join.join().unwrap();
    })
}

/// Read one raw HTTP response: returns (status, lowercased header lines,
/// body). Reads until content-length is satisfied or the peer closes.
/// `residual` carries bytes over-read past this response (pipelined
/// responses arrive batched) into the next call on the same stream.
fn read_response_buffered(
    stream: &mut TcpStream,
    residual: &mut Vec<u8>,
) -> std::io::Result<(u16, Vec<String>, Vec<u8>)> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = residual.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        match stream.read(&mut chunk)? {
            0 => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "closed before response head",
                ))
            }
            n => residual.extend_from_slice(&chunk[..n]),
        }
    };
    let head = String::from_utf8_lossy(&residual[..head_end]).to_string();
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers: Vec<String> = lines
        .filter(|l| !l.is_empty())
        .map(|l| l.to_ascii_lowercase())
        .collect();
    let content_length: usize = headers
        .iter()
        .find_map(|h| h.strip_prefix("content-length:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    while residual.len() < head_end + content_length {
        match stream.read(&mut chunk)? {
            0 => break,
            n => residual.extend_from_slice(&chunk[..n]),
        }
    }
    let consumed = (head_end + content_length).min(residual.len());
    let body = residual[head_end..consumed].to_vec();
    residual.drain(..consumed);
    Ok((status, headers, body))
}

fn read_response(stream: &mut TcpStream) -> std::io::Result<(u16, Vec<String>, Vec<u8>)> {
    read_response_buffered(stream, &mut Vec::new())
}

/// True once the peer has closed: a read returns 0 (FIN) — or a reset
/// (the server dropped the socket with unread client bytes, which the
/// kernel reports as RST) — within the deadline.
fn peer_closed(stream: &mut TcpStream) -> bool {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return true,
            Ok(_) => continue, // drain whatever the server still had buffered
            Err(e) => {
                return matches!(
                    e.kind(),
                    ErrorKind::ConnectionReset
                        | ErrorKind::ConnectionAborted
                        | ErrorKind::BrokenPipe
                )
            }
        }
    }
}

/// A serving counter off `/metrics`, e.g. `hummer_read_timeouts_total`.
fn serving_counter(addr: &str, name: &str) -> f64 {
    // Slots freed by a client-side close are reclaimed on the server's
    // next sweep, so this probe can transiently hit the admission cap
    // (503) right after a scenario — retry until admitted.
    let mut response = None;
    for _ in 0..250 {
        if let Ok((200, body)) = http_request(addr, "GET", "/metrics", "text/plain", b"") {
            response = Some(body);
            break;
        }
        thread::sleep(Duration::from_millis(20));
    }
    let text = response.expect("/metrics never admitted");
    promlint::parse(&text)
        .unwrap()
        .value(name, &[])
        .unwrap_or_else(|| panic!("{name} missing from /metrics"))
}

/// Bodies nested deeper than a worker's stack can follow: each gets a 400
/// and the server keeps serving. Each used to abort the whole process (a
/// stack overflow is no panic, so the worker-panic guard never saw it).
#[test]
fn deeply_nested_bodies_get_400_and_the_server_keeps_serving() {
    let (addr, stop) = start(tight_config());
    let (status, _) = http_request(&addr, "PUT", "/tables/People", "text/csv", CSV).unwrap();
    assert_eq!(status, 200);
    let where_ = |e: String| format!("SELECT Name FROM People WHERE {e} = 1");
    let parentheses = where_(format!("{}1{}", "(".repeat(5_000), ")".repeat(5_000)));
    let chain = where_(format!("1{}", "+1".repeat(100_000)));
    let brackets = format!("{}{}", "[".repeat(10_000), "]".repeat(10_000));
    for (path, content_type, body) in [
        ("/query", "text/plain", parentheses),
        ("/query", "text/plain", chain),
        (
            "/query",
            "application/json",
            format!("{{\"sql\": {brackets}}}"),
        ),
        (
            "/tables/People/delta",
            "application/json",
            format!("{{\"insert\": {brackets}}}"),
        ),
    ] {
        let (status, text) = http_request(&addr, "POST", path, content_type, body.as_bytes())
            .unwrap_or_else(|e| panic!("{path} ({} bytes): {e}", body.len()));
        assert_eq!(status, 400, "{path} ({} bytes): {text}", body.len());
        let (status, _) = http_request(&addr, "GET", "/healthz", "text/plain", b"").unwrap();
        assert_eq!(status, 200, "after {path}");
    }
    stop();
}

#[test]
fn slowloris_header_drip_gets_408_and_close() {
    let (addr, stop) = start(tight_config());
    let mut stream = TcpStream::connect(&addr).unwrap();
    // Drip a valid request prefix one byte at a time, never finishing the
    // head. The read deadline (300 ms) must fire even though bytes keep
    // trickling in — it is an absolute whole-request deadline, not an
    // inter-byte one.
    let partial = b"GET /healthz HTTP/1.1\r\nx-slow: ";
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut answered = None;
    'drip: loop {
        for b in partial {
            if stream.write_all(&[*b]).is_err() {
                break 'drip; // server already slammed the door
            }
            thread::sleep(Duration::from_millis(10));
            if std::time::Instant::now() > deadline {
                break 'drip;
            }
        }
        // Poke for a response without blocking the drip forever.
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut chunk = [0u8; 1024];
        match stream.read(&mut chunk) {
            Ok(n) if n > 0 => {
                answered = Some(String::from_utf8_lossy(&chunk[..n]).to_string());
                break 'drip;
            }
            _ => {}
        }
    }
    let head = answered.unwrap_or_else(|| {
        // The write failed first; the response is still in the socket.
        let mut s = String::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let _ = stream.read_to_string(&mut s);
        s
    });
    assert!(
        head.starts_with("HTTP/1.1 408"),
        "slowloris expected 408, got: {head:?}"
    );
    assert!(peer_closed(&mut stream), "server must close after 408");
    assert!(serving_counter(&addr, "hummer_read_timeouts_total") >= 1.0);
    stop();
}

#[test]
fn oversized_header_block_gets_400_and_close() {
    let (addr, stop) = start(tight_config());
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(b"GET / HTTP/1.1\r\n").unwrap();
    // Grow the head past MAX_HEAD_BYTES without ever sending the blank
    // line; chunked header lines keep each line legal so only the
    // whole-head cap can trip.
    let line = format!("x-fill: {}\r\n", "a".repeat(1000));
    let mut sent = 0usize;
    while sent <= hummer_server::http::MAX_HEAD_BYTES {
        if stream.write_all(line.as_bytes()).is_err() {
            break; // server closed mid-flood; response is buffered
        }
        sent += line.len();
    }
    let (status, headers, _) = read_response(&mut stream).expect("400 response");
    assert_eq!(status, 400);
    assert!(headers.iter().any(|h| h.contains("connection: close")));
    assert!(peer_closed(&mut stream));
    stop();
}

#[test]
fn oversized_body_declaration_gets_400() {
    let (addr, stop) = start(tight_config());
    let mut stream = TcpStream::connect(&addr).unwrap();
    let request = format!(
        "POST /query HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        hummer_server::http::MAX_BODY_BYTES + 1
    );
    stream.write_all(request.as_bytes()).unwrap();
    let (status, headers, _) = read_response(&mut stream).expect("400 response");
    assert_eq!(status, 400);
    assert!(headers.iter().any(|h| h.contains("connection: close")));
    assert!(peer_closed(&mut stream));
    stop();
}

#[test]
fn half_close_mid_request_gets_400_complete_request_still_served() {
    let (addr, stop) = start(tight_config());

    // EOF halfway through the head: the request can never complete — 400.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(b"GET /healthz HTT").unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let (status, _, _) = read_response(&mut stream).expect("400 response");
    assert_eq!(status, 400);
    assert!(peer_closed(&mut stream));

    // EOF after a complete request: the buffered request is served, then
    // the connection closes (no keep-alive with a half-closed peer).
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let (status, _, body) = read_response(&mut stream).expect("served response");
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("ok"));
    assert!(peer_closed(&mut stream));

    // EOF exactly at a request boundary: silent close, nothing to answer.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    assert!(peer_closed(&mut stream));
    stop();
}

#[test]
fn pipelined_requests_answer_in_order_on_one_connection() {
    let (addr, stop) = start(tight_config());
    http_request(&addr, "PUT", "/tables/People", "text/csv", CSV).unwrap();

    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut pipelined = Vec::new();
    pipelined.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
    pipelined.extend_from_slice(
        format!(
            "POST /query HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            QUERY.len()
        )
        .as_bytes(),
    );
    pipelined.extend_from_slice(QUERY);
    pipelined.extend_from_slice(b"GET /tables HTTP/1.1\r\n\r\n");
    stream.write_all(&pipelined).unwrap();

    // Responses arrive batched; the residual buffer carries over-read
    // bytes from one response into the next.
    let mut residual = Vec::new();
    let (status, _, body) = read_response_buffered(&mut stream, &mut residual).unwrap();
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("ok"));
    let (status, _, body) = read_response_buffered(&mut stream, &mut residual).unwrap();
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("\"row_count\""));
    let (status, _, body) = read_response_buffered(&mut stream, &mut residual).unwrap();
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("\"tables\""));
    assert!(residual.is_empty(), "trailing bytes: {residual:?}");

    // The connection is still keep-alive: a fourth, unpipelined request
    // on the same socket works.
    stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let (status, _, _) = read_response_buffered(&mut stream, &mut residual).unwrap();
    assert_eq!(status, 200);
    stop();
}

/// The two ways a worker that blocks while idle could strand a connection:
/// bytes it already buffered (the second of a pipelined pair, which no
/// socket event will announce again) and bytes that arrive while it waits
/// (the second half of a split request). Each starts from a worker that has
/// gone to sleep.
#[test]
fn a_waiting_worker_strands_neither_pipelined_nor_split_requests() {
    let (addr, stop) = start(ServerConfig {
        read_timeout: Duration::from_secs(30),
        idle_timeout: Duration::from_secs(60),
        ..tight_config()
    });
    http_request(&addr, "PUT", "/tables/People", "text/csv", CSV).unwrap();
    let query = format!(
        "POST /query HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
        QUERY.len(),
        String::from_utf8_lossy(QUERY)
    );

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut residual = Vec::new();
    thread::sleep(Duration::from_millis(100));

    // A pipelined pair in one send.
    stream
        .write_all(format!("{query}{query}").as_bytes())
        .unwrap();
    for _ in 0..2 {
        let (status, _, body) = read_response_buffered(&mut stream, &mut residual).unwrap();
        assert_eq!(status, 200);
        assert!(String::from_utf8_lossy(&body).contains("\"row_count\""));
    }
    assert!(residual.is_empty(), "trailing bytes: {residual:?}");

    // One request in two sends, 50 ms apart, cut inside the body.
    thread::sleep(Duration::from_millis(100));
    let (first, second) = query.as_bytes().split_at(query.len() - 10);
    stream.write_all(first).unwrap();
    thread::sleep(Duration::from_millis(50));
    stream.write_all(second).unwrap();
    let (status, _, body) = read_response_buffered(&mut stream, &mut residual).unwrap();
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("\"row_count\""));
    stop();
}

/// An idle server blocks; it does not nap and look again. With the 1 ms
/// nap the event loop used to take, two workers woke some 600 times in
/// this test's 300 ms.
#[test]
fn an_idle_server_wakes_a_few_times_not_hundreds() {
    let config = ServerConfig {
        read_timeout: Duration::from_secs(30),
        idle_timeout: Duration::from_secs(60),
        ..tight_config()
    };
    let workers = config.threads as i64;
    let (addr, stop) = start(config);

    // One keep-alive connection, open throughout; the counter is read over
    // it, so that reading wakes nobody but its own worker.
    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut residual = Vec::new();
    let mut wakeups = || {
        stream.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        let (status, _, body) = read_response_buffered(&mut stream, &mut residual).unwrap();
        assert_eq!(status, 200);
        promlint::parse(&String::from_utf8(body).unwrap())
            .unwrap()
            .value("hummer_event_loop_wakeups_total", &[])
            .expect("hummer_event_loop_wakeups_total on /metrics") as i64
    };
    let before = wakeups();
    thread::sleep(Duration::from_millis(300));
    let woken = wakeups() - before;
    assert!(
        (1..=5 * workers).contains(&woken),
        "{woken} wake-ups of {workers} workers in 300 idle ms"
    );

    // The exposition the counter was read from still lints.
    let (status, text) = http_request(&addr, "GET", "/metrics", "text/plain", b"").unwrap();
    assert_eq!(status, 200);
    let report = promlint::lint(&text);
    assert!(report.ok(), "lint errors: {:#?}", report.errors);
    stop();
}

#[test]
fn idle_connections_are_reclaimed() {
    let (addr, stop) = start(tight_config());
    let mut idle = TcpStream::connect(&addr).unwrap();
    // Send nothing. After the 300 ms idle timeout the server closes the
    // socket silently (no 408 — there is no request to answer).
    assert!(peer_closed(&mut idle), "idle connection never reclaimed");
    assert!(serving_counter(&addr, "hummer_idle_reclaims_total") >= 1.0);
    assert_eq!(serving_counter(&addr, "hummer_read_timeouts_total"), 0.0);
    stop();
}

#[test]
fn admission_control_rejects_beyond_max_connections_and_recovers() {
    let mut config = tight_config();
    config.max_connections = 3;
    config.idle_timeout = Duration::from_secs(30); // keep occupants alive
    config.read_timeout = Duration::from_secs(30);
    let (addr, stop) = start(config);

    // Fill every slot with held-open connections.
    let occupants: Vec<TcpStream> = (0..3)
        .map(|_| {
            let mut s = TcpStream::connect(&addr).unwrap();
            // A started-but-unfinished request marks the slot busy.
            s.write_all(b"GET /healthz HTT").unwrap();
            s
        })
        .collect();
    thread::sleep(Duration::from_millis(100)); // let the loop adopt them

    // The next arrival is turned away at the door: 503 + Retry-After.
    let mut rejected = TcpStream::connect(&addr).unwrap();
    rejected
        .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
        .unwrap();
    let (status, headers, body) = read_response(&mut rejected).expect("503 response");
    assert_eq!(status, 503, "{}", String::from_utf8_lossy(&body));
    assert!(
        headers.iter().any(|h| h.starts_with("retry-after:")),
        "503 must carry Retry-After: {headers:?}"
    );
    assert!(peer_closed(&mut rejected));

    // Slots free as occupants leave; the same client is admitted again.
    drop(occupants);
    let mut admitted = None;
    for _ in 0..100 {
        thread::sleep(Duration::from_millis(20));
        if let Ok((status, body)) = http_request(&addr, "GET", "/healthz", "text/plain", b"") {
            admitted = Some((status, body));
            break;
        }
    }
    let (status, _) = admitted.expect("slots never freed after occupants left");
    assert_eq!(status, 200);
    assert!(serving_counter(&addr, "hummer_overload_rejects_total") >= 1.0);
    stop();
}

#[test]
fn no_connection_slot_leaks_after_adversarial_traffic() {
    let mut config = tight_config();
    config.max_connections = 4;
    let (addr, stop) = start(config);

    // A wave of badly-behaved clients, several times the slot budget.
    for round in 0..12 {
        let mut s = TcpStream::connect(&addr).unwrap();
        match round % 4 {
            0 => drop(s), // connect-and-vanish
            1 => {
                let _ = s.write_all(b"GET /hea"); // torn head, then vanish
            }
            2 => {
                let _ = s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
                let (status, _, _) = read_response(&mut s).unwrap();
                assert_eq!(status, 200); // well-behaved, then vanish
            }
            _ => {
                let _ = s.write_all(b"\r\n\r\n"); // garbage head
                let _ = read_response(&mut s); // 400, ignore
            }
        }
        // Pace the wave so abandoned sockets are reaped between rounds —
        // this test is about leaks, not about racing the sweep cadence.
        thread::sleep(Duration::from_millis(10));
    }
    // Give torn connections time to hit the read deadline and be reaped.
    thread::sleep(Duration::from_millis(500));

    // Every slot must be back: with max_connections = 4, four concurrent
    // well-behaved clients all get through.
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            thread::spawn(move || {
                let (status, _) =
                    http_request(&addr, "GET", "/healthz", "text/plain", b"").unwrap();
                status
            })
        })
        .collect();
    for w in workers {
        assert_eq!(w.join().unwrap(), 200);
    }
    stop();
}

/// A handler panic mid-request must not leave the client hanging: the
/// connection closes (the client sees EOF, not a stall) and the server
/// keeps serving. The fix lives in `execute_request`.
fn panic_scenario() {
    let mut config = tight_config();
    config.service.debug_panic_route = true;
    config.read_timeout = Duration::from_secs(30);
    config.idle_timeout = Duration::from_secs(30);
    let (addr, stop) = start(config);

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .write_all(b"POST /__test/panic HTTP/1.1\r\ncontent-length: 0\r\n\r\n")
        .unwrap();
    let (status, headers, _) = read_response(&mut stream).expect("panic must still answer");
    assert_eq!(status, 500);
    assert!(
        headers.iter().any(|h| h.contains("connection: close")),
        "panicked handler must close: {headers:?}"
    );
    assert!(peer_closed(&mut stream), "client left hanging after panic");

    // The event-loop slot is recycled: fresh connections still serve.
    let (status, _) = http_request(&addr, "GET", "/healthz", "text/plain", b"").unwrap();
    assert_eq!(status, 200);
    assert_eq!(serving_counter(&addr, "hummer_worker_panics_total"), 1.0);
    stop();
}

#[test]
fn worker_panic_closes_connection_event_mode() {
    panic_scenario();
}
