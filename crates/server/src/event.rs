//! The nonblocking event loop: the server's one transport.
//!
//! The listener and every accepted socket run in nonblocking mode, and each
//! worker thread owns a set of per-connection state machines. A worker
//! sweeps — accept a burst, pump every connection one step — for as long as
//! something moves, and when a sweep moves nothing it **blocks in
//! `poll(2)`** (`sys::wait`) over the listener and its own
//! sockets until one of them is ready or the nearest deadline passes. A
//! request that arrives while the worker is idle is picked up when the
//! kernel says so, not when a nap ends.
//!
//! ## Readiness
//!
//! * The listener is watched for readability (a pending connection) until
//!   shutdown begins. Every worker watches it, so a new connection wakes
//!   them all; one accepts, the rest find nothing and go back to waiting.
//! * A connection that is *reading* is watched for readability — request
//!   bytes or the peer's close; one that is *writing* for writability.
//! * The wait's timeout is the time to the nearest connection deadline
//!   (read, idle or write), so 408s, idle reclaims and stalled-writer
//!   closes happen on time without polling the clock.
//! * Nothing else needs a wake-up: a sweep that moved nothing has, by
//!   construction, left every connection waiting on exactly its socket or
//!   its deadline. Bytes already buffered (a pipelined request, a half
//!   close) are consumed by sweeps that report progress, which re-sweep
//!   without waiting.
//! * Shutdown sets a flag and connects to the listener once
//!   ([`crate::server::ShutdownHandle::shutdown`]), which wakes every
//!   waiting worker. A worker that read the flag just before it was set and
//!   lost the race for that connection would otherwise sleep to its next
//!   deadline, so no wait lasts longer than `MAX_WAIT`.
//!
//! `hummer_event_loop_wakeups_total` counts returns from the wait: a few a
//! second per idle worker, one or two per request under load.
//!
//! ## Per-connection state machine
//!
//! ```text
//!             bytes arrive            request complete
//!   idle ───────────────▶ reading ─────────────────▶ executing
//!    ▲                      │  ▲                         │
//!    │   response flushed   │  │ pipelined bytes         │ response bytes
//!    └────────── writing ◀──┼──┴─────────────────────────┘
//!                  │        │
//!                  ▼        ▼
//!                closed (error / timeout / EOF / `connection: close`)
//! ```
//!
//! * **reading** — header/body bytes accumulate in the connection buffer;
//!   [`crate::http::try_parse_request`] decides `complete` / `need more` /
//!   `never valid` (400). A started request that stalls past the read
//!   deadline is answered `408` and closed; a connection idle past the
//!   idle deadline is reclaimed silently.
//! * **executing** — the request runs *inline* on the worker through
//!   `execute_request` (panic containment included: a panicked handler
//!   yields `500` + close and the slot is recycled).
//! * **writing** — the response head and body drain through nonblocking
//!   vectored writes (one `writev` when the socket takes it all, and no
//!   copy of the body behind the head); on completion the connection
//!   returns to reading (keep-alive) or closes.
//!
//! One request is served per connection per sweep, so a pipelining client
//! cannot starve its neighbors.
//!
//! ## Buffers
//!
//! A connection keeps three buffers for its lifetime: request bytes, the
//! response head, and the response body. The body buffer travels: it is
//! lent to `execute_request`, comes back inside the response (a `/query`
//! answer is written straight into it), is sent from where it lies, and is
//! lent again. After a message larger than `BUFFER_KEEP` the request and
//! body buffers shrink back to it, so one large upload or answer does not
//! pin its size for as long as the client keeps the connection open.
//!
//! ## Admission control
//!
//! A shared live-connection counter caps concurrently open sockets
//! (`ServerConfig::max_connections`). Arrivals beyond the cap get an
//! immediate `503` with `Retry-After: 1` and are closed — overload
//! degrades into fast, explicit rejections instead of unbounded queueing.
//!
//! ## Shutdown
//!
//! The shutdown flag stops accepting; idle connections close immediately,
//! in-flight requests finish and flush; each worker exits once its set is
//! empty.

use crate::error::ServerError;
use crate::http::{try_parse_request, write_head, write_response, Response};
use crate::server::{execute_request, HummerServer, ShutdownHandle};
use crate::service::FusionService;
use crate::sys::{self, PollFd};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connections accepted per worker per sweep before yielding to pumping —
/// bounds accept-side latency under a connection storm without starving
/// established connections.
const ACCEPT_BURST: usize = 32;

/// The longest a worker waits for readiness before it looks at the
/// shutdown flag again (see the module docs: the shutdown wake-up can be
/// missed, the flag cannot).
const MAX_WAIT: Duration = Duration::from_millis(250);

/// Capacity a connection's request and body buffers shrink back to after a
/// larger message.
const BUFFER_KEEP: usize = 64 * 1024;

/// Read chunk size per pump step.
const READ_CHUNK: usize = 16 * 1024;

/// Event-loop tuning, copied out of the server config.
#[derive(Debug, Clone, Copy)]
struct Options {
    max_connections: usize,
    read_timeout: Duration,
    idle_timeout: Duration,
}

/// Was the transient error a "try again later" (nonblocking readiness)?
fn would_block(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted)
}

/// Serve `server` with the event loop until shutdown; returns after every
/// worker drained its connections.
pub(crate) fn run(server: HummerServer) -> std::io::Result<()> {
    let HummerServer {
        listener,
        service,
        threads,
        shutdown,
        local_addr,
        max_connections,
        read_timeout,
        idle_timeout,
        ..
    } = server;
    listener.set_nonblocking(true)?;
    let listener = Arc::new(listener);
    let options = Options {
        max_connections,
        read_timeout,
        idle_timeout,
    };
    let live = Arc::new(AtomicUsize::new(0));
    let workers: Vec<_> = (0..threads.max(1))
        .map(|i| {
            let listener = Arc::clone(&listener);
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            let live = Arc::clone(&live);
            std::thread::Builder::new()
                .name(format!("hummer-event-{i}"))
                .spawn(move || {
                    worker_loop(&listener, &service, &shutdown, local_addr, &live, options)
                })
                .expect("spawn event worker")
        })
        .collect();
    for w in workers {
        let _ = w.join();
    }
    Ok(())
}

/// One worker: accept a burst, pump every owned connection, and when
/// nothing moved wait for the listener, a socket or a deadline.
fn worker_loop(
    listener: &TcpListener,
    service: &Arc<FusionService>,
    shutdown: &Arc<AtomicBool>,
    local_addr: std::net::SocketAddr,
    live: &AtomicUsize,
    options: Options,
) {
    let handle = ShutdownHandle::from_parts(local_addr, Arc::clone(shutdown));
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut watched: Vec<PollFd> = Vec::new();
    loop {
        let shutting_down = shutdown.load(Ordering::SeqCst);
        let mut progress = false;

        if !shutting_down {
            for _ in 0..ACCEPT_BURST {
                match listener.accept() {
                    Ok((stream, _)) => {
                        progress = true;
                        // Reserve a slot; over the cap → fast 503.
                        if live.fetch_add(1, Ordering::SeqCst) >= options.max_connections {
                            live.fetch_sub(1, Ordering::SeqCst);
                            service.metrics().overload_rejects.inc();
                            reject_overloaded(stream, service);
                            continue;
                        }
                        match Conn::adopt(stream, options, service) {
                            Some(conn) => conns.push(conn),
                            None => {
                                live.fetch_sub(1, Ordering::SeqCst);
                            }
                        }
                    }
                    Err(ref e) if would_block(e) => break,
                    Err(_) => break, // transient accept failure
                }
            }
        }

        let now = Instant::now();
        let mut i = 0;
        while i < conns.len() {
            match conns[i].pump(service, &handle, now, &mut scratch, shutting_down) {
                Pump::Keep { moved } => {
                    progress |= moved;
                    i += 1;
                }
                Pump::Close => {
                    progress = true;
                    conns.swap_remove(i).finish(service);
                    live.fetch_sub(1, Ordering::SeqCst);
                }
            }
        }

        if shutting_down && conns.is_empty() {
            return;
        }
        if progress {
            continue;
        }
        watched.clear();
        if !shutting_down {
            watched.push(PollFd::new(listener, sys::READABLE));
        }
        let now = Instant::now();
        let mut timeout = MAX_WAIT;
        for conn in &conns {
            watched.push(conn.watch());
            timeout = timeout.min(conn.deadline.saturating_duration_since(now));
        }
        if sys::wait(&mut watched, Some(timeout)).is_err() {
            // Out of kernel memory is all poll(2) can fail with here; the
            // sweep is the fallback until it recovers.
            std::thread::yield_now();
        }
        service.metrics().event_loop_wakeups.inc();
    }
}

/// Refuse an over-cap connection: blocking write of `503` +
/// `Retry-After`, then drop. The socket was accepted from a nonblocking
/// listener, so flip it to blocking with a short timeout for the one
/// write — portable regardless of whether nonblocking was inherited.
fn reject_overloaded(stream: TcpStream, service: &FusionService) {
    let mut stream = stream;
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let mut r = Response::json(
        503,
        "{\"error\":\"server is at its connection limit\",\"status\":503}",
    );
    r.close = true;
    let r = r.with_header("retry-after", "1");
    // Overload rejects get an accept-time trace id too: the connection never
    // reaches dispatch, but the client's error is still correlatable.
    let r = crate::server::finish(
        service,
        r,
        "rejected",
        service.tracer().allocate_trace_id(),
        Duration::ZERO,
    );
    let _ = write_response(&mut stream, &r);
}

/// What the sweep should do with a connection after one pump.
enum Pump {
    /// Keep the connection; `moved` reports whether any byte or state
    /// transition happened (a sweep in which nothing moved ends in a wait).
    Keep { moved: bool },
    /// Remove and drop the connection, releasing its slot.
    Close,
}

/// I/O state of one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Waiting for (more of) a request.
    Reading,
    /// Draining a serialized response.
    Writing,
}

/// One connection's state machine.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    /// The response being drained: `head` then `body`, `out_pos` bytes of
    /// the two already sent. Between responses `body` is the spare buffer
    /// the next one is built in.
    head: Vec<u8>,
    body: Vec<u8>,
    out_pos: usize,
    state: ConnState,
    /// When the current activity expires: read deadline while a request is
    /// in flight, idle deadline between requests, write deadline while
    /// draining.
    deadline: Instant,
    /// A request has started arriving (first byte seen, not yet answered).
    in_request: bool,
    /// Close once the response drains.
    close_after_write: bool,
    /// Peer EOF observed (half-close): serve what is buffered, then close.
    eof: bool,
    options: Options,
    /// Current phase label for the conn-state histograms.
    phase: &'static str,
    phase_since: Instant,
    /// Trace id allocated at accept time, so a request rejected before
    /// dispatch (408/400) is still traceable via `X-Hummer-Trace`.
    pretrace: Option<u64>,
}

impl Conn {
    /// Wrap a fresh socket; `None` if it cannot be made nonblocking.
    fn adopt(stream: TcpStream, options: Options, service: &FusionService) -> Option<Conn> {
        stream.set_nonblocking(true).ok()?;
        let _ = stream.set_nodelay(true);
        let now = Instant::now();
        Some(Conn {
            stream,
            inbuf: Vec::new(),
            head: Vec::new(),
            body: Vec::new(),
            out_pos: 0,
            state: ConnState::Reading,
            deadline: now + options.idle_timeout,
            in_request: false,
            close_after_write: false,
            eof: false,
            options,
            phase: "idle",
            phase_since: now,
            pretrace: service.tracer().allocate_trace_id(),
        })
    }

    /// Finish a pre-dispatch rejection: stamp the accept-time trace id onto
    /// the response and account it under the `rejected` endpoint label. The
    /// latency charged is the time spent in the current phase (how long the
    /// doomed request was allowed to dawdle).
    fn reject(&self, service: &FusionService, response: Response, now: Instant) -> Response {
        crate::server::finish(
            service,
            response,
            "rejected",
            self.pretrace,
            now.saturating_duration_since(self.phase_since),
        )
    }

    /// Record time spent in the current phase and enter a new one.
    fn set_phase(&mut self, service: &FusionService, phase: &'static str, now: Instant) {
        if self.phase != phase {
            service
                .metrics()
                .record_conn_state(self.phase, now.saturating_duration_since(self.phase_since));
            self.phase = phase;
            self.phase_since = now;
        }
    }

    /// Flush the current phase's residency on close.
    fn finish(mut self, service: &FusionService) {
        let now = Instant::now();
        self.set_phase(service, "closed", now);
    }

    /// What this connection waits for when a sweep could not move it.
    fn watch(&self) -> PollFd {
        let events = match self.state {
            ConnState::Reading => sys::READABLE,
            ConnState::Writing => sys::WRITABLE,
        };
        PollFd::new(&self.stream, events)
    }

    /// One step of the state machine.
    fn pump(
        &mut self,
        service: &Arc<FusionService>,
        shutdown: &ShutdownHandle,
        now: Instant,
        scratch: &mut [u8],
        shutting_down: bool,
    ) -> Pump {
        match self.state {
            ConnState::Reading => self.pump_read(service, shutdown, now, scratch, shutting_down),
            ConnState::Writing => self.pump_write(service, now),
        }
    }

    fn pump_read(
        &mut self,
        service: &Arc<FusionService>,
        shutdown: &ShutdownHandle,
        now: Instant,
        scratch: &mut [u8],
        shutting_down: bool,
    ) -> Pump {
        let mut moved = false;
        // Drain whatever the socket has ready (bounded by the sweep's one
        // chunk) unless the peer already half-closed.
        if !self.eof {
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.eof = true;
                    moved = true;
                }
                Ok(n) => {
                    if !self.in_request {
                        self.in_request = true;
                        self.deadline = now + self.options.read_timeout;
                        self.set_phase(service, "reading", now);
                    }
                    self.inbuf.extend_from_slice(&scratch[..n]);
                    moved = true;
                }
                Err(ref e) if would_block(e) => {}
                Err(_) => return Pump::Close, // transport error
            }
        }

        // Serve at most one buffered request per sweep (fairness across
        // the worker's connections).
        if !self.inbuf.is_empty() {
            match try_parse_request(&self.inbuf) {
                Ok(Some((request, consumed))) => {
                    self.inbuf.drain(..consumed);
                    self.inbuf.shrink_to(BUFFER_KEEP);
                    self.set_phase(service, "executing", now);
                    let spare = std::mem::take(&mut self.body);
                    let mut response = execute_request(&request, service, shutdown, spare);
                    response.close = response.close
                        || request.wants_close()
                        || self.eof
                        || shutdown.is_requested();
                    // `start_write`'s transition out of "executing" records
                    // the handler's residency in the conn-state histogram.
                    return self.start_write(service, response, Instant::now());
                }
                Ok(None) => {} // valid prefix: keep reading
                Err(e) => {
                    // Protocol junk can never become a request: 400, close.
                    let r = crate::server::error_response(&e, true);
                    let r = self.reject(service, r, now);
                    return self.start_write(service, r, now);
                }
            }
        }

        if self.eof {
            if self.inbuf.is_empty() && !self.in_request {
                return Pump::Close; // clean close between requests
            }
            // Half-close mid-request: the prefix can never complete.
            let e = ServerError::BadRequest("connection half-closed mid-request".into());
            let r = crate::server::error_response(&e, true);
            let r = self.reject(service, r, now);
            return self.start_write(service, r, now);
        }

        if now >= self.deadline {
            if self.in_request {
                // A started request stalled (slowloris or a dead peer).
                service.metrics().read_timeouts.inc();
                let mut r = Response::json(
                    408,
                    "{\"error\":\"request did not arrive in time\",\"status\":408}",
                );
                r.close = true;
                let r = self.reject(service, r, now);
                return self.start_write(service, r, now);
            }
            service.metrics().idle_reclaims.inc();
            return Pump::Close; // silent idle reclamation
        }

        if shutting_down && !self.in_request && self.inbuf.is_empty() {
            return Pump::Close; // idle at shutdown: no more requests coming
        }

        Pump::Keep { moved }
    }

    /// Take `response` over and enter the writing state (flushing what the
    /// socket will take right away).
    fn start_write(&mut self, service: &FusionService, response: Response, now: Instant) -> Pump {
        self.head.clear();
        write_head(&mut self.head, &response);
        self.body = response.body;
        self.out_pos = 0;
        self.close_after_write = response.close;
        self.in_request = false;
        self.state = ConnState::Writing;
        self.deadline = now + self.options.read_timeout;
        self.set_phase(service, "writing", now);
        self.pump_write(service, now)
    }

    fn pump_write(&mut self, service: &FusionService, now: Instant) -> Pump {
        let mut moved = false;
        while self.out_pos < self.head.len() + self.body.len() {
            let head = self.head.get(self.out_pos..).unwrap_or_default();
            let body = &self.body[self.out_pos.saturating_sub(self.head.len())..];
            match self
                .stream
                .write_vectored(&[IoSlice::new(head), IoSlice::new(body)])
            {
                Ok(0) => return Pump::Close,
                Ok(n) => {
                    self.out_pos += n;
                    moved = true;
                }
                Err(ref e) if would_block(e) => {
                    if now >= self.deadline {
                        return Pump::Close; // peer stopped draining
                    }
                    return Pump::Keep { moved };
                }
                Err(_) => return Pump::Close,
            }
        }
        let _ = self.stream.flush();
        if self.close_after_write {
            return Pump::Close;
        }
        // Back to keep-alive; pipelined bytes already buffered count as a
        // started request for deadline purposes.
        self.body.clear();
        self.body.shrink_to(BUFFER_KEEP);
        self.out_pos = 0;
        self.state = ConnState::Reading;
        self.in_request = !self.inbuf.is_empty();
        self.deadline = now
            + if self.in_request {
                self.options.read_timeout
            } else {
                self.options.idle_timeout
            };
        self.set_phase(
            service,
            if self.in_request { "reading" } else { "idle" },
            now,
        );
        Pump::Keep { moved: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::Client;
    use crate::service::ServiceConfig;
    use std::sync::mpsc;

    /// A connection's buffers after a 1 MB upload and a 1 MB answer, then
    /// after a small exchange: grown while needed, back under the cap after.
    #[test]
    fn buffers_shrink_back_after_a_large_message() {
        let service = Arc::new(FusionService::new(ServiceConfig::narrow_schema()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = ShutdownHandle::from_parts(addr, Arc::new(AtomicBool::new(false)));
        let options = Options {
            max_connections: 1,
            read_timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(60),
        };

        // The client: a big PUT, a big SELECT, a small GET, one at a time;
        // it reports each answer's size as it completes.
        let (answered, answers) = mpsc::channel::<usize>();
        let (release, released) = mpsc::channel::<()>();
        let client = std::thread::spawn(move || {
            let mut csv = String::from("id,text\n");
            for i in 0..10_000 {
                csv.push_str(&format!("{i},{}\n", "x".repeat(100)));
            }
            assert!(csv.len() > 1_000_000);
            let mut client = Client::connect(&addr.to_string()).unwrap();
            for (method, path, body) in [
                ("PUT", "/tables/Big", csv.as_str()),
                ("POST", "/query", "SELECT * FROM Big"),
                ("GET", "/healthz", ""),
            ] {
                let (status, answer) = client
                    .request(method, path, "text/plain", body.as_bytes())
                    .unwrap();
                assert_eq!(status, 200, "{method} {path}: {answer}");
                answered.send(answer.len()).unwrap();
            }
            // Keep the connection open until the buffers have been looked at.
            let _ = released.recv();
        });

        let (stream, _) = listener.accept().unwrap();
        let mut conn = Conn::adopt(stream, options, &service).unwrap();
        let mut scratch = vec![0u8; READ_CHUNK];
        let mut largest_request_buffer = 0;
        let mut sizes = Vec::new();
        while sizes.len() < 3 {
            match conn.pump(&service, &shutdown, Instant::now(), &mut scratch, false) {
                Pump::Keep { moved: true } => {}
                Pump::Keep { moved: false } => {
                    sys::wait(&mut [conn.watch()], Some(Duration::from_secs(5))).unwrap();
                }
                Pump::Close => panic!("connection closed after {} answers", sizes.len()),
            }
            largest_request_buffer = largest_request_buffer.max(conn.inbuf.capacity());
            sizes.extend(answers.try_iter());
        }
        release.send(()).unwrap();
        client.join().unwrap();

        // Both buffers held a megabyte: the upload was parsed out of one,
        // the answer (sent from where it was written) filled the other.
        assert!(largest_request_buffer > 1_000_000);
        assert!(sizes[1] > 1_000_000, "answer sizes {sizes:?}");
        assert!(
            conn.inbuf.capacity() <= BUFFER_KEEP && conn.body.capacity() <= BUFFER_KEEP,
            "request buffer {} B, body buffer {} B",
            conn.inbuf.capacity(),
            conn.body.capacity()
        );
    }
}
