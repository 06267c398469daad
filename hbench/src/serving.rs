//! The serving workloads: a child `hummer-serve` driven over HTTP by a
//! single-threaded generator with one keep-alive connection, so that at any
//! moment one thread of the two processes is runnable and the host's second
//! core is left to whatever else runs on it.

use crate::cputime::process_cpu_time;
use crate::layers::{self, Client, Json, World};
use crate::probe::{self, reference_of, Target};
use crate::report::Outcome;
use crate::server::{mean_between, Scrape, ScratchDir, Served};
use crate::spans::{self_time_ns, Recorder, SpanRec};
use crate::statements::{for_world, Statements};
use crate::stats::{fnv, lowest, mean_of_class_medians, percentile, sorted, support, windows, Lcg};
use std::ops::Range;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Closed loop, *full* and *selective* statements alternating over the
    /// worlds, every request a cache hit.
    QueryWarm,
    /// Closed loop against a durable server; every 5th request is a delta.
    MixedDurable,
}

/// What a phase sends: the workload's closed loop, or (traced run of the
/// warm workload only) the same statements on a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Traffic {
    Closed,
    Open,
}

/// Open-loop rates, requests per second. The alternating statements take
/// 3.5 ms each on average over the one connection, so it saturates near
/// 280/s: three rungs stay below that, the last is far beyond it and only
/// shows what saturation looks like.
const RATES: [f64; 4] = [50.0, 100.0, 150.0, 600.0];
/// A rung is met when p95 from the due time stays within this, the generator
/// ran no later than `LATENESS_LIMIT_MS` at p95, and no request was still
/// unanswered this long after the rung's last due time.
const LATENCY_LIMIT_MS: f64 = 50.0;
const LATENESS_LIMIT_MS: f64 = 5.0;
/// Pause between an answer and the connection's next request, microseconds,
/// drawn uniformly. A `hummer-serve` worker that finds nothing to do sleeps
/// 1 ms. Sent back to back, a request either beats that sleep (the kernel ran
/// the client on the worker's core the moment the answer was written) or waits
/// all of it (the client woke on the other core): which one is the
/// scheduler's choice, it holds for minutes, and the two differ by 1.1 ms on
/// a 2.8 ms mean. With a pause longer than the sleep every request meets a
/// sleeping worker, as the requests of independent users do; the range spans
/// three sleep periods, so the request's phase in the sleep cycle is uniform
/// whatever the exact period is (a fixed pause phase-locks with it).
const THINK_US: (u64, u64) = (1000, 4000);
/// Deltas cycle over this many rows of each world's first source.
const DELTA_ROWS: usize = 50;
/// Traces fetched after a traced phase.
const TRACES_FETCHED: usize = 200;
/// Set-up is repeated and the quickest one reported.
const SETUPS: usize = 5;
const TRACED_ITERATIONS: usize = 3;
/// Ops per window of the run (about 1 s of the warm loop, 3.5 s of the mixed
/// one): 40 per class of statement, 20 per class of delta.
const WINDOW_OPS: usize = 320;
const WINDOW_DELTAS: usize = 80;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Full,
    Selective,
    Delta,
}

/// One answered request of the timed loop, in completion order.
#[derive(Debug, Clone, Copy)]
struct Sample {
    kind: Kind,
    world: usize,
    /// Seconds since the phase began.
    start_s: f64,
    done_s: f64,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        (self.done_s - self.start_s) * 1e3
    }
}

/// A running server with the worlds uploaded and every statement answered
/// once, so the prepared cache is full.
struct Session {
    served: Served,
    /// The generator's connection (taken by the phase that drives it).
    client: Option<Client>,
    scratch: Option<ScratchDir>,
    worlds: Vec<World>,
    statements: Vec<Statements>,
    /// Fingerprint of each statement's answer: `[full, selective]` per world.
    reference: Vec<[u64; 2]>,
}

/// Fingerprint of a `/query` answer without its per-request parts (`cache`
/// and `timings_ms`, which close the document), and whether it was a hit.
fn answer_fingerprint(body: &str) -> (u64, bool) {
    match body.rfind(",\"cache\":") {
        Some(cut) => (
            fnv(&body.as_bytes()[..cut]),
            body[cut..].starts_with(",\"cache\":\"hit\""),
        ),
        None => (fnv(body.as_bytes()), false),
    }
}

fn post_query(client: &mut Client, sql: &str) -> Result<layers::ResponseMeta, String> {
    client
        .request_meta("POST", "/query", "text/plain", sql.as_bytes())
        .map_err(|e| e.to_string())
}

fn setup(mode: Mode, traced: bool, seed: u64, out: &mut Outcome) -> Result<Session, String> {
    let worlds = layers::scenario_worlds(seed);
    let scratch = (mode == Mode::MixedDurable).then(|| ScratchDir::new("durable"));
    let served = Served::spawn(traced, scratch.as_ref().map(|s| s.0.as_path()))?;
    let mut client = Client::connect(&served.addr).map_err(|e| e.to_string())?;
    for world in &worlds {
        for source in &world.sources {
            let csv = layers::csv_write(&source.table);
            let path = format!("/tables/{}", source.table.name());
            let reply = client.request("PUT", &path, "text/csv", csv.as_bytes());
            out.check(matches!(reply, Ok((200, _))), || {
                format!("upload {path}: {reply:?}")
            });
        }
    }
    let statements: Vec<Statements> = worlds.iter().map(for_world).collect();
    let mut reference = Vec::new();
    for st in &statements {
        let mut fps = [0u64; 2];
        for (slot, sql) in fps.iter_mut().zip([&st.full, &st.selective]) {
            let reply = post_query(&mut client, sql);
            out.check(matches!(&reply, Ok(m) if m.status == 200), || {
                format!("cache fill `{sql}`: {reply:?}")
            });
            if let Ok(meta) = reply {
                *slot = answer_fingerprint(&meta.body).0;
            }
        }
        reference.push(fps);
    }
    Ok(Session {
        served,
        client: Some(client),
        scratch,
        worlds,
        statements,
        reference,
    })
}

/// The served answers must be the library's answers; their quality against
/// the generator's ground truth is then the library's, averaged over worlds.
fn check_against_library(session: &Session, out: &mut Outcome) -> (f64, f64) {
    let config = layers::service_config();
    let (mut f1, mut accuracy) = (Vec::new(), Vec::new());
    for ((world, st), served) in session
        .worlds
        .iter()
        .zip(&session.statements)
        .zip(&session.reference)
    {
        let prepared = layers::prepare(&layers::as_uploaded(world), &config);
        for (sql, served_fp) in [&st.full, &st.selective].into_iter().zip(served) {
            let answer = layers::execute(&layers::parse_sql(sql), &prepared.annotated);
            let body = layers::response_json(answer);
            out.check(answer_fingerprint(&body).0 == *served_fp, || {
                format!("served answer differs from the library's: {sql}")
            });
        }
        let fused = layers::fuse(&prepared);
        let q = layers::quality(world, &fused.detection.cluster_ids, &fused.result);
        f1.push(q.dup_f1);
        accuracy.push(q.cell_accuracy);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    (mean(&f1), mean(&accuracy))
}

// ------------------------------------------------------------ closed loop

#[derive(Default)]
struct LoopResult {
    samples: Vec<Sample>,
    peak_rss_mb: f64,
    /// `X-Hummer-Trace` ids of a sample of the answers (traced child only).
    traces: Vec<String>,
    /// Mixed workload: each world's *full* answer after its last acked delta.
    final_full: Vec<u64>,
}

/// The generator: one connection, one thread, the next request sent when the
/// previous one is answered.
struct Generator<'a> {
    client: Client,
    session: &'a Session,
    started: Instant,
    deadline: Instant,
    /// Cleared for the checks that follow the timed loop.
    timed: bool,
    think: Lcg,
    result: LoopResult,
    out: &'a mut Outcome,
}

impl Generator<'_> {
    /// The user reads the answer: `THINK_US` of sleep.
    fn think(&mut self) {
        let pause = THINK_US.0 + self.think.below(THINK_US.1 - THINK_US.0);
        std::thread::sleep(Duration::from_micros(pause));
    }

    fn record(&mut self, kind: Kind, world: usize, t0: Instant, trace: Option<String>) {
        if !self.timed {
            return;
        }
        self.result.samples.push(Sample {
            kind,
            world,
            start_s: (t0 - self.started).as_secs_f64(),
            done_s: self.started.elapsed().as_secs_f64(),
        });
        if let Some(id) = trace {
            // Every 7th answer: coprime to the 8 statements and to the mixed
            // loop's 5-request cycle, so every class of request is sampled.
            let n = self.result.samples.len();
            if n.is_multiple_of(7) && self.result.traces.len() < 2 * TRACES_FETCHED {
                self.result.traces.push(id);
            }
        }
    }

    /// One query; returns the answer's fingerprint when it was a `200`.
    fn query(&mut self, world: usize, kind: Kind, must_hit: bool) -> Option<u64> {
        let st = &self.session.statements[world];
        let sql = if kind == Kind::Full {
            &st.full
        } else {
            &st.selective
        };
        let t0 = Instant::now();
        let reply = post_query(&mut self.client, sql);
        match reply {
            Ok(meta) if meta.status == 200 => {
                self.record(kind, world, t0, meta.trace);
                let (fp, hit) = answer_fingerprint(&meta.body);
                self.out
                    .check(hit || !must_hit, || format!("not a cache hit: {sql}"));
                Some(fp)
            }
            other => {
                self.out.check(false, || format!("`{sql}`: {other:?}"));
                None
            }
        }
    }

    fn delta(&mut self, world: usize, path: &str, body: &str) {
        let t0 = Instant::now();
        let reply = self
            .client
            .request_meta("POST", path, "application/json", body.as_bytes());
        match reply {
            Ok(meta) if meta.status == 200 => {
                self.record(Kind::Delta, world, t0, meta.trace);
                self.out.check(true, String::new);
            }
            other => self.out.check(false, || format!("POST {path}: {other:?}")),
        }
    }

    fn end_timed(&mut self) {
        self.timed = false;
        self.result.peak_rss_mb = self.session.served.peak_rss_mb();
    }

    /// Read-only loop: request `i` asks statement `i % 2` of world
    /// `(i / 2) % worlds`; every answer must equal the cache-fill answer.
    fn run_warm(&mut self) {
        let worlds = self.session.worlds.len();
        let mut i = 0usize;
        while Instant::now() < self.deadline {
            let (world, slot) = ((i / 2) % worlds, i % 2);
            let kind = [Kind::Full, Kind::Selective][slot];
            self.think();
            if let Some(fp) = self.query(world, kind, true) {
                let want = self.session.reference[world][slot];
                self.out.check(fp == want, || {
                    format!("world {world}: answer changed without a delta")
                });
            }
            i += 1;
        }
        self.end_timed();
    }

    /// Mixed loop. Every 5th request is a one-row update of a world's first
    /// source, cycling over the worlds and over `DELTA_ROWS` rows; the other
    /// four alternate *full* and *selective*. An answer may change only
    /// across a delta. Inserts and deletes are left out of the timed loop:
    /// each one moves a row count, and on worlds whose count sits at a
    /// quantisation boundary of the detector's statistics that forces a full
    /// rescore (ten times an update's cost) on a seed-dependent share of the
    /// deltas. One insert and one delete per world follow untimed, so the
    /// restart check still covers all three.
    fn run_mixed(&mut self) {
        struct Owned {
            path: String,
            deltas: usize,
            last: [Option<(usize, u64)>; 2],
        }
        let session = self.session;
        let first_source = |world: usize| &session.worlds[world].sources[0].table;
        let n = session.worlds.len();
        let mut owned: Vec<Owned> = (0..n)
            .map(|world| Owned {
                path: format!("/tables/{}/delta", first_source(world).name()),
                deltas: 0,
                last: [None, None],
            })
            .collect();
        let (mut requests, mut queries) = (0usize, 0usize);
        while Instant::now() < self.deadline {
            requests += 1;
            self.think();
            if requests.is_multiple_of(5) {
                let world = (requests / 5) % n;
                let o = &mut owned[world];
                let table = first_source(world);
                let row = o.deltas % DELTA_ROWS.min(table.len());
                let body = layers::delta_body_update(table, row, &format!("d{}", o.deltas));
                o.deltas += 1;
                self.delta(world, &o.path, &body);
            } else {
                queries += 1;
                let world = (queries / 2) % n;
                let slot = queries % 2;
                let kind = [Kind::Full, Kind::Selective][slot];
                if let Some(fp) = self.query(world, kind, false) {
                    let o = &mut owned[world];
                    if let Some((seen_epoch, seen)) = o.last[slot] {
                        self.out.check(seen_epoch != o.deltas || seen == fp, || {
                            format!("world {world}: answer changed without a delta")
                        });
                    }
                    o.last[slot] = Some((o.deltas, fp));
                }
            }
        }
        // Untimed: an insert and the delete of the inserted (last) row, then
        // what the restarted server must still answer.
        self.end_timed();
        self.result.final_full = vec![0; n];
        for (world, o) in owned.iter().enumerate() {
            let table = first_source(world);
            self.delta(world, &o.path, &layers::delta_body_insert(table, 0, "ins"));
            self.delta(world, &o.path, &layers::delta_body_delete(table.len()));
            if let Some(fp) = self.query(world, Kind::Full, false) {
                self.result.final_full[world] = fp;
            }
        }
    }
}

fn closed_loop(
    session: &Session,
    client: Client,
    mode: Mode,
    seconds: f64,
    out: &mut Outcome,
) -> LoopResult {
    let started = Instant::now();
    let mut generator = Generator {
        client,
        session,
        started,
        deadline: started + Duration::from_secs_f64(seconds),
        timed: true,
        think: Lcg::default(),
        result: LoopResult::default(),
        out,
    };
    match mode {
        Mode::QueryWarm => generator.run_warm(),
        Mode::MixedDurable => generator.run_mixed(),
    }
    generator.result
}

// -------------------------------------------------------------- open loop

#[derive(Debug, Clone)]
struct Rung {
    rate: f64,
    /// `(request index, latency from its due time in ms)`, completion order.
    answers: Vec<(usize, f64)>,
    /// How late the generator handed each request over, ms.
    lateness_ms: Vec<f64>,
    /// Requests still unanswered `LATENCY_LIMIT_MS` after the last due time.
    backlog: usize,
    /// Answers per second from the rung's start to its last answer: the
    /// offered rate when the rung is met, the server's capacity when not.
    achieved_rps: f64,
}

impl Rung {
    fn latencies_ms(&self) -> Vec<f64> {
        self.answers.iter().map(|(_, ms)| *ms).collect()
    }

    fn met(&self) -> bool {
        !self.answers.is_empty()
            && self.backlog == 0
            && percentile(&sorted(self.latencies_ms()), 95.0) <= LATENCY_LIMIT_MS
            && percentile(&sorted(self.lateness_ms.clone()), 95.0) <= LATENESS_LIMIT_MS
    }
}

/// One open-loop rung over one connection: request `i` is due at `i / rate`;
/// the scheduler thread hands it over at that time whether or not the
/// connection is free, and its latency counts from the due time, so a request
/// that waits for the connection pays for it. `send(i)` performs request `i`
/// and returns once it is answered; `before_dispatch(i)` runs on the
/// scheduler thread (a test stalls the generator with it).
fn open_rung(
    rate: f64,
    seconds: f64,
    send: impl Fn(usize) + Sync,
    before_dispatch: impl Fn(usize),
) -> Rung {
    let total = (rate * seconds).floor().max(1.0) as usize;
    let (tx, rx) = mpsc::channel::<(usize, Instant)>();
    let start = Instant::now();
    let last_due = start + Duration::from_secs_f64((total - 1) as f64 / rate);
    let cutoff = last_due + Duration::from_secs_f64(LATENCY_LIMIT_MS / 1e3);
    let mut lateness_ms = Vec::with_capacity(total);
    let done: Vec<(Instant, usize, f64)> = std::thread::scope(|scope| {
        let send = &send;
        let connection = scope.spawn(move || {
            let mut done = Vec::new();
            for (i, due) in rx {
                send(i);
                let now = Instant::now();
                done.push((now, i, (now - due).as_secs_f64() * 1e3));
            }
            done
        });
        for i in 0..total {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            before_dispatch(i);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            lateness_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            tx.send((i, due))
                .expect("the connection outlives the schedule");
        }
        drop(tx);
        connection.join().expect("generator thread panicked")
    });
    let drained = done
        .last()
        .map_or(seconds, |(at, ..)| (*at - start).as_secs_f64());
    Rung {
        rate,
        backlog: done.iter().filter(|(at, ..)| *at > cutoff).count(),
        achieved_rps: done.len() as f64 / drained.max(seconds),
        answers: done.into_iter().map(|(_, i, ms)| (i, ms)).collect(),
        lateness_ms,
    }
}

fn open_loop(session: &Session, client: Client, seconds: f64, out: &mut Outcome) -> Vec<Rung> {
    let worlds = session.worlds.len();
    let client = Mutex::new(client);
    let checks = Mutex::new(Outcome::default());
    let rungs = RATES
        .iter()
        .map(|&rate| {
            open_rung(
                rate,
                seconds / RATES.len() as f64,
                |i| {
                    let (world, slot) = ((i / 2) % worlds, i % 2);
                    let st = &session.statements[world];
                    let sql = if slot == 0 { &st.full } else { &st.selective };
                    // The connection has one thread: the lock is never contended.
                    let reply = post_query(&mut client.lock().expect("poisoned"), sql);
                    let ok = matches!(&reply, Ok(m) if m.status == 200
                        && answer_fingerprint(&m.body) == (session.reference[world][slot], true));
                    checks
                        .lock()
                        .expect("poisoned")
                        .check(ok, || format!("open loop `{sql}`: wrong or failed answer"));
                },
                |_| (),
            )
        })
        .collect();
    out.absorb(checks.into_inner().expect("poisoned"));
    rungs
}

// ------------------------------------------------------------- the runs

/// What one measured phase against one server produced.
struct Phase {
    setup_s: f64,
    result: LoopResult,
    rungs: Vec<Rung>,
    before: Scrape,
    after: Scrape,
    recovery_ms: f64,
    span_self_ms: Vec<(&'static str, f64)>,
    quality: (f64, f64),
    worlds: usize,
}

fn scrape(served: &Served) -> Scrape {
    served
        .get("/metrics")
        .map_or_else(|_| Scrape::default(), |t| Scrape::parse(&t))
}

fn phase(
    mode: Mode,
    traffic: Traffic,
    traced: bool,
    seed: u64,
    seconds: f64,
    setups: usize,
    out: &mut Outcome,
) -> Result<Phase, String> {
    let mut setup_s = Vec::new();
    let mut session = None;
    for _ in 0..setups {
        drop(session.take());
        // Set-up in processor time, the generator's and the child's: like
        // the library ops, it is then the host's other tenants' time it
        // leaves out (its sleeps, 20 ms of idle parks and polls, too).
        let started = process_cpu_time();
        let ready = setup(mode, traced, seed, out)?;
        setup_s.push((process_cpu_time() - started).as_secs_f64() + ready.served.cpu_s());
        session = Some(ready);
    }
    let mut session = session.expect("setups > 0");
    let quality = check_against_library(&session, out);

    let before = scrape(&session.served);
    let client = session.client.take().expect("set-up connected");
    let (result, rungs) = match traffic {
        Traffic::Open => {
            let rungs = open_loop(&session, client, seconds, out);
            let result = LoopResult {
                peak_rss_mb: session.served.peak_rss_mb(),
                ..LoopResult::default()
            };
            (result, rungs)
        }
        Traffic::Closed => (
            closed_loop(&session, client, mode, seconds, out),
            Vec::new(),
        ),
    };
    let after = scrape(&session.served);
    let span_self_ms = if traced {
        fetch_span_self_times(&session.served, &result.traces)
    } else {
        Vec::new()
    };
    // A process crash (kill -9), then a restart on the same directory: every
    // acked delta must still be visible in the *full* answers.
    let mut recovery_ms = 0.0;
    if let Some(scratch) = &session.scratch {
        session.served.kill();
        let restarted = Served::spawn(traced, Some(&scratch.0))?;
        recovery_ms = restarted.ready_ms;
        let mut client = Client::connect(&restarted.addr).map_err(|e| e.to_string())?;
        for (world, st) in session.statements.iter().enumerate() {
            let reply = post_query(&mut client, &st.full);
            let same = matches!(&reply, Ok(m) if m.status == 200
                && Some(&answer_fingerprint(&m.body).0) == result.final_full.get(world));
            out.check(same, || {
                format!("world {world}: an acked delta is not visible after the restart")
            });
        }
        session.served = restarted;
    }
    Ok(Phase {
        setup_s: sorted(setup_s)[0],
        result,
        rungs,
        before,
        after,
        recovery_ms,
        span_self_ms,
        quality,
        worlds: session.worlds.len(),
    })
}

/// `(p50, tail, ops/s, note)` of a closed-loop phase, by the workload's
/// definition of op.
///
/// The requests are cut, in completion order, into half-overlapping windows
/// of `WINDOW_OPS` ops, each metric is taken per window, and the quietest
/// window's value is reported (see [`windows`]). Within a window: the worlds
/// differ in size and the statements in cost, so a pooled latency
/// distribution has several modes and its median jumps between them; the
/// median is therefore taken per class (world, and statement on the warm
/// workload) and averaged over the classes. The tail is the pooled
/// percentile (the slowest class owns it either way). The rate counts every
/// request of the window, over the time they were outstanding: what the one
/// connection would sustain without think time if every request still met a
/// sleeping worker.
fn op_metrics(mode: Mode, phase: &Phase) -> Result<(f64, f64, f64, String), String> {
    // Which requests are ops, their classes, the tail percentile, the
    // requests per window, and the op's name.
    type IsOp = fn(Kind) -> bool;
    let (is_op, classes, tail_p, window, what): (IsOp, usize, f64, usize, &str) = match mode {
        Mode::QueryWarm => (
            |k| k != Kind::Delta,
            2 * phase.worlds,
            95.0,
            WINDOW_OPS,
            "statement (full and selective alternate)",
        ),
        Mode::MixedDurable => (
            |k| k == Kind::Delta,
            phase.worlds,
            90.0,
            5 * WINDOW_DELTAS, // every 5th request is a delta
            "acked one-row update delta (fsync on)",
        ),
    };
    let samples = &phase.result.samples;
    let ops_of = |w: Range<usize>| -> Vec<(usize, f64)> {
        samples[w]
            .iter()
            .filter(|s| is_op(s.kind))
            .map(|s| {
                let class = 2 * s.world + usize::from(s.kind == Kind::Selective);
                (class, s.latency_ms())
            })
            .collect()
    };
    let all_classes = |ops: &[(usize, f64)]| {
        let mut seen: Vec<usize> = ops.iter().map(|(c, _)| *c).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len() == classes
    };
    let windows = windows(samples.len(), window);
    let p50 = lowest(&windows, |w| {
        let ops = ops_of(w);
        all_classes(&ops).then(|| mean_of_class_medians(&ops))
    });
    let tail = lowest(&windows, |w| {
        let ops = ops_of(w);
        let pooled = sorted(ops.iter().map(|(_, ms)| *ms).collect());
        all_classes(&ops).then(|| percentile(&pooled, tail_p))
    });
    let seconds_per_request = lowest(&windows, |w| {
        let outstanding_s: f64 = samples[w.clone()]
            .iter()
            .map(|s| s.done_s - s.start_s)
            .sum();
        (outstanding_s > 0.0).then(|| outstanding_s / w.len() as f64)
    });
    let (Some(p50), Some(tail), Some(seconds_per_request)) = (p50, tail, seconds_per_request)
    else {
        return Err(format!("too few requests completed to time one {what}"));
    };
    let whole = ops_of(0..samples.len());
    let ops_per_window = ops_of(windows[0].clone()).len();
    Ok((
        p50,
        tail,
        1.0 / seconds_per_request,
        format!(
            "op = one {what}, closed loop, 1 connection, {} to {} us think time; {} ops of {} \
             requests in {} \
             half-overlapping windows of {} requests ({}), each metric from \
             its quietest window: p50 = median per class averaged over {classes} classes, \
             tail = p{tail_p}, ops_per_s = all requests of the window per second they were \
             outstanding; over the whole run p50 is {:.3} ms",
            THINK_US.0,
            THINK_US.1,
            whole.len(),
            samples.len(),
            windows.len(),
            windows[0].len(),
            support(ops_per_window),
            mean_of_class_medians(&whole),
        ),
    ))
}

/// One line per open-loop rung, for the notes.
fn ladder_note(rungs: &[Rung]) -> String {
    let lines: Vec<String> = rungs
        .iter()
        .map(|r| {
            format!(
                "{:.0}/s: {:.1}/s answered, p50 {:.2} ms and p95 {:.1} ms from due, late p95 \
                 {:.2} ms, backlog {}{}",
                r.rate,
                r.achieved_rps,
                percentile(&sorted(r.latencies_ms()), 50.0),
                percentile(&sorted(r.latencies_ms()), 95.0),
                percentile(&sorted(r.lateness_ms.clone()), 95.0),
                r.backlog,
                if r.met() { "" } else { " (not met)" },
            )
        })
        .collect();
    format!(
        "open loop over the same statements, 1 connection, timed from each request's due \
         time; a rung is met with p95 <= {LATENCY_LIMIT_MS} ms, lateness p95 <= \
         {LATENESS_LIMIT_MS} ms and no backlog; ladder: {}",
        lines.join("; ")
    )
}

pub fn run_e2e(mode: Mode, seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let phase = phase(mode, Traffic::Closed, false, seed, seconds, SETUPS, out)?;
    let (p50, tail, rate, note) = op_metrics(mode, &phase)?;
    out.set("setup_s", phase.setup_s);
    out.set("op_p50_ms", p50);
    out.set("op_tail_ms", tail);
    out.set("ops_per_s", rate);
    out.set("dup_f1", phase.quality.0);
    out.set("fused_cell_accuracy", phase.quality.1);
    out.notes.push(format!(
        "{note}; setup_s = quickest of {SETUPS}; server peak RSS {:.1} MiB",
        phase.result.peak_rss_mb
    ));
    Ok(())
}

/// The traced run: the in-process probe over the four worlds, then the
/// workload's traffic against an untraced and a traced child (the difference
/// between the two is the cost of looking) and, on the warm workload, the
/// open-loop ladder; the run's time is shared equally.
pub fn run_traced(
    mode: Mode,
    seed: u64,
    seconds: f64,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let worlds = layers::scenario_worlds(seed);
    let config = layers::service_config();
    let references: Vec<u64> = worlds
        .iter()
        .map(|w| reference_of(&layers::cold_fuse(w, &config)))
        .collect();
    let targets: Vec<Target<'_>> = worlds
        .iter()
        .zip(&references)
        .map(|(world, &reference)| Target {
            world,
            config: &config,
            reference,
        })
        .collect();
    probe::run(&targets, TRACED_ITERATIONS, rec, out);

    let ladder = mode == Mode::QueryWarm;
    let share = seconds / if ladder { 3.0 } else { 2.0 };
    let bare = phase(mode, Traffic::Closed, false, seed, share, 1, out)?;
    let traced = phase(mode, Traffic::Closed, true, seed, share, 1, out)?;
    let (bare_p50, ..) = op_metrics(mode, &bare)?;
    let (traced_p50, _, _, note) = op_metrics(mode, &traced)?;
    out.notes.push(note);
    out.set("obs.trace_overhead_share", traced_p50 / bare_p50 - 1.0);
    let rungs = if ladder {
        let open = phase(mode, Traffic::Open, false, seed, share, 1, out)?;
        out.notes.push(ladder_note(&open.rungs));
        open.rungs
    } else {
        Vec::new()
    };
    let (b, a) = (&traced.before, &traced.after);
    let grown = |name: &str| a.sum(name, &[]) - b.sum(name, &[]);
    let per = |x: f64, y: f64| if y > 0.0 { x / y } else { 0.0 };
    let query = [("endpoint", "POST /query")];
    let server_ms = 1e3 * mean_between(b, a, "hummer_request_seconds", &query);
    let client_queries: Vec<f64> = traced
        .result
        .samples
        .iter()
        .filter(|s| s.kind != Kind::Delta)
        .map(Sample::latency_ms)
        .collect();
    let client_ms = if client_queries.is_empty() {
        server_ms // nothing was answered: the run has failed already
    } else {
        client_queries.iter().sum::<f64>() / client_queries.len() as f64
    };
    out.set("server.request_ms_mean", server_ms);
    out.set("server.transport_ms", (client_ms - server_ms).max(0.0));
    let (hits, misses) = (
        grown("hummer_prepared_cache_hits_total"),
        grown("hummer_prepared_cache_misses_total"),
    );
    out.set("server.cache_hit_rate", per(hits, hits + misses));
    let deltas = grown("hummer_deltas_applied_total");
    out.set(
        "server.cache_upgrades_per_delta",
        per(grown("hummer_prepared_cache_upgrades_total"), deltas),
    );
    out.set(
        "server.full_rescores_per_delta",
        per(grown("hummer_deltas_full_rescores_total"), deltas),
    );
    for &(metric, ms) in &traced.span_self_ms {
        out.set(metric, ms);
    }
    out.set(
        "store.fsync_ms_mean",
        1e3 * mean_between(b, a, "hummer_store_fsync_seconds", &[]),
    );
    out.set(
        "store.fsyncs_per_delta",
        per(grown("hummer_store_fsyncs_total"), deltas),
    );
    out.set(
        "store.group_commit_records_mean",
        mean_between(b, a, "hummer_store_group_commit_records", &[]),
    );
    out.set(
        "store.wal_bytes_per_delta",
        per(grown("hummer_store_wal_bytes"), deltas),
    );
    out.set("store.recovery_ms", traced.recovery_ms);
    out.set("process.peak_rss_mb", traced.result.peak_rss_mb);
    let lateness: Vec<f64> = rungs
        .iter()
        .flat_map(|r| r.lateness_ms.iter().copied())
        .collect();
    out.set(
        "loadgen.lateness_p95_ms",
        if lateness.is_empty() {
            0.0
        } else {
            percentile(&sorted(lateness), 95.0)
        },
    );
    out.set(
        "loadgen.open_max_rate_ok_rps",
        rungs
            .iter()
            .filter(|r| r.met())
            .map(|r| r.rate)
            .fold(0.0, f64::max),
    );
    Ok(())
}

/// The server spans whose self time is reported, and under which name.
const SPAN_METRICS: [(&str, &str); 5] = [
    ("prepare", "server.span_self_ms.prepare"),
    ("fuse", "server.span_self_ms.fuse"),
    ("upgrade", "server.span_self_ms.upgrade"),
    ("match", "server.span_self_ms.match"),
    ("detect", "server.span_self_ms.detect"),
];

/// Fetch `GET /trace/{id}` for a sample of answers and return, per metric of
/// `SPAN_METRICS`, the mean self time of the span's occurrences in ms.
fn fetch_span_self_times(served: &Served, ids: &[String]) -> Vec<(&'static str, f64)> {
    let mut sums: Vec<(&str, &'static str, f64, usize)> = SPAN_METRICS
        .iter()
        .map(|(span, metric)| (*span, *metric, 0.0, 0))
        .collect();
    for id in ids.iter().take(TRACES_FETCHED) {
        let Some(doc) = served
            .get(&format!("/trace/{id}"))
            .ok()
            .and_then(|body| Json::parse(&body).ok())
        else {
            continue; // evicted from the ring: nothing to learn from it
        };
        let mut spans = Vec::new();
        for root in doc.get("roots").and_then(Json::as_array).unwrap_or(&[]) {
            flatten_trace(root, None, &mut spans);
        }
        for i in 0..spans.len() {
            if let Some(slot) = sums.iter_mut().find(|(span, ..)| *span == spans[i].name) {
                slot.2 += self_time_ns(&spans, i) as f64 / 1e6;
                slot.3 += 1;
            }
        }
    }
    sums.into_iter()
        .map(|(_, metric, sum, n)| (metric, if n > 0 { sum / n as f64 } else { 0.0 }))
        .collect()
}

/// A `/trace/{id}` node and its descendants as benchmark spans.
fn flatten_trace(node: &Json, parent: Option<usize>, spans: &mut Vec<SpanRec>) {
    let us = |key: &str| node.get(key).and_then(Json::as_f64).unwrap_or(0.0).max(0.0);
    let start_ns = (us("start_us") * 1e3) as u64;
    let id = spans.len();
    spans.push(SpanRec {
        name: node
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        parent,
        start_ns,
        end_ns: start_ns + (us("duration_us") * 1e3) as u64,
        counts: Vec::new(),
    });
    for child in node.get("children").and_then(Json::as_array).unwrap_or(&[]) {
        flatten_trace(child, Some(id), spans);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn answer_fingerprint_ignores_the_per_request_tail() {
        let a =
            r#"{"result":{"rows":[[1]]},"row_count":1,"cache":"hit","timings_ms":{"execute":0.5}}"#;
        let b = r#"{"result":{"rows":[[1]]},"row_count":1,"cache":"miss","timings_ms":{"execute":9.0}}"#;
        let c =
            r#"{"result":{"rows":[[2]]},"row_count":1,"cache":"hit","timings_ms":{"execute":0.5}}"#;
        assert_eq!(answer_fingerprint(a).0, answer_fingerprint(b).0);
        assert_ne!(answer_fingerprint(a).0, answer_fingerprint(c).0);
        assert!(answer_fingerprint(a).1 && !answer_fingerprint(b).1);
    }

    #[test]
    fn open_loop_times_from_the_due_time_and_reports_lateness() {
        // 100/s for 0.2 s over one connection; each request takes 1 ms, but
        // the generator is stalled for 60 ms before handing over request 5.
        let stalled = AtomicBool::new(false);
        let rung = open_rung(
            100.0,
            0.2,
            |_| std::thread::sleep(Duration::from_millis(1)),
            |i| {
                if i == 5 && !stalled.swap(true, Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(60));
                }
            },
        );
        assert_eq!(rung.answers.len(), 20);
        assert_eq!(rung.lateness_ms.len(), 20);
        // Request 5 was due at 50 ms and handed over after the stall ended
        // (at >= 100 ms): the generator reports it, and so do the requests
        // that were due during the stall, although each was served in 1 ms.
        assert!(rung.lateness_ms[5] >= 45.0, "{:?}", rung.lateness_ms);
        assert!(rung.lateness_ms[2] < 20.0, "{:?}", rung.lateness_ms);
        let worst = sorted(rung.latencies_ms()).pop().unwrap();
        assert!(worst >= 45.0, "latency counts from the due time: {worst}");
        assert!(
            !rung.met(),
            "a stalled generator must not count as a met rung"
        );
    }

    #[test]
    fn trace_documents_become_spans_with_self_time() {
        let doc = Json::parse(
            r#"{"trace":"00000000000000aa","roots":[{"name":"POST /query","start_us":0,
            "duration_us":1000,"counters":{},"children":[
              {"name":"prepare","start_us":10,"duration_us":20,"counters":{},"children":[]},
              {"name":"fuse","start_us":40,"duration_us":600,"counters":{},"children":[]}]}]}"#,
        )
        .unwrap();
        let mut spans = Vec::new();
        for root in doc.get("roots").and_then(Json::as_array).unwrap() {
            flatten_trace(root, None, &mut spans);
        }
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(self_time_ns(&spans, 0), 380_000);
        assert_eq!(self_time_ns(&spans, 2), 600_000);
    }
}
