//! `hummer-serve` — run the HumMer fusion query service.
//!
//! ```text
//! hummer-serve [--addr HOST:PORT] [--threads N] [--par N] [--cache N]
//!              [--narrow-schemas] [--preload NAME=FILE.csv ...]
//!              [--max-connections N] [--read-timeout-ms N] [--idle-timeout-ms N]
//!              [--data-dir DIR] [--compact-after-bytes N] [--no-fsync]
//!              [--group-commit-window-us N]
//! ```
//!
//! `--par N` sets the intra-query thread budget each request may use for
//! the parallelizable pipeline stages (matching, detection, fusion).
//! Without the flag the budget defaults to the fair per-worker share of
//! the machine, `max(1, cores / --threads)`, so worker pool × intra-query
//! threads ≈ cores instead of oversubscribing.
//!
//! With `--data-dir` the catalog is durable: the server recovers every
//! registered source (content versions included) from the directory on
//! boot and write-ahead-logs each mutation before acking it. A `kill -9`'d
//! server restarted on the same directory serves byte-identical fusion
//! results.
//!
//! The process serves until `POST /shutdown` arrives, then drains in-flight
//! requests and exits 0.

use hummer_server::{HummerServer, ObsConfig, Parallelism, ServerConfig, ServiceConfig};
use std::process::ExitCode;
use std::time::Duration;

const HELP: &str = "\
usage: hummer-serve [OPTIONS]

Serving:
  --addr HOST:PORT        bind address (default 127.0.0.1:7878; port 0 = ephemeral)
  --threads N             event-loop worker threads (default 4); each worker
                          multiplexes many connections
  --par N                 intra-query thread budget per request
                          (default: max(1, cores / --threads))
  --cache N               prepared-pipeline cache capacity, in source sets (default 64)
  --narrow-schemas        pipeline tuning for narrow (2-3 column) sources
  --preload NAME=FILE.csv register a CSV file before serving (repeatable)
  --max-connections N     admission cap on open connections; arrivals beyond it
                          get 503 + Retry-After (default 1024)
  --read-timeout-ms N     a started request must arrive in full within N ms or
                          the connection is answered 408 and closed
                          (default 30000)
  --idle-timeout-ms N     idle keep-alive connections are reclaimed after N ms
                          (default 60000)

Observability:
  --trace-ring N          span-ring capacity, in span records (default 65536);
                          responses carry X-Hummer-Trace and GET /trace/{id}
                          returns a request's span tree while it is in the ring
  --no-trace              disable tracing entirely (spans become no-ops;
                          /metrics histograms still record)

Durability (see README \"Durability\"):
  --data-dir DIR          persist the catalog in DIR: recover on boot, then
                          write-ahead-log every register/delta/deregister
                          before acking it (default: in-memory only)
  --compact-after-bytes N roll the WAL into a fresh snapshot once it exceeds
                          N bytes; 0 disables auto-compaction (default 8388608)
  --no-fsync              skip fsync on commit - benchmarking escape hatch;
                          survives kill -9 but not power loss (default: fsync on)
  --group-commit-window-us N
                          let the WAL commit leader linger N microseconds so
                          concurrent writers share one fsync; 0 commits
                          immediately (default 0)

  -h, --help              print this help and exit
";

fn usage() -> ! {
    eprintln!("{HELP}");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut config = ServerConfig::default();
    let mut par: Option<usize> = None;
    let mut trace_ring = 65536usize;
    let mut trace = true;
    let mut preloads: Vec<(String, String)> = Vec::new();
    fn next_num<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>) -> T {
        match args.next().and_then(|v| v.parse().ok()) {
            Some(v) => v,
            None => usage(),
        }
    }
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => config.addr = args.next().unwrap_or_else(|| usage()),
            "--threads" => config.threads = next_num(&mut args),
            "--par" => par = Some(next_num(&mut args)),
            "--cache" => config.service.cache_capacity = next_num(&mut args),
            "--narrow-schemas" => config.service.pipeline = ServiceConfig::narrow_schema().pipeline,
            "--preload" => {
                let spec = args.next().unwrap_or_else(|| usage());
                match spec.split_once('=') {
                    Some((name, path)) => preloads.push((name.to_string(), path.to_string())),
                    None => usage(),
                }
            }
            "--data-dir" => {
                config.data_dir = Some(args.next().unwrap_or_else(|| usage()).into());
            }
            "--compact-after-bytes" => config.store.compact_after_bytes = next_num(&mut args),
            "--no-fsync" => config.store.fsync = false,
            "--group-commit-window-us" => config.store.group_commit_window_us = next_num(&mut args),
            "--max-connections" => config.max_connections = next_num(&mut args),
            "--read-timeout-ms" => config.read_timeout = Duration::from_millis(next_num(&mut args)),
            "--idle-timeout-ms" => config.idle_timeout = Duration::from_millis(next_num(&mut args)),
            "--trace-ring" => trace_ring = next_num(&mut args),
            "--no-trace" => trace = false,
            "--help" | "-h" => {
                println!("{HELP}");
                return ExitCode::SUCCESS;
            }
            _ => usage(),
        }
    }

    // Compose the two thread layers: N workers x this degree ~ cores.
    config.service.pipeline.parallelism = match par {
        Some(n) => Parallelism::degree(n),
        None => Parallelism::auto_shared(config.threads.max(1)),
    };
    // Tracing is on by default: it never changes an answer
    // (`tests/parallel_equivalence.rs::tracing_does_not_perturb_the_answer`),
    // and hbench's `obs.trace_overhead_share` reports what it costs;
    // --no-trace turns spans into no-ops.
    if trace {
        config.service.pipeline.obs = ObsConfig::enabled(trace_ring.max(1));
    }

    let server = match HummerServer::bind(config.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hummer-serve: cannot start on {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    if let Some(dir) = &config.data_dir {
        let stats = server
            .service()
            .store_stats()
            .expect("durable server has store stats");
        eprintln!(
            "hummer-serve: durable catalog at {} — recovered {} table(s) in {:.1} ms \
             (generation {}, {} WAL record(s), fsync {})",
            dir.display(),
            server.service().tables().len(),
            stats.recovery_ms,
            stats.generation,
            stats.wal_records,
            if stats.fsync { "on" } else { "OFF" },
        );
    }
    // A recovered table wins over its --preload file: the file is the
    // *initial* content, and re-uploading it on every restart would
    // silently roll back acked deltas the WAL faithfully replayed.
    let recovered: Vec<String> = server
        .service()
        .tables()
        .into_iter()
        .map(|t| t.name.to_ascii_lowercase())
        .collect();
    for (name, path) in &preloads {
        if recovered.contains(&name.to_ascii_lowercase()) {
            eprintln!("hummer-serve: `{name}` recovered from the data dir; skipping preload");
            continue;
        }
        let csv = match std::fs::read_to_string(path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("hummer-serve: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match server.service().put_table(name, &csv) {
            Ok(info) => eprintln!("hummer-serve: preloaded `{name}` ({} rows)", info.rows),
            Err(e) => {
                eprintln!("hummer-serve: preload `{name}` failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!(
        "hummer-serve: listening on {} ({} workers x {} intra-query threads, \
         tracing {}); POST /shutdown to stop",
        server.local_addr(),
        config.threads.max(1),
        config.service.pipeline.parallelism.get(),
        if trace {
            "on (X-Hummer-Trace + GET /trace/{id})"
        } else {
            "OFF"
        },
    );
    match server.run() {
        Ok(()) => {
            eprintln!("hummer-serve: drained, bye");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hummer-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
