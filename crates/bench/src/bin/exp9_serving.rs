//! E9 — the serving path: an in-process `hummer_server` under load.
//!
//! Measures, per demo scenario world, the cold (cache-miss: full
//! match+detect pipeline) vs. warm (prepared-pipeline cache hit) latency of
//! the same `FUSE BY` query, then fans concurrent connections over all
//! worlds for throughput. Writes the numbers as `BENCH_serving.json` next
//! to the working directory and prints the tables.
//!
//! The acceptance bar for the prepared-pipeline cache is a ≥ 5× cold/warm
//! speedup on repeat queries over unchanged sources; the run fails loudly
//! if the speedup falls below that.

use hummer_bench::{f3, render_table};
use hummer_obs::Histogram;
use hummer_server::loadgen::{http_request, run_load, scenario_worlds, upload_world, LoadConfig};
use hummer_server::{HummerServer, Json, ServerConfig, ServiceConfig};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const SCENARIO_NAMES: [&str; 4] = [
    "cd_shopping",
    "disaster_registry",
    "student_rosters",
    "cleansing_service",
];
const WARM_REPEATS: usize = 12;

fn timed_query(addr: &str, sql: &str) -> (Duration, u16) {
    let t0 = Instant::now();
    let (status, _) = http_request(addr, "POST", "/query", "text/plain", sql.as_bytes())
        .unwrap_or((0, String::new()));
    (t0.elapsed(), status)
}

fn main() -> ExitCode {
    println!("E9 — fusion query serving: prepared-pipeline cache cold vs. warm, then load\n");

    let server = HummerServer::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 4,
        service: ServiceConfig::narrow_schema(),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    // One world per demo scenario; upload tables, keep the FUSE query each.
    // World size is chosen so preparation (match + detect) dominates cold
    // latency the way real workloads do.
    let worlds = scenario_worlds(4, 150, 2005);
    let mut sql_pool = Vec::new();
    for (i, world) in worlds.iter().enumerate() {
        sql_pool.push(upload_world(&addr, &format!("w{i}"), world).expect("upload world"));
    }

    // Cold vs. warm, per world.
    let mut rows = Vec::new();
    let mut world_reports = Vec::new();
    let mut worst_speedup = f64::INFINITY;
    for (name, sql) in SCENARIO_NAMES.iter().zip(&sql_pool) {
        let (cold, status) = timed_query(&addr, sql);
        assert_eq!(status, 200, "cold query against {name} failed");
        let cold_ms = cold.as_secs_f64() * 1e3;
        // Same log-bucketed histogram (microsecond samples) the server and
        // loadgen report their percentiles from.
        let warm = Histogram::new();
        for _ in 0..WARM_REPEATS {
            let (latency, status) = timed_query(&addr, sql);
            assert_eq!(status, 200, "warm query against {name} failed");
            warm.record_duration(latency);
        }
        let warm_p50 = warm.snapshot().quantile(0.5) as f64 / 1e3;
        let speedup = cold_ms / warm_p50.max(1e-9);
        worst_speedup = worst_speedup.min(speedup);
        rows.push(vec![
            name.to_string(),
            format!("{cold_ms:.2}"),
            format!("{warm_p50:.2}"),
            format!("{speedup:.1}x"),
        ]);
        world_reports.push(
            Json::object()
                .with("scenario", *name)
                .with("cold_ms", cold_ms)
                .with("warm_p50_ms", warm_p50)
                .with("speedup", speedup),
        );
    }
    println!(
        "{}",
        render_table(&["scenario", "cold_ms", "warm_p50_ms", "speedup"], &rows)
    );

    // Concurrent load over all (now warm) worlds.
    let load = run_load(&LoadConfig::read_only(
        addr.clone(),
        8,
        200,
        sql_pool.clone(),
    ));
    println!(
        "{}",
        render_table(
            &[
                "connections",
                "requests",
                "ok",
                "err",
                "rps",
                "p50_ms",
                "p99_ms"
            ],
            &[vec![
                "8".into(),
                "200".into(),
                load.ok.to_string(),
                load.errors.to_string(),
                format!("{:.1}", load.throughput_rps),
                format!("{:.2}", load.p50_ms),
                format!("{:.2}", load.p99_ms),
            ]],
        )
    );

    // Cache hit rate from the server's own metrics endpoint.
    let (_, metrics_body) =
        http_request(&addr, "GET", "/metrics.json", "text/plain", b"").expect("metrics");
    let metrics = Json::parse(&metrics_body).expect("metrics JSON");
    let cache = metrics.get("prepared_cache").expect("cache stats").clone();
    println!("cache: {}", cache.to_string_compact());
    println!("worst cold/warm speedup: {}x\n", f3(worst_speedup));

    handle.shutdown();
    server_thread.join().expect("server thread");

    let report = Json::object()
        .with("experiment", "exp9_serving")
        .with("worlds", Json::Arr(world_reports))
        .with(
            "load",
            Json::object()
                .with("connections", 8usize)
                .with("requests", 200usize)
                .with("ok", load.ok)
                .with("errors", load.errors)
                .with("throughput_rps", load.throughput_rps)
                .with("p50_ms", load.p50_ms)
                .with("p99_ms", load.p99_ms),
        )
        .with("cache", cache)
        .with("worst_speedup", worst_speedup);
    let path = "BENCH_serving.json";
    std::fs::write(path, report.to_string_pretty()).expect("write BENCH_serving.json");
    println!("wrote {path}");

    if worst_speedup < 5.0 {
        eprintln!("FAIL: prepared-pipeline cache speedup {worst_speedup:.1}x is below the 5x bar");
        return ExitCode::FAILURE;
    }
    println!("PASS: repeat queries ≥ 5x faster than cold on every scenario");
    ExitCode::SUCCESS
}
