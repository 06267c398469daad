//! `loadgen` — drive a running `hummer-serve` with generated scenario
//! worlds and report throughput/latency plus the server's cache hit rate.
//!
//! ```text
//! loadgen --addr HOST:PORT [--connections N] [--requests N]
//!         [--worlds N] [--entities N] [--seed N] [--update-ratio F]
//! ```
//!
//! Each world is one of the paper's demo scenarios (CD shopping, disaster
//! registry, student rosters, cleansing service) with tables uploaded under
//! world-prefixed names; the request mix fans `FUSE BY` queries over all
//! worlds round-robin, so a warm server answers almost everything from the
//! prepared-pipeline cache. With `--update-ratio F` (0 < F < 1) that
//! fraction of requests becomes `POST /tables/{name}/delta` row updates,
//! exercising delta ingestion — and the incremental cache-upgrade path —
//! under concurrent queries.

use hummer_server::loadgen::{
    http_request, run_load, scenario_worlds, update_pool_for_worlds, upload_world, LoadConfig,
};
use hummer_server::promlint;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: loadgen --addr HOST:PORT [--connections N] [--requests N] \
         [--worlds N] [--entities N] [--seed N] [--update-ratio F]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut addr = String::new();
    let mut connections = 8usize;
    let mut requests = 200usize;
    let mut worlds_n = 4usize;
    let mut entities = 60usize;
    let mut seed = 2005u64;
    let mut update_ratio = 0.0f64;
    fn next_num<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>) -> T {
        match args.next().and_then(|v| v.parse().ok()) {
            Some(v) => v,
            None => usage(),
        }
    }
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next().unwrap_or_else(|| usage()),
            "--connections" => connections = next_num(&mut args),
            "--requests" => requests = next_num(&mut args),
            "--worlds" => worlds_n = next_num(&mut args),
            "--entities" => entities = next_num(&mut args),
            "--seed" => seed = next_num(&mut args),
            "--update-ratio" => update_ratio = next_num(&mut args),
            _ => usage(),
        }
    }
    if addr.is_empty() || !(0.0..1.0).contains(&update_ratio) {
        usage();
    }

    match http_request(&addr, "GET", "/healthz", "text/plain", b"") {
        Ok((200, _)) => {}
        other => {
            eprintln!("loadgen: server at {addr} not healthy: {other:?}");
            return ExitCode::FAILURE;
        }
    }

    eprintln!("loadgen: generating {worlds_n} scenario worlds ({entities} entities each)");
    let worlds = scenario_worlds(worlds_n, entities, seed);
    let mut sql_pool = Vec::new();
    for (i, world) in worlds.iter().enumerate() {
        match upload_world(&addr, &format!("w{i}"), world) {
            Ok(sql) => sql_pool.push(sql),
            Err(e) => {
                eprintln!("loadgen: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let (update_every, update_pool) = if update_ratio > 0.0 {
        let prefixed: Vec<(String, &hummer_datagen::GeneratedWorld)> = worlds
            .iter()
            .enumerate()
            .map(|(i, w)| (format!("w{i}"), w))
            .collect();
        (
            (1.0 / update_ratio).round().max(1.0) as usize,
            update_pool_for_worlds(&prefixed),
        )
    } else {
        (0, Vec::new())
    };
    if update_every > 0 {
        eprintln!(
            "loadgen: mixed workload — every {update_every}th request is a delta update \
             ({} delta bodies)",
            update_pool.len()
        );
    }

    eprintln!("loadgen: {connections} connections x {requests} total requests");
    let report = run_load(&LoadConfig {
        addr: addr.clone(),
        connections,
        requests,
        sql_pool,
        update_every,
        update_pool,
    });

    let metrics = http_request(&addr, "GET", "/metrics", "text/plain", b"")
        .ok()
        .filter(|(status, _)| *status == 200)
        .and_then(|(_, body)| promlint::parse(&body).ok());

    print!("{}", report.render());
    let exit = if report.errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    };
    let Some(metrics) = metrics else {
        println!("cache_hit_rate   n/a");
        println!("server_metrics   n/a");
        return exit;
    };
    let value = |name: &str| metrics.value(name, &[]);
    let int = |name: &str| value(name).unwrap_or(0.0) as u64;
    let hits = value("hummer_prepared_cache_hits_total").unwrap_or(0.0);
    let lookups = hits + value("hummer_prepared_cache_misses_total").unwrap_or(0.0);
    println!(
        "cache_hit_rate   {:.3}",
        if lookups > 0.0 { hits / lookups } else { 0.0 }
    );
    // Durable mode: surface the server's store counters so a logged-catalog
    // run is distinguishable from an in-memory one in the report.
    match value("hummer_store_fsync_enabled") {
        Some(fsync) => {
            println!("durable_mode     yes");
            println!(
                "store_fsync      {}",
                if fsync > 0.0 { "on" } else { "off" }
            );
            println!("wal_bytes        {}", int("hummer_store_wal_bytes"));
            println!("wal_records      {}", int("hummer_store_wal_records"));
            println!("snapshots        {}", int("hummer_store_snapshots_total"));
            println!(
                "recovery_ms      {:.3}",
                value("hummer_store_recovery_seconds").unwrap_or(0.0) * 1e3
            );
        }
        None => println!("durable_mode     no"),
    }
    exit
}
