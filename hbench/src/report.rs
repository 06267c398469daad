//! Metric names and units, the result a run produces, and how it is printed.

use crate::layers::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The contract file, compiled in: the one place bounds, workload reasons
/// and the default run length are written down.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// End-to-end metrics, measured with tracing off: `(name, unit)`. Every
/// workload reports every one; what *op* means per workload is in
/// [`crate::WORKLOADS`] and the README.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("dup_f1", "ratio"),
    ("fused_cell_accuracy", "ratio"),
];

/// Per-layer metrics, from the traced run only. A layer a workload does not
/// exercise reports 0: it did no work there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pipeline.step_total_ms", "ms"),
    ("engine.csv_parse_ms", "ms"),
    ("engine.csv_write_ms", "ms"),
    ("textsim.corpus_build_ms", "ms"),
    ("textsim.softtfidf_ns_per_pair", "ns"),
    ("matching.match_ms", "ms"),
    ("matching.sniff_ms", "ms"),
    ("matching.assign_ms", "ms"),
    ("matching.sniff_pairs", "count"),
    ("matching.transform_ms", "ms"),
    ("matching.alloc_bytes", "bytes"),
    ("matching.alloc_count", "count"),
    ("dupdetect.detect_ms", "ms"),
    ("dupdetect.candidates_ms", "ms"),
    ("dupdetect.stats_ms", "ms"),
    ("dupdetect.score_ms", "ms"),
    ("dupdetect.cluster_ms", "ms"),
    ("dupdetect.candidate_pairs", "count"),
    ("dupdetect.pairs_compared", "count"),
    ("dupdetect.pairs_filtered", "count"),
    ("dupdetect.duplicates_per_compared", "ratio"),
    ("dupdetect.alloc_bytes", "bytes"),
    ("dupdetect.alloc_count", "count"),
    ("dupdetect.detect_delta_ms", "ms"),
    ("dupdetect.delta_rescored_share", "ratio"),
    ("core.apply_delta_ms", "ms"),
    ("fusion.fuse_ms", "ms"),
    ("fusion.fused_rows", "count"),
    ("fusion.conflicts", "count"),
    ("fusion.alloc_bytes", "bytes"),
    ("query.parse_us", "us"),
    ("query.execute_full_ms", "ms"),
    ("query.execute_selective_ms", "ms"),
    ("query.rows_examined_per_row_returned", "ratio"),
    ("server.json_serialize_ms", "ms"),
    ("server.json_bytes", "bytes"),
    ("server.alloc_bytes_per_response", "bytes"),
    ("server.request_ms_mean", "ms"),
    ("server.transport_ms", "ms"),
    ("server.cache_hit_rate", "ratio"),
    ("server.cache_upgrades_per_delta", "ratio"),
    ("server.full_rescores_per_delta", "ratio"),
    ("server.span_self_ms.prepare", "ms"),
    ("server.span_self_ms.fuse", "ms"),
    ("server.span_self_ms.upgrade", "ms"),
    ("server.span_self_ms.match", "ms"),
    ("server.span_self_ms.detect", "ms"),
    ("delta.apply_ms", "ms"),
    ("delta.codec_bytes", "bytes"),
    ("store.fsync_ms_mean", "ms"),
    ("store.fsyncs_per_delta", "ratio"),
    ("store.group_commit_records_mean", "ratio"),
    ("store.wal_bytes_per_delta", "bytes"),
    ("store.recovery_ms", "ms"),
    ("obs.trace_overhead_share", "ratio"),
    ("loadgen.lateness_p95_ms", "ms"),
    ("loadgen.open_max_rate_ok_rps", "1/s"),
    ("process.peak_rss_mb", "MiB"),
];

/// Per-layer metrics that are exact counts: they must repeat bit for bit
/// across the traced iterations, or the run fails.
pub fn is_exact_count(name: &str) -> bool {
    name.ends_with(".alloc_bytes")
        || name.ends_with(".alloc_count")
        || matches!(
            name,
            "matching.sniff_pairs"
                | "dupdetect.candidate_pairs"
                | "dupdetect.pairs_compared"
                | "dupdetect.pairs_filtered"
                | "fusion.fused_rows"
                | "fusion.conflicts"
                | "server.json_bytes"
                | "server.alloc_bytes_per_response"
                | "delta.codec_bytes"
        )
}

/// Per-layer metrics read from the child server (its `/metrics`, its traces,
/// the load generator talking to it). The in-process probe fills the rest.
pub fn is_served_layer(name: &str) -> bool {
    const PREFIXES: [&str; 9] = [
        "server.request_",
        "server.transport_",
        "server.cache_",
        "server.full_rescores_",
        "server.span_self_ms.",
        "store.",
        "obs.",
        "loadgen.",
        "process.",
    ];
    PREFIXES.iter().any(|p| name.starts_with(p))
}

pub type Values = BTreeMap<&'static str, f64>;

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: requests, fuse calls, output checks.
    pub attempted: u64,
    /// Operations failed, refused, wrong-answer, or lost after restart.
    pub failed: u64,
    /// One line per distinct failure, for the human reader.
    pub failures: Vec<String>,
    pub values: Values,
    /// Free-text facts the metrics need to be read (input sizes, sample
    /// counts, which percentile the tail is).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one attempted operation; `ok == false` makes it a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Take over the attempts and failures another thread counted.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The driver's result line: exactly the metrics of `table`, each with
    /// its unit. A missing or non-finite value is a defect of the benchmark
    /// and fails the run.
    pub fn result_line(&mut self, table: &[(&'static str, &'static str)]) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self.values.get(name).copied().unwrap_or(f64::NAN);
            if !value.is_finite() {
                self.failed += 1;
                self.failures
                    .push(format!("metric {name} has no finite value"));
            }
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                metrics,
                "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
        )
    }

    /// Name, value and unit of every metric of `table`, one per line.
    pub fn table(&self, table: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        for (name, unit) in table {
            let value = self.values.get(name).copied().unwrap_or(f64::NAN);
            let _ = writeln!(out, "  {name:<40} {value:>16.4} {unit}");
        }
        out
    }
}

/// `(name, bound)` of every end-to-end metric in `BENCHMARK.json`.
pub fn bounds() -> Vec<(String, f64)> {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .expect("end_to_end is an array")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("metric name")
                    .to_string(),
                m.get("bound").and_then(Json::as_f64).expect("metric bound"),
            )
        })
        .collect()
}

pub fn default_run_seconds() -> f64 {
    Json::parse(BENCHMARK_JSON)
        .ok()
        .and_then(|d| d.get("run_seconds").and_then(Json::as_f64))
        .expect("run_seconds is a number")
}

/// Where and with what the numbers were taken; printed with every report.
pub fn host_fingerprint(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "rustc unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!("host: nproc={nproc} | {rustc} | profile={profile} | kernel={kernel} | seed={seed}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn contract(section: &str) -> Vec<(String, String)> {
        let doc = Json::parse(BENCHMARK_JSON).unwrap();
        doc.get(section)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    fn own(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_are_exactly_the_contract() {
        assert_eq!(own(END_TO_END), contract("end_to_end"));
        assert_eq!(own(PER_LAYER), contract("per_layer"));
        let names: BTreeSet<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "a name is used once"
        );
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let ok = |s: &str, extra: &str| {
                s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
            };
            assert!(name.len() <= 64 && ok(name, "_.-"), "{name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(unit.len() <= 16 && ok(unit, "_/%.-"), "{unit}");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
        assert!(bounds().iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
    }

    #[test]
    fn contract_workloads_are_the_ones_the_binary_runs() {
        let doc = Json::parse(BENCHMARK_JSON).unwrap();
        let listed: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let own: Vec<&str> = crate::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed, own);
    }

    #[test]
    fn result_line_is_the_driver_format() {
        let mut o = Outcome::default();
        o.check(true, || unreachable!());
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            o.set(name, 1.5 + i as f64);
        }
        let line = o.result_line(END_TO_END);
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("attempted").and_then(Json::as_i64), Some(1));
        assert_eq!(doc.get("failed").and_then(Json::as_i64), Some(0));
        let m = doc.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s")
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64),
            Some(1.5)
        );
        assert_eq!(
            m.get("ops_per_s")
                .and_then(|v| v.get("unit"))
                .and_then(Json::as_str),
            Some("1/s")
        );
        // A metric without a value fails the run instead of printing NaN.
        let mut empty = Outcome::default();
        let line = empty.result_line(END_TO_END);
        assert!(line.contains("\"correct\":false") && !line.contains("NaN"));
    }
}
