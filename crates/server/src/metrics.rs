//! Request metrics — counts, and request and pipeline-stage latency
//! histograms — and the `GET /metrics` exposition that prints them
//! ([`metrics_to_prometheus`]).
//!
//! One [`Metrics`] lives in the shared service. The hot recording paths —
//! request latencies and stage latencies — go through `hummer_obs`'s
//! lock-free log-bucketed [`Histogram`]s (one relaxed `fetch_add` per
//! sample, ~1.6% worst-case quantile error), so worker threads never
//! contend at loadgen concurrency. The endpoint label map sits behind an
//! `RwLock` taken for reading only. Each counter is one `Counter`,
//! declared once with its exposition name and help.

use crate::catalog::UpgradeTally;
use crate::service::{FusionService, UNPOISONED};
use hummer_core::StageTimings;
use hummer_delta::DeltaCounts;
use hummer_obs::{Histogram, HistogramSnapshot, HistogramVec, PromText};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// Per-endpoint error count and latency histogram (microsecond samples;
/// its sample count is the request count).
#[derive(Debug, Default)]
pub struct EndpointStats {
    errors: AtomicU64,
    latency: Histogram,
}

impl EndpointStats {
    fn record(&self, latency: Duration, is_error: bool, trace: Option<u64>) {
        if is_error {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        // The trace id becomes the bucket's exemplar: a slow `/metrics`
        // bucket links directly to a fetchable `GET /trace/{id}`.
        self.latency.record_duration_with_trace(latency, trace);
    }
}

/// One monotone counter: its exposition name and help sit beside its
/// slot, and `GET /metrics` prints it from there.
#[derive(Debug)]
pub(crate) struct Counter {
    name: &'static str,
    help: &'static str,
    value: AtomicU64,
}

impl Counter {
    const fn new(name: &'static str, help: &'static str) -> Counter {
        Counter {
            name,
            help,
            value: AtomicU64::new(0),
        }
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The count so far.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Thread-safe metrics registry. Recording latencies is lock-free after
/// the first request per endpoint label; every counter is one atomic.
#[derive(Debug)]
pub struct Metrics {
    endpoints: RwLock<BTreeMap<String, Arc<EndpointStats>>>,
    /// Stage latency histograms, labeled `[stage, degree]`.
    stage_hists: HistogramVec,
    /// Per-connection time spent in each lifecycle state (`reading`,
    /// `executing`, `writing`, `idle`), labeled `[state]`; microseconds.
    conn_state_hists: HistogramVec,
    pub(crate) overload_rejects: Counter,
    pub(crate) read_timeouts: Counter,
    pub(crate) idle_reclaims: Counter,
    pub(crate) worker_panics: Counter,
    /// An idle server wakes a few times a second per worker; a count that
    /// climbs by hundreds a second without traffic means a worker spins.
    pub(crate) event_loop_wakeups: Counter,
    cache_upgrades: Counter,
    cache_upgrade_failures: Counter,
    deltas_applied: Counter,
    rows_inserted: Counter,
    rows_updated: Counter,
    rows_deleted: Counter,
    full_rescores: Counter,
    index_builds: Counter,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            endpoints: RwLock::default(),
            stage_hists: HistogramVec::default(),
            conn_state_hists: HistogramVec::default(),
            overload_rejects: Counter::new(
                "hummer_overload_rejects_total",
                "Connections refused with 503 at the admission gate.",
            ),
            read_timeouts: Counter::new(
                "hummer_read_timeouts_total",
                "Started requests that stalled past the read deadline (408).",
            ),
            idle_reclaims: Counter::new(
                "hummer_idle_reclaims_total",
                "Idle keep-alive connections reclaimed silently.",
            ),
            worker_panics: Counter::new(
                "hummer_worker_panics_total",
                "Requests whose handler panicked (answered 500, socket closed).",
            ),
            event_loop_wakeups: Counter::new(
                "hummer_event_loop_wakeups_total",
                "Returns of event-loop workers from their readiness wait.",
            ),
            cache_upgrades: Counter::new(
                "hummer_prepared_cache_upgrades_total",
                "Prepared entries upgraded in place by deltas.",
            ),
            cache_upgrade_failures: Counter::new(
                "hummer_prepared_cache_upgrade_failures_total",
                "Delta upgrades that failed (entry dropped).",
            ),
            deltas_applied: Counter::new("hummer_deltas_applied_total", "Delta batches applied."),
            rows_inserted: Counter::new(
                "hummer_deltas_rows_inserted_total",
                "Rows inserted by deltas.",
            ),
            rows_updated: Counter::new(
                "hummer_deltas_rows_updated_total",
                "Rows updated by deltas.",
            ),
            rows_deleted: Counter::new(
                "hummer_deltas_rows_deleted_total",
                "Rows deleted by deltas.",
            ),
            full_rescores: Counter::new(
                "hummer_deltas_full_rescores_total",
                "Delta upgrades that degraded to a full rescore.",
            ),
            index_builds: Counter::new(
                "hummer_delta_index_builds_total",
                "Delta indexes (match + detection) built by delta upgrades.",
            ),
        }
    }
}

impl Metrics {
    /// A fresh registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Shared handle to one endpoint's stats (created on first use).
    fn endpoint(&self, endpoint: &str) -> Arc<EndpointStats> {
        {
            let map = self.endpoints.read().unwrap();
            if let Some(stats) = map.get(endpoint) {
                return Arc::clone(stats);
            }
        }
        let mut map = self.endpoints.write().unwrap();
        Arc::clone(map.entry(endpoint.to_string()).or_default())
    }

    /// Record one served request. `trace` (when the tracer is enabled)
    /// becomes the latency bucket's OpenMetrics exemplar.
    pub fn record_request(
        &self,
        endpoint: &str,
        latency: Duration,
        is_error: bool,
        trace: Option<u64>,
    ) {
        self.endpoint(endpoint).record(latency, is_error, trace);
    }

    /// Record a preparation run (cache miss) with its stage timings, under
    /// the degree label it ran with.
    pub fn record_prepare(&self, timings: &StageTimings, degree: usize) {
        let degree = degree_label(degree);
        for (stage, d) in [
            ("match", timings.matching),
            ("transform", timings.transformation),
            ("detect", timings.detection),
        ] {
            self.stage_hists.with(&[stage, degree]).record_duration(d);
        }
    }

    /// Record one fusion execution's wall time under its labels.
    pub fn record_fusion(&self, fusion: Duration, degree: usize) {
        self.stage_hists
            .with(&["fuse", degree_label(degree)])
            .record_duration(fusion);
    }

    /// Count one applied delta batch: its row counts and what it did to
    /// the prepared cache.
    pub fn record_delta(&self, applied: &DeltaCounts, cache: &UpgradeTally) {
        self.deltas_applied.inc();
        self.rows_inserted.add(applied.inserted as u64);
        self.rows_updated.add(applied.updated as u64);
        self.rows_deleted.add(applied.deleted as u64);
        self.cache_upgrades.add(cache.upgraded);
        self.cache_upgrade_failures.add(cache.upgrade_failures);
        self.full_rescores.add(cache.full_rescores);
        self.index_builds.add(cache.index_builds);
    }

    /// Record the time one connection spent in a lifecycle state
    /// (`reading`, `executing`, `writing`, `idle`).
    pub fn record_conn_state(&self, state: &str, spent: Duration) {
        self.conn_state_hists.with(&[state]).record_duration(spent);
    }

    /// Connection-state histograms with their `[state]` labels.
    pub fn conn_state_histograms(&self) -> Vec<(Vec<String>, HistogramSnapshot)> {
        self.conn_state_hists.snapshot()
    }

    /// Per-endpoint `(label, count, errors, latency-histogram)` rows,
    /// sorted by label — the Prometheus exposition's request families.
    pub fn endpoint_histograms(&self) -> Vec<(String, u64, u64, HistogramSnapshot)> {
        let map = self.endpoints.read().unwrap();
        map.iter()
            .map(|(name, stats)| {
                let latency = stats.latency.snapshot();
                let errors = stats.errors.load(Ordering::Relaxed);
                (name.clone(), latency.count(), errors, latency)
            })
            .collect()
    }

    /// Stage latency histograms with their `[stage, degree]` labels, sorted
    /// by label values.
    pub fn stage_histograms(&self) -> Vec<(Vec<String>, HistogramSnapshot)> {
        self.stage_hists.snapshot()
    }
}

/// Static label for a parallelism degree (avoids allocating per record for
/// the common 1–16 range).
fn degree_label(degree: usize) -> &'static str {
    const LABELS: [&str; 17] = [
        "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16",
    ];
    LABELS.get(degree).copied().unwrap_or("many")
}

/// What one exposition family prints under its `# HELP` / `# TYPE` header.
enum Samples<'a> {
    /// One unlabeled sample.
    One(f64),
    /// One sample per label set.
    Each(Vec<(Labels<'a>, f64)>),
    /// One histogram of microsecond samples per label set, printed in
    /// seconds.
    Micros(Vec<(Labels<'a>, &'a HistogramSnapshot)>),
    /// One histogram of raw counts, printed with unscaled bucket bounds.
    Counts(&'a HistogramSnapshot),
}

type Labels<'a> = Vec<(&'static str, &'a str)>;

/// One exposition family: name, help, `# TYPE` kind, samples.
type Family<'a> = (&'a str, &'a str, &'static str, Samples<'a>);

fn counter<'a>(name: &'a str, help: &'a str, value: u64) -> Family<'a> {
    (name, help, "counter", Samples::One(value as f64))
}

fn gauge<'a>(name: &'a str, help: &'a str, value: f64) -> Family<'a> {
    (name, help, "gauge", Samples::One(value))
}

/// Labeled histograms as [`Samples::Micros`], `keys` naming the labels.
fn micros<'a>(keys: &[&'static str], rows: &'a [(Vec<String>, HistogramSnapshot)]) -> Samples<'a> {
    let labels = |values: &'a [String]| keys.iter().copied().zip(values.iter().map(String::as_str));
    Samples::Micros(
        rows.iter()
            .map(|(values, snap)| (labels(values).collect(), snap))
            .collect(),
    )
}

/// The `GET /metrics` response body: the whole registry in Prometheus text
/// exposition format — request counters and latency histograms per
/// endpoint, stage histograms labeled `(stage, degree)`,
/// prepared-cache and delta counters, durable-store gauges (including the
/// WAL fsync latency histogram), intra-query fork totals, and the trace
/// ring's occupancy. Each family is one row of the table below; a
/// `Counter` brings its own name and help.
pub fn metrics_to_prometheus(service: &FusionService) -> String {
    let m = service.metrics();
    let endpoints = m.endpoint_histograms();
    let stages = m.stage_histograms();
    let states = m.conn_state_histograms();
    let cache = service.cache_stats();
    let store = service.store.as_ref().map(|store| {
        let store = store.lock().expect(UNPOISONED);
        let (fsync, batch) = (store.fsync_histogram(), store.batch_histogram());
        (store.stats(), fsync.snapshot(), batch.snapshot())
    });
    let tracer = service.tracer();
    fn by_endpoint(row: &(String, u64, u64, HistogramSnapshot)) -> Labels<'_> {
        vec![("endpoint", row.0.as_str())]
    }
    let metered = |c: &Counter| counter(c.name, c.help, c.get());

    let mut families = vec![
        (
            "hummer_requests_total",
            "Requests served, by endpoint.",
            "counter",
            Samples::Each(
                endpoints
                    .iter()
                    .map(|e| (by_endpoint(e), e.1 as f64))
                    .collect(),
            ),
        ),
        (
            "hummer_request_errors_total",
            "Requests that returned an error status, by endpoint.",
            "counter",
            Samples::Each(
                endpoints
                    .iter()
                    .map(|e| (by_endpoint(e), e.2 as f64))
                    .collect(),
            ),
        ),
        (
            "hummer_request_seconds",
            "End-to-end request latency, by endpoint.",
            "histogram",
            Samples::Micros(endpoints.iter().map(|e| (by_endpoint(e), &e.3)).collect()),
        ),
        (
            "hummer_stage_seconds",
            "Pipeline stage latency, by stage and parallelism degree.",
            "histogram",
            micros(&["stage", "degree"], &stages),
        ),
        (
            "hummer_conn_state_seconds",
            "Time connections spend in each lifecycle state (event loop).",
            "histogram",
            micros(&["state"], &states),
        ),
        metered(&m.overload_rejects),
        metered(&m.read_timeouts),
        metered(&m.idle_reclaims),
        metered(&m.worker_panics),
        metered(&m.event_loop_wakeups),
        counter(
            "hummer_prepared_cache_hits_total",
            "Prepared-pipeline cache hits.",
            cache.hits,
        ),
        counter(
            "hummer_prepared_cache_misses_total",
            "Prepared-pipeline cache misses (cold prepares).",
            cache.misses,
        ),
        counter(
            "hummer_prepared_cache_evictions_total",
            "Prepared-pipeline cache LRU evictions.",
            cache.evictions,
        ),
        metered(&m.cache_upgrades),
        metered(&m.cache_upgrade_failures),
        metered(&m.deltas_applied),
        metered(&m.rows_inserted),
        metered(&m.rows_updated),
        metered(&m.rows_deleted),
        metered(&m.full_rescores),
        metered(&m.index_builds),
        counter(
            "hummer_par_forks_total",
            "Scoped worker threads forked for intra-query parallelism.",
            hummer_par::forked_threads_total(),
        ),
        gauge(
            "hummer_prepared_cache_entries",
            "Prepared-pipeline cache live entries.",
            cache.entries as f64,
        ),
    ];
    if let Some((store, fsync, batch)) = &store {
        families.extend([
            gauge(
                "hummer_store_generation",
                "Live snapshot generation.",
                store.generation as f64,
            ),
            gauge(
                "hummer_store_wal_bytes",
                "Current WAL size in bytes.",
                store.wal_bytes as f64,
            ),
            gauge(
                "hummer_store_wal_records",
                "Records in the current WAL.",
                store.wal_records as f64,
            ),
            counter(
                "hummer_store_snapshots_total",
                "Snapshots written by this process (compactions).",
                store.snapshots_written,
            ),
            gauge(
                "hummer_store_recovery_seconds",
                "Wall time of the most recent open+recover.",
                store.recovery_ms / 1e3,
            ),
            counter(
                "hummer_store_fsyncs_total",
                "WAL commit fsyncs issued.",
                store.fsyncs,
            ),
            counter(
                "hummer_store_group_commits_total",
                "WAL group-commit batches written.",
                store.group_commits,
            ),
            gauge(
                "hummer_store_fsync_enabled",
                "Whether WAL commits fsync (1) or not (0, --no-fsync).",
                if store.fsync { 1.0 } else { 0.0 },
            ),
            (
                "hummer_store_fsync_seconds",
                "WAL commit fsync latency.",
                "histogram",
                Samples::Micros(vec![(vec![], fsync)]),
            ),
            (
                "hummer_store_group_commit_records",
                "Records per WAL group-commit batch.",
                "histogram",
                Samples::Counts(batch),
            ),
        ]);
    }
    families.extend([
        gauge(
            "hummer_trace_spans",
            "Span records currently held in the trace ring.",
            tracer.span_count() as f64,
        ),
        counter(
            "hummer_trace_spans_dropped_total",
            "Span records evicted from the trace ring.",
            tracer.dropped_spans(),
        ),
    ]);

    let mut out = PromText::new();
    for (name, help, kind, samples) in &families {
        out.header(name, help, kind);
        match samples {
            Samples::One(value) => out.sample(name, &[], *value),
            Samples::Each(rows) => {
                for (labels, value) in rows {
                    out.sample(name, labels, *value);
                }
            }
            Samples::Micros(rows) => {
                for (labels, snap) in rows {
                    out.histogram_us(name, labels, snap);
                }
            }
            Samples::Counts(snap) => out.histogram_raw(name, &[], snap),
        }
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_counts_and_percentiles() {
        let m = Metrics::new();
        for i in 1..=100u64 {
            m.record_request(
                "POST /query",
                Duration::from_micros(i * 1000),
                i % 10 == 0,
                Some(i),
            );
        }
        m.record_request("GET /healthz", Duration::from_micros(50), false, None);
        let endpoints = m.endpoint_histograms();
        assert_eq!(endpoints.iter().map(|e| e.1).sum::<u64>(), 101);
        assert_eq!(endpoints.iter().map(|e| e.2).sum::<u64>(), 10);
        let (_, count, _, latency) = endpoints
            .into_iter()
            .find(|(endpoint, ..)| endpoint == "POST /query")
            .unwrap();
        assert_eq!(count, 100);
        let p50_ms = latency.quantile(0.5) as f64 / 1e3;
        let p99_ms = latency.quantile(0.99) as f64 / 1e3;
        assert!((p50_ms - 50.0).abs() < 2.0, "p50 {p50_ms}");
        assert!(p99_ms >= 98.0, "p99 {p99_ms}");
    }

    /// Match 5 ms, transform 2 ms, detect 3 ms.
    fn timings() -> StageTimings {
        StageTimings {
            matching: Duration::from_millis(5),
            transformation: Duration::from_millis(2),
            detection: Duration::from_millis(3),
            fusion: Duration::ZERO,
        }
    }

    #[test]
    fn stage_aggregates_accumulate() {
        let m = Metrics::new();
        let t = timings();
        m.record_prepare(&t, 1);
        m.record_prepare(&t, 1);
        m.record_fusion(Duration::from_millis(1), 1);
        // (count, total µs) per stage: the histogram's `_count` and `_sum`.
        let stage = |name: &str| {
            m.stage_histograms()
                .into_iter()
                .find(|(labels, _)| labels[0] == name)
                .map(|(_, snap)| (snap.count(), snap.sum()))
                .unwrap()
        };
        assert_eq!(stage("match"), (2, 10_000));
        assert_eq!(stage("fuse"), (1, 1_000));
    }

    #[test]
    fn stage_histograms_are_labeled() {
        let m = Metrics::new();
        let t = timings();
        m.record_prepare(&t, 4);
        m.record_fusion(Duration::from_millis(1), 2);
        let hists = m.stage_histograms();
        let labels: Vec<&[String]> = hists.iter().map(|(l, _)| l.as_slice()).collect();
        assert!(labels.contains(&&["detect".to_string(), "4".to_string()][..]));
        assert!(labels.contains(&&["fuse".to_string(), "2".to_string()][..]));
        for (labels, snap) in &hists {
            assert_eq!(snap.count(), 1, "{labels:?}");
        }
    }

    #[test]
    fn delta_aggregates_accumulate() {
        let m = Metrics::new();
        m.record_delta(
            &DeltaCounts {
                inserted: 2,
                updated: 1,
                deleted: 0,
            },
            &UpgradeTally {
                upgraded: 1,
                index_builds: 1,
                ..Default::default()
            },
        );
        m.record_delta(
            &DeltaCounts {
                deleted: 3,
                ..Default::default()
            },
            &UpgradeTally {
                upgraded: 2,
                upgrade_failures: 1,
                full_rescores: 1,
                ..Default::default()
            },
        );
        assert_eq!(m.deltas_applied.get(), 2);
        let rows = [&m.rows_inserted, &m.rows_updated, &m.rows_deleted].map(Counter::get);
        assert_eq!(rows, [2, 1, 3]);
        assert_eq!(m.cache_upgrades.get(), 3);
        assert_eq!(m.cache_upgrade_failures.get(), 1);
        assert_eq!(m.full_rescores.get(), 1);
        assert_eq!(m.index_builds.get(), 1);
    }

    #[test]
    fn serving_counters_accumulate() {
        let m = Metrics::new();
        m.overload_rejects.inc();
        m.overload_rejects.inc();
        m.read_timeouts.inc();
        m.idle_reclaims.inc();
        m.worker_panics.inc();
        m.record_conn_state("reading", Duration::from_micros(150));
        m.record_conn_state("executing", Duration::from_micros(900));
        assert_eq!(m.overload_rejects.get(), 2);
        assert_eq!(m.read_timeouts.get(), 1);
        assert_eq!(m.idle_reclaims.get(), 1);
        assert_eq!(m.worker_panics.get(), 1);
        let hists = m.conn_state_histograms();
        assert_eq!(hists.len(), 2);
        let labels: Vec<&str> = hists.iter().map(|(l, _)| l[0].as_str()).collect();
        assert!(labels.contains(&"reading") && labels.contains(&"executing"));
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let m = Arc::new(Metrics::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        m.record_request("POST /query", Duration::from_micros(i), i % 7 == 0, None);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let endpoints = m.endpoint_histograms();
        assert_eq!(endpoints.len(), 1);
        assert_eq!(endpoints[0].1, 4000);
        assert_eq!(endpoints[0].3.count(), 4000);
    }
}
