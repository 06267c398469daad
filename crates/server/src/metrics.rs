//! Request metrics: counts, and request and pipeline-stage latency
//! histograms.
//!
//! One [`Metrics`] lives in the shared service. The hot recording paths —
//! request latencies and stage latencies — go through `hummer_obs`'s
//! lock-free log-bucketed [`Histogram`]s (one relaxed `fetch_add` per
//! sample, ~1.6% worst-case quantile error), so worker threads never
//! contend at loadgen concurrency. The endpoint label map sits behind an
//! `RwLock` taken for reading only; the rarely-touched per-delta
//! aggregate keeps a plain mutex.
//!
//! `GET /metrics` renders the registry as Prometheus text (see
//! `service::metrics_to_prometheus`).

use hummer_core::StageTimings;
use hummer_obs::{Histogram, HistogramSnapshot, HistogramVec};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Per-endpoint counters and the latency histogram (microsecond samples).
#[derive(Debug, Default)]
pub struct EndpointStats {
    count: AtomicU64,
    errors: AtomicU64,
    latency: Histogram,
}

impl EndpointStats {
    fn record(&self, latency: Duration, is_error: bool, trace: Option<u64>) {
        self.count.fetch_add(1, Ordering::Relaxed);
        if is_error {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        // The trace id becomes the bucket's exemplar: a slow `/metrics`
        // bucket links directly to a fetchable `GET /trace/{id}`.
        self.latency.record_duration_with_trace(latency, trace);
    }
}

/// Cumulative delta-ingestion counters (`POST /tables/{name}/delta`).
#[derive(Debug, Clone, Copy, Default)]
pub struct DeltaAggregate {
    /// Delta batches applied.
    pub deltas: u64,
    /// Rows inserted across all deltas.
    pub rows_inserted: u64,
    /// Rows updated across all deltas.
    pub rows_updated: u64,
    /// Rows deleted across all deltas.
    pub rows_deleted: u64,
    /// Prepared-cache entries *upgraded* in place (not invalidated).
    pub cache_upgrades: u64,
    /// Upgrade attempts that failed (entry dropped, next query re-prepares).
    pub cache_upgrade_failures: u64,
    /// Upgrades that degraded to a full rescore (quantization boundary,
    /// attribute-selection change, changed union schema).
    pub full_rescores: u64,
    /// Detection indexes built from prepared artifacts by upgrades (the
    /// first upgrade of an entry builds one; later upgrades carry it).
    pub index_builds: u64,
}

/// Serving-path (event loop / worker pool) health counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServingSnapshot {
    /// Connections refused with 503 because the live-connection cap was hit.
    pub overload_rejects: u64,
    /// Connections closed with 408 because a started request stalled past
    /// the read deadline.
    pub read_timeouts: u64,
    /// Idle keep-alive connections reclaimed silently.
    pub idle_reclaims: u64,
    /// Requests whose handler panicked (answered 500, connection closed).
    pub worker_panics: u64,
    /// Returns of event-loop workers from their readiness wait. An idle
    /// server wakes a few times a second per worker; a count that climbs
    /// by hundreds a second without traffic means a worker is spinning.
    pub event_loop_wakeups: u64,
}

/// A point-in-time view of the registry's counters (request and stage
/// latencies are histograms: [`Metrics::endpoint_histograms`],
/// [`Metrics::stage_histograms`]).
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Delta-ingestion aggregates.
    pub deltas: DeltaAggregate,
    /// Serving-path health counters.
    pub serving: ServingSnapshot,
}

/// Thread-safe metrics registry. Recording latencies is lock-free after
/// the first request per endpoint label.
#[derive(Debug, Default)]
pub struct Metrics {
    endpoints: RwLock<BTreeMap<String, Arc<EndpointStats>>>,
    /// Stage latency histograms, labeled `[stage, degree]`.
    stage_hists: HistogramVec,
    /// Per-connection time spent in each lifecycle state (`reading`,
    /// `executing`, `writing`, `idle`), labeled `[state]`; microseconds.
    conn_state_hists: HistogramVec,
    deltas: Mutex<DeltaAggregate>,
    overload_rejects: AtomicU64,
    read_timeouts: AtomicU64,
    idle_reclaims: AtomicU64,
    worker_panics: AtomicU64,
    event_loop_wakeups: AtomicU64,
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

    /// Record one applied delta batch and its cache-upgrade outcome; every
    /// count of `batch` but `deltas` (one batch, counted here) is added.
    pub fn record_delta(&self, batch: &DeltaAggregate) {
        let mut deltas = self.deltas.lock().unwrap();
        deltas.deltas += 1;
        deltas.rows_inserted += batch.rows_inserted;
        deltas.rows_updated += batch.rows_updated;
        deltas.rows_deleted += batch.rows_deleted;
        deltas.cache_upgrades += batch.cache_upgrades;
        deltas.cache_upgrade_failures += batch.cache_upgrade_failures;
        deltas.full_rescores += batch.full_rescores;
        deltas.index_builds += batch.index_builds;
    }

    /// Record the time one connection spent in a lifecycle state
    /// (`reading`, `executing`, `writing`, `idle`).
    pub fn record_conn_state(&self, state: &str, spent: Duration) {
        self.conn_state_hists.with(&[state]).record_duration(spent);
    }

    /// Count a connection refused with 503 at the admission gate.
    pub fn record_overload_reject(&self) {
        self.overload_rejects.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a started request that stalled past the read deadline (408).
    pub fn record_read_timeout(&self) {
        self.read_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Count an idle keep-alive connection reclaimed silently.
    pub fn record_idle_reclaim(&self) {
        self.idle_reclaims.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a request whose handler panicked (500 + close).
    pub fn record_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one return of an event-loop worker from its readiness wait.
    pub fn record_event_loop_wakeup(&self) {
        self.event_loop_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Serving-path counters only (cheaper than a full [`Metrics::snapshot`]).
    pub fn serving_snapshot(&self) -> ServingSnapshot {
        ServingSnapshot {
            overload_rejects: self.overload_rejects.load(Ordering::Relaxed),
            read_timeouts: self.read_timeouts.load(Ordering::Relaxed),
            idle_reclaims: self.idle_reclaims.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            event_loop_wakeups: self.event_loop_wakeups.load(Ordering::Relaxed),
        }
    }

    /// Snapshot all counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            deltas: *self.deltas.lock().unwrap(),
            serving: self.serving_snapshot(),
        }
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
                (
                    name.clone(),
                    stats.count.load(Ordering::Relaxed),
                    stats.errors.load(Ordering::Relaxed),
                    stats.latency.snapshot(),
                )
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

    #[test]
    fn stage_aggregates_accumulate() {
        let m = Metrics::new();
        let t = StageTimings {
            matching: Duration::from_millis(5),
            transformation: Duration::from_millis(2),
            detection: Duration::from_millis(3),
            fusion: Duration::ZERO,
        };
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
        let t = StageTimings {
            matching: Duration::from_millis(5),
            transformation: Duration::from_millis(2),
            detection: Duration::from_millis(3),
            fusion: Duration::ZERO,
        };
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
        m.record_delta(&DeltaAggregate {
            rows_inserted: 2,
            rows_updated: 1,
            cache_upgrades: 1,
            index_builds: 1,
            ..Default::default()
        });
        m.record_delta(&DeltaAggregate {
            rows_deleted: 3,
            cache_upgrades: 2,
            cache_upgrade_failures: 1,
            full_rescores: 1,
            ..Default::default()
        });
        let d = m.snapshot().deltas;
        assert_eq!(d.deltas, 2);
        assert_eq!((d.rows_inserted, d.rows_updated, d.rows_deleted), (2, 1, 3));
        assert_eq!(d.cache_upgrades, 3);
        assert_eq!(d.cache_upgrade_failures, 1);
        assert_eq!(d.full_rescores, 1);
        assert_eq!(d.index_builds, 1);
    }

    #[test]
    fn serving_counters_accumulate() {
        let m = Metrics::new();
        m.record_overload_reject();
        m.record_overload_reject();
        m.record_read_timeout();
        m.record_idle_reclaim();
        m.record_worker_panic();
        m.record_conn_state("reading", Duration::from_micros(150));
        m.record_conn_state("executing", Duration::from_micros(900));
        let s = m.snapshot().serving;
        assert_eq!(s.overload_rejects, 2);
        assert_eq!(s.read_timeouts, 1);
        assert_eq!(s.idle_reclaims, 1);
        assert_eq!(s.worker_panics, 1);
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
