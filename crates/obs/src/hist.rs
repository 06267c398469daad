//! Lock-free log-bucketed histograms.
//!
//! Layout: values 0..63 get exact unit buckets; above that, each
//! power-of-two octave `[2^m, 2^(m+1))` is split into 64 equal
//! sub-buckets, so the bucket width is at most `2^(m-6)` and the
//! worst-case relative error of a reported quantile is `1/64 ≈ 1.6%`.
//! The whole table is `59 * 64 = 3776` atomic `u64` buckets (~30 KiB),
//! covering the full `u64` range with no configuration.
//!
//! Recording is one relaxed `fetch_add` per value (plus count/sum/min/max
//! bookkeeping, all relaxed atomics) — no locks, no allocation, safe to
//! share across any number of threads. Reads take a [`HistogramSnapshot`]
//! and answer quantile/mean/cumulative questions from the copy.

use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of the sub-bucket count per octave.
const SUB_BITS: u32 = 6;
/// Sub-buckets per octave (64).
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count: one unit-resolution octave block for 0..64, then
/// 58 more blocks covering octaves 6..=63.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Number of buckets in every [`Histogram`] (3776).
pub fn bucket_count() -> usize {
    BUCKETS
}

/// Bucket index for a recorded value.
///
/// Values below 64 map to exact unit buckets; larger values map to
/// `(m - 5) * 64 + sub` where `m` is the value's highest set bit and
/// `sub` its next six bits.
pub fn bucket_index(value: u64) -> usize {
    if value < SUB {
        value as usize
    } else {
        let m = 63 - value.leading_zeros();
        let sub = (value >> (m - SUB_BITS)) & (SUB - 1);
        ((m - SUB_BITS + 1) as u64 * SUB + sub) as usize
    }
}

/// Inclusive upper edge of a bucket: the largest value that maps to
/// `index`. Quantiles report this edge, so they never under-report.
pub fn bucket_upper_edge(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB {
        index
    } else {
        let block = index >> SUB_BITS; // = m - SUB_BITS + 1 >= 1
        let sub = index & (SUB - 1);
        let m = block + u64::from(SUB_BITS) - 1;
        let width = 1u64 << (m - u64::from(SUB_BITS));
        // Lower edge is (64 + sub) << (m - 6); the bucket spans `width`
        // values. Saturate at u64::MAX for the topmost bucket.
        let lower = (SUB + sub) << (m - u64::from(SUB_BITS));
        lower.saturating_add(width - 1)
    }
}

/// A lock-free histogram of `u64` samples (typically microseconds).
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    /// Exemplar slots: the last trace id recorded into each bucket via
    /// [`Histogram::record_with_trace`] (0 = none). A relaxed store per
    /// sample — last writer wins, which is exactly the exemplar contract.
    exemplars: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        let buckets = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let exemplars = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets,
            exemplars,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample. Lock-free; callable from any thread.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// [`Histogram::record`], additionally remembering `trace` as the
    /// bucket's exemplar so a scrape can link the bucket to a fetchable
    /// trace. Trace id 0 never occurs (ids start at 1), so it doubles as
    /// the empty-slot sentinel.
    pub fn record_with_trace(&self, value: u64, trace: Option<u64>) {
        self.record(value);
        if let Some(t) = trace {
            if t != 0 {
                self.exemplars[bucket_index(value)].store(t, Ordering::Relaxed);
            }
        }
    }

    /// Record a [`std::time::Duration`] in microseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// [`Histogram::record_duration`] with an exemplar trace id.
    pub fn record_duration_with_trace(&self, d: std::time::Duration, trace: Option<u64>) {
        self.record_with_trace(d.as_micros().min(u128::from(u64::MAX)) as u64, trace);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copy the current state for reading. Concurrent recording makes the
    /// copy slightly torn (a racing sample may be missing from some
    /// fields); all derived statistics are still within one in-flight
    /// sample of exact.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let exemplars: Vec<u64> = self
            .exemplars
            .iter()
            .map(|e| e.load(Ordering::Relaxed))
            .collect();
        // Derive the total from the buckets themselves so quantile walks
        // always terminate even if `count` raced ahead of a bucket bump.
        let count = counts.iter().sum();
        HistogramSnapshot {
            counts,
            exemplars,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], with quantile helpers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    exemplars: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no samples.
    pub fn empty() -> Self {
        HistogramSnapshot {
            counts: vec![0; BUCKETS],
            exemplars: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Samples in the snapshot.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`), reported as the upper edge of
    /// the bucket holding the target rank — at most ~1.6% above the true
    /// value, never below it. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank: the smallest value with cumulative frequency
        // >= q * count, with rank at least 1.
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Clamp to the observed max so sparse top buckets don't
                // inflate the tail past anything actually recorded.
                return bucket_upper_edge(idx).min(self.max);
            }
        }
        self.max
    }

    /// Number of samples with value `<=` the given bound, counting whole
    /// buckets: a bucket is included exactly when its upper edge is
    /// `<= bound`. For Prometheus `le` ladders this yields a valid
    /// cumulative histogram (monotone, ending at `count` for `+Inf`).
    pub fn cumulative_le(&self, bound: u64) -> u64 {
        let mut total = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c != 0 && bucket_upper_edge(idx) <= bound {
                total += c;
            }
        }
        total
    }

    /// Merge another snapshot into this one (bucket-wise addition).
    /// Associative and commutative, so per-thread histograms (loadgen's
    /// connections) can be combined in any order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        for (a, &b) in self.exemplars.iter_mut().zip(&other.exemplars) {
            if b != 0 {
                *a = b;
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Per-bucket counts (length [`bucket_count`]).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Whether any bucket holds an exemplar trace id.
    pub fn has_exemplars(&self) -> bool {
        self.exemplars.iter().any(|&t| t != 0)
    }

    /// The exemplar for the value range `(lower, upper]`: the last trace
    /// id recorded into a non-empty bucket whose upper edge lies in the
    /// range, together with that edge as the exemplar's representative
    /// value. Range semantics match the Prometheus `le` ladder, so each
    /// exposition bucket gets an exemplar that actually fell into it.
    pub fn exemplar_between(&self, lower: u64, upper: u64) -> Option<(u64, u64)> {
        let mut best = None;
        for (idx, &t) in self.exemplars.iter().enumerate() {
            if t == 0 || self.counts[idx] == 0 {
                continue;
            }
            let edge = bucket_upper_edge(idx);
            if edge > lower && edge <= upper {
                best = Some((t, edge));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_buckets_are_exact() {
        for v in 0..64u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper_edge(v as usize), v);
        }
    }

    #[test]
    fn edges_are_consistent_with_indexing() {
        // Every bucket's upper edge must map back to the same bucket, and
        // edge+1 must map to the next.
        for idx in 0..BUCKETS - 1 {
            let edge = bucket_upper_edge(idx);
            assert_eq!(bucket_index(edge), idx, "edge {edge} of bucket {idx}");
            assert_eq!(bucket_index(edge + 1), idx + 1);
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantile_error_is_bounded() {
        let h = Histogram::new();
        for v in [1u64, 17, 100, 999, 123_456, 9_999_999] {
            let h = Histogram::new();
            h.record(v);
            let q = h.snapshot().quantile(0.5);
            assert!(q >= v, "quantile {q} under-reports {v}");
            assert!(
                q - v <= v / 32 + 1,
                "quantile {q} off by more than bound for {v}"
            );
        }
        h.record(0);
        assert_eq!(h.snapshot().quantile(0.5), 0);
    }

    #[test]
    fn quantiles_over_uniform_range() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        let p50 = s.quantile(0.5);
        let p99 = s.quantile(0.99);
        assert!((495..=515).contains(&p50), "p50 = {p50}");
        assert!((980..=1000).contains(&p99), "p99 = {p99}");
        assert_eq!(s.quantile(1.0), 1000);
        assert_eq!(s.min(), 1);
        assert_eq!(s.max(), 1000);
    }

    #[test]
    fn cumulative_le_is_monotone_and_complete() {
        let h = Histogram::new();
        for v in [3u64, 70, 70, 5_000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.cumulative_le(0), 0);
        assert_eq!(s.cumulative_le(3), 1);
        let mut prev = 0;
        for bound in [1u64, 10, 100, 1_000, 10_000, 10_000_000] {
            let c = s.cumulative_le(bound);
            assert!(c >= prev);
            prev = c;
        }
        assert_eq!(s.cumulative_le(u64::MAX), 5);
    }

    #[test]
    fn exemplars_remember_last_trace_per_bucket() {
        let h = Histogram::new();
        h.record_with_trace(100, Some(0xa1));
        h.record_with_trace(100, Some(0xa2)); // same bucket: last wins
        h.record_with_trace(1_000_000, Some(0xbb));
        h.record(5_000_000); // no trace: slot untouched
        let s = h.snapshot();
        assert!(s.has_exemplars());
        assert_eq!(s.exemplar_between(0, 200).map(|(t, _)| t), Some(0xa2));
        let (t, v) = s.exemplar_between(200, 2_000_000).unwrap();
        assert_eq!(t, 0xbb);
        assert!((1_000_000..=1_016_000).contains(&v), "edge {v}");
        // The traceless sample's range has no exemplar.
        assert_eq!(s.exemplar_between(2_000_000, u64::MAX), None);
        // record_with_trace(None) behaves like record.
        let h2 = Histogram::new();
        h2.record_with_trace(10, None);
        assert!(!h2.snapshot().has_exemplars());
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
    }
}
