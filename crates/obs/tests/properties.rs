//! Property tests for the observability substrate: histogram bucketing
//! error bounds, merge associativity, lock-free concurrent recording, and
//! span-tree assembly under eviction.

use hummer_obs::{bucket_index, bucket_upper_edge, Histogram, HistogramSnapshot, Tracer};
use proptest::prelude::*;

proptest! {
    /// Every recorded value's reported quantile stays within the bucket
    /// error bound: never below the true value, never more than ~1.6%
    /// (1/32 + 1 slack here) above it.
    #[test]
    fn quantile_within_bucket_error_bound(value in 0u64..u64::MAX / 2) {
        let h = Histogram::new();
        h.record(value);
        let q = h.snapshot().quantile(0.5);
        prop_assert!(q >= value, "quantile {} under-reports {}", q, value);
        prop_assert!(
            q - value <= value / 32 + 1,
            "quantile {} exceeds error bound for {}",
            q,
            value
        );
    }

    /// The bucket a value maps to must contain it: the value is at most
    /// the bucket's upper edge, and above the previous bucket's edge.
    #[test]
    fn bucket_index_and_edges_agree(value in proptest::collection::vec(0u64..u64::MAX, 1..8)) {
        for v in value {
            let idx = bucket_index(v);
            prop_assert!(v <= bucket_upper_edge(idx));
            if idx > 0 {
                prop_assert!(v > bucket_upper_edge(idx - 1));
            }
        }
    }

    /// Merging snapshots is associative: (a + b) + c == a + (b + c),
    /// including derived quantiles.
    #[test]
    fn merge_is_associative(
        a in proptest::collection::vec(0u64..10_000_000, 0..40),
        b in proptest::collection::vec(0u64..10_000_000, 0..40),
        c in proptest::collection::vec(0u64..10_000_000, 0..40),
    ) {
        let snap = |vals: &[u64]| {
            let h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h.snapshot()
        };
        let (sa, sb, sc) = (snap(&a), snap(&b), snap(&c));

        let mut left: HistogramSnapshot = sa.clone();
        left.merge(&sb);
        left.merge(&sc);

        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);

        prop_assert_eq!(&left, &right);
        prop_assert_eq!(left.count(), (a.len() + b.len() + c.len()) as u64);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(left.quantile(q), right.quantile(q));
        }
    }

    /// Span trees nest correctly for arbitrary fan-outs: every recorded
    /// child appears under its parent, ordered by start offset.
    #[test]
    fn span_tree_assembly_preserves_nesting(fanout in 1usize..6, depth in 1usize..4) {
        let tracer = Tracer::with_capacity(4096);
        fn grow(span: &hummer_obs::Span, fanout: usize, depth: usize) {
            if depth == 0 {
                return;
            }
            for i in 0..fanout {
                let mut child = span.child(format!("d{depth}-c{i}"));
                child.count("i", i as u64);
                grow(&child, fanout, depth - 1);
            }
        }
        let trace_id;
        {
            let root = tracer.trace("root");
            trace_id = root.trace_id().unwrap();
            grow(&root, fanout, depth);
        }
        let expected: usize = (0..=depth).map(|d| fanout.pow(d as u32)).sum();
        let tree = tracer.trace_tree(trace_id).unwrap();
        prop_assert_eq!(tree.roots.len(), 1);
        prop_assert_eq!(tree.orphans, 0);
        prop_assert_eq!(tree.span_count(), expected);
        // Depth-first check: children sorted by start, nested under the
        // span that created them.
        fn check(node: &hummer_obs::TraceNode) -> proptest::TestCaseResult {
            let mut prev = 0;
            for child in &node.children {
                prop_assert!(child.record.parent == Some(node.record.id));
                prop_assert!(child.record.start_us >= node.record.start_us);
                prop_assert!(child.record.start_us >= prev);
                prev = child.record.start_us;
                check(child)?;
            }
            Ok(())
        }
        check(&tree.roots[0])?;
    }

    /// Ring eviction keeps exactly `capacity` newest spans and counts the
    /// evicted ones.
    #[test]
    fn ring_eviction_is_bounded_and_counted(capacity in 1usize..10, extra in 0usize..20) {
        let tracer = Tracer::with_capacity(capacity);
        let total = capacity + extra;
        {
            let root = tracer.trace("root");
            for i in 0..total.saturating_sub(1) {
                drop(root.child(format!("c{i}")));
            }
        }
        prop_assert_eq!(tracer.span_count(), total.min(capacity));
        prop_assert_eq!(tracer.dropped_spans() as usize, total.saturating_sub(capacity));
    }
}

/// Concurrent recording from N threads loses no counts: the histogram's
/// total and per-bucket sums equal the number of records issued.
#[test]
fn concurrent_recording_loses_no_counts() {
    use std::sync::Arc;

    const THREADS: usize = 8;
    const PER_THREAD: usize = 20_000;

    let hist = Arc::new(Histogram::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let hist = Arc::clone(&hist);
            std::thread::spawn(move || {
                // Deterministic per-thread value stream spanning many octaves.
                let mut x = (t as u64 + 1) * 2_654_435_761;
                for _ in 0..PER_THREAD {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    hist.record(x >> (x % 50));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = hist.snapshot();
    let expected = (THREADS * PER_THREAD) as u64;
    assert_eq!(snap.count(), expected);
    assert_eq!(snap.bucket_counts().iter().sum::<u64>(), expected);
    assert!(snap.quantile(1.0) >= snap.quantile(0.5));
}

/// Ring eviction under concurrent writers: the ring is FIFO, so each
/// writer's *retained* spans are exactly a suffix of what it pushed
/// (oldest-first eviction, per writer), and the dropped counter is exact —
/// `total - capacity`, nothing lost or double-counted under contention.
#[test]
fn concurrent_eviction_is_oldest_first_and_exactly_counted() {
    use std::sync::Arc;

    const THREADS: usize = 8;
    const PER_THREAD: usize = 400;
    const CAPACITY: usize = 64;

    let tracer = Arc::new(Tracer::with_capacity(CAPACITY));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let tracer = Arc::clone(&tracer);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let root = tracer.trace("w");
                    let mut span = root.child("s");
                    span.count("t", t as u64);
                    span.count("i", i as u64);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let total = (THREADS * PER_THREAD * 2) as u64; // root + child per iteration
    assert_eq!(tracer.span_count(), CAPACITY);
    assert_eq!(tracer.dropped_spans(), total - CAPACITY as u64);

    // Oldest-first per writer: because each thread pushes its "s" spans in
    // increasing `i` order and eviction pops the front, the `i` values that
    // survive for one thread must be strictly increasing AND contiguous up
    // to that thread's last span — a suffix, never a gap.
    let retained = tracer.drain();
    let mut by_thread: [Vec<u64>; THREADS] = Default::default();
    for r in &retained {
        if r.name != "s" {
            continue;
        }
        let get = |key: &str| {
            r.counters
                .iter()
                .find(|(n, _)| n == key)
                .map(|(_, v)| *v)
                .unwrap()
        };
        by_thread[get("t") as usize].push(get("i"));
    }
    for (t, is) in by_thread.iter().enumerate() {
        for pair in is.windows(2) {
            assert_eq!(
                pair[1],
                pair[0] + 1,
                "thread {t} retained a non-suffix (gapped) span set: {is:?}"
            );
        }
        if let Some(&last) = is.last() {
            assert_eq!(
                last,
                (PER_THREAD - 1) as u64,
                "thread {t}'s newest span was evicted before older ones: {is:?}"
            );
        }
    }
}

/// Concurrent tracing from N threads: every thread's spans land in the
/// ring (capacity is ample), and each trace assembles into its own tree.
#[test]
fn concurrent_tracing_keeps_traces_separate() {
    use std::sync::Arc;

    const THREADS: usize = 8;
    const SPANS: usize = 50;

    let tracer = Arc::new(Tracer::with_capacity(THREADS * (SPANS + 1)));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let tracer = Arc::clone(&tracer);
            std::thread::spawn(move || {
                let root = tracer.trace("root");
                let id = root.trace_id().unwrap();
                for i in 0..SPANS {
                    let mut c = root.child("work");
                    c.count("i", i as u64);
                }
                id
            })
        })
        .collect();
    let ids: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(tracer.span_count(), THREADS * (SPANS + 1));
    for id in ids {
        let tree = tracer.trace_tree(id).unwrap();
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.span_count(), SPANS + 1);
    }
}
