//! Per-query tracing: trace IDs, nested stage spans, and a bounded ring
//! of completed span records with query-time tree assembly.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A completed span, as stored in the tracer's ring buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace: u64,
    /// Span id, unique within the tracer.
    pub id: u64,
    /// Parent span id; `None` for a trace root.
    pub parent: Option<u64>,
    /// Stage name, e.g. `"detect"`.
    pub name: Cow<'static, str>,
    /// Start offset from the trace root's start, in microseconds.
    pub start_us: u64,
    /// Wall-clock duration, in microseconds.
    pub duration_us: u64,
    /// Counters attached while the span was live, in attachment order.
    pub counters: Vec<(Cow<'static, str>, u64)>,
}

#[derive(Debug)]
struct Ring {
    records: VecDeque<SpanRecord>,
    capacity: usize,
    dropped: u64,
}

#[derive(Debug)]
struct Shared {
    next_id: AtomicU64,
    ring: Mutex<Ring>,
}

/// Destination for spans. Cloning is cheap (an `Arc`); the default tracer
/// is disabled and makes every span a no-op.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    shared: Option<Arc<Shared>>,
}

impl Tracer {
    /// A disabled tracer: spans skip clock reads, allocation, and locking.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// An enabled tracer whose ring retains the most recent `capacity`
    /// completed spans (oldest evicted first).
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            shared: Some(Arc::new(Shared {
                next_id: AtomicU64::new(1),
                ring: Mutex::new(Ring {
                    records: VecDeque::new(),
                    capacity: capacity.max(1),
                    dropped: 0,
                }),
            })),
        }
    }

    /// Whether spans from this tracer record anything.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Start a new trace; the returned root span carries a fresh trace id.
    pub fn trace(&self, name: impl Into<Cow<'static, str>>) -> Span {
        match &self.shared {
            None => Span { inner: None },
            Some(shared) => {
                let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
                let now = Instant::now();
                Span {
                    inner: Some(SpanInner {
                        shared: Arc::clone(shared),
                        trace: id,
                        id,
                        parent: None,
                        name: name.into(),
                        epoch: now,
                        start: now,
                        counters: Vec::new(),
                    }),
                }
            }
        }
    }

    /// Allocate a bare trace id without creating a span — for tagging
    /// requests that are rejected before any span-producing work runs
    /// (admission 503s, read-timeout 408s). Returns `None` when disabled.
    pub fn allocate_trace_id(&self) -> Option<u64> {
        self.shared
            .as_ref()
            .map(|s| s.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Take every retained record out of the ring, oldest first — how a
    /// caller with a private tracer harvests the spans of one run.
    pub fn drain(&self) -> Vec<SpanRecord> {
        match &self.shared {
            None => Vec::new(),
            Some(shared) => {
                let mut ring = shared.ring.lock().expect("obs ring poisoned");
                ring.records.drain(..).collect()
            }
        }
    }

    /// Completed spans currently retained in the ring.
    pub fn span_count(&self) -> usize {
        match &self.shared {
            None => 0,
            Some(shared) => shared.ring.lock().expect("obs ring poisoned").records.len(),
        }
    }

    /// Spans evicted from the ring since the tracer was created.
    pub fn dropped_spans(&self) -> u64 {
        match &self.shared {
            None => 0,
            Some(shared) => shared.ring.lock().expect("obs ring poisoned").dropped,
        }
    }

    /// All retained records for one trace, in completion order.
    pub fn trace_spans(&self, trace: u64) -> Vec<SpanRecord> {
        match &self.shared {
            None => Vec::new(),
            Some(shared) => shared
                .ring
                .lock()
                .expect("obs ring poisoned")
                .records
                .iter()
                .filter(|r| r.trace == trace)
                .cloned()
                .collect(),
        }
    }

    /// Assemble the span tree for one trace, or `None` if no spans for it
    /// remain in the ring. Children are ordered by start offset. Spans
    /// whose parent was evicted ("orphans") surface as extra roots so
    /// partial traces stay inspectable.
    pub fn trace_tree(&self, trace: u64) -> Option<TraceTree> {
        let records = self.trace_spans(trace);
        if records.is_empty() {
            return None;
        }
        let present: std::collections::HashSet<u64> = records.iter().map(|r| r.id).collect();
        let mut children: std::collections::HashMap<u64, Vec<SpanRecord>> =
            std::collections::HashMap::new();
        let mut roots = Vec::new();
        let mut orphans = 0usize;
        for r in records {
            match r.parent {
                Some(p) if present.contains(&p) => children.entry(p).or_default().push(r),
                Some(_) => {
                    orphans += 1;
                    roots.push(r);
                }
                None => roots.push(r),
            }
        }
        fn build(
            record: SpanRecord,
            children: &mut std::collections::HashMap<u64, Vec<SpanRecord>>,
        ) -> TraceNode {
            let mut kids = children.remove(&record.id).unwrap_or_default();
            kids.sort_by_key(|r| (r.start_us, r.id));
            TraceNode {
                record,
                children: kids.into_iter().map(|r| build(r, children)).collect(),
            }
        }
        roots.sort_by_key(|r| (r.start_us, r.id));
        let roots = roots.into_iter().map(|r| build(r, &mut children)).collect();
        Some(TraceTree {
            trace,
            roots,
            orphans,
        })
    }

    /// Trace ids of the most recently completed root spans, newest first,
    /// up to `limit`.
    pub fn recent_traces(&self, limit: usize) -> Vec<u64> {
        match &self.shared {
            None => Vec::new(),
            Some(shared) => {
                let ring = shared.ring.lock().expect("obs ring poisoned");
                let mut out = Vec::new();
                for r in ring.records.iter().rev() {
                    if r.parent.is_none() && !out.contains(&r.trace) {
                        out.push(r.trace);
                        if out.len() == limit {
                            break;
                        }
                    }
                }
                out
            }
        }
    }
}

#[derive(Debug)]
struct SpanInner {
    shared: Arc<Shared>,
    trace: u64,
    id: u64,
    parent: Option<u64>,
    name: Cow<'static, str>,
    /// Start instant of the trace root, for computing start offsets.
    epoch: Instant,
    start: Instant,
    counters: Vec<(Cow<'static, str>, u64)>,
}

/// An in-flight span: measures from construction to drop, then pushes one
/// [`SpanRecord`] into its tracer's ring. Create nested stage spans with
/// [`Span::child`]; attach counters with [`Span::count`].
#[derive(Debug)]
pub struct Span {
    inner: Option<SpanInner>,
}

impl Default for Span {
    fn default() -> Self {
        Span::noop()
    }
}

impl Span {
    /// A span that records nothing — the unit for untraced call sites.
    pub fn noop() -> Span {
        Span { inner: None }
    }

    /// Whether this span will record on drop.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// The owning trace id, or `None` for a no-op span.
    pub fn trace_id(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.trace)
    }

    /// Start a child span. On a no-op span this is free and returns
    /// another no-op.
    pub fn child(&self, name: impl Into<Cow<'static, str>>) -> Span {
        match &self.inner {
            None => Span { inner: None },
            Some(inner) => Span {
                inner: Some(SpanInner {
                    shared: Arc::clone(&inner.shared),
                    trace: inner.trace,
                    id: inner.shared.next_id.fetch_add(1, Ordering::Relaxed),
                    parent: Some(inner.id),
                    name: name.into(),
                    epoch: inner.epoch,
                    start: Instant::now(),
                    counters: Vec::new(),
                }),
            },
        }
    }

    /// Add `value` to the named counter on this span (counters with the
    /// same name accumulate). No-op on a disabled span.
    pub fn count(&mut self, name: impl Into<Cow<'static, str>>, value: u64) {
        if let Some(inner) = &mut self.inner {
            let name = name.into();
            match inner.counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, v)) => *v += value,
                None => inner.counters.push((name, value)),
            }
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let end = Instant::now();
            let record = SpanRecord {
                trace: inner.trace,
                id: inner.id,
                parent: inner.parent,
                name: inner.name,
                start_us: duration_us(inner.start.saturating_duration_since(inner.epoch)),
                duration_us: duration_us(end.saturating_duration_since(inner.start)),
                counters: inner.counters,
            };
            // Mutex held only for the push/evict — a handful of pointer
            // moves, ~10 times per traced query.
            if let Ok(mut ring) = inner.shared.ring.lock() {
                if ring.records.len() == ring.capacity {
                    ring.records.pop_front();
                    ring.dropped += 1;
                }
                ring.records.push_back(record);
            }
        }
    }
}

fn duration_us(d: std::time::Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// One node of an assembled trace tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceNode {
    /// The completed span at this node.
    pub record: SpanRecord,
    /// Child spans, ordered by start offset.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// Total number of spans in this subtree.
    pub fn span_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(TraceNode::span_count)
            .sum::<usize>()
    }
}

/// The assembled span tree of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceTree {
    /// The trace id.
    pub trace: u64,
    /// Root spans: normally one (the request span), plus any orphans
    /// whose parents were evicted from the ring.
    pub roots: Vec<TraceNode>,
    /// Number of retained spans whose parent record was evicted.
    pub orphans: usize,
}

impl TraceTree {
    /// Total number of spans in the tree.
    pub fn span_count(&self) -> usize {
        self.roots.iter().map(TraceNode::span_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_spans_are_noops() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let mut root = tracer.trace("query");
        assert!(!root.is_recording());
        assert_eq!(root.trace_id(), None);
        root.count("x", 1);
        let child = root.child("stage");
        assert!(!child.is_recording());
        drop(child);
        drop(root);
        assert_eq!(tracer.span_count(), 0);
        assert_eq!(tracer.allocate_trace_id(), None);
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn spans_nest_and_assemble() {
        let tracer = Tracer::with_capacity(64);
        let trace_id;
        {
            let mut root = tracer.trace("query");
            trace_id = root.trace_id().unwrap();
            {
                let mut a = root.child("prepare");
                {
                    let mut m = a.child("match");
                    m.count("tables", 3);
                    m.count("tables", 2);
                }
                let _d = a.child("detect");
                a.count("rows", 10);
            }
            root.count("status", 200);
        }
        let tree = tracer.trace_tree(trace_id).expect("trace present");
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.orphans, 0);
        assert_eq!(tree.span_count(), 4);
        let root = &tree.roots[0];
        assert_eq!(root.record.name, "query");
        assert_eq!(root.children.len(), 1);
        let prepare = &root.children[0];
        assert_eq!(prepare.record.name, "prepare");
        let names: Vec<_> = prepare
            .children
            .iter()
            .map(|c| c.record.name.clone())
            .collect();
        assert_eq!(names, ["match", "detect"]);
        assert_eq!(prepare.children[0].record.counters, [("tables".into(), 5)]);
        // Children start no earlier than their parent.
        assert!(prepare.children[0].record.start_us >= prepare.record.start_us);
    }

    #[test]
    fn ring_evicts_oldest_and_reports_orphans() {
        let tracer = Tracer::with_capacity(2);
        let trace_id;
        {
            let root = tracer.trace("query");
            trace_id = root.trace_id().unwrap();
            drop(root.child("a"));
            drop(root.child("b"));
            drop(root.child("c"));
        }
        // Capacity 2: "a" and "b" evicted; "c" and the root survive.
        assert_eq!(tracer.span_count(), 2);
        assert_eq!(tracer.dropped_spans(), 2);
        let tree = tracer.trace_tree(trace_id).expect("trace present");
        assert_eq!(tree.span_count(), 2);
        assert_eq!(tree.orphans, 0);
        // Evict the root too: the remaining child becomes an orphan root.
        {
            let other = tracer.trace("other");
            drop(other.child("x"));
            drop(other.child("y"));
        }
        match tracer.trace_tree(trace_id) {
            None => {}
            Some(t) => assert_eq!(t.orphans, t.roots.len()),
        }
    }

    #[test]
    fn recent_traces_returns_roots_newest_first() {
        let tracer = Tracer::with_capacity(16);
        let a = {
            let s = tracer.trace("a");
            s.trace_id().unwrap()
        };
        let b = {
            let s = tracer.trace("b");
            s.trace_id().unwrap()
        };
        assert_eq!(tracer.recent_traces(10), vec![b, a]);
        assert_eq!(tracer.recent_traces(1), vec![b]);
    }
}
