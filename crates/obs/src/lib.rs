//! Observability substrate for HumMer: tracing spans, lock-free
//! histograms, and Prometheus text exposition.
//!
//! The crate is std-only and dependency-free, like the rest of the
//! workspace. Three pieces compose:
//!
//! - [`Histogram`]: a lock-free log-bucketed latency histogram. Recording
//!   is a single relaxed `fetch_add` into an atomic bucket; quantiles are
//!   read from a consistent-enough snapshot with a bounded ~1.6% relative
//!   error (64 sub-buckets per power-of-two octave).
//! - [`Tracer`] / [`Span`]: per-query trace IDs with nested stage spans.
//!   A span is an RAII guard — it measures from construction to drop and
//!   pushes one flat [`SpanRecord`] into a bounded ring buffer. Trees are
//!   assembled at query time ([`Tracer::trace_tree`]), never on the hot
//!   path. A disabled tracer (the default) costs one `Option` branch per
//!   span and performs no clock reads, no allocation, and no locking.
//! - [`PromText`]: a small writer for the Prometheus text exposition
//!   format (`counter` / `gauge` / `histogram` families with labels).
//!
//! # Overhead contract
//!
//! The pipeline instruments *stage boundaries*, not inner loops: a traced
//! query records on the order of ten spans, and counters are harvested
//! from statistics the stages already maintain. Tracing never changes an
//! answer (`tests/parallel_equivalence.rs::tracing_does_not_perturb_the_answer`
//! holds the fused output bit-identical); what it costs is hbench's
//! `obs.trace_overhead_share`.
//!
//! ```
//! use hummer_obs::{Histogram, Tracer};
//!
//! let tracer = Tracer::with_capacity(1024);
//! let trace_id;
//! {
//!     let root = tracer.trace("query");
//!     trace_id = root.trace_id().unwrap();
//!     let mut detect = root.child("detect");
//!     detect.count("candidates", 42);
//! } // spans record on drop
//! let tree = tracer.trace_tree(trace_id).unwrap();
//! assert_eq!(tree.roots[0].record.name, "query");
//! assert_eq!(tree.roots[0].children[0].record.name, "detect");
//!
//! let hist = Histogram::new();
//! hist.record(1500);
//! assert!(hist.snapshot().quantile(0.5) >= 1500);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod prom;
mod span;
mod vecs;

pub use hist::{bucket_count, bucket_index, bucket_upper_edge, Histogram, HistogramSnapshot};
pub use prom::PromText;
pub use span::{Span, SpanRecord, TraceNode, TraceTree, Tracer};
pub use vecs::{Counter, CounterVec, HistogramVec};

/// Observability knob carried on `HummerConfig`.
///
/// The default is fully disabled: spans become no-ops that skip even the
/// clock read, so library users pay nothing unless they opt in.
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {
    /// Destination for spans produced by pipeline stages. Disabled by
    /// default; share one enabled tracer between the server and the
    /// pipeline so request spans and stage spans land in the same ring.
    pub tracer: Tracer,
}

impl ObsConfig {
    /// An enabled configuration whose span ring holds `capacity` records.
    pub fn enabled(capacity: usize) -> Self {
        ObsConfig {
            tracer: Tracer::with_capacity(capacity),
        }
    }
}
