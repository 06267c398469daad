//! # hummer-delta — delta ingestion
//!
//! HumMer serves *autonomous, evolving* sources; this crate describes how
//! one of them changed. Instead of re-running matching and duplicate
//! detection when a source changes, a delta flows through these layers,
//! each bit-identical to a from-scratch recompute over the updated data:
//!
//! * [`model`] — the [`TableDelta`] change model (insert / update / delete
//!   of rows, stable pre-delta addressing) and its application to a table,
//!   producing the [`RowMapping`] every downstream layer consumes;
//! * [`codec`] — the binary encode/decode of a batch, which doubles as the
//!   durable store's write-ahead-log record payload;
//! * [`mapping`] — lifting per-source mappings into the integrated
//!   (outer-union) row space with [`concat_mappings`];
//! * duplicate detection — `hummer_dupdetect::detect_delta` re-scores only
//!   pairs touching dirty rows and clusters the carried and re-scored
//!   pairs with the detector's one clustering function (re-scoring runs
//!   the detector's one block kernel over the same `TupleSimilarity`,
//!   keeping carry-over bit-compatible).
//!
//! Fusion is not maintained: like any query, a `FUSE BY` after a delta
//! resolves the upgraded annotated union from scratch.
//!
//! The pipeline-level entry point is `hummer_core`'s
//! `PreparedSources::apply_delta`, and the serving layer upgrades its
//! prepared-pipeline cache entries through `POST /tables/{name}/delta` —
//! see `ARCHITECTURE.md` ("The delta subsystem") for the dataflow.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod mapping;
pub mod model;

pub use codec::{decode_delta, encode_delta};
pub use hummer_dupdetect::{DeltaDetectionStats, RowMapping};
pub use mapping::concat_mappings;
pub use model::{DeltaCounts, DeltaError, DeltaOp, TableDelta};
