//! # hummer-core — the HumMer system
//!
//! The one-stop data-fusion pipeline of *"Automatic Data Fusion with
//! HumMer"* (Bilke et al., VLDB 2005): given a set of heterogeneous, dirty,
//! duplicate-containing sources, produce a single clean and consistent
//! table in three fully automatic steps — instance-based **schema
//! matching**, **duplicate detection**, and **conflict resolution** — with
//! every intermediate result inspectable and adjustable.
//!
//! * [`repository`] — the metadata repository of registered sources,
//! * [`pipeline`] — [`Hummer`]: the automatic pipeline and the Fuse By SQL
//!   interface,
//! * [`wizard`] — the six-step interactive flow of the demo (Fig. 2) as a
//!   phase-checked API.
//!
//! The pipeline's hot stages (matching, detection, fusion) can run on
//! several threads: set [`HummerConfig::parallelism`] (see
//! [`Parallelism`]). Results are bit-identical at every degree — the knob
//! only changes latency. See `ARCHITECTURE.md` for the dataflow and the
//! parallel execution layer.
//!
//! ## Example
//!
//! ```
//! use hummer_core::{Hummer, ResolutionSpec};
//! use hummer_engine::table;
//!
//! let mut hummer = Hummer::new();
//! // Tiny two-column sources carry little evidence mass; lower the
//! // duplicate threshold accordingly (wizard step 3's knob).
//! hummer.config_mut().detector.threshold = 0.6;
//! hummer.config_mut().detector.unsure_threshold = 0.5;
//!
//! hummer.repository_mut().register_table("EE_Student", table! {
//!     "EE_Student" => ["Name", "Age"];
//!     ["John Smith", 24],
//!     ["Mary Jones", 22],
//! }).unwrap();
//! hummer.repository_mut().register_table("CS_Students", table! {
//!     "CS_Students" => ["FullName", "Years"]; // heterogeneous labels
//!     ["John Smith", 25],
//! }).unwrap();
//!
//! // Fully automatic: match schemas, detect duplicates, fuse conflicts.
//! let out = hummer.fuse_sources(
//!     &["EE_Student", "CS_Students"],
//!     &[("Age".to_string(), ResolutionSpec::named("max"))],
//! ).unwrap();
//! assert_eq!(out.result.len(), 2); // John fused across sources
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod pipeline;
pub mod repository;
pub mod wizard;

pub use error::{HummerError, Result};
pub use pipeline::{
    fuse_prepared, fuse_prepared_traced, prepare_tables, prepare_tables_traced, DeltaIndex,
    DeltaReport, Hummer, HummerConfig, PipelineOutcome, PreparedSources, StageTimings,
};
pub use repository::{MetadataRepository, SourceInfo};
pub use wizard::{Wizard, WizardPhase};

// Re-export the component crates so downstream users need only hummer-core.
pub use hummer_dupdetect as dupdetect;
pub use hummer_engine as engine;
pub use hummer_fusion as fusion;
pub use hummer_matching as matching;
pub use hummer_obs as obs;
pub use hummer_query as query;
pub use hummer_textsim as textsim;

// The most-used types, at the top level.
pub use hummer_dupdetect::{DetectionIndex, DetectionResult, DetectorConfig, RowMapping};
pub use hummer_fusion::Parallelism;
pub use hummer_fusion::{FunctionRegistry, ResolutionSpec};
pub use hummer_matching::{MatcherConfig, SniffConfig};
pub use hummer_obs::{ObsConfig, Span, Tracer};
pub use hummer_query::QueryOutput;
