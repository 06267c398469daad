//! # hummer-fusion — conflict resolution and data fusion
//!
//! The third phase of HumMer and its least-commoditized contribution (paper
//! §2.4): merging each duplicate cluster into "a single, consistent, and
//! clean representation" while resolving contradictions between sources.
//!
//! * [`context`] — the *query context* handed to resolution functions: not
//!   just the conflicting values but the full tuples, companion columns,
//!   source ids, and table/column metadata;
//! * [`functions`] — the paper's function catalog: `CHOOSE(source)`,
//!   `COALESCE`, `FIRST`/`LAST`, `VOTE`, `GROUP`, (annotated) `CONCAT`,
//!   `SHORTEST`/`LONGEST`, `MOST RECENT`, and the SQL aggregates
//!   `MIN`/`MAX`/`SUM`/`AVG`/`MEDIAN`/`COUNT`;
//! * [`registry`] — name → function resolution with user extensibility;
//! * [`mod@fuse`] — the fusion operator: group by the object key, resolve each
//!   column, collect conflict samples;
//! * [`lineage`] — per-cell provenance (the demo's color-coding: "one color
//!   per source relation, mixed colors for merged values").
//!
//! Duplicate clusters are disjoint, so [`FusionSpec::with_parallelism`]
//! lets [`fuse()`] resolve them on several threads; results merge in
//! first-appearance order and are bit-identical at every degree.
//!
//! ## Example
//!
//! ```
//! use hummer_engine::table;
//! use hummer_fusion::{fuse, FusionSpec, FunctionRegistry, ResolutionSpec};
//!
//! // SELECT Name, RESOLVE(Age, max) FUSE FROM ... FUSE BY (Name)
//! let students = table! {
//!     "Students" => ["Name", "Age"];
//!     ["Alice", 22],
//!     ["Alice", 23],
//!     ["Bob", 24],
//! };
//! let spec = FusionSpec::by_key(vec!["Name"])
//!     .resolve("Age", ResolutionSpec::named("max"));
//! let fused = fuse(&students, &spec, &FunctionRegistry::standard()).unwrap();
//! assert_eq!(fused.table.len(), 2); // one tuple per student
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod context;
pub mod error;
pub mod functions;
pub mod fuse;
pub mod lineage;
#[cfg(test)]
mod reference;
pub mod registry;

pub use context::ConflictContext;
pub use error::FusionError;
pub use functions::{
    ByLength, Choose, Coalesce, Concat, Contributors, First, Group, Last, MostRecent,
    NumericAggregate, ResolutionFunction, Resolved, TieBreak, Vote,
};
pub use fuse::{fuse, FusedTable, FusionSpec, SampleConflict};
pub use hummer_par::Parallelism;
pub use lineage::{CellLineage, Lineage};
pub use registry::{FunctionRegistry, ResolutionSpec};
