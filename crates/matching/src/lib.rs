//! # hummer-matching — DUMAS instance-based schema matching
//!
//! Implements the first automated phase of HumMer (paper §2.2): bridging
//! schematic heterogeneity *without* relying on attribute labels, by
//! exploiting the duplicates the dirty sources are assumed to contain:
//!
//! 1. [`dumas`] *sniffs* a few duplicate tuples across two unaligned tables
//!    by ranking tuple pairs with TF-IDF cosine over the tuple-as-one-string
//!    rendering,
//! 2. [`matcher`] compares each duplicate pair field-wise with SoftTFIDF,
//!    averages the per-pair [`matrix::SimilarityMatrix`]s,
//! 3. [`hungarian`] computes the maximum-weight bipartite matching over the
//!    averaged matrix, yielding 1:1 [`correspondence::Correspondence`]s,
//!    pruned by threshold,
//! 4. [`transform`] renames matched attributes to the preferred schema,
//!    adds the `sourceID` column, and computes the full outer union.
//!
//! The expensive comparisons parallelize: [`match_star`] scores sniff
//! candidates and per-duplicate matrices on up to [`Parallelism::get`]
//! threads with output bit-identical at every degree.
//!
//! ## Example
//!
//! ```
//! use hummer_engine::table;
//! use hummer_matching::{match_tables, MatcherConfig, SniffConfig};
//!
//! let ee = table! {
//!     "EE_Student" => ["Name", "Age"];
//!     ["John Smith", 24],
//!     ["Mary Jones", 22],
//!     ["Pete Miller", 27],
//! };
//! let cs = table! {
//!     "CS_Students" => ["FullName", "Years"];
//!     ["John Smith", 24],
//!     ["Mary Jones", 22],
//! };
//! let cfg = MatcherConfig {
//!     sniff: SniffConfig { min_similarity: 0.2, ..Default::default() },
//!     ..Default::default()
//! };
//! let result = match_tables(&ee, &cs, &cfg);
//! let renames = result.rename_map();
//! assert_eq!(renames.get("FullName").unwrap(), "Name");
//! assert_eq!(renames.get("Years").unwrap(), "Age");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod correspondence;
pub mod dumas;
pub mod hungarian;
mod index;
pub mod matcher;
pub mod matrix;
mod tokens;
pub mod transform;

pub use correspondence::{Correspondence, MatchResult};
pub use dumas::{sniff_duplicates, SniffConfig, SniffStats, TupleMatch};
pub use hummer_par::Parallelism;
pub use hungarian::{max_weight_matching, Assignment};
pub use index::{MatchDeltaStats, MatchIndex};
pub use matcher::{match_star, match_tables, MatcherConfig};
// Former names of `match_star` and `sniff_duplicates`, kept only because
// `hbench/` still calls them.
#[doc(hidden)]
pub use dumas::sniff_duplicates as sniff_duplicates_par;
#[doc(hidden)]
pub use matcher::match_star as match_star_par;
pub use matrix::SimilarityMatrix;
pub use transform::{add_source_id, apply_renames, integrate, integrate_with_layout};
