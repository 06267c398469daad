//! # hummer-engine — the relational substrate of HumMer
//!
//! An in-memory relational algebra standing in for the Java XXL library
//! ("an extensible library for building database management systems",
//! van den Bercken et al., VLDB 2001) that the original HumMer demo was
//! built on. It supplies everything the fusion pipeline needs:
//!
//! * dynamically typed [`value::Value`]s with SQL `NULL` semantics,
//! * [`schema::Schema`] / [`table::Table`] with arity and name invariants,
//! * scalar [`expr::Expr`]essions with three-valued logic (`WHERE`/`HAVING`),
//! * materialized operators in [`ops`]: selection, projection, joins
//!   (nested-loop, hash, cross), **full outer union** (the basis of
//!   `FUSE FROM`), sorting, grouping with SQL aggregates, limit,
//! * CSV ingestion/serialization in [`csv`],
//! * the bit-exact binary codec in [`codec`] (the byte layer under the
//!   durable catalog store).
//!
//! ## Example
//!
//! ```
//! use hummer_engine::{table, ops, expr::Expr};
//!
//! let ee = table! {
//!     "EE_Student" => ["Name", "Age"];
//!     ["Alice", 22],
//!     ["Bob", 24],
//! };
//! let cs = table! {
//!     "CS_Students" => ["Name", "Semester"];
//!     ["Alice", 5],
//! };
//! // FUSE FROM combines tables by outer union, not cross product:
//! let u = ops::outer_union(&[&ee, &cs], "Students").unwrap();
//! assert_eq!(u.schema().names(), vec!["Name", "Age", "Semester"]);
//! assert_eq!(u.len(), 3);
//! let adults = ops::select(&u, &Expr::col("Age").gt(Expr::lit(21))).unwrap();
//! assert_eq!(adults.len(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod csv;
pub mod error;
pub mod expr;
pub mod ops;
pub mod row;
pub mod schema;
pub mod table;
pub mod value;

pub use error::EngineError;
pub use expr::Expr;
pub use row::{IntoValue, Row};
pub use schema::{Column, ColumnType, Schema};
pub use table::Table;
pub use value::{Date, Value};

/// Engine-wide result alias.
pub type Result<T> = std::result::Result<T, EngineError>;

/// Name of the provenance column the transformation adds to every source
/// before the outer union. It stores the source alias and is what
/// `CHOOSE(source)` and the lineage color-coding are built on.
pub const SOURCE_ID_COLUMN: &str = "sourceID";

/// Name of the cluster column duplicate detection appends: "the output of
/// duplicate detection is the same as the input relation, but enriched by
/// an objectID column for identification" (paper §2.3).
pub const OBJECT_ID_COLUMN: &str = "objectID";

/// The pipeline's bookkeeping columns: detection never compares them,
/// fusion never counts their differences as data conflicts (`sourceID`
/// differs by construction whenever sources merge, `objectID` is the
/// grouping key itself), and `*` in a fusion query leaves them out.
pub const BOOKKEEPING_COLUMNS: [&str; 2] = [SOURCE_ID_COLUMN, OBJECT_ID_COLUMN];
