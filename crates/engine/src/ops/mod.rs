//! Relational-algebra operators over [`Table`](crate::table::Table)s.
//!
//! This module is the stand-in for the XXL query-engine library the original
//! HumMer was built on: it supplies the algebra the paper's pipeline needs —
//! "table fetches, joins, unions, and groupings" (§3), where the one union
//! is the **full outer union** that `FUSE FROM` is defined by.
//!
//! Operators are materialized: they consume `&Table` and produce a new
//! `Table`.

mod filter;
mod group;
mod join;
mod misc;
mod setops;
mod sort;

pub use filter::select;
pub use group::{group_by, AggFunc, Aggregate};
pub use join::{cross_product, hash_join, nested_loop_join, JoinKind};
pub use misc::{limit, project, rename_column};
pub use setops::outer_union;
pub use sort::{sort, SortKey};
