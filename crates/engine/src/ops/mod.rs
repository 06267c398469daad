//! Relational-algebra operators over [`Table`](crate::table::Table)s.
//!
//! This module is the stand-in for the XXL query-engine library the original
//! HumMer was built on: it supplies exactly the algebra the paper's pipeline
//! needs — "table fetches, joins, unions, and groupings" (§3) — plus the
//! **full outer union** that `FUSE FROM` is defined by.
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
pub use misc::{distinct, limit, project, project_named, rename_column};
pub use setops::{outer_union, outer_union_pair, union_all, union_distinct};
pub use sort::{sort, SortKey};
