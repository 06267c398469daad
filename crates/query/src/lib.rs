//! # hummer-query — the Fuse By SQL dialect
//!
//! HumMer "provides a subset of SQL as a query language, which consists of
//! Select-Project-Join queries, and allows sorting, grouping, and
//! aggregation. In addition, we specifically support the Fuse By statement"
//! (paper §2.1, Fig. 1). This crate is the textual front end:
//!
//! * [`lexer`] — tokenizer (contextual keywords, quoted identifiers,
//!   `--` comments),
//! * [`ast`] — the parsed statement,
//! * [`parser`] — recursive descent over Fig. 1's grammar plus the SQL
//!   subset (`WHERE`, `GROUP BY`, `HAVING`, `ORDER BY`, aggregates),
//! * [`exec`] — execution against a [`catalog::Catalog`]: `FUSE FROM`
//!   becomes a `sourceID`-tagged full outer union, `FUSE BY` drives the
//!   fusion operator with the `RESOLVE` specifications, and plain queries
//!   run as ordinary SPJ/grouping plans.
//!
//! ## Example
//!
//! ```
//! use hummer_engine::table;
//! use hummer_query::{run_query, TableSet};
//! use hummer_fusion::FunctionRegistry;
//!
//! let mut catalog = TableSet::new();
//! catalog.add(table! { "EE_Student"  => ["Name", "Age"]; ["Alice", 22], ["Bob", 24] });
//! catalog.add(table! { "CS_Students" => ["Name", "Age"]; ["Alice", 23] });
//!
//! // The paper's running example (§2.1):
//! let out = run_query(
//!     "SELECT Name, RESOLVE(Age, max) FUSE FROM EE_Student, CS_Students FUSE BY (Name)",
//!     &catalog,
//!     &FunctionRegistry::standard(),
//! ).unwrap();
//! assert_eq!(out.table.len(), 2); // one tuple per student
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod catalog;
pub mod error;
pub mod exec;
pub mod lexer;
pub mod parser;

pub use ast::{FromClause, FuseQuery, OrderKey, SelectItem};
pub use catalog::{Catalog, TableSet, VersionedTable, VersionedTableSet};
pub use error::{QueryError, Result};
pub use exec::{execute, execute_combined, run_query, FusionInfo, QueryOutput};
// Former name of `execute_combined`, kept only because `hbench/` still
// calls it.
#[doc(hidden)]
pub use exec::execute_combined as execute_combined_par;
pub use hummer_fusion::Parallelism;
pub use parser::parse;
