//! # HumMer — automatic data fusion
//!
//! A Rust reproduction of *"Automatic Data Fusion with HumMer"* (Bilke,
//! Bleiholder, Böhm, Draba, Naumann, Weis — VLDB 2005): ad-hoc, declarative
//! fusion of heterogeneous, dirty, duplicate-ridden data through three
//! fully automatic steps — instance-based schema matching (DUMAS),
//! duplicate detection (DogmatiX mapped to relations), and conflict
//! resolution via the Fuse By SQL extension.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`engine`] | relational substrate (XXL stand-in): tables, expressions, full outer union |
//! | [`textsim`] | Levenshtein, Jaro-Winkler, TF-IDF, SoftTFIDF, soft IDF |
//! | [`matching`] | DUMAS schema matching + Hungarian algorithm + transformation |
//! | [`dupdetect`] | duplicate detection: measure, filter, blocking, transitive closure |
//! | [`fusion`] | conflict-resolution functions, fusion operator, lineage |
//! | [`delta`] | delta ingestion: the `TableDelta` change model, its WAL codec, row mappings |
//! | [`store`] | durable catalog: checksummed snapshots + delta WAL, crash recovery, compaction |
//! | [`query`] | the Fuse By SQL dialect (Fig. 1): parser + executor |
//! | [`datagen`] | synthetic dirty worlds with gold standards + metrics |
//! | [`core`](mod@core) | repository + automatic pipeline + six-step wizard |
//! | [`server`] | HumMer as a service: multi-threaded HTTP fusion queries + prepared-pipeline cache |
//!
//! ## Quickstart
//!
//! ```
//! use hummer::core::{Hummer, ResolutionSpec};
//! use hummer::engine::table;
//!
//! let mut hummer = Hummer::new();
//! hummer.repository_mut().register_table("EE_Student", table! {
//!     "EE_Student" => ["Name", "Age"];
//!     ["John Smith", 24],
//!     ["Mary Jones", 22],
//! }).unwrap();
//! hummer.repository_mut().register_table("CS_Students", table! {
//!     "CS_Students" => ["FullName", "Years"];
//!     ["John Smith", 25],
//! }).unwrap();
//!
//! // The paper's query, against heterogeneous unaligned sources:
//! let out = hummer.query(
//!     "SELECT Name, RESOLVE(Age, max) FUSE FROM EE_Student, CS_Students FUSE BY (Name)"
//! ).unwrap();
//! assert_eq!(out.table.len(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use hummer_core as core;
pub use hummer_datagen as datagen;
pub use hummer_delta as delta;
pub use hummer_dupdetect as dupdetect;
pub use hummer_engine as engine;
pub use hummer_fusion as fusion;
pub use hummer_matching as matching;
pub use hummer_obs as obs;
pub use hummer_query as query;
pub use hummer_server as server;
pub use hummer_store as store;
pub use hummer_textsim as textsim;
