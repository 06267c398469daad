//! The metadata repository: registered sources under aliases.
//!
//! "A metadata repository stores all registered sources of data under an
//! alias. Sources can include tables in a database, flat files, XML files,
//! web services, etc. Since we assume relational data within the system,
//! the metadata repository additionally stores instructions to transform
//! data into its relational form." (paper §3)
//!
//! In this reproduction a source is an in-memory table or a CSV file (the
//! "instruction" is the CSV parse with type inference); the alias and
//! description machinery matches the paper's design. The repository lives
//! in memory; the server's durable catalog is `hummer_server`'s
//! `FusionService::with_store`.

use crate::error::{HummerError, Result};
use hummer_engine::{csv, Table};
use hummer_query::Catalog;
use std::collections::HashMap;
use std::path::Path;

/// Descriptive metadata about a registered source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceInfo {
    /// Alias the source is registered under.
    pub alias: String,
    /// Where the data came from.
    pub origin: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Row count.
    pub rows: usize,
}

/// One registered source.
#[derive(Debug, Clone)]
struct Source {
    table: Table,
    origin: String,
}

/// The repository.
#[derive(Debug, Clone, Default)]
pub struct MetadataRepository {
    /// alias (lowercase) → source.
    sources: HashMap<String, Source>,
}

impl MetadataRepository {
    /// An empty repository.
    pub fn new() -> Self {
        MetadataRepository::default()
    }

    fn insert(&mut self, alias: String, table: Table, origin: &str) -> Result<()> {
        let key = alias.to_ascii_lowercase();
        if self.sources.contains_key(&key) {
            return Err(HummerError::DuplicateSource(alias));
        }
        self.sources.insert(
            key,
            Source {
                table,
                origin: origin.to_string(),
            },
        );
        Ok(())
    }

    /// Register an in-memory table under `alias`. Fails on duplicates.
    pub fn register_table(&mut self, alias: impl Into<String>, mut table: Table) -> Result<()> {
        let alias = alias.into();
        table.set_name(alias.clone());
        self.insert(alias, table, "memory")
    }

    /// Register CSV text under `alias`.
    pub fn register_csv_str(&mut self, alias: impl Into<String>, content: &str) -> Result<()> {
        let alias = alias.into();
        let table = csv::read_csv_str(&alias, content)?;
        self.insert(alias, table, "csv-inline")
    }

    /// Register a CSV file under `alias`. Failures (missing file, parse
    /// error) name the offending path.
    pub fn register_csv_file(
        &mut self,
        alias: impl Into<String>,
        path: impl AsRef<Path>,
    ) -> Result<()> {
        let alias = alias.into();
        let origin = path.as_ref().display().to_string();
        let table = csv::read_csv_file(&alias, path).map_err(|source| HummerError::SourceFile {
            path: origin.clone(),
            source,
        })?;
        self.insert(alias, table, &origin)
    }

    /// Remove a source; returns whether it existed.
    pub fn deregister(&mut self, alias: &str) -> bool {
        self.sources.remove(&alias.to_ascii_lowercase()).is_some()
    }

    /// Look up a source table.
    pub fn get(&self, alias: &str) -> Result<&Table> {
        self.sources
            .get(&alias.to_ascii_lowercase())
            .map(|s| &s.table)
            .ok_or_else(|| HummerError::UnknownSource(alias.to_string()))
    }

    /// All registered sources, sorted by alias.
    pub fn list(&self) -> Vec<SourceInfo> {
        let mut out: Vec<SourceInfo> = self
            .sources
            .values()
            .map(|s| SourceInfo {
                alias: s.table.name().to_string(),
                origin: s.origin.clone(),
                columns: s
                    .table
                    .schema()
                    .names()
                    .iter()
                    .map(|n| n.to_string())
                    .collect(),
                rows: s.table.len(),
            })
            .collect();
        out.sort_by(|a, b| a.alias.cmp(&b.alias));
        out
    }

    /// Number of registered sources.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }
}

impl Catalog for MetadataRepository {
    fn table(&self, alias: &str) -> Option<&Table> {
        self.sources
            .get(&alias.to_ascii_lowercase())
            .map(|s| &s.table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hummer_engine::table;

    #[test]
    fn register_and_lookup() {
        let mut r = MetadataRepository::new();
        r.register_table("Students", table! { "X" => ["a"]; [1] })
            .unwrap();
        let t = r.get("students").unwrap();
        assert_eq!(t.name(), "Students"); // renamed to the alias
        assert!(r.get("nope").is_err());
    }

    #[test]
    fn duplicate_alias_rejected() {
        let mut r = MetadataRepository::new();
        r.register_table("A", table! { "A" => ["x"]; [1] }).unwrap();
        assert!(matches!(
            r.register_table("a", table! { "A" => ["x"]; [2] }),
            Err(HummerError::DuplicateSource(_))
        ));
    }

    #[test]
    fn csv_registration_with_inference() {
        let mut r = MetadataRepository::new();
        r.register_csv_str("Shop", "Artist,Price\nQueen,9.99\n")
            .unwrap();
        let t = r.get("Shop").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.schema().names(), vec!["Artist", "Price"]);
    }

    #[test]
    fn csv_file_errors_name_the_path() {
        let mut r = MetadataRepository::new();
        let missing = "/definitely/not/here/data.csv";
        let e = r.register_csv_file("Ghost", missing).unwrap_err();
        assert!(
            e.to_string().contains(missing),
            "error must carry the path: {e}"
        );
        assert!(matches!(e, HummerError::SourceFile { .. }));
    }

    #[test]
    fn list_is_sorted_and_descriptive() {
        let mut r = MetadataRepository::new();
        r.register_table("Zeta", table! { "Z" => ["x"]; [1] })
            .unwrap();
        r.register_table("Alpha", table! { "A" => ["y", "z"]; [1, 2] })
            .unwrap();
        let infos = r.list();
        assert_eq!(infos.len(), 2);
        assert_eq!(infos[0].alias, "Alpha");
        assert_eq!(infos[0].columns, vec!["y", "z"]);
        assert_eq!(infos[1].rows, 1);
    }

    #[test]
    fn deregister() {
        let mut r = MetadataRepository::new();
        r.register_table("A", table! { "A" => ["x"]; [1] }).unwrap();
        assert!(r.deregister("a"));
        assert!(!r.deregister("a"));
        assert!(r.is_empty());
    }

    #[test]
    fn catalog_impl() {
        let mut r = MetadataRepository::new();
        r.register_table("T", table! { "T" => ["x"]; [1] }).unwrap();
        assert!(Catalog::table(&r, "t").is_some());
        assert!(Catalog::table(&r, "zz").is_none());
    }
}
