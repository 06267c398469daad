//! Table catalogs: where the executor finds relations by alias.

use hummer_engine::Table;
use std::collections::HashMap;
use std::sync::Arc;

/// Anything that can supply tables by alias (the metadata repository in
/// `hummer-core` implements this; tests use [`TableSet`]).
pub trait Catalog {
    /// Look up a table under a (case-insensitive) alias.
    fn table(&self, alias: &str) -> Option<&Table>;
}

/// A table paired with a monotonically increasing content version.
///
/// Concurrent readers (a fusion service's worker threads) snapshot the
/// `Arc`-ed tables cheaply; the version participates in cache keys so any
/// re-registration invalidates prepared artifacts derived from the old
/// contents.
#[derive(Debug, Clone)]
pub struct VersionedTable {
    /// The table (shared, immutable).
    pub table: Arc<Table>,
    /// Content version: bumped on every (re-)registration.
    pub version: u64,
}

/// A catalog of [`VersionedTable`]s — the shareable, concurrent-reader
/// counterpart of [`TableSet`].
#[derive(Debug, Clone, Default)]
pub struct VersionedTableSet {
    tables: HashMap<String, VersionedTable>,
    next_version: u64,
}

impl VersionedTableSet {
    /// An empty versioned catalog.
    pub fn new() -> Self {
        VersionedTableSet::default()
    }

    /// Register (or replace) a table under `alias`, bumping the version.
    /// Returns the version assigned to this registration.
    pub fn register(&mut self, alias: impl Into<String>, mut table: Table) -> u64 {
        let alias = alias.into();
        table.set_name(alias.clone());
        self.next_version += 1;
        let version = self.next_version;
        self.tables.insert(
            alias.to_ascii_lowercase(),
            VersionedTable {
                table: Arc::new(table),
                version,
            },
        );
        version
    }

    /// Re-register a table at an explicit version (crash recovery). The
    /// version clock advances past every restored version, so registrations
    /// after a restart never collide with pre-crash versions — prepared
    /// artifacts cached under `(alias, version)` keys stay meaningful.
    pub fn restore(&mut self, alias: impl Into<String>, mut table: Table, version: u64) {
        let alias = alias.into();
        table.set_name(alias.clone());
        self.next_version = self.next_version.max(version);
        self.tables.insert(
            alias.to_ascii_lowercase(),
            VersionedTable {
                table: Arc::new(table),
                version,
            },
        );
    }

    /// The version the next [`VersionedTableSet::register`] will assign.
    /// Lets a write-ahead logger record the version *before* committing the
    /// registration.
    pub fn upcoming_version(&self) -> u64 {
        self.next_version + 1
    }

    /// Advance the version clock to at least `version` without registering
    /// anything. Crash recovery calls this with the highest version the log
    /// ever assigned — which can exceed every *surviving* table's version
    /// when the newest table was deregistered before the crash — so
    /// post-restart registrations never reuse a pre-crash version.
    pub fn advance_version_clock(&mut self, version: u64) {
        self.next_version = self.next_version.max(version);
    }

    /// Look up a table together with its version.
    pub fn get(&self, alias: &str) -> Option<&VersionedTable> {
        self.tables.get(&alias.to_ascii_lowercase())
    }

    /// Remove a table; returns whether it existed.
    pub fn remove(&mut self, alias: &str) -> bool {
        self.tables.remove(&alias.to_ascii_lowercase()).is_some()
    }

    /// Registered entries sorted by table name.
    pub fn entries(&self) -> Vec<&VersionedTable> {
        let mut v: Vec<&VersionedTable> = self.tables.values().collect();
        v.sort_by(|a, b| a.table.name().cmp(b.table.name()));
        v
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

impl Catalog for VersionedTableSet {
    fn table(&self, alias: &str) -> Option<&Table> {
        self.get(alias).map(|v| v.table.as_ref())
    }
}

/// A simple in-memory catalog.
#[derive(Debug, Clone, Default)]
pub struct TableSet {
    tables: HashMap<String, Table>,
}

impl TableSet {
    /// An empty catalog.
    pub fn new() -> Self {
        TableSet::default()
    }

    /// Register a table under its own name.
    pub fn add(&mut self, table: Table) -> &mut Self {
        self.tables.insert(table.name().to_ascii_lowercase(), table);
        self
    }

    /// Register a table under an explicit alias.
    pub fn add_as(&mut self, alias: impl Into<String>, mut table: Table) -> &mut Self {
        let alias = alias.into();
        table.set_name(alias.clone());
        self.tables.insert(alias.to_ascii_lowercase(), table);
        self
    }

    /// Registered aliases, sorted.
    pub fn aliases(&self) -> Vec<&str> {
        let mut a: Vec<&str> = self.tables.values().map(|t| t.name()).collect();
        a.sort_unstable();
        a
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

impl Catalog for TableSet {
    fn table(&self, alias: &str) -> Option<&Table> {
        self.tables.get(&alias.to_ascii_lowercase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hummer_engine::table;

    #[test]
    fn add_and_lookup_case_insensitive() {
        let mut c = TableSet::new();
        c.add(table! { "Students" => ["x"]; [1] });
        assert!(c.table("students").is_some());
        assert!(c.table("STUDENTS").is_some());
        assert!(c.table("nope").is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn add_as_renames() {
        let mut c = TableSet::new();
        c.add_as("alias1", table! { "Orig" => ["x"]; [1] });
        let t = c.table("Alias1").unwrap();
        assert_eq!(t.name(), "alias1");
        assert_eq!(c.aliases(), vec!["alias1"]);
    }

    #[test]
    fn versioned_set_bumps_on_replace() {
        let mut v = VersionedTableSet::new();
        let v1 = v.register("T", table! { "X" => ["a"]; [1] });
        let v2 = v.register("t", table! { "X" => ["a"]; [2] });
        assert!(v2 > v1);
        assert_eq!(v.len(), 1);
        let entry = v.get("T").unwrap();
        assert_eq!(entry.version, v2);
        assert_eq!(entry.table.name(), "t");
        assert!(Catalog::table(&v, "T").is_some());
        assert!(v.remove("T"));
        assert!(v.is_empty());
    }

    #[test]
    fn restore_keeps_versions_and_clock() {
        let mut v = VersionedTableSet::new();
        v.restore("B", table! { "X" => ["a"]; [1] }, 7);
        v.restore("A", table! { "X" => ["a"]; [2] }, 3);
        assert_eq!(v.get("b").unwrap().version, 7);
        assert_eq!(v.get("A").unwrap().version, 3);
        assert_eq!(v.get("a").unwrap().table.name(), "A");
        // The clock resumes past the highest restored version.
        assert_eq!(v.upcoming_version(), 8);
        let assigned = v.register("C", table! { "X" => ["a"]; [3] });
        assert_eq!(assigned, 8);
        assert_eq!(v.upcoming_version(), 9);
        // An explicit clock advance (recovery of a deleted-table version)
        // moves forward, never backward.
        v.advance_version_clock(20);
        assert_eq!(v.upcoming_version(), 21);
        v.advance_version_clock(5);
        assert_eq!(v.upcoming_version(), 21);
    }

    #[test]
    fn versioned_entries_sorted() {
        let mut v = VersionedTableSet::new();
        v.register("b", table! { "X" => ["a"]; [1] });
        v.register("a", table! { "X" => ["a"]; [1] });
        let names: Vec<&str> = v.entries().iter().map(|e| e.table.name()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
