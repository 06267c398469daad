//! The prepared-pipeline cache — the server's key performance piece.
//!
//! Preparation (DUMAS schema matching, the renamed outer-union transform,
//! and duplicate detection's `objectID` annotation) dominates the cost of a
//! fusion query and depends only on the *source tables*, not on the query's
//! select list, predicates, or resolution functions. So the cache keys on
//! the ordered source-table set together with each table's content version:
//! any repeat query over the same sources skips straight to fusion + query
//! execution.
//!
//! The cache holds only current pipelines, and compares no versions to
//! keep it so: the service admits an entry only while every version in its
//! key is current, and the commit that changes a table takes every entry
//! naming it out with [`PreparedCache::take`] (see `FusionService::commit`
//! in [`crate::catalog`]). What is left to the cache is LRU over a fixed
//! capacity. Entries are `Arc`-shared so a hit hands out the artifacts
//! without copying tables under the lock.
//!
//! Beside its artifacts an entry may hold their [`DeltaIndex`] — the match
//! and detection indexes that carry the artifacts across a delta. A cold
//! prepare stores none (queries never need one); the first delta upgrade
//! of the entry builds it, and every upgrade *moves* it from the superseded
//! entry to the upgraded one.

use hummer_core::{DeltaIndex, PreparedSources};
use std::collections::HashMap;
use std::sync::Arc;

/// Cache key: the query-ordered `(alias lowercase, content version)` list.
/// Order matters — the first source donates the preferred schema.
pub type PreparedKey = Vec<(String, u64)>;

/// Hit/miss counters (monotone; snapshot via [`PreparedCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to respect capacity.
    pub evictions: u64,
    /// Current entry count.
    pub entries: usize,
}

#[derive(Debug)]
struct Entry {
    artifacts: Arc<PreparedSources>,
    index: Option<DeltaIndex>,
    last_used: u64,
}

/// An entry taken out of the cache: its key, its artifacts, and its delta
/// index when it has one.
pub type Taken = (PreparedKey, Arc<PreparedSources>, Option<DeltaIndex>);

/// An LRU map from source-set keys to prepared artifacts.
#[derive(Debug)]
pub struct PreparedCache {
    entries: HashMap<PreparedKey, Entry>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PreparedCache {
    /// A cache holding at most `capacity` prepared source sets (minimum 1).
    pub fn new(capacity: usize) -> Self {
        PreparedCache {
            entries: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up prepared artifacts, refreshing recency on a hit.
    pub fn get(&mut self, key: &PreparedKey) -> Option<Arc<PreparedSources>> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits += 1;
                Some(Arc::clone(&entry.artifacts))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert artifacts (and their delta index, if known) under `key`,
    /// replacing what the key held and evicting the least-recently-used
    /// entry beyond capacity.
    pub fn insert(
        &mut self,
        key: PreparedKey,
        artifacts: Arc<PreparedSources>,
        index: Option<DeltaIndex>,
    ) {
        self.tick += 1;
        self.entries.insert(
            key,
            Entry {
                artifacts,
                index,
                last_used: self.tick,
            },
        );
        if self.entries.len() > self.capacity {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
                self.evictions += 1;
            }
        }
    }

    /// Take every entry whose key names source `alias` (lowercase) out of
    /// the cache, delta indexes included: what a commit that changes the
    /// table does. Not an eviction; no counter but `entries` moves.
    pub fn take(&mut self, alias: &str) -> Vec<Taken> {
        self.entries
            .extract_if(|key, _| key.iter().any(|(name, _)| name == alias))
            .map(|(key, entry)| (key, entry.artifacts, entry.index))
            .collect()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hummer_core::{prepare_tables, HummerConfig, RowMapping, Span};
    use hummer_engine::{table, Table};

    fn table() -> Table {
        table! { "A" => ["Name", "City"]; ["John Smith", "Berlin"], ["Mary Jones", "Hamburg"] }
    }

    fn artifacts() -> Arc<PreparedSources> {
        Arc::new(prepare_tables(&[&table()], &HummerConfig::default()).unwrap())
    }

    fn key(parts: &[(&str, u64)]) -> PreparedKey {
        parts.iter().map(|(n, v)| (n.to_string(), *v)).collect()
    }

    #[test]
    fn miss_then_hit() {
        let mut c = PreparedCache::new(4);
        let k = key(&[("a", 1), ("b", 1)]);
        assert!(c.get(&k).is_none());
        c.insert(k.clone(), artifacts(), None);
        assert!(c.get(&k).is_some());
        // Another version of the same sources is another key.
        assert!(c.get(&key(&[("a", 1), ("b", 2)])).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 1));
    }

    #[test]
    fn order_is_significant() {
        // (a, b) and (b, a) prepare different preferred schemas.
        let mut c = PreparedCache::new(4);
        c.insert(key(&[("a", 1), ("b", 1)]), artifacts(), None);
        assert!(c.get(&key(&[("b", 1), ("a", 1)])).is_none());
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut c = PreparedCache::new(2);
        c.insert(key(&[("a", 1)]), artifacts(), None);
        c.insert(key(&[("b", 1)]), artifacts(), None);
        assert!(c.get(&key(&[("a", 1)])).is_some()); // refresh a
        c.insert(key(&[("c", 1)]), artifacts(), None); // evicts b
        assert!(c.get(&key(&[("a", 1)])).is_some());
        assert!(c.get(&key(&[("b", 1)])).is_none());
        assert!(c.get(&key(&[("c", 1)])).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn take_removes_every_entry_naming_the_alias() {
        let mut c = PreparedCache::new(4);
        c.insert(key(&[("a", 1), ("b", 2)]), artifacts(), None);
        c.insert(key(&[("b", 2)]), artifacts(), None);
        let prepared = artifacts();
        // An empty delta builds the index of the artifacts it returns.
        let mut index = None;
        let (upgraded, _) = prepared
            .apply_delta_traced(
                &[&table()],
                &RowMapping::identity(2),
                &HummerConfig::default(),
                &mut index,
                &Span::noop(),
            )
            .unwrap();
        c.insert(key(&[("c", 3)]), Arc::new(upgraded), index);
        assert_eq!(c.take("b").len(), 2);
        assert!(c.take("b").is_empty(), "taken, not copied");
        assert_eq!(c.stats().entries, 1);
        // The index leaves with its entry.
        let taken = c.take("c");
        assert!(taken.len() == 1 && taken[0].2.is_some());
        // No recency refresh, no eviction counted.
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.entries), (0, 0, 0, 0));
    }
}
