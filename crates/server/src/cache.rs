//! The prepared-pipeline cache — the server's key performance piece.
//!
//! Preparation (DUMAS schema matching, the renamed outer-union transform,
//! and duplicate detection's `objectID` annotation) dominates the cost of a
//! fusion query and depends only on the *source tables*, not on the query's
//! select list, predicates, or resolution functions. So the cache keys on
//! the ordered source-table set together with each table's content version:
//! any repeat query over the same sources skips straight to fusion + query
//! execution, and any re-upload changes a version and misses naturally.
//!
//! Eviction is LRU over a fixed capacity. Entries are `Arc`-shared so a hit
//! hands out the artifacts without copying tables under the lock.
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
    /// Lookups that found nothing (or only a stale version).
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

/// An entry a delta can upgrade: its key, its artifacts, and its delta
/// index when it has one (taken out of the cache, not copied).
pub type Upgradable = (PreparedKey, Arc<PreparedSources>, Option<DeltaIndex>);

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
    /// evicting the least-recently-used entry beyond capacity and any
    /// older versions of the same source names. A key that is itself an
    /// older version of a cached entry is not inserted: a late upgrade
    /// must not evict what a newer version's query already cached.
    pub fn insert(
        &mut self,
        key: PreparedKey,
        artifacts: Arc<PreparedSources>,
        index: Option<DeltaIndex>,
    ) {
        // `a` is `b` over the same names, at no older version of any.
        let no_older = |a: &PreparedKey, b: &PreparedKey| {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|((na, va), (nb, vb))| na == nb && va >= vb)
        };
        if self.entries.keys().any(|k| k != &key && no_older(k, &key)) {
            return;
        }
        // A newer version of a source set makes the older entries over the
        // same names dead weight; drop them eagerly rather than waiting for
        // LRU.
        let stale: Vec<PreparedKey> = self
            .entries
            .keys()
            .filter(|k| *k != &key && no_older(&key, k))
            .cloned()
            .collect();
        for k in stale {
            self.entries.remove(&k);
            self.evictions += 1;
        }

        self.tick += 1;
        self.entries.insert(
            key,
            Entry {
                artifacts,
                index,
                last_used: self.tick,
            },
        );
        while self.entries.len() > self.capacity {
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

    /// The live entries whose key references source `name` at `version` —
    /// the entries a delta to that table can *upgrade* in place instead of
    /// invalidating — with their delta indexes moved out: the upgrade
    /// hands each index on to the upgraded entry. Recency is not refreshed
    /// (this is bookkeeping, not a query hit).
    pub fn take_for_upgrade(&mut self, name: &str, version: u64) -> Vec<Upgradable> {
        self.entries
            .iter_mut()
            .filter(|(k, _)| k.iter().any(|(n, v)| n == name && *v == version))
            .map(|(k, e)| (k.clone(), Arc::clone(&e.artifacts), e.index.take()))
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
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn version_bump_misses_and_supersedes() {
        let mut c = PreparedCache::new(4);
        c.insert(key(&[("a", 1)]), artifacts(), None);
        assert!(c.get(&key(&[("a", 2)])).is_none());
        // Inserting the new version drops the stale entry for the same name
        // set instead of letting both linger.
        c.insert(key(&[("a", 2)]), artifacts(), None);
        let s = c.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.evictions, 1);
        assert!(c.get(&key(&[("a", 1)])).is_none());
        assert!(c.get(&key(&[("a", 2)])).is_some());
    }

    /// A late upgrade (v2 passed its version check, then v3 landed and a
    /// v3 query inserted) must not evict the newer entry.
    #[test]
    fn insert_a3_then_a2_a3_still_hits() {
        let mut c = PreparedCache::new(4);
        c.insert(key(&[("a", 3)]), artifacts(), None);
        c.insert(key(&[("a", 2)]), artifacts(), None);
        assert!(c.get(&key(&[("a", 3)])).is_some());
        assert!(c.get(&key(&[("a", 2)])).is_none());
        let s = c.stats();
        assert_eq!((s.entries, s.evictions), (1, 0));
        // Per source: an entry another one is newer than on one source and
        // older on another dominates neither.
        c.insert(key(&[("a", 3), ("b", 1)]), artifacts(), None);
        c.insert(key(&[("a", 2), ("b", 2)]), artifacts(), None);
        assert!(c.get(&key(&[("a", 3), ("b", 1)])).is_some());
        assert!(c.get(&key(&[("a", 2), ("b", 2)])).is_some());
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
    fn entries_for_source_matches_name_and_version() {
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
        c.insert(key(&[("a", 3)]), Arc::new(upgraded), index);
        let hits = c.take_for_upgrade("b", 2);
        assert_eq!(hits.len(), 2);
        assert!(c.take_for_upgrade("b", 9).is_empty());
        // The index moves out with the first taker; the entry stays.
        let taken = c.take_for_upgrade("a", 3);
        assert_eq!(taken.len(), 1);
        assert!(taken[0].2.is_some());
        let again = c.take_for_upgrade("a", 3);
        assert!(again.len() == 1 && again[0].2.is_none());
        // No recency refresh, no counter movement.
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().entries, 3);
    }
}
