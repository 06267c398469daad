//! Candidate-pair generation.
//!
//! The naive strategy compares all O(n²) pairs. The paper's filter (an
//! upper bound to the similarity measure, applied in
//! [`crate::detector`]) prunes *evaluations*; blocking prunes
//! *candidates* before any similarity arithmetic runs:
//!
//! * [`CandidateSpec::AllPairs`] — exhaustive, recall 1.0.
//! * [`CandidateSpec::SortedNeighborhood`] — the classic merge/purge
//!   method: sort rows by a key, slide a window of width `w`, compare only
//!   rows within a window. Near-linear, may miss pairs whose keys sort far
//!   apart.

use crate::incremental::RowChanges;
use hummer_engine::error::EngineError;
use hummer_engine::{Result, Table};

/// Candidate generation specified by column *names* (resolved against the
/// input table at detection time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CandidateSpec {
    /// Compare every pair.
    AllPairs,
    /// Sorted-neighborhood blocking over the given key columns.
    SortedNeighborhood {
        /// Key column names (sort key is their concatenated rendering).
        key: Vec<String>,
        /// Window width `w` (≥ 2): each row is paired with its `w − 1`
        /// successors in key order.
        window: usize,
    },
}

/// Resolve a [`CandidateSpec`] against `table` into its blocking index:
/// key columns looked up by name, every row's key rendered and sorted.
/// Public so callers that generate candidates themselves (the incremental
/// property tests, the hbench layer probes) get exactly the detector's set.
///
/// Errors on an unknown key column and on a window below 2.
pub fn resolve_candidate_strategy(table: &Table, spec: &CandidateSpec) -> Result<CandidateIndex> {
    let sorted = match spec {
        CandidateSpec::AllPairs => None,
        CandidateSpec::SortedNeighborhood { key, window } => {
            if *window < 2 {
                return Err(EngineError::Expression(format!(
                    "sorted-neighborhood window must be at least 2, got {window}"
                )));
            }
            let key_attrs = key
                .iter()
                .map(|n| table.resolve(n))
                .collect::<Result<Vec<usize>>>()?;
            let keys = render_keys(table, &key_attrs);
            Some(SortedKeys {
                key_attrs,
                window: *window,
                order: sorted_order(&keys),
                keys,
            })
        }
    };
    Ok(CandidateIndex { sorted })
}

/// Every candidate pair `(i, j)` with `i < j` of `table` under `index`
/// (built over `table` by [`resolve_candidate_strategy`]), sorted.
pub fn candidate_pairs(table: &Table, index: &CandidateIndex) -> Vec<(usize, usize)> {
    index.pairs(table.len())
}

/// Render one row's blocking key: each key attribute's text rendering,
/// lowercased, terminated by a `\u{1f}` field separator (nulls and
/// non-text values render as the empty field).
fn render_key(table: &Table, key_attrs: &[usize], row: usize) -> String {
    let r = &table.rows()[row];
    let mut k = String::new();
    for &a in key_attrs {
        if let Some(t) = r[a].as_text() {
            k.push_str(&t.to_lowercase());
        }
        k.push('\u{1f}'); // field separator
    }
    k
}

fn all_pairs(n: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(n.saturating_sub(1) * n / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            out.push((i, j));
        }
    }
    out
}

fn render_keys(table: &Table, key_attrs: &[usize]) -> Vec<String> {
    (0..table.len())
        .map(|i| render_key(table, key_attrs, i))
        .collect()
}

/// Rows sorted by `(key, row)` — the sorted-neighbourhood order.
fn sorted_order(keys: &[String]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by(|&a, &b| keys[a].cmp(&keys[b]).then(a.cmp(&b)));
    order
}

/// Every pair of rows fewer than `window` positions apart in `order`, as
/// `(smaller, larger)`, sorted.
fn window_pairs(order: &[usize], window: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (pos, &i) in order.iter().enumerate() {
        for &j in order.iter().skip(pos + 1).take(window - 1) {
            out.push((i.min(j), i.max(j)));
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// A blocking strategy resolved against one table — under sorted
/// neighbourhood, the key of every row and the order they form — kept so
/// that a delta finds the candidate pairs it changed without regenerating
/// them all. Built by [`resolve_candidate_strategy`].
#[derive(Debug)]
pub struct CandidateIndex {
    /// `None` under all pairs: every pair is a candidate, nothing to keep.
    sorted: Option<SortedKeys>,
}

/// Sorted-neighbourhood state: rows in `(key, row)` order.
#[derive(Debug)]
struct SortedKeys {
    key_attrs: Vec<usize>,
    window: usize,
    keys: Vec<String>,
    order: Vec<usize>,
}

impl CandidateIndex {
    /// Every candidate pair of the indexed table of `rows` rows, sorted.
    pub(crate) fn pairs(&self, rows: usize) -> Vec<(usize, usize)> {
        match &self.sorted {
            None => all_pairs(rows),
            Some(sn) => window_pairs(&sn.order, sn.window),
        }
    }

    /// Carry the index across a delta to `new`, and flag in `dirty` every
    /// row whose candidate pairs may differ from its old ones. Under all
    /// pairs there is nothing to carry or flag; under sorted neighbourhood
    /// those are a row whose key changed and every row within `window − 1`
    /// positions of a row's old position (deleted or moved) or new position
    /// (inserted or moved).
    ///
    /// Why the window suffices: if two rows that kept their keys change
    /// window status, the distance between them changed, so a row left
    /// from between them (old order) or arrived between them (new order).
    /// The one of those nearest to the first row has only rows of both
    /// orders between itself and that row, fewer than the window — so the
    /// first row is flagged. Every pair of unflagged rows keeps its window
    /// status, and its old classification may be carried.
    pub(crate) fn apply_delta(
        &mut self,
        new: &Table,
        changes: &RowChanges<'_>,
        dirty: &mut [bool],
    ) {
        let Some(SortedKeys {
            key_attrs,
            window,
            keys,
            order,
        }) = &mut self.sorted
        else {
            return;
        };
        let reach = *window - 1;
        // Rows leaving the order (old indices) and arriving (new).
        let mut leaving: Vec<usize> = changes.deleted.clone();
        let mut arriving: Vec<(String, usize)> = Vec::new();
        for &(o, n) in &changes.updated {
            let key = render_key(new, key_attrs, n);
            if key != keys[o] {
                leaving.push(o);
                arriving.push((key, n));
                dirty[n] = true;
            }
        }
        for &n in &changes.inserted {
            arriving.push((render_key(new, key_attrs, n), n));
        }
        if leaving.is_empty() && arriving.is_empty() {
            return; // no delete, no insert: the row space is unchanged
        }
        let old_to_new = &changes.mapping.old_to_new;
        let mut left = vec![false; old_to_new.len()];
        for &o in &leaving {
            left[o] = true;
            let p = order
                .binary_search_by(|&r| (keys[r].as_str(), r).cmp(&(keys[o].as_str(), o)))
                .expect("an indexed row is in the order");
            for &r in &order[p.saturating_sub(reach)..(p + reach + 1).min(order.len())] {
                if let Some(n) = old_to_new[r] {
                    dirty[n] = true;
                }
            }
        }
        let staying: Vec<usize> = order
            .iter()
            .filter(|&&o| !left[o])
            .map(|&o| old_to_new[o].expect("a staying row survives"))
            .collect();
        changes.remap(keys);
        let mut arrived: Vec<usize> = Vec::with_capacity(arriving.len());
        for (key, n) in arriving {
            keys[n] = key;
            arrived.push(n);
        }
        arrived.sort_by(|&a, &b| keys[a].cmp(&keys[b]).then(a.cmp(&b)));
        // Merge the two `(key, row)`-sorted runs.
        let mut merged = Vec::with_capacity(staying.len() + arrived.len());
        let mut positions = Vec::with_capacity(arrived.len());
        let (mut s, mut a) = (0, 0);
        while s < staying.len() || a < arrived.len() {
            let take_arrived = a < arrived.len()
                && (s == staying.len()
                    || (keys[arrived[a]].as_str(), arrived[a])
                        < (keys[staying[s]].as_str(), staying[s]));
            if take_arrived {
                positions.push(merged.len());
                merged.push(arrived[a]);
                a += 1;
            } else {
                merged.push(staying[s]);
                s += 1;
            }
        }
        *order = merged;
        for p in positions {
            for &r in &order[p.saturating_sub(reach)..(p + reach + 1).min(order.len())] {
                dirty[r] = true;
            }
        }
    }

    /// The candidate pairs with at least one endpoint in `dirty_rows`
    /// (ascending; `dirty` flags the same rows), sorted.
    pub(crate) fn pairs_touching(
        &self,
        dirty: &[bool],
        dirty_rows: &[usize],
    ) -> Vec<(usize, usize)> {
        let mut out: Vec<(usize, usize)> = Vec::new();
        match &self.sorted {
            None => {
                let n = dirty.len();
                for (i, &is_dirty) in dirty.iter().enumerate() {
                    if is_dirty {
                        out.extend(((i + 1)..n).map(|j| (i, j)));
                    } else {
                        let start = dirty_rows.partition_point(|&d| d <= i);
                        out.extend(dirty_rows[start..].iter().map(|&j| (i, j)));
                    }
                }
                // Generated in order.
            }
            Some(SortedKeys { window, order, .. }) => {
                for (p, &i) in order.iter().enumerate() {
                    if !dirty[i] {
                        continue;
                    }
                    // Partners after `i`, and clean partners before it (a
                    // dirty one before it has paired with `i` already).
                    for &j in &order[p + 1..(p + window).min(order.len())] {
                        out.push((i.min(j), i.max(j)));
                    }
                    for &j in &order[p.saturating_sub(window - 1)..p] {
                        if !dirty[j] {
                            out.push((i.min(j), i.max(j)));
                        }
                    }
                }
                out.sort_unstable();
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hummer_engine::table;

    fn t() -> Table {
        table! {
            "T" => ["Name"];
            ["delta"],
            ["alpha"],
            ["alphb"],   // sorts right next to alpha
            ["zeta"],
        }
    }

    fn pairs(t: &Table, spec: &CandidateSpec) -> Vec<(usize, usize)> {
        candidate_pairs(t, &resolve_candidate_strategy(t, spec).unwrap())
    }

    fn sn(window: usize) -> CandidateSpec {
        CandidateSpec::SortedNeighborhood {
            key: vec!["Name".into()],
            window,
        }
    }

    #[test]
    fn all_pairs_count() {
        let pairs = pairs(&t(), &CandidateSpec::AllPairs);
        assert_eq!(pairs.len(), 6); // C(4,2)
        assert!(pairs.iter().all(|&(i, j)| i < j));
    }

    #[test]
    fn sorted_neighborhood_pairs_close_keys() {
        // Sorted: alpha(1), alphb(2), delta(0), zeta(3) → neighbors only.
        assert_eq!(pairs(&t(), &sn(2)), vec![(0, 2), (0, 3), (1, 2)]);
    }

    #[test]
    fn window_covers_all_when_large() {
        assert_eq!(pairs(&t(), &sn(10)).len(), 6); // degenerates to all pairs
    }

    #[test]
    fn fewer_candidates_than_all_pairs() {
        // 50 rows, window 3 → ~2n pairs instead of n(n-1)/2.
        let mut rows = Vec::new();
        for i in 0..50 {
            rows.push(hummer_engine::row![format!("name{i:03}")]);
        }
        let t = hummer_engine::Table::from_rows("T", &["Name"], rows).unwrap();
        let sn = pairs(&t, &sn(3));
        let all = pairs(&t, &CandidateSpec::AllPairs);
        assert!(sn.len() < all.len() / 5, "{} vs {}", sn.len(), all.len());
    }

    #[test]
    fn null_keys_sort_together() {
        let t = table! {
            "T" => ["k"];
            [()],
            ["x"],
            [()],
        };
        let spec = CandidateSpec::SortedNeighborhood {
            key: vec!["k".into()],
            window: 2,
        };
        assert!(pairs(&t, &spec).contains(&(0, 2))); // the two null-keyed rows pair up
    }

    #[test]
    fn unknown_key_errors() {
        let spec = CandidateSpec::SortedNeighborhood {
            key: vec!["Nope".into()],
            window: 3,
        };
        assert!(resolve_candidate_strategy(&t(), &spec).is_err());
    }

    #[test]
    fn empty_table_no_pairs() {
        let t = table! { "E" => ["a"]; };
        assert!(pairs(&t, &CandidateSpec::AllPairs).is_empty());
    }
}
