//! Candidate-pair generation strategies.
//!
//! The naive strategy compares all O(n²) pairs. The paper's filter (an
//! upper bound to the similarity measure, applied in
//! [`crate::detector`]) prunes *evaluations*; blocking strategies here
//! prune *candidates* before any similarity arithmetic runs:
//!
//! * [`CandidateStrategy::AllPairs`] — exhaustive, recall 1.0.
//! * [`CandidateStrategy::SortedNeighborhood`] — the classic merge/purge
//!   method: sort rows by a key, slide a window of width `w`, compare only
//!   rows within a window. Near-linear, may miss pairs whose keys sort far
//!   apart.
//! * [`CandidateStrategy::KeyEquality`] — classic disjoint blocking: only
//!   rows whose rendered keys are *equal* are candidates. The candidate
//!   graph decomposes into per-key cliques.

use crate::incremental::RowChanges;
use hummer_engine::Table;
use std::collections::HashMap;

/// Render one row's blocking key: each key attribute's text rendering,
/// lowercased, terminated by a `\u{1f}` field separator (nulls and
/// non-text values render as the empty field). Shared by the
/// sorted-neighborhood sort key and the key-equality groups so the two
/// strategies agree on what "the key" is.
pub fn render_key(table: &Table, key_attrs: &[usize], row: usize) -> String {
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

/// How candidate pairs are generated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CandidateStrategy {
    /// Every unordered pair (i < j).
    AllPairs,
    /// Sorted-neighborhood with the given key attributes and window width
    /// (≥ 2). The key is the concatenated string rendering of the key
    /// attributes' values.
    SortedNeighborhood {
        /// Column indices forming the sort key.
        key_attrs: Vec<usize>,
        /// Window width `w`: each row is paired with its `w − 1` successors
        /// in key order.
        window: usize,
    },
    /// Disjoint blocking: every unordered pair of rows whose rendered keys
    /// are equal. Rows with distinct keys are never candidates, so the
    /// candidate graph's connected components never span two key groups.
    KeyEquality {
        /// Column indices forming the blocking key.
        key_attrs: Vec<usize>,
    },
}

/// Generate candidate pairs `(i, j)` with `i < j` under the strategy.
pub fn candidate_pairs(table: &Table, strategy: &CandidateStrategy) -> Vec<(usize, usize)> {
    match strategy {
        CandidateStrategy::AllPairs => all_pairs(table.len()),
        CandidateStrategy::SortedNeighborhood { key_attrs, window } => {
            assert!(*window >= 2, "window must be at least 2");
            let keys = render_keys(table, key_attrs);
            window_pairs(&sorted_order(&keys), *window)
        }
        CandidateStrategy::KeyEquality { key_attrs } => {
            group_pairs(&key_groups(table, key_attrs).1)
        }
    }
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

/// Number the distinct keys; returns the numbering and each row's key
/// group.
fn key_groups(table: &Table, key_attrs: &[usize]) -> (HashMap<String, u32>, Vec<u32>) {
    let mut groups: HashMap<String, u32> = HashMap::new();
    let group_of_row = (0..table.len())
        .map(|i| group_id(&mut groups, render_key(table, key_attrs, i)))
        .collect();
    (groups, group_of_row)
}

fn group_id(groups: &mut HashMap<String, u32>, key: String) -> u32 {
    let next = u32::try_from(groups.len()).expect("fewer than 2^32 distinct keys");
    *groups.entry(key).or_insert(next)
}

/// The members of the groups `wanted` selects (all groups for `None`),
/// ascending, indexed by group.
fn group_members(group_of_row: &[u32], wanted: Option<&[bool]>) -> Vec<Vec<usize>> {
    let groups = group_of_row.iter().max().map_or(0, |&g| g as usize + 1);
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); groups];
    for (i, &g) in group_of_row.iter().enumerate() {
        if wanted.is_none_or(|w| w[g as usize]) {
            members[g as usize].push(i);
        }
    }
    members
}

/// Every pair of rows in one key group, sorted.
fn group_pairs(group_of_row: &[u32]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for members in group_members(group_of_row, None) {
        for (pos, &i) in members.iter().enumerate() {
            for &j in &members[pos + 1..] {
                out.push((i, j)); // members ascend, so i < j
            }
        }
    }
    out.sort_unstable();
    out
}

/// A blocking strategy's state over one table — the key of every row and
/// the order or groups they form — kept so that a delta finds the
/// candidate pairs it changed without regenerating them all.
#[derive(Debug)]
pub(crate) enum CandidateIndex {
    /// Every pair is a candidate; nothing to keep.
    AllPairs,
    /// Rows in `(key, row)` order.
    SortedNeighborhood {
        key_attrs: Vec<usize>,
        window: usize,
        keys: Vec<String>,
        order: Vec<usize>,
    },
    /// Rows by key group. A group whose rows all left stays numbered.
    KeyEquality {
        key_attrs: Vec<usize>,
        groups: HashMap<String, u32>,
        group_of_row: Vec<u32>,
    },
}

impl CandidateIndex {
    /// Index `table` under `strategy`.
    pub(crate) fn new(table: &Table, strategy: &CandidateStrategy) -> Self {
        match strategy {
            CandidateStrategy::AllPairs => CandidateIndex::AllPairs,
            CandidateStrategy::SortedNeighborhood { key_attrs, window } => {
                assert!(*window >= 2, "window must be at least 2");
                let keys = render_keys(table, key_attrs);
                CandidateIndex::SortedNeighborhood {
                    key_attrs: key_attrs.clone(),
                    window: *window,
                    order: sorted_order(&keys),
                    keys,
                }
            }
            CandidateStrategy::KeyEquality { key_attrs } => {
                let (groups, group_of_row) = key_groups(table, key_attrs);
                CandidateIndex::KeyEquality {
                    key_attrs: key_attrs.clone(),
                    groups,
                    group_of_row,
                }
            }
        }
    }

    /// Every candidate pair of the indexed table: [`candidate_pairs`], in
    /// its order.
    pub(crate) fn pairs(&self, rows: usize) -> Vec<(usize, usize)> {
        match self {
            CandidateIndex::AllPairs => all_pairs(rows),
            CandidateIndex::SortedNeighborhood { window, order, .. } => {
                window_pairs(order, *window)
            }
            CandidateIndex::KeyEquality { group_of_row, .. } => group_pairs(group_of_row),
        }
    }

    /// Carry the index across a delta to `new`, and flag in `dirty` every
    /// row whose candidate pairs may differ from its old ones: a row whose
    /// key changed, and — under sorted neighbourhood — every row within
    /// `window − 1` positions of a row's old position (deleted or moved)
    /// or new position (inserted or moved).
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
        match self {
            CandidateIndex::AllPairs => {}
            CandidateIndex::SortedNeighborhood {
                key_attrs,
                window,
                keys,
                order,
            } => {
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
            CandidateIndex::KeyEquality {
                key_attrs,
                groups,
                group_of_row,
            } => {
                let mut arrived: Vec<(usize, u32)> = Vec::new();
                for &(o, n) in &changes.updated {
                    let g = group_id(groups, render_key(new, key_attrs, n));
                    if g != group_of_row[o] {
                        arrived.push((n, g));
                        dirty[n] = true;
                    }
                }
                for &n in &changes.inserted {
                    arrived.push((n, group_id(groups, render_key(new, key_attrs, n))));
                }
                changes.remap(group_of_row);
                for (n, g) in arrived {
                    group_of_row[n] = g;
                }
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
        let n = dirty.len();
        let mut out: Vec<(usize, usize)> = Vec::new();
        match self {
            CandidateIndex::AllPairs => {
                for (i, &is_dirty) in dirty.iter().enumerate() {
                    if is_dirty {
                        out.extend(((i + 1)..n).map(|j| (i, j)));
                    } else {
                        let start = dirty_rows.partition_point(|&d| d <= i);
                        out.extend(dirty_rows[start..].iter().map(|&j| (i, j)));
                    }
                }
                return out; // generated in order
            }
            CandidateIndex::SortedNeighborhood { window, order, .. } => {
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
            }
            CandidateIndex::KeyEquality { group_of_row, .. } => {
                let groups = group_of_row.iter().max().map_or(0, |&g| g as usize + 1);
                let mut wanted = vec![false; groups];
                for &i in dirty_rows {
                    wanted[group_of_row[i] as usize] = true;
                }
                for members in group_members(group_of_row, Some(&wanted)) {
                    for (pos, &i) in members.iter().enumerate() {
                        for &j in &members[pos + 1..] {
                            if dirty[i] || dirty[j] {
                                out.push((i, j));
                            }
                        }
                    }
                }
            }
        }
        out.sort_unstable();
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

    #[test]
    fn all_pairs_count() {
        let pairs = candidate_pairs(&t(), &CandidateStrategy::AllPairs);
        assert_eq!(pairs.len(), 6); // C(4,2)
        assert!(pairs.iter().all(|&(i, j)| i < j));
    }

    #[test]
    fn sorted_neighborhood_pairs_close_keys() {
        let s = CandidateStrategy::SortedNeighborhood {
            key_attrs: vec![0],
            window: 2,
        };
        let pairs = candidate_pairs(&t(), &s);
        // Sorted: alpha(1), alphb(2), delta(0), zeta(3) → neighbors only.
        assert_eq!(pairs, vec![(0, 2), (0, 3), (1, 2)]);
    }

    #[test]
    fn window_covers_all_when_large() {
        let s = CandidateStrategy::SortedNeighborhood {
            key_attrs: vec![0],
            window: 10,
        };
        let pairs = candidate_pairs(&t(), &s);
        assert_eq!(pairs.len(), 6); // degenerates to all pairs
    }

    #[test]
    fn fewer_candidates_than_all_pairs() {
        // 50 rows, window 3 → ~2n pairs instead of n(n-1)/2.
        let mut rows = Vec::new();
        for i in 0..50 {
            rows.push(hummer_engine::row![format!("name{i:03}")]);
        }
        let t = hummer_engine::Table::from_rows("T", &["Name"], rows).unwrap();
        let sn = candidate_pairs(
            &t,
            &CandidateStrategy::SortedNeighborhood {
                key_attrs: vec![0],
                window: 3,
            },
        );
        let all = candidate_pairs(&t, &CandidateStrategy::AllPairs);
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
        let s = CandidateStrategy::SortedNeighborhood {
            key_attrs: vec![0],
            window: 2,
        };
        let pairs = candidate_pairs(&t, &s);
        assert!(pairs.contains(&(0, 2))); // the two null-keyed rows pair up
    }

    #[test]
    #[should_panic(expected = "window must be at least 2")]
    fn tiny_window_panics() {
        candidate_pairs(
            &t(),
            &CandidateStrategy::SortedNeighborhood {
                key_attrs: vec![0],
                window: 1,
            },
        );
    }

    #[test]
    fn empty_table_no_pairs() {
        let t = table! { "E" => ["a"]; };
        assert!(candidate_pairs(&t, &CandidateStrategy::AllPairs).is_empty());
    }

    #[test]
    fn key_equality_pairs_only_equal_keys() {
        let t = table! {
            "T" => ["k"];
            ["Alpha"],
            ["beta"],
            ["alpha"],   // equal to row 0 after lowercasing
            ["beta"],
            ["gamma"],
        };
        let pairs = candidate_pairs(&t, &CandidateStrategy::KeyEquality { key_attrs: vec![0] });
        assert_eq!(pairs, vec![(0, 2), (1, 3)]);
    }

    #[test]
    fn key_equality_null_keys_group_together() {
        let t = table! {
            "T" => ["k"];
            [()],
            ["x"],
            [()],
        };
        let pairs = candidate_pairs(&t, &CandidateStrategy::KeyEquality { key_attrs: vec![0] });
        assert_eq!(pairs, vec![(0, 2)]);
    }
}
