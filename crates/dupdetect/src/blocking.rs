//! Candidate-pair generation.
//!
//! The naive strategy compares all O(n²) pairs. The paper's filter (an
//! upper bound to the similarity measure, applied in
//! [`crate::detector`]) prunes *evaluations*; blocking prunes
//! *candidates* before any similarity arithmetic runs:
//!
//! * [`CandidateSpec::AllPairs`] — exhaustive, recall 1.0.
//! * [`CandidateSpec::SortedNeighborhood`] — the classic merge/purge
//!   method (Hernández & Stolfo, SIGMOD 1995): sort rows by a key, slide a
//!   window of width `w`, compare only rows within a window. Near-linear,
//!   may miss pairs whose keys sort far apart.
//!
//! Sorted neighbourhood reads the key columns' interning passes (the one
//! pass per column that attribute selection and the measure read too): a
//! key is built once per distinct rendering, the distinct keys are sorted
//! once, and the rows are counting-sorted by the rank of their key —
//! exactly the `(key, row)` order of sorting every row's key string. The
//! window pairs are then written straight into their `(left, right)`
//! places, so they come out sorted without a sort. A delta builds the key
//! of a touched row from its rendering in the moved pass.

use crate::incremental::RowChanges;
use crate::renderings::{push_lowercase, ColumnRenderings, Passes, Renderings, NULL};
use hummer_engine::error::EngineError;
use hummer_engine::{Result, Table};
use hummer_textsim::interned::Strings;

/// Candidate generation specified by column *names* (resolved against the
/// input table at detection time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CandidateSpec {
    /// Compare every pair.
    AllPairs,
    /// Sorted-neighborhood blocking over the given key columns.
    SortedNeighborhood {
        /// Key column names. The sort key is, per key column in order, the
        /// cell's `Display` rendering lower-cased (the empty field for
        /// `NULL`) and a `\u{1f}` separator, compared as a string — so an
        /// `Int` key sorts by its decimal text (`10` before `9`).
        key: Vec<String>,
        /// Window width `w` (≥ 2): each row is paired with its `w − 1`
        /// successors in key order.
        window: usize,
    },
}

/// Resolve a [`CandidateSpec`] against `table` into its blocking index:
/// key columns looked up by name, every row's key ranked and the rows
/// sorted. Public so callers that generate candidates themselves (the
/// incremental property tests, the hbench layer probes) get exactly the
/// detector's set.
///
/// Errors on an unknown key column and on a window below 2.
pub fn resolve_candidate_strategy(table: &Table, spec: &CandidateSpec) -> Result<CandidateIndex> {
    CandidateIndex::build(&Renderings::new(table), spec)
}

/// Every candidate pair `(i, j)` with `i < j` of `table` under `index`
/// (built over `table` by [`resolve_candidate_strategy`]), sorted.
pub fn candidate_pairs(table: &Table, index: &CandidateIndex) -> Vec<(usize, usize)> {
    index.pairs(table.len())
}

/// Append row `row`'s blocking key to `key`: per key column, from its
/// interning pass, the cell's rendering (`Value`'s `Display` form, as
/// [`hummer_engine::Value::as_text`] gives it) lower-cased — the empty
/// field for `NULL` — and a `\u{1f}` field separator.
fn push_key(columns: &[&ColumnRenderings], row: usize, key: &mut String) {
    for column in columns {
        if let Some(rendering) = column.rendering(row) {
            push_lowercase(rendering, key);
        }
        key.push('\u{1f}'); // field separator
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

/// Every pair of rows fewer than `window` positions apart in `order` (a
/// permutation of the rows), as `(smaller, larger)`, in sorted order
/// without a sort: each row's pairs as the smaller endpoint get a range of
/// slots (counted first), and the rows are then visited in ascending order
/// as the larger endpoint, so every range fills in ascending order.
fn window_pairs(order: &[usize], window: usize) -> Vec<(usize, usize)> {
    let n = order.len();
    let mut position = vec![0; n];
    for (p, &r) in order.iter().enumerate() {
        position[r] = p;
    }
    let mut starts = vec![0usize; n + 1];
    for (p, &r) in order.iter().enumerate() {
        for &q in &order[p + 1..(p + window).min(n)] {
            starts[r.min(q) + 1] += 1;
        }
    }
    for i in 0..n {
        starts[i + 1] += starts[i];
    }
    let total = starts[n];
    // A spare last slot takes the writes for partners that are not the
    // smaller row, so the loop does not branch on them.
    let mut out = vec![(0, 0); total + 1];
    for (j, &p) in position.iter().enumerate() {
        for &i in &order[p.saturating_sub(window - 1)..(p + window).min(n)] {
            let smaller = i < j;
            let at = if smaller { starts[i] } else { total };
            out[at] = (i, j);
            starts[i] += usize::from(smaller);
        }
    }
    out.truncate(total);
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

/// Sorted-neighbourhood state: every row's key, and the rows in
/// `(key, row)` order.
#[derive(Debug)]
struct SortedKeys {
    key_attrs: Vec<usize>,
    window: usize,
    /// The distinct keys. A delta adds the keys it renders and removes
    /// none, so equal ids mean equal keys and a dead key costs only its
    /// bytes.
    keys: Strings,
    /// Per row: its key.
    key_of_row: Vec<u32>,
    order: Vec<usize>,
}

impl SortedKeys {
    /// Rank the keys of the indexed table and sort its rows by them.
    fn build(renderings: &Renderings<'_>, key_attrs: Vec<usize>, window: usize) -> Self {
        let rows = renderings.table().len();
        let columns: Vec<_> = key_attrs.iter().map(|&a| renderings.column(a)).collect();
        let mut keys = Strings::new();
        let mut key = String::new();
        let mut key_of_row = Vec::with_capacity(rows);
        if let [column] = columns[..] {
            // One key column (as every caller has): a row's key is a
            // function of its rendering, built once per distinct rendering
            // (and once for `NULL`). Several columns are joined row by row.
            let mut key_of = vec![NULL; column.len() + 1];
            for (row, &r) in column.of_row.iter().enumerate() {
                let slot = if r == NULL { column.len() } else { r as usize };
                if key_of[slot] == NULL {
                    key.clear();
                    push_key(&columns, row, &mut key);
                    key_of[slot] = keys.intern(&key).0;
                }
                key_of_row.push(key_of[slot]);
            }
        } else {
            for row in 0..rows {
                key.clear();
                push_key(&columns, row, &mut key);
                key_of_row.push(keys.intern(&key).0);
            }
        }

        // Rank the distinct keys, then counting-sort the rows by rank: rows
        // of one rank stay in row order, which is the `(key, row)` order.
        let by_key = keys.sorted();
        let mut starts = vec![0usize; keys.len() + 1];
        for &k in &key_of_row {
            starts[k as usize + 1] += 1;
        }
        let mut next = vec![0usize; keys.len()];
        let mut at = 0;
        for &k in &by_key {
            next[k as usize] = at;
            at += starts[k as usize + 1];
        }
        let mut order = vec![0usize; rows];
        for (row, &k) in key_of_row.iter().enumerate() {
            order[next[k as usize]] = row;
            next[k as usize] += 1;
        }
        SortedKeys {
            key_attrs,
            window,
            keys,
            key_of_row,
            order,
        }
    }

    /// Row `r`'s key.
    fn key(&self, r: usize) -> &str {
        self.keys.get(self.key_of_row[r])
    }
}

impl CandidateIndex {
    /// Resolve `spec` against the table of `renderings` (see
    /// [`resolve_candidate_strategy`]), reading the key columns' passes.
    pub(crate) fn build(renderings: &Renderings<'_>, spec: &CandidateSpec) -> Result<Self> {
        let sorted = match spec {
            CandidateSpec::AllPairs => None,
            CandidateSpec::SortedNeighborhood { key, window } => {
                if *window < 2 {
                    return Err(EngineError::Expression(format!(
                        "sorted-neighborhood window must be at least 2, got {window}"
                    )));
                }
                let table = renderings.table();
                let key_attrs = key
                    .iter()
                    .map(|n| table.resolve(n))
                    .collect::<Result<Vec<usize>>>()?;
                Some(SortedKeys::build(renderings, key_attrs, *window))
            }
        };
        Ok(CandidateIndex { sorted })
    }

    /// Every candidate pair of the indexed table of `rows` rows, sorted.
    pub(crate) fn pairs(&self, rows: usize) -> Vec<(usize, usize)> {
        match &self.sorted {
            None => all_pairs(rows),
            Some(sn) => window_pairs(&sn.order, sn.window),
        }
    }

    /// Carry the index across a delta, whose key columns' `passes` have
    /// moved already, and flag in `dirty` every row whose candidate pairs
    /// may differ from its old ones. Under all
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
        passes: &Passes,
        changes: &RowChanges<'_>,
        dirty: &mut [bool],
    ) {
        let Some(sn) = &mut self.sorted else {
            return;
        };
        let reach = sn.window - 1;
        // Rows leaving the order (old indices) and arriving (new, with
        // their keys). Keys are compared as strings, which a delta can
        // afford: it builds keys only for the rows it touched.
        let mut leaving: Vec<usize> = changes.deleted.clone();
        let mut arriving: Vec<(usize, u32)> = Vec::new();
        let columns: Vec<&ColumnRenderings> =
            sn.key_attrs.iter().map(|&a| passes.column(a)).collect();
        let mut key = String::new();
        let mut key_of = |sn: &mut SortedKeys, n: usize| {
            key.clear();
            push_key(&columns, n, &mut key);
            sn.keys.intern(&key).0
        };
        for &(o, n) in &changes.updated {
            let k = key_of(sn, n);
            if k != sn.key_of_row[o] {
                leaving.push(o);
                arriving.push((n, k));
                dirty[n] = true;
            }
        }
        for &n in &changes.inserted {
            let k = key_of(sn, n);
            arriving.push((n, k));
        }
        if leaving.is_empty() && arriving.is_empty() {
            return; // no delete, no insert: the row space is unchanged
        }
        let old_to_new = &changes.mapping.old_to_new;
        let mut left = vec![false; old_to_new.len()];
        for &o in &leaving {
            left[o] = true;
            let p = sn
                .order
                .binary_search_by(|&r| (sn.key(r), r).cmp(&(sn.key(o), o)))
                .expect("an indexed row is in the order");
            for &r in &sn.order[p.saturating_sub(reach)..(p + reach + 1).min(sn.order.len())] {
                if let Some(n) = old_to_new[r] {
                    dirty[n] = true;
                }
            }
        }
        let staying: Vec<usize> = sn
            .order
            .iter()
            .filter(|&&o| !left[o])
            .map(|&o| old_to_new[o].expect("a staying row survives"))
            .collect();
        changes.remap(&mut sn.key_of_row);
        for &(n, k) in &arriving {
            sn.key_of_row[n] = k;
        }
        let mut arrived: Vec<usize> = arriving.iter().map(|&(n, _)| n).collect();
        arrived.sort_by(|&a, &b| (sn.key(a), a).cmp(&(sn.key(b), b)));
        // Place each arrival after the staying rows that sort before it.
        let mut order = Vec::with_capacity(staying.len() + arrived.len());
        let mut positions = Vec::with_capacity(arrived.len());
        let mut s = 0;
        for &n in &arrived {
            let at = s + staying[s..].partition_point(|&r| (sn.key(r), r) < (sn.key(n), n));
            order.extend_from_slice(&staying[s..at]);
            s = at;
            positions.push(order.len());
            order.push(n);
        }
        order.extend_from_slice(&staying[s..]);
        sn.order = order;
        for p in positions {
            for &r in &sn.order[p.saturating_sub(reach)..(p + reach + 1).min(sn.order.len())] {
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
    use crate::incremental::{RowChanges, RowMapping};
    use hummer_engine::{table, Date, Row, Value};
    use proptest::test_runner::TestRng;

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

    /// A key renders every non-null value with `Display`, so an `Int` key
    /// sorts by its decimal text, and `NULL` is the empty field, which
    /// sorts before any text of printable chars.
    #[test]
    fn int_keys_sort_as_text_and_null_first() {
        let t = table! {
            "T" => ["k"];
            [9],
            [10],
            [()],
        };
        let spec = CandidateSpec::SortedNeighborhood {
            key: vec!["k".into()],
            window: 2,
        };
        // Key order: NULL (row 2), "10" (row 1), "9" (row 0).
        assert_eq!(pairs(&t, &spec), vec![(0, 1), (1, 2)]);
    }

    /// The definition sorted neighbourhood had before the interning
    /// passes: every row's key rendered into a `String` of its own, the
    /// rows sorted by `(key, row)`, every pair within the window collected,
    /// sorted and deduplicated.
    fn oracle_pairs(table: &Table, key_attrs: &[usize], window: usize) -> Vec<(usize, usize)> {
        let keys: Vec<String> = (0..table.len())
            .map(|row| {
                let mut k = String::new();
                for &a in key_attrs {
                    if let Some(t) = table.cell(row, a).as_text() {
                        k.push_str(&t.to_lowercase());
                    }
                    k.push('\u{1f}');
                }
                k
            })
            .collect();
        let mut order: Vec<usize> = (0..table.len()).collect();
        order.sort_by(|&a, &b| keys[a].cmp(&keys[b]).then(a.cmp(&b)));
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

    /// A cell drawn from small pools, so keys tie often: case variants,
    /// chars below and at the `\u{1f}` separator, a final sigma, digit
    /// strings next to `Int` and `Float` values, dates, `NULL`.
    fn random_value(rng: &mut TestRng) -> Value {
        const PIECES: [&str; 16] = [
            "a", "A", "b", "B", "ab", "\u{1}", "\u{1e}", "\u{1f}", " ", "é", "É", "ΑΣ", "ς", "9",
            "10", "",
        ];
        match rng.below(6) {
            0 => Value::Null,
            1 => Value::Int(rng.below(24) as i64 - 4),
            2 => Value::Float(rng.below(12) as f64 / 2.0),
            3 => Value::Date(
                Date::new(2000 + rng.below(3) as i32, 1, 1 + rng.below(3) as u8).unwrap(),
            ),
            _ => {
                let pieces = rng.below(4);
                let text: String = (0..pieces)
                    .map(|_| PIECES[rng.below(PIECES.len() as u64) as usize])
                    .collect();
                Value::text(text)
            }
        }
    }

    fn random_row(rng: &mut TestRng, columns: usize) -> Row {
        Row::from_values((0..columns).map(|_| random_value(rng)).collect())
    }

    /// The index's pairs equal the string-sort oracle on random tables of
    /// 0–80 rows, one to three key columns and windows 2 to n + 2 — built
    /// from scratch, and carried across a random delta.
    #[test]
    fn candidates_equal_the_string_sort_oracle() {
        let mut rng = TestRng::deterministic();
        let names = ["k0", "k1", "k2"];
        for case in 0..400 {
            let rows = rng.below(81) as usize;
            let table = Table::from_rows(
                "T",
                &names,
                (0..rows)
                    .map(|_| random_row(&mut rng, names.len()))
                    .collect(),
            )
            .unwrap();
            let keys = 1 + rng.below(3) as usize;
            let key_attrs: Vec<usize> = (0..keys).map(|_| rng.below(3) as usize).collect();
            let window = 2 + rng.below(rows as u64 + 1) as usize;
            let spec = CandidateSpec::SortedNeighborhood {
                key: key_attrs.iter().map(|&a| names[a].to_string()).collect(),
                window,
            };
            let renderings = Renderings::new(&table);
            let mut index = CandidateIndex::build(&renderings, &spec).unwrap();
            let mut passes = renderings.keep(&[]);
            let want = oracle_pairs(&table, &key_attrs, window);
            assert_eq!(index.pairs(rows), want, "case {case}: built");

            // A delta: some rows deleted, some updated (often to another
            // row's cells, so keys land inside runs of equal keys), a few
            // inserted.
            let mut old_to_new = Vec::with_capacity(rows);
            let mut new_rows = Vec::new();
            for r in 0..rows {
                match rng.below(8) {
                    0 => old_to_new.push(None),
                    1 => {
                        old_to_new.push(Some(new_rows.len()));
                        new_rows.push(random_row(&mut rng, names.len()));
                    }
                    2 => {
                        old_to_new.push(Some(new_rows.len()));
                        let from = rng.below(rows as u64) as usize;
                        new_rows.push(table.rows()[from].clone());
                    }
                    _ => {
                        old_to_new.push(Some(new_rows.len()));
                        new_rows.push(table.rows()[r].clone());
                    }
                }
            }
            for _ in 0..rng.below(4) {
                new_rows.push(random_row(&mut rng, names.len()));
            }
            let next = Table::from_rows("T", &names, new_rows).unwrap();
            let mapping = RowMapping::new(old_to_new, next.len()).unwrap();
            let changes = RowChanges::new(&table, &next, &mapping);
            passes.apply_delta(&table, &next, &changes);
            index.apply_delta(&passes, &changes, &mut vec![false; next.len()]);
            let want = oracle_pairs(&next, &key_attrs, window);
            assert_eq!(index.pairs(next.len()), want, "case {case}: carried");
        }
    }
}
