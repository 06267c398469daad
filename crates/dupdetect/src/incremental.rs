//! Incremental duplicate detection under source deltas.
//!
//! A [`DetectionIndex`] holds everything detection reads about a table
//! beyond the pair scores themselves, and carries it across a delta with
//! cost proportional to the *change*, not the corpus:
//!
//! 1. the rows the delta touched are found by comparing each surviving
//!    row with its old version (inserted and deleted rows come from the
//!    [`RowMapping`]);
//! 2. the per-column counts attribute selection reads, and the counts
//!    behind the measure's weights (renderings, texts, token document
//!    frequencies, noise buckets, non-null rows — see
//!    [`crate::measure`]), are *moved* by the touched cells; only those
//!    cells are rendered again, and each moved attribute's σ is re-run;
//! 3. a row is *dirty* when one of its cells changed bit-wise: it was
//!    inserted or updated, or it reads a count whose **quantized** value
//!    stepped (a token's document frequency, a value's or bucket's row
//!    count, the attribute's non-null count), or it holds a numeric cell
//!    of an attribute whose scale stepped. Everything else is provably
//!    unchanged;
//! 4. the blocking index moves too — the key of every row, in
//!    `(key, row)` order for sorted neighbourhood, by key group for key
//!    equality — and adds the rows whose candidate pairs may have changed:
//!    rows whose key moved, and under sorted neighbourhood every row within
//!    `window − 1` positions of a row's old position (deleted or moved) or
//!    new position (inserted or moved). That suffices: two rows that kept
//!    their keys change window status only if their distance changed, so a
//!    row left from between them (old order) or arrived between them (new
//!    order); the one of those nearest the first row has fewer than
//!    `window` rows between itself and it, so the first row is dirty;
//! 5. candidate pairs with a dirty endpoint are scored through the same
//!    loop the full detector uses, and classifications of clean–clean
//!    pairs are **carried over** unchanged: the measure reads nothing but
//!    the two rows' cells and the attribute scales, so bit-identical
//!    inputs give bit-identical scores — carrying is not an approximation;
//! 6. the transitive closure is maintained incrementally: connected
//!    components untouched by the delta keep their union-find structure
//!    (their members are re-linked directly, no pair is re-scored or
//!    re-unioned), while components containing deleted or dirty rows are
//!    dissolved and re-clustered from the merged pair list — the "scoped
//!    re-clustering" of only the affected components.
//!
//! [`detect_delta`] is the same path for a caller that kept no index: it
//! builds one over the old table first.
//!
//! ## The byte-identity contract
//!
//! For every delta, the resulting `pairs`, `unsure`, `cluster_ids`,
//! `clusters`, and `attributes_used` are **bit-identical** to
//! [`crate::detect_duplicates`] run from scratch over the updated table —
//! at every parallelism degree — and the carried index equals one built
//! from scratch over it (cells, scales, attribute scores, candidates). This
//! leans on the quantized corpus statistics of [`crate::measure`]: weights
//! are step functions of the corpus, so small deltas leave untouched rows'
//! caches literally unchanged. Counts above 63 keep 6 significant bits, so
//! the non-null count steps every `N/64` to `N/32` inserted or deleted
//! rows; when it does, every row reads new weights and most go dirty, and
//! a delta that dirties a majority of rows is scored as a full rescore of
//! the carried measure — still byte-identical, just not cheap. A delta
//! that changes the attribute selection or the table's columns re-indexes
//! and rescores likewise. `DetectionResult::stats` is the one field
//! outside the contract: it reports the work *this* run performed, which
//! for a delta run is delta-sized by design.
//!
//! The index remembers the [`DetectorConfig`] it was built with; the old
//! result must come from that configuration.

use crate::blocking::{resolve_candidate_strategy, CandidateIndex};
use crate::columnar::score_candidates;
use crate::detector::{
    attribute_names, attributes_from, check_thresholds, detect_candidates, sort_pairs_canonical,
    DetectionResult, DetectionStats, DetectorConfig, DuplicatePair,
};
use crate::heuristics::{select_from_scores, AttributeScore, SelectionCounts};
use crate::measure::{ColumnCounts, TupleSimilarity};
use crate::unionfind::UnionFind;
use hummer_engine::error::EngineError;
use hummer_engine::{Result, Row, Table};
use hummer_par::Parallelism;

/// How rows of the old table relate to rows of the new table after a delta.
///
/// The mapping must be *monotone*: surviving rows keep their relative
/// order (deltas delete, update in place, and append — they never permute).
/// This is what lets carried pairs keep `left < right` and the candidate
/// order stay lexicographic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowMapping {
    /// For each old row: its index in the new table, or `None` if deleted.
    pub old_to_new: Vec<Option<usize>>,
    /// For each new row: its index in the old table, or `None` if inserted.
    pub new_to_old: Vec<Option<usize>>,
}

impl RowMapping {
    /// Build from the forward map and the new row count; the reverse map is
    /// derived. Errors if the forward map is out of bounds, collides, or is
    /// not monotone.
    pub fn new(old_to_new: Vec<Option<usize>>, new_len: usize) -> Result<Self> {
        let mut new_to_old: Vec<Option<usize>> = vec![None; new_len];
        let mut prev: Option<usize> = None;
        for (o, n) in old_to_new.iter().enumerate() {
            if let Some(n) = n {
                if *n >= new_len {
                    return Err(EngineError::Expression(format!(
                        "row mapping target {n} out of bounds (new length {new_len})"
                    )));
                }
                if new_to_old[*n].is_some() {
                    return Err(EngineError::Expression(format!(
                        "row mapping target {n} assigned twice"
                    )));
                }
                if prev.is_some_and(|p| p >= *n) {
                    return Err(EngineError::Expression(
                        "row mapping must be monotone (surviving rows keep their order)".into(),
                    ));
                }
                prev = Some(*n);
                new_to_old[*n] = Some(o);
            }
        }
        Ok(RowMapping {
            old_to_new,
            new_to_old,
        })
    }

    /// The identity mapping over `n` rows (an empty delta).
    pub fn identity(n: usize) -> Self {
        RowMapping {
            old_to_new: (0..n).map(Some).collect(),
            new_to_old: (0..n).map(Some).collect(),
        }
    }

    /// Old row count.
    pub fn old_len(&self) -> usize {
        self.old_to_new.len()
    }

    /// New row count.
    pub fn new_len(&self) -> usize {
        self.new_to_old.len()
    }

    /// Number of inserted (new, unmapped) rows.
    pub fn inserted(&self) -> usize {
        self.new_to_old.iter().filter(|o| o.is_none()).count()
    }

    /// Number of deleted (old, unmapped) rows.
    pub fn deleted(&self) -> usize {
        self.old_to_new.iter().filter(|n| n.is_none()).count()
    }
}

fn same_row(a: &Row, b: &Row) -> bool {
    a.len() == b.len()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| x.identical(y))
}

/// The rows one delta touched.
pub(crate) struct RowChanges<'a> {
    pub(crate) mapping: &'a RowMapping,
    /// Old rows without a new counterpart.
    pub(crate) deleted: Vec<usize>,
    /// `(old, new)` rows that survived with different content.
    pub(crate) updated: Vec<(usize, usize)>,
    /// New rows without an old counterpart.
    pub(crate) inserted: Vec<usize>,
}

impl<'a> RowChanges<'a> {
    /// Compare every surviving row of `new` with its row in `old`.
    pub(crate) fn new(old: &Table, new: &Table, mapping: &'a RowMapping) -> Self {
        let (old_rows, new_rows) = (old.rows(), new.rows());
        let mut changes = RowChanges {
            mapping,
            deleted: (0..mapping.old_len())
                .filter(|&o| mapping.old_to_new[o].is_none())
                .collect(),
            updated: Vec::new(),
            inserted: Vec::new(),
        };
        for (n, o) in mapping.new_to_old.iter().enumerate() {
            match o {
                None => changes.inserted.push(n),
                Some(o) if !same_row(&old_rows[*o], &new_rows[n]) => changes.updated.push((*o, n)),
                Some(_) => {}
            }
        }
        changes
    }

    /// Move a per-row array from the old row space to the new one; new
    /// rows get `T::default()`. Free when no row was inserted or deleted
    /// (a monotone mapping is then the identity).
    pub(crate) fn remap<T: Default>(&self, v: &mut Vec<T>) {
        if self.deleted.is_empty() && self.inserted.is_empty() {
            return;
        }
        let mut old = std::mem::take(v);
        *v = self
            .mapping
            .new_to_old
            .iter()
            .map(|o| o.map_or_else(T::default, |o| std::mem::take(&mut old[o])))
            .collect();
    }
}

/// Work counters for one incremental detection run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaDetectionStats {
    /// Rows before the delta.
    pub old_rows: usize,
    /// Rows after the delta.
    pub new_rows: usize,
    /// Rows whose pairs were scored again: inserted, updated, drifted by a
    /// corpus-statistics step, or moved within reach of a blocking window.
    pub dirty_rows: usize,
    /// Rows whose compared cells were rendered again (inserted, updated).
    pub rows_rerendered: usize,
    /// Rows not rendered again whose cells moved because a quantized count
    /// or a scale they read stepped.
    pub rows_reweighted: usize,
    /// Candidate pairs generated by the incremental blocking index.
    pub candidates: usize,
    /// Full similarity evaluations performed.
    pub compared: usize,
    /// Candidates discarded by the upper-bound filter.
    pub filtered_out: usize,
    /// Accepted pairs carried over without rescoring.
    pub carried_pairs: usize,
    /// Unsure pairs carried over without rescoring.
    pub carried_unsure: usize,
    /// Accepted pairs produced by delta scoring.
    pub scored_pairs: usize,
    /// Unsure pairs produced by delta scoring.
    pub scored_unsure: usize,
    /// Old connected components dissolved and re-clustered.
    pub affected_components: usize,
    /// Old connected components whose union-find structure was preserved.
    pub preserved_components: usize,
    /// True when the delta was scored as a full rescore (a quantization
    /// step dirtied a majority of rows, the attribute selection changed, or
    /// the table's columns did).
    pub full_rescore: bool,
    /// Why a full rescore happened, when it did.
    pub fallback_reason: Option<String>,
}

/// Everything incremental detection reads about one table besides the old
/// result: the measure together with the counts behind its weights, the
/// per-column counts attribute selection reads, and the blocking
/// strategy's key order — kept across deltas so that a delta
/// costs its delta (see the module docs).
///
/// An index is built once ([`DetectionIndex::build`]) and then carried:
/// [`DetectionIndex::apply_delta`] moves it to describe the new table. It
/// is deliberately not `Clone`: whoever holds it hands it on.
#[derive(Debug)]
pub struct DetectionIndex {
    cfg: DetectorConfig,
    /// The indexed table's column names.
    columns: Vec<String>,
    /// Per-column counts for the selection heuristics (`None` when the
    /// configuration names its attributes).
    selection: Option<SelectionCounts>,
    measure: TupleSimilarity,
    counts: Vec<ColumnCounts>,
    candidates: CandidateIndex,
}

impl DetectionIndex {
    /// Index `table` for detection under `cfg`: what
    /// [`crate::detect_duplicates`] computes before scoring, plus the counts
    /// that let a delta move it.
    pub fn build(table: &Table, cfg: &DetectorConfig) -> Result<Self> {
        check_thresholds(cfg)?;
        let selection = cfg
            .attributes
            .is_none()
            .then(|| SelectionCounts::new(table));
        let attrs = attributes_from(table, cfg, || {
            let scores = selection.as_ref().expect("counted above").scores();
            select_from_scores(scores, &cfg.heuristics)
        })?;
        let candidates = resolve_candidate_strategy(table, &cfg.candidates)?;
        let (measure, counts) = TupleSimilarity::with_counts(table, attrs);
        Ok(DetectionIndex {
            cfg: cfg.clone(),
            columns: column_names(table),
            selection,
            measure,
            counts,
            candidates,
        })
    }

    /// The measure over the indexed table.
    pub fn measure(&self) -> &TupleSimilarity {
        &self.measure
    }

    /// [`crate::score_attributes`] over the indexed table, from the kept
    /// counts; `None` when the configuration names its attributes.
    pub fn attribute_scores(&self) -> Option<Vec<AttributeScore>> {
        self.selection.as_ref().map(SelectionCounts::scores)
    }

    /// Every candidate pair of the indexed table, in the order
    /// [`crate::candidate_pairs`] produces them.
    pub fn candidates(&self) -> Vec<(usize, usize)> {
        self.candidates.pairs(self.measure.row_count())
    }

    /// Update `old` — the result over `old_table`, which this index
    /// describes — to describe `new_table`, where `mapping` relates the two
    /// tables' rows; afterwards the index describes `new_table`.
    ///
    /// Output (everything except the work counters in `stats`) is
    /// bit-identical to [`crate::detect_duplicates`] over `new_table` at
    /// every degree — see the module docs for the argument. On error the
    /// index may be half-moved: drop it.
    pub fn apply_delta(
        &mut self,
        old_table: &Table,
        old: &DetectionResult,
        new_table: &Table,
        mapping: &RowMapping,
        par: Parallelism,
    ) -> Result<(DetectionResult, DeltaDetectionStats)> {
        check_thresholds(&self.cfg)?;
        if mapping.old_len() != old_table.len() || mapping.new_len() != new_table.len() {
            return Err(EngineError::Expression(format!(
                "row mapping shape ({} -> {}) does not match the tables ({} -> {})",
                mapping.old_len(),
                mapping.new_len(),
                old_table.len(),
                new_table.len()
            )));
        }
        if old.cluster_ids.len() != old_table.len() {
            return Err(EngineError::Expression(
                "old detection result does not describe the old table".into(),
            ));
        }
        if self.measure.row_count() != old_table.len()
            || self.columns != column_names(old_table)
            || attribute_names(old_table, &self.measure) != old.attributes_used
        {
            return Err(EngineError::Expression(
                "detection index does not describe the old table and result".into(),
            ));
        }

        // A changed union schema (matching moved a correspondence) leaves
        // no column to carry: re-index.
        if column_names(new_table) != self.columns {
            *self = DetectionIndex::build(new_table, &self.cfg)?;
            return Ok(self.full_rescore(new_table, mapping, par, "union schema changed", 0, 0));
        }

        let changes = RowChanges::new(old_table, new_table, mapping);
        if let Some(selection) = &mut self.selection {
            selection.apply(old_table, new_table, &changes);
            let attrs = attributes_from(new_table, &self.cfg, || {
                select_from_scores(selection.scores(), &self.cfg.heuristics)
            })?;
            if attrs != self.measure.attrs() {
                let (measure, counts) = TupleSimilarity::with_counts(new_table, attrs);
                (self.measure, self.counts) = (measure, counts);
                self.candidates
                    .apply_delta(new_table, &changes, &mut vec![false; new_table.len()]);
                let reason = "attribute selection changed";
                return Ok(self.full_rescore(new_table, mapping, par, reason, 0, 0));
            }
        }

        let moved = self
            .measure
            .apply_delta(&mut self.counts, old_table, new_table, &changes);
        let mut dirty = moved.dirty;
        self.candidates.apply_delta(new_table, &changes, &mut dirty);
        let dirty_rows: Vec<usize> = (0..dirty.len()).filter(|&i| dirty[i]).collect();

        // When a corpus-statistics step dirties most of the table, carrying
        // costs more than it saves: score every candidate instead.
        if 2 * dirty_rows.len() > new_table.len() {
            let reason = "delta dirtied a majority of rows (corpus-statistics window crossed)";
            let (rerendered, reweighted) = (moved.rerendered, moved.reweighted);
            return Ok(self.full_rescore(new_table, mapping, par, reason, rerendered, reweighted));
        }

        let candidates = self.candidates.pairs_touching(&dirty, &dirty_rows);
        let (result, mut stats) =
            self.carry_over(old, new_table, mapping, &dirty, &candidates, par);
        stats.dirty_rows = dirty_rows.len();
        stats.rows_rerendered = moved.rerendered;
        stats.rows_reweighted = moved.reweighted;
        Ok((result, stats))
    }

    /// Score every candidate of the indexed `table` with the index's
    /// measure, reported as a (degenerate) delta outcome.
    fn full_rescore(
        &self,
        table: &Table,
        mapping: &RowMapping,
        par: Parallelism,
        reason: &str,
        rows_rerendered: usize,
        rows_reweighted: usize,
    ) -> (DetectionResult, DeltaDetectionStats) {
        let candidates = self.candidates();
        let result = detect_candidates(table, &self.measure, &candidates, &self.cfg, par);
        let stats = DeltaDetectionStats {
            old_rows: mapping.old_len(),
            new_rows: table.len(),
            dirty_rows: table.len(),
            rows_rerendered,
            rows_reweighted,
            candidates: result.stats.candidates,
            compared: result.stats.compared,
            filtered_out: result.stats.filtered_out,
            scored_pairs: result.pairs.len(),
            scored_unsure: result.unsure.len(),
            affected_components: result.clusters.len(),
            full_rescore: true,
            fallback_reason: Some(reason.to_string()),
            ..Default::default()
        };
        (result, stats)
    }

    /// Score `candidates` (every candidate pair with a dirty endpoint),
    /// carry every other classification of `old`, and re-cluster only the
    /// affected components.
    fn carry_over(
        &self,
        old: &DetectionResult,
        table: &Table,
        mapping: &RowMapping,
        dirty: &[bool],
        candidates: &[(usize, usize)],
        par: Parallelism,
    ) -> (DetectionResult, DeltaDetectionStats) {
        let scored = score_candidates(table, &self.measure, &self.cfg, candidates, par);

        // Carry over every classification whose endpoints are both clean;
        // their scores are bit-identical by construction, and — the
        // blocking index dirtied every row whose candidate pairs changed —
        // they are still candidates. Accepted pairs remember their old
        // component for the scoped re-clustering below.
        let carry = |from: &[DuplicatePair]| -> Vec<(DuplicatePair, usize)> {
            from.iter()
                .filter_map(|p| {
                    let (l, r) = (mapping.old_to_new[p.left]?, mapping.old_to_new[p.right]?);
                    debug_assert!(l < r, "monotone mapping preserves pair orientation");
                    let pair = DuplicatePair {
                        left: l,
                        right: r,
                        similarity: p.similarity,
                    };
                    (!dirty[l] && !dirty[r]).then_some((pair, old.cluster_ids[p.left]))
                })
                .collect()
        };
        let (mut pairs, carried_components): (Vec<DuplicatePair>, Vec<usize>) =
            carry(&old.pairs).into_iter().unzip();
        let mut unsure: Vec<DuplicatePair> =
            carry(&old.unsure).into_iter().map(|(p, _)| p).collect();
        let (carried_pairs, carried_unsure) = (pairs.len(), unsure.len());

        // Incremental closure. An old component is *affected* when it lost a
        // member or contains a dirty row; everything else keeps its structure.
        let mut affected = vec![false; old.clusters.len()];
        for (o, n) in mapping.old_to_new.iter().enumerate() {
            let cid = old.cluster_ids[o];
            match n {
                None => affected[cid] = true,
                Some(n) => affected[cid] |= dirty[*n],
            }
        }
        let affected_components = affected.iter().filter(|a| **a).count();
        let mut uf = UnionFind::new(table.len());
        // Preserved components: unions applied directly along the member
        // chain (no pair consulted). No merged pair can join two preserved
        // components: accepted pairs lie within one old component by
        // transitivity, and every delta-scored pair has a dirty endpoint.
        for (cid, members) in old.clusters.iter().enumerate() {
            if affected[cid] {
                continue;
            }
            let mut prev: Option<usize> = None;
            for &m in members {
                let n = mapping.old_to_new[m].expect("unaffected components lose no members");
                if let Some(p) = prev {
                    uf.union(p, n);
                }
                prev = Some(n);
            }
        }
        // Affected components re-cluster from scratch: carried pairs that
        // lived in them, plus everything the delta scored.
        for (p, cid) in pairs.iter().zip(&carried_components) {
            if affected[*cid] {
                uf.union(p.left, p.right);
            }
        }
        for p in &scored.pairs {
            uf.union(p.left, p.right);
        }

        // Merge carried and scored classifications into the canonical order.
        let scored_pairs = scored.pairs.len();
        let scored_unsure = scored.unsure.len();
        pairs.extend(scored.pairs);
        unsure.extend(scored.unsure);
        sort_pairs_canonical(&mut pairs);
        sort_pairs_canonical(&mut unsure);

        let (cluster_ids, clusters) = uf.cluster_views();
        let stats = DeltaDetectionStats {
            old_rows: mapping.old_len(),
            new_rows: table.len(),
            candidates: candidates.len(),
            compared: scored.compared,
            filtered_out: scored.filtered_out,
            carried_pairs,
            carried_unsure,
            scored_pairs,
            scored_unsure,
            affected_components,
            preserved_components: old.clusters.len() - affected_components,
            ..Default::default()
        };
        let result = DetectionResult {
            pairs,
            unsure,
            cluster_ids,
            clusters,
            stats: DetectionStats {
                candidates: stats.candidates,
                filtered_out: stats.filtered_out,
                compared: stats.compared,
                memo_hits: 0,
            },
            attributes_used: attribute_names(table, &self.measure),
        };
        (result, stats)
    }
}

fn column_names(table: &Table) -> Vec<String> {
    table
        .schema()
        .names()
        .iter()
        .map(|s| s.to_string())
        .collect()
}

/// Incrementally update `old` (detected over `old_table`) to describe
/// `new_table`, where `mapping` relates the two tables' rows — for a
/// caller that kept no [`DetectionIndex`]: one is built over `old_table`
/// and carried once.
///
/// Output (everything except the work counters in `stats`) is
/// bit-identical to [`crate::detect_duplicates`] over `new_table` at
/// every degree — see the module docs for the argument. `cfg` must be the
/// configuration that produced `old`.
///
/// # Example
///
/// ```
/// use hummer_dupdetect::{detect_duplicates, detect_delta, DetectorConfig, Parallelism, RowMapping};
/// use hummer_engine::table;
///
/// let before = table! {
///     "People" => ["Name", "City"];
///     ["John Smith", "Berlin"],
///     ["Mary Jones", "Hamburg"],
/// };
/// let after = table! {
///     "People" => ["Name", "City"];
///     ["John Smith", "Berlin"],
///     ["Mary Jones", "Hamburg"],
///     ["Jon Smith",  "Berlin"],   // inserted typo duplicate
/// };
/// let cfg = DetectorConfig { threshold: 0.6, unsure_threshold: 0.5, ..Default::default() };
/// let old = detect_duplicates(&before, &cfg, Parallelism::sequential()).unwrap();
/// let mapping = RowMapping::new(vec![Some(0), Some(1)], 3).unwrap();
/// let (updated, stats) = detect_delta(&before, &old, &after, &mapping, &cfg, Default::default()).unwrap();
/// assert_eq!(updated.object_count(), 2); // the Smiths cluster
/// assert_eq!(stats.new_rows, 3);
/// let scratch = detect_duplicates(&after, &cfg, Parallelism::sequential()).unwrap();
/// assert_eq!(updated.cluster_ids, scratch.cluster_ids);
/// ```
pub fn detect_delta(
    old_table: &Table,
    old: &DetectionResult,
    new_table: &Table,
    mapping: &RowMapping,
    cfg: &DetectorConfig,
    par: Parallelism,
) -> Result<(DetectionResult, DeltaDetectionStats)> {
    DetectionIndex::build(old_table, cfg)?.apply_delta(old_table, old, new_table, mapping, par)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::detect_duplicates;
    use crate::CandidateSpec;
    use hummer_engine::{table, Row, Value};

    fn people() -> Table {
        table! {
            "People" => ["Name", "City", "Age"];
            ["John Smith", "Berlin", 34],
            ["Jon Smith", "Berlin", 34],
            ["Mary Jones", "Hamburg", 28],
            ["Mary Jones", "Hamburg", 28],
            ["Peter Miller", "Munich", 45],
            ["Ada Lovelace", "London", 36],
        }
    }

    fn cfg() -> DetectorConfig {
        DetectorConfig {
            threshold: 0.75,
            unsure_threshold: 0.55,
            ..Default::default()
        }
    }

    /// Every field of the contract (everything but `stats`).
    fn assert_matches_scratch(incremental: &DetectionResult, new_table: &Table) {
        assert_matches_scratch_under(incremental, new_table, &cfg());
    }

    fn assert_matches_scratch_under(
        incremental: &DetectionResult,
        new_table: &Table,
        cfg: &DetectorConfig,
    ) {
        let scratch = detect_duplicates(new_table, cfg, Parallelism::sequential()).unwrap();
        assert_eq!(incremental.pairs, scratch.pairs);
        assert_eq!(incremental.unsure, scratch.unsure);
        assert_eq!(incremental.cluster_ids, scratch.cluster_ids);
        assert_eq!(incremental.clusters, scratch.clusters);
        assert_eq!(incremental.attributes_used, scratch.attributes_used);
    }

    /// The carried index equals one built from scratch over `table`: every
    /// row's cells, the scales, the attribute scores and the candidates.
    fn assert_index_matches_scratch(index: &DetectionIndex, table: &Table, cfg: &DetectorConfig) {
        let scratch = DetectionIndex::build(table, cfg).unwrap();
        let (carried, fresh) = (index.measure(), scratch.measure());
        assert_eq!(carried.attrs(), fresh.attrs());
        assert_eq!(carried.row_count(), fresh.row_count());
        assert_eq!(carried.range_bits(), fresh.range_bits());
        for i in 0..table.len() {
            assert!(carried.row_cells_identical(i, fresh, i), "row {i}");
        }
        let bits = |scores: Option<Vec<AttributeScore>>| -> Option<Vec<(u64, u64, u64)>> {
            scores.map(|s| {
                s.iter()
                    .map(|a| {
                        (
                            a.coverage.to_bits(),
                            a.distinctness.to_bits(),
                            a.score.to_bits(),
                        )
                    })
                    .collect()
            })
        };
        assert_eq!(
            bits(index.attribute_scores()),
            bits(scratch.attribute_scores())
        );
        assert_eq!(index.candidates(), scratch.candidates());
        let fresh = resolve_candidate_strategy(table, &cfg.candidates).unwrap();
        assert_eq!(index.candidates(), crate::candidate_pairs(table, &fresh));
    }

    /// The dirty set the old detector found by building both measures from
    /// scratch and comparing every row's cells: rows whose cells are not
    /// bit-identical, inserted rows, and numeric cells under a moved scale.
    fn oracle_dirty(
        before: &Table,
        after: &Table,
        mapping: &RowMapping,
        attrs: &[usize],
    ) -> Vec<bool> {
        let old = TupleSimilarity::new(before, attrs.to_vec());
        let new = TupleSimilarity::new(after, attrs.to_vec());
        let mut dirty: Vec<bool> = mapping
            .new_to_old
            .iter()
            .enumerate()
            .map(|(i, o)| o.is_none_or(|o| !new.row_cells_identical(i, &old, o)))
            .collect();
        for (k, (ro, rn)) in old.range_bits().iter().zip(&new.range_bits()).enumerate() {
            if ro != rn {
                for (i, d) in dirty.iter_mut().enumerate() {
                    *d |= new.cell_is_numeric(i, k);
                }
            }
        }
        dirty
    }

    /// One delta through a carried index, checked every way: the result
    /// against a from-scratch detection at degrees 1–4, the carried index
    /// against one built from scratch, and — when the attribute selection
    /// held — the count-derived dirty set against the scan oracle (equal,
    /// so in particular a superset).
    fn check_delta(
        before: &Table,
        after: &Table,
        mapping: &RowMapping,
        cfg: &DetectorConfig,
    ) -> DeltaDetectionStats {
        let old = detect_duplicates(before, cfg, Parallelism::sequential()).unwrap();
        let mut stats = None;
        for degree in 1..=4 {
            let mut index = DetectionIndex::build(before, cfg).unwrap();
            let (result, s) = index
                .apply_delta(before, &old, after, mapping, Parallelism::degree(degree))
                .unwrap();
            assert_matches_scratch_under(&result, after, cfg);
            assert_index_matches_scratch(&index, after, cfg);
            stats = Some(s);
        }

        let mut index = DetectionIndex::build(before, cfg).unwrap();
        let attrs = index.measure.attrs().to_vec();
        if crate::resolve_attributes(after, cfg).unwrap() == attrs {
            let changes = RowChanges::new(before, after, mapping);
            let moved = index
                .measure
                .apply_delta(&mut index.counts, before, after, &changes);
            let oracle = oracle_dirty(before, after, mapping, &attrs);
            for (i, (&got, &want)) in moved.dirty.iter().zip(&oracle).enumerate() {
                assert!(
                    got || !want,
                    "row {i}: the oracle finds it dirty, the counts do not"
                );
            }
            assert_eq!(moved.dirty, oracle, "count-derived dirty set");
        }
        stats.expect("ran")
    }

    fn edit(table: &Table, f: impl FnOnce(&mut Vec<Row>)) -> Table {
        let mut rows = table.rows().to_vec();
        f(&mut rows);
        let names: Vec<String> = table
            .schema()
            .names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        Table::from_rows(table.name(), &names, rows).unwrap()
    }

    fn update(table: &Table, row: usize, values: Vec<Value>) -> (Table, RowMapping) {
        let after = edit(table, |rows| rows[row] = Row::from_values(values));
        let mapping = RowMapping::identity(table.len());
        (after, mapping)
    }

    fn insert(table: &Table, values: Vec<Value>) -> (Table, RowMapping) {
        let after = edit(table, |rows| rows.push(Row::from_values(values)));
        let mapping =
            RowMapping::new((0..table.len()).map(Some).collect(), table.len() + 1).unwrap();
        (after, mapping)
    }

    fn delete(table: &Table, row: usize) -> (Table, RowMapping) {
        let after = edit(table, |rows| {
            rows.remove(row);
        });
        let old_to_new = (0..table.len())
            .map(|i| match i.cmp(&row) {
                std::cmp::Ordering::Less => Some(i),
                std::cmp::Ordering::Equal => None,
                std::cmp::Ordering::Greater => Some(i - 1),
            })
            .collect();
        (after, RowMapping::new(old_to_new, table.len() - 1).unwrap())
    }

    #[test]
    fn insert_only_delta_matches_scratch() {
        let before = people();
        let old = detect_duplicates(&before, &cfg(), Parallelism::sequential()).unwrap();
        let after = edit(&before, |rows| {
            rows.push(Row::from_values(vec![
                Value::text("Peter Miller"),
                Value::text("Munich"),
                Value::Int(45),
            ]));
        });
        let mapping = RowMapping::new((0..6).map(Some).collect(), 7).unwrap();
        let (result, stats) = detect_delta(
            &before,
            &old,
            &after,
            &mapping,
            &cfg(),
            Parallelism::sequential(),
        )
        .unwrap();
        // On a 6-row table the insert moves the (exact, sub-64) document
        // count, so every weight — and with it every row — goes dirty, and
        // the majority-dirty guard degrades to a full rescore. The
        // carry-over economics only kick in at quantized corpus sizes; what
        // matters here is that the result is still exactly from-scratch.
        assert!(stats.full_rescore);
        assert_eq!(stats.new_rows, 7);
        assert_matches_scratch(&result, &after);
    }

    #[test]
    fn update_delta_matches_scratch() {
        let before = people();
        let old = detect_duplicates(&before, &cfg(), Parallelism::sequential()).unwrap();
        // Fix the typo: "Jon" -> "John" (strengthens the cluster).
        let after = edit(&before, |rows| {
            rows[1] = Row::from_values(vec![
                Value::text("John Smith"),
                Value::text("Berlin"),
                Value::Int(34),
            ]);
        });
        let mapping = RowMapping::identity(6);
        let (result, stats) = detect_delta(
            &before,
            &old,
            &after,
            &mapping,
            &cfg(),
            Parallelism::sequential(),
        )
        .unwrap();
        assert!(!stats.full_rescore);
        assert!(stats.carried_pairs + stats.scored_pairs >= result.pairs.len());
        assert_matches_scratch(&result, &after);
    }

    #[test]
    fn delete_delta_matches_scratch() {
        let before = people();
        let old = detect_duplicates(&before, &cfg(), Parallelism::sequential()).unwrap();
        // Delete one Mary (breaks that cluster down to a singleton).
        let after = edit(&before, |rows| {
            rows.remove(3);
        });
        let mapping =
            RowMapping::new(vec![Some(0), Some(1), Some(2), None, Some(3), Some(4)], 5).unwrap();
        let (result, stats) = detect_delta(
            &before,
            &old,
            &after,
            &mapping,
            &cfg(),
            Parallelism::sequential(),
        )
        .unwrap();
        assert!(stats.affected_components >= 1);
        assert_matches_scratch(&result, &after);
    }

    #[test]
    fn mixed_delta_matches_scratch_at_every_degree() {
        let before = people();
        let old = detect_duplicates(&before, &cfg(), Parallelism::sequential()).unwrap();
        let after = edit(&before, |rows| {
            rows.remove(4); // delete Peter
            rows[0] = Row::from_values(vec![
                Value::text("John A Smith"),
                Value::text("Berlin"),
                Value::Int(34),
            ]);
            rows.push(Row::from_values(vec![
                Value::text("Ada Lovelace"),
                Value::text("London"),
                Value::Int(37),
            ]));
        });
        let mapping =
            RowMapping::new(vec![Some(0), Some(1), Some(2), Some(3), None, Some(4)], 6).unwrap();
        for degree in 1..=4 {
            let (result, _) = detect_delta(
                &before,
                &old,
                &after,
                &mapping,
                &cfg(),
                Parallelism::degree(degree),
            )
            .unwrap();
            assert_matches_scratch(&result, &after);
        }
    }

    /// A corpus large enough for the quantized-count window: deleting one
    /// row leaves every other row's caches bit-identical, so the delta
    /// carries all surviving pairs, dissolves only the deleted row's
    /// component, and skips the quadratic work.
    #[test]
    fn delete_inside_stats_window_carries_pairs() {
        // 71 rows: q(71) == q(70) == 70 for the document count, so the
        // delete does not cross a window boundary.
        let mut rows: Vec<Row> = (0..69)
            .map(|i| Row::from_values(vec![Value::text(format!("solo person number {i}"))]))
            .collect();
        rows.push(Row::from_values(vec![Value::text(
            "twin alexander hamilton",
        )]));
        rows.push(Row::from_values(vec![Value::text(
            "twin alexander hamilton",
        )]));
        let before = Table::from_rows("T", &["Name"], rows).unwrap();
        let cfg = DetectorConfig {
            attributes: Some(vec!["Name".into()]),
            threshold: 0.7,
            unsure_threshold: 0.55,
            ..Default::default()
        };
        let old = detect_duplicates(&before, &cfg, Parallelism::sequential()).unwrap();
        assert!(!old.pairs.is_empty(), "the twins must pair up");

        // Delete row 5 (a solo, far from the twins).
        let (after, mapping) = delete(&before, 5);
        let (result, stats) = detect_delta(
            &before,
            &old,
            &after,
            &mapping,
            &cfg,
            Parallelism::sequential(),
        )
        .unwrap();
        assert!(!stats.full_rescore, "{:?}", stats.fallback_reason);
        assert_eq!(stats.dirty_rows, 0, "window held: nothing to re-score");
        assert_eq!(stats.candidates, 0);
        assert!(stats.carried_pairs >= 1, "twin pair carried");
        assert_eq!(stats.affected_components, 1, "only the deleted singleton");
        assert!(stats.preserved_components > 60);
        let scratch = detect_duplicates(&after, &cfg, Parallelism::sequential()).unwrap();
        assert_eq!(result.pairs, scratch.pairs);
        assert_eq!(result.unsure, scratch.unsure);
        assert_eq!(result.cluster_ids, scratch.cluster_ids);
        assert_eq!(result.clusters, scratch.clusters);
    }

    #[test]
    fn empty_delta_is_cheap_and_identical() {
        let before = people();
        let old = detect_duplicates(&before, &cfg(), Parallelism::sequential()).unwrap();
        let (result, stats) = detect_delta(
            &before,
            &old,
            &before,
            &RowMapping::identity(6),
            &cfg(),
            Parallelism::sequential(),
        )
        .unwrap();
        assert_eq!(stats.dirty_rows, 0);
        assert_eq!(stats.candidates, 0);
        assert_eq!(stats.compared, 0);
        assert_eq!(stats.preserved_components, old.clusters.len());
        assert_matches_scratch(&result, &before);
    }

    #[test]
    fn mapping_validation_rejects_bad_shapes() {
        assert!(RowMapping::new(vec![Some(3)], 2).is_err()); // out of bounds
        assert!(RowMapping::new(vec![Some(0), Some(0)], 2).is_err()); // collision
        assert!(RowMapping::new(vec![Some(1), Some(0)], 2).is_err()); // not monotone
        let m = RowMapping::new(vec![Some(0), None, Some(2)], 3).unwrap();
        assert_eq!(m.new_to_old, vec![Some(0), None, Some(2)]);
        assert_eq!(m.inserted(), 1);
        assert_eq!(m.deleted(), 1);

        let before = people();
        let old = detect_duplicates(&before, &cfg(), Parallelism::sequential()).unwrap();
        let bad = RowMapping::identity(3);
        assert!(detect_delta(
            &before,
            &old,
            &before,
            &bad,
            &cfg(),
            Parallelism::sequential()
        )
        .is_err());
        // An index over another table is refused, not trusted.
        let mut index = DetectionIndex::build(&before, &cfg()).unwrap();
        let (shorter, mapping) = delete(&before, 0);
        let shorter_result =
            detect_duplicates(&shorter, &cfg(), Parallelism::sequential()).unwrap();
        assert!(index
            .apply_delta(
                &shorter,
                &shorter_result,
                &before,
                &mapping,
                Parallelism::sequential()
            )
            .is_err());
    }

    #[test]
    fn thresholds_validated() {
        let before = people();
        let old = detect_duplicates(&before, &cfg(), Parallelism::sequential()).unwrap();
        let bad = DetectorConfig {
            threshold: 0.5,
            unsure_threshold: 0.9,
            ..Default::default()
        };
        assert!(detect_delta(
            &before,
            &old,
            &before,
            &RowMapping::identity(6),
            &bad,
            Parallelism::sequential()
        )
        .is_err());
    }

    // ------------------------------------------------ carried-index boundaries

    /// `n` people over a few towns and ages: a table large enough that the
    /// non-null count is quantized (n ≥ 64).
    fn roster(n: usize) -> Table {
        let towns = ["Berlin", "Hamburg", "Munich", "Potsdam", "Bremen"];
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                Row::from_values(vec![
                    Value::text(format!("person{i} family{}", i % 40)),
                    Value::text(towns[i % towns.len()]),
                    Value::Int(20 + (i % 50) as i64),
                ])
            })
            .collect();
        Table::from_rows("Roster", &["Name", "Town", "Age"], rows).unwrap()
    }

    fn named(attrs: &[&str]) -> DetectorConfig {
        DetectorConfig {
            attributes: Some(attrs.iter().map(|a| a.to_string()).collect()),
            threshold: 0.75,
            unsure_threshold: 0.55,
            ..Default::default()
        }
    }

    fn row(name: &str, town: &str, age: i64) -> Vec<Value> {
        vec![Value::text(name), Value::text(town), Value::Int(age)]
    }

    /// An update whose only new token is unique: just the updated row moves.
    #[test]
    fn one_row_update_dirties_one_row() {
        let before = roster(300);
        let cfg = named(&["Name", "Town", "Age"]);
        let (after, mapping) = update(&before, 7, row("person7 family7 x", "Munich", 27));
        let stats = check_delta(&before, &after, &mapping, &cfg);
        assert!(!stats.full_rescore);
        assert_eq!((stats.dirty_rows, stats.rows_rerendered), (1, 1));
        assert_eq!(stats.rows_reweighted, 0);
        // Moving the row to another town steps both towns' exact (< 64)
        // counts: every row of either town is re-weighed.
        let (moved, mapping) = update(&after, 7, row("person7 family7 x", "Berlin", 27));
        let stats = check_delta(&after, &moved, &mapping, &cfg);
        assert_eq!(stats.rows_reweighted, 59 + 60, "{stats:?}");
    }

    /// A token's document frequency crossing 64 — exact below, quantized
    /// above — re-weighs every row holding it, in both directions.
    #[test]
    fn token_df_crossing_64_reweighs_its_rows() {
        // "family0 … family39" each label 300/40 rows; give one new token
        // to 63 rows, then the 64th.
        let base = roster(300);
        let tagged = edit(&base, |rows| {
            for r in rows.iter_mut().take(63) {
                let name = r[0].to_string();
                *r = Row::from_values(vec![
                    Value::text(format!("{name} shared")),
                    r[1].clone(),
                    r[2].clone(),
                ]);
            }
        });
        let cfg = named(&["Name", "Town", "Age"]);
        let (after, mapping) = update(&tagged, 100, row("person100 family20 shared", "Berlin", 20));
        let stats = check_delta(&tagged, &after, &mapping, &cfg);
        assert!(stats.rows_reweighted > 0, "{stats:?}");
        // And back below.
        let (back, mapping) = update(&after, 100, row("person100 family20", "Berlin", 20));
        let stats = check_delta(&after, &back, &mapping, &cfg);
        assert!(stats.rows_reweighted > 0, "{stats:?}");
    }

    /// An insert that steps the quantized non-null count re-weighs every
    /// row; the majority guard scores the delta as a full rescore.
    #[test]
    fn doc_count_step_reweighs_every_row() {
        // q(95) = 94 (step 2 above 64); q(96) = 96.
        let before = roster(95);
        let (after, mapping) = insert(&before, row("newcomer family3", "Berlin", 30));
        let stats = check_delta(&before, &after, &mapping, &named(&["Name", "Town", "Age"]));
        assert!(stats.full_rescore, "{stats:?}");
        assert!(stats.rows_reweighted > 48, "{stats:?}");
        // Inside a window the same insert dirties just the new row.
        let before = roster(96);
        let (after, mapping) = insert(&before, row("newcomer family3", "Berlin", 30));
        let stats = check_delta(&before, &after, &mapping, &named(&["Name", "Town", "Age"]));
        assert!(!stats.full_rescore, "{stats:?}");
    }

    /// A numeric value far out moves σ past a grid step: every numeric cell
    /// of the attribute is read under the new scale.
    #[test]
    fn numeric_scale_step_dirties_the_attribute() {
        let before = roster(200);
        let cfg = named(&["Name", "Age"]);
        let (after, mapping) = update(&before, 3, row("person3 family3", "Potsdam", 900));
        let scratch = TupleSimilarity::new(&after, vec![0, 2]);
        let old = TupleSimilarity::new(&before, vec![0, 2]);
        assert_ne!(
            old.range_bits(),
            scratch.range_bits(),
            "the scale must step"
        );
        let stats = check_delta(&before, &after, &mapping, &cfg);
        assert!(stats.dirty_rows > 100 || stats.full_rescore, "{stats:?}");
    }

    /// A cell going null leaves every count it held; coming back restores
    /// them — and a value turning a numeric attribute textual flips its
    /// weighting scheme.
    #[test]
    fn null_and_value_cells_move_their_counts() {
        let before = roster(150);
        let cfg = named(&["Name", "Town", "Age"]);
        let nulled = vec![Value::text("person9 family9"), Value::Null, Value::Null];
        let (after, mapping) = update(&before, 9, nulled);
        check_delta(&before, &after, &mapping, &cfg);
        let (back, mapping) = update(&after, 9, row("person9 family9", "Potsdam", 29));
        check_delta(&after, &back, &mapping, &cfg);
        let textual = vec![
            Value::text("person9 family9"),
            Value::text("Potsdam"),
            Value::text("old"),
        ];
        let (flipped, mapping) = update(&back, 9, textual);
        assert_ne!(
            TupleSimilarity::new(&back, vec![2]).range_bits(),
            TupleSimilarity::new(&flipped, vec![2]).range_bits()
        );
        check_delta(&back, &flipped, &mapping, &cfg);
        let (unflipped, mapping) = update(&flipped, 9, row("person9 family9", "Potsdam", 29));
        check_delta(&flipped, &unflipped, &mapping, &cfg);
    }

    /// A brand-new token, and a rendering whose rows drop to zero and come
    /// back under its old id.
    #[test]
    fn renderings_leave_and_return() {
        let before = roster(150);
        let cfg = named(&["Name", "Town"]);
        // "Bremen" is held by 30 rows; the unique "Wittenberge" by none.
        let (after, mapping) = update(&before, 4, row("person4 family4", "Wittenberge", 24));
        check_delta(&before, &after, &mapping, &cfg);
        // Row 4 was the only "person4 family4"; delete it, then re-insert.
        let (gone, mapping) = delete(&after, 4);
        check_delta(&after, &gone, &mapping, &cfg);
        let (again, mapping) = insert(&gone, row("person4 family4", "Wittenberge", 24));
        check_delta(&gone, &again, &mapping, &cfg);
        // The carried index went through all three steps.
        let mut index = DetectionIndex::build(&before, &cfg).unwrap();
        let mut result = detect_duplicates(&before, &cfg, Parallelism::sequential()).unwrap();
        let mut table = before.clone();
        for (next, mapping) in [
            update(&before, 4, row("person4 family4", "Wittenberge", 24)),
            delete(&after, 4),
            insert(&gone, row("person4 family4", "Wittenberge", 24)),
        ] {
            let (r, _) = index
                .apply_delta(&table, &result, &next, &mapping, Parallelism::sequential())
                .unwrap();
            assert_matches_scratch_under(&r, &next, &cfg);
            assert_index_matches_scratch(&index, &next, &cfg);
            (result, table) = (r, next);
        }
    }

    /// A delta that changes which attributes the heuristics select
    /// re-indexes and rescores.
    #[test]
    fn attribute_selection_change_rescores() {
        // "Code" has 8 distinct values over 60 rows: 8/60 = 0.133 < 0.15.
        let rows: Vec<Row> = (0..60)
            .map(|i| {
                Row::from_values(vec![
                    Value::text(format!("name{i}")),
                    Value::text(format!("c{}", i % 8)),
                ])
            })
            .collect();
        let before = Table::from_rows("T", &["Name", "Code"], rows).unwrap();
        let cfg = cfg();
        let selected = |t: &Table| crate::resolve_attributes(t, &cfg).unwrap();
        assert_eq!(selected(&before), vec![0]);
        // A ninth distinct code: 9/60 = 0.15 clears the bar.
        let (after, mapping) = update(&before, 0, vec![Value::text("name0"), Value::text("c8")]);
        assert_eq!(selected(&after), vec![0, 1]);
        let stats = check_delta(&before, &after, &mapping, &cfg);
        assert!(stats.full_rescore);
        assert_eq!(
            stats.fallback_reason.as_deref(),
            Some("attribute selection changed")
        );
    }

    /// A key moving across a sorted-neighbourhood window: the rows around
    /// its old and its new position are re-scored, and every pair that
    /// entered or left a window is right.
    #[test]
    fn sorted_neighborhood_key_moves_across_the_window() {
        let before = roster(200);
        let sn = DetectorConfig {
            candidates: CandidateSpec::SortedNeighborhood {
                key: vec!["Name".into()],
                window: 4,
            },
            ..named(&["Name", "Town", "Age"])
        };
        // person150 sorts between person149 and person151; move it to the
        // front of the order.
        let (after, mapping) = update(&before, 150, row("aaa person150 family30", "Berlin", 20));
        let stats = check_delta(&before, &after, &mapping, &sn);
        assert!(!stats.full_rescore, "{stats:?}");
        assert!((2..=1 + 2 * 2 * 3).contains(&stats.dirty_rows), "{stats:?}");
        // Inserts and deletes shift every later position by one.
        let (inserted, mapping) = insert(&after, row("person150 family30", "Berlin", 20));
        check_delta(&after, &inserted, &mapping, &sn);
        let (deleted, mapping) = delete(&inserted, 17);
        check_delta(&inserted, &deleted, &mapping, &sn);
    }

    /// Sorted neighbourhood used to fall back to a full rescore on every
    /// delta; its index now carries it.
    #[test]
    fn sorted_neighborhood_delta_is_incremental() {
        let before = people();
        let sn_cfg = DetectorConfig {
            candidates: CandidateSpec::SortedNeighborhood {
                key: vec!["Name".into()],
                window: 3,
            },
            ..cfg()
        };
        let old = detect_duplicates(&before, &sn_cfg, Parallelism::sequential()).unwrap();
        let (result, stats) = detect_delta(
            &before,
            &old,
            &before,
            &RowMapping::identity(6),
            &sn_cfg,
            Parallelism::sequential(),
        )
        .unwrap();
        assert!(!stats.full_rescore);
        assert_eq!(stats.fallback_reason, None);
        assert_eq!(stats.candidates, 0);
        let scratch = detect_duplicates(&before, &sn_cfg, Parallelism::sequential()).unwrap();
        assert_eq!(result.cluster_ids, scratch.cluster_ids);
    }
}
