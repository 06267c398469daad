//! The duplicate detector: candidate generation → filter → pairwise
//! comparison → threshold classification → transitive closure → `objectID`.

use crate::blocking::{candidate_pairs, resolve_candidate_strategy, CandidateSpec};
use crate::columnar::score_candidates;
use crate::heuristics::{select_attributes, HeuristicConfig};
use crate::measure::TupleSimilarity;
use crate::unionfind::UnionFind;
use hummer_engine::error::EngineError;
use hummer_engine::{Column, ColumnType, Result, Row, Table, Value};
use hummer_par::Parallelism;

/// Name of the cluster column the detector appends: "the output of
/// duplicate detection is the same as the input relation, but enriched by
/// an objectID column for identification" (paper §2.3).
pub const OBJECT_ID_COLUMN: &str = "objectID";

/// Detector configuration.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Compare only these columns; `None` runs the attribute-selection
    /// heuristics (the demo's "adjust duplicate definition" step overrides
    /// this).
    pub attributes: Option<Vec<String>>,
    /// Heuristic parameters used when `attributes` is `None`.
    pub heuristics: HeuristicConfig,
    /// Candidate-pair strategy.
    pub candidates: CandidateSpec,
    /// Pairs scoring at or above this are duplicates.
    pub threshold: f64,
    /// Pairs in `[unsure_threshold, threshold)` are "unsure cases" for the
    /// user to decide (§3's three segments). Must be ≤ `threshold`.
    pub unsure_threshold: f64,
    /// Apply the cheap upper-bound filter before the full measure
    /// (§2.3: "the number of pairwise comparisons are reduced by applying a
    /// filter (upper bound to the similarity measure)").
    pub use_filter: bool,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            attributes: None,
            heuristics: HeuristicConfig::default(),
            candidates: CandidateSpec::AllPairs,
            // Calibrated against the generated scenario worlds (see
            // `tests/end_to_end.rs`): with the exact-vs-near numeric
            // weighting and the quantized corpus statistics in the measure
            // (ISSUE 4: step-function stats enable incremental detection),
            // 0.77 holds pairwise precision at ~1.0 across seeds while
            // keeping recall well above the unsure band, which catches the
            // borderline pairs for confirmation.
            threshold: 0.77,
            unsure_threshold: 0.6,
            use_filter: true,
        }
    }
}

/// A scored row pair (`left < right`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DuplicatePair {
    /// Smaller row index.
    pub left: usize,
    /// Larger row index.
    pub right: usize,
    /// Similarity under the tuple measure.
    pub similarity: f64,
}

/// Counters describing how much work detection did (benchmarked in E5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectionStats {
    /// Candidate pairs produced by the strategy.
    pub candidates: usize,
    /// Candidates discarded by the upper-bound filter without a full
    /// comparison.
    pub filtered_out: usize,
    /// Full similarity evaluations performed.
    pub compared: usize,
    /// Always 0. The pair scorer used to memoize edit distances per
    /// worker and report its hits here; the memo is gone (a bit-parallel
    /// edit distance costs about what the lookup did), but the `detect`
    /// span and hbench still read the field.
    pub memo_hits: usize,
}

/// The detector's output, rich enough for the demo's "confirm duplicates"
/// step: users can promote unsure pairs or reject accepted ones, then
/// re-form the transitive closure with [`DetectionResult::recluster`].
#[derive(Debug, Clone)]
pub struct DetectionResult {
    /// Accepted duplicate pairs (similarity ≥ threshold).
    pub pairs: Vec<DuplicatePair>,
    /// Unsure pairs (unsure_threshold ≤ similarity < threshold).
    pub unsure: Vec<DuplicatePair>,
    /// Dense cluster id per row (the future `objectID` values).
    pub cluster_ids: Vec<usize>,
    /// Clusters of row indices (singletons included), ordered by smallest
    /// member.
    pub clusters: Vec<Vec<usize>>,
    /// Work counters.
    pub stats: DetectionStats,
    /// Names of the columns that were compared.
    pub attributes_used: Vec<String>,
}

impl DetectionResult {
    /// Promote the unsure pair `(left, right)` to a confirmed duplicate.
    /// Returns false if no such unsure pair exists. Call
    /// [`DetectionResult::recluster`] afterwards.
    pub fn confirm_unsure(&mut self, left: usize, right: usize) -> bool {
        let (l, r) = (left.min(right), left.max(right));
        if let Some(pos) = self.unsure.iter().position(|p| p.left == l && p.right == r) {
            let p = self.unsure.remove(pos);
            self.pairs.push(p);
            true
        } else {
            false
        }
    }

    /// Reject an accepted duplicate pair (user says "not the same object").
    /// Returns false if the pair was not accepted. Call
    /// [`DetectionResult::recluster`] afterwards.
    pub fn reject_pair(&mut self, left: usize, right: usize) -> bool {
        let (l, r) = (left.min(right), left.max(right));
        let before = self.pairs.len();
        self.pairs.retain(|p| !(p.left == l && p.right == r));
        self.pairs.len() != before
    }

    /// Recompute the transitive closure from the current accepted pairs.
    pub fn recluster(&mut self) {
        let n = self.cluster_ids.len();
        let mut uf = UnionFind::new(n);
        for p in &self.pairs {
            uf.union(p.left, p.right);
        }
        (self.cluster_ids, self.clusters) = uf.cluster_views();
    }

    /// Number of detected real-world objects (clusters).
    pub fn object_count(&self) -> usize {
        self.clusters.len()
    }
}

/// Resolve the comparison attributes for `table` under `cfg`: explicit
/// names, or the selection heuristics. Shared by the full detector and the
/// incremental path so both always agree.
pub fn resolve_attributes(table: &Table, cfg: &DetectorConfig) -> Result<Vec<usize>> {
    attributes_from(table, cfg, || select_attributes(table, &cfg.heuristics))
}

/// [`resolve_attributes`] with the heuristics' answer supplied by `select`
/// (the incremental detector answers it from kept counts).
pub(crate) fn attributes_from(
    table: &Table,
    cfg: &DetectorConfig,
    select: impl FnOnce() -> Vec<usize>,
) -> Result<Vec<usize>> {
    let attrs: Vec<usize> = match &cfg.attributes {
        Some(names) => names
            .iter()
            .map(|n| table.resolve(n))
            .collect::<Result<_>>()?,
        None => select(),
    };
    if attrs.is_empty() {
        return Err(EngineError::Expression(
            "no usable attributes for duplicate detection (heuristics selected none)".into(),
        ));
    }
    Ok(attrs)
}

/// Merged output of [`score_candidates`]: the classified pairs (in
/// candidate order — unsorted) plus the filter/comparison counters.
#[derive(Debug, Clone, Default)]
pub struct ScoredCandidates {
    /// Accepted pairs (similarity ≥ threshold), candidate order.
    pub pairs: Vec<DuplicatePair>,
    /// Unsure pairs, candidate order.
    pub unsure: Vec<DuplicatePair>,
    /// Candidates discarded by the upper-bound filter.
    pub filtered_out: usize,
    /// Full similarity evaluations performed.
    pub compared: usize,
    /// Always 0 (see [`DetectionStats::memo_hits`]).
    pub memo_hits: usize,
    /// Pairs the block kernel's staged bound dropped while they still had a
    /// text attribute unresolved — each one skipped at least one edit
    /// distance. A work counter: dependent on chunking at higher degrees,
    /// and outside the identity contract.
    pub cut_short: usize,
    /// Edit distances the block kernel evaluated (same caveats as
    /// `cut_short`).
    pub edit_evals: usize,
}

/// The canonical order of the detector's pair lists: similarity descending,
/// ties in candidate (lexicographic `(left, right)`) order — exactly what
/// the full detector's stable sort over lexicographic candidates produces.
/// A total order (ties break on `(left, right)`, which is unique), so
/// concatenating disjoint sorted lists and re-sorting is deterministic.
pub fn sort_pairs_canonical(pairs: &mut [DuplicatePair]) {
    pairs.sort_by(|a, b| {
        b.similarity
            .total_cmp(&a.similarity)
            .then(a.left.cmp(&b.left))
            .then(a.right.cmp(&b.right))
    });
}

/// Run duplicate detection over a table with up to `par.get()` threads
/// scoring candidate pairs concurrently.
///
/// The candidate list is split into contiguous chunks, each chunk is scored
/// on its own thread against the shared (read-only) [`TupleSimilarity`]
/// caches, and the per-chunk accepted/unsure lists are concatenated in
/// chunk order — exactly the order one thread produces. The transitive
/// closure (union-find) then runs single-threaded over the merged pairs.
/// Output is therefore **bit-identical** at every degree;
/// `tests/parallel_equivalence.rs::parallel_pipeline_matches_sequential`
/// enforces this.
///
/// # Example
///
/// ```
/// use hummer_dupdetect::{detect_duplicates, DetectorConfig, Parallelism};
/// use hummer_engine::table;
///
/// let people = table! {
///     "People" => ["Name", "City"];
///     ["John Smith", "Berlin"],
///     ["Jon Smith",  "Berlin"],   // typo duplicate
///     ["Mary Jones", "Hamburg"],
/// };
/// let cfg = DetectorConfig { threshold: 0.6, unsure_threshold: 0.5, ..Default::default() };
/// let result = detect_duplicates(&people, &cfg, Parallelism::sequential()).unwrap();
/// assert_eq!(result.object_count(), 2); // the two Smiths cluster
/// assert_eq!(result.cluster_ids[0], result.cluster_ids[1]);
/// ```
pub fn detect_duplicates(
    table: &Table,
    cfg: &DetectorConfig,
    par: Parallelism,
) -> Result<DetectionResult> {
    check_thresholds(cfg)?;
    let attrs = resolve_attributes(table, cfg)?;
    let candidates = candidate_pairs(table, &resolve_candidate_strategy(table, &cfg.candidates)?);
    let measure = TupleSimilarity::new(table, attrs);
    Ok(detect_candidates(table, &measure, &candidates, cfg, par))
}

/// `unsure_threshold` must not exceed `threshold`.
pub(crate) fn check_thresholds(cfg: &DetectorConfig) -> Result<()> {
    if cfg.unsure_threshold > cfg.threshold {
        return Err(EngineError::Expression(format!(
            "unsure_threshold {} exceeds threshold {}",
            cfg.unsure_threshold, cfg.threshold
        )));
    }
    Ok(())
}

/// The names of `measure`'s attributes in `table`.
pub(crate) fn attribute_names(table: &Table, measure: &TupleSimilarity) -> Vec<String> {
    measure
        .attrs()
        .iter()
        .map(|&i| table.schema().column(i).name.clone())
        .collect()
}

/// Score every candidate, classify, and close transitively: the detector
/// after candidate generation, shared by the full detector and the
/// incremental one's full rescore.
pub(crate) fn detect_candidates(
    table: &Table,
    measure: &TupleSimilarity,
    candidates: &[(usize, usize)],
    cfg: &DetectorConfig,
    par: Parallelism,
) -> DetectionResult {
    // Score candidate chunks on up to `par` threads; the similarity caches
    // are shared read-only. Chunk results merge in candidate order, so the
    // pair lists match the sequential loop element for element.
    let scored = score_candidates(table, measure, cfg, candidates, par);
    let stats = DetectionStats {
        candidates: candidates.len(),
        filtered_out: scored.filtered_out,
        compared: scored.compared,
        memo_hits: 0,
    };
    let mut pairs = scored.pairs;
    let mut unsure = scored.unsure;
    // Canonical order: similarity descending, ties in candidate order —
    // the same comparator the incremental path uses.
    sort_pairs_canonical(&mut pairs);
    sort_pairs_canonical(&mut unsure);

    let mut result = DetectionResult {
        pairs,
        unsure,
        cluster_ids: vec![0; table.len()],
        clusters: Vec::new(),
        stats,
        attributes_used: attribute_names(table, measure),
    };
    result.recluster();
    result
}

/// Append the `objectID` column carrying each row's cluster id.
///
/// Rows are assembled once at their final width instead of cloning the
/// table and growing each row by a push (which reallocated every row,
/// since a cloned `Vec`'s capacity equals its length).
///
/// Errors when `result` does not describe `table` (its row count differs).
pub fn annotate_object_ids(table: &Table, result: &DetectionResult) -> Result<Table> {
    if table.len() != result.cluster_ids.len() {
        return Err(EngineError::Expression(format!(
            "detection result describes {} rows, table `{}` has {}",
            result.cluster_ids.len(),
            table.name(),
            table.len()
        )));
    }
    let schema = table
        .schema()
        .with_column(Column::new(OBJECT_ID_COLUMN, ColumnType::Int))?;
    let rows: Vec<Row> = table
        .rows()
        .iter()
        .zip(&result.cluster_ids)
        .map(|(row, &id)| {
            let mut values = Vec::with_capacity(row.len() + 1);
            values.extend(row.values().iter().cloned());
            values.push(Value::Int(id as i64));
            Row::from_values(values)
        })
        .collect();
    Table::new(table.name(), schema, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hummer_engine::table;

    fn people() -> Table {
        table! {
            "People" => ["Name", "City", "Age"];
            ["John Smith", "Berlin", 34],     // 0
            ["Jon Smith", "Berlin", 34],      // 1 dup of 0
            ["John Smith", (), 34],           // 2 dup of 0 (missing city)
            ["Mary Jones", "Hamburg", 28],    // 3
            ["Mary Jones", "Hamburg", 28],    // 4 dup of 3
            ["Peter Miller", "Munich", 45],   // 5 singleton
        }
    }

    fn cfg() -> DetectorConfig {
        DetectorConfig {
            threshold: 0.75,
            unsure_threshold: 0.55,
            ..Default::default()
        }
    }

    #[test]
    fn finds_clusters_with_transitive_closure() {
        let t = people();
        let r = detect_duplicates(&t, &cfg(), Parallelism::sequential()).unwrap();
        assert_eq!(r.object_count(), 3);
        assert_eq!(r.cluster_ids[0], r.cluster_ids[1]);
        assert_eq!(r.cluster_ids[0], r.cluster_ids[2]);
        assert_eq!(r.cluster_ids[3], r.cluster_ids[4]);
        assert_ne!(r.cluster_ids[0], r.cluster_ids[3]);
        assert_ne!(r.cluster_ids[5], r.cluster_ids[0]);
    }

    #[test]
    fn object_id_column_annotated() {
        let t = people();
        let r = detect_duplicates(&t, &cfg(), Parallelism::sequential()).unwrap();
        let annotated = annotate_object_ids(&t, &r).unwrap();
        assert!(annotated.schema().contains(OBJECT_ID_COLUMN));
        let oid = annotated.resolve(OBJECT_ID_COLUMN).unwrap();
        assert_eq!(annotated.cell(0, oid), annotated.cell(1, oid));
        assert_ne!(annotated.cell(0, oid), annotated.cell(5, oid));
    }

    #[test]
    fn annotating_another_table_errors() {
        let r = detect_duplicates(&people(), &cfg(), Parallelism::sequential()).unwrap();
        let shorter = table! { "T" => ["Name"]; ["x"] };
        assert!(annotate_object_ids(&shorter, &r).is_err());
    }

    #[test]
    fn filter_preserves_results() {
        let t = people();
        let with = detect_duplicates(
            &t,
            &DetectorConfig {
                use_filter: true,
                ..cfg()
            },
            Parallelism::sequential(),
        )
        .unwrap();
        let without = detect_duplicates(
            &t,
            &DetectorConfig {
                use_filter: false,
                ..cfg()
            },
            Parallelism::sequential(),
        )
        .unwrap();
        assert_eq!(with.pairs, without.pairs, "filter must be lossless");
        assert_eq!(with.cluster_ids, without.cluster_ids);
        assert!(with.stats.compared <= without.stats.compared);
        assert_eq!(without.stats.filtered_out, 0);
    }

    #[test]
    fn explicit_attributes_override_heuristics() {
        let t = people();
        let r = detect_duplicates(
            &t,
            &DetectorConfig {
                attributes: Some(vec!["Name".into()]),
                // one attribute = little evidence mass; lower bar
                threshold: 0.6,
                unsure_threshold: 0.5,
                ..cfg()
            },
            Parallelism::sequential(),
        )
        .unwrap();
        assert_eq!(r.attributes_used, vec!["Name"]);
        // On name alone, rows 0 and 2 are identical.
        assert_eq!(r.cluster_ids[0], r.cluster_ids[2]);
    }

    #[test]
    fn unknown_attribute_errors() {
        let t = people();
        let r = detect_duplicates(
            &t,
            &DetectorConfig {
                attributes: Some(vec!["Nope".into()]),
                ..cfg()
            },
            Parallelism::sequential(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn bad_thresholds_error() {
        let t = people();
        let r = detect_duplicates(
            &t,
            &DetectorConfig {
                threshold: 0.5,
                unsure_threshold: 0.9,
                ..Default::default()
            },
            Parallelism::sequential(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn unsure_band_collects_borderline_pairs() {
        let t = table! {
            "T" => ["Name"];
            ["jonathan q smithers"],
            ["jonathan q smithert"],  // very close → sure
            ["jonathan x smothers"],  // borderline-ish
        };
        let r = detect_duplicates(
            &t,
            &DetectorConfig {
                attributes: Some(vec!["Name".into()]),
                threshold: 0.63,
                unsure_threshold: 0.55,
                ..Default::default()
            },
            Parallelism::sequential(),
        )
        .unwrap();
        assert!(!r.pairs.is_empty());
        assert!(!r.unsure.is_empty());
    }

    #[test]
    fn confirm_and_reject_then_recluster() {
        let t = table! {
            "T" => ["Name"];
            ["jonathan q smithers"],
            ["jonathan q smithert"],
            ["jonathan x smothers"],
        };
        let mut r = detect_duplicates(
            &t,
            &DetectorConfig {
                attributes: Some(vec!["Name".into()]),
                threshold: 0.63,
                unsure_threshold: 0.55,
                ..Default::default()
            },
            Parallelism::sequential(),
        )
        .unwrap();
        let u = r.unsure[0];
        assert!(r.confirm_unsure(u.left, u.right));
        r.recluster();
        assert_eq!(r.cluster_ids[u.left], r.cluster_ids[u.right]);

        let p = r.pairs[0];
        assert!(r.reject_pair(p.right, p.left)); // order-insensitive
        assert!(!r.reject_pair(p.left, p.right)); // already gone
        r.recluster();
    }

    #[test]
    fn sorted_neighborhood_on_good_key_keeps_recall() {
        let t = people();
        let blocked = detect_duplicates(
            &t,
            &DetectorConfig {
                candidates: CandidateSpec::SortedNeighborhood {
                    key: vec!["Name".into()],
                    window: 3,
                },
                ..cfg()
            },
            Parallelism::sequential(),
        )
        .unwrap();
        let full = detect_duplicates(&t, &cfg(), Parallelism::sequential()).unwrap();
        assert!(blocked.stats.candidates <= full.stats.candidates);
        // Duplicates share name prefixes here, so blocking loses nothing.
        assert_eq!(blocked.cluster_ids, full.cluster_ids);
    }

    #[test]
    fn empty_table_detects_nothing() {
        let t = table! { "E" => ["Name"]; };
        let r = detect_duplicates(
            &t,
            &DetectorConfig {
                attributes: Some(vec!["Name".into()]),
                ..cfg()
            },
            Parallelism::sequential(),
        )
        .unwrap();
        assert!(r.pairs.is_empty());
        assert_eq!(r.object_count(), 0);
    }

    /// Regression (ISSUE 3 audit): clustering must not depend on the order
    /// pairs were scored/inserted — reversing the accepted-pair list and
    /// re-forming the closure yields the same `objectID`s.
    #[test]
    fn recluster_is_pair_order_independent() {
        let t = people();
        let mut r = detect_duplicates(&t, &cfg(), Parallelism::sequential()).unwrap();
        let original_ids = r.cluster_ids.clone();
        let original_clusters = r.clusters.clone();
        r.pairs.reverse();
        r.recluster();
        assert_eq!(r.cluster_ids, original_ids);
        assert_eq!(r.clusters, original_clusters);
        // Swapping left/right roles does not matter either.
        for p in &mut r.pairs {
            std::mem::swap(&mut p.left, &mut p.right);
        }
        let swapped: Vec<(usize, usize)> = r.pairs.iter().map(|p| (p.left, p.right)).collect();
        let mut uf = UnionFind::new(t.len());
        for (a, b) in swapped {
            uf.union(a, b);
        }
        assert_eq!(uf.cluster_ids(), original_ids);
    }

    /// The parallel scorer is bit-identical to the sequential one at every
    /// degree: same pairs (values *and* order), same stats, same clusters.
    /// The kernel's work counters (`cut_short`, `edit_evals`) are
    /// deliberately excluded — resolution order is per block, so they
    /// depend on how candidates were partitioned across threads.
    #[test]
    fn parallel_detection_matches_sequential() {
        let t = people();
        let seq = detect_duplicates(&t, &cfg(), Parallelism::sequential()).unwrap();
        for degree in 2..=8 {
            let par = detect_duplicates(&t, &cfg(), Parallelism::degree(degree)).unwrap();
            assert_eq!(par.pairs, seq.pairs, "degree {degree}");
            assert_eq!(par.unsure, seq.unsure, "degree {degree}");
            assert_eq!(
                par.stats.candidates, seq.stats.candidates,
                "degree {degree}"
            );
            assert_eq!(
                par.stats.filtered_out, seq.stats.filtered_out,
                "degree {degree}"
            );
            assert_eq!(par.stats.compared, seq.stats.compared, "degree {degree}");
            assert_eq!(par.cluster_ids, seq.cluster_ids, "degree {degree}");
        }
    }

    #[test]
    fn bookkeeping_columns_ignored_by_heuristics() {
        let mut t = people();
        t.add_column(Column::new("sourceID", ColumnType::Text), |i, _| {
            Value::text(format!("s{i}"))
        })
        .unwrap();
        let r = detect_duplicates(&t, &cfg(), Parallelism::sequential()).unwrap();
        assert!(!r.attributes_used.iter().any(|a| a == "sourceID"));
    }
}
