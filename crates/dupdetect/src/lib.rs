//! # hummer-dupdetect — duplicate detection for HumMer
//!
//! The second automated phase of the pipeline (paper §2.3): find the sets of
//! tuples in the integrated table that describe the same real-world object.
//! The method is the DogmatiX XML algorithm (Weis & Naumann, SIGMOD 2005)
//! "mapped to the relational world":
//!
//! * [`heuristics`] — pick the "interesting" attributes worth comparing
//!   (usable by the measure, likely to distinguish duplicates), which the
//!   user may override;
//! * [`measure`] — the tuple-similarity measure with the paper's four
//!   ingredients: matched vs. unmatched attributes, per-field edit/numeric
//!   distance, identifying power via soft IDF, and the crucial asymmetry
//!   that contradictions reduce similarity while missing values do not;
//! * [`blocking`] — candidate generation (all pairs, or sorted
//!   neighborhood: rows counting-sorted by the rank of their key, window
//!   pairs born in `(left, right)` order);
//! * [`detector`] — the filter (a cheap admissible upper bound on the
//!   measure), threshold classification into sure / unsure / non-duplicates,
//!   transitive closure via [`cluster`] (the one clustering function), and
//!   the appended `objectID` column;
//! * [`incremental`] — delta detection: a [`DetectionIndex`] (one kept
//!   interning pass per column it reads, and beside them the measure with
//!   the counts behind its weights and the blocking keys) moved across
//!   each delta, so only candidate pairs that touch changed rows are
//!   re-scored, every other classification is carried over, and the
//!   clusters are formed by [`cluster`] over the merged pairs —
//!   bit-identical to a from-scratch run over the updated table.
//!
//! Every column detection reads is interned once: one pass renders and
//! hashes each cell and numbers the column's distinct renderings, and
//! attribute selection, the measure and the sorted-neighbourhood key all
//! read that pass, so their text work is paid per distinct value, not
//! per row. The index keeps that one pass per column, and a delta renders
//! and interns each touched cell there once (see `ARCHITECTURE.md`).
//!
//! Pairwise comparison — the pipeline's hottest loop — can fan out over
//! threads: [`detect_duplicates`] scores candidate chunks concurrently
//! and merges them in candidate order, so its output is bit-identical at
//! every [`Parallelism`] degree.
//!
//! ## Example
//!
//! ```
//! use hummer_engine::table;
//! use hummer_dupdetect::{detect_duplicates, annotate_object_ids, DetectorConfig, Parallelism};
//!
//! let t = table! {
//!     "People" => ["Name", "City"];
//!     ["John Smith", "Berlin"],
//!     ["Jon Smith", "Berlin"],
//!     ["Mary Jones", "Hamburg"],
//! };
//! // Narrow 2-column schemas carry little evidence mass: lower the
//! // duplicate threshold below the wide-schema default.
//! let cfg = DetectorConfig { threshold: 0.7, unsure_threshold: 0.55, ..Default::default() };
//! let result = detect_duplicates(&t, &cfg, Parallelism::sequential()).unwrap();
//! assert_eq!(result.object_count(), 2);
//! let annotated = annotate_object_ids(&t, &result).unwrap();
//! assert!(annotated.schema().contains("objectID"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod blocking;
pub mod columnar;
pub mod detector;
pub mod heuristics;
pub mod incremental;
pub mod measure;
mod renderings;
#[cfg(test)]
mod testworlds;
mod unionfind;

pub use blocking::{candidate_pairs, resolve_candidate_strategy, CandidateIndex, CandidateSpec};
pub use columnar::{score_candidates, PAIR_BLOCK};
pub use detector::{
    annotate_object_ids, detect_duplicates, resolve_attributes, sort_pairs_canonical,
    DetectionResult, DetectionStats, DetectorConfig, DuplicatePair, ScoredCandidates,
};
pub use heuristics::{score_attributes, select_attributes, AttributeScore};
pub use hummer_par::Parallelism;
pub use incremental::{detect_delta, DeltaDetectionStats, DetectionIndex, RowMapping};
pub use measure::{
    field_similarity, field_similarity_with_range, numeric_field_similarity, quantize_count,
    quantize_scale, TupleSimilarity, EVIDENCE_PRIOR, NUMERIC_SIGMA_SCALE,
    SIGMA_SMALL_SAMPLE_INFLATION,
};
pub use unionfind::cluster;
