//! Attribute correspondences — the output of schema matching.

use crate::dumas::{SniffStats, TupleMatch};
use crate::matrix::SimilarityMatrix;
use std::collections::HashMap;
use std::fmt;

/// A 1:1 correspondence between an attribute of the preferred (left) schema
/// and an attribute of a non-preferred (right) schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Correspondence {
    /// Attribute name in the left (preferred) schema.
    pub left_column: String,
    /// Attribute name in the right schema.
    pub right_column: String,
    /// Averaged field-similarity score supporting the correspondence.
    pub score: f64,
}

impl fmt::Display for Correspondence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ≈ {} ({:.3})",
            self.left_column, self.right_column, self.score
        )
    }
}

/// The full result of matching one table pair, kept rich enough for the
/// demo's "adjust matching" step: users may delete false correspondences or
/// add missed ones before transformation runs (paper §2.2: "the
/// correspondences are presented, allowing to manually add missing or delete
/// false correspondences").
#[derive(Debug, Clone)]
pub struct MatchResult {
    /// Name of the left (preferred) table.
    pub left_table: String,
    /// Name of the right table.
    pub right_table: String,
    /// The pruned 1:1 correspondences, sorted by descending score.
    pub correspondences: Vec<Correspondence>,
    /// The duplicate tuple pairs the correspondences were derived from.
    pub duplicates_used: Vec<TupleMatch>,
    /// How much work sniffing those pairs took.
    pub sniff: SniffStats,
    /// The averaged attribute-similarity matrix (for inspection / GUI).
    pub matrix: SimilarityMatrix,
}

impl MatchResult {
    /// Number of 1:1 correspondences this match found — the `match` stage
    /// span and `/metrics` report the sum of this over all table pairs.
    pub fn correspondence_count(&self) -> usize {
        self.correspondences.len()
    }

    /// Map from right-schema column name to the preferred left-schema name
    /// it should be renamed to.
    pub fn rename_map(&self) -> HashMap<String, String> {
        self.correspondences
            .iter()
            .map(|c| (c.right_column.clone(), c.left_column.clone()))
            .collect()
    }

    /// Manually add a correspondence (user override). Any existing
    /// correspondence touching either column is replaced — the set stays 1:1.
    pub fn add(&mut self, left: impl Into<String>, right: impl Into<String>, score: f64) {
        let left = left.into();
        let right = right.into();
        self.correspondences.retain(|c| {
            !c.left_column.eq_ignore_ascii_case(&left)
                && !c.right_column.eq_ignore_ascii_case(&right)
        });
        self.correspondences.push(Correspondence {
            left_column: left,
            right_column: right,
            score,
        });
        self.correspondences
            .sort_by(|a, b| b.score.total_cmp(&a.score));
    }

    /// Manually delete the correspondence involving `left` and `right`,
    /// returning whether one was removed.
    pub fn remove(&mut self, left: &str, right: &str) -> bool {
        let before = self.correspondences.len();
        self.correspondences.retain(|c| {
            !(c.left_column.eq_ignore_ascii_case(left)
                && c.right_column.eq_ignore_ascii_case(right))
        });
        self.correspondences.len() != before
    }

    /// The correspondence for a given left column, if any.
    pub fn for_left(&self, left: &str) -> Option<&Correspondence> {
        self.correspondences
            .iter()
            .find(|c| c.left_column.eq_ignore_ascii_case(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> MatchResult {
        MatchResult {
            left_table: "L".into(),
            right_table: "R".into(),
            correspondences: vec![
                Correspondence {
                    left_column: "Name".into(),
                    right_column: "Person".into(),
                    score: 0.9,
                },
                Correspondence {
                    left_column: "City".into(),
                    right_column: "Ort".into(),
                    score: 0.8,
                },
            ],
            duplicates_used: vec![],
            sniff: SniffStats::default(),
            matrix: SimilarityMatrix::zeros(2, 2),
        }
    }

    #[test]
    fn rename_map_direction() {
        let m = result().rename_map();
        assert_eq!(m.get("Person").unwrap(), "Name");
        assert_eq!(m.get("Ort").unwrap(), "City");
    }

    #[test]
    fn add_replaces_conflicts_keeping_one_to_one() {
        let mut r = result();
        r.add("Name", "Label", 0.95); // replaces Name≈Person
        assert_eq!(r.correspondences.len(), 2);
        assert_eq!(r.for_left("Name").unwrap().right_column, "Label");
    }

    #[test]
    fn remove_by_pair() {
        let mut r = result();
        assert!(r.remove("city", "ort")); // case-insensitive
        assert!(!r.remove("city", "ort"));
        assert_eq!(r.correspondences.len(), 1);
    }

    #[test]
    fn display_format() {
        let c = Correspondence {
            left_column: "A".into(),
            right_column: "B".into(),
            score: 0.5,
        };
        assert_eq!(c.to_string(), "A ≈ B (0.500)");
    }
}
