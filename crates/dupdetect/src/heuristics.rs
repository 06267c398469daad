//! Heuristic selection of "interesting" attributes for duplicate detection.
//!
//! Paper §2.3: comparison should use attributes that are "(i) related to the
//! currently considered object, (ii) useable by our similarity measure, and
//! (iii) likely to distinguish duplicates from non-duplicates. We developed
//! several heuristics to select such attributes," which users may override.
//!
//! In the relational mapping all columns of the (merged) table are related
//! to the object, so the heuristics here score (ii) usability — how many
//! values are present and text/numeric — and (iii) distinguishing power —
//! how diverse the values are. Bookkeeping columns (`sourceID`, `objectID`)
//! are excluded by name.

use crate::renderings::{ColumnRenderings, Renderings};
use hummer_engine::{Table, BOOKKEEPING_COLUMNS};

/// Per-attribute heuristic scores.
#[derive(Debug, Clone)]
pub struct AttributeScore {
    /// Column index in the table.
    pub index: usize,
    /// Column name.
    pub name: String,
    /// Fraction of rows with a non-null value (coverage).
    pub coverage: f64,
    /// Distinct non-null values divided by non-null count (distinctness —
    /// identifying power proxy).
    pub distinctness: f64,
    /// Combined interestingness in `[0, 1]`.
    pub score: f64,
}

/// Minimum coverage for an attribute to be considered at all.
const MIN_COVERAGE: f64 = 0.5;
/// Minimum combined score to be selected.
const MIN_SCORE: f64 = 0.15;
/// Upper bound on the number of selected attributes (best-first).
const MAX_ATTRIBUTES: usize = 8;

/// Column `index`'s score from its interning pass over `rows` rows.
fn attribute_score(
    index: usize,
    name: &str,
    pass: &ColumnRenderings,
    rows: usize,
) -> AttributeScore {
    let (non_null, distinct) = (pass.non_null, pass.distinct);
    let coverage = non_null as f64 / rows.max(1) as f64;
    let distinctness = if non_null == 0 {
        0.0
    } else {
        distinct as f64 / non_null as f64
    };
    // Harmonic-style blend: an attribute must both be present and
    // distinguish. Perfectly constant columns score 0... but a column with
    // a couple of distinct values still helps a bit.
    AttributeScore {
        index,
        name: name.to_string(),
        coverage,
        distinctness,
        score: coverage * distinctness,
    }
}

/// Score every column of `table`. Distinct values are distinct renderings.
pub fn score_attributes(table: &Table) -> Vec<AttributeScore> {
    let renderings = Renderings::new(table);
    let names = table.schema().names();
    (names.iter().enumerate())
        .map(|(idx, name)| attribute_score(idx, name, renderings.column(idx), table.len()))
        .collect()
}

fn is_bookkeeping(name: &str) -> bool {
    BOOKKEEPING_COLUMNS
        .iter()
        .any(|b| b.eq_ignore_ascii_case(name))
}

/// Select interesting attribute indices by the heuristics, best-first.
/// Bookkeeping columns are always excluded.
pub fn select_attributes(table: &Table) -> Vec<usize> {
    select_from(&Renderings::new(table))
}

/// [`select_attributes`] over the table's interning passes. Bookkeeping
/// columns are never selected, so they are not interned either.
pub(crate) fn select_from(renderings: &Renderings<'_>) -> Vec<usize> {
    let table = renderings.table();
    let names = table.schema().names();
    select_from_scores(selection_scores(&names, table.len(), |c| {
        renderings.column(c)
    }))
}

/// The scores of the non-bookkeeping columns among `names`, over `rows`
/// rows, each read from its pass — the cold detector's and a carried
/// index's alike.
pub(crate) fn selection_scores<'p>(
    names: &[impl AsRef<str>],
    rows: usize,
    pass: impl Fn(usize) -> &'p ColumnRenderings,
) -> Vec<AttributeScore> {
    (names.iter().enumerate())
        .filter(|(_, name)| !is_bookkeeping(name.as_ref()))
        .map(|(idx, name)| attribute_score(idx, name.as_ref(), pass(idx), rows))
        .collect()
}

/// The selection rule over already computed scores.
pub(crate) fn select_from_scores(scores: Vec<AttributeScore>) -> Vec<usize> {
    let mut scored: Vec<AttributeScore> = scores
        .into_iter()
        .filter(|s| !is_bookkeeping(&s.name))
        .filter(|s| s.coverage >= MIN_COVERAGE && s.score >= MIN_SCORE)
        .collect();
    scored.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.index.cmp(&b.index)));
    scored.truncate(MAX_ATTRIBUTES);
    let mut idx: Vec<usize> = scored.into_iter().map(|s| s.index).collect();
    idx.sort_unstable();
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use hummer_engine::{table, Value};
    use std::collections::HashSet;

    fn t() -> Table {
        table! {
            "T" => ["Name", "Constant", "Sparse", "sourceID"];
            ["Alice", "x", (), "A"],
            ["Bob", "x", (), "A"],
            ["Carol", "x", (), "B"],
            ["Dave", "x", 1, "B"],
        }
    }

    #[test]
    fn scores_reflect_coverage_and_distinctness() {
        let scores = score_attributes(&t());
        let name = &scores[0];
        assert_eq!(name.coverage, 1.0);
        assert_eq!(name.distinctness, 1.0);
        assert_eq!(name.score, 1.0);
        let constant = &scores[1];
        assert_eq!(constant.coverage, 1.0);
        assert_eq!(constant.distinctness, 0.25);
        let sparse = &scores[2];
        assert_eq!(sparse.coverage, 0.25);
    }

    #[test]
    fn selection_excludes_bookkeeping_and_weak_columns() {
        let selected = select_attributes(&t());
        // Name qualifies; Constant (distinctness .25 → score .25) also
        // clears the default bar; Sparse fails coverage; sourceID excluded.
        assert!(selected.contains(&0));
        assert!(!selected.contains(&2));
        assert!(!selected.contains(&3));
    }

    #[test]
    fn max_attributes_truncates_best_first() {
        // Ten qualifying columns over ten rows; column `j` holds
        // `distinct[j]` values, so its score is `distinct[j] / 10`.
        let distinct = [4, 10, 2, 7, 9, 3, 6, 10, 5, 8];
        let names: Vec<String> = (0..distinct.len()).map(|j| format!("c{j}")).collect();
        let rows = (0..10)
            .map(|i| distinct.iter().map(|d| Value::Int(i % d)).collect())
            .collect();
        let t = Table::from_rows("T", &names, rows).unwrap();
        assert!(select_from_scores(score_attributes(&t)).len() <= MAX_ATTRIBUTES);
        // The two weakest (2 and 3 distinct values) are cut.
        assert_eq!(select_attributes(&t), vec![0, 1, 3, 4, 6, 7, 8, 9]);
    }

    #[test]
    fn empty_table_scores_zero() {
        let t = table! { "E" => ["a"]; };
        let s = score_attributes(&t);
        assert_eq!(s[0].coverage, 0.0);
        assert_eq!(s[0].score, 0.0);
        assert!(select_attributes(&t).is_empty());
    }

    #[test]
    fn indices_returned_sorted() {
        let selected = select_attributes(&t());
        let mut sorted = selected.clone();
        sorted.sort_unstable();
        assert_eq!(selected, sorted);
    }

    /// Distinct values counted the plain way: one `String` per cell.
    fn distinct_renderings(table: &Table, idx: usize) -> (usize, usize) {
        let rendered: Vec<String> = table
            .column_values(idx)
            .filter(|v| !v.is_null())
            .map(|v| v.to_string())
            .collect();
        let distinct: HashSet<&String> = rendered.iter().collect();
        (rendered.len(), distinct.len())
    }

    /// Coverage and distinctness are ratios of integer counts, so counting
    /// through the shared interning pass must reproduce every score
    /// exactly — in [`score_attributes`], in the selection scores a kept
    /// index reads, and in the selection the detector makes from the pass.
    #[test]
    fn scores_equal_per_cell_string_counting() {
        let mut tables = crate::testworlds::worlds();
        tables.push(("awkward", crate::testworlds::awkward()));
        for (name, table) in tables {
            let n = table.len().max(1) as f64;
            let reference: Vec<AttributeScore> = table
                .schema()
                .names()
                .iter()
                .enumerate()
                .map(|(idx, column)| {
                    let (non_null, distinct) = distinct_renderings(&table, idx);
                    let coverage = non_null as f64 / n;
                    let distinctness = match non_null {
                        0 => 0.0,
                        _ => distinct as f64 / non_null as f64,
                    };
                    AttributeScore {
                        index: idx,
                        name: column.to_string(),
                        coverage,
                        distinctness,
                        score: coverage * distinctness,
                    }
                })
                .collect();
            let bits = |scores: &[AttributeScore]| -> Vec<(u64, u64, u64)> {
                scores
                    .iter()
                    .map(|s| {
                        (
                            s.coverage.to_bits(),
                            s.distinctness.to_bits(),
                            s.score.to_bits(),
                        )
                    })
                    .collect()
            };
            let renderings = Renderings::new(&table);
            assert_eq!(bits(&score_attributes(&table)), bits(&reference), "{name}");
            let names = table.schema().names();
            let kept = selection_scores(&names, table.len(), |c| renderings.column(c));
            let selectable: Vec<AttributeScore> = (reference.iter())
                .filter(|s| !is_bookkeeping(&s.name))
                .cloned()
                .collect();
            assert_eq!(bits(&kept), bits(&selectable), "{name}: kept passes");
            let selected = select_from_scores(reference);
            assert_eq!(select_from(&renderings), selected, "{name}: selection");
            assert_eq!(select_attributes(&table), selected, "{name}: selection");
        }
    }
}
