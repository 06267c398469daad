//! The DUMAS schema matcher: from sniffed duplicates to pruned 1:1
//! attribute correspondences.

use crate::correspondence::{Correspondence, MatchResult};
use crate::dumas::{SniffConfig, SniffStats, TupleMatch};
use crate::hungarian::max_weight_matching;
use crate::index::{MatchIndex, Source};
use crate::matrix::SimilarityMatrix;
use crate::tokens::{Pair, Side};
use hummer_engine::Table;
use hummer_par::{par_map, Parallelism};
use hummer_textsim::interned::{remap_table, IdVectors, InternedCorpus};
use hummer_textsim::softtfidf::similarity_of_interned;

/// Correspondences with an averaged score below this are pruned (§2.2:
/// "correspondences with a similarity score below a given threshold are
/// pruned").
const PRUNE_THRESHOLD: f64 = 0.35;

/// Configuration of the schema matcher: the settings its callers vary.
/// DUMAS is purely instance-based; column labels play no part.
#[derive(Debug, Clone)]
pub struct MatcherConfig {
    /// How duplicates are sniffed (top-k, minimum tuple similarity, 1:1).
    pub sniff: SniffConfig,
    /// SoftTFIDF secondary-similarity threshold θ for field comparison
    /// (`exp3_dumas` sweeps it).
    pub soft_theta: f64,
}

impl Default for MatcherConfig {
    fn default() -> Self {
        MatcherConfig {
            sniff: SniffConfig::default(),
            soft_theta: 0.9,
        }
    }
}

/// The field comparison of one pair's sniffed duplicates: the field corpus
/// (every non-null cell of either table is one document, so SoftTFIDF
/// weights reflect how identifying a field value is) and one matrix per
/// duplicate — kept, so that a delta recomputes only the matrices it moved.
#[derive(Debug)]
pub(crate) struct Fields {
    corpus: InternedCorpus,
    idf: Vec<f64>,
    /// One matrix per duplicate compared, in the duplicates' order.
    matrices: Vec<SimilarityMatrix>,
}

/// A row's cells before a delta changed it in place: each cell's tokens in
/// the new numbering (tokens that left omitted), `None` for `NULL`.
pub(crate) type OldCells = Vec<Option<Vec<u32>>>;

/// One duplicate's fields compared with SoftTFIDF under `idf`.
fn duplicate_matrix(tokens: Pair<'_>, idf: &[f64], d: &TupleMatch, theta: f64) -> SimilarityMatrix {
    // One tuple's cells as SoftTFIDF takes them: a unit vector per cell.
    let weigh = |side, row| {
        let mut vectors = IdVectors::new();
        for col in 0..tokens.cols(side) {
            vectors.push(tokens.cell(side, row, col), idf);
        }
        vectors
    };
    let (left, right) = (weigh(Side::Left, d.left), weigh(Side::Right, d.right));
    // A NULL cell has no tokens and scores 0 against everything.
    SimilarityMatrix::from_fn(tokens.cols(Side::Left), tokens.cols(Side::Right), |i, j| {
        similarity_of_interned(
            theta,
            tokens.vocabulary(),
            tokens.cell(Side::Left, d.left, i),
            left.get(i),
            tokens.cell(Side::Right, d.right, j),
            right.get(j),
        )
    })
}

impl Fields {
    /// Compare the fields of `duplicates`, one matrix per duplicate —
    /// computed in parallel, the tokens and the corpus are shared
    /// read-only.
    pub fn new(tokens: Pair<'_>, duplicates: &[TupleMatch], theta: f64, par: Parallelism) -> Self {
        let mut corpus = InternedCorpus::new(tokens.vocabulary().len());
        for side in [Side::Left, Side::Right] {
            for row in 0..tokens.rows(side) {
                for cell in tokens.non_null_cells(side, row) {
                    corpus.add_document(cell);
                }
            }
        }
        let idf = corpus.idf_table();
        let matrices = par_map(par, duplicates, |d| {
            duplicate_matrix(tokens, &idf, d, theta)
        });
        Fields {
            corpus,
            idf,
            matrices,
        }
    }

    /// The averaged matrix (the zero matrix of the schemas' shape when
    /// nothing was compared).
    pub fn mean(&self, tokens: Pair<'_>) -> SimilarityMatrix {
        SimilarityMatrix::mean(&self.matrices).unwrap_or_else(|| {
            SimilarityMatrix::zeros(tokens.cols(Side::Left), tokens.cols(Side::Right))
        })
    }

    /// Renumber the token ids (see [`crate::tokens::Retokenized`]).
    pub fn remap(&mut self, remap: &[u32], len: usize) {
        self.corpus.remap(remap, len);
        self.idf = remap_table(&self.idf, remap, len);
    }

    /// Carry the comparison across a delta that changed the rows of `left`
    /// and `right` in place (each with its old cells): the changed cells
    /// move the corpus; `duplicates` — the new sniffed pairs — get the
    /// matrix `previous[k]` had when the same rows are compared, neither
    /// changed and no token they read moved its idf, and a fresh one
    /// otherwise. Returns how many matrices were reused.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_delta(
        &mut self,
        tokens: Pair<'_>,
        left: &[(usize, OldCells)],
        right: &[(usize, OldCells)],
        previous: &[TupleMatch],
        duplicates: &[TupleMatch],
        theta: f64,
        par: Parallelism,
    ) -> usize {
        let before = self.corpus.doc_count();
        let mut affected: Vec<u32> = Vec::new();
        let mut changed = [
            vec![false; tokens.rows(Side::Left)],
            vec![false; tokens.rows(Side::Right)],
        ];
        for (k, (side, rows)) in [(Side::Left, left), (Side::Right, right)]
            .into_iter()
            .enumerate()
        {
            for (row, old) in rows {
                changed[k][*row] = true;
                for cell in old.iter().flatten() {
                    self.corpus.remove_document(cell);
                    affected.extend_from_slice(cell);
                }
                for cell in tokens.non_null_cells(side, *row) {
                    self.corpus.add_document(cell);
                    affected.extend_from_slice(cell);
                }
            }
        }
        // A null ↔ value change moves the document count, and every idf.
        let all_moved = self.corpus.doc_count() != before;
        let mut moved = vec![false; self.idf.len()];
        if all_moved {
            self.idf = self.corpus.idf_table();
        } else {
            for t in affected {
                let idf = self.corpus.idf(t);
                if idf.to_bits() != self.idf[t as usize].to_bits() {
                    self.idf[t as usize] = idf;
                    moved[t as usize] = true;
                }
            }
        }

        let mut by_rows: Vec<usize> = (0..previous.len()).collect();
        by_rows.sort_unstable_by_key(|&k| (previous[k].left, previous[k].right));
        let reusable = |d: &TupleMatch| -> Option<usize> {
            let unchanged = !all_moved && !changed[0][d.left] && !changed[1][d.right];
            let reads = || {
                tokens
                    .row(Side::Left, d.left)
                    .iter()
                    .chain(tokens.row(Side::Right, d.right))
            };
            if !unchanged || reads().any(|&t| moved[t as usize]) {
                return None;
            }
            let at = by_rows
                .binary_search_by_key(&(d.left, d.right), |&k| {
                    (previous[k].left, previous[k].right)
                })
                .ok()?;
            Some(by_rows[at])
        };
        let reuse: Vec<Option<usize>> = duplicates.iter().map(reusable).collect();
        let fresh: Vec<&TupleMatch> = duplicates
            .iter()
            .zip(&reuse)
            .filter(|(_, r)| r.is_none())
            .map(|(d, _)| d)
            .collect();
        let idf = &self.idf;
        let mut computed =
            par_map(par, &fresh, |d| duplicate_matrix(tokens, idf, d, theta)).into_iter();
        let mut previous_matrices: Vec<Option<SimilarityMatrix>> =
            std::mem::take(&mut self.matrices)
                .into_iter()
                .map(Some)
                .collect();
        self.matrices = reuse
            .iter()
            .map(|r| match r {
                Some(k) => previous_matrices[*k]
                    .take()
                    .expect("each matrix is reused once"),
                None => computed.next().expect("one matrix per fresh duplicate"),
            })
            .collect();
        duplicates.len() - fresh.len()
    }
}

/// Steps 4–5 of [`match_tables`] for one pair: assign, prune.
pub(crate) fn assign(
    left: &Source,
    right: &Source,
    duplicates: Vec<TupleMatch>,
    sniff: SniffStats,
    matrix: SimilarityMatrix,
) -> MatchResult {
    let assignments = max_weight_matching(&matrix.to_nested());
    let correspondences: Vec<Correspondence> = assignments
        .into_iter()
        .filter(|a| a.weight >= PRUNE_THRESHOLD)
        .map(|a| Correspondence {
            left_column: left.columns[a.left].clone(),
            right_column: right.columns[a.right].clone(),
            score: a.weight,
        })
        .collect();

    MatchResult {
        left_table: left.name.clone(),
        right_table: right.name.clone(),
        correspondences,
        duplicates_used: duplicates,
        sniff,
        matrix,
    }
}

/// Match two tables' schemas by comparing the fields of sniffed duplicates.
///
/// Implements §2.2 of the paper end to end:
/// 1. sniff the most similar tuple pairs (TF-IDF over whole tuples),
/// 2. compare each pair field-wise with SoftTFIDF → one matrix per pair,
/// 3. average the matrices,
/// 4. maximum-weight bipartite matching → 1:1 correspondences,
/// 5. prune below a fixed threshold, 0.35.
///
/// # Example
///
/// ```
/// use hummer_engine::table;
/// use hummer_matching::{match_tables, MatcherConfig, SniffConfig};
///
/// // Same people, different attribute labels and column order.
/// let ee = table! {
///     "EE_Student" => ["Name", "Age"];
///     ["John Smith", 24],
///     ["Mary Jones", 22],
/// };
/// let cs = table! {
///     "CS_Students" => ["Years", "FullName"];
///     [24, "John Smith"],
///     [22, "Mary Jones"],
/// };
/// let cfg = MatcherConfig {
///     sniff: SniffConfig { min_similarity: 0.2, ..Default::default() },
///     ..Default::default()
/// };
/// let result = match_tables(&ee, &cs, &cfg);
/// // The rename map aligns the right table to the left (preferred) schema.
/// let renames = result.rename_map();
/// assert_eq!(renames.get("FullName").unwrap(), "Name");
/// assert_eq!(renames.get("Years").unwrap(), "Age");
/// ```
pub fn match_tables(left: &Table, right: &Table, cfg: &MatcherConfig) -> MatchResult {
    let mut results = match_star(&[left, right], cfg, Parallelism::sequential());
    results.pop().expect("two tables make one pair")
}

/// Match every non-preferred table against the preferred (first) one — the
/// star alignment HumMer uses when a query fuses more than two relations
/// ("HumMer is able to display correspondences simultaneously over many
/// relations", §2.2; renaming favors "the first source mentioned in the
/// query", §3).
///
/// Up to `par.get()` threads work per preferred-vs-other pair, over one
/// tokenization of the star (the preferred source is tokenized once):
/// duplicate sniffing scores left rows concurrently, and the per-duplicate
/// field-similarity matrices (the expensive SoftTFIDF comparisons) are
/// computed one duplicate pair per task before the single-threaded
/// Hungarian assignment. This is [`MatchIndex::build`] with the index
/// dropped.
///
/// Output is bit-identical for every degree: matrices merge in duplicate
/// order, and the mean/assignment steps see the same numbers either way.
pub fn match_star(tables: &[&Table], cfg: &MatcherConfig, par: Parallelism) -> Vec<MatchResult> {
    MatchIndex::build(tables, cfg, par).into_results()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hummer_engine::table;

    /// Two student tables with permuted, relabeled schemas and three
    /// overlapping students (with small value variations).
    fn ee() -> Table {
        table! {
            "EE_Student" => ["Name", "Age", "City"];
            ["John Smith", 24, "Berlin"],
            ["Mary Jones", 22, "Hamburg"],
            ["Peter Miller", 27, "Munich"],
            ["Ada Lovelace", 28, "London"],
        }
    }

    fn cs() -> Table {
        table! {
            "CS_Students" => ["Town", "FullName", "Years"];
            ["Berlin", "John Smith", 24],
            ["Hamburg", "Mary Jones", 23],
            ["Paris", "Marie Curie", 31],
        }
    }

    fn cfg() -> MatcherConfig {
        MatcherConfig {
            sniff: SniffConfig {
                min_similarity: 0.2,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn finds_expected_correspondences() {
        let r = match_tables(&ee(), &cs(), &cfg());
        let map = r.rename_map();
        assert_eq!(map.get("FullName").map(String::as_str), Some("Name"));
        assert_eq!(map.get("Town").map(String::as_str), Some("City"));
        // Age/Years corresponds via equal numbers in the duplicates.
        assert_eq!(map.get("Years").map(String::as_str), Some("Age"));
    }

    #[test]
    fn correspondences_are_one_to_one() {
        let r = match_tables(&ee(), &cs(), &cfg());
        let mut lefts: Vec<&str> = r
            .correspondences
            .iter()
            .map(|c| c.left_column.as_str())
            .collect();
        let mut rights: Vec<&str> = r
            .correspondences
            .iter()
            .map(|c| c.right_column.as_str())
            .collect();
        let n = r.correspondences.len();
        lefts.sort_unstable();
        lefts.dedup();
        rights.sort_unstable();
        rights.dedup();
        assert_eq!(lefts.len(), n);
        assert_eq!(rights.len(), n);
    }

    #[test]
    fn no_duplicates_no_correspondences() {
        let a = table! { "A" => ["x"]; ["aaa bbb ccc"] };
        let b = table! { "B" => ["y"]; ["ddd eee fff"] };
        let r = match_tables(&a, &b, &MatcherConfig::default());
        assert!(r.duplicates_used.is_empty());
        assert!(r.correspondences.is_empty());
    }

    #[test]
    fn disjoint_tables_give_the_empty_result() {
        // No token in common: nothing is sniffed, so no field is compared
        // and the matrix is the zero matrix of the schemas' shape.
        let a = table! {
            "A" => ["x", "y", "z"];
            ["aaa bbb", 1, ()],
            ["ccc", 2, "ddd"],
        };
        let b = table! {
            "B" => ["u", "v"];
            ["eee fff", 30],
            ["ggg", 40],
            [(), 50],
        };
        let r = match_tables(&a, &b, &MatcherConfig::default());
        assert!(r.duplicates_used.is_empty());
        assert!(r.correspondences.is_empty());
        assert_eq!(r.sniff.candidates_scored, 0);
        assert_eq!((r.matrix.rows(), r.matrix.cols()), (3, 2));
        assert!(r.matrix.to_nested().iter().flatten().all(|&v| v == 0.0));
    }

    /// The averaged matrix as the string path computes it: every cell
    /// tokenized to `String`s, a hash-map corpus, `SoftTfIdf` per field pair.
    fn string_path_matrix(left: &Table, right: &Table, result: &MatchResult) -> SimilarityMatrix {
        use hummer_textsim::{word_tokens, Corpus, SoftTfIdf};
        let cells = |t: &Table| -> Vec<Vec<Option<Vec<String>>>> {
            t.rows()
                .iter()
                .map(|r| {
                    let tokens = |v: &hummer_engine::Value| v.as_text().map(|s| word_tokens(&s));
                    r.values().iter().map(tokens).collect()
                })
                .collect()
        };
        let (left_cells, right_cells) = (cells(left), cells(right));
        let corpus = Corpus::from_documents(
            left_cells
                .iter()
                .chain(right_cells.iter())
                .flatten()
                .flatten(),
        );
        let soft = SoftTfIdf::with_theta(&corpus, MatcherConfig::default().soft_theta);
        let per_pair: Vec<SimilarityMatrix> = result
            .duplicates_used
            .iter()
            .map(|d| {
                let (lrow, rrow) = (&left_cells[d.left], &right_cells[d.right]);
                SimilarityMatrix::from_fn(lrow.len(), rrow.len(), |i, j| {
                    match (&lrow[i], &rrow[j]) {
                        (Some(a), Some(b)) => soft.similarity(a, b),
                        _ => 0.0,
                    }
                })
            })
            .collect();
        SimilarityMatrix::mean(&per_pair).expect("duplicates were sniffed")
    }

    #[test]
    fn field_matrix_equals_the_string_path_bit_for_bit() {
        use hummer_datagen::scenarios::{cd_shopping, person_scale, student_rosters};
        for world in [
            cd_shopping(120, 1),
            student_rosters(120, 2),
            person_scale(120, 3),
        ] {
            let (l, r) = (&world.sources[0].table, &world.sources[1].table);
            let result = match_tables(l, r, &MatcherConfig::default());
            assert!(!result.duplicates_used.is_empty());
            let bits = |m: &SimilarityMatrix| -> Vec<u64> {
                m.to_nested()
                    .iter()
                    .flatten()
                    .map(|v| v.to_bits())
                    .collect()
            };
            assert_eq!(
                bits(&result.matrix),
                bits(&string_path_matrix(l, r, &result))
            );
        }
    }

    #[test]
    fn pruning_threshold_filters_weak_matches() {
        // The notes of a person share a word or two across the sources.
        let left = table! {
            "L" => ["Name", "Note"];
            ["John Smith", "red green blue black"],
            ["Mary Jones", "one two three four"],
            ["Peter Miller", "north south east west"],
        };
        let right = table! {
            "R" => ["FullName", "Remark"];
            ["John Smith", "red white pink gray"],
            ["Mary Jones", "one five six seven"],
            ["Peter Miller", "north up down left"],
        };
        let r = match_tables(&left, &right, &cfg());
        let assignments = max_weight_matching(&r.matrix.to_nested());
        // The assignment pairs some columns on weak evidence …
        let weak = assignments
            .iter()
            .filter(|a| a.weight > 0.0 && a.weight < PRUNE_THRESHOLD)
            .count();
        assert!(weak > 0, "{assignments:?}");
        // … which pruning drops, keeping only the confident ones.
        assert_eq!(r.correspondences.len(), assignments.len() - weak);
        assert!(r.correspondences.iter().all(|c| c.score >= PRUNE_THRESHOLD));
    }

    #[test]
    fn star_matches_all_against_first() {
        let t1 = ee();
        let t2 = cs();
        let t3 = table! {
            "Registry" => ["Person", "Residence"];
            ["John Smith", "Berlin"],
            ["Ada Lovelace", "London"],
        };
        let results = match_star(&[&t1, &t2, &t3], &cfg(), Parallelism::sequential());
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].right_table, "CS_Students");
        assert_eq!(results[1].right_table, "Registry");
        let m3 = results[1].rename_map();
        assert_eq!(m3.get("Person").map(String::as_str), Some("Name"));
        assert_eq!(m3.get("Residence").map(String::as_str), Some("City"));
    }

    #[test]
    fn matrix_shape_matches_schemas() {
        let r = match_tables(&ee(), &cs(), &cfg());
        assert_eq!(r.matrix.rows(), 3);
        assert_eq!(r.matrix.cols(), 3);
    }

    #[test]
    fn scores_bounded() {
        let r = match_tables(&ee(), &cs(), &cfg());
        for c in &r.correspondences {
            assert!((0.0..=1.0).contains(&c.score));
        }
    }
}
