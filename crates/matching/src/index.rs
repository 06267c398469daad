//! Matching that survives a delta: the [`MatchIndex`].
//!
//! Matching a star of sources reads every cell of every source — tokens,
//! two TF-IDF corpora, a vector per tuple, an inverted index, a bounded
//! scan, a SoftTFIDF matrix per sniffed duplicate. A one-row delta changes
//! almost none of it. The index holds it all, for one star:
//!
//! * one vocabulary and each source's cell tokens ([`crate::tokens`]);
//! * per pair (the preferred source against another): the row corpus, its
//!   idf table, both tables' vectors, the right index and where the
//!   bounded scan stopped ([`crate::dumas`]); the field corpus, its idf
//!   table and one field matrix per duplicate; and the pair's result.
//!
//! Cold matching is [`MatchIndex::build`] and reading the results
//! ([`crate::match_star`] is exactly that); a delta is
//! [`MatchIndex::apply_delta`] and reading the results. The results equal
//! a cold match over the new tables bit for bit — every field of every
//! [`MatchResult`] but `sniff`, which reports the work the delta did.
//!
//! ## A delta, step by step
//!
//! 1. **Touched rows**, found without tokenizing: each surviving source row
//!    is compared with its old cells, read from the old integrated table
//!    through the old renames ([`crate::transform`]), with
//!    [`hummer_engine::Value::identical`]. A source whose columns changed
//!    is touched throughout.
//! 2. **Tokens**: only touched and inserted rows are tokenized again; new
//!    tokens take the ids their string order demands and every holder of
//!    ids is renumbered in one pass (see [`crate::tokens`]).
//! 3. **Per pair**, by what the delta did to its two sources:
//!    * nothing — the pair is untouched (its matrices all reused);
//!    * rows changed in place — the row corpus, idf, vectors and bounded
//!      scan are carried ([`crate::dumas`] states the invariant), the
//!      field corpus moves by the changed cells, and a duplicate's field
//!      matrix is reused when neither of its rows changed and no token it
//!      reads moved its idf; then the mean and the assignment re-run;
//!    * rows inserted or deleted (every idf moves with the document
//!      count) or a changed schema — the pair is rebuilt from the carried
//!      tokens and counted as a `full_rematch`. Nothing is tokenized again
//!      even then. A delta that changes rows in place stays in place
//!      however many it touches: on the serving worlds, updating 51–100 %
//!      of the preferred source in place costs about what the rebuild
//!      does (up to ≈ 10 % more on one world, ≈ 40 % less on another).
//!
//! A delta to a non-preferred source leaves every other pair untouched.
//! What only a delta reads — occurrence counts, postings — is built by the
//! first delta that needs it, so cold matching does no work beyond
//! matching.

use crate::correspondence::MatchResult;
use crate::dumas::{Changed, SniffStats, Sniffer, FIRST_ROWS};
use crate::matcher::{assign, Fields, MatcherConfig, OldCells};
use crate::matrix::SimilarityMatrix;
use crate::tokens::{Side, StarTokens};
use crate::transform::renamed_columns;
use hummer_engine::error::EngineError;
use hummer_engine::{Result, Table};
use hummer_par::Parallelism;
use hummer_textsim::interned::DROPPED;

/// A source's name and column names, as the index last saw them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Source {
    pub name: String,
    pub columns: Vec<String>,
}

impl Source {
    fn of(table: &Table) -> Self {
        Source {
            name: table.name().to_string(),
            columns: table
                .schema()
                .names()
                .iter()
                .map(|n| n.to_string())
                .collect(),
        }
    }
}

/// One pair's carried matching state.
#[derive(Debug)]
struct PairIndex {
    sniffer: Sniffer,
    /// `None` until the pair sniffs a duplicate: without one nothing is
    /// compared field-wise, and no field corpus is built.
    fields: Option<Fields>,
    result: MatchResult,
}

impl PairIndex {
    fn build(
        tokens: &StarTokens,
        right: usize,
        sources: &[Source],
        cfg: &MatcherConfig,
        par: Parallelism,
        first_rows: usize,
    ) -> Self {
        let pair = tokens.pair(right);
        let (sniffer, duplicates) = Sniffer::new(pair, &cfg.sniff, par, first_rows);
        let fields =
            (!duplicates.is_empty()).then(|| Fields::new(pair, &duplicates, cfg.soft_theta, par));
        let matrix = match &fields {
            Some(fields) => fields.mean(pair),
            None => SimilarityMatrix::zeros(pair.cols(Side::Left), pair.cols(Side::Right)),
        };
        let result = assign(
            &sources[0],
            &sources[right],
            duplicates,
            sniffer.stats,
            matrix,
        );
        PairIndex {
            sniffer,
            fields,
            result,
        }
    }
}

/// What one [`MatchIndex::apply_delta`] did, summed over the star's pairs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchDeltaStats {
    /// Source rows tokenized again (inserted, changed, or of a source whose
    /// columns changed).
    pub rows_retokenized: usize,
    /// Left rows the bounded scan scanned again.
    pub rows_rescanned: usize,
    /// Right rows whose moved vector was scored against the scanned left
    /// rows sharing a token with it.
    pub right_rows_rescored: usize,
    /// Field matrices of sniffed duplicates carried instead of recomputed.
    pub pair_matrices_reused: usize,
    /// Pairs rebuilt from the carried tokens: rows inserted or deleted, or
    /// a changed schema.
    pub full_rematch: usize,
}

/// How a delta reaches one pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reach {
    Untouched,
    InPlace,
    Rebuild,
}

/// Everything schema matching computes about a star of sources, kept so
/// that a delta costs its delta (see the module docs).
///
/// Like the detection index it is deliberately not `Clone`: whoever holds
/// it hands it on.
#[derive(Debug)]
pub struct MatchIndex {
    cfg: MatcherConfig,
    /// How many left rows a bounded scan's first round takes (any count
    /// gives the same answer; tests pass small ones).
    first_rows: usize,
    sources: Vec<Source>,
    tokens: StarTokens,
    pairs: Vec<PairIndex>,
}

impl MatchIndex {
    /// Match every non-preferred table against the preferred (first) one,
    /// keeping what a delta needs to carry the match.
    pub fn build(tables: &[&Table], cfg: &MatcherConfig, par: Parallelism) -> Self {
        MatchIndex::build_from_rows(tables, cfg, par, FIRST_ROWS)
    }

    fn build_from_rows(
        tables: &[&Table],
        cfg: &MatcherConfig,
        par: Parallelism,
        first_rows: usize,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.soft_theta),
            "theta must be in [0,1]"
        );
        let sources: Vec<Source> = tables.iter().map(|t| Source::of(t)).collect();
        // A lone source has no pair: nothing is tokenized.
        let tokens = StarTokens::new(if tables.len() > 1 { tables } else { &[] });
        let pairs = (1..tables.len())
            .map(|right| PairIndex::build(&tokens, right, &sources, cfg, par, first_rows))
            .collect();
        MatchIndex {
            cfg: cfg.clone(),
            first_rows,
            sources,
            tokens,
            pairs,
        }
    }

    /// The match results, preferred table against each other one.
    pub fn results(&self) -> Vec<MatchResult> {
        self.pairs.iter().map(|p| p.result.clone()).collect()
    }

    /// [`MatchIndex::results`], dropping the index.
    pub fn into_results(self) -> Vec<MatchResult> {
        self.pairs.into_iter().map(|p| p.result).collect()
    }

    /// Move the index to `new_tables` — the same sources, in the same
    /// order, after a delta. `old_integrated` is the integrated table built
    /// from the index's current results over the old tables, and
    /// `new_to_old[n]` the row of `old_integrated` that row `n` of the new
    /// union continues (`None` for an inserted row), as
    /// `RowMapping::new_to_old` gives it.
    ///
    /// Afterwards [`MatchIndex::results`] equals a cold match over
    /// `new_tables` bit for bit (`sniff` aside), at every degree. On error
    /// the index may be half-moved: drop it.
    pub fn apply_delta(
        &mut self,
        old_integrated: &Table,
        new_tables: &[&Table],
        new_to_old: &[Option<usize>],
        par: Parallelism,
    ) -> Result<MatchDeltaStats> {
        let mismatch =
            |what: &str| EngineError::Expression(format!("match index does not describe {what}"));
        if new_tables.len() != self.sources.len() {
            return Err(mismatch("these sources"));
        }
        let new_sources: Vec<Source> = new_tables.iter().map(|t| Source::of(t)).collect();
        if self.pairs.is_empty() {
            self.sources = new_sources;
            return Ok(MatchDeltaStats::default());
        }
        let old_rows: Vec<usize> = (0..self.sources.len())
            .map(|s| self.tokens.rows(s))
            .collect();
        let new_rows: usize = new_tables.iter().map(|t| t.len()).sum();
        if old_rows.iter().sum::<usize>() != old_integrated.len() || new_to_old.len() != new_rows {
            return Err(mismatch("the old union and the row mapping"));
        }

        // 1. Touched rows: each surviving row compared with its old cells.
        let mut origins: Vec<Vec<Option<usize>>> = Vec::with_capacity(new_tables.len());
        let (mut old_start, mut new_start) = (0, 0);
        for (s, table) in new_tables.iter().enumerate() {
            let old_end = old_start + old_rows[s];
            let layout = if new_sources[s] == self.sources[s] {
                Some(self.old_layout(s, old_integrated)?)
            } else {
                None
            };
            let mut origin = Vec::with_capacity(table.len());
            for (n, row) in table.rows().iter().enumerate() {
                let old = match new_to_old[new_start + n] {
                    Some(u) if !(old_start..old_end).contains(&u) => {
                        return Err(mismatch("a row mapping that stays within each source"))
                    }
                    old => old,
                };
                let unchanged = |&u: &usize| {
                    layout.as_ref().is_some_and(|columns| {
                        let old = &old_integrated.rows()[u];
                        row.values()
                            .iter()
                            .zip(columns)
                            .all(|(value, &c)| value.identical(&old[c]))
                    })
                };
                origin.push(old.filter(unchanged).map(|u| u - old_start));
            }
            origins.push(origin);
            (old_start, new_start) = (old_end, new_start + table.len());
        }

        // 2. How the delta reaches each pair.
        let touched: Vec<Vec<usize>> = origins
            .iter()
            .map(|origin| (0..origin.len()).filter(|&n| origin[n].is_none()).collect())
            .collect();
        let settled: Vec<bool> = (0..origins.len())
            .map(|s| new_sources[s] == self.sources[s] && self.tokens.in_place(s, &origins[s]))
            .collect();
        let reach: Vec<Reach> = (1..origins.len())
            .map(|right| {
                if !settled[0] || !settled[right] {
                    Reach::Rebuild
                } else if touched[0].is_empty() && touched[right].is_empty() {
                    Reach::Untouched
                } else {
                    Reach::InPlace
                }
            })
            .collect();
        let mut read_in_place = vec![false; origins.len()];
        for (p, r) in reach.iter().enumerate() {
            if *r == Reach::InPlace {
                (read_in_place[0], read_in_place[p + 1]) = (true, true);
            }
        }

        // The old cells of rows changed in place, before the tokens move.
        let mut old_cells: Vec<Vec<(usize, OldCells)>> = (0..origins.len())
            .map(|s| {
                if !read_in_place[s] {
                    return Vec::new();
                }
                let cells = |row| -> OldCells {
                    (0..self.tokens.cols(s))
                        .map(|c| {
                            let null = self.tokens.is_null(s, row, c);
                            (!null).then(|| self.tokens.cell(s, row, c).to_vec())
                        })
                        .collect()
                };
                touched[s].iter().map(|&row| (row, cells(row))).collect()
            })
            .collect();

        // 3. Tokens.
        let retokenized = self.tokens.apply_delta(new_tables, &origins);
        let mut stats = MatchDeltaStats {
            rows_retokenized: retokenized.rows,
            ..MatchDeltaStats::default()
        };
        if let Some(remap) = &retokenized.remap {
            let len = self.tokens.vocabulary.len();
            for pair in &mut self.pairs {
                pair.sniffer.remap(remap, len);
                if let Some(fields) = &mut pair.fields {
                    fields.remap(remap, len);
                }
            }
            for cell in old_cells
                .iter_mut()
                .flatten()
                .flat_map(|(_, c)| c)
                .flatten()
            {
                cell.retain_mut(|id| {
                    *id = remap[*id as usize];
                    *id != DROPPED
                });
            }
        }
        for (s, read) in read_in_place.iter().enumerate() {
            if *read {
                self.tokens.ensure_postings(s);
            }
        }
        self.sources = new_sources;

        // 4. Each pair.
        let documents = |s: usize| -> Vec<(usize, Vec<u32>)> {
            old_cells[s]
                .iter()
                .map(|(row, cells)| (*row, cells.iter().flatten().flatten().copied().collect()))
                .collect()
        };
        let left_documents = documents(0);
        let (tokens, sources, cfg) = (&self.tokens, &self.sources, &self.cfg);
        let first_rows = self.first_rows;
        for (p, pair) in self.pairs.iter_mut().enumerate() {
            let right = p + 1;
            match reach[p] {
                Reach::Untouched => {
                    pair.result.sniff = SniffStats::default();
                    stats.pair_matrices_reused += pair.result.duplicates_used.len();
                }
                Reach::Rebuild => {
                    *pair = PairIndex::build(tokens, right, sources, cfg, par, first_rows);
                    stats.full_rematch += 1;
                }
                Reach::InPlace => {
                    let view = tokens.pair(right);
                    let right_documents = documents(right);
                    let changed = Changed {
                        left: &left_documents,
                        right: &right_documents,
                        left_postings: tokens.postings(0),
                        right_postings: tokens.postings(right),
                    };
                    let (duplicates, work) =
                        pair.sniffer.apply_delta(view, &changed, &cfg.sniff, par);
                    stats.rows_rescanned += work.rows_rescanned;
                    stats.right_rows_rescored += work.right_rows_rescored;
                    let fields = match pair.fields.take() {
                        Some(mut fields) => {
                            stats.pair_matrices_reused += fields.apply_delta(
                                view,
                                &old_cells[0],
                                &old_cells[right],
                                &pair.result.duplicates_used,
                                &duplicates,
                                cfg.soft_theta,
                                par,
                            );
                            Some(fields)
                        }
                        None => (!duplicates.is_empty())
                            .then(|| Fields::new(view, &duplicates, cfg.soft_theta, par)),
                    };
                    let matrix = match &fields {
                        Some(fields) => fields.mean(view),
                        None => {
                            SimilarityMatrix::zeros(view.cols(Side::Left), view.cols(Side::Right))
                        }
                    };
                    pair.fields = fields;
                    pair.result = assign(
                        &sources[0],
                        &sources[right],
                        duplicates,
                        pair.sniffer.stats,
                        matrix,
                    );
                }
            }
        }
        Ok(stats)
    }

    /// Where each column of source `s` sits in the old integrated table:
    /// its name after the old renames, looked up in the union's schema.
    fn old_layout(&self, s: usize, old_integrated: &Table) -> Result<Vec<usize>> {
        let source = &self.sources[s];
        let renamed;
        let names: &[String] = if s == 0 {
            &source.columns
        } else {
            let columns: Vec<&str> = source.columns.iter().map(String::as_str).collect();
            renamed = renamed_columns(&source.name, &columns, &self.pairs[s - 1].result)?;
            &renamed
        };
        names
            .iter()
            .map(|name| {
                old_integrated.schema().index_of(name).ok_or_else(|| {
                    EngineError::Expression(format!(
                        "match index: column `{name}` is not in the old union"
                    ))
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dumas::tests::full_join_oracle;
    use crate::dumas::{SniffConfig, TupleMatch};
    use crate::matcher::match_star;
    use crate::transform::integrate;
    use hummer_engine::{Row, Value};
    use proptest::prelude::*;

    /// A match result as bits, `sniff` aside.
    type Bits = (
        Vec<(String, String, u64)>,
        Vec<(usize, usize, u64)>,
        Vec<u64>,
    );

    fn duplicate_bits(pairs: &[TupleMatch]) -> Vec<(usize, usize, u64)> {
        pairs
            .iter()
            .map(|d| (d.left, d.right, d.similarity.to_bits()))
            .collect()
    }

    fn bits(results: &[MatchResult]) -> Vec<Bits> {
        results
            .iter()
            .map(|m| {
                (
                    m.correspondences
                        .iter()
                        .map(|c| {
                            (
                                c.left_column.clone(),
                                c.right_column.clone(),
                                c.score.to_bits(),
                            )
                        })
                        .collect(),
                    duplicate_bits(&m.duplicates_used),
                    m.matrix
                        .to_nested()
                        .iter()
                        .flatten()
                        .map(|v| v.to_bits())
                        .collect(),
                )
            })
            .collect()
    }

    /// The carried index against everything it must equal: a cold match at
    /// degrees 1–4, the full-join oracle per pair, and — for its tokens —
    /// a fresh tokenization.
    fn assert_equals_scratch(index: &MatchIndex, tables: &[Table], context: &str) {
        let refs: Vec<&Table> = tables.iter().collect();
        let carried = bits(&index.results());
        for degree in 1..=4 {
            let scratch = match_star(&refs, &index.cfg, Parallelism::degree(degree));
            assert_eq!(carried, bits(&scratch), "{context}, degree {degree}");
        }
        for (p, result) in index.results().iter().enumerate() {
            let oracle = full_join_oracle(&tables[0], &tables[p + 1], &index.cfg.sniff);
            let found = duplicate_bits(&result.duplicates_used);
            assert_eq!(found, duplicate_bits(&oracle), "{context}, pair {p}");
        }
        let fresh = StarTokens::new(&refs);
        assert_eq!(index.tokens.snapshot(), fresh.snapshot(), "{context}");
        index.tokens.assert_consistent();
    }

    /// A cell from token codes: NULL for one code divisible by 4, else up
    /// to three tokens of a small alphabet — codes from 900 up give tokens
    /// no other cell is likely to hold (new and vanishing tokens).
    fn cell(codes: &[u32], alphabet: u32) -> Value {
        match codes {
            [only] if only % 4 == 0 => Value::Null,
            codes => Value::text(
                codes
                    .iter()
                    .map(|&t| match t {
                        900.. => format!("new{t}"),
                        t => format!("t{}", t % alphabet),
                    })
                    .collect::<Vec<_>>()
                    .join(" "),
            ),
        }
    }

    fn columns(source: usize) -> Vec<String> {
        let width = if source == 0 { 3 } else { 2 };
        (0..width).map(|c| format!("s{source}c{c}")).collect()
    }

    /// A row of `source` taking its cells from `pool` in turn.
    fn row(source: usize, pool: &mut impl Iterator<Item = Vec<u32>>, alphabet: u32) -> Row {
        let width = columns(source).len();
        Row::from_values(
            (0..width)
                .map(|_| cell(&pool.next().unwrap(), alphabet))
                .collect(),
        )
    }

    fn table(source: usize, rows: Vec<Row>) -> Table {
        Table::from_rows(format!("S{source}"), &columns(source), rows).unwrap()
    }

    /// Apply delta `code` to `tables`: one source, a few updates, inserts
    /// or deletes. Returns the new tables and the union's `new_to_old`.
    fn delta(
        tables: &[Table],
        code: u32,
        pool: &mut impl Iterator<Item = Vec<u32>>,
        alphabet: u32,
    ) -> (Vec<Table>, Vec<Option<usize>>) {
        let source = code as usize % tables.len();
        let mut rows: Vec<(Option<usize>, Row)> = tables[source]
            .rows()
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, r)| (Some(i), r))
            .collect();
        let mut rest = code / 4;
        for _ in 0..1 + rest % 3 {
            rest /= 3;
            let pick = rest as usize;
            rest /= 7;
            match rest % 6 {
                // Updates twice as often as inserts and deletes together.
                0..=3 if !rows.is_empty() => {
                    let at = pick % rows.len();
                    rows[at].1 = row(source, pool, alphabet);
                }
                4 => rows.push((None, row(source, pool, alphabet))),
                5 if rows.len() > 1 => {
                    rows.remove(pick % rows.len());
                }
                _ => {}
            }
            rest /= 6;
        }
        let mut new_tables = tables.to_vec();
        let origins: Vec<Option<usize>> = rows.iter().map(|(o, _)| *o).collect();
        new_tables[source] = table(source, rows.into_iter().map(|(_, r)| r).collect());
        let mut new_to_old = Vec::new();
        let mut old_start = 0;
        for (s, t) in tables.iter().enumerate() {
            if s == source {
                new_to_old.extend(origins.iter().map(|o| o.map(|o| o + old_start)));
            } else {
                new_to_old.extend((0..t.len()).map(|r| Some(r + old_start)));
            }
            old_start += t.len();
        }
        (new_tables, new_to_old)
    }

    fn configs() -> Vec<MatcherConfig> {
        let mut configs = Vec::new();
        for top_k in [1, 2, 10] {
            for min_similarity in [0.0, 0.3, 0.6] {
                for one_to_one in [true, false] {
                    configs.push(MatcherConfig {
                        sniff: SniffConfig {
                            top_k,
                            min_similarity,
                            one_to_one,
                        },
                        ..MatcherConfig::default()
                    });
                }
            }
        }
        configs
    }

    /// Run one chain of deltas through a carried index, checking every
    /// step, at each degree and first-round size.
    fn chain(
        tables: Vec<Table>,
        codes: &[u32],
        pool: &[Vec<u32>],
        alphabet: u32,
        cfg: &MatcherConfig,
    ) {
        for first_rows in [1, 5, FIRST_ROWS] {
            for degree in 1..=4 {
                let par = Parallelism::degree(degree);
                let mut pool = pool.iter().cloned().cycle().skip(7);
                let mut tables = tables.clone();
                let refs: Vec<&Table> = tables.iter().collect();
                let mut index = MatchIndex::build_from_rows(&refs, cfg, par, first_rows);
                for (step, &code) in codes.iter().enumerate() {
                    let (next, new_to_old) = delta(&tables, code, &mut pool, alphabet);
                    let refs: Vec<&Table> = tables.iter().collect();
                    let old = integrate(&refs, &index.results(), "Integrated").unwrap();
                    let next_refs: Vec<&Table> = next.iter().collect();
                    index
                        .apply_delta(&old, &next_refs, &new_to_old, par)
                        .unwrap();
                    let context = format!("{cfg:?}, first rows {first_rows}, step {step}");
                    assert_equals_scratch(&index, &next, &context);
                    tables = next;
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// Random update / insert / delete chains on either side of a
        /// two- or three-source star equal a cold match after every step.
        #[test]
        fn delta_chains_equal_a_cold_match(
            sources in 2usize..4,
            lengths in prop::collection::vec(1usize..12, 3),
            pool in prop::collection::vec(prop::collection::vec(0u32..1000, 0..4), 1..60),
            codes in prop::collection::vec(0u32..1_000_000, 1..5),
            alphabet in 2u32..10,
            pick in 0usize..18,
        ) {
            let mut cells = pool.iter().cloned().cycle();
            let tables: Vec<Table> = (0..sources)
                .map(|s| table(s, (0..lengths[s]).map(|_| row(s, &mut cells, alphabet)).collect()))
                .collect();
            chain(tables, &codes, &pool, alphabet, &configs()[pick]);
        }
    }

    /// Sixty rows per source, each a person with a few shared words.
    fn people(source: usize, n: usize) -> Table {
        let towns = ["berlin", "hamburg", "munich", "potsdam"];
        let rows = (0..n)
            .map(|i| {
                let name = Value::text(format!("person{i} family{}", i % 9));
                let town = Value::text(towns[(i + source) % towns.len()]);
                let values = match source {
                    0 => vec![name, town, Value::Int(20 + i as i64 % 30)],
                    _ => vec![town, name],
                };
                Row::from_values(values)
            })
            .collect();
        Table::from_rows(format!("P{source}"), &columns(source), rows).unwrap()
    }

    fn tagged(table: &Table, row: usize, tag: &str) -> Table {
        let mut rows = table.rows().to_vec();
        let mut values = rows[row].values().to_vec();
        let text = values
            .iter_mut()
            .find(|v| matches!(v, Value::Text(_)))
            .unwrap();
        *text = Value::text(format!("{text} {tag}"));
        rows[row] = Row::from_values(values);
        let names: Vec<&str> = table.schema().names();
        Table::from_rows(table.name(), &names, rows).unwrap()
    }

    /// A one-row update costs its row: one row tokenized, no pair rebuilt,
    /// most matrices carried; an update of a non-preferred source leaves
    /// the other pair untouched.
    #[test]
    fn one_row_updates_cost_their_row() {
        let cfg = MatcherConfig {
            sniff: SniffConfig {
                min_similarity: 0.3,
                ..SniffConfig::default()
            },
            ..MatcherConfig::default()
        };
        let par = Parallelism::sequential();
        let mut tables: Vec<Table> = (0..3).map(|s| people(s, 60)).collect();
        let refs: Vec<&Table> = tables.iter().collect();
        let mut index = MatchIndex::build(&refs, &cfg, par);
        let identity: Vec<Option<usize>> = (0..180).map(Some).collect();
        for (step, source) in [0, 0, 2, 1].into_iter().enumerate() {
            let old = {
                let refs: Vec<&Table> = tables.iter().collect();
                integrate(&refs, &index.results(), "Integrated").unwrap()
            };
            tables[source] = tagged(&tables[source], 7 + step, &format!("d{step}"));
            let refs: Vec<&Table> = tables.iter().collect();
            let stats = index.apply_delta(&old, &refs, &identity, par).unwrap();
            assert_equals_scratch(&index, &tables, &format!("step {step}"));
            assert_eq!(stats.rows_retokenized, 1, "{stats:?}");
            assert_eq!(stats.full_rematch, 0, "{stats:?}");
            let duplicates: usize = index
                .results()
                .iter()
                .map(|r| r.duplicates_used.len())
                .sum();
            assert!(stats.pair_matrices_reused + 2 >= duplicates, "{stats:?}");
            if source > 0 {
                let other = 2 - source; // the pair of the source left alone
                let untouched = &index.results()[other];
                assert_eq!(untouched.sniff, SniffStats::default());
            }
        }
    }
}
