//! Duplicate *sniffing* across unaligned tables — the first half of DUMAS.
//!
//! "Duplicate detection in unaligned databases is more difficult than in the
//! usual setting, because attribute correspondences are missing. [...] the
//! goal of this phase is not to detect all duplicates, but only as many as
//! required for schema matching. DUMAS considers a tuple as one string and
//! applies a string similarity measure to extract the most similar tuple
//! pairs." (paper §2.2)
//!
//! Tuples become unit TF-IDF vectors over word tokens and pairs are ranked
//! by cosine. The answer is *defined* by the full join — every
//! token-sharing pair at or above `min_similarity`, sorted by (similarity
//! descending, left row, right row), greedily filtered to 1:1, cut to
//! `top_k` — but it is *computed* without it:
//!
//! * **Index.** Tokens are interned to ids in string order
//!   ([`hummer_textsim::interned`]); the right table's vectors are inverted
//!   into one posting array per token, with the largest weight any right
//!   row gives the token.
//! * **Bounded scan of a left row at a threshold θ.** The row's tokens are
//!   walked from the shortest posting list to the longest. Every right row
//!   met for the first time is scored, by a merge-join of the two id-sorted
//!   vectors. A right row *not* met shares only unwalked tokens `U` with
//!   the row, so its similarity is at most `Σ_{t∈U} w(t)·maxw(t)` and at
//!   most `‖w|U‖` (its own vector has unit length); the walk stops when
//!   that bound, with slack for float rounding, is below θ. Per row only
//!   the best `top_k` pairs are kept: the 1:1 filter reaches a row's
//!   `(k+1)`-th partner only after `k` pairs were accepted.
//! * **Rounds.** Rows are scanned at θ = 1, the highest similarity there
//!   is, in row order — the first 1024, then four times as many — and the
//!   kept pairs are sorted and filtered like the full join. Pairs that tie
//!   at 1 are ordered by left row, so `top_k` survivors among the rows
//!   scanned so far are the answer. Once every row is scanned and fewer
//!   survive, θ drops to the `top_k`-th surviving similarity among *all*
//!   pairs found so far, rows whose unwalked bound reaches the new θ are
//!   scanned again, and if that still falls short θ drops to
//!   `min_similarity` for a last round.
//!
//! **Why the answer is the full join's, bit for bit.** After a round at θ
//! every pair at or above θ is known, and those pairs are a prefix of the
//! full join's sorted list; the greedy filter reads a list front to back,
//! so its first `top_k` acceptances on a complete prefix are its first
//! `top_k` acceptances on the whole list. And a merge-join adds the
//! products of the shared tokens in token order, starting from zero, which
//! is the order and the start the full join's per-pair accumulator had.
//!
//! **Cost.** With a few near-duplicates in the data the first round walks
//! each row's rarest tokens only, which is linear in the rows. The worst
//! case — every row shares its tokens with every other, or fewer than
//! `top_k` pairs exist — is the last round's: the full join, one
//! merge-join per token-sharing pair.
//!
//! ## The carried state and its invariant
//!
//! The carried `Sniffer` keeps what a search computed: the row corpus (document
//! frequencies over the rows of both tables), the idf table, both tables'
//! vectors, the right index, and where the rounds stopped — the threshold
//! θ, the prefix `P` of left rows in play, each left row's `unseen` bound
//! and the kept pairs, in the full join's order. It keeps this invariant:
//!
//! > every left row `i < P` has `unseen[i] < θ`, every right row more
//! > similar to it than `unseen[i]` has been scored against it, and its
//! > kept pairs are the best `top_k` (similarity descending, right row
//! > ascending) of those scored at or above `min_similarity`; every row
//! > `i ≥ P` is unscanned (`unseen[i] = +∞`, no pairs); θ < 1 only when
//! > `P` covers every row; and the rounds' stopping rule holds at (θ, P).
//!
//! That is all the argument above reads, so any state that keeps it holds
//! the full join's answer. A delta that changes rows in place (no row
//! inserted or deleted, so the document count stands) restores it at the
//! carried (θ, P):
//!
//! 1. the changed rows leave the corpus and enter it again; a token's idf
//!    is recomputed only if its document frequency moved, and the vectors
//!    recomputed are the changed rows' and those of rows holding such a
//!    token — every other vector keeps its bits;
//! 2. a left row `i < P` whose vector moved, or that kept a pair with a
//!    right row whose vector moved, is scanned again (its pairs dropped,
//!    `unseen[i] = +∞`): a kept pair reading a stale similarity could
//!    hide a better `(k+1)`-th partner;
//! 3. every other row `i < P` is scored against each moved right row that
//!    shares a token with it (found through the left rows' postings) and
//!    keeps its best `top_k`. Its `unseen[i]` still bounds every right row
//!    it did not score: those rows are unchanged, and the bound was taken
//!    over weights they still have — a moved row's old weights only made
//!    `maxw` larger, which loosens a bound but never breaks it;
//! 4. the rounds resume from (θ, P): the rows of step 2 are scanned first,
//!    then the stopping rule decides as it does after any round.
//!
//! The right index is rebuilt when a right vector moved (one counting
//! pass); a delta that changes the document count — rows inserted or
//! deleted — moves every idf, so it rebuilds the pair's state from the
//! carried tokens instead. `MatchResult::sniff` reports the work the last
//! build or delta did.

use crate::tokens::{Pair, Side, StarTokens};
use hummer_engine::Table;
use hummer_par::{par_chunks, Parallelism};
use hummer_textsim::interned::{remap_table, IdVectors, InternedCorpus, DROPPED};
use std::cmp::Ordering;

/// A candidate duplicate pair across two tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TupleMatch {
    /// Row index in the left table.
    pub left: usize,
    /// Row index in the right table.
    pub right: usize,
    /// TF-IDF cosine similarity of the two tuples rendered as strings.
    pub similarity: f64,
}

/// Configuration for duplicate sniffing.
#[derive(Debug, Clone)]
pub struct SniffConfig {
    /// How many top pairs to return (the `k` duplicates used for matching).
    pub top_k: usize,
    /// Minimum tuple cosine similarity for a pair to qualify at all.
    pub min_similarity: f64,
    /// When true (default), each row may appear in at most one returned
    /// pair (greedy 1:1 filter by descending similarity), which stops one
    /// hub tuple from dominating the sample.
    pub one_to_one: bool,
}

impl Default for SniffConfig {
    fn default() -> Self {
        SniffConfig {
            top_k: 10,
            min_similarity: 0.5,
            one_to_one: true,
        }
    }
}

/// How much work one sniffing took. The counts depend on the tables and the
/// configuration only, not on the degree of parallelism.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SniffStats {
    /// Posting-list entries read.
    pub postings_visited: u64,
    /// Tuple pairs scored (one merge-join each).
    pub candidates_scored: u64,
    /// Left rows scanned again in a later round, at a lower threshold.
    pub rows_expanded: u64,
    /// Rounds run: 1 when the first scan settled the answer.
    pub rounds: u64,
}

/// Find the most similar tuple pairs between two unaligned tables.
///
/// Corpus statistics (document frequencies) are computed over *both* tables
/// so a token common in either source is appropriately discounted.
///
/// Up to `par.get()` threads scan left rows concurrently against a shared
/// inverted index over the right table. A row's scan depends on the row
/// and the round's threshold only, and the final total order (similarity
/// desc, then row indices) makes the result deterministic regardless of
/// degree — the output is bit-identical at every degree.
pub fn sniff_duplicates(
    left: &Table,
    right: &Table,
    cfg: &SniffConfig,
    par: Parallelism,
) -> Vec<TupleMatch> {
    let tokens = StarTokens::new(&[left, right]);
    Sniffer::new(tokens.pair(1), cfg, par, FIRST_ROWS).1
}

/// How many left rows the first round scans. While the threshold is 1, the
/// highest similarity there is, rows are taken in order, a few times more
/// each round: pairs that tie at 1 are ordered by left row, so `top_k`
/// survivors among the first rows end the search (exact copies are common
/// in sources worth fusing).
pub(crate) const FIRST_ROWS: usize = 1024;

/// The state one pair's search for duplicates stopped in, which a delta
/// resumes it from (see the module docs).
#[derive(Debug)]
pub(crate) struct Sniffer {
    /// The work of the last build or delta.
    pub stats: SniffStats,
    /// `None` when there is nothing to search: an unsatisfiable
    /// configuration or an empty table.
    state: Option<State>,
}

#[derive(Debug)]
struct State {
    /// Document frequencies over the rows of both tables.
    corpus: InternedCorpus,
    idf: Vec<f64>,
    left: IdVectors,
    right: IdVectors,
    index: RightIndex,
    /// `unseen[i]`: no right row that row `i` has not been scored against
    /// is more similar to it than this (`+∞` before the row's first scan).
    unseen: Vec<f64>,
    /// Each scanned row's best `top_k` pairs, in the full join's order.
    pairs: Vec<TupleMatch>,
    threshold: f64,
    prefix: usize,
}

/// A pair's rows one delta changed in place: each with its old document
/// (in the new token numbering; tokens that left are omitted), and the rows
/// holding each token now.
pub(crate) struct Changed<'a> {
    pub left: &'a [(usize, Vec<u32>)],
    pub right: &'a [(usize, Vec<u32>)],
    pub left_postings: &'a [Vec<u32>],
    pub right_postings: &'a [Vec<u32>],
}

/// What one delta cost a pair's sniffing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SniffDelta {
    /// Left rows scanned again.
    pub rows_rescanned: usize,
    /// Right rows whose moved vector was scored against the scanned rows
    /// sharing a token with it.
    pub right_rows_rescored: usize,
}

impl Sniffer {
    /// Search a pair, scanning `first_rows` left rows in the first round
    /// (any count gives the same answer; tests pass small ones): the state,
    /// and the full join's first `top_k` survivors.
    pub fn new(
        tokens: Pair<'_>,
        cfg: &SniffConfig,
        par: Parallelism,
        first_rows: usize,
    ) -> (Self, Vec<TupleMatch>) {
        let mut stats = SniffStats::default();
        let (n_l, n_r) = (tokens.rows(Side::Left), tokens.rows(Side::Right));
        // No similarity is above 1 (or comparable with NaN).
        let satisfiable = cfg.top_k > 0 && cfg.min_similarity <= 1.0;
        if !satisfiable || n_l == 0 || n_r == 0 {
            return (Sniffer { stats, state: None }, Vec::new());
        }

        let mut corpus = InternedCorpus::new(tokens.vocabulary().len());
        for side in [Side::Left, Side::Right] {
            for row in 0..tokens.rows(side) {
                corpus.add_document(tokens.row(side, row));
            }
        }
        let idf = corpus.idf_table();
        let vectors = |side| {
            let mut vectors = IdVectors::new();
            for row in 0..tokens.rows(side) {
                vectors.push(tokens.row(side, row), &idf);
            }
            vectors
        };
        let (left, right) = (vectors(Side::Left), vectors(Side::Right));
        let mut state = State {
            index: RightIndex::new(&right, tokens.vocabulary().len()),
            corpus,
            idf,
            left,
            right,
            unseen: vec![f64::INFINITY; n_l],
            pairs: Vec::new(),
            threshold: 1.0,
            prefix: first_rows.clamp(1, n_l),
        };
        let found = state.rounds(cfg, par, &mut stats);
        let sniffer = Sniffer {
            stats,
            state: Some(state),
        };
        (sniffer, found)
    }

    /// Renumber the token ids (`remap[old] = new`, see
    /// [`crate::tokens::Retokenized`]) to a vocabulary of `len` tokens.
    pub fn remap(&mut self, remap: &[u32], len: usize) {
        if let Some(state) = &mut self.state {
            state.corpus.remap(remap, len);
            state.idf = remap_table(&state.idf, remap, len);
            state.left.remap(remap);
            state.right.remap(remap);
            state.index.remap(remap, len);
        }
    }

    /// Carry the search across a delta that changed `changed` rows in
    /// place; `tokens` are the pair's new tokens (already renumbered, as is
    /// this state). Returns the full join's answer over the new tables —
    /// see the module docs for the argument — and what it cost.
    pub fn apply_delta(
        &mut self,
        tokens: Pair<'_>,
        changed: &Changed<'_>,
        cfg: &SniffConfig,
        par: Parallelism,
    ) -> (Vec<TupleMatch>, SniffDelta) {
        self.stats = SniffStats::default();
        let Some(state) = &mut self.state else {
            // Nothing to search before, nothing now: the row counts held.
            return (Vec::new(), SniffDelta::default());
        };
        let (n_l, n_r) = (tokens.rows(Side::Left), tokens.rows(Side::Right));

        // 1. Corpus, idf, vectors.
        let mut affected: Vec<u32> = Vec::new();
        for (side, rows) in [(Side::Left, changed.left), (Side::Right, changed.right)] {
            for (row, old) in rows {
                state.corpus.remove_document(old);
                let new = tokens.row(side, *row);
                state.corpus.add_document(new);
                affected.extend_from_slice(old);
                affected.extend_from_slice(new);
            }
        }
        affected.sort_unstable();
        affected.dedup();
        let mut moved_left = vec![false; n_l];
        let mut moved_right = vec![false; n_r];
        for (row, _) in changed.left {
            moved_left[*row] = true;
        }
        for (row, _) in changed.right {
            moved_right[*row] = true;
        }
        for t in affected {
            let idf = state.corpus.idf(t);
            if idf.to_bits() != state.idf[t as usize].to_bits() {
                state.idf[t as usize] = idf;
                for &i in &changed.left_postings[t as usize] {
                    moved_left[i as usize] = true;
                }
                for &j in &changed.right_postings[t as usize] {
                    moved_right[j as usize] = true;
                }
            }
        }
        let rows_of =
            |moved: &[bool]| -> Vec<usize> { (0..moved.len()).filter(|&r| moved[r]).collect() };
        let (left_rows, right_rows) = (rows_of(&moved_left), rows_of(&moved_right));
        state
            .left
            .reweigh(&left_rows, |r| tokens.row(Side::Left, r), &state.idf);
        state
            .right
            .reweigh(&right_rows, |r| tokens.row(Side::Right, r), &state.idf);
        if !right_rows.is_empty() {
            state.index = RightIndex::new(&state.right, tokens.vocabulary().len());
        }

        // 2. Rows to scan again.
        let prefix = state.prefix;
        let mut rescan = vec![false; n_l];
        for &i in left_rows.iter().take_while(|&&i| i < prefix) {
            rescan[i] = true;
        }
        for p in &state.pairs {
            rescan[p.left] |= moved_right[p.right];
        }
        let mut rows_rescanned = 0;
        for (i, _) in rescan.iter().enumerate().filter(|(_, r)| **r) {
            state.unseen[i] = f64::INFINITY;
            rows_rescanned += 1;
        }
        state.pairs.retain(|p| !rescan[p.left]);

        // 3. Every other scanned row against the moved right rows it
        //    shares a token with.
        let mut met = vec![0usize; n_l];
        let mut capped = vec![false; n_l];
        let mut scored = Vec::new();
        for (mark, &j) in right_rows.iter().enumerate() {
            let vector = state.right.get(j);
            for &t in vector.ids {
                for &i in &changed.left_postings[t as usize] {
                    let i = i as usize;
                    if i >= prefix || rescan[i] || met[i] == mark + 1 {
                        continue;
                    }
                    met[i] = mark + 1;
                    self.stats.candidates_scored += 1;
                    let similarity = state.left.get(i).dot(&vector).clamp(0.0, 1.0);
                    if similarity >= cfg.min_similarity {
                        capped[i] = true;
                        scored.push(TupleMatch {
                            left: i,
                            right: j,
                            similarity,
                        });
                    }
                }
            }
        }
        if !scored.is_empty() {
            state.pairs.extend(scored);
            state.pairs.sort_by(full_join_order);
            let mut kept = vec![0usize; n_l];
            state.pairs.retain(|p| {
                if !capped[p.left] {
                    return true;
                }
                kept[p.left] += 1;
                kept[p.left] <= cfg.top_k
            });
        }

        // 4. Resume the rounds.
        let found = state.rounds(cfg, par, &mut self.stats);
        let work = SniffDelta {
            rows_rescanned,
            right_rows_rescored: right_rows.len(),
        };
        (found, work)
    }
}

impl State {
    /// Run rounds from the current (θ, P) until the stopping rule holds;
    /// returns the answer.
    fn rounds(
        &mut self,
        cfg: &SniffConfig,
        par: Parallelism,
        stats: &mut SniffStats,
    ) -> Vec<TupleMatch> {
        let (n_l, n_r) = (self.left.len(), self.right.len());
        let scanner = Scanner {
            index: &self.index,
            left: &self.left,
            right: &self.right,
            cfg,
        };
        let (unseen, pairs) = (&mut self.unseen, &mut self.pairs);
        loop {
            stats.rounds += 1;
            let threshold = self.threshold;
            let rows: Vec<usize> = (0..self.prefix)
                .filter(|&i| unseen[i] >= threshold)
                .collect();
            let scanned_before = rows.iter().filter(|&&i| unseen[i] < f64::INFINITY);
            stats.rows_expanded += scanned_before.count() as u64;
            pairs.retain(|p| unseen[p.left] < threshold);
            let mut scanned_rows = rows.iter();
            for chunk in par_chunks(par, &rows, |_, chunk| scanner.scan(chunk, threshold)) {
                pairs.extend(chunk.pairs);
                for bound in chunk.unseen {
                    unseen[*scanned_rows.next().expect("one bound per scanned row")] = bound;
                }
                stats.postings_visited += chunk.postings_visited;
                stats.candidates_scored += chunk.candidates_scored;
            }
            pairs.sort_by(full_join_order);

            let selected = select(pairs, threshold, cfg, n_l, n_r);
            if selected.len() == cfg.top_k {
                return selected;
            }
            if self.prefix < n_l {
                self.prefix = (4 * self.prefix).min(n_l);
            } else if threshold <= cfg.min_similarity {
                return selected;
            } else if threshold == 1.0 {
                // First drop: to what the pairs found so far promise.
                let reachable = select(pairs, cfg.min_similarity, cfg, n_l, n_r);
                self.threshold = match reachable.get(cfg.top_k - 1) {
                    Some(last) => last.similarity,
                    None => cfg.min_similarity,
                };
            } else {
                self.threshold = cfg.min_similarity;
            }
        }
    }
}

/// The full join's total order: similarity descending, then row indices.
fn full_join_order(a: &TupleMatch, b: &TupleMatch) -> Ordering {
    b.similarity
        .total_cmp(&a.similarity)
        .then(a.left.cmp(&b.left))
        .then(a.right.cmp(&b.right))
}

/// The first `top_k` pairs of `sorted` that survive the 1:1 filter (when it
/// is on), reading no pair below `floor`.
fn select(
    sorted: &[TupleMatch],
    floor: f64,
    cfg: &SniffConfig,
    n_l: usize,
    n_r: usize,
) -> Vec<TupleMatch> {
    let readable = sorted.iter().take_while(|p| p.similarity >= floor);
    if !cfg.one_to_one {
        return readable.take(cfg.top_k).copied().collect();
    }
    let mut used_l = vec![false; n_l];
    let mut used_r = vec![false; n_r];
    readable
        .filter(|p| {
            let free = !used_l[p.left] && !used_r[p.right];
            if free {
                used_l[p.left] = true;
                used_r[p.right] = true;
            }
            free
        })
        .take(cfg.top_k)
        .copied()
        .collect()
}

/// The right table's vectors inverted: which rows hold a token, and the
/// largest weight any of them gives it.
#[derive(Debug)]
struct RightIndex {
    /// Token `t`'s rows are `rows[starts[t]..starts[t + 1]]`, ascending.
    starts: Vec<usize>,
    rows: Vec<u32>,
    max_weight: Vec<f64>,
    /// Factor that lifts a bound computed in floats above every similarity
    /// computed in floats that the exact bound dominates. Sums of `m`
    /// products and a vector's unit norm are each off by a relative
    /// `m · ε` at most; `m` is the longest vector's length.
    slack: f64,
}

impl RightIndex {
    fn new(right: &IdVectors, vocabulary_len: usize) -> Self {
        assert!(
            u32::try_from(right.len()).is_ok(),
            "posting lists hold row numbers as u32"
        );
        let mut starts = vec![0usize; vocabulary_len + 1];
        let mut longest = 0;
        for row in 0..right.len() {
            let ids = right.get(row).ids;
            longest = longest.max(ids.len());
            for &id in ids {
                starts[id as usize + 1] += 1;
            }
        }
        for t in 0..vocabulary_len {
            starts[t + 1] += starts[t];
        }
        let mut rows = vec![0u32; starts[vocabulary_len]];
        let mut max_weight = vec![0.0f64; vocabulary_len];
        let mut next = starts.clone();
        for row in 0..right.len() {
            let vector = right.get(row);
            for (&id, &weight) in vector.ids.iter().zip(vector.weights) {
                let t = id as usize;
                rows[next[t]] = row as u32;
                next[t] += 1;
                max_weight[t] = max_weight[t].max(weight);
            }
        }
        RightIndex {
            starts,
            rows,
            max_weight,
            slack: 1.0 + 4.0 * (longest + 2) as f64 * f64::EPSILON,
        }
    }

    /// Renumber the token ids; the posting arrays keep their order. The
    /// postings of a token that left (held only by rows the delta weighs
    /// again, which rebuilds the index) are dropped with it.
    fn remap(&mut self, remap: &[u32], len: usize) {
        let mut starts = vec![0usize; len + 1];
        let mut dropped_postings = false;
        for (old, &new) in remap.iter().enumerate() {
            let count = self.starts[old + 1] - self.starts[old];
            if new == DROPPED {
                dropped_postings |= count > 0;
            } else {
                starts[new as usize + 1] = count;
            }
        }
        if dropped_postings {
            let live = (0..remap.len()).filter(|&old| remap[old] != DROPPED);
            self.rows = live
                .flat_map(|old| &self.rows[self.starts[old]..self.starts[old + 1]])
                .copied()
                .collect();
        }
        for t in 0..len {
            starts[t + 1] += starts[t];
        }
        self.starts = starts;
        self.max_weight = remap_table(&self.max_weight, remap, len);
    }

    fn posting(&self, id: u32) -> &[u32] {
        &self.rows[self.starts[id as usize]..self.starts[id as usize + 1]]
    }
}

/// What scanning a chunk of left rows found.
struct Scanned {
    /// Per scanned row, its best `top_k` pairs at or above
    /// `min_similarity`.
    pairs: Vec<TupleMatch>,
    /// Per scanned row, the bound on the right rows it was not scored
    /// against (`-∞` when there is none).
    unseen: Vec<f64>,
    postings_visited: u64,
    candidates_scored: u64,
}

struct Scanner<'a> {
    index: &'a RightIndex,
    left: &'a IdVectors,
    right: &'a IdVectors,
    cfg: &'a SniffConfig,
}

impl Scanner<'_> {
    /// Score each of `rows` against every right row that could be at least
    /// `threshold` similar to it (and whatever else the walk meets).
    fn scan(&self, rows: &[usize], threshold: f64) -> Scanned {
        let mut out = Scanned {
            pairs: Vec::new(),
            unseen: Vec::with_capacity(rows.len()),
            postings_visited: 0,
            candidates_scored: 0,
        };
        // `met[j] == mark`: right row `j` was scored against the current
        // left row. Marks are positions in `rows`, from 1.
        let mut met = vec![0usize; self.right.len()];
        // The current row's tokens that some right row holds: (posting
        // length, id, weight), shortest posting first.
        let mut walk: Vec<(usize, u32, f64)> = Vec::new();
        // `bounds[p]`: no right row that shares only `walk[p..]` with the
        // current row is more similar to it than this.
        let mut bounds: Vec<f64> = Vec::new();
        let mut found: Vec<(usize, f64)> = Vec::new();
        let best_first =
            |a: &(usize, f64), b: &(usize, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));

        for (position, &i) in rows.iter().enumerate() {
            let mark = position + 1;
            let vector = self.left.get(i);
            walk.clear();
            for (&id, &weight) in vector.ids.iter().zip(vector.weights) {
                let len = self.index.posting(id).len();
                if len > 0 {
                    walk.push((len, id, weight));
                }
            }
            walk.sort_unstable_by_key(|&(len, id, _)| (len, id));

            bounds.clear();
            bounds.resize(walk.len() + 1, f64::NEG_INFINITY);
            let (mut by_max_weight, mut squares) = (0.0f64, 0.0f64);
            for (p, &(_, id, weight)) in walk.iter().enumerate().rev() {
                by_max_weight += weight * self.index.max_weight[id as usize];
                squares += weight * weight;
                bounds[p] = by_max_weight.min(squares.sqrt()) * self.index.slack;
            }

            let mut walked = 0;
            while walked < walk.len() && bounds[walked] >= threshold {
                let posting = self.index.posting(walk[walked].1);
                out.postings_visited += posting.len() as u64;
                for &j in posting {
                    let j = j as usize;
                    if met[j] == mark {
                        continue;
                    }
                    met[j] = mark;
                    out.candidates_scored += 1;
                    let similarity = vector.dot(&self.right.get(j)).clamp(0.0, 1.0);
                    if similarity >= self.cfg.min_similarity {
                        found.push((j, similarity));
                    }
                }
                walked += 1;
            }
            out.unseen.push(bounds[walked]);

            if found.len() > self.cfg.top_k {
                found.select_nth_unstable_by(self.cfg.top_k - 1, best_first);
                found.truncate(self.cfg.top_k);
            }
            out.pairs
                .extend(found.drain(..).map(|(j, similarity)| TupleMatch {
                    left: i,
                    right: j,
                    similarity,
                }));
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hummer_engine::{table, Row, Value};
    use hummer_textsim::tfidf::{Corpus, TfIdfVector};
    use hummer_textsim::tokenize::word_tokens;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The definition of the answer: the full token-sharing join this
    /// module used to run, kept as the reference the bounded scan is
    /// compared against.
    pub(crate) fn full_join_oracle(
        left: &Table,
        right: &Table,
        cfg: &SniffConfig,
    ) -> Vec<TupleMatch> {
        let documents = |t: &Table| -> Vec<Vec<String>> {
            t.rows()
                .iter()
                .map(|r| word_tokens(&r.as_document()))
                .collect()
        };
        let left_docs = documents(left);
        let right_docs = documents(right);
        let corpus = Corpus::from_documents(left_docs.iter().chain(right_docs.iter()));
        let left_vecs: Vec<TfIdfVector> =
            left_docs.iter().map(|d| corpus.weight_vector(d)).collect();
        let right_vecs: Vec<TfIdfVector> =
            right_docs.iter().map(|d| corpus.weight_vector(d)).collect();

        let mut index: HashMap<&str, Vec<(usize, f64)>> = HashMap::new();
        for (j, v) in right_vecs.iter().enumerate() {
            for (tok, w) in v.iter() {
                index.entry(tok).or_default().push((j, w));
            }
        }
        let mut pairs: Vec<TupleMatch> = Vec::new();
        let mut acc: HashMap<usize, f64> = HashMap::new();
        for (i, v) in left_vecs.iter().enumerate() {
            acc.clear();
            for (tok, w) in v.iter() {
                if let Some(posting) = index.get(tok) {
                    for &(j, wj) in posting {
                        *acc.entry(j).or_insert(0.0) += w * wj;
                    }
                }
            }
            for (&j, &dot) in &acc {
                let sim = dot.clamp(0.0, 1.0);
                if sim >= cfg.min_similarity {
                    pairs.push(TupleMatch {
                        left: i,
                        right: j,
                        similarity: sim,
                    });
                }
            }
        }
        pairs.sort_by(full_join_order);
        if cfg.one_to_one {
            let mut used_l = vec![false; left.len()];
            let mut used_r = vec![false; right.len()];
            pairs.retain(|p| {
                let free = !used_l[p.left] && !used_r[p.right];
                if free {
                    used_l[p.left] = true;
                    used_r[p.right] = true;
                }
                free
            });
        }
        pairs.truncate(cfg.top_k);
        pairs
    }

    /// Rows and similarity bits, for comparison.
    fn bits(pairs: &[TupleMatch]) -> Vec<(usize, usize, u64)> {
        pairs
            .iter()
            .map(|p| (p.left, p.right, p.similarity.to_bits()))
            .collect()
    }

    /// Sniffing equals the oracle at degrees 1–4, and does the same work
    /// at each, and equals it from a small first round too. Returns the
    /// work at the real first round.
    fn assert_equals_oracle(left: &Table, right: &Table, cfg: &SniffConfig) -> SniffStats {
        let expected = bits(&full_join_oracle(left, right, cfg));
        let tokens = StarTokens::new(&[left, right]);
        for first_rows in [1, 5] {
            let (_, found) = Sniffer::new(tokens.pair(1), cfg, Parallelism::degree(2), first_rows);
            assert_eq!(bits(&found), expected, "{cfg:?} from {first_rows} rows");
        }
        let (sequential, found) =
            Sniffer::new(tokens.pair(1), cfg, Parallelism::sequential(), FIRST_ROWS);
        assert_eq!(bits(&found), expected, "{cfg:?}");
        for degree in 2..=4 {
            let (parallel, found) =
                Sniffer::new(tokens.pair(1), cfg, Parallelism::degree(degree), FIRST_ROWS);
            assert_eq!(bits(&found), expected, "{cfg:?} at degree {degree}");
            assert_eq!(
                parallel.stats, sequential.stats,
                "{cfg:?} at degree {degree}"
            );
        }
        sequential.stats
    }

    /// Every `top_k` × `min_similarity` × `one_to_one` worth trying on a
    /// small table pair.
    fn small_table_configs() -> Vec<SniffConfig> {
        let mut configs = Vec::new();
        for top_k in [0, 1, 2, 10, 10_000] {
            for min_similarity in [0.0, 0.2, 0.5, 0.9] {
                for one_to_one in [true, false] {
                    configs.push(SniffConfig {
                        top_k,
                        min_similarity,
                        one_to_one,
                    });
                }
            }
        }
        configs
    }

    /// A one-column table of the given documents (`None` is a NULL cell).
    fn documents_table(name: &str, docs: &[Option<&str>]) -> Table {
        let rows = docs
            .iter()
            .map(|d| Row::from_values(vec![d.map_or(Value::Null, Value::text)]))
            .collect();
        Table::from_rows(name, &["doc"], rows).expect("one column, one value per row")
    }

    #[test]
    fn equals_oracle_when_every_row_shares_every_token() {
        // No rare token to start from: the bound cannot cut anything.
        let docs = [
            "a b c",
            "a a b c",
            "a b b c",
            "a b c c",
            "c b a",
            "a a a b c",
            "a b c",
            "b c a a",
        ];
        let left: Vec<Option<&str>> = docs.iter().copied().map(Some).collect();
        let right: Vec<Option<&str>> = docs.iter().rev().copied().map(Some).collect();
        let (l, r) = (documents_table("L", &left), documents_table("R", &right));
        for cfg in small_table_configs() {
            assert_equals_oracle(&l, &r, &cfg);
        }
    }

    #[test]
    fn equals_oracle_when_all_rows_are_identical() {
        // Every pair scores 1.0: the row ids alone decide the order.
        let docs = [Some("john smith chicago"); 7];
        let (l, r) = (
            documents_table("L", &docs),
            documents_table("R", &docs[..5]),
        );
        for cfg in small_table_configs() {
            let stats = assert_equals_oracle(&l, &r, &cfg);
            if cfg.top_k > 0 && cfg.top_k <= 5 {
                assert_eq!(stats.rounds, 1, "ties at 1.0 are settled at once: {cfg:?}");
            }
        }
    }

    #[test]
    fn equals_oracle_when_a_hub_row_forces_the_last_round() {
        // The pairs the first round meets promise two 1:1 survivors; the
        // round completed at their similarity then meets a better partner
        // for a row both relied on, one survivor is left, and only the
        // round at `min_similarity` finds the second.
        let l = documents_table(
            "L",
            &[Some("t2 t0"), Some("t2 t3 t0 t0"), Some("t0 t1 t3 t2")],
        );
        let r = documents_table(
            "R",
            &[
                Some("t2"),
                Some("t0"),
                Some("t2 t2"),
                Some("t1 t1 t3"),
                Some("t1 t2 t0 t0"),
            ],
        );
        let cfg = SniffConfig {
            top_k: 2,
            min_similarity: 0.1,
            one_to_one: true,
        };
        let stats = assert_equals_oracle(&l, &r, &cfg);
        assert_eq!(stats.rounds, 3);
        assert!(stats.rows_expanded > 0);
        for cfg in small_table_configs() {
            assert_equals_oracle(&l, &r, &cfg);
        }
    }

    #[test]
    fn equals_oracle_with_empty_and_null_rows() {
        let left = [None, Some(""), Some("john smith"), Some(" - "), None];
        let right = [Some("john smith"), None, Some("..."), Some("mary jones")];
        let (l, r) = (documents_table("L", &left), documents_table("R", &right));
        let nulls = documents_table("N", &[None, None, None]);
        for cfg in small_table_configs() {
            assert_equals_oracle(&l, &r, &cfg);
            assert_equals_oracle(&l, &nulls, &cfg);
            assert_equals_oracle(&nulls, &r, &cfg);
            assert_equals_oracle(&nulls, &nulls, &cfg);
        }
    }

    #[test]
    fn equals_oracle_on_the_scenario_worlds() {
        use hummer_datagen::scenarios::{
            cd_shopping, disaster_registry, person_scale, student_rosters,
        };
        for world in [
            cd_shopping(300, 5),
            disaster_registry(300, 6),
            student_rosters(300, 7),
            person_scale(300, 8),
        ] {
            let (l, r) = (&world.sources[0].table, &world.sources[1].table);
            for top_k in [10, 300, 2000] {
                for min_similarity in [0.2, 0.3, 0.5] {
                    for one_to_one in [true, false] {
                        assert_equals_oracle(
                            l,
                            r,
                            &SniffConfig {
                                top_k,
                                min_similarity,
                                one_to_one,
                            },
                        );
                    }
                }
            }
        }
    }

    /// A cell of a generated table: NULL, or up to three tokens of a small
    /// alphabet (so rows share tokens and similarities tie).
    fn generated_table(name: &str, cells: &[Vec<u32>], alphabet: u32) -> Table {
        let value = |cell: &Vec<u32>| match cell.as_slice() {
            [only] if only % 4 == 0 => Value::Null,
            tokens => Value::text(
                tokens
                    .iter()
                    .map(|t| format!("t{}", t % alphabet))
                    .collect::<Vec<_>>()
                    .join(" "),
            ),
        };
        let rows = cells
            .chunks_exact(2)
            .map(|pair| Row::from_values(pair.iter().map(value).collect()))
            .collect();
        Table::from_rows(name, &["a", "b"], rows).expect("two columns, two values per row")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn equals_oracle_on_generated_tables(
            left in prop::collection::vec(prop::collection::vec(0u32..1000, 0..4), 0..40),
            right in prop::collection::vec(prop::collection::vec(0u32..1000, 0..4), 0..40),
            alphabet in 2u32..12,
        ) {
            let l = generated_table("L", &left, alphabet);
            let r = generated_table("R", &right, alphabet);
            for cfg in small_table_configs() {
                assert_equals_oracle(&l, &r, &cfg);
            }
        }
    }

    fn left() -> Table {
        table! {
            "L" => ["Name", "City", "Age"];
            ["John Smith", "Chicago", 34],
            ["Mary Jones", "Berlin", 28],
            ["Peter Miller", "Paris", 45],
        }
    }

    fn right() -> Table {
        // Different schema order and labels; overlapping entities.
        table! {
            "R" => ["Ort", "Person"];
            ["Chicago", "John Smith"],
            ["Roma", "Giulia Rossi"],
            ["Berlin", "Mary Jones"],
        }
    }

    #[test]
    fn finds_true_duplicates_first() {
        let pairs = sniff_duplicates(
            &left(),
            &right(),
            &SniffConfig::default(),
            Parallelism::sequential(),
        );
        assert!(pairs.len() >= 2);
        // The two overlapping people rank on top, in some order.
        let top2: Vec<(usize, usize)> = pairs.iter().take(2).map(|p| (p.left, p.right)).collect();
        assert!(top2.contains(&(0, 0)), "John Smith pair in top 2: {top2:?}");
        assert!(top2.contains(&(1, 2)), "Mary Jones pair in top 2: {top2:?}");
    }

    #[test]
    fn similarity_is_bounded() {
        let pairs = sniff_duplicates(
            &left(),
            &right(),
            &SniffConfig::default(),
            Parallelism::sequential(),
        );
        for p in pairs {
            assert!((0.0..=1.0).contains(&p.similarity));
        }
    }

    #[test]
    fn min_similarity_prunes() {
        let cfg = SniffConfig {
            min_similarity: 0.99,
            ..Default::default()
        };
        let pairs = sniff_duplicates(&left(), &right(), &cfg, Parallelism::sequential());
        assert!(pairs.is_empty(), "no pair is ~identical: {pairs:?}");
    }

    #[test]
    fn top_k_truncates() {
        let cfg = SniffConfig {
            top_k: 1,
            min_similarity: 0.1,
            ..Default::default()
        };
        let pairs = sniff_duplicates(&left(), &right(), &cfg, Parallelism::sequential());
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn one_to_one_suppresses_hub_rows() {
        // Right row 0 is similar to both left rows; 1:1 keeps only the best.
        let l = table! {
            "L" => ["a"];
            ["john smith chicago"],
            ["john smith chicago illinois"],
        };
        let r = table! {
            "R" => ["b"];
            ["john smith chicago"],
        };
        let strict = sniff_duplicates(
            &l,
            &r,
            &SniffConfig {
                min_similarity: 0.1,
                ..Default::default()
            },
            Parallelism::sequential(),
        );
        assert_eq!(strict.len(), 1);
        let lax = sniff_duplicates(
            &l,
            &r,
            &SniffConfig {
                min_similarity: 0.1,
                one_to_one: false,
                ..Default::default()
            },
            Parallelism::sequential(),
        );
        assert_eq!(lax.len(), 2);
    }

    #[test]
    fn disjoint_tables_no_pairs() {
        let l = table! { "L" => ["a"]; ["aaa bbb"] };
        let r = table! { "R" => ["b"]; ["ccc ddd"] };
        let pairs = sniff_duplicates(
            &l,
            &r,
            &SniffConfig {
                min_similarity: 0.0,
                ..Default::default()
            },
            Parallelism::sequential(),
        );
        assert!(pairs.is_empty());
    }

    #[test]
    fn empty_tables() {
        let l = table! { "L" => ["a"]; };
        let pairs = sniff_duplicates(
            &l,
            &right(),
            &SniffConfig::default(),
            Parallelism::sequential(),
        );
        assert!(pairs.is_empty());
    }

    #[test]
    fn deterministic_order_on_ties() {
        let l = table! { "L" => ["a"]; ["x y"], ["x y"] };
        let r = table! { "R" => ["b"]; ["x y"], ["x y"] };
        let cfg = SniffConfig {
            min_similarity: 0.1,
            one_to_one: false,
            top_k: 10,
        };
        let p1 = sniff_duplicates(&l, &r, &cfg, Parallelism::sequential());
        let p2 = sniff_duplicates(&l, &r, &cfg, Parallelism::sequential());
        assert_eq!(p1, p2);
    }
}
