//! The sources of a star, tokenized once — and kept tokenized across deltas.
//!
//! DUMAS reads the same text twice: sniffing weighs a tuple as one document,
//! the field comparison weighs every cell as one. A tuple's document is its
//! non-`NULL` cells joined by spaces, so its tokens are its cells' tokens in
//! column order — one pass over the cells serves both, and one pass over a
//! source serves every pair of the star it belongs to (the preferred source
//! is read once, not once per pair).
//!
//! ## The carried state and its invariant
//!
//! [`StarTokens`] holds one [`Vocabulary`] for all sources and every cell's
//! token ids. After [`StarTokens::new`] and after every
//! [`StarTokens::apply_delta`] it is exactly what `new` would build over the
//! current tables: the vocabulary is the set of tokens the cells hold, ids
//! are positions in string order ([`hummer_textsim::interned`]), and every
//! cell holds the ids a fresh tokenization gives it. A delta tokenizes only
//! the rows whose cells changed; a token it sees first gets the id its
//! string order demands, and a token no cell holds any more leaves the
//! vocabulary. Both renumber the other tokens by one monotone map (`remap`)
//! that every holder of ids applies in one integer pass — ids keep string
//! order, so sorted id lists stay sorted and every sum over them keeps its
//! order, bit for bit.
//!
//! What only a delta needs — per-token occurrence counts (to know when a
//! token leaves) and per-source postings (which rows hold a token) — is
//! built by the first delta that reads it, never by a cold match.

use hummer_engine::{Table, Value};
use hummer_textsim::interned::{Interner, Vocabulary, DROPPED};
use std::fmt::Write as _;

/// Which table of a pair: the preferred source or the other one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    Left,
    Right,
}

/// Where one source's cells sit in the star's cell numbering.
#[derive(Debug, Clone, Copy)]
struct Shape {
    rows: usize,
    cols: usize,
    first_cell: usize,
}

/// Every cell of every source of a star as token ids ([`Interner`] ids: id
/// order is token order).
#[derive(Debug)]
pub(crate) struct StarTokens {
    pub vocabulary: Vocabulary,
    /// The tokens of all cells back to back: source by source, row-major.
    ids: Vec<u32>,
    /// Cell `c` occupies `ids[cell_starts[c]..cell_starts[c + 1]]`.
    cell_starts: Vec<usize>,
    /// `NULL` cells (no tokens, like an empty text, but not a document of
    /// the field corpus).
    null: Vec<bool>,
    shapes: Vec<Shape>,
    /// How often each token occurs over all cells (empty until a delta).
    occurrences: Vec<u32>,
    /// Per source, per token: the rows holding it, ascending (`None` until
    /// a delta reads it, and again after rows were inserted or deleted).
    postings: Vec<Option<Vec<Vec<u32>>>>,
}

/// Append the token ids of one cell.
fn tokenize_value(
    interner: &mut Interner,
    value: &Value,
    rendered: &mut String,
    ids: &mut Vec<u32>,
) {
    match value {
        Value::Null => {}
        Value::Text(text) => interner.tokenize_into(text, ids),
        other => {
            rendered.clear();
            write!(rendered, "{other}").expect("writing to a String cannot fail");
            interner.tokenize_into(rendered, ids);
        }
    }
}

/// Distinct ids of a document, ascending.
fn distinct(ids: &[u32]) -> Vec<u32> {
    let mut out = ids.to_vec();
    out.sort_unstable();
    out.dedup();
    out
}

/// What [`StarTokens::apply_delta`] did.
#[derive(Debug)]
pub(crate) struct Retokenized {
    /// `remap[old]`: the new id of each old token ([`DROPPED`] for a token
    /// that left), when the vocabulary changed.
    pub remap: Option<Vec<u32>>,
    /// Rows tokenized again (inserted or changed).
    pub rows: usize,
}

impl StarTokens {
    pub fn new(tables: &[&Table]) -> Self {
        let mut interner = Interner::new();
        let mut ids = Vec::new();
        let mut cell_starts = vec![0];
        let mut null = Vec::new();
        let mut rendered = String::new();
        let mut shapes = Vec::with_capacity(tables.len());
        for table in tables {
            shapes.push(Shape {
                rows: table.len(),
                cols: table.schema().len(),
                first_cell: null.len(),
            });
            for value in table.rows().iter().flat_map(|row| row.values()) {
                tokenize_value(&mut interner, value, &mut rendered, &mut ids);
                null.push(value.is_null());
                cell_starts.push(ids.len());
            }
        }
        let vocabulary = interner.finish(&mut ids);
        StarTokens {
            vocabulary,
            ids,
            cell_starts,
            null,
            shapes,
            occurrences: Vec::new(),
            postings: Vec::new(),
        }
    }

    pub fn sources(&self) -> usize {
        self.shapes.len()
    }

    pub fn rows(&self, source: usize) -> usize {
        self.shapes[source].rows
    }

    pub fn cols(&self, source: usize) -> usize {
        self.shapes[source].cols
    }

    /// The cells `first..end` of the star's numbering, back to back.
    fn cells(&self, first: usize, end: usize) -> &[u32] {
        &self.ids[self.cell_starts[first]..self.cell_starts[end]]
    }

    fn first_cell(&self, source: usize, row: usize) -> usize {
        let shape = self.shapes[source];
        shape.first_cell + row * shape.cols
    }

    /// The tokens of one tuple rendered as one document.
    pub fn row(&self, source: usize, row: usize) -> &[u32] {
        let first = self.first_cell(source, row);
        self.cells(first, first + self.cols(source))
    }

    /// The tokens of one cell (none for `NULL`).
    pub fn cell(&self, source: usize, row: usize, col: usize) -> &[u32] {
        let cell = self.first_cell(source, row) + col;
        self.cells(cell, cell + 1)
    }

    pub fn is_null(&self, source: usize, row: usize, col: usize) -> bool {
        self.null[self.first_cell(source, row) + col]
    }

    /// Pair `right` of the star: the preferred source against source
    /// `right`.
    pub fn pair(&self, right: usize) -> Pair<'_> {
        Pair {
            tokens: self,
            right,
        }
    }

    /// Build the postings of `source` unless they are kept already.
    pub fn ensure_postings(&mut self, source: usize) {
        if self.postings.len() < self.sources() {
            self.postings.resize(self.sources(), None);
        }
        if self.postings[source].is_none() {
            let mut lists = vec![Vec::new(); self.vocabulary.len()];
            for row in 0..self.rows(source) {
                for id in distinct(self.row(source, row)) {
                    lists[id as usize].push(row as u32);
                }
            }
            self.postings[source] = Some(lists);
        }
    }

    /// Which rows of `source` hold each token (after
    /// [`StarTokens::ensure_postings`]).
    pub fn postings(&self, source: usize) -> &[Vec<u32>] {
        self.postings[source]
            .as_deref()
            .expect("postings are built first")
    }

    /// Whether `origin` (as [`StarTokens::apply_delta`] takes it) changes
    /// `source` in place: the same row count, and every carried row kept
    /// at its own index. Row numbers then still name the same rows, so
    /// whatever is indexed by row — postings here, a pair's vectors and
    /// scan state in [`crate::index`] — can be patched row by row.
    pub fn in_place(&self, source: usize, origin: &[Option<usize>]) -> bool {
        origin.len() == self.rows(source)
            && origin
                .iter()
                .enumerate()
                .all(|(n, o)| o.is_none_or(|o| o == n))
    }

    /// Move the tokens to the tables after a delta. `origins[s][n]` is the
    /// old row of source `s` whose cells new row `n` carries unchanged, or
    /// `None` for a row to tokenize from `tables[s]` (inserted or changed).
    /// Afterwards the state is the one [`StarTokens::new`] builds over
    /// `tables` (see the module docs).
    pub fn apply_delta(
        &mut self,
        tables: &[&Table],
        origins: &[Vec<Option<usize>>],
    ) -> Retokenized {
        debug_assert_eq!(tables.len(), self.sources());
        if self.occurrences.len() != self.vocabulary.len() {
            let mut occurrences = vec![0u32; self.vocabulary.len()];
            for &id in &self.ids {
                occurrences[id as usize] += 1;
            }
            self.occurrences = occurrences;
        }
        if self.postings.len() < self.sources() {
            self.postings.resize(self.sources(), None);
        }

        // The new cells: carried rows copied, the others tokenized with
        // provisional ids (in `fresh` ranges); old rows not carried leave
        // the occurrence counts; rows that changed in place leave the
        // postings of their old tokens.
        let mut interner = Interner::new();
        let mut rendered = String::new();
        let mut ids = Vec::with_capacity(self.ids.len());
        let mut cell_starts = Vec::with_capacity(self.cell_starts.len());
        cell_starts.push(0);
        let mut null = Vec::with_capacity(self.null.len());
        let mut shapes = Vec::with_capacity(tables.len());
        let mut fresh: Vec<(usize, usize)> = Vec::new();
        // Rows changed in place, per source that keeps its postings.
        let mut repost: Vec<(usize, usize)> = Vec::new();
        let mut retokenized = 0;
        for (s, (table, origin)) in tables.iter().zip(origins).enumerate() {
            let old = self.shapes[s];
            let in_place = self.in_place(s, origin);
            let mut kept = vec![false; old.rows];
            for o in origin.iter().flatten() {
                kept[*o] = true;
            }
            for (o, _) in kept.iter().enumerate().filter(|(_, k)| !**k) {
                let first = self.first_cell(s, o);
                let cells = &self.ids[self.cell_starts[first]..self.cell_starts[first + old.cols]];
                for &id in cells {
                    self.occurrences[id as usize] -= 1;
                }
            }
            if !in_place {
                self.postings[s] = None;
            }
            let shape = Shape {
                rows: table.len(),
                cols: table.schema().len(),
                first_cell: null.len(),
            };
            for (n, o) in origin.iter().enumerate() {
                match *o {
                    Some(o) => {
                        let first = self.first_cell(s, o);
                        let (from, to) = (self.cell_starts[first], ids.len());
                        ids.extend_from_slice(self.cells(first, first + old.cols));
                        let starts = &self.cell_starts[first + 1..=first + old.cols];
                        cell_starts.extend(starts.iter().map(|&c| c - from + to));
                        null.extend_from_slice(&self.null[first..first + old.cols]);
                    }
                    None => {
                        retokenized += 1;
                        if in_place {
                            let first = self.first_cell(s, n);
                            if let Some(lists) = &mut self.postings[s] {
                                let old_ids = &self.ids
                                    [self.cell_starts[first]..self.cell_starts[first + old.cols]];
                                for id in distinct(old_ids) {
                                    let list = &mut lists[id as usize];
                                    let at = list.binary_search(&(n as u32)).expect("row posted");
                                    list.remove(at);
                                }
                                repost.push((s, n));
                            }
                        }
                        let start = ids.len();
                        for value in table.rows()[n].values() {
                            tokenize_value(&mut interner, value, &mut rendered, &mut ids);
                            null.push(value.is_null());
                            cell_starts.push(ids.len());
                        }
                        fresh.push((start, ids.len()));
                    }
                }
            }
            shapes.push(shape);
        }

        // Where each freshly seen token goes: its old id, or a new one.
        let (seen, rank) = interner.finish_ranks();
        let mut seen_count = vec![0u32; seen.len()];
        for &(a, b) in &fresh {
            for &p in &ids[a..b] {
                seen_count[rank[p as usize] as usize] += 1;
            }
        }
        let (final_of_seen, remap) = self.place(&seen, &seen_count);

        // Rewrite the ids: carried cells through the renumbering, fresh
        // cells from their provisional ids.
        let mut done = 0;
        let rewrite_carried = |ids: &mut [u32]| {
            if let Some(remap) = &remap {
                for id in ids {
                    *id = remap[*id as usize];
                }
            }
        };
        for &(a, b) in &fresh {
            rewrite_carried(&mut ids[done..a]);
            for p in &mut ids[a..b] {
                *p = final_of_seen[rank[*p as usize] as usize];
            }
            done = b;
        }
        rewrite_carried(&mut ids[done..]);

        self.ids = ids;
        self.cell_starts = cell_starts;
        self.null = null;
        self.shapes = shapes;
        for lists in self.postings.iter_mut().flatten() {
            if let Some(remap) = &remap {
                let mut moved = vec![Vec::new(); self.vocabulary.len()];
                for (o, list) in std::mem::take(lists).into_iter().enumerate() {
                    if remap[o] != DROPPED {
                        moved[remap[o] as usize] = list;
                    }
                }
                *lists = moved;
            }
        }
        for (s, n) in repost {
            let row_ids = distinct(self.row(s, n));
            let lists = self.postings[s].as_mut().expect("kept in place");
            for id in row_ids {
                let list = &mut lists[id as usize];
                let at = list.binary_search(&(n as u32)).expect_err("row not posted");
                list.insert(at, n as u32);
            }
        }
        Retokenized {
            remap,
            rows: retokenized,
        }
    }

    /// Give the tokens a delta tokenized (`seen`, sorted, each occurring
    /// `seen_count` times) their ids, and drop the tokens no cell holds any
    /// more (occurrence 0). Returns each seen token's final id, and the
    /// renumbering of the old ids when the vocabulary changed.
    fn place(&mut self, seen: &Vocabulary, seen_count: &[u32]) -> (Vec<u32>, Option<Vec<u32>>) {
        let seen_old: Vec<Option<u32>> = (0..seen.len() as u32)
            .map(|m| self.vocabulary.id(seen.token(m)))
            .collect();
        for (m, old) in seen_old.iter().enumerate() {
            if let Some(o) = old {
                self.occurrences[*o as usize] += seen_count[m];
            }
        }
        let added = seen_old.iter().filter(|o| o.is_none()).count();
        let dropped = self.occurrences.iter().filter(|&&c| c == 0).count();
        if added == 0 && dropped == 0 {
            let ids = seen_old.iter().map(|o| o.expect("no token added"));
            return (ids.collect(), None);
        }
        // Merge in string order: the old tokens still held, the new ones.
        let old = std::mem::take(&mut self.vocabulary);
        let mut merged: Vec<&str> = Vec::with_capacity(old.len() + added);
        let mut occurrences = Vec::with_capacity(old.len() + added);
        let mut remap = vec![DROPPED; old.len()];
        let mut final_of_seen = vec![0u32; seen.len()];
        let mut new_tokens = (0..seen.len() as u32)
            .filter(|&m| seen_old[m as usize].is_none())
            .peekable();
        for o in 0..old.len() as u32 {
            let token = old.token(o);
            while let Some(m) = new_tokens.next_if(|&m| seen.token(m) < token) {
                final_of_seen[m as usize] = merged.len() as u32;
                merged.push(seen.token(m));
                occurrences.push(seen_count[m as usize]);
            }
            if self.occurrences[o as usize] > 0 {
                remap[o as usize] = merged.len() as u32;
                merged.push(token);
                occurrences.push(self.occurrences[o as usize]);
            }
        }
        for m in new_tokens {
            final_of_seen[m as usize] = merged.len() as u32;
            merged.push(seen.token(m));
            occurrences.push(seen_count[m as usize]);
        }
        for (m, old) in seen_old.iter().enumerate() {
            if let Some(o) = old {
                final_of_seen[m] = remap[*o as usize];
            }
        }
        self.vocabulary = Vocabulary::from_sorted(&merged);
        self.occurrences = occurrences;
        (final_of_seen, Some(remap))
    }

    /// What only deltas keep — occurrence counts, postings — equals a
    /// recount over the current cells.
    #[cfg(test)]
    pub fn assert_consistent(&self) {
        if !self.occurrences.is_empty() {
            let mut recount = vec![0u32; self.vocabulary.len()];
            for &id in &self.ids {
                recount[id as usize] += 1;
            }
            assert_eq!(self.occurrences, recount, "occurrences");
            assert!(recount.iter().all(|&c| c > 0), "every token is held");
        }
        for (source, kept) in self.postings.iter().enumerate() {
            if let Some(kept) = kept {
                let mut fresh = vec![Vec::new(); self.vocabulary.len()];
                for row in 0..self.rows(source) {
                    for id in distinct(self.row(source, row)) {
                        fresh[id as usize].push(row as u32);
                    }
                }
                assert_eq!(kept, &fresh, "postings of source {source}");
            }
        }
    }

    /// The state as plain data, for comparing a carried state with a fresh
    /// one.
    #[cfg(test)]
    pub fn snapshot(&self) -> (Vec<String>, Vec<Vec<Vec<u32>>>, Vec<bool>) {
        let vocabulary = (0..self.vocabulary.len() as u32)
            .map(|id| self.vocabulary.token(id).to_string())
            .collect();
        let cells = (0..self.sources())
            .map(|s| {
                (0..self.rows(s))
                    .flat_map(|r| (0..self.cols(s)).map(move |c| (r, c)))
                    .map(|(r, c)| self.cell(s, r, c).to_vec())
                    .collect()
            })
            .collect();
        (vocabulary, cells, self.null.clone())
    }
}

/// The preferred source and one other source of a star, as the two tables
/// of a match.
#[derive(Clone, Copy)]
pub(crate) struct Pair<'a> {
    tokens: &'a StarTokens,
    right: usize,
}

impl<'a> Pair<'a> {
    fn source(&self, side: Side) -> usize {
        match side {
            Side::Left => 0,
            Side::Right => self.right,
        }
    }

    pub fn vocabulary(&self) -> &'a Vocabulary {
        &self.tokens.vocabulary
    }

    pub fn rows(&self, side: Side) -> usize {
        self.tokens.rows(self.source(side))
    }

    pub fn cols(&self, side: Side) -> usize {
        self.tokens.cols(self.source(side))
    }

    /// The tokens of one tuple rendered as one document.
    pub fn row(&self, side: Side, row: usize) -> &'a [u32] {
        self.tokens.row(self.source(side), row)
    }

    /// The tokens of one cell (none for `NULL`).
    pub fn cell(&self, side: Side, row: usize, col: usize) -> &'a [u32] {
        self.tokens.cell(self.source(side), row, col)
    }

    /// The tokens of each non-`NULL` cell of one row.
    pub fn non_null_cells(&self, side: Side, row: usize) -> impl Iterator<Item = &'a [u32]> + 'a {
        let (tokens, source) = (self.tokens, self.source(side));
        (0..tokens.cols(source))
            .filter(move |&c| !tokens.is_null(source, row, c))
            .map(move |c| tokens.cell(source, row, c))
    }
}
