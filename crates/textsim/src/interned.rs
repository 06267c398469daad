//! Interned tokens: the TF-IDF machinery of [`crate::tfidf`] over dense
//! `u32` token ids instead of `String`s.
//!
//! A caller that weighs the same text more than once (DUMAS sniffing weighs
//! every tuple as one document, then every cell as one) tokenizes it once
//! through an [`Interner`]. Tokens live in one arena ([`Strings`]: their
//! bytes back to back, a keyed hash table of ids over them), so no token
//! has a `String` of its own. [`Interner::finish`] numbers the tokens **in
//! string order**, so sorting ids is sorting tokens: an [`IdVectors`] entry
//! lists its weights in the order a [`crate::tfidf::TfIdfVector`] does, its norm adds the
//! same squares in the same order, and [`IdVector::dot`] adds the same
//! products in the same order as [`crate::tfidf::TfIdfVector::cosine`]. Every float that
//! comes out of this module is bit-identical to the string path's.

use crate::tfidf::{l2_normalize, merge_dot, smoothed_idf};
use crate::tokenize::for_each_word;
use std::hash::{BuildHasher, RandomState};

/// The entry of a renumbering (`remap[old] = new`) for a token that has no
/// new id: no document holds it any more.
pub const DROPPED: u32 = u32::MAX;

/// A per-token table renumbered: entry `remap[old]` of the result is
/// `table[old]`, tokens without an old id get `T::default()`, dropped
/// tokens vanish. `remap` is monotone, so a table sorted by id stays sorted.
pub fn remap_table<T: Copy + Default>(table: &[T], remap: &[u32], len: usize) -> Vec<T> {
    let mut out = vec![T::default(); len];
    for (&new, &value) in remap.iter().zip(table) {
        if new != DROPPED {
            out[new as usize] = value;
        }
    }
    out
}

/// Strings back to back in one `String`: string `i` is
/// `bytes[ends[i - 1]..ends[i]]` (from 0 for the first).
#[derive(Debug, Clone, Default)]
struct Arena {
    bytes: String,
    ends: Vec<usize>,
}

impl Arena {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    fn push(&mut self, s: &str) {
        self.bytes.push_str(s);
        self.ends.push(self.bytes.len());
    }
}

/// A slot of [`Strings`]' table that holds no string.
const EMPTY: u64 = u64::MAX;

/// Distinct strings, numbered in first-seen order, without a `String` each.
///
/// The bytes of every string sit back to back in one arena, and a hash
/// table over the arena finds a string again. The hash is keyed per table
/// (std's [`RandomState`]), because the text can come from an untrusted
/// upload. A slot holds a string's id and the low 32 bits of its hash,
/// which both place it when the table grows and stand in for most string
/// comparisons.
#[derive(Debug, Clone, Default)]
pub struct Strings {
    arena: Arena,
    /// Open addressing with linear probing: `hash << 32 | id`, or
    /// [`EMPTY`]. Its length is a power of two (or 0), and it is at most
    /// half full.
    slots: Vec<u64>,
    state: RandomState,
}

impl Strings {
    /// A table that holds no string.
    pub fn new() -> Self {
        Strings::default()
    }

    /// Number of distinct strings (ids are `0..len`).
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// True when no string was interned.
    pub fn is_empty(&self) -> bool {
        self.arena.len() == 0
    }

    /// The string with this id.
    pub fn get(&self, id: u32) -> &str {
        self.arena.get(id as usize)
    }

    /// The id of `s`, if it was interned.
    pub fn id(&self, s: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.find(s, self.state.hash_one(s) as u32).ok()
    }

    /// The id of `s`, numbering it if it is new; `true` when it is.
    pub fn intern(&mut self, s: &str) -> (u32, bool) {
        if 2 * (self.len() + 1) > self.slots.len() {
            self.grow();
        }
        let hash = self.state.hash_one(s) as u32;
        match self.find(s, hash) {
            Ok(id) => (id, false),
            Err(slot) => {
                // `u32::MAX` stays unused, so no slot can read as `EMPTY`.
                let id = u32::try_from(self.len())
                    .ok()
                    .filter(|&id| id != u32::MAX)
                    .expect("fewer than 2^32 - 1 distinct strings");
                self.arena.push(s);
                self.slots[slot] = u64::from(hash) << 32 | u64::from(id);
                (id, true)
            }
        }
    }

    /// The id of `s` (whose hash is `hash`), or the empty slot where it goes.
    fn find(&self, s: &str, hash: u32) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let entry = self.slots[slot];
            if entry == EMPTY {
                return Err(slot);
            }
            let id = entry as u32;
            if (entry >> 32) as u32 == hash && self.get(id) == s {
                return Ok(id);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Every id, in the order of the strings.
    pub fn sorted(&self) -> Vec<u32> {
        // Sort by the first eight bytes, read as a big-endian number (zero
        // past the end), which orders as the strings' prefixes do; then
        // sort each run of equal prefixes by the whole string.
        let mut keyed: Vec<(u64, u32)> = (0..self.len() as u32)
            .map(|id| (prefix_key(self.get(id)), id))
            .collect();
        keyed.sort_unstable();
        let mut order: Vec<u32> = keyed.iter().map(|&(_, id)| id).collect();
        let mut start = 0;
        while start < keyed.len() {
            let mut end = start + 1;
            while end < keyed.len() && keyed[end].0 == keyed[start].0 {
                end += 1;
            }
            if end - start > 1 {
                order[start..end].sort_unstable_by(|&a, &b| self.get(a).cmp(self.get(b)));
            }
            start = end;
        }
        order
    }

    /// Double the table (16 slots at first) and place every string again.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(16);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; len]);
        let mask = len - 1;
        for entry in old.into_iter().filter(|&e| e != EMPTY) {
            let mut slot = (entry >> 32) as usize & mask;
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = entry;
        }
    }
}

/// The first eight bytes of `s` as a big-endian number, zero-padded: if
/// `prefix_key(a) < prefix_key(b)` then `a < b`.
fn prefix_key(s: &str) -> u64 {
    let mut bytes = [0u8; 8];
    let n = s.len().min(8);
    bytes[..n].copy_from_slice(&s.as_bytes()[..n]);
    u64::from_be_bytes(bytes)
}

/// Tokenizes text into token ids, numbering tokens as it first sees them.
///
/// The tokens live in one [`Strings`] arena, so a new token costs no
/// `String` of its own. The ids handed out while tokenizing are
/// provisional; [`Interner::finish`] replaces them with the final,
/// string-ordered ones.
#[derive(Debug, Default)]
pub struct Interner {
    tokens: Strings,
    word: String,
}

impl Interner {
    /// An interner that has seen no token.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Append the provisional ids of `text`'s word tokens (the tokens of
    /// [`crate::tokenize::word_tokens`], in order) to `out`.
    pub fn tokenize_into(&mut self, text: &str, out: &mut Vec<u32>) {
        let tokens = &mut self.tokens;
        for_each_word(text, &mut self.word, |word| out.push(tokens.intern(word).0));
    }

    /// Number the tokens in string order and rewrite `ids` — every id this
    /// interner handed out that the caller still holds — to the final
    /// numbering.
    pub fn finish(self, ids: &mut [u32]) -> Vocabulary {
        let (vocabulary, rank) = self.finish_ranks();
        for id in ids {
            *id = rank[*id as usize];
        }
        vocabulary
    }

    /// Number the tokens in string order; `rank[provisional]` is the final
    /// id of each id this interner handed out.
    pub fn finish_ranks(self) -> (Vocabulary, Vec<u32>) {
        let tokens = self.tokens;
        let order = tokens.sorted();
        let mut rank = vec![0u32; order.len()];
        let mut sorted = Arena {
            bytes: String::with_capacity(tokens.arena.bytes.len()),
            ends: Vec::with_capacity(order.len()),
        };
        for (r, &provisional) in order.iter().enumerate() {
            rank[provisional as usize] = r as u32;
            sorted.push(tokens.get(provisional));
        }
        (Vocabulary { tokens: sorted }, rank)
    }
}

/// The distinct tokens of an [`Interner`], sorted, in one arena; a token's
/// id is its position.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    tokens: Arena,
}

impl Vocabulary {
    /// A vocabulary of tokens already sorted and distinct.
    pub fn from_sorted(tokens: &[&str]) -> Self {
        let mut arena = Arena {
            bytes: String::with_capacity(tokens.iter().map(|t| t.len()).sum()),
            ends: Vec::with_capacity(tokens.len()),
        };
        for &token in tokens {
            debug_assert!(
                arena.len() == 0 || arena.get(arena.len() - 1) < token,
                "sorted, distinct"
            );
            arena.push(token);
        }
        Vocabulary { tokens: arena }
    }

    /// The id of `token`, if it is in the vocabulary.
    pub fn id(&self, token: &str) -> Option<u32> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.tokens.get(mid).cmp(token) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid as u32),
            }
        }
        None
    }

    /// Number of distinct tokens (ids are `0..len`).
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when no token was interned.
    pub fn is_empty(&self) -> bool {
        self.tokens.len() == 0
    }

    /// The token with this id.
    pub fn token(&self, id: u32) -> &str {
        self.tokens.get(id as usize)
    }
}

/// Document frequencies per token id — [`crate::tfidf::Corpus`] with a
/// `Vec` where that has a hash map.
#[derive(Debug, Clone)]
pub struct InternedCorpus {
    doc_count: usize,
    df: Vec<u32>,
    scratch: Vec<u32>,
}

impl InternedCorpus {
    /// An empty corpus over a vocabulary of `vocabulary_len` tokens.
    pub fn new(vocabulary_len: usize) -> Self {
        InternedCorpus {
            doc_count: 0,
            df: vec![0; vocabulary_len],
            scratch: Vec::new(),
        }
    }

    /// Count one document: each distinct id's document frequency grows by
    /// one.
    pub fn add_document(&mut self, ids: &[u32]) {
        self.doc_count += 1;
        self.scratch.clear();
        self.scratch.extend_from_slice(ids);
        self.scratch.sort_unstable();
        self.scratch.dedup();
        for &id in &self.scratch {
            self.df[id as usize] += 1;
        }
    }

    /// Un-count one document [`InternedCorpus::add_document`] counted.
    pub fn remove_document(&mut self, ids: &[u32]) {
        self.doc_count -= 1;
        self.scratch.clear();
        self.scratch.extend_from_slice(ids);
        self.scratch.sort_unstable();
        self.scratch.dedup();
        for &id in &self.scratch {
            self.df[id as usize] -= 1;
        }
    }

    /// Renumber the token ids: `remap[old]` is the new id of token `old`,
    /// or [`DROPPED`] for a token no document holds; `len` is the new
    /// vocabulary size.
    pub fn remap(&mut self, remap: &[u32], len: usize) {
        self.df = remap_table(&self.df, remap, len);
    }

    /// Number of documents added.
    pub fn doc_count(&self) -> usize {
        self.doc_count
    }

    /// Document frequency of a token id.
    pub fn df(&self, id: u32) -> usize {
        self.df[id as usize] as usize
    }

    /// Smoothed inverse document frequency, as [`crate::tfidf::Corpus::idf`].
    pub fn idf(&self, id: u32) -> f64 {
        smoothed_idf(self.doc_count, self.df(id))
    }

    /// The IDF of every token id, for callers that weigh many documents.
    pub fn idf_table(&self) -> Vec<f64> {
        (0..self.df.len() as u32).map(|id| self.idf(id)).collect()
    }
}

/// Unit TF-IDF vectors of many documents in one allocation: the distinct
/// ids of all documents back to back (sorted within a document), their
/// weights alongside.
#[derive(Debug, Clone, Default)]
pub struct IdVectors {
    /// Document `d` occupies `ends[d - 1]..ends[d]` (from 0 for the first).
    ends: Vec<usize>,
    ids: Vec<u32>,
    weights: Vec<f64>,
}

impl IdVectors {
    /// No vectors yet.
    pub fn new() -> Self {
        IdVectors::default()
    }

    /// Append the unit vector of document `ids` (token ids in any order,
    /// repeats counted): `v(w) = ln(1 + tf(w)) · idf[w]`, L2-normalized, as
    /// [`crate::tfidf::Corpus::weight_vector`] computes it.
    pub fn push(&mut self, ids: &[u32], idf: &[f64]) {
        weigh_into(ids, idf, &mut self.ids, &mut self.weights);
        self.ends.push(self.ids.len());
    }

    /// Weigh the vectors of `rows` (ascending) again: vector `d` becomes the
    /// one [`IdVectors::push`] makes of `doc(d)` under `idf`; every other
    /// vector keeps its bits. One pass over the stored entries.
    pub fn reweigh<'a>(&mut self, rows: &[usize], doc: impl Fn(usize) -> &'a [u32], idf: &[f64]) {
        if rows.is_empty() {
            return;
        }
        let mut out = IdVectors {
            ends: Vec::with_capacity(self.ends.len()),
            ids: Vec::with_capacity(self.ids.len()),
            weights: Vec::with_capacity(self.weights.len()),
        };
        let mut next = rows.iter().peekable();
        for d in 0..self.len() {
            if next.next_if_eq(&&d).is_some() {
                out.push(doc(d), idf);
            } else {
                let v = self.get(d);
                out.ids.extend_from_slice(v.ids);
                out.weights.extend_from_slice(v.weights);
                out.ends.push(out.ids.len());
            }
        }
        *self = out;
    }

    /// Renumber the token ids (see [`InternedCorpus::remap`]); weights and
    /// order are untouched, as a renumbering that keeps string order must.
    /// A vector holding a dropped token holds [`DROPPED`] until it is
    /// weighed again.
    pub fn remap(&mut self, remap: &[u32]) {
        for id in &mut self.ids {
            *id = remap[*id as usize];
        }
    }

    /// Number of vectors.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no vector was pushed.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The `d`-th vector pushed.
    pub fn get(&self, d: usize) -> IdVector<'_> {
        let start = if d == 0 { 0 } else { self.ends[d - 1] };
        let end = self.ends[d];
        IdVector {
            ids: &self.ids[start..end],
            weights: &self.weights[start..end],
        }
    }
}

/// Append the unit vector of document `ids` to `out_ids` / `out_weights`.
fn weigh_into(ids: &[u32], idf: &[f64], out_ids: &mut Vec<u32>, out_weights: &mut Vec<f64>) {
    let start = out_ids.len();
    out_ids.extend_from_slice(ids);
    out_ids[start..].sort_unstable();
    // Compact each run of equal ids to one entry, in place.
    let (mut read, mut write) = (start, start);
    while read < out_ids.len() {
        let id = out_ids[read];
        let run = out_ids[read..].iter().take_while(|&&x| x == id).count();
        read += run;
        out_ids[write] = id;
        write += 1;
        out_weights.push((1.0 + run as f64).ln() * idf[id as usize]);
    }
    out_ids.truncate(write);
    l2_normalize(&mut out_weights[start..]);
}

/// One unit TF-IDF vector of an [`IdVectors`]: distinct token ids, sorted,
/// and the weight of each.
#[derive(Debug, Clone, Copy)]
pub struct IdVector<'a> {
    /// Distinct token ids, ascending.
    pub ids: &'a [u32],
    /// `weights[i]` is the weight of `ids[i]`.
    pub weights: &'a [f64],
}

impl IdVector<'_> {
    /// Dot product with `other`, the matched products added in id order —
    /// [`crate::tfidf::TfIdfVector::cosine`] before its clamp.
    pub fn dot(&self, other: &IdVector<'_>) -> f64 {
        merge_dot(self.ids, self.weights, other.ids, other.weights)
    }

    /// The weight of token `id` (0 when absent) — [`crate::tfidf::TfIdfVector::weight`].
    pub fn weight(&self, id: u32) -> f64 {
        self.ids
            .binary_search(&id)
            .map(|i| self.weights[i])
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tfidf::{Corpus, TfIdfVector};
    use crate::tokenize::word_tokens;

    const DOCS: [&str; 5] = [
        "The Beatles - Abbey Road (1969)",
        "the beatles: let it be, let it be",
        "Pink Floyd — The Wall",
        "",
        "Käse-Straße 12, the the the",
    ];

    /// Intern `DOCS`; returns the vocabulary and each document's final ids.
    fn interned() -> (Vocabulary, Vec<Vec<u32>>) {
        let mut interner = Interner::new();
        let mut flat = Vec::new();
        let mut ends = Vec::new();
        for doc in DOCS {
            interner.tokenize_into(doc, &mut flat);
            ends.push(flat.len());
        }
        let vocabulary = interner.finish(&mut flat);
        let mut start = 0;
        let docs = ends
            .into_iter()
            .map(|end| {
                let doc = flat[start..end].to_vec();
                start = end;
                doc
            })
            .collect();
        (vocabulary, docs)
    }

    #[test]
    fn ids_follow_string_order_and_round_trip() {
        let (vocabulary, docs) = interned();
        for id in 1..vocabulary.len() as u32 {
            assert!(vocabulary.token(id - 1) < vocabulary.token(id));
        }
        for (doc, ids) in DOCS.iter().zip(&docs) {
            let tokens: Vec<&str> = ids.iter().map(|&id| vocabulary.token(id)).collect();
            assert_eq!(tokens, word_tokens(doc));
        }
    }

    #[test]
    fn statistics_and_vectors_equal_the_string_corpus_bit_for_bit() {
        let (vocabulary, docs) = interned();
        let strings: Vec<Vec<String>> = DOCS.iter().map(|d| word_tokens(d)).collect();
        let reference = Corpus::from_documents(strings.iter());
        let mut corpus = InternedCorpus::new(vocabulary.len());
        for ids in &docs {
            corpus.add_document(ids);
        }
        assert_eq!(corpus.doc_count(), reference.doc_count());
        for id in 0..vocabulary.len() as u32 {
            let token = vocabulary.token(id);
            assert_eq!(corpus.df(id), reference.df(token), "{token}");
            assert_eq!(corpus.idf(id).to_bits(), reference.idf(token).to_bits());
        }

        let idf = corpus.idf_table();
        let mut vectors = IdVectors::new();
        for ids in &docs {
            vectors.push(ids, &idf);
        }
        assert_eq!(vectors.len(), DOCS.len());
        let expected: Vec<TfIdfVector> =
            strings.iter().map(|d| reference.weight_vector(d)).collect();
        let bits = |weights: &[f64]| weights.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        for (a, want_a) in expected.iter().enumerate() {
            let got_a = vectors.get(a);
            let tokens: Vec<&str> = got_a.ids.iter().map(|&id| vocabulary.token(id)).collect();
            assert_eq!(tokens, want_a.tokens());
            assert_eq!(bits(got_a.weights), bits(want_a.weights()));
            for (b, want_b) in expected.iter().enumerate() {
                let dot = vectors.get(a).dot(&vectors.get(b));
                assert_eq!(
                    dot.clamp(0.0, 1.0).to_bits(),
                    want_a.cosine(want_b).to_bits()
                );
            }
        }
    }

    /// Random text from pieces that stress case mapping and word
    /// boundaries: final and medial sigma, dotted capital I, combining
    /// marks, digit and punctuation runs, non-BMP chars, the empty string.
    fn random_text(rng: &mut proptest::test_runner::TestRng) -> String {
        const PIECES: [&str; 24] = [
            "", " ", "Σ", "ΟΔΟΣ", "σς", "İ", "i\u{307}", "e\u{301}", "\u{300}", "0123", "42", "--",
            "...", "!?", "ẞ", "ǅ", "😀", "ABC", "abc", "Käse", "\u{1f}", "_", "x9", "Straße",
        ];
        let pieces = rng.below(7);
        (0..pieces)
            .map(|_| PIECES[rng.below(PIECES.len() as u64) as usize])
            .collect()
    }

    /// Per text, the interned tokens spell `word_tokens`; the vocabulary is
    /// every token once, in string order; and `finish_ranks` sends each
    /// provisional id to that token's place.
    #[test]
    fn interner_equals_word_tokens_and_a_sorted_reference() {
        let mut rng = proptest::test_runner::TestRng::deterministic();
        for case in 0..300 {
            let texts: Vec<String> = (0..rng.below(12)).map(|_| random_text(&mut rng)).collect();
            let mut interner = Interner::new();
            let (mut ids, mut ends) = (Vec::new(), Vec::new());
            for text in &texts {
                interner.tokenize_into(text, &mut ids);
                ends.push(ids.len());
            }
            let provisional = ids.clone();
            let vocabulary = interner.finish(&mut ids);
            let mut start = 0;
            for (text, &end) in texts.iter().zip(&ends) {
                let tokens: Vec<&str> = ids[start..end]
                    .iter()
                    .map(|&id| vocabulary.token(id))
                    .collect();
                assert_eq!(tokens, word_tokens(text), "case {case}: {text:?}");
                start = end;
            }
            let mut reference: Vec<String> = texts.iter().flat_map(|t| word_tokens(t)).collect();
            reference.sort_unstable();
            reference.dedup();
            let spelled: Vec<&str> = (0..vocabulary.len() as u32)
                .map(|id| vocabulary.token(id))
                .collect();
            assert_eq!(spelled, reference, "case {case}");
            for token in &reference {
                assert_eq!(vocabulary.token(vocabulary.id(token).unwrap()), token);
            }
            assert_eq!(vocabulary.id("not a token"), None);

            let mut interner = Interner::new();
            let mut again = Vec::new();
            for text in &texts {
                interner.tokenize_into(text, &mut again);
            }
            assert_eq!(
                again, provisional,
                "case {case}: provisional ids are first-seen"
            );
            let (ranked, rank) = interner.finish_ranks();
            assert_eq!(ranked.len(), vocabulary.len());
            let final_ids: Vec<u32> = again.iter().map(|&p| rank[p as usize]).collect();
            assert_eq!(final_ids, ids, "case {case}: ranks");
        }
    }

    /// Ids are first-seen and stable while the table grows; lookups of
    /// absent strings miss; the order covers every id once.
    #[test]
    fn strings_number_in_first_seen_order_and_sort() {
        let mut strings = Strings::new();
        assert_eq!(strings.id(""), None);
        let words: Vec<String> = (0..500).map(|i| format!("w{}", (i * 7919) % 300)).collect();
        let mut first_seen: Vec<&str> = Vec::new();
        for w in &words {
            let (id, new) = strings.intern(w);
            assert_eq!(new, !first_seen.contains(&w.as_str()));
            if new {
                first_seen.push(w);
            }
            assert_eq!(strings.get(id), w);
        }
        assert_eq!(strings.len(), first_seen.len());
        for (id, w) in first_seen.iter().enumerate() {
            assert_eq!(strings.id(w), Some(id as u32));
        }
        assert_eq!(strings.id("absent"), None);
        assert_eq!(strings.intern(""), (first_seen.len() as u32, true));
        assert_eq!(strings.id(""), Some(first_seen.len() as u32));
        // Shared eight-byte prefixes are ordered by the rest of the string.
        for long in ["prefix12xyz", "prefix12", "prefix12abc", "prefix1"] {
            strings.intern(long);
        }
        let order: Vec<&str> = strings
            .sorted()
            .into_iter()
            .map(|id| strings.get(id))
            .collect();
        let mut reference = order.clone();
        reference.sort_unstable();
        assert_eq!(order, reference);
        assert_eq!(order.len(), strings.len());
    }
}
