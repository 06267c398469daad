//! TF-IDF corpus statistics, weight vectors, and cosine similarity.
//!
//! DUMAS treats each tuple as one string ("from the information retrieval
//! field we adopt the well-known TFIDF similarity for comparing records",
//! paper §2.2) and ranks tuple pairs across two unaligned tables by the
//! cosine of their TF-IDF vectors. The duplicate detector reuses the corpus
//! statistics through [`Corpus::soft_idf`], the "soft version of IDF" that
//! measures the identifying power of a data item (§2.3).

use std::collections::HashMap;

/// Document-frequency statistics over a token corpus.
///
/// A *document* is any token multiset — in HumMer a whole tuple rendered as
/// a string, or a single attribute value, depending on the caller.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    doc_count: usize,
    df: HashMap<String, usize>,
    /// Token positions of the document being counted, reused across
    /// [`Corpus::add_document`] calls.
    scratch: Vec<usize>,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Self {
        Corpus::default()
    }

    /// Build from an iterator of documents.
    pub fn from_documents<I, D>(docs: I) -> Self
    where
        I: IntoIterator<Item = D>,
        D: AsRef<[String]>,
    {
        let mut c = Corpus::new();
        for d in docs {
            c.add_document(d.as_ref());
        }
        c
    }

    /// Count one document: each *distinct* token's document frequency grows
    /// by one.
    ///
    /// Distinct tokens are found by sorting the token positions in a buffer
    /// the corpus keeps, and a token is copied only the first time the
    /// corpus sees it.
    pub fn add_document(&mut self, tokens: &[String]) {
        let Corpus {
            doc_count,
            df,
            scratch: order,
        } = self;
        *doc_count += 1;
        order.clear();
        order.extend(0..tokens.len());
        order.sort_unstable_by(|&a, &b| tokens[a].cmp(&tokens[b]));
        let mut previous: Option<&String> = None;
        for &i in order.iter() {
            let token = &tokens[i];
            if previous == Some(token) {
                continue;
            }
            previous = Some(token);
            match df.get_mut(token.as_str()) {
                Some(count) => *count += 1,
                None => {
                    df.insert(token.clone(), 1);
                }
            }
        }
    }

    /// Number of documents added.
    pub fn doc_count(&self) -> usize {
        self.doc_count
    }

    /// Document frequency of a token (0 for unseen tokens).
    pub fn df(&self, token: &str) -> usize {
        self.df.get(token).copied().unwrap_or(0)
    }

    /// Smoothed inverse document frequency: `ln(1 + N / (df + 1))`.
    ///
    /// The `+1` in the denominator keeps unseen tokens finite (they get the
    /// highest weight in the corpus, as an unseen token is maximally
    /// identifying).
    pub fn idf(&self, token: &str) -> f64 {
        smoothed_idf(self.doc_count, self.df(token))
    }

    /// IDF squashed into `(0, 1]`: `idf(token) / ln(1 + N)`.
    ///
    /// This is the "soft IDF" the duplicate detector uses to weigh the
    /// identifying power of a data item: ≈1 for tokens unique to one
    /// document, approaching 0 for tokens in every document.
    pub fn soft_idf(&self, token: &str) -> f64 {
        if self.doc_count == 0 {
            return 1.0;
        }
        let denom = (1.0 + self.doc_count as f64).ln();
        (self.idf(token) / denom).min(1.0)
    }

    /// The unit-normalized TF-IDF vector of a document:
    /// `v(w) = ln(1 + tf(w)) · idf(w)`, then L2-normalized.
    ///
    /// Term frequencies come from a sort + run-length sweep (not a hash
    /// map), so construction, the norm below, and every dot product
    /// downstream accumulate floats in one deterministic token-sorted
    /// order; a hash-random order would make repeated runs disagree in the
    /// last ULP, breaking the pipeline's bit-reproducibility guarantee.
    pub fn weight_vector(&self, tokens: &[String]) -> TfIdfVector {
        let mut sorted: Vec<&String> = tokens.iter().collect();
        sorted.sort_unstable();
        let mut out_tokens: Vec<String> = Vec::new();
        let mut weights: Vec<f64> = Vec::new();
        let mut i = 0;
        while i < sorted.len() {
            let token = sorted[i];
            let mut run = 1;
            while i + run < sorted.len() && sorted[i + run] == token {
                run += 1;
            }
            i += run;
            out_tokens.push(token.clone());
            weights.push((1.0 + run as f64).ln() * self.idf(token));
        }
        l2_normalize(&mut weights);
        TfIdfVector {
            tokens: out_tokens,
            weights,
        }
    }

    /// Cosine similarity of two token lists under this corpus's weights.
    pub fn tfidf_cosine(&self, a: &[String], b: &[String]) -> f64 {
        self.weight_vector(a).cosine(&self.weight_vector(b))
    }
}

/// `ln(1 + N / (df + 1))` — the one IDF formula, shared by [`Corpus`] and
/// the interned corpus so both produce the same bits.
pub(crate) fn smoothed_idf(doc_count: usize, df: usize) -> f64 {
    let n = doc_count as f64;
    (1.0 + n / (df as f64 + 1.0)).ln()
}

/// Scale `weights` to unit L2 length (all-zero input is left alone). The
/// squares are summed in slice order.
pub(crate) fn l2_normalize(weights: &mut [f64]) {
    let norm: f64 = weights.iter().map(|w| w * w).sum::<f64>().sqrt();
    if norm > 0.0 {
        for w in weights {
            *w /= norm;
        }
    }
}

/// Dot product of two sparse vectors given as parallel key/weight arrays
/// sorted by key: a merge-join that adds the matched products in key order.
pub(crate) fn merge_dot<K: Ord>(a: &[K], aw: &[f64], b: &[K], bw: &[f64]) -> f64 {
    let mut dot = 0.0f64;
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                dot += aw[i] * bw[j];
                i += 1;
                j += 1;
            }
        }
    }
    dot
}

/// A unit-normalized sparse TF-IDF vector in columnar (SoA) form.
///
/// Tokens and weights live in two parallel arrays **sorted by token**
/// (lookup is a binary search over the token array; the dot product is a
/// merge-join sweeping both weight arrays linearly), so iteration — and
/// with it every float accumulation built on this type — has one
/// deterministic order. Do not switch this back to a hash map: the
/// sniffing dot products and the vector norm would then accumulate in a
/// per-instance random order, and two runs over identical data could
/// differ in the last ULP, which the pipeline's bit-reproducibility
/// contract (sequential == parallel, run == rerun) forbids.
#[derive(Debug, Clone, Default)]
pub struct TfIdfVector {
    /// Distinct tokens, sorted.
    tokens: Vec<String>,
    /// `weights[i]` is the weight of `tokens[i]`.
    weights: Vec<f64>,
}

impl TfIdfVector {
    /// The weight of a token (0 when absent).
    pub fn weight(&self, token: &str) -> f64 {
        self.tokens
            .binary_search_by(|t| t.as_str().cmp(token))
            .map(|i| self.weights[i])
            .unwrap_or(0.0)
    }

    /// Iterate over (token, weight) pairs in token order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.tokens
            .iter()
            .zip(&self.weights)
            .map(|(t, w)| (t.as_str(), *w))
    }

    /// The sorted token array.
    pub fn tokens(&self) -> &[String] {
        &self.tokens
    }

    /// The weight array, parallel to [`TfIdfVector::tokens`].
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True for the empty vector.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Cosine similarity (dot product — both vectors are unit-normalized).
    /// Clamped to `[0, 1]` against floating-point drift.
    ///
    /// Implemented as a merge-join over the two token-sorted arrays: the
    /// matched products are accumulated in sorted-token order, which is
    /// exactly the order the previous "iterate the smaller side, binary-
    /// search the larger" formulation produced (its unmatched terms
    /// contributed `+0.0`, and both sides' weights are non-negative, so
    /// skipping the misses never changes a bit of the sum).
    pub fn cosine(&self, other: &TfIdfVector) -> f64 {
        merge_dot(&self.tokens, &self.weights, &other.tokens, &other.weights).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::word_tokens;

    fn corpus() -> Corpus {
        Corpus::from_documents(vec![
            word_tokens("the beatles abbey road"),
            word_tokens("the beatles let it be"),
            word_tokens("pink floyd the wall"),
            word_tokens("the rolling stones"),
        ])
    }

    #[test]
    fn df_counts_distinct_per_document() {
        let mut c = Corpus::new();
        c.add_document(&word_tokens("a a b"));
        assert_eq!(c.df("a"), 1);
        assert_eq!(c.df("b"), 1);
        assert_eq!(c.df("z"), 0);
        assert_eq!(c.doc_count(), 1);
    }

    #[test]
    fn idf_orders_by_rarity() {
        let c = corpus();
        // "the" is in every document; "abbey" in one.
        assert!(c.idf("abbey") > c.idf("beatles"));
        assert!(c.idf("beatles") > c.idf("the"));
        // Unseen token gets the highest idf of all.
        assert!(c.idf("zeppelin") > c.idf("abbey"));
    }

    #[test]
    fn soft_idf_in_unit_interval() {
        let c = corpus();
        for t in ["the", "beatles", "abbey", "zeppelin"] {
            let s = c.soft_idf(t);
            assert!((0.0..=1.0).contains(&s), "{t} -> {s}");
        }
        assert!(c.soft_idf("abbey") > c.soft_idf("the"));
    }

    #[test]
    fn empty_corpus_soft_idf_is_one() {
        assert_eq!(Corpus::new().soft_idf("x"), 1.0);
    }

    #[test]
    fn vector_is_unit_normalized() {
        let c = corpus();
        let v = c.weight_vector(&word_tokens("the beatles"));
        let norm: f64 = v.iter().map(|(_, w)| w * w).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cosine_identity_and_disjoint() {
        let c = corpus();
        let a = word_tokens("the beatles abbey road");
        let b = word_tokens("pink floyd");
        assert!((c.tfidf_cosine(&a, &a) - 1.0).abs() < 1e-9);
        assert_eq!(c.tfidf_cosine(&a, &b), 0.0);
    }

    #[test]
    fn cosine_symmetry() {
        let c = corpus();
        let a = word_tokens("the beatles abbey road");
        let b = word_tokens("beatles abbey lane");
        assert!((c.tfidf_cosine(&a, &b) - c.tfidf_cosine(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn rare_token_overlap_beats_common_token_overlap() {
        let c = corpus();
        // Sharing "abbey road" (rare) scores above sharing "the" (common).
        let base = word_tokens("abbey road the");
        let rare = word_tokens("abbey road xyz");
        let common = word_tokens("the xyz qrs");
        assert!(c.tfidf_cosine(&base, &rare) > c.tfidf_cosine(&base, &common));
    }

    #[test]
    fn empty_vector_cosine_zero() {
        let c = corpus();
        let empty: Vec<String> = vec![];
        assert_eq!(c.tfidf_cosine(&empty, &word_tokens("the")), 0.0);
        assert_eq!(c.tfidf_cosine(&empty, &empty), 0.0);
    }

    #[test]
    fn repeated_tokens_increase_weight_sublinearly() {
        let c = corpus();
        let v1 = c.weight_vector(&word_tokens("abbey"));
        let v2 = c.weight_vector(&word_tokens("abbey abbey abbey road"));
        // In v2, "abbey" still dominates but is not 3x "road"'s share of a
        // two-token split.
        assert!(v2.weight("abbey") > v2.weight("road"));
        assert!(v1.weight("abbey") > v2.weight("abbey")); // v1 is all abbey
    }

    /// Regression: weights, norms, and cosines must be *bit*-identical
    /// across repeated construction and across token input order. The
    /// original `HashMap`-backed vector accumulated the norm and dot in a
    /// per-instance random order, so two runs over identical data could
    /// differ in the last ULP — which broke the pipeline's sequential ==
    /// parallel byte-identity contract at scale (held by
    /// `tests/parallel_equivalence.rs`'s fingerprint checks).
    #[test]
    fn vectors_are_bit_deterministic() {
        // Enough distinct tokens that hash-order effects would be near
        // certain to surface somewhere.
        let doc: Vec<String> = (0..64).map(|i| format!("tok{i}")).collect();
        let mut reversed = doc.clone();
        reversed.reverse();
        let c = Corpus::from_documents((0..8).map(|i| {
            (0..16)
                .map(|j| format!("tok{}", (i * 7 + j * 3) % 64))
                .collect::<Vec<_>>()
        }));
        let probe: Vec<String> = (0..32).map(|i| format!("tok{}", i * 2)).collect();
        let v0 = c.weight_vector(&doc);
        for _ in 0..4 {
            let vf = c.weight_vector(&doc);
            let vr = c.weight_vector(&reversed);
            let pairs0: Vec<(&str, f64)> = v0.iter().collect();
            assert_eq!(pairs0, vf.iter().collect::<Vec<_>>());
            assert_eq!(pairs0, vr.iter().collect::<Vec<_>>());
            let p = c.weight_vector(&probe);
            assert_eq!(v0.cosine(&p).to_bits(), vf.cosine(&p).to_bits());
            assert_eq!(v0.cosine(&p).to_bits(), vr.cosine(&p).to_bits());
        }
        // Iteration order is the sorted token order.
        let toks: Vec<&str> = v0.iter().map(|(t, _)| t).collect();
        let mut sorted = toks.clone();
        sorted.sort_unstable();
        assert_eq!(toks, sorted);
    }
}
