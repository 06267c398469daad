//! SoftTFIDF — the hybrid token/character similarity of Cohen, Ravikumar &
//! Fienberg (IIWeb 2003), used by DUMAS to compare the fields of duplicate
//! tuples when deriving attribute correspondences (paper §2.2).
//!
//! Plain TF-IDF cosine requires exact token overlap, which typos destroy.
//! SoftTFIDF relaxes the match: tokens `w ∈ S` and `v ∈ T` also contribute
//! when their *secondary* similarity (Jaro-Winkler here, as in the original)
//! reaches a threshold θ (0.9 in the original; configurable here).
//!
//! The directed score is
//!
//! ```text
//! SoftTFIDF(S→T) = Σ_{w ∈ CLOSE(θ,S,T)}  V(w,S) · V(v*(w),T) · sim(w, v*(w))
//! ```
//!
//! where `v*(w) = argmax_{v ∈ T} sim(w, v)` and `V` are unit-normalized
//! TF-IDF weights. The directed score is not exactly symmetric; the
//! [`SoftTfIdf::similarity`] entry point averages both directions so callers
//! get a symmetric measure.

use crate::interned::{IdVector, Vocabulary};
use crate::jaro::jaro_winkler;
use crate::tfidf::Corpus;

/// SoftTFIDF scorer bound to a corpus.
#[derive(Debug, Clone)]
pub struct SoftTfIdf<'c> {
    corpus: &'c Corpus,
    /// Secondary-similarity threshold θ for a "close" token pair.
    theta: f64,
}

impl<'c> SoftTfIdf<'c> {
    /// Create a scorer with the canonical θ = 0.9.
    pub fn new(corpus: &'c Corpus) -> Self {
        SoftTfIdf { corpus, theta: 0.9 }
    }

    /// Create a scorer with a custom θ ∈ [0, 1].
    pub fn with_theta(corpus: &'c Corpus, theta: f64) -> Self {
        assert!((0.0..=1.0).contains(&theta), "theta must be in [0,1]");
        SoftTfIdf { corpus, theta }
    }

    /// The threshold θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Directed SoftTFIDF score `S → T` over token lists.
    pub fn directed(&self, s: &[String], t: &[String]) -> f64 {
        let vs = self.corpus.weight_vector(s);
        let vt = self.corpus.weight_vector(t);
        directed(
            self.theta,
            s,
            t,
            String::as_str,
            |w| vs.weight(w),
            |v| vt.weight(v),
        )
    }

    /// Symmetric SoftTFIDF similarity: the mean of both directed scores.
    pub fn similarity(&self, s: &[String], t: &[String]) -> f64 {
        let vs = self.corpus.weight_vector(s);
        let vt = self.corpus.weight_vector(t);
        let (ws, wt) = (|w: &String| vs.weight(w), |v: &String| vt.weight(v));
        (directed(self.theta, s, t, String::as_str, ws, wt)
            + directed(self.theta, t, s, String::as_str, wt, ws))
            / 2.0
    }
}

/// [`SoftTfIdf::similarity`] over interned tokens: `s` and `t` are the
/// token ids of the two texts in text order, `vs` and `vt` their unit
/// vectors, `vocabulary` spells the ids. Equal ids are equal tokens, so
/// every comparison, Jaro-Winkler call and product is the string path's,
/// in its order — the result has the same bits, without a `String` made.
pub fn similarity_of_interned(
    theta: f64,
    vocabulary: &Vocabulary,
    s: &[u32],
    vs: IdVector<'_>,
    t: &[u32],
    vt: IdVector<'_>,
) -> f64 {
    let spell = |id: &u32| vocabulary.token(*id);
    let (ws, wt) = (|w: &u32| vs.weight(*w), |v: &u32| vt.weight(*v));
    (directed(theta, s, t, spell, ws, wt) + directed(theta, t, s, spell, wt, ws)) / 2.0
}

/// The directed score `S → T` over tokens of any kind: tokens compare with
/// `==`, `spell` gives a token's text for Jaro-Winkler, and `ws` / `wt`
/// its unit TF-IDF weight in `S` / `T`.
fn directed<'a, K: PartialEq>(
    theta: f64,
    s: &'a [K],
    t: &'a [K],
    spell: impl Fn(&'a K) -> &'a str,
    ws: impl Fn(&K) -> f64,
    wt: impl Fn(&K) -> f64,
) -> f64 {
    if s.is_empty() || t.is_empty() {
        return 0.0;
    }
    let mut score = 0.0;
    for (i, w) in s.iter().enumerate() {
        // Distinct tokens of S (weights already aggregate repeats).
        if s[..i].contains(w) {
            continue;
        }
        // Best secondary match in T.
        let mut best_sim = 0.0;
        let mut best_tok: Option<&K> = None;
        for v in t {
            let sim = if w == v {
                1.0
            } else {
                jaro_winkler(spell(w), spell(v))
            };
            if sim > best_sim {
                best_sim = sim;
                best_tok = Some(v);
            }
        }
        if best_sim >= theta {
            if let Some(v) = best_tok {
                score += ws(w) * wt(v) * best_sim;
            }
        }
    }
    score.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::word_tokens;

    fn corpus() -> Corpus {
        Corpus::from_documents(vec![
            word_tokens("john smith chicago"),
            word_tokens("jon smyth chicago"),
            word_tokens("mary jones berlin"),
            word_tokens("peter miller paris"),
        ])
    }

    #[test]
    fn identical_strings_score_one() {
        let c = corpus();
        let s = SoftTfIdf::new(&c);
        let toks = word_tokens("john smith");
        assert!((s.similarity(&toks, &toks) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn typo_tokens_still_match() {
        let c = corpus();
        let soft = SoftTfIdf::new(&c);
        let a = word_tokens("john smith");
        let b = word_tokens("jon smyth");
        let hard = c.tfidf_cosine(&a, &b);
        let s = soft.similarity(&a, &b);
        assert_eq!(hard, 0.0, "plain TF-IDF sees no overlap");
        // At the canonical θ=0.9 only john/jon bridges
        // (JW(smith, smyth) = 0.893 falls just short).
        assert!(s > 0.4, "SoftTFIDF bridges john/jon: {s}");
        // A slightly laxer θ admits smith/smyth too.
        let lax = SoftTfIdf::with_theta(&c, 0.85);
        let s_lax = lax.similarity(&a, &b);
        assert!(s_lax > 0.85, "θ=0.85 bridges both token pairs: {s_lax}");
        assert!(s_lax > s);
    }

    #[test]
    fn reduces_to_cosine_when_tokens_exact() {
        let c = corpus();
        let soft = SoftTfIdf::with_theta(&c, 1.0);
        let a = word_tokens("john chicago");
        let b = word_tokens("john berlin");
        let cos = c.tfidf_cosine(&a, &b);
        // θ=1.0 admits only exact matches (jaro_winkler(x,x)=1), so the
        // directed score equals the cosine restricted to shared tokens.
        assert!((soft.similarity(&a, &b) - cos).abs() < 1e-9);
    }

    #[test]
    fn symmetric_by_construction() {
        let c = corpus();
        let s = SoftTfIdf::new(&c);
        let a = word_tokens("john smith chicago");
        let b = word_tokens("jon smyth");
        assert!((s.similarity(&a, &b) - s.similarity(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_score_zero() {
        let c = corpus();
        let s = SoftTfIdf::new(&c);
        let empty: Vec<String> = vec![];
        assert_eq!(s.similarity(&empty, &word_tokens("john")), 0.0);
        assert_eq!(s.similarity(&empty, &empty), 0.0);
    }

    #[test]
    fn bounded_unit_interval() {
        let c = corpus();
        let s = SoftTfIdf::new(&c);
        for (a, b) in [
            ("john smith", "jon smyth chicago"),
            ("mary jones", "mary jones"),
            ("a b c", "d e f"),
        ] {
            let v = s.similarity(&word_tokens(a), &word_tokens(b));
            assert!((0.0..=1.0).contains(&v), "{a} / {b} -> {v}");
        }
    }

    #[test]
    fn dissimilar_tokens_below_theta_ignored() {
        let c = corpus();
        let s = SoftTfIdf::new(&c);
        let v = s.similarity(&word_tokens("berlin"), &word_tokens("paris"));
        assert_eq!(v, 0.0);
    }

    #[test]
    #[should_panic(expected = "theta must be in")]
    fn invalid_theta_panics() {
        let c = corpus();
        let _ = SoftTfIdf::with_theta(&c, 1.5);
    }
}
