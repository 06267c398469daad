//! Property-based tests for the similarity measures: bounds, symmetry,
//! identity, and metric properties that every downstream component
//! (schema matching, duplicate detection) silently assumes.

use hummer_textsim::*;
use proptest::prelude::*;

proptest! {
    #[test]
    fn levenshtein_symmetric(a in ".{0,30}", b in ".{0,30}") {
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
    }

    #[test]
    fn levenshtein_identity(a in ".{0,30}") {
        prop_assert_eq!(levenshtein(&a, &a), 0);
    }

    #[test]
    fn levenshtein_triangle(a in ".{0,12}", b in ".{0,12}", c in ".{0,12}") {
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
    }

    #[test]
    fn levenshtein_bounded_by_longer(a in ".{0,30}", b in ".{0,30}") {
        let d = levenshtein(&a, &b);
        let la = a.chars().count();
        let lb = b.chars().count();
        prop_assert!(d <= la.max(lb));
        prop_assert!(d >= la.abs_diff(lb));
    }

    #[test]
    fn damerau_never_exceeds_levenshtein(a in ".{0,20}", b in ".{0,20}") {
        prop_assert!(damerau_levenshtein(&a, &b) <= levenshtein(&a, &b));
    }

    #[test]
    fn levenshtein_similarity_unit_interval(a in ".{0,30}", b in ".{0,30}") {
        let s = levenshtein_similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn jaro_bounds_symmetry_identity(a in "[a-z]{0,20}", b in "[a-z]{0,20}") {
        let j = jaro(&a, &b);
        prop_assert!((0.0..=1.0).contains(&j));
        prop_assert!((j - jaro(&b, &a)).abs() < 1e-12);
        prop_assert!((jaro(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jaro_winkler_dominates_jaro(a in "[a-z]{1,20}", b in "[a-z]{1,20}") {
        prop_assert!(jaro_winkler(&a, &b) + 1e-12 >= jaro(&a, &b));
        prop_assert!(jaro_winkler(&a, &b) <= 1.0 + 1e-12);
    }

    #[test]
    fn numeric_similarity_bounds(a in -1e6f64..1e6, b in -1e6f64..1e6) {
        let s = relative_similarity(a, b);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert_eq!(s, relative_similarity(b, a));
    }

    #[test]
    fn scaled_similarity_bounds(a in -1e3f64..1e3, b in -1e3f64..1e3, r in 0.1f64..1e4) {
        let s = scaled_similarity(a, b, r);
        prop_assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn qgrams_cover_string(s in "[a-z]{1,20}", q in 1usize..5) {
        let grams = qgrams(&s, q);
        prop_assert_eq!(grams.len(), s.len() + q - 1);
        for g in &grams {
            prop_assert_eq!(g.chars().count(), q);
        }
    }

    #[test]
    fn word_tokens_are_lowercase_alnum(s in ".{0,40}") {
        for t in word_tokens(&s) {
            prop_assert!(!t.is_empty());
            prop_assert!(t.chars().all(|c| c.is_alphanumeric()));
            prop_assert_eq!(t.clone(), t.to_lowercase());
        }
    }

    #[test]
    fn tfidf_cosine_bounds_and_symmetry(
        docs in prop::collection::vec("[a-z ]{0,30}", 1..8),
        a in "[a-z ]{0,30}",
        b in "[a-z ]{0,30}",
    ) {
        let corpus = Corpus::from_documents(docs.iter().map(|d| word_tokens(d)).collect::<Vec<_>>());
        let ta = word_tokens(&a);
        let tb = word_tokens(&b);
        let s = corpus.tfidf_cosine(&ta, &tb);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert!((s - corpus.tfidf_cosine(&tb, &ta)).abs() < 1e-12);
    }

    #[test]
    fn soft_tfidf_bounds_and_at_least_cosine(
        docs in prop::collection::vec("[a-z ]{1,30}", 1..8),
        a in "[a-z ]{1,30}",
        b in "[a-z ]{1,30}",
    ) {
        let corpus = Corpus::from_documents(docs.iter().map(|d| word_tokens(d)).collect::<Vec<_>>());
        let soft = SoftTfIdf::new(&corpus);
        let ta = word_tokens(&a);
        let tb = word_tokens(&b);
        let s = soft.similarity(&ta, &tb);
        prop_assert!((0.0..=1.0).contains(&s));
        // Soft matching can only add contributions relative to exact-token
        // cosine (every exact token pair has JW sim 1 ≥ θ).
        prop_assert!(s + 1e-9 >= corpus.tfidf_cosine(&ta, &tb));
    }

    #[test]
    fn soft_idf_unit_interval(
        docs in prop::collection::vec("[a-z ]{1,30}", 1..8),
        token in "[a-z]{1,8}",
    ) {
        let corpus = Corpus::from_documents(docs.iter().map(|d| word_tokens(d)).collect::<Vec<_>>());
        let s = corpus.soft_idf(&token);
        prop_assert!((0.0..=1.0).contains(&s));
    }

    /// A document counts once per distinct token, whatever the order and
    /// the repeats: the counts equal a hash-set count per document, and an
    /// interned corpus over the same documents holds the same numbers.
    #[test]
    fn document_frequencies_equal_a_set_count(
        docs in prop::collection::vec("[a-d ]{0,12}", 0..12),
    ) {
        let docs: Vec<Vec<String>> = docs.iter().map(|d| word_tokens(d)).collect();
        let mut expected: std::collections::HashMap<&str, usize> = Default::default();
        for doc in &docs {
            let distinct: std::collections::HashSet<&str> = doc.iter().map(String::as_str).collect();
            for token in distinct {
                *expected.entry(token).or_default() += 1;
            }
        }
        let corpus = Corpus::from_documents(docs.iter());
        prop_assert_eq!(corpus.doc_count(), docs.len());
        for token in ["a", "b", "c", "d", "aa", "ab", "dd", "abcd", "zzz"] {
            prop_assert_eq!(corpus.df(token), expected.get(token).copied().unwrap_or(0));
        }
        for (token, &df) in &expected {
            prop_assert_eq!(corpus.df(token), df);
        }

        let mut interner = Interner::new();
        let (mut ids, mut ends) = (Vec::new(), Vec::new());
        for doc in &docs {
            interner.tokenize_into(&doc.join(" "), &mut ids);
            ends.push(ids.len());
        }
        let vocabulary = interner.finish(&mut ids);
        let mut interned = InternedCorpus::new(vocabulary.len());
        let mut start = 0;
        for end in ends {
            interned.add_document(&ids[start..end]);
            start = end;
        }
        prop_assert_eq!(vocabulary.len(), expected.len());
        for id in 0..vocabulary.len() as u32 {
            prop_assert_eq!(interned.df(id), expected[vocabulary.token(id)]);
            prop_assert_eq!(interned.idf(id).to_bits(), corpus.idf(vocabulary.token(id)).to_bits());
        }
    }
}
