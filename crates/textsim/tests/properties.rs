//! Property-based tests for the similarity measures: bounds, symmetry,
//! identity, and metric properties that every downstream component
//! (schema matching, duplicate detection) silently assumes.

use hummer_textsim::*;
use proptest::prelude::*;

/// The textbook full-matrix Levenshtein recurrence: the oracle for the
/// library's length-selected paths, sharing no code with either.
fn levenshtein_oracle(a: &[char], b: &[char]) -> usize {
    let mut d = vec![vec![0usize; b.len() + 1]; a.len() + 1];
    for (i, row) in d.iter_mut().enumerate() {
        row[0] = i;
    }
    for (j, cell) in d[0].iter_mut().enumerate() {
        *cell = j;
    }
    for i in 1..=a.len() {
        for j in 1..=b.len() {
            let substitute = d[i - 1][j - 1] + usize::from(a[i - 1] != b[j - 1]);
            d[i][j] = substitute.min(d[i - 1][j] + 1).min(d[i][j - 1] + 1);
        }
    }
    d[a.len()][b.len()]
}

/// Distance and similarity of `a` and `b` against the oracle, in both
/// argument orders and through one reused scratch.
fn assert_edit_matches_oracle(a: &str, b: &str) -> Result<(), TestCaseError> {
    let (ca, cb): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let want = levenshtein_oracle(&ca, &cb);
    let mut scratch = EditScratch::new();
    prop_assert_eq!(levenshtein_chars(&ca, &cb, &mut scratch), want);
    prop_assert_eq!(levenshtein_chars(&cb, &ca, &mut scratch), want);
    prop_assert_eq!(levenshtein(a, b), want);
    let max = ca.len().max(cb.len());
    let sim = if max == 0 {
        1.0
    } else {
        1.0 - want as f64 / max as f64
    };
    prop_assert_eq!(levenshtein_similarity(a, b).to_bits(), sim.to_bits());
    prop_assert_eq!(
        levenshtein_similarity_chars(&cb, &ca, &mut scratch).to_bits(),
        sim.to_bits()
    );
    Ok(())
}

/// `base` after the edits `codes` spell: each code picks a position, an
/// operation (delete, insert, substitute) and a char, non-BMP included.
fn mutate(base: &str, codes: &[usize]) -> String {
    const INSERTS: [char; 5] = ['a', 'z', 'é', '中', '😀'];
    let mut chars: Vec<char> = base.chars().collect();
    for &code in codes {
        let c = INSERTS[code % 5];
        let at = (code / 15) % (chars.len() + 1);
        match (code / 5) % 3 {
            0 if at < chars.len() => {
                chars.remove(at);
            }
            1 if at < chars.len() => chars[at] = c,
            _ => chars.insert(at, c),
        }
    }
    chars.into_iter().collect()
}

proptest! {
    /// Lengths 0…130 straddle the 64-char switch between the bit-vector
    /// path and the DP on either side of the pair.
    #[test]
    fn edit_distance_matches_oracle_on_unrelated_strings(a in ".{0,130}", b in ".{0,130}") {
        assert_edit_matches_oracle(&a, &b)?;
        assert_edit_matches_oracle(&a, &a)?;
    }

    #[test]
    fn edit_distance_matches_oracle_on_repeated_chars(a in "[ab]{0,130}", b in "[ab]{0,130}") {
        assert_edit_matches_oracle(&a, &b)?;
    }

    #[test]
    fn edit_distance_matches_oracle_on_disjoint_alphabets(a in "[a-m😀]{0,130}", b in "[n-z中]{0,130}") {
        assert_edit_matches_oracle(&a, &b)?;
        prop_assert_eq!(levenshtein(&a, &b), a.chars().count().max(b.chars().count()));
    }

    #[test]
    fn edit_distance_matches_oracle_on_near_copies(
        a in ".{0,130}",
        codes in prop::collection::vec(0usize..100_000, 0..12),
    ) {
        assert_edit_matches_oracle(&a, &mutate(&a, &codes))?;
    }

    /// Around the switch exactly: the shorter side has 63, 64 or 65 chars.
    #[test]
    fn edit_distance_matches_oracle_at_the_switch(
        a in "[a-c]{63,65}",
        b in "[a-cé]{63,80}",
        codes in prop::collection::vec(0usize..100_000, 0..6),
    ) {
        assert_edit_matches_oracle(&a, &b)?;
        assert_edit_matches_oracle(&a, &mutate(&a, &codes))?;
    }

    /// One string against many at once — odd and even counts, lengths on
    /// both sides of the switch and of the pattern's own length, empties —
    /// gives each pair the bits a call of its own gives.
    #[test]
    fn one_against_many_equals_pair_by_pair(
        a in "[a-cé]{0,70}",
        others in prop::collection::vec("[a-cé😀]{0,90}", 0..7),
        codes in prop::collection::vec(0usize..100_000, 0..5),
    ) {
        let chars = |s: &str| s.chars().collect::<Vec<char>>();
        let a = chars(&a);
        let mut others: Vec<Vec<char>> = others.iter().map(|s| chars(s)).collect();
        others.push(chars(&mutate(&a.iter().collect::<String>(), &codes)));
        others.push(Vec::new());
        let mut scratch = EditScratch::new();
        let mut many = Vec::new();
        levenshtein_similarity_chars_many(&a, others.iter().map(Vec::as_slice), &mut scratch, &mut many);
        prop_assert_eq!(many.len(), others.len());
        for (b, got) in others.iter().zip(&many) {
            let want = levenshtein_similarity_chars(&a, b, &mut EditScratch::new());
            prop_assert_eq!(got.to_bits(), want.to_bits());
            let dist = levenshtein_oracle(&a, b);
            let max = a.len().max(b.len());
            let sim = if max == 0 { 1.0 } else { 1.0 - dist as f64 / max as f64 };
            prop_assert_eq!(got.to_bits(), sim.to_bits());
        }
    }

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
