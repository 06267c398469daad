//! Tokenization for token-based similarity measures (TF-IDF, SoftTFIDF).

/// Normalize a string for comparison: lowercase, with every non-alphanumeric
/// character treated as a separator.
///
/// Token-based record comparison wants "CD-Store" and "cd store" to share
/// tokens, so normalization is deliberately aggressive.
pub fn normalize(s: &str) -> String {
    s.to_lowercase()
}

/// Feed every lowercase alphanumeric word of `s` to `f`, in order.
///
/// `word` is the buffer the words are built in; callers that tokenize many
/// strings pass the same one, so tokenizing allocates nothing of its own.
/// This is the one definition of "word token": [`word_tokens`] and the
/// interning tokenizer ([`crate::interned::Interner`]) both run it.
pub(crate) fn for_each_word(s: &str, word: &mut String, mut f: impl FnMut(&str)) {
    word.clear();
    for c in s.chars() {
        if c.is_ascii_alphanumeric() {
            // What the general branch does for ASCII, without the
            // case-mapping iterator.
            word.push(c.to_ascii_lowercase());
        } else if c.is_alphanumeric() {
            word.extend(c.to_lowercase());
        } else if !word.is_empty() {
            f(word);
            word.clear();
        }
    }
    if !word.is_empty() {
        f(word);
        word.clear();
    }
}

/// Split into lowercase alphanumeric word tokens.
///
/// ```
/// use hummer_textsim::tokenize::word_tokens;
/// assert_eq!(word_tokens("The Beatles - Abbey Road (1969)"),
///            vec!["the", "beatles", "abbey", "road", "1969"]);
/// ```
pub fn word_tokens(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_word(s, &mut String::new(), |w| out.push(w.to_string()));
    out
}

/// Split into padded character q-grams of the normalized string.
///
/// The string is padded with `q - 1` leading and trailing `#` marks so that
/// prefixes/suffixes weigh as much as interior characters — the usual
/// construction for q-gram-based duplicate detection.
///
/// ```
/// use hummer_textsim::tokenize::qgrams;
/// assert_eq!(qgrams("ab", 2), vec!["#a", "ab", "b#"]);
/// ```
pub fn qgrams(s: &str, q: usize) -> Vec<String> {
    assert!(q >= 1, "q must be at least 1");
    let norm = normalize(s);
    if norm.is_empty() {
        return Vec::new();
    }
    let pad = "#".repeat(q - 1);
    let padded: Vec<char> = format!("{pad}{norm}{pad}").chars().collect();
    if padded.len() < q {
        return vec![padded.iter().collect()];
    }
    padded.windows(q).map(|w| w.iter().collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_strip_punctuation_and_case() {
        assert_eq!(word_tokens("O'Brien, Pat"), vec!["o", "brien", "pat"]);
        assert_eq!(word_tokens(""), Vec::<String>::new());
        assert_eq!(word_tokens("  --  "), Vec::<String>::new());
    }

    #[test]
    fn words_keep_digits() {
        assert_eq!(word_tokens("track 12"), vec!["track", "12"]);
    }

    #[test]
    fn words_handle_unicode() {
        assert_eq!(word_tokens("Käse-Straße"), vec!["käse", "straße"]);
    }

    /// The ASCII branch is a shortcut, not a second definition: every char,
    /// ASCII or not, yields what `is_alphanumeric` + `to_lowercase` say.
    #[test]
    fn ascii_shortcut_agrees_with_the_general_rule() {
        let chars = (0u32..0x250).chain([0x3a3, 0x4e2d, 0x1f600]);
        let text: String = chars.filter_map(char::from_u32).collect();
        let mut expected = vec![String::new()];
        for c in text.chars() {
            if c.is_alphanumeric() {
                expected.last_mut().unwrap().extend(c.to_lowercase());
            } else if !expected.last().unwrap().is_empty() {
                expected.push(String::new());
            }
        }
        expected.retain(|w| !w.is_empty());
        assert_eq!(word_tokens(&text), expected);
    }

    #[test]
    fn qgrams_basic() {
        assert_eq!(qgrams("abc", 2), vec!["#a", "ab", "bc", "c#"]);
        assert_eq!(qgrams("a", 3), vec!["##a", "#a#", "a##"]);
        assert!(qgrams("", 2).is_empty());
    }

    #[test]
    fn qgrams_normalize() {
        assert_eq!(qgrams("AB", 2), qgrams("ab", 2));
    }

    #[test]
    fn qgram_count_formula() {
        // |qgrams(s, q)| = len + q - 1 for non-empty s
        let s = "hello";
        for q in 1..=4 {
            assert_eq!(qgrams(s, q).len(), s.len() + q - 1, "q={q}");
        }
    }

    #[test]
    #[should_panic(expected = "q must be at least 1")]
    fn qgrams_zero_q_panics() {
        qgrams("x", 0);
    }
}
