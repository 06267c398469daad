//! Tokenization for token-based similarity measures (TF-IDF, SoftTFIDF).

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
}
