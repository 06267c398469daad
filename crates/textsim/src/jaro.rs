//! Jaro and Jaro-Winkler similarity.
//!
//! SoftTFIDF (Cohen, Ravikumar & Fienberg 2003) uses Jaro-Winkler as its
//! secondary, per-token similarity; the same paper found Jaro-Winkler one of
//! the best performers for name-matching tasks, which is why HumMer's schema
//! matcher compares duplicate fields with it.

/// Jaro similarity in `[0, 1]`.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    // Match window: half the longer length, minus one (at least 0).
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_taken = vec![false; b.len()];
    let mut matches_a: Vec<char> = Vec::new();
    let mut match_flags_b = vec![false; b.len()];
    for (i, ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_taken[j] && b[j] == *ca {
                b_taken[j] = true;
                match_flags_b[j] = true;
                matches_a.push(*ca);
                break;
            }
        }
    }
    let m = matches_a.len();
    if m == 0 {
        return 0.0;
    }
    // Transpositions: compare matched sequences in order.
    let matches_b: Vec<char> = b
        .iter()
        .zip(&match_flags_b)
        .filter(|(_, &f)| f)
        .map(|(c, _)| *c)
        .collect();
    let t = matches_a
        .iter()
        .zip(&matches_b)
        .filter(|(x, y)| x != y)
        .count() as f64
        / 2.0;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// Jaro-Winkler similarity: Jaro boosted by a shared prefix of up to 4
/// characters with scaling factor `p = 0.1`.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    const P: f64 = 0.1;
    const MAX_PREFIX: usize = 4;
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(MAX_PREFIX)
        .take_while(|(x, y)| x == y)
        .count();
    j + prefix as f64 * P * (1.0 - j)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-3
    }

    #[test]
    fn textbook_values() {
        // Classic examples from the record-linkage literature.
        assert!(close(jaro("MARTHA", "MARHTA"), 0.944));
        assert!(close(jaro("DIXON", "DICKSONX"), 0.767));
        assert!(close(jaro("JELLYFISH", "SMELLYFISH"), 0.896));
        assert!(close(jaro_winkler("MARTHA", "MARHTA"), 0.961));
        assert!(close(jaro_winkler("DIXON", "DICKSONX"), 0.813));
    }

    #[test]
    fn identity_and_empty() {
        assert_eq!(jaro("abc", "abc"), 1.0);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("abc", ""), 0.0);
        assert_eq!(jaro_winkler("", ""), 1.0);
    }

    #[test]
    fn disjoint_strings_zero() {
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn symmetry() {
        for (a, b) in [("martha", "marhta"), ("dwayne", "duane"), ("ab", "ba")] {
            assert!(close(jaro(a, b), jaro(b, a)));
            assert!(close(jaro_winkler(a, b), jaro_winkler(b, a)));
        }
    }

    #[test]
    fn winkler_boosts_shared_prefix() {
        let j = jaro("prefixed", "prefixes");
        let jw = jaro_winkler("prefixed", "prefixes");
        assert!(jw > j);
        // No shared prefix → no boost.
        let a = jaro("xabc", "yabc");
        assert!(close(jaro_winkler("xabc", "yabc"), a));
    }

    #[test]
    fn bounded() {
        for (a, b) in [("a", "a"), ("aaaa", "aaab"), ("hello world", "helol wrold")] {
            let v = jaro_winkler(a, b);
            assert!((0.0..=1.0).contains(&v), "{a} {b} -> {v}");
        }
    }
}
