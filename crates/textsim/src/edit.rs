//! Edit-distance measures (Levenshtein and Damerau variants).
//!
//! Duplicate detection compares matched attribute values "using edit
//! distance and numerical distance functions" (paper §2.3); this module
//! provides the former, both as a raw distance and as a `[0, 1]` similarity.
//!
//! [`levenshtein_chars`] is the Levenshtein distance of one pair, and picks
//! its algorithm from the input lengths alone: when the shorter string has
//! at most [`BIT_PARALLEL_MAX`] chars it runs Myers' bit-vector recurrence
//! (in Hyyrö's formulation for the global distance), which advances a whole
//! DP column with a dozen word operations per char of the longer string;
//! above that it runs the classic two-row DP. Both compute the same integer
//! — the DP is the oracle `tests/properties.rs` checks the bit-vector path
//! against — so every similarity derived from the distance has the same
//! bits whichever path ran. [`levenshtein_similarity_chars_many`] is the
//! same comparison for one string against many: same recurrence, same DP
//! behind it, same bits, with the per-string set-up paid once and two
//! recurrences in flight. It is what the duplicate detector's pair-scoring
//! kernel calls; on the all-pairs sweep of hbench's `detect_allpairs_1k`
//! it cuts scoring by about 5 % against one call per pair (the numbers
//! are in `hummer_dupdetect::columnar`).

/// Longest *shorter* string (in chars) the bit-parallel path handles: one
/// bit per char of it in a `u64`.
pub const BIT_PARALLEL_MAX: usize = 64;

/// Reusable buffers for [`levenshtein_chars`]: the match masks of the
/// bit-parallel path and the two rows of the DP.
///
/// The pair-scoring kernel calls the edit distance once per candidate pair
/// and text attribute; one scratch per worker means no call allocates.
#[derive(Debug, Clone)]
pub struct EditScratch {
    /// Match mask per ASCII char of `loaded` (bit `i` set when its `i`-th
    /// char is this one).
    ascii: [u64; 128],
    /// Match masks of `loaded`'s non-ASCII chars.
    other: Vec<(char, u64)>,
    /// The string the masks describe, kept to wipe exactly its entries
    /// when the next one is loaded.
    loaded: [char; BIT_PARALLEL_MAX],
    loaded_len: usize,
    prev: Vec<usize>,
    cur: Vec<usize>,
}

impl Default for EditScratch {
    fn default() -> Self {
        EditScratch {
            ascii: [0; 128],
            other: Vec::new(),
            loaded: ['\0'; BIT_PARALLEL_MAX],
            loaded_len: 0,
            prev: Vec::new(),
            cur: Vec::new(),
        }
    }
}

impl EditScratch {
    /// Fresh scratch (buffers grow on demand).
    pub fn new() -> Self {
        EditScratch::default()
    }
}

/// Levenshtein distance over pre-collected char slices, reusing `scratch`.
/// [`levenshtein`] delegates here, so results — and every similarity
/// derived from them — agree exactly.
pub fn levenshtein_chars(a: &[char], b: &[char], scratch: &mut EditScratch) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return long.len();
    }
    if short.len() <= BIT_PARALLEL_MAX {
        scratch.load(short);
        bit_parallel(scratch, short.len(), long)
    } else {
        levenshtein_dp(short, long, scratch)
    }
}

impl EditScratch {
    /// Make the match masks those of `pattern` (`1 ≤ len ≤ 64`).
    fn load(&mut self, pattern: &[char]) {
        for &c in self.loaded[..self.loaded_len]
            .iter()
            .filter(|c| c.is_ascii())
        {
            self.ascii[c as usize] = 0;
        }
        self.other.clear();
        self.loaded[..pattern.len()].copy_from_slice(pattern);
        self.loaded_len = pattern.len();
        for (i, &c) in pattern.iter().enumerate() {
            let bit = 1u64 << i;
            if c.is_ascii() {
                self.ascii[c as usize] |= bit;
            } else if let Some(entry) = self.other.iter_mut().find(|(o, _)| *o == c) {
                entry.1 |= bit;
            } else {
                self.other.push((c, bit));
            }
        }
    }

    /// Where the loaded pattern has char `c`.
    fn matches(&self, c: char) -> u64 {
        if c.is_ascii() {
            self.ascii[c as usize]
        } else {
            self.other.iter().find(|(o, _)| *o == c).map_or(0, |e| e.1)
        }
    }
}

/// One column of Myers' bit-vector algorithm in Hyyrö's global-distance
/// variant: `pv`/`mv` hold the +1/−1 vertical deltas of the DP column (one
/// bit per pattern char), and `score` follows the column's last cell
/// through the horizontal delta at the pattern's top bit.
#[derive(Clone, Copy)]
struct Column {
    pv: u64,
    mv: u64,
    score: usize,
}

impl Column {
    /// The DP's column 0 for a pattern of `len` chars.
    fn first(len: usize) -> Self {
        Column {
            pv: !0,
            mv: 0,
            score: len,
        }
    }

    /// Advance over one text char that matches the pattern at `eq`.
    #[inline(always)]
    fn step(&mut self, eq: u64, top: u64) {
        let xv = eq | self.mv;
        let xh = (((eq & self.pv).wrapping_add(self.pv)) ^ self.pv) | eq;
        let mut ph = self.mv | !(xh | self.pv);
        let mut mh = self.pv & xh;
        self.score += usize::from(ph & top != 0);
        self.score -= usize::from(mh & top != 0);
        // The DP's first row grows by one per column: shift a +1 in.
        ph = (ph << 1) | 1;
        mh <<= 1;
        self.pv = mh | !(xv | ph);
        self.mv = ph & xv;
    }
}

/// Distance from the loaded pattern of `len` chars to `text`.
fn bit_parallel(masks: &EditScratch, len: usize, text: &[char]) -> usize {
    let top = 1u64 << (len - 1);
    let mut column = Column::first(len);
    for &c in text {
        column.step(masks.matches(c), top);
    }
    column.score
}

/// [`bit_parallel`] to two texts at once. A column depends on the one
/// before it through a chain of a dozen operations; two independent chains
/// in one loop keep the processor's other units busy, so the pair costs
/// about 1.4 single runs.
fn bit_parallel_two(
    masks: &EditScratch,
    len: usize,
    text_a: &[char],
    text_b: &[char],
) -> (usize, usize) {
    let top = 1u64 << (len - 1);
    let (mut a, mut b) = (Column::first(len), Column::first(len));
    let both = text_a.len().min(text_b.len());
    for (&ca, &cb) in text_a.iter().zip(text_b) {
        a.step(masks.matches(ca), top);
        b.step(masks.matches(cb), top);
    }
    for &c in &text_a[both..] {
        a.step(masks.matches(c), top);
    }
    for &c in &text_b[both..] {
        b.step(masks.matches(c), top);
    }
    (a.score, b.score)
}

/// The two-row DP, shorter string in the inner dimension.
fn levenshtein_dp(short: &[char], long: &[char], scratch: &mut EditScratch) -> usize {
    scratch.prev.clear();
    scratch.prev.extend(0..=short.len());
    scratch.cur.clear();
    scratch.cur.resize(short.len() + 1, 0);
    let (prev, cur) = (&mut scratch.prev, &mut scratch.cur);
    for (i, lc) in long.iter().enumerate() {
        cur[0] = i + 1;
        for (j, sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(prev, cur);
    }
    prev[short.len()]
}

/// Levenshtein distance (unit costs), O(|a|·|b|) time, O(min) space.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    levenshtein_chars(&a, &b, &mut EditScratch::new())
}

/// Damerau-Levenshtein distance (optimal string alignment variant:
/// adjacent transposition counts as one edit, substrings are not edited
/// twice).
pub fn damerau_levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let (n, m) = (a.len(), b.len());
    if n == 0 {
        return m;
    }
    if m == 0 {
        return n;
    }
    let mut d = vec![vec![0usize; m + 1]; n + 1];
    for (i, row) in d.iter_mut().enumerate() {
        row[0] = i;
    }
    for (j, cell) in d[0].iter_mut().enumerate() {
        *cell = j;
    }
    for i in 1..=n {
        for j in 1..=m {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            let mut best = (d[i - 1][j] + 1)
                .min(d[i][j - 1] + 1)
                .min(d[i - 1][j - 1] + cost);
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                best = best.min(d[i - 2][j - 2] + 1);
            }
            d[i][j] = best;
        }
    }
    d[n][m]
}

/// Levenshtein similarity in `[0, 1]`: `1 − dist / max(|a|, |b|)`.
/// Two empty strings are fully similar.
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    levenshtein_similarity_chars(&a, &b, &mut EditScratch::new())
}

/// The similarity a distance of `dist` means between strings the longer of
/// which has `max_len` chars.
fn similarity_of(dist: usize, max_len: usize) -> f64 {
    if max_len == 0 {
        return 1.0;
    }
    1.0 - dist as f64 / max_len as f64
}

/// [`levenshtein_similarity`] over pre-collected char slices with a
/// reusable scratch — the allocation-free form the pair-scoring kernel uses.
/// Same formula, bit for bit (char counts are the slice lengths).
pub fn levenshtein_similarity_chars(a: &[char], b: &[char], scratch: &mut EditScratch) -> f64 {
    similarity_of(levenshtein_chars(a, b, scratch), a.len().max(b.len()))
}

/// [`levenshtein_similarity_chars`] of `a` against each of `others`, in
/// order, appended to `out` — the same bits, for less: the candidate pairs
/// of a row arrive together, so `a`'s match masks are built once and the
/// bit-vector recurrence runs two texts at a time.
///
/// The recurrence only needs its pattern to fit a word, not to be the
/// shorter string, so `a` is the pattern whenever it has 1 to 64 chars;
/// otherwise every pair goes through [`levenshtein_chars`]. The distance
/// is the same integer whichever way it is computed.
pub fn levenshtein_similarity_chars_many<'t>(
    a: &[char],
    others: impl IntoIterator<Item = &'t [char]>,
    scratch: &mut EditScratch,
    out: &mut Vec<f64>,
) {
    let mut others = others.into_iter();
    if a.is_empty() || a.len() > BIT_PARALLEL_MAX {
        out.extend(others.map(|b| levenshtein_similarity_chars(a, b, scratch)));
        return;
    }
    scratch.load(a);
    let similarity = |dist, b: &[char]| similarity_of(dist, a.len().max(b.len()));
    while let Some(b) = others.next() {
        match others.next() {
            Some(c) => {
                let (to_b, to_c) = bit_parallel_two(scratch, a.len(), b, c);
                out.extend([similarity(to_b, b), similarity(to_c, c)]);
            }
            None => out.push(similarity(bit_parallel(scratch, a.len(), b), b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_distances() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn unicode_counts_chars_not_bytes() {
        assert_eq!(levenshtein("müller", "muller"), 1);
        assert_eq!(levenshtein("北京", "北海"), 1);
    }

    #[test]
    fn symmetric() {
        assert_eq!(
            levenshtein("abcdef", "azced"),
            levenshtein("azced", "abcdef")
        );
    }

    #[test]
    fn damerau_counts_transposition_once() {
        assert_eq!(levenshtein("ab", "ba"), 2);
        assert_eq!(damerau_levenshtein("ab", "ba"), 1);
        assert_eq!(damerau_levenshtein("ca", "abc"), 3);
        assert_eq!(damerau_levenshtein("smtih", "smith"), 1);
    }

    #[test]
    fn similarity_bounds_and_identity() {
        assert_eq!(levenshtein_similarity("x", "x"), 1.0);
        assert_eq!(levenshtein_similarity("", ""), 1.0);
        assert_eq!(levenshtein_similarity("abc", "xyz"), 0.0);
        let s = levenshtein_similarity("jonathan", "jonhatan");
        assert!(s > 0.5 && s < 1.0);
    }

    /// Both algorithms on the same input, either side of the length
    /// switch (the DP takes any length, the bit-vector path up to 64).
    #[test]
    fn bit_parallel_agrees_with_dp() {
        let alphabet = ['a', 'b', 'c', 'é', '中', '😀'];
        let mut state = 0x2005u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut scratch = EditScratch::new();
        for short_len in [1, 2, 7, 31, 32, 33, 63, 64] {
            for long_len in [short_len, short_len + 1, short_len + 9, 2 * short_len + 3] {
                let short: Vec<char> = (0..short_len).map(|_| alphabet[next() % 6]).collect();
                let long: Vec<char> = (0..long_len).map(|_| alphabet[next() % 6]).collect();
                let want = levenshtein_dp(&short, &long, &mut scratch);
                let tail = levenshtein_dp(&short, &long[1..], &mut scratch);
                scratch.load(&short);
                assert_eq!(
                    bit_parallel(&scratch, short_len, &long),
                    want,
                    "{short_len} x {long_len}"
                );
                // Two texts of unequal length at once.
                assert_eq!(
                    bit_parallel_two(&scratch, short_len, &long, &long[1..]),
                    (want, tail),
                    "{short_len} x {long_len}, two at once"
                );
            }
        }
    }

    #[test]
    fn length_switch_is_at_64_chars() {
        let a65: Vec<char> = "ab".chars().cycle().take(65).collect();
        let b70: Vec<char> = "ba".chars().cycle().take(70).collect();
        let mut scratch = EditScratch::new();
        let d = levenshtein_chars(&a65, &b70, &mut scratch);
        assert_eq!(d, levenshtein_dp(&a65, &b70, &mut scratch));
        // 64 is still the bit-vector path: the DP rows stay untouched.
        let mut fresh = EditScratch::new();
        assert_eq!(levenshtein_chars(&a65[..64], &b70, &mut fresh), 6);
        assert!(fresh.prev.is_empty());
    }

    #[test]
    fn triangle_inequality_spot_checks() {
        let words = ["hummer", "summer", "hammer", "ham", ""];
        for a in words {
            for b in words {
                for c in words {
                    assert!(levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c));
                }
            }
        }
    }
}
