//! The tuple-similarity measure — DogmatiX's XML measure "mapped to the
//! relational world" (paper §2.3).
//!
//! For a pair of tuples the measure accounts for exactly the four aspects
//! the paper lists:
//!
//! 1. **matched vs. unmatched attributes** — only attributes where *both*
//!    tuples carry a value ("matched") contribute; a value facing a `NULL`
//!    ("non-specified") is excluded from numerator *and* denominator,
//! 2. **data similarity** — matched values are compared with edit-distance
//!    similarity for text and relative numeric distance for numbers/dates,
//! 3. **identifying power** — each matched attribute is weighted by the
//!    *soft IDF* of its values within that attribute's corpus: agreeing on
//!    a rare value is strong evidence, agreeing on a ubiquitous one is weak,
//! 4. **contradictions vs. missing data** — a contradicting pair of values
//!    keeps its weight in the denominator while contributing little to the
//!    numerator, so contradictions *reduce* similarity while missing data
//!    has *no influence*.
//!
//! ```text
//!             Σ_{a ∈ matched} w_a · s_a
//! sim(t,u) = ───────────────────────────            s_a, w_a ∈ [0, 1]
//!             Σ_{a ∈ matched} w_a + λ
//! ```
//!
//! λ = [`EVIDENCE_PRIOR`] is a smoothing prior on the evidence mass: a pair
//! that matches on a single weakly-identifying attribute (e.g. only an
//! equal date, everything else `NULL`) must not reach full confidence just
//! because its one matched field agrees. Missing fields still have *no
//! influence* in the paper's sense — they enter neither numerator nor
//! denominator — but confidence now grows with the amount of agreeing
//! evidence. The flip side is that even identical tuples score slightly
//! below 1 (`Σw / (Σw + λ)`); thresholds account for this.
//!
//! ## Layout
//!
//! [`TupleSimilarity::new`] builds the one cell cache every scoring path
//! reads — the per-pair reference here, the block kernel in
//! [`crate::columnar`], and the incremental detector. Per participating attribute it holds
//! struct-of-arrays columns indexed by row (presence, weight, near-weight,
//! numeric view, text id) and the attribute's *distinct* lower-cased
//! renderings pooled once: their chars back to back in one arena, with
//! start offsets, and per distinct text its length and character histogram
//! (the bound's input). A row's text is a `u32` id, and equal ids mean
//! equal text.
//!
//! Construction reads the attribute's interning pass — each row's
//! rendering id and the distinct renderings, which the detector shares with
//! attribute selection and blocking — and lower-cases (into one reused
//! buffer), tokenizes and shapes each distinct rendering once; the soft-IDF
//! weight too is computed per distinct value, not per row. Document
//! frequencies stay exact integers —
//! a value's distinct tokens count once per row holding it — and each
//! weight is the same token-order sum over the same [`quantize_count`]ed
//! statistics a per-row computation adds up, so every cached float is the
//! one a `String`-keyed corpus over the column's rows would produce (the
//! unit tests keep that per-row construction as their oracle).
//!
//! ## Kept counts
//!
//! Every weight is a function of integer counts the construction computes
//! anyway: per attribute, the rows holding each distinct rendering and
//! each distinct text, each token's document frequency (with the
//! renderings that contain it), the rows per noise bucket, and the
//! non-null row count; the scale is a pass over the numeric views. A cold
//! build drops them. A [`crate::DetectionIndex`] keeps them (every
//! rendering tokenized, since a delta can turn a numeric attribute
//! textual) beside the interning passes, which hold the rows per rendering
//! and the non-null count once for every reader, and carries the measure
//! across a delta: the passes render and intern the touched cells, the
//! measure moves its counts by the renderings they left and arrived at
//! (lower-casing and tokenizing only renderings new to the column), a
//! moved attribute's σ pass runs again, and exactly the rows that read a
//! count whose *quantized* value stepped are re-weighed — each with the
//! float a fresh build computes, from the same counts. Ids are never
//! reused, so a patched column may hold dead texts; nothing reads ids but
//! for equality.
//!
//! ## The bound
//!
//! [`TupleSimilarity::upper_bound`] is the filter of §2.3 ("an upper bound
//! to the similarity measure"). It is admissible *in floating point*, with
//! no epsilon: each text term is bounded through integer lower bounds on
//! the edit distance, and IEEE `+ − × ÷` round monotonically, so a sum of
//! terms that are each `≥` is `≥`. Everything that skips work downstream —
//! the filter, and the kernel's staged re-testing of the bound — rests on
//! this one property, which `tests/measure_properties.rs` checks on
//! case-expanding, non-ASCII, empty and long cells.

use crate::incremental::RowChanges;
use crate::renderings::{push_lowercase, ColumnRenderings, PassDelta, Passes, Renderings, NULL};
use hummer_engine::{Table, Value};
use hummer_textsim::edit::{levenshtein_similarity, levenshtein_similarity_chars, EditScratch};
use hummer_textsim::interned::{Interner, Strings};
use hummer_textsim::numeric::relative_similarity;
use std::collections::HashMap;

/// How many standard deviations of gap drive a numeric similarity to zero
/// (the scale handed to [`field_similarity_with_range`] is
/// `NUMERIC_SIGMA_SCALE · σ` of the attribute).
///
/// Plain relative distance is blind on large-magnitude attributes — any two
/// years are "99 % similar", any two date *ordinals* (~732 000) are
/// indistinguishable — which collapses duplicate-detection precision.
/// Scaling to the attribute's dispersion keeps true-duplicate noise (a gap
/// well under σ) similar while separating genuinely different values
/// (see DESIGN.md §6).
pub const NUMERIC_SIGMA_SCALE: f64 = 2.0;

/// Smoothing prior λ on matched-evidence mass (in units of one maximally
/// identifying attribute's weight). See the module docs for the rationale;
/// `exp4_dupdetect` ablates it.
pub const EVIDENCE_PRIOR: f64 = 0.25;

/// Small-sample widening of the σ-based comparison scale: the scale used is
/// `NUMERIC_SIGMA_SCALE · σ · (1 + SIGMA_SMALL_SAMPLE_INFLATION / n)`.
///
/// Dispersion estimated from a handful of values understates the
/// population's: on the paper's 5-row running examples a legitimate 1-year
/// age conflict sits at half of such a "σ" and would read as a hard
/// contradiction. Widening the scale by `1 + 10/n` (3× at n = 5, ~1.1× by
/// n ≈ 100) keeps small-table noise forgiving while preserving σ-scaling's
/// point — separating large-magnitude values (years, date ordinals) where
/// relative distance is blind — at *every* table size.
pub const SIGMA_SMALL_SAMPLE_INFLATION: f64 = 10.0;

/// Quantize a corpus count (document count or document frequency) for the
/// statistics entering the measure: counts up to 63 are exact, larger ones
/// are truncated to their top 6 binary digits (relative error < 1.6 %).
///
/// Why quantize at all: every per-cell weight is a function of corpus-wide
/// counts, so without quantization a *single* inserted row would shift the
/// identifying weight of every cell in the table by a few ULPs — and the
/// incremental detector ([`crate::incremental`]) could never carry a single
/// scored pair across a delta while staying bit-identical to a from-scratch
/// run. With step-function counts, a small delta leaves the weights of
/// untouched rows literally unchanged (until a quantization boundary is
/// crossed, at which point one delta pays a full rescore and the window
/// resets). The measure's *semantics* are unchanged — only the granularity
/// at which corpus evidence is read.
pub fn quantize_count(c: usize) -> usize {
    if c < 64 {
        return c;
    }
    let shift = usize::BITS - c.leading_zeros() - 6;
    (c >> shift) << shift
}

/// Quantize a σ-based comparison scale onto a geometric grid with 32 steps
/// per octave (relative error < 2.2 %). Same rationale as
/// [`quantize_count`]: the scale must be a *step* function of the data so
/// small deltas leave untouched rows' numeric comparisons bit-identical.
pub fn quantize_scale(scale: f64) -> f64 {
    if !scale.is_finite() || scale <= 0.0 {
        return scale;
    }
    ((scale.log2() * 32.0).floor() / 32.0).exp2()
}

/// Per-field similarity between two non-null values: numeric pairs compare
/// by distance against `scale` (the gap at which similarity reaches zero;
/// dates via their day ordinal), everything else by normalized Levenshtein
/// over the lowercase text rendering.
///
/// `scale` is typically `2σ` of the attribute's values (`None` when the
/// caller has no statistics, e.g. for ad-hoc value pairs); without a usable
/// scale the comparison falls back to relative distance.
pub fn field_similarity_with_range(a: &Value, b: &Value, scale: Option<f64>) -> f64 {
    debug_assert!(!a.is_null() && !b.is_null());
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => numeric_field_similarity(x, y, scale),
        _ => {
            let sa = a.to_string().to_lowercase();
            let sb = b.to_string().to_lowercase();
            levenshtein_similarity(&sa, &sb)
        }
    }
}

/// [`field_similarity_with_range`] without scale statistics.
pub fn field_similarity(a: &Value, b: &Value) -> f64 {
    field_similarity_with_range(a, b, None)
}

/// The numeric kernel under [`field_similarity_with_range`]: similarity of
/// two numeric views against an attribute's comparison scale. Exposed so
/// the block kernel and the micro-benches can run the exact same
/// arithmetic the per-pair measure runs.
pub fn numeric_field_similarity(x: f64, y: f64, scale: Option<f64>) -> f64 {
    if x == y {
        return 1.0;
    }
    match scale {
        // Quadratic decay, not linear: numeric values are near-unique, so
        // soft IDF hands them close to maximal identifying weight — but in a
        // continuous domain *closeness* is weak identity evidence. True
        // duplicates differ by measurement noise (a small fraction of σ) and
        // stay near 1 under the square, while unrelated values at a sizable
        // fraction of the dispersion are pushed towards 0 instead of
        // lingering at 0.7–0.9 and outvoting a disagreeing text attribute.
        Some(s) if s > 0.0 && s.is_finite() => (1.0 - (x - y).abs() / s).max(0.0).powi(2),
        _ => relative_similarity(x, y),
    }
}

/// Buckets of the per-value character histogram: a–z, then each digit
/// 0–9 on its own, then "other" — 37 in all. Digits get a bucket each
/// because a phone number or a code is mostly digits: with one bucket for
/// all ten, any two phones of one format would look alike to the bound.
const HIST_BUCKETS: usize = 37;

/// A distinct text as the bound reads it: its character histogram over
/// [`HIST_BUCKETS`] and its length in chars.
///
/// The counts are `u8`, padded with zeros to three 16-byte lanes, so the L1
/// distance is three byte-wise absolute-difference sums. A count saturates
/// at 255; the bound stays admissible, since
/// `|min(p, 255) − min(q, 255)| ≤ |p − q|`.
#[derive(Debug, Clone)]
struct TextShape {
    hist: [[u8; 16]; 3],
    len: u32,
}

impl TextShape {
    /// The shape of `text`, whose chars are appended to `chars` on the way.
    fn of(text: &str, chars: &mut Vec<char>) -> TextShape {
        let mut hist = [[0u8; 16]; 3];
        let counts = hist.as_flattened_mut();
        let mut len = 0;
        chars.reserve(text.len());
        for c in text.chars() {
            chars.push(c);
            let bucket = match c {
                'a'..='z' => (c as u8 - b'a') as usize,
                '0'..='9' => 26 + (c as u8 - b'0') as usize,
                _ => HIST_BUCKETS - 1,
            };
            counts[bucket] = counts[bucket].saturating_add(1);
            len += 1;
        }
        TextShape { hist, len }
    }

    /// The L1 distance between the two (saturated) histograms.
    fn l1(&self, other: &TextShape) -> u64 {
        // A lane sums at most 16 × 255 < 2^16; one `u16` sum per lane is
        // one byte-wise absolute-difference sum on the vector unit.
        let lanes: u32 = self
            .hist
            .iter()
            .zip(&other.hist)
            .map(|(x, y)| {
                let lane: u16 = x
                    .iter()
                    .zip(y)
                    .map(|(p, q)| u16::from(p.abs_diff(*q)))
                    .sum();
                u32::from(lane)
            })
            .sum();
        u64::from(lanes)
    }

    /// `O(1)` upper bound on the edit similarity of the two texts, from a
    /// lower bound on their distance, `(L1 + |la − lb|) / 2`: the larger of
    /// the two histogram excesses, or less where a count saturates (see
    /// [`crate::columnar`] for why it is a lower bound).
    ///
    /// Admissible *in floating point*: `dist_lb ≤ dist` as integers, and
    /// rounded `÷` and `−` are monotone, so this is `≥` the value
    /// [`levenshtein_similarity_chars`] returns, bit for bit.
    fn similarity_bound(&self, other: &TextShape) -> f64 {
        let max = self.len.max(other.len);
        if max == 0 {
            return 1.0;
        }
        let dist_lb = (self.l1(other) + u64::from(self.len.abs_diff(other.len))) / 2;
        1.0 - dist_lb as f64 / f64::from(max)
    }
}

/// One participating attribute: per-row arrays indexed by row, and the
/// attribute's *distinct* lower-cased renderings pooled once, so a row
/// stores a `u32` id and everything derived from the text (chars, length,
/// histogram) exists once per distinct value.
#[derive(Debug, Clone, Default)]
pub(crate) struct AttrColumn {
    /// `true` where the row has a (non-null) cell for this attribute.
    pub(crate) present: Vec<bool>,
    /// Identifying power (mean soft IDF of the value's tokens; for σ-scaled
    /// numeric attributes, soft IDF of the *exact* value) — applied to text
    /// comparisons and to exact numeric agreement.
    pub(crate) weight: Vec<f64>,
    /// Identifying power of mere *closeness* for σ-scaled numeric
    /// attributes: soft IDF of the value's noise-resolution bucket. Two
    /// different-but-close continuous values share a bucket easily, so this
    /// is deliberately weaker than `weight`. Equals `weight` for text.
    pub(crate) near_weight: Vec<f64>,
    /// `true` where the cell has a numeric view.
    pub(crate) has_num: Vec<bool>,
    /// The numeric view (placeholder `0.0` where absent).
    pub(crate) num: Vec<f64>,
    /// Id of the cell's lower-cased rendering among the attribute's
    /// distinct ones (placeholder `0` where the cell is null). Equal ids
    /// mean equal text.
    pub(crate) text_id: Vec<u32>,
    /// Text `t` is `chars[text_starts[t]..text_starts[t + 1]]`.
    text_starts: Vec<u32>,
    /// The chars of every distinct text, back to back.
    chars: Vec<char>,
    /// Per distinct text: its character histogram (a–z, each digit,
    /// other) and its length in chars, the inputs of
    /// [`AttrColumn::text_similarity_bound`].
    shapes: Vec<TextShape>,
}

impl AttrColumn {
    /// The chars of distinct text `t` (the edit-distance input).
    pub(crate) fn text(&self, t: u32) -> &[char] {
        let t = t as usize;
        &self.chars[self.text_starts[t] as usize..self.text_starts[t + 1] as usize]
    }

    /// Pool a new distinct text; returns its id.
    fn push_text(&mut self, text: &str) -> u32 {
        // No more texts than renderings, whose count fits.
        let t = self.shapes.len() as u32;
        self.shapes.push(TextShape::of(text, &mut self.chars));
        let end = u32::try_from(self.chars.len())
            .expect("fewer than 2^32 chars of distinct text per attribute");
        self.text_starts.push(end);
        t
    }

    /// Row `i`'s cell, for the bit-exact comparison of a delta.
    fn cell(&self, i: usize) -> Cell {
        Cell {
            present: self.present[i],
            weight: self.weight[i].to_bits(),
            near_weight: self.near_weight[i].to_bits(),
            has_num: self.has_num[i],
            num: self.num[i].to_bits(),
            text: self.text_id[i],
        }
    }

    /// Both rows carry a value here ("matched"); anything else has no
    /// influence on the measure.
    pub(crate) fn matched(&self, i: usize, j: usize) -> bool {
        self.present[i] && self.present[j]
    }

    /// Both cells compare as numbers.
    pub(crate) fn numeric(&self, i: usize, j: usize) -> bool {
        self.has_num[i] && self.has_num[j]
    }

    /// Weight of a matched pair: exact numeric agreement and text carry the
    /// values' own rarity, mere numeric closeness only the buckets'.
    pub(crate) fn pair_weight(&self, i: usize, j: usize) -> f64 {
        if self.numeric(i, j) && self.num[i] != self.num[j] {
            (self.near_weight[i] + self.near_weight[j]) / 2.0
        } else {
            (self.weight[i] + self.weight[j]) / 2.0
        }
    }

    /// [`TextShape::similarity_bound`] of distinct texts `a` and `b`.
    pub(crate) fn text_similarity_bound(&self, a: u32, b: u32) -> f64 {
        self.shapes[a as usize].similarity_bound(&self.shapes[b as usize])
    }
}

/// Soft IDF of a token found in `df` of `doc_count` documents, over
/// quantized counts — the identifying-power weight the measure uses.
/// [`hummer_textsim::tfidf::Corpus::soft_idf`]'s formula with
/// [`quantize_count`] applied to both counts.
fn stable_soft_idf(doc_count: usize, df: usize) -> f64 {
    let n = quantize_count(doc_count);
    if n == 0 {
        return 1.0;
    }
    let df = quantize_count(df);
    let idf = (1.0 + n as f64 / (df as f64 + 1.0)).ln();
    (idf / (1.0 + n as f64).ln()).min(1.0)
}

/// Floor on every cell weight, so matched-but-common values still
/// participate.
const MIN_WEIGHT: f64 = 0.05;

/// Noise-resolution bucket of a σ-scaled numeric value: `scale` is
/// `NUMERIC_SIGMA_SCALE · σ`, so the bucket width is `σ/2` — values a noise
/// gap apart usually share a bucket, unrelated values rarely do. The
/// bucket is named by the bits of its (integral) index.
fn numeric_bucket(x: f64, scale: f64) -> u64 {
    let width = (scale / (2.0 * NUMERIC_SIGMA_SCALE)).max(f64::MIN_POSITIVE);
    let index = (x / width).floor();
    debug_assert!(!index.is_nan(), "a scaled attribute holds finite values");
    index.to_bits()
}

/// The comparison scale of one attribute: `NUMERIC_SIGMA_SCALE · σ`,
/// widened for small samples and quantized, when every non-null value has
/// a numeric view (ints, floats, dates, numeric text) and the dispersion is
/// non-zero; else `None`.
fn comparison_scale(col: &AttrColumn) -> Option<f64> {
    let rows = 0..col.present.len();
    if rows.clone().any(|i| col.present[i] && !col.has_num[i]) {
        return None; // mixed/textual attribute
    }
    let values = || rows.clone().filter(|&i| col.present[i]).map(|i| col.num[i]);
    let count = values().count();
    if count < 2 {
        return None;
    }
    let n = count as f64;
    let mean = values().sum::<f64>() / n;
    let var = values().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    let sigma = var.sqrt();
    let inflation = 1.0 + SIGMA_SMALL_SAMPLE_INFLATION / n;
    (sigma > 0.0).then(|| quantize_scale(NUMERIC_SIGMA_SCALE * sigma * inflation))
}

/// The distinct renderings of an attribute with their word tokens, for
/// weighing by token.
#[derive(Debug, Default)]
struct TokenizedRenderings {
    interner: Interner,
    /// Token ids of every rendering, back to back.
    tokens: Vec<u32>,
    /// Rendering `r`'s tokens end at `ends[r]` (and start where `r - 1`'s end).
    ends: Vec<usize>,
}

impl TokenizedRenderings {
    fn push(&mut self, rendering: &str) {
        self.interner.tokenize_into(rendering, &mut self.tokens);
        self.ends.push(self.tokens.len());
    }

    fn tokens_of(&self, r: usize) -> &[u32] {
        let start = if r == 0 { 0 } else { self.ends[r - 1] };
        &self.tokens[start..self.ends[r]]
    }

    /// Rendering `r`'s distinct tokens, into `out`.
    fn distinct_tokens(&self, r: usize, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(self.tokens_of(r));
        out.sort_unstable();
        out.dedup();
    }

    /// Every token's document frequency, where a rendering held by
    /// `rows[r]` of the attribute's non-null rows counts that often towards
    /// each of its distinct tokens. Exact integers.
    fn df(&self, rows: &[usize]) -> Vec<usize> {
        let vocabulary = self.tokens.iter().max().map_or(0, |&t| t as usize + 1);
        let mut df = vec![0usize; vocabulary];
        let mut distinct: Vec<u32> = Vec::new();
        for (r, &rows_of_r) in rows.iter().enumerate() {
            self.distinct_tokens(r, &mut distinct);
            for &t in &distinct {
                df[t as usize] += rows_of_r;
            }
        }
        df
    }

    /// Rendering `r`'s weight: the mean soft IDF of its tokens, summed in
    /// token order — the sum a per-row computation adds up, so the float is
    /// the one a `Corpus` over the column's rows gives.
    fn weight(&self, r: usize, soft_idf: impl Fn(u32) -> f64) -> f64 {
        let tokens = self.tokens_of(r);
        if tokens.is_empty() {
            return MIN_WEIGHT;
        }
        let sum: f64 = tokens.iter().map(|&t| soft_idf(t)).sum();
        (sum / tokens.len() as f64).max(MIN_WEIGHT)
    }
}

/// Build one attribute's column and comparison scale from the attribute's
/// interning pass — and, with `keep`, the counts its weights are computed
/// from.
fn build_column(
    table: &Table,
    attr: usize,
    renderings: &ColumnRenderings,
    keep: bool,
) -> (AttrColumn, Option<f64>, Option<ColumnCounts>) {
    let rows = table.len();
    let mut col = AttrColumn {
        present: Vec::with_capacity(rows),
        has_num: Vec::with_capacity(rows),
        num: Vec::with_capacity(rows),
        text_id: Vec::with_capacity(rows),
        weight: vec![0.0; rows],
        near_weight: vec![0.0; rows],
        text_starts: vec![0],
        ..Default::default()
    };
    for v in table.column_values(attr) {
        let num = v.as_f64();
        col.present.push(!v.is_null());
        col.has_num.push(num.is_some());
        col.num.push(num.unwrap_or(0.0));
    }
    let scale = comparison_scale(&col);
    let present: Vec<usize> = (0..rows).filter(|&i| col.present[i]).collect();
    let docs = renderings.non_null;

    // A *rendering* is a cell's canonical string; its word tokens (and so
    // a text cell's weight) are a function of it. A *text* is a rendering
    // lower-cased — what the edit distance compares. Several renderings
    // can share a text ("Berlin", "BERLIN"), never the reverse. The pass
    // numbered the renderings; lower-casing, tokenizing and the histogram
    // happen here once per distinct rendering or text.
    let distinct = renderings.len();
    let mut counts = ColumnCounts::default();
    // Only textual attributes weigh by token; kept counts tokenize every
    // attribute, since a delta can turn a numeric one textual.
    let tokenize = scale.is_none() || keep;
    counts.add_renderings(&mut col, renderings, tokenize);
    for (&t, &rows_of_r) in counts.rendering_text.iter().zip(&renderings.rows) {
        counts.text_rows[t as usize] += rows_of_r;
    }
    col.text_id
        .extend(renderings.of_row.iter().map(|&r| match r {
            NULL => 0,
            r => counts.rendering_text[r as usize],
        }));

    // Identifying power. Textual attributes document each value's word
    // tokens. σ-scaled numeric attributes document the value's
    // noise-resolution bucket instead: continuous values are near-unique as
    // strings, so token IDF would award every price or date maximal
    // identifying power, when what matters is how rare
    // agreement-within-noise is in this attribute — and, separately, the
    // *exact* value, because exact agreement on a rare value (an
    // unconflicted duplicate's price) is strong evidence even though
    // closeness alone is weak.
    if tokenize {
        counts.df = counts.tokenized.df(&renderings.rows);
    }
    match scale {
        None => {
            let soft_idf: Vec<f64> = (counts.df.iter())
                .map(|&df| stable_soft_idf(docs, df))
                .collect();
            counts.rendering_weight = (0..distinct)
                .map(|r| counts.tokenized.weight(r, |t| soft_idf[t as usize]))
                .collect();
            for &i in &present {
                col.weight[i] = counts.rendering_weight[renderings.of_row[i] as usize];
                col.near_weight[i] = col.weight[i];
            }
        }
        Some(scale) => {
            for &i in &present {
                *counts
                    .bucket_rows
                    .entry(numeric_bucket(col.num[i], scale))
                    .or_default() += 1;
            }
            for &i in &present {
                let exact = counts.text_rows[col.text_id[i] as usize];
                let near = counts.bucket_rows[&numeric_bucket(col.num[i], scale)];
                col.weight[i] = stable_soft_idf(docs, exact).max(MIN_WEIGHT);
                col.near_weight[i] = stable_soft_idf(docs, near).max(MIN_WEIGHT);
            }
        }
    }
    let counts = keep.then(|| {
        // Rendering weights are maintained while the attribute is textual;
        // a numeric attribute's stay unset until a delta turns it textual.
        counts.rendering_weight.resize(distinct, 0.0);
        counts.post_tokens(0);
        counts
    });
    (col, scale, counts)
}

/// One cell of a column, as bits: what [`TupleSimilarity::row_cells_identical`]
/// compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cell {
    present: bool,
    weight: u64,
    near_weight: u64,
    has_num: bool,
    num: u64,
    text: u32,
}

impl Cell {
    /// Equal as the measure reads them: a missing cell is just missing.
    fn same_as(&self, other: &Cell) -> bool {
        if !(self.present && other.present) {
            return self.present == other.present;
        }
        self == other
    }
}

/// The integer counts one attribute's weights are computed from beyond
/// its interning pass (which a [`crate::DetectionIndex`] keeps once, for
/// every reader, with the rows per rendering and the non-null rows): the
/// texts with their row counts, each token's document frequency, the rows
/// per noise bucket — kept so that a delta *moves* them (see
/// [`TupleSimilarity::apply_delta`]) instead of recounting the column.
///
/// Ids are never reused: a rendering or text whose rows drop to zero keeps
/// its id and its pooled chars, and comes back under it. Text ids are only
/// ever compared for equality, so a column with dead texts scores exactly
/// like one built from scratch.
#[derive(Debug, Default)]
pub(crate) struct ColumnCounts {
    /// Per rendering: its text, and its weight as a token mean (maintained
    /// while the attribute has no numeric scale).
    rendering_text: Vec<u32>,
    rendering_weight: Vec<f64>,
    tokenized: TokenizedRenderings,
    /// Per token: rows holding it, and the renderings that contain it.
    df: Vec<usize>,
    postings: Vec<Vec<u32>>,
    /// Distinct lower-cased texts and the rows holding each.
    text_ids: Strings,
    text_rows: Vec<usize>,
    /// Rows per noise bucket under the current scale (empty without one).
    bucket_rows: HashMap<u64, usize>,
}

/// Counts as they were before a delta first touched them, in touch order
/// (an id may repeat; its first entry holds the original count).
#[derive(Default)]
struct Touched {
    tokens: Vec<(u32, usize)>,
    texts: Vec<(u32, usize)>,
    buckets: Vec<(u64, usize)>,
}

/// The ids whose count crossed a quantization step between its first
/// touch and `now`, sorted.
fn stepped<K: Ord + Copy>(mut touched: Vec<(K, usize)>, now: impl Fn(K) -> usize) -> Vec<K> {
    touched.sort_by_key(|&(k, _)| k); // stable: each id's first touch leads
    touched.dedup_by_key(|&mut (k, _)| k);
    touched
        .into_iter()
        .filter(|&(k, before)| quantize_count(before) != quantize_count(now(k)))
        .map(|(k, _)| k)
        .collect()
}

/// One attribute's side of a delta, as the measure patch reads it.
struct AttrDelta<'a> {
    attr: usize,
    new: &'a Table,
    changes: &'a RowChanges<'a>,
    /// The attribute's pass, moved already, and what the delta did to it.
    pass: &'a ColumnRenderings,
    moved: &'a PassDelta,
}

/// Per new row: the patch's verdicts.
struct RowFlags {
    /// Some cell differs bit-wise from the row's old cell (or the row is
    /// new, or a numeric cell of it is read under a moved scale).
    dirty: Vec<bool>,
    /// Some compared cell was rendered again.
    rerendered: Vec<bool>,
}

impl ColumnCounts {
    /// Take old row `o`'s cell, of rendering `r`, out of the counts.
    fn uncount(
        &mut self,
        col: &AttrColumn,
        o: usize,
        r: u32,
        scale: Option<f64>,
        touched: &mut Touched,
    ) {
        self.move_text(col.text_id[o], r, -1, touched);
        if let Some(scale) = scale {
            let b = numeric_bucket(col.num[o], scale);
            let rows = self
                .bucket_rows
                .get_mut(&b)
                .expect("a counted cell has a bucket");
            touched.buckets.push((b, *rows));
            *rows -= 1;
        }
    }

    /// Lower-case and pool every rendering of `pass` not added yet, and
    /// with `tokenize` tokenize it — once per distinct rendering.
    fn add_renderings(&mut self, col: &mut AttrColumn, pass: &ColumnRenderings, tokenize: bool) {
        let mut text = String::new();
        self.rendering_text
            .reserve(pass.len() - self.rendering_text.len());
        for r in self.rendering_text.len()..pass.len() {
            let rendering = pass.strings.get(r as u32);
            text.clear();
            push_lowercase(rendering, &mut text);
            let (t, new_text) = self.text_ids.intern(&text);
            if new_text {
                col.push_text(&text);
                self.text_rows.push(0);
            }
            self.rendering_text.push(t);
            if tokenize {
                self.tokenized.push(rendering);
            }
        }
    }

    /// Post each distinct token of every rendering from `first` on,
    /// making room for tokens new to the attribute.
    fn post_tokens(&mut self, first: usize) {
        let mut tokens = Vec::new();
        for r in first..self.rendering_text.len() {
            self.tokenized.distinct_tokens(r, &mut tokens);
            for &tok in &tokens {
                let tok = tok as usize;
                if tok >= self.postings.len() {
                    self.df.resize(self.df.len().max(tok + 1), 0);
                    self.postings.resize_with(tok + 1, Vec::new);
                }
                self.postings[tok].push(r as u32);
            }
        }
    }

    /// Set new row `n`'s cell from value `v`, of rendering `r`, and count
    /// it (buckets aside: they wait for the new scale). Weights are set
    /// afterwards.
    fn count(&mut self, col: &mut AttrColumn, n: usize, v: &Value, r: u32, touched: &mut Touched) {
        let num = v.as_f64();
        col.present[n] = r != NULL;
        col.has_num[n] = num.is_some();
        col.num[n] = num.unwrap_or(0.0);
        col.weight[n] = 0.0;
        col.near_weight[n] = 0.0;
        if r == NULL {
            col.text_id[n] = 0;
            return;
        }
        let t = self.rendering_text[r as usize];
        self.move_text(t, r, 1, touched);
        col.text_id[n] = t;
    }

    /// Count `by` (one row more or one fewer) the rows holding text `t`
    /// and the tokens of rendering `r`, noting each count as it was before.
    fn move_text(&mut self, t: u32, r: u32, by: isize, touched: &mut Touched) {
        let step = |count: &mut usize| {
            *count = count
                .checked_add_signed(by)
                .expect("a count of counted cells");
        };
        touched.texts.push((t, self.text_rows[t as usize]));
        step(&mut self.text_rows[t as usize]);
        let mut distinct = Vec::new();
        self.tokenized.distinct_tokens(r as usize, &mut distinct);
        for &tok in &distinct {
            touched.tokens.push((tok, self.df[tok as usize]));
            step(&mut self.df[tok as usize]);
        }
    }

    /// Carry column `col` (attribute `attr`, comparison scale `range`)
    /// across one delta, flagging every row whose cell it changed.
    fn patch(
        &mut self,
        col: &mut AttrColumn,
        range: &mut Option<f64>,
        delta: &AttrDelta<'_>,
        flags: &mut RowFlags,
    ) {
        let AttrDelta {
            attr,
            new,
            changes,
            pass,
            moved,
        } = *delta;
        let scale_before = *range;
        let docs_before = moved.non_null_before;
        let mut touched = Touched::default();

        // 1. Cells leaving: deleted rows, and the old side of updated cells.
        for &(o, r) in moved.left.iter().filter(|&&(_, r)| r != NULL) {
            self.uncount(col, o, r, scale_before, &mut touched);
        }
        let before: Vec<Cell> = moved.updated.iter().map(|&(o, _)| col.cell(o)).collect();

        // 2. Per-row arrays into the new row space.
        changes.remap(&mut col.present);
        changes.remap(&mut col.weight);
        changes.remap(&mut col.near_weight);
        changes.remap(&mut col.has_num);
        changes.remap(&mut col.num);
        changes.remap(&mut col.text_id);

        // 3. Cells arriving, at the renderings the pass gave them: the new
        //    side of updated cells, inserted rows.
        self.add_renderings(col, pass, true);
        self.rendering_weight.resize(pass.len(), 0.0);
        self.post_tokens(moved.first_new);
        let mut arriving = vec![false; new.len()];
        for &(n, r) in &moved.arrived {
            arriving[n] = true;
            flags.rerendered[n] = true;
            self.count(col, n, new.cell(n, attr), r, &mut touched);
        }

        // 4. The scale: today's row-order pass over the floats, whenever a
        //    cell of this attribute left or arrived.
        if !(moved.left.is_empty() && moved.arrived.is_empty()) {
            *range = comparison_scale(col);
        }
        let scale_moved = range.map(f64::to_bits) != scale_before.map(f64::to_bits);
        // A stepped document count or scale re-reads every weight.
        let all = scale_moved || quantize_count(docs_before) != quantize_count(pass.non_null);
        match *range {
            Some(scale) if !scale_moved => {
                for n in (0..arriving.len()).filter(|&n| arriving[n] && col.present[n]) {
                    let b = numeric_bucket(col.num[n], scale);
                    let rows = self.bucket_rows.entry(b).or_default();
                    touched.buckets.push((b, *rows));
                    *rows += 1;
                }
            }
            Some(scale) => {
                self.bucket_rows.clear();
                for i in (0..col.present.len()).filter(|&i| col.present[i]) {
                    *self
                        .bucket_rows
                        .entry(numeric_bucket(col.num[i], scale))
                        .or_default() += 1;
                }
            }
            None => self.bucket_rows.clear(),
        }

        // 5. Weights: every row whose weight reads a count that stepped
        //    (every row, under `all`), and every arriving row.
        let docs = pass.non_null;
        let set = |col: &mut AttrColumn, i: usize, weight: f64, near: f64, dirty: &mut [bool]| {
            if !arriving[i]
                && (weight.to_bits() != col.weight[i].to_bits()
                    || near.to_bits() != col.near_weight[i].to_bits())
            {
                dirty[i] = true;
            }
            col.weight[i] = weight;
            col.near_weight[i] = near;
        };
        match *range {
            None => {
                let stepped_tokens = if all {
                    Vec::new()
                } else {
                    stepped(touched.tokens, |t| self.df[t as usize])
                };
                let scan = all || !stepped_tokens.is_empty();
                let mut fresh = vec![all; pass.len()];
                for &t in &stepped_tokens {
                    for &r in &self.postings[t as usize] {
                        fresh[r as usize] = true;
                    }
                }
                for n in (0..arriving.len()).filter(|&n| arriving[n] && col.present[n]) {
                    fresh[pass.of_row[n] as usize] = true;
                }
                let df = &self.df;
                for r in (0..fresh.len()).filter(|&r| fresh[r] && pass.rows[r] > 0) {
                    self.rendering_weight[r] = self
                        .tokenized
                        .weight(r, |t| stable_soft_idf(docs, df[t as usize]));
                }
                for i in (0..arriving.len()).filter(|&i| scan || arriving[i]) {
                    let r = pass.of_row[i] as usize;
                    if col.present[i] && fresh[r] {
                        let w = self.rendering_weight[r];
                        set(col, i, w, w, &mut flags.dirty);
                    }
                }
            }
            Some(scale) => {
                let (stepped_texts, stepped_buckets) = if all {
                    (Vec::new(), Vec::new())
                } else {
                    (
                        stepped(touched.texts, |t| self.text_rows[t as usize]),
                        stepped(touched.buckets, |b| self.bucket_rows[&b]),
                    )
                };
                let scan = all || !stepped_texts.is_empty() || !stepped_buckets.is_empty();
                let mut text_stepped = vec![false; self.text_rows.len()];
                for &t in &stepped_texts {
                    text_stepped[t as usize] = true;
                }
                for i in (0..arriving.len()).filter(|&i| scan || arriving[i]) {
                    if !col.present[i] {
                        continue;
                    }
                    let fresh = all || arriving[i];
                    let text = col.text_id[i] as usize;
                    let weight = if fresh || text_stepped[text] {
                        stable_soft_idf(docs, self.text_rows[text]).max(MIN_WEIGHT)
                    } else {
                        col.weight[i]
                    };
                    let bucket = numeric_bucket(col.num[i], scale);
                    let near = if fresh || stepped_buckets.binary_search(&bucket).is_ok() {
                        stable_soft_idf(docs, self.bucket_rows[&bucket]).max(MIN_WEIGHT)
                    } else {
                        col.near_weight[i]
                    };
                    set(col, i, weight, near, &mut flags.dirty);
                }
            }
        }

        // 6. Updated cells are dirty where they differ from their old cell;
        //    inserted rows are dirty already. A moved scale re-reads every
        //    numeric comparison of the attribute.
        for (&(_, n), before) in moved.updated.iter().zip(&before) {
            if !col.cell(n).same_as(before) {
                flags.dirty[n] = true;
            }
        }
        if scale_moved {
            for i in 0..col.present.len() {
                if col.present[i] && col.has_num[i] {
                    flags.dirty[i] = true;
                }
            }
        }
    }
}

/// What [`TupleSimilarity::apply_delta`] changed.
#[derive(Debug)]
pub(crate) struct MeasureDelta {
    /// Per new row: some cell differs from the row's old cell.
    pub(crate) dirty: Vec<bool>,
    /// Rows with a compared cell rendered again (inserted or updated).
    pub(crate) rerendered: usize,
    /// Rows not rendered again whose cells moved all the same: a quantized
    /// count or a scale they read stepped.
    pub(crate) reweighted: usize,
}

/// A tuple-similarity scorer bound to one table — the one cell cache every
/// scoring path reads (see the module docs for the layout).
#[derive(Debug, Clone)]
pub struct TupleSimilarity {
    /// Indices of the attributes participating in comparison.
    attrs: Vec<usize>,
    /// One column per participating attribute.
    pub(crate) cols: Vec<AttrColumn>,
    /// Per participating attribute: the numeric comparison scale
    /// (`NUMERIC_SIGMA_SCALE · σ`, quantized by [`quantize_scale`]) when
    /// the attribute is fully numeric, else `None`.
    pub(crate) ranges: Vec<Option<f64>>,
    row_count: usize,
}

impl TupleSimilarity {
    /// Build the scorer for `table`, comparing only `attrs` (column
    /// indices) — typically the output of the attribute-selection
    /// heuristics.
    pub fn new(table: &Table, attrs: Vec<usize>) -> Self {
        let renderings = Renderings::new(table);
        TupleSimilarity::build(table, attrs, |a| renderings.column(a), false).0
    }

    /// [`TupleSimilarity::new`] with every attribute's column built from
    /// its interning pass, `pass(attr)` (shared with attribute selection
    /// and blocking); with `keep`, also the counts behind every weight, so
    /// [`TupleSimilarity::apply_delta`] can carry the measure across
    /// deltas.
    pub(crate) fn build<'p>(
        table: &Table,
        attrs: Vec<usize>,
        pass: impl Fn(usize) -> &'p ColumnRenderings,
        keep: bool,
    ) -> (Self, Vec<ColumnCounts>) {
        let mut measure = TupleSimilarity {
            attrs,
            cols: Vec::new(),
            ranges: Vec::new(),
            row_count: table.len(),
        };
        let mut counts = Vec::new();
        for &a in &measure.attrs {
            let (col, range, kept) = build_column(table, a, pass(a), keep);
            measure.cols.push(col);
            measure.ranges.push(range);
            counts.extend(kept);
        }
        (measure, counts)
    }

    /// Carry a measure built over the old table (with its `counts`) across
    /// a delta to `new`: its attributes' `passes` have moved already
    /// (`moved` says how, per column); move the counts of the cells that
    /// left and arrived, re-run each moved attribute's σ pass, and re-weigh
    /// exactly the rows that read a count whose quantized value stepped.
    /// Afterwards every row's cells and every scale equal, bit for bit,
    /// those of [`TupleSimilarity::new`] over `new`; only text ids differ,
    /// which nothing but equality reads.
    ///
    /// Returns, per new row, whether any of its cells differs from its old
    /// cell — exactly the rows a [`TupleSimilarity::row_cells_identical`]
    /// scan of two from-scratch builds would report, plus inserted rows and
    /// the numeric cells of an attribute whose scale moved.
    pub(crate) fn apply_delta(
        &mut self,
        counts: &mut [ColumnCounts],
        passes: &Passes,
        moved: &[Option<PassDelta>],
        new: &Table,
        changes: &RowChanges<'_>,
    ) -> MeasureDelta {
        let mut flags = RowFlags {
            dirty: vec![false; new.len()],
            rerendered: vec![false; new.len()],
        };
        for &n in &changes.inserted {
            flags.dirty[n] = true;
        }
        for (k, counts) in counts.iter_mut().enumerate() {
            let attr = self.attrs[k];
            let delta = AttrDelta {
                attr,
                new,
                changes,
                pass: passes.column(attr),
                moved: moved[attr].as_ref().expect("a kept column moved"),
            };
            counts.patch(&mut self.cols[k], &mut self.ranges[k], &delta, &mut flags);
        }
        self.row_count = new.len();
        let rerendered = flags.rerendered.iter().filter(|r| **r).count();
        let reweighted = (0..new.len())
            .filter(|&i| flags.dirty[i] && !flags.rerendered[i])
            .count();
        MeasureDelta {
            dirty: flags.dirty,
            rerendered,
            reweighted,
        }
    }

    /// The participating attribute indices.
    pub fn attrs(&self) -> &[usize] {
        &self.attrs
    }

    /// `Σ w·s` and `Σ w` over the attributes rows `i` and `j` match on, in
    /// attribute order; `text_similarity` scores two distinct texts of a
    /// column. Numeric comparisons are exact and cheap, so the measure and
    /// its bound share them.
    fn evidence(
        &self,
        i: usize,
        j: usize,
        mut text_similarity: impl FnMut(&AttrColumn, u32, u32) -> f64,
    ) -> (f64, f64) {
        let (mut num, mut den) = (0.0, 0.0);
        for (col, range) in self.cols.iter().zip(&self.ranges) {
            if !col.matched(i, j) {
                continue; // missing data: no influence
            }
            let w = col.pair_weight(i, j);
            let s = if col.numeric(i, j) {
                numeric_field_similarity(col.num[i], col.num[j], *range)
            } else {
                text_similarity(col, col.text_id[i], col.text_id[j])
            };
            num += w * s;
            den += w;
        }
        (num, den)
    }

    /// Similarity of rows `i` and `j` of the bound table, in `[0, 1]`.
    /// Pairs with no matched attribute score 0. The `table` parameter is
    /// kept for API symmetry; all data comes from the caches.
    ///
    /// This is the row-at-a-time reference: one pair, every attribute in
    /// order, no shortcut. The block kernel in [`crate::columnar`] must
    /// reproduce its result bit for bit.
    pub fn similarity(&self, _table: &Table, i: usize, j: usize) -> f64 {
        let mut scratch = EditScratch::new();
        let (num, den) = self.evidence(i, j, |col, a, b| {
            levenshtein_similarity_chars(col.text(a), col.text(b), &mut scratch)
        });
        if den == 0.0 {
            0.0
        } else {
            (num / (den + EVIDENCE_PRIOR)).clamp(0.0, 1.0)
        }
    }

    /// Admissible upper bound on [`TupleSimilarity::similarity`]: the same
    /// sum with every text comparison replaced by its `O(1)` bound (no
    /// edit distance; numeric comparisons are already exact). Every term is
    /// `≥` its exact counterpart and rounded `+ × ÷` are monotone, so
    /// `upper_bound ≥ similarity` holds with no epsilon — the filter is
    /// lossless.
    pub fn upper_bound(&self, _table: &Table, i: usize, j: usize) -> f64 {
        let (num, den) = self.evidence(i, j, AttrColumn::text_similarity_bound);
        if den == 0.0 {
            0.0
        } else {
            (num / (den + EVIDENCE_PRIOR)).min(1.0)
        }
    }

    /// Number of rows the scorer is bound to.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// The per-attribute comparison scales as exact bit patterns (`None`
    /// for text/mixed attributes). Two scorers with equal range bits and
    /// bit-identical cells produce bit-identical similarities.
    pub fn range_bits(&self) -> Vec<Option<u64>> {
        self.ranges.iter().map(|r| r.map(f64::to_bits)).collect()
    }

    /// Whether the cell of row `i`, participating attribute `k` is non-null
    /// and carries a numeric view (the only cells whose comparison reads
    /// the attribute's range).
    pub fn cell_is_numeric(&self, i: usize, k: usize) -> bool {
        self.cols[k].present[i] && self.cols[k].has_num[i]
    }

    /// Bit-exact equality of one row's cell caches against a row of another
    /// scorer (same participating-attribute count required).
    ///
    /// This is the carry-over test of the incremental detector: a pair of
    /// rows whose cells are bit-identical under the old and new scorer —
    /// and whose attribute ranges are bit-identical — scores bit-identically,
    /// because [`TupleSimilarity::similarity`] reads nothing else. Text
    /// compares by content (ids are private to a scorer); length and
    /// histogram are functions of it.
    pub fn row_cells_identical(&self, i: usize, other: &TupleSimilarity, j: usize) -> bool {
        debug_assert_eq!(self.attrs.len(), other.attrs.len());
        self.cols.iter().zip(&other.cols).all(|(a, b)| {
            if !(a.present[i] && b.present[j]) {
                return a.present[i] == b.present[j];
            }
            a.weight[i].to_bits() == b.weight[j].to_bits()
                && a.near_weight[i].to_bits() == b.near_weight[j].to_bits()
                && a.has_num[i] == b.has_num[j]
                && a.num[i].to_bits() == b.num[j].to_bits()
                && a.text(a.text_id[i]) == b.text(b.text_id[j])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hummer_engine::table;

    fn t() -> Table {
        table! {
            "People" => ["Name", "City", "Age"];
            ["John Smith", "Berlin", 34],      // 0
            ["John Smith", "Berlin", 34],      // 1: exact dup of 0
            ["Jon Smith", "Berlin", 34],       // 2: typo dup of 0
            ["John Smith", (), 34],            // 3: missing city
            ["John Smith", "Munich", 34],      // 4: contradicting city
            ["Mary Jones", "Hamburg", 28],     // 5: different person
        }
    }

    fn scorer(table: &Table) -> TupleSimilarity {
        TupleSimilarity::new(table, vec![0, 1, 2])
    }

    #[test]
    fn identical_tuples_score_near_one() {
        // The evidence prior caps even identical tuples at Σw / (Σw + λ);
        // with three matched attributes that cap is high.
        let t = t();
        let s = scorer(&t);
        let sim = s.similarity(&t, 0, 1);
        assert!(sim > 0.8, "{sim}");
        // And nothing scores higher than an identical pair.
        for i in 0..t.len() {
            for j in (i + 1)..t.len() {
                assert!(s.similarity(&t, i, j) <= sim + 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn typo_scores_high_but_below_identical() {
        let t = t();
        let s = scorer(&t);
        let v = s.similarity(&t, 0, 2);
        let identical = s.similarity(&t, 0, 1);
        assert!(v > 0.75, "{v}");
        assert!(v < identical, "typo {v} vs identical {identical}");
    }

    #[test]
    fn missing_beats_contradiction() {
        // The paper's key semantic: "contradictory data reduces similarity
        // whereas missing data has no influence".
        let t = t();
        let s = scorer(&t);
        let with_null = s.similarity(&t, 0, 3);
        let with_contradiction = s.similarity(&t, 0, 4);
        assert!(
            with_null > with_contradiction,
            "null {with_null} vs contradiction {with_contradiction}"
        );
        // Missing has no influence beyond shrinking the evidence mass: the
        // null-city pair scores like an identical pair over the remaining
        // two attributes.
        let two_attr_identical = {
            let narrow = TupleSimilarity::new(&t, vec![0, 2]);
            narrow.similarity(&t, 0, 1)
        };
        assert!(
            (with_null - two_attr_identical).abs() < 0.15,
            "{with_null} vs {two_attr_identical}"
        );
    }

    #[test]
    fn different_entities_score_low() {
        let t = t();
        let s = scorer(&t);
        assert!(s.similarity(&t, 0, 5) < 0.5);
    }

    #[test]
    fn symmetry() {
        let t = t();
        let s = scorer(&t);
        for i in 0..t.len() {
            for j in 0..t.len() {
                assert!((s.similarity(&t, i, j) - s.similarity(&t, j, i)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn upper_bound_is_admissible() {
        let t = t();
        let s = scorer(&t);
        for i in 0..t.len() {
            for j in 0..t.len() {
                assert!(
                    s.upper_bound(&t, i, j) >= s.similarity(&t, i, j),
                    "bound violated for ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn no_matched_attributes_scores_zero() {
        let t = table! {
            "T" => ["a", "b"];
            [1, ()],
            [(), 2],
        };
        let s = TupleSimilarity::new(&t, vec![0, 1]);
        assert_eq!(s.similarity(&t, 0, 1), 0.0);
    }

    #[test]
    fn rare_value_agreement_outweighs_common_value_agreement() {
        // Two pairs: one agrees on a rare city, one on a ubiquitous city,
        // both disagree on the name.
        let t = table! {
            "T" => ["Name", "City"];
            ["aaaa", "Wittenberge"],   // 0 rare city
            ["bbbb", "Wittenberge"],   // 1
            ["cccc", "Berlin"],        // 2 common city
            ["dddd", "Berlin"],        // 3
            ["eeee", "Berlin"],
            ["ffff", "Berlin"],
            ["gggg", "Berlin"],
        };
        let s = TupleSimilarity::new(&t, vec![0, 1]);
        let rare = s.similarity(&t, 0, 1);
        let common = s.similarity(&t, 2, 3);
        assert!(rare > common, "rare {rare} vs common {common}");
    }

    #[test]
    fn numeric_fields_use_relative_distance_without_range() {
        let a = Value::Int(100);
        let b = Value::Int(99);
        let c = Value::Int(50);
        assert!(field_similarity(&a, &b) > 0.9);
        assert!(field_similarity(&a, &c) <= 0.5);
    }

    #[test]
    fn sigma_scaling_separates_large_magnitude_values() {
        // Years 1975 vs 1990: ~99% similar under relative distance, but
        // clearly different within a catalog whose 2σ is ~26 years.
        let a = Value::Int(1975);
        let b = Value::Int(1990);
        let rel = field_similarity_with_range(&a, &b, None);
        let scaled = field_similarity_with_range(&a, &b, Some(26.0));
        assert!(rel > 0.99, "relative distance is blind here: {rel}");
        assert!(scaled < 0.5, "sigma scaling separates: {scaled}");
        // While true-duplicate noise (±1 year) stays similar.
        let close = field_similarity_with_range(&a, &Value::Int(1976), Some(26.0));
        assert!(close > 0.9, "{close}");
    }

    #[test]
    fn measure_uses_ranges_for_date_columns() {
        // Two people sharing a status and close dates must not be fused
        // just because date *ordinals* are huge numbers. A realistic-size
        // roster keeps the small-sample scale inflation modest.
        let mut rows: Vec<hummer_engine::Row> = (0..16)
            .map(|i| {
                hummer_engine::Row::from_values(vec![
                    Value::text(format!("Filler Person{i}")),
                    Value::Date(hummer_engine::Date::new(2004, 12, 1 + (i % 28) as u8).unwrap()),
                ])
            })
            .collect();
        rows.insert(
            0,
            hummer_engine::Row::from_values(vec![
                Value::text("Aisha Koch"),
                Value::Date(hummer_engine::Date::new(2004, 12, 5).unwrap()),
            ]),
        );
        rows.insert(
            1,
            hummer_engine::Row::from_values(vec![
                Value::text("Ravi Wolf"),
                Value::Date(hummer_engine::Date::new(2004, 12, 8).unwrap()),
            ]),
        );
        rows.insert(
            2,
            hummer_engine::Row::from_values(vec![
                Value::text("Aisha Koch"),
                Value::Date(hummer_engine::Date::new(2004, 12, 6).unwrap()),
            ]),
        );
        let t = Table::from_rows("T", &["Name", "Seen"], rows).unwrap();
        let s = TupleSimilarity::new(&t, vec![0, 1]);
        let different_people = s.similarity(&t, 0, 1);
        let same_person = s.similarity(&t, 0, 2);
        assert!(different_people < 0.6, "{different_people}");
        assert!(same_person > 0.7, "{same_person}");
        assert!(same_person > different_people + 0.2);
    }

    #[test]
    fn quantized_counts_are_stable_step_functions() {
        // Exact below 64.
        for c in 0..64 {
            assert_eq!(quantize_count(c), c);
        }
        // Monotone, never above the input, relative error < 1/32.
        let mut prev = 0;
        for c in 64..5000 {
            let q = quantize_count(c);
            assert!(q <= c);
            assert!(q >= prev);
            assert!((c - q) as f64 / (c as f64) < 1.0 / 32.0, "{c} -> {q}");
            prev = q;
        }
        // Step function: long runs of identical output (step 16 at ~1000).
        assert_eq!(quantize_count(1000), quantize_count(1007));
    }

    #[test]
    fn quantized_scale_geometric_grid() {
        for s in [0.5, 1.0, 7.3, 26.0, 1e6] {
            let q = quantize_scale(s);
            assert!(q <= s && q > s * 0.979, "{s} -> {q}");
            // Nearby values share a grid point (stability window).
            assert_eq!(q.to_bits(), quantize_scale(q * 1.0001).to_bits());
        }
        assert_eq!(quantize_scale(0.0), 0.0);
        assert!(quantize_scale(f64::INFINITY).is_infinite());
    }

    #[test]
    fn row_cells_identical_detects_changes() {
        let t1 = t();
        let mut rows: Vec<hummer_engine::Row> = t1.rows().to_vec();
        rows[4] = hummer_engine::Row::from_values(vec![
            Value::text("John Smith"),
            Value::text("Potsdam"), // changed city
            Value::Int(34),
        ]);
        let t2 = Table::from_rows("People", &["Name", "City", "Age"], rows).unwrap();
        let a = scorer(&t1);
        let b = scorer(&t2);
        // Untouched rows keep bit-identical cells (quantized stats absorb
        // the tiny df drift of the changed city value).
        assert!(a.row_cells_identical(0, &b, 0));
        assert!(!a.row_cells_identical(4, &b, 4));
        assert_eq!(a.range_bits(), b.range_bits());
    }

    /// The measure as it was computed per row before the columns existed:
    /// a `String`-keyed corpus per attribute, every cell rendered,
    /// lower-cased, tokenized and weighed on its own. The columns must hold
    /// exactly these floats and this text.
    mod reference {
        use super::super::*;
        use hummer_textsim::tfidf::Corpus;
        use hummer_textsim::tokenize::word_tokens;

        pub struct CellData {
            pub weight: f64,
            pub near_weight: f64,
            pub num: Option<f64>,
            pub text: String,
            pub len: usize,
            /// Char counts, each stopping at 255: a–z, `0`–`9` one by one,
            /// then the rest.
            pub hist: [usize; 37],
        }

        fn histogram(text: &str) -> [usize; 37] {
            let mut counts = [0usize; 37];
            for c in text.chars() {
                let bucket = if c.is_ascii_lowercase() {
                    c as usize - 'a' as usize
                } else if let Some(d) = c.to_digit(10).filter(|_| c.is_ascii_digit()) {
                    26 + d as usize
                } else {
                    36
                };
                counts[bucket] = (counts[bucket] + 1).min(255);
            }
            counts
        }

        fn stable_soft_idf(corpus: &Corpus, token: &str) -> f64 {
            let n = quantize_count(corpus.doc_count());
            if n == 0 {
                return 1.0;
            }
            let df = quantize_count(corpus.df(token));
            let idf = (1.0 + n as f64 / (df as f64 + 1.0)).ln();
            (idf / (1.0 + n as f64).ln()).min(1.0)
        }

        fn numeric_bucket_token(x: f64, scale: f64) -> String {
            let width = (scale / (2.0 * NUMERIC_SIGMA_SCALE)).max(f64::MIN_POSITIVE);
            format!("b{:.0}", (x / width).floor())
        }

        fn value_weight(corpus: &Corpus, v: &Value) -> f64 {
            let tokens = word_tokens(&v.to_string());
            if tokens.is_empty() {
                return 0.05;
            }
            let sum: f64 = tokens.iter().map(|t| stable_soft_idf(corpus, t)).sum();
            (sum / tokens.len() as f64).max(0.05)
        }

        pub type Cells = Vec<Vec<Option<CellData>>>;

        pub fn build(table: &Table, attrs: &[usize]) -> (Cells, Vec<Option<f64>>) {
            let ranges: Vec<Option<f64>> = attrs
                .iter()
                .map(|&a| {
                    let mut xs: Vec<f64> = Vec::new();
                    for v in table.column_values(a) {
                        if v.is_null() {
                            continue;
                        }
                        match v.as_f64() {
                            Some(x) => xs.push(x),
                            None => return None,
                        }
                    }
                    if xs.len() < 2 {
                        return None;
                    }
                    let n = xs.len() as f64;
                    let mean = xs.iter().sum::<f64>() / n;
                    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
                    let sigma = var.sqrt();
                    let inflation = 1.0 + SIGMA_SMALL_SAMPLE_INFLATION / n;
                    (sigma > 0.0).then(|| quantize_scale(NUMERIC_SIGMA_SCALE * sigma * inflation))
                })
                .collect();
            let mut corpora = Vec::new();
            let mut exact_corpora: Vec<Option<Corpus>> = Vec::new();
            for (&a, range) in attrs.iter().zip(&ranges) {
                let docs: Vec<Vec<String>> = table
                    .column_values(a)
                    .filter(|v| !v.is_null())
                    .map(|v| match (range, v.as_f64()) {
                        (Some(scale), Some(x)) => vec![numeric_bucket_token(x, *scale)],
                        _ => word_tokens(&v.to_string()),
                    })
                    .collect();
                corpora.push(Corpus::from_documents(docs));
                exact_corpora.push(range.map(|_| {
                    Corpus::from_documents(
                        table
                            .column_values(a)
                            .filter(|v| !v.is_null())
                            .map(|v| vec![v.to_string().to_lowercase()]),
                    )
                }));
            }
            let cells = table
                .rows()
                .iter()
                .map(|row| {
                    attrs
                        .iter()
                        .enumerate()
                        .map(|(k, &a)| {
                            let v = &row[a];
                            if v.is_null() {
                                return None;
                            }
                            let text = v.to_string().to_lowercase();
                            let (weight, near_weight) = match (ranges[k], v.as_f64()) {
                                (Some(scale), Some(x)) => (
                                    stable_soft_idf(exact_corpora[k].as_ref().unwrap(), &text)
                                        .max(0.05),
                                    stable_soft_idf(&corpora[k], &numeric_bucket_token(x, scale))
                                        .max(0.05),
                                ),
                                _ => {
                                    let w = value_weight(&corpora[k], v);
                                    (w, w)
                                }
                            };
                            Some(CellData {
                                weight,
                                near_weight,
                                num: v.as_f64(),
                                len: text.chars().count(),
                                hist: histogram(&text),
                                text,
                            })
                        })
                        .collect()
                })
                .collect();
            (cells, ranges)
        }

        pub fn similarity(cells: &Cells, ranges: &[Option<f64>], i: usize, j: usize) -> f64 {
            let mut num = 0.0;
            let mut den = 0.0;
            for (k, range) in ranges.iter().enumerate() {
                let (u, v) = match (&cells[i][k], &cells[j][k]) {
                    (Some(u), Some(v)) => (u, v),
                    _ => continue,
                };
                let (w, s) = match (u.num, v.num) {
                    (Some(x), Some(y)) => {
                        let w = if x == y {
                            (u.weight + v.weight) / 2.0
                        } else {
                            (u.near_weight + v.near_weight) / 2.0
                        };
                        (w, numeric_field_similarity(x, y, *range))
                    }
                    _ => (
                        (u.weight + v.weight) / 2.0,
                        levenshtein_similarity(&u.text, &v.text),
                    ),
                };
                num += w * s;
                den += w;
            }
            if den == 0.0 {
                0.0
            } else {
                (num / (den + EVIDENCE_PRIOR)).clamp(0.0, 1.0)
            }
        }

        pub fn upper_bound(cells: &Cells, ranges: &[Option<f64>], i: usize, j: usize) -> f64 {
            let mut num = 0.0;
            let mut den = 0.0;
            for (k, range) in ranges.iter().enumerate() {
                let (u, v) = match (&cells[i][k], &cells[j][k]) {
                    (Some(u), Some(v)) => (u, v),
                    _ => continue,
                };
                let w = match (u.num, v.num) {
                    (Some(x), Some(y)) if x != y => (u.near_weight + v.near_weight) / 2.0,
                    _ => (u.weight + v.weight) / 2.0,
                };
                let s = match (u.num, v.num) {
                    (Some(x), Some(y)) => numeric_field_similarity(x, y, *range),
                    _ => {
                        let max = u.len.max(v.len);
                        if max == 0 {
                            1.0
                        } else {
                            let l1: usize = (0..37).map(|k| u.hist[k].abs_diff(v.hist[k])).sum();
                            let dist_lb = (l1 + u.len.abs_diff(v.len)) / 2;
                            1.0 - dist_lb as f64 / max as f64
                        }
                    }
                };
                num += w * s;
                den += w;
            }
            if den == 0.0 {
                0.0
            } else {
                (num / (den + EVIDENCE_PRIOR)).min(1.0)
            }
        }
    }

    /// Every cached float and text of the columns equals the per-row
    /// reference, bit for bit, and so do the two scores built on them.
    fn assert_equals_reference(name: &str, table: &Table, attrs: Vec<usize>) {
        let (cells, ranges) = reference::build(table, &attrs);
        let measure = TupleSimilarity::new(table, attrs);
        assert_eq!(
            measure.range_bits(),
            ranges
                .iter()
                .map(|r| r.map(f64::to_bits))
                .collect::<Vec<_>>(),
            "{name}: ranges"
        );
        for (i, row) in cells.iter().enumerate() {
            for (k, cell) in row.iter().enumerate() {
                let col = &measure.cols[k];
                let at = format!("{name}: row {i} attr {k}");
                assert_eq!(col.present[i], cell.is_some(), "{at}");
                let Some(cell) = cell else { continue };
                assert_eq!(col.weight[i].to_bits(), cell.weight.to_bits(), "{at}");
                assert_eq!(
                    col.near_weight[i].to_bits(),
                    cell.near_weight.to_bits(),
                    "{at}"
                );
                assert_eq!(col.has_num[i], cell.num.is_some(), "{at}");
                if let Some(x) = cell.num {
                    assert_eq!(col.num[i].to_bits(), x.to_bits(), "{at}");
                }
                let text = col.text(col.text_id[i]);
                assert_eq!(text, cell.text.chars().collect::<Vec<_>>(), "{at}");
                assert_eq!(text.len(), cell.len, "{at}");
                let shape = &col.shapes[col.text_id[i] as usize];
                assert_eq!(shape.len as usize, cell.len, "{at}");
                let (counts, pad) = shape.hist.as_flattened().split_at(37);
                assert!(counts.iter().map(|&n| n as usize).eq(cell.hist), "{at}");
                assert!(pad.iter().all(|&n| n == 0), "{at}");
            }
        }
        // A band of pairs around the diagonal plus a stride across the table.
        let n = table.len();
        for i in 0..n {
            for j in (i + 1..n.min(i + 12)).chain((i + 12..n).step_by(37)) {
                assert_eq!(
                    measure.similarity(table, i, j).to_bits(),
                    reference::similarity(&cells, &ranges, i, j).to_bits(),
                    "{name}: similarity({i}, {j})"
                );
                assert_eq!(
                    measure.upper_bound(table, i, j).to_bits(),
                    reference::upper_bound(&cells, &ranges, i, j).to_bits(),
                    "{name}: upper_bound({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn columns_equal_the_per_row_reference_on_the_scenario_worlds() {
        for (name, table) in crate::testworlds::worlds() {
            // Every column but the bookkeeping one: text, numeric, dates.
            let all: Vec<usize> = (0..table.schema().len() - 1).collect();
            assert_equals_reference(name, &table, all);
            let selected = crate::select_attributes(&table);
            assert_equals_reference(name, &table, selected);
        }
    }

    /// Phones of one format, which only per-digit buckets tell apart, and
    /// runs of 255 or more chars in one bucket, whose lanes saturate.
    #[test]
    fn columns_equal_the_per_row_reference_on_phones_and_long_runs() {
        let cells = [
            "+49-301-23456".to_string(),
            "+49-654-32103".to_string(),
            "+49-999-00000".to_string(),
            "a".repeat(300),
            "b".repeat(300),
            "a".repeat(256),
            "a".repeat(255),
            "a".repeat(254) + "b",
            " ".repeat(260) + "x",
            "9".repeat(270),
            String::new(),
        ];
        let rows = cells
            .iter()
            .map(|c| hummer_engine::Row::from_values(vec![c.as_str().into()]))
            .collect();
        let table = Table::from_rows("Long", &["Text"], rows).unwrap();
        assert_equals_reference("phones and long runs", &table, vec![0]);
    }

    #[test]
    fn columns_equal_the_per_row_reference_on_awkward_cells() {
        let table = crate::testworlds::awkward();
        assert_equals_reference("awkward", &table, vec![0, 1, 2, 3]);
        assert_equals_reference("awkward", &table, vec![2]);
        // Renderings that differ only in case share one text.
        let measure = TupleSimilarity::new(&table, vec![1]);
        let place = &measure.cols[0];
        assert_eq!(place.text_id[9], place.text_id[10]);
        assert_eq!(place.text_id[8], place.text_id[9]);
    }
}
