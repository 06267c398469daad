//! Block-wise pair scoring: the vectorized, *staged* twin of
//! [`TupleSimilarity::similarity`] / [`TupleSimilarity::upper_bound`], and
//! the detector's one scorer.
//!
//! ## Layout
//!
//! There is one cell cache, the per-attribute columns [`TupleSimilarity`]
//! builds (presence, weights, numeric view, and a `u32` id into the
//! attribute's pooled distinct texts). [`score_candidates`] sweeps blocks
//! of [`PAIR_BLOCK`] candidates attribute by attribute over those arrays;
//! nothing is copied or transposed.
//!
//! ## The staged bound
//!
//! A pair's similarity is `Σ_k w_k·s_k / (Σ_k w_k + λ)` over its matched
//! attributes `k`, in attribute order. The kernel keeps the terms
//! `w_k·s_k` of a block in a pair × attribute matrix and fills it in
//! stages:
//!
//! 1. *Filter sweep.* Weights and numeric similarities are exact from the
//!    start; a text term starts as the `O(1)` optimistic `w_k·ŝ_k`
//!    (`ŝ_k ≥ s_k`, from the histogram bound below). The in-order sum of
//!    a pair's row is exactly [`TupleSimilarity::upper_bound`]; pairs
//!    whose bound is below `unsure_threshold` are `filtered_out`, the rest
//!    are `compared`.
//! 2. *Resolution.* Text attributes are resolved one at a time, the one
//!    carrying the most optimistic mass `Σ w_k·ŝ_k` over the block's live,
//!    unresolved pairs first (ties by attribute index) — data decides the
//!    order, no knob. Resolving runs the edit distance (batched per run
//!    of pairs sharing their left text, as candidates arrive grouped by
//!    left row), overwrites the term with `w_k·s_k`, re-sums the pair's
//!    row **in attribute order**, and drops the pair as soon as that
//!    tighter bound falls below `unsure_threshold` (`cut_short`).
//! 3. *Classification.* A pair that survives has every term exact; its
//!    similarity is the in-order sum of its row.
//!
//! The text bound. Every distinct text keeps a histogram of its chars over
//! 37 buckets — `a`–`z`, each digit `0`–`9` on its own, everything else —
//! and its length. Let `L1` be the histograms' L1 distance and `Δ` the
//! length gap of texts `x` and `y`. The bound on their edit distance is
//! `dist_lb = (L1 + |Δ|) / 2`, and `ŝ = 1 − dist_lb / max(|x|, |y|)`:
//!
//! * Let `excess_x` be `Σ_b max(0, x_b − y_b)` over the buckets `b`, the
//!   chars `x` has that `y` lacks, and `excess_y` likewise. An insert,
//!   delete or substitute in `x` changes one or two of its buckets by one
//!   and lowers each excess by at most 1. Editing `x` into `y` must bring
//!   both excesses to 0, so `dist ≥ max(excess_x, excess_y)`.
//! * Every char lands in some bucket, so `excess_x + excess_y = L1` and
//!   `excess_x − excess_y = |x| − |y|`; hence
//!   `max(excess_x, excess_y) = (L1 + |Δ|) / 2`, an integer.
//! * With exact counts it is never looser than the two classic bounds,
//!   `|Δ|` and `L1 / 2`, because `L1 ≥ |Δ|`. It is the count filter of approximate string
//!   joins (Gravano et al., VLDB 2001) over single chars.
//! * Digits get a bucket each because the attributes a detector selects
//!   are often phone numbers or codes of one format: with one bucket for
//!   all ten digits, any two such values have `L1 = Δ = 0` and bound 1.0.
//! * Counts are stored as `u8` in three 16-byte lanes, so `L1` is three
//!   byte-wise absolute-difference sums. A count saturates at 255, which
//!   keeps the bound admissible (`|min(p, 255) − min(q, 255)| ≤ |p − q|`,
//!   so the saturated `L1` is at most the true one); only a text with 255
//!   or more of one char may bound looser than with exact counts.
//!
//! Why no answer moves — the bound is admissible *in floating point*:
//!
//! * each optimistic term is `≥` its exact term (integer `dist_lb ≤ dist`,
//!   then monotone `÷`, `−`, `×` by a non-negative weight);
//! * IEEE `+` and `÷` round monotonically, so an in-order sum of terms that
//!   are each `≥` is `≥`, and so is its quotient by the same denominator;
//! * hence every staged bound is `≥` the final similarity, bit for bit: a
//!   dropped pair would have scored below `unsure_threshold` and was never
//!   going to be emitted, and a surviving pair's similarity is the same
//!   additions of the same terms [`TupleSimilarity::similarity`] performs.
//!
//! So `pairs`, `unsure` (rows and similarity bits), `filtered_out` and
//! `compared` equal those of the per-pair reference — the filter, then the
//! full measure, one candidate at a time; only the work counters
//! `cut_short` and `edit_evals` are the kernel's own. With `use_filter`
//! off nothing is bounded or dropped. Equal text ids short-cut to the
//! literal `1.0` that `levenshtein_similarity(x, x)` computes. There is no
//! pair memo: with a bit-parallel edit distance a hash lookup costs about
//! what the call does (`memo_hits` is kept at 0: the `detect` span and
//! hbench still read the field).
//!
//! The batched edit distance (`levenshtein_similarity_chars_many`) still
//! earns its place with the tighter filter. Take the all-pairs candidates
//! of six 2 × 700-row `person_scale` worlds (seeds 11–16, 979,300 each, of
//! which the filter leaves ≈ 21k to the edit distance). Scoring them (one
//! thread, best of 20 per world, summed; six rounds with both kernels in
//! one process, their calls interleaved, on a 2-core Xeon) took 270 ms
//! (median; 244–310) batched against 285 ms (265–338) with one
//! `levenshtein_similarity_chars` call per pair: −5 %, and batched was
//! faster in all six rounds, with identical pairs, unsure pairs and
//! counters.
//!
//! The unit tests here hold the per-pair reference as their oracle and
//! compare the kernel against it, bit for bit, at degrees 1–4.

use crate::detector::{DetectorConfig, DuplicatePair, ScoredCandidates};
use crate::measure::{numeric_field_similarity, TupleSimilarity, EVIDENCE_PRIOR};
use hummer_engine::Table;
use hummer_par::{par_chunks, Parallelism};
use hummer_textsim::edit::{levenshtein_similarity_chars_many, EditScratch};

/// Candidate pairs per scoring block — the unit the `detect` span's
/// `columnar_blocks` counter reports. The block's term matrix stays
/// cache-resident while the attribute sweeps run over it.
pub const PAIR_BLOCK: usize = 512;

/// Per-worker scratch for the block kernel.
#[derive(Default)]
struct KernelScratch {
    /// Pair-major term matrix: `terms[p * attrs + k]` is pair `p`'s
    /// `w_k·s_k` (optimistic while `open`, `0.0` where unmatched — adding
    /// it changes no bit of a non-negative sum).
    terms: Vec<f64>,
    /// Same shape: the term is still the optimistic bound.
    open: Vec<bool>,
    /// Per pair: `Σ_k w_k`, exact after the filter sweep.
    den: Vec<f64>,
    /// Per pair: open terms left.
    pending: Vec<u32>,
    alive: Vec<bool>,
    /// Resolution order: `(optimistic mass, attribute)`.
    order: Vec<(f64, usize)>,
    /// The attribute being resolved: `(pair, left text, right text)` of
    /// every live pair with that term open, and the similarities of a run.
    work: Vec<(usize, u32, u32)>,
    similarities: Vec<f64>,
    edit: EditScratch,
}

/// The in-order sum of one pair's term row over its evidence mass: the
/// pair's current upper bound, and its similarity once no term is open.
fn row_quotient(terms: &[f64], den: f64) -> f64 {
    if den == 0.0 {
        return 0.0;
    }
    terms.iter().fold(0.0, |num, t| num + t) / (den + EVIDENCE_PRIOR)
}

/// Score one block of candidate pairs in stages (see the module docs),
/// appending to `out` in candidate order.
fn score_block(
    measure: &TupleSimilarity,
    cfg: &DetectorConfig,
    block: &[(usize, usize)],
    scratch: &mut KernelScratch,
    out: &mut ScoredCandidates,
) {
    let n = block.len();
    let attrs = measure.cols.len();
    let KernelScratch {
        terms,
        open,
        den,
        pending,
        alive,
        order,
        work,
        similarities,
        edit,
    } = scratch;
    terms.clear();
    terms.resize(n * attrs, 0.0);
    open.clear();
    open.resize(n * attrs, false);
    den.clear();
    den.resize(n, 0.0);
    pending.clear();
    pending.resize(n, 0);
    alive.clear();
    alive.resize(n, true);

    // Stage 1 — exact weights and numeric terms, optimistic text terms.
    for (k, (col, range)) in measure.cols.iter().zip(&measure.ranges).enumerate() {
        for (p, &(i, j)) in block.iter().enumerate() {
            if !col.matched(i, j) {
                continue;
            }
            let w = col.pair_weight(i, j);
            let s = if col.numeric(i, j) {
                numeric_field_similarity(col.num[i], col.num[j], *range)
            } else {
                let (a, b) = (col.text_id[i], col.text_id[j]);
                if a == b {
                    1.0
                } else {
                    open[p * attrs + k] = true;
                    pending[p] += 1;
                    if cfg.use_filter {
                        col.text_similarity_bound(a, b)
                    } else {
                        1.0
                    }
                }
            };
            terms[p * attrs + k] = w * s;
            den[p] += w;
        }
    }
    let bound = |terms: &[f64], den: &[f64], p: usize| {
        row_quotient(&terms[p * attrs..(p + 1) * attrs], den[p]).min(1.0)
    };
    if cfg.use_filter {
        for (p, live) in alive.iter_mut().enumerate() {
            if bound(terms, den, p) < cfg.unsure_threshold {
                *live = false;
                out.filtered_out += 1;
            } else {
                out.compared += 1;
            }
        }
    } else {
        out.compared += n;
    }

    // Stage 2 — resolve text attributes, loosest first.
    order.clear();
    for k in 0..attrs {
        let mut live = (0..n)
            .filter(|&p| alive[p] && open[p * attrs + k])
            .map(|p| terms[p * attrs + k])
            .peekable();
        if live.peek().is_some() {
            order.push((live.sum(), k));
        }
    }
    order.sort_by(|x, y| y.0.total_cmp(&x.0).then(x.1.cmp(&y.1)));
    for &(_, k) in order.iter() {
        let col = &measure.cols[k];
        work.clear();
        work.extend(
            (0..n)
                .filter(|&p| alive[p] && open[p * attrs + k])
                .map(|p| (p, col.text_id[block[p].0], col.text_id[block[p].1])),
        );
        // Candidates arrive grouped by their left row: one batched call per
        // run of pairs that share their left text.
        for run in work.chunk_by(|x, y| x.1 == y.1) {
            similarities.clear();
            levenshtein_similarity_chars_many(
                col.text(run[0].1),
                run.iter().map(|&(_, _, b)| col.text(b)),
                edit,
                similarities,
            );
            out.edit_evals += run.len();
            for (&(p, _, _), &s) in run.iter().zip(similarities.iter()) {
                let (i, j) = block[p];
                let at = p * attrs + k;
                terms[at] = col.pair_weight(i, j) * s;
                open[at] = false;
                pending[p] -= 1;
                if cfg.use_filter && pending[p] > 0 && bound(terms, den, p) < cfg.unsure_threshold {
                    alive[p] = false;
                    out.cut_short += 1;
                }
            }
        }
    }

    // Stage 3 — classification, in candidate order.
    for (p, &(i, j)) in block.iter().enumerate() {
        if !alive[p] {
            continue;
        }
        let s = row_quotient(&terms[p * attrs..(p + 1) * attrs], den[p]).clamp(0.0, 1.0);
        classify(i, j, s, cfg, out);
    }
}

/// File a scored pair under `pairs`, `unsure`, or nowhere.
fn classify(i: usize, j: usize, s: f64, cfg: &DetectorConfig, out: &mut ScoredCandidates) {
    let pair = DuplicatePair {
        left: i,
        right: j,
        similarity: s,
    };
    if s >= cfg.threshold {
        out.pairs.push(pair);
    } else if s >= cfg.unsure_threshold {
        out.unsure.push(pair);
    }
}

/// Score a candidate-pair list against `measure` (built over `table`) on
/// up to `par.get()` threads with the staged block kernel, merging chunk
/// results in candidate order. The returned pair lists are **unsorted**
/// (candidate order); callers apply the canonical similarity-descending
/// stable sort. Shared by [`crate::detect_duplicates`] and the
/// incremental detector, so a pair scores identically on both paths.
///
/// # Panics
///
/// When `measure` was not built over a table of `table`'s row count.
pub fn score_candidates(
    table: &Table,
    measure: &TupleSimilarity,
    cfg: &DetectorConfig,
    candidates: &[(usize, usize)],
    par: Parallelism,
) -> ScoredCandidates {
    assert_eq!(
        table.len(),
        measure.row_count(),
        "the measure must be built over the scored table"
    );
    let chunks = par_chunks(par, candidates, |_, chunk| {
        let mut out = ScoredCandidates::default();
        let mut scratch = KernelScratch::default();
        for block in chunk.chunks(PAIR_BLOCK) {
            score_block(measure, cfg, block, &mut scratch, &mut out);
        }
        out
    });
    let mut merged = ScoredCandidates::default();
    for chunk in chunks {
        merged.filtered_out += chunk.filtered_out;
        merged.compared += chunk.compared;
        merged.cut_short += chunk.cut_short;
        merged.edit_evals += chunk.edit_evals;
        merged.pairs.extend(chunk.pairs);
        merged.unsure.extend(chunk.unsure);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::{candidate_pairs, CandidateStrategy};
    use crate::detector::resolve_attributes;
    use crate::testworlds;
    use hummer_engine::table;

    fn bits(pairs: &[DuplicatePair]) -> Vec<(usize, usize, u64)> {
        pairs
            .iter()
            .map(|p| (p.left, p.right, p.similarity.to_bits()))
            .collect()
    }

    /// The per-pair reference: the filter, then the full measure, one
    /// candidate at a time, in candidate order.
    fn score_per_pair(
        t: &Table,
        measure: &TupleSimilarity,
        cfg: &DetectorConfig,
        candidates: &[(usize, usize)],
    ) -> ScoredCandidates {
        let mut out = ScoredCandidates::default();
        for &(i, j) in candidates {
            if cfg.use_filter && measure.upper_bound(t, i, j) < cfg.unsure_threshold {
                out.filtered_out += 1;
                continue;
            }
            out.compared += 1;
            classify(i, j, measure.similarity(t, i, j), cfg, &mut out);
        }
        out
    }

    /// The staged kernel against the per-pair reference: pair lists (rows
    /// and similarity bits) and both filter counters, at degrees 1–4.
    fn scorers_agree_on(
        t: &Table,
        measure: &TupleSimilarity,
        cfg: &DetectorConfig,
        candidates: &[(usize, usize)],
        what: &str,
    ) {
        let rows = score_per_pair(t, measure, cfg, candidates);
        assert_eq!(
            rows.filtered_out + rows.compared,
            candidates.len(),
            "{what}"
        );
        for degree in 1..=4 {
            let cols = score_candidates(t, measure, cfg, candidates, Parallelism::degree(degree));
            let at = format!("{what}, degree {degree}");
            assert_eq!(rows.filtered_out, cols.filtered_out, "{at}");
            assert_eq!(rows.compared, cols.compared, "{at}");
            assert_eq!(bits(&rows.pairs), bits(&cols.pairs), "{at}");
            assert_eq!(bits(&rows.unsure), bits(&cols.unsure), "{at}");
            if !cfg.use_filter {
                assert_eq!((cols.filtered_out, cols.cut_short), (0, 0), "{at}");
            }
        }
    }

    /// Filter on and off, over all pairs and over a sorted neighbourhood
    /// keyed on the first compared attribute.
    fn scorers_agree(t: &Table, cfg: &DetectorConfig, what: &str) {
        let attrs = resolve_attributes(t, cfg).unwrap();
        let strategies = [
            CandidateStrategy::AllPairs,
            CandidateStrategy::SortedNeighborhood {
                key_attrs: vec![attrs[0]],
                window: 15,
            },
        ];
        let measure = TupleSimilarity::new(t, attrs);
        for strategy in &strategies {
            let candidates = candidate_pairs(t, strategy);
            for use_filter in [true, false] {
                let cfg = DetectorConfig {
                    use_filter,
                    ..cfg.clone()
                };
                let what = format!("{what}, {strategy:?}, filter {use_filter}");
                scorers_agree_on(t, &measure, &cfg, &candidates, &what);
            }
        }
    }

    #[test]
    fn columnar_matches_rows_on_mixed_table() {
        let t = table! {
            "People" => ["Name", "City", "Age"];
            ["John Smith", "Berlin", 34],
            ["Jon Smith", "Berlin", 34],
            ["John Smith", (), 34],
            ["Mary Jones", "Hamburg", 28],
            ["Mary Jones", "Hamburg", 28],
            ["Peter Miller", "Munich", 45],
            ["", "Berlin", ()],
        };
        let cfg = DetectorConfig {
            threshold: 0.75,
            unsure_threshold: 0.55,
            ..Default::default()
        };
        scorers_agree(&t, &cfg, "mixed");
    }

    #[test]
    fn columnar_matches_rows_on_numeric_heavy_table() {
        let rows: Vec<hummer_engine::Row> = (0..24)
            .map(|i| {
                hummer_engine::Row::from_values(vec![
                    hummer_engine::Value::text(format!("Person {}", i / 2)),
                    hummer_engine::Value::Float(19.99 + (i / 2) as f64 * 0.5),
                    hummer_engine::Value::Int(1970 + (i % 12) as i64),
                ])
            })
            .collect();
        let t = Table::from_rows("Catalog", &["Name", "Price", "Year"], rows).unwrap();
        let cfg = DetectorConfig {
            attributes: Some(vec!["Name".into(), "Price".into(), "Year".into()]),
            threshold: 0.7,
            unsure_threshold: 0.5,
            ..Default::default()
        };
        scorers_agree(&t, &cfg, "numeric-heavy");
    }

    #[test]
    fn columnar_matches_rows_on_the_scenario_worlds() {
        for (name, t) in testworlds::worlds() {
            scorers_agree(&t, &DetectorConfig::default(), name);
            // Every column, so numeric, date and sparse attributes take part.
            let all = t.schema().names()[..t.schema().len() - 1]
                .iter()
                .map(|n| n.to_string())
                .collect();
            let cfg = DetectorConfig {
                attributes: Some(all),
                ..Default::default()
            };
            scorers_agree(&t, &cfg, name);
        }
    }

    #[test]
    fn columnar_matches_rows_on_awkward_cells() {
        let t = testworlds::awkward();
        let cfg = DetectorConfig {
            attributes: Some(vec![
                "Name".into(),
                "Place".into(),
                "Count".into(),
                "Flag".into(),
            ]),
            threshold: 0.7,
            unsure_threshold: 0.3,
            ..Default::default()
        };
        scorers_agree(&t, &cfg, "awkward");
    }

    /// Thresholds placed *exactly* on a pair's O(1) bound and on its final
    /// similarity. Where the second text attribute's bound is tight
    /// ("abcd" → "abce": one substitution, histogram gap 2), the staged
    /// bound after the first attribute equals the final similarity too, so
    /// the drop test runs at equality.
    #[test]
    fn thresholds_exactly_on_a_bound_or_a_similarity() {
        let t = table! {
            "T" => ["Name", "Code"];
            ["jonathan smithers", "abcd"],
            ["jonathan smithert", "abce"],
            ["jonathon smothers", "abcd"],
            ["mary jones", "wxyz"],
            ["mary jonas", "wxya"],
            ["marc jones", "abce"],
        };
        let measure = TupleSimilarity::new(&t, vec![0, 1]);
        let candidates = candidate_pairs(&t, &CandidateStrategy::AllPairs);
        let mut edges = 0;
        for &(i, j) in &candidates {
            for edge in [measure.upper_bound(&t, i, j), measure.similarity(&t, i, j)] {
                let next = f64::from_bits(edge.to_bits() + 1);
                for unsure_threshold in [edge, next] {
                    let cfg = DetectorConfig {
                        threshold: unsure_threshold.max(0.9),
                        unsure_threshold,
                        ..Default::default()
                    };
                    let what = format!("edge of ({i}, {j}) at {unsure_threshold}");
                    scorers_agree_on(&t, &measure, &cfg, &candidates, &what);
                    edges += 1;
                }
            }
        }
        assert_eq!(edges, 15 * 4);
    }

    /// Phones of one format (`+49-XXX-XXXXX`) look all alike to one digit
    /// bucket; with a bucket per digit the filter drops most of their
    /// pairs, and the answer is still the per-pair oracle's.
    #[test]
    fn per_digit_buckets_tell_phones_apart() {
        let t = testworlds::gold_union(&hummer_datagen::scenarios::person_scale(200, 2005));
        let cfg = DetectorConfig {
            attributes: Some(vec!["Phone".into()]),
            ..Default::default()
        };
        let attrs = resolve_attributes(&t, &cfg).unwrap();
        let measure = TupleSimilarity::new(&t, attrs);
        let col = &measure.cols[0];
        let candidates: Vec<(usize, usize)> = candidate_pairs(&t, &CandidateStrategy::AllPairs)
            .into_iter()
            .filter(|&(i, j)| col.matched(i, j))
            .collect();
        assert!(candidates.len() > 10_000, "{} pairs", candidates.len());
        let scored = score_candidates(&t, &measure, &cfg, &candidates, Parallelism::sequential());
        assert!(
            10 * scored.filtered_out >= 9 * candidates.len(),
            "{} of {} pairs filtered",
            scored.filtered_out,
            candidates.len()
        );
        scorers_agree_on(&t, &measure, &cfg, &candidates, "phones");
        let cfg = DetectorConfig {
            use_filter: false,
            ..cfg
        };
        scorers_agree_on(&t, &measure, &cfg, &candidates, "phones, no filter");
    }

    /// A guard in counts, not timings: on the all-pairs sweep of a 2 × 1000
    /// row person world the staged bound must do the work it is there for.
    /// A refactor that disables the early exit leaves every answer right
    /// and fails here.
    #[test]
    fn staged_bound_cuts_most_pairs_short() {
        let world = hummer_datagen::scenarios::person_scale(1430, 2005);
        let t = testworlds::gold_union(&world);
        assert!((1900..2100).contains(&t.len()), "{} rows", t.len());
        let cfg = DetectorConfig::default();
        let attrs = resolve_attributes(&t, &cfg).unwrap();
        let measure = TupleSimilarity::new(&t, attrs);
        let text_attrs = measure.ranges.iter().filter(|r| r.is_none()).count();
        assert!(
            text_attrs >= 2,
            "nothing to stage with {text_attrs} text attribute"
        );
        let candidates = candidate_pairs(&t, &CandidateStrategy::AllPairs);
        let scored = score_candidates(&t, &measure, &cfg, &candidates, Parallelism::sequential());
        assert!(
            2 * scored.cut_short >= scored.compared,
            "{} of {} compared pairs cut short",
            scored.cut_short,
            scored.compared
        );
        assert!(
            10 * scored.edit_evals <= 6 * scored.compared * text_attrs,
            "{} edit distances for {} compared pairs x {text_attrs} text attributes",
            scored.edit_evals,
            scored.compared
        );
    }
}
