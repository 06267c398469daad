//! The filter's one assumption, as a property: the upper bound dominates
//! the similarity *in floating point* — no epsilon — on whatever the cells
//! hold, including text whose lower-casing changes its char count, phone
//! numbers, and runs too long for a one-byte histogram count. And the
//! text bound underneath, on its own: admissible on any two strings, and
//! never looser than the bound it replaced.

use hummer_dupdetect::TupleSimilarity;
use hummer_engine::{Row, Table, Value};
use hummer_textsim::edit::levenshtein;
use proptest::prelude::*;

/// One phone number's digits, shuffled by `swaps` (each picks the digit
/// that moves to the next place, Fisher–Yates style).
fn permuted_phone(swaps: Vec<usize>) -> String {
    let mut digits: Vec<char> = "30123456".chars().collect();
    for (k, pick) in swaps.into_iter().enumerate().take(digits.len()) {
        let at = k + pick % (digits.len() - k);
        digits.swap(k, at);
    }
    let digits: String = digits.into_iter().collect();
    format!("+49-{}-{}", &digits[..3], &digits[3..])
}

fn arb_phone() -> BoxedStrategy<String> {
    prop_oneof![
        "+49-[0-9]{3}-[0-9]{5}",
        prop::collection::vec(0usize..8, 8).prop_map(permuted_phone),
    ]
    .boxed()
}

/// A run of 256–300 copies of one letter, sometimes with a digit after
/// it: the letter's count does not fit the histogram's one-byte lanes.
fn arb_long_run() -> BoxedStrategy<String> {
    (256usize..301)
        .prop_flat_map(|n| {
            "[ab][0-9]{0,2}".prop_map(move |s| {
                let (letter, tail) = s.split_at(1);
                letter.repeat(n) + tail
            })
        })
        .boxed()
}

fn arb_cell() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::Text(String::new())),
        // 'İ' lower-cases to two chars, 'Σ' by position, 'ẞ' and 'ǅ' to
        // other letters; 'ı' and 'ß' are already lower case.
        "[İIıiΣσςßẞǅ😀 a-c]{0,10}".prop_map(Value::Text),
        ".{0,12}".prop_map(Value::Text),
        // Either side of the 64-char switch of the edit distance.
        "[a-cİ ]{60,90}".prop_map(Value::Text),
        (-50i64..50).prop_map(Value::Int),
        (-500i64..500).prop_map(|n| Value::Float(n as f64 / 8.0)),
        "[0-9]{1,3}".prop_map(Value::Text),
        Just(Value::text("NaN")),
        arb_phone().prop_map(Value::Text),
        arb_long_run().prop_map(Value::Text),
    ]
    .boxed()
}

/// Any two strings the text bound may meet: the cells above, and pairs
/// built to be close (a phone against a permutation of itself, runs of
/// one letter against each other).
fn arb_text() -> BoxedStrategy<String> {
    prop_oneof![
        ".{0,30}",
        "[İIıiΣσςßẞǅ😀 a-c0-9]{0,12}",
        arb_phone(),
        arb_long_run(),
    ]
    .boxed()
}

/// The text bound's lower bound on the edit distance, computed here on its
/// own: `(L1 + |Δ|) / 2` over 37 buckets (a–z, each digit, the rest) —
/// and the 28-bucket `max(L1 / 2, |Δ|)` it replaced, with all ten digits
/// in one bucket.
fn distance_lower_bounds(a: &str, b: &str) -> (usize, f64) {
    let hist = |s: &str, digits_apart: bool| {
        let mut h = [0usize; 37];
        for c in s.chars() {
            let k = match c {
                'a'..='z' => c as usize - 'a' as usize,
                '0'..='9' if digits_apart => 26 + (c as usize - '0' as usize),
                '0'..='9' => 26,
                _ => 36,
            };
            h[k] += 1;
        }
        h
    };
    let l1 = |x: [usize; 37], y: [usize; 37]| -> usize {
        x.iter().zip(&y).map(|(p, q)| p.abs_diff(*q)).sum()
    };
    let gap = a.chars().count().abs_diff(b.chars().count());
    let new = (l1(hist(a, true), hist(b, true)) + gap) / 2;
    let old = (l1(hist(a, false), hist(b, false)) as f64 / 2.0).max(gap as f64);
    (new, old)
}

fn arb_table() -> BoxedStrategy<Table> {
    (1usize..5)
        .prop_flat_map(|cols| {
            prop::collection::vec(prop::collection::vec(arb_cell(), cols..cols + 1), 2..10)
        })
        .prop_map(|rows| {
            let names: Vec<String> = (0..rows[0].len()).map(|c| format!("c{c}")).collect();
            let rows = rows.into_iter().map(Row::from_values).collect();
            Table::from_rows("T", &names, rows).unwrap()
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn upper_bound_dominates_similarity_exactly(table in arb_table()) {
        let attrs: Vec<usize> = (0..table.schema().len()).collect();
        let measure = TupleSimilarity::new(&table, attrs);
        for i in 0..table.len() {
            for j in 0..table.len() {
                let (ub, sim) = (measure.upper_bound(&table, i, j), measure.similarity(&table, i, j));
                prop_assert!(ub >= sim, "rows {i}, {j}: bound {ub} < similarity {sim}");
                prop_assert!((0.0..=1.0).contains(&sim));
                prop_assert_eq!(sim.to_bits(), measure.similarity(&table, j, i).to_bits());
            }
        }
    }

    /// `(L1 + |Δ|) / 2` is a lower bound on the edit distance of any two
    /// strings (so the similarity bound built on it is admissible), and it
    /// is never below the old bound (so `filtered_out` can only grow).
    #[test]
    fn excess_bound_is_admissible_and_no_looser(a in arb_text(), b in arb_text()) {
        let (x, y) = (a.to_lowercase(), b.to_lowercase());
        let (new, old) = distance_lower_bounds(&x, &y);
        let dist = levenshtein(&x, &y);
        prop_assert!(new <= dist, "{x:?} / {y:?}: bound {new} > distance {dist}");
        prop_assert!(new as f64 >= old, "{x:?} / {y:?}: bound {new} < old bound {old}");
    }
}
