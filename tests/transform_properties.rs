//! Properties of the transformation step (paper §2.2): rename to the
//! preferred schema, tag `sourceID`, full outer union.
//!
//! [`integrate`] builds every union row once at its final width. It must
//! equal, bit for bit, the composition of the public row operators it
//! replaces — [`apply_renames`] → [`add_source_id`] → [`outer_union`] —
//! on adversarial sources: NaNs with payload bits, ±∞, `-0.0`, empty
//! strings vs. nulls, dates, mixed-type and all-null columns, a rename
//! onto an unmatched column (which moves it aside), column names that
//! differ only in case, zero-row sources, one source and zero sources.
//! Floats are compared by `to_bits` (a Debug fingerprint is not enough:
//! every NaN prints as `NaN` regardless of payload).

use hummer::engine::ops::outer_union;
use hummer::engine::{Date, Result, Row, Table, Value};
use hummer::matching::{
    add_source_id, apply_renames, integrate, Correspondence, MatchResult, SimilarityMatrix,
};
use proptest::prelude::*;

/// Adversarial cell values: beyond the durability-test set, this includes
/// non-finite floats and NaNs with distinct payload bits.
fn arb_value() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        (0u8..2).prop_map(|b| Value::Bool(b == 1)),
        (-10_000i64..10_000).prop_map(Value::Int),
        (-70_000i64..70_000).prop_map(|n| Value::Float(n as f64 / 7.0)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(f64::INFINITY)),
        Just(Value::Float(f64::NEG_INFINITY)),
        Just(Value::Float(f64::NAN)),
        // A quiet NaN with a non-standard payload: survives only if the
        // transform moves the exact bits.
        Just(Value::Float(f64::from_bits(0x7ff8_0000_0000_00ffu64))),
        Just(Value::Text(String::new())), // empty string ≠ null
        "[a-z\"', \n]{0,10}".prop_map(Value::Text),
        ".{0,8}".prop_map(Value::Text),
        (2000i32..2030).prop_flat_map(|y| {
            (1u8..13).prop_flat_map(move |m| {
                (1u8..29).prop_map(move |d| Value::Date(Date::new(y, m, d).unwrap()))
            })
        }),
    ]
    .boxed()
}

/// Bitwise value equality: `to_bits` on floats, structural elsewhere.
fn values_bit_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => format!("{a:?}") == format!("{b:?}"),
    }
}

/// The transformation as the old row path composed it from public
/// operators: every non-preferred table renamed, every table tagged with
/// its alias, then one outer union.
fn composed(tables: &[&Table], matches: &[MatchResult], name: &str) -> Result<Table> {
    let mut tagged = Vec::with_capacity(tables.len());
    for (i, t) in tables.iter().enumerate() {
        let renamed = if i == 0 {
            (*t).clone()
        } else {
            apply_renames(t, &matches[i - 1])?
        };
        tagged.push(add_source_id(&renamed, t.name())?);
    }
    outer_union(&tagged.iter().collect::<Vec<_>>(), name)
}

/// `integrate` equals the composed oracle: name, schema (names, order,
/// unified types), and every cell's bits.
fn assert_integrate_matches(tables: &[&Table], matches: &[MatchResult]) -> TestCaseResult {
    let oracle = composed(tables, matches, "Integrated").expect("oracle transforms");
    let union = integrate(tables, matches, "Integrated").expect("integrate transforms");
    prop_assert_eq!(union.name(), oracle.name());
    prop_assert_eq!(union.schema(), oracle.schema());
    prop_assert_eq!(union.len(), oracle.len());
    for (r, (a, b)) in union.rows().iter().zip(oracle.rows()).enumerate() {
        for (c, (x, y)) in a.values().iter().zip(b.values()).enumerate() {
            prop_assert!(values_bit_equal(x, y), "cell ({r},{c}): {x:?} vs {y:?}");
        }
    }
    Ok(())
}

/// Column names a source draws from, each in one of three spellings so
/// that names differing only in case meet in the union.
const NAMES: [&str; 5] = ["Name", "City", "Age", "Phone", "Note"];

fn spelling(code: u8) -> String {
    let base = NAMES[usize::from(code) % NAMES.len()];
    match code / 5 % 3 {
        0 => base.to_string(),
        1 => base.to_ascii_lowercase(),
        _ => base.to_ascii_uppercase(),
    }
}

/// A source named `S{i}` whose columns are the distinct (case-insensitive)
/// names among `codes`, and whose `rows` rows take cells from `cells` in
/// turn.
fn source(i: usize, codes: &[u8], rows: usize, cells: &mut impl Iterator<Item = Value>) -> Table {
    let mut columns: Vec<String> = Vec::new();
    for &code in codes {
        let name = spelling(code);
        if !columns.iter().any(|c| c.eq_ignore_ascii_case(&name)) {
            columns.push(name);
        }
    }
    let rows = (0..rows)
        .map(|_| Row::from_values((0..columns.len()).map(|_| cells.next().unwrap()).collect()))
        .collect();
    Table::from_rows(format!("S{i}"), &columns, rows).unwrap()
}

/// A match result renaming `right` columns onto `preferred` names, one link
/// per code, kept 1:1. A link is dropped when its target is (up to case)
/// a column some other link renames: `apply_renames` walks a `HashMap`,
/// so rename chains depend on its iteration order, and neither side of
/// this comparison would be deterministic.
fn links(preferred: &Table, right: &Table, codes: &[u8]) -> MatchResult {
    let (left_names, right_names) = (preferred.schema().names(), right.schema().names());
    let mut kept: Vec<(&str, &str)> = Vec::new();
    for &code in codes {
        let to = left_names[usize::from(code) % left_names.len()];
        let from = right_names[usize::from(code / 8) % right_names.len()];
        if kept.iter().any(|(f, t)| f == &from || t == &to) {
            continue;
        }
        kept.push((from, to));
    }
    let renamed = |name: &str, own: &str| {
        kept.iter()
            .any(|(f, _)| *f != own && f.eq_ignore_ascii_case(name))
    };
    let correspondences = kept
        .iter()
        .filter(|(from, to)| !renamed(to, from))
        .map(|(from, to)| Correspondence {
            left_column: to.to_string(),
            right_column: from.to_string(),
            score: 0.9,
        })
        .collect();
    MatchResult {
        left_table: preferred.name().to_string(),
        right_table: right.name().to_string(),
        correspondences,
        duplicates_used: Vec::new(),
        sniff: Default::default(),
        matrix: SimilarityMatrix::zeros(0, 0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `integrate` ≡ rename → tag → outer union on zero to three random
    /// adversarial sources with random correspondences.
    #[test]
    fn integrate_matches_the_composed_oracle(
        sources in 0usize..4,
        columns in prop::collection::vec(prop::collection::vec(0u8..15, 1..5), 3),
        rows in prop::collection::vec(0usize..5, 3),
        links_of in prop::collection::vec(prop::collection::vec(0u8..40, 0..4), 3),
        cells in prop::collection::vec(arb_value(), 80),
    ) {
        let mut cells = cells.into_iter().cycle();
        let tables: Vec<Table> = (0..sources)
            .map(|i| source(i, &columns[i], rows[i], &mut cells))
            .collect();
        let matches: Vec<MatchResult> = tables
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, t)| links(&tables[0], t, &links_of[i]))
            .collect();
        let refs: Vec<&Table> = tables.iter().collect();
        assert_integrate_matches(&refs, &matches)?;
    }

    /// All-null and all-empty-string columns keep their state (two states
    /// a lossy transform could conflate), including a rename onto the
    /// squatted name and a case-only clash across the sources.
    #[test]
    fn degenerate_columns_integrate_bit_exactly(len in 0usize..20) {
        let preferred = Table::from_rows(
            "A",
            &["AllNull", "AllEmpty"],
            (0..len)
                .map(|_| Row::from_values(vec![Value::Null, Value::Text(String::new())]))
                .collect(),
        )
        .unwrap();
        let other = Table::from_rows(
            "B",
            &["allempty", "Blank", "AllNull"],
            (0..len)
                .map(|_| {
                    Row::from_values(vec![Value::Text(String::new()), Value::Null, Value::Null])
                })
                .collect(),
        )
        .unwrap();
        // Blank → AllNull: B's own unmatched AllNull must move aside.
        let mut m = links(&preferred, &other, &[]);
        m.add("AllNull", "Blank", 0.9);
        assert_integrate_matches(&[&preferred, &other], &[m])?;
    }
}
