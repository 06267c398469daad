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
//! Renames are one simultaneous substitution: chains, swaps and cycles
//! rename as written, on every call.
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

/// Links `from → to` renaming `right` columns onto `preferred` names, one
/// per code, kept 1:1. Links may chain (`A → B`, `B → C`), swap or cycle:
/// the renames are one simultaneous substitution.
fn links<'a>(preferred: &'a Table, right: &'a Table, codes: &[u8]) -> Vec<(&'a str, &'a str)> {
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
    kept
}

/// A match result holding the links `from → to`, in the order given.
fn match_result(preferred: &str, right: &str, links: &[(&str, &str)]) -> MatchResult {
    MatchResult {
        left_table: preferred.to_string(),
        right_table: right.to_string(),
        correspondences: links
            .iter()
            .map(|(from, to)| Correspondence {
                left_column: to.to_string(),
                right_column: from.to_string(),
                score: 0.9,
            })
            .collect(),
        duplicates_used: Vec::new(),
        sniff: Default::default(),
        matrix: SimilarityMatrix::zeros(0, 0),
    }
}

/// The renames as a simultaneous substitution, written out (names compare
/// up to case): a linked column takes its target, or keeps its own name
/// when that is already the target; an unlinked column named like a target
/// moves aside to `<table>_<target>`; every other column keeps its name.
fn substituted(table: &Table, links: &[(&str, &str)]) -> Vec<String> {
    let like = |a: &str, b: &str| a.eq_ignore_ascii_case(b);
    table
        .schema()
        .names()
        .iter()
        .map(
            |name| match links.iter().find(|(from, _)| like(from, name)) {
                Some((_, to)) if like(to, name) => name.to_string(),
                Some((_, to)) => to.to_string(),
                None => match links.iter().find(|(_, to)| like(to, name)) {
                    Some((_, to)) => format!("{}_{to}", table.name()),
                    None => name.to_string(),
                },
            },
        )
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `integrate` ≡ rename → tag → outer union on zero to three random
    /// adversarial sources with random correspondences (chains, swaps and
    /// cycles included), and every source renames as the written-out
    /// substitution says.
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
        let mut matches = Vec::new();
        for (i, t) in tables.iter().enumerate().skip(1) {
            let kept = links(&tables[0], t, &links_of[i]);
            let m = match_result(tables[0].name(), t.name(), &kept);
            let renamed = apply_renames(t, &m).expect("1:1 renames are total");
            prop_assert_eq!(renamed.schema().names(), substituted(t, &kept));
            matches.push(m);
        }
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
        let m = match_result("A", "B", &[("Blank", "AllNull")]);
        assert_integrate_matches(&[&preferred, &other], &[m])?;
    }
}

/// Chains, swaps and 3-cycles, each with an unlinked column squatting on a
/// target, rename as the written-out substitution says — on every call and
/// in every order of the correspondences (they used to walk a `HashMap`,
/// and a chain failed or succeeded at random).
#[test]
fn rename_chains_swaps_and_cycles_are_simultaneous() {
    let preferred = Table::from_rows(
        "L",
        &["A", "B", "C", "D"],
        vec![Row::from_values(vec![Value::Int(1); 4])],
    )
    .unwrap();
    let right = Table::from_rows(
        "R",
        &["A", "B", "C", "D", "E"],
        vec![Row::from_values((0..5).map(Value::Int).collect())],
    )
    .unwrap();
    // `D` is unlinked and `E → D` targets it: it moves aside every time.
    let cases: [&[(&str, &str)]; 3] = [
        &[("A", "B"), ("B", "C"), ("E", "D")],
        &[("A", "B"), ("B", "A"), ("E", "D")],
        &[("A", "B"), ("B", "C"), ("C", "A"), ("E", "D")],
    ];
    for links in cases {
        let expected = substituted(&right, links);
        let mut order = links.to_vec();
        for call in 0..200 {
            order.rotate_left(1);
            if call % 7 == 0 {
                order.reverse();
            }
            let m = match_result("L", "R", &order);
            let renamed = apply_renames(&right, &m).unwrap();
            assert_eq!(renamed.schema().names(), expected, "{links:?}, call {call}");
            // Cells stay where they were.
            assert_eq!(renamed.rows(), right.rows());
            assert_integrate_matches(&[&preferred, &right], &[m]).unwrap();
        }
    }
}
