//! The filter's one assumption, as a property: the upper bound dominates
//! the similarity *in floating point* — no epsilon — on whatever the cells
//! hold, including text whose lower-casing changes its char count.

use hummer_dupdetect::TupleSimilarity;
use hummer_engine::{Row, Table, Value};
use proptest::prelude::*;

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
    ]
    .boxed()
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
}
