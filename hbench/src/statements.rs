//! The statement pool: per world one *full* and one *selective* Fuse By
//! statement, derived from the generated tables alone.

use crate::layers::{self, Table, World};
use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
pub struct Statements {
    /// Every column of every fused object: fusion and serialisation work.
    pub full: String,
    /// Two projected columns, one `RESOLVE(col, max)`, and a `WHERE`
    /// equality that keeps under a tenth of the rows: a small answer.
    pub selective: String,
}

/// Statements over the world's sources, registered under their table names.
pub fn for_world(world: &World) -> Statements {
    let aliases: Vec<&str> = world.sources.iter().map(|s| s.table.name()).collect();
    let from = aliases.join(", ");
    let first = &world.sources[0].table;
    let names = layers::column_names(first);
    let (filter_col, value) = filter_for(first);
    let shown = if filter_col == 0 { 1 } else { filter_col };
    let resolved = (0..names.len())
        .find(|&c| layers::is_integer_column(first, c))
        .unwrap_or(names.len() - 1);
    Statements {
        full: format!("SELECT * FUSE FROM {from} FUSE BY (objectID)"),
        selective: format!(
            "SELECT {}, {}, RESOLVE({}, max) FUSE FROM {from} WHERE {} = '{}' FUSE BY (objectID)",
            names[0],
            names[shown],
            names[resolved],
            names[filter_col],
            value.replace('\'', "''"),
        ),
    }
}

/// The `WHERE` equality: the first text column (identity column last) whose
/// most frequent value covers at least 0.5 % and under 10 % of the rows.
fn filter_for(table: &Table) -> (usize, String) {
    let columns = layers::column_names(table).len();
    let mut fallback = None;
    for col in (1..columns).chain([0]) {
        let Some((value, share)) = top_value(table, col) else {
            continue;
        };
        if (0.005..0.10).contains(&share) {
            return (col, value);
        }
        fallback.get_or_insert((col, value));
    }
    fallback.expect("generated sources carry text")
}

/// Most frequent text value of a column and its share of all rows (ties go
/// to the smaller value, so the choice depends on the data alone).
fn top_value(table: &Table, col: usize) -> Option<(String, f64)> {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for value in layers::text_column(table, col).into_iter().flatten() {
        *counts.entry(value).or_default() += 1;
    }
    let (value, count) =
        counts
            .into_iter()
            .fold(None, |best: Option<(String, usize)>, (v, c)| match best {
                Some((_, bc)) if bc >= c => best,
                _ => Some((v, c)),
            })?;
    Some((value, count as f64 / table.len().max(1) as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_gets_a_selective_filter() {
        for world in &layers::scenario_worlds(5) {
            let st = for_world(world);
            assert!(st.full.starts_with("SELECT * FUSE FROM w"), "{}", st.full);
            let prepared = layers::prepare(world, &layers::service_config());
            let full = layers::execute(&layers::parse_sql(&st.full), &prepared.annotated);
            let sel = layers::execute(&layers::parse_sql(&st.selective), &prepared.annotated);
            assert!(!sel.table.is_empty(), "{}", st.selective);
            assert!(
                sel.table.len() * 10 < full.table.len(),
                "{} keeps {} of {}",
                st.selective,
                sel.table.len(),
                full.table.len()
            );
            assert_eq!(layers::column_names(&sel.table).len(), 3);
        }
    }
}
