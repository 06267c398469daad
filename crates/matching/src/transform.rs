//! The data-transformation phase: rename matched attributes to the
//! preferred schema, tag every table with a `sourceID`, and compute the
//! full outer union (paper §2.2-§2.3 and §3).

use crate::correspondence::MatchResult;
use hummer_engine::error::EngineError;
use hummer_engine::{Column, ColumnType, Result, Row, Schema, Table, Value, SOURCE_ID_COLUMN};

/// Rename the matched columns of `table` to the preferred names recorded in
/// `result` (which must have been produced with `table` on the right side).
///
/// The renames are one simultaneous substitution: every column's final
/// name is computed from the original names, so chains (`A → B`,
/// `B → C`), swaps and cycles rename as written, whatever order the
/// correspondences come in. If a rename target collides with an
/// *unmatched* column of the same table, that column is moved aside to
/// `<table>_<target>` so the transformation stays total; the collision is
/// rare (it means the table reused a preferred name for something else).
/// Names that still collide are an error.
pub fn apply_renames(table: &Table, result: &MatchResult) -> Result<Table> {
    let schema = renamed_schema(table, result)?;
    Table::new(table.name(), schema, table.rows().to_vec())
}

/// The name each of `columns` (the columns of table `table_name`) carries
/// after the renames of `result` — see [`apply_renames`].
pub(crate) fn renamed_columns(
    table_name: &str,
    columns: &[&str],
    result: &MatchResult,
) -> Result<Vec<String>> {
    let position = |name: &str| columns.iter().position(|c| c.eq_ignore_ascii_case(name));
    // A column is matched when a correspondence names it; its target is
    // the preferred name (`None`: it already carries it, up to case).
    // Later correspondences for the same column win, as in `rename_map`.
    let mut target: Vec<Option<Option<&str>>> = vec![None; columns.len()];
    for c in &result.correspondences {
        let (from, to) = (c.right_column.as_str(), c.left_column.as_str());
        if from.eq_ignore_ascii_case(to) {
            if let Some(i) = position(from) {
                target[i] = Some(None);
            }
            continue;
        }
        let i = position(from).ok_or_else(|| EngineError::UnknownColumn {
            name: from.to_string(),
            relation: table_name.to_string(),
        })?;
        target[i] = Some(Some(to));
    }
    let targets: Vec<&str> = target.iter().flatten().flatten().copied().collect();
    let names: Vec<String> = columns
        .iter()
        .zip(&target)
        .map(|(name, target)| match target {
            Some(Some(to)) => to.to_string(),
            Some(None) => name.to_string(),
            None => match targets.iter().find(|t| t.eq_ignore_ascii_case(name)) {
                // Unmatched, squatting on a preferred name: moved aside.
                Some(to) => format!("{table_name}_{to}"),
                None => name.to_string(),
            },
        })
        .collect();
    for (i, name) in names.iter().enumerate() {
        if names[..i].iter().any(|n| n.eq_ignore_ascii_case(name)) {
            return Err(EngineError::DuplicateColumn(name.clone()));
        }
    }
    Ok(names)
}

/// Add the `sourceID` column carrying `alias` to every row.
pub fn add_source_id(table: &Table, alias: &str) -> Result<Table> {
    let mut out = table.clone();
    out.add_column(Column::new(SOURCE_ID_COLUMN, ColumnType::Text), |_, _| {
        Value::text(alias)
    })?;
    Ok(out)
}

/// Run the entire transformation for a set of tables: the first table is
/// the preferred schema; `matches[i]` must be the match result of
/// `tables[0]` vs `tables[i + 1]`. Produces the `sourceID`-tagged full
/// outer union, named `name` — exactly what [`apply_renames`] →
/// [`add_source_id`] → [`hummer_engine::ops::outer_union`] would, cell for
/// cell.
///
/// The renames run on schemas only; each union row is
/// then built once at its final width, reading each source cell where the
/// union schema maps it, `NULL` where the source lacks the column, and the
/// source alias for `sourceID`. No intermediate table is materialized.
///
/// Errors when `matches` does not hold one result per non-preferred table.
pub fn integrate(tables: &[&Table], matches: &[MatchResult], name: &str) -> Result<Table> {
    if matches.len() + 1 != tables.len().max(1) {
        return Err(EngineError::Expression(format!(
            "need one match result per non-preferred table: {} tables, {} match results",
            tables.len(),
            matches.len()
        )));
    }
    let mut schemas: Vec<Schema> = Vec::with_capacity(tables.len());
    for (i, t) in tables.iter().enumerate() {
        let schema = if i == 0 {
            t.schema().clone()
        } else {
            renamed_schema(t, &matches[i - 1])?
        };
        schemas.push(schema.with_column(Column::new(SOURCE_ID_COLUMN, ColumnType::Text))?);
    }
    let Some((first, rest)) = schemas.split_first() else {
        return Table::new(name, Schema::of_names::<&str>(&[])?, Vec::new());
    };
    let union = rest.iter().fold(first.clone(), |u, s| u.outer_union(s));
    let mut rows: Vec<Row> = Vec::with_capacity(tables.iter().map(|t| t.len()).sum());
    for (t, schema) in tables.iter().zip(&schemas) {
        // `sourceID` is the last column of each tagged schema; every other
        // column sits where it sits in the source rows.
        let width = t.schema().len();
        let mapping: Vec<Option<usize>> = union
            .columns()
            .iter()
            .map(|c| schema.index_of(&c.name))
            .collect();
        for row in t.rows() {
            let values = mapping
                .iter()
                .map(|m| match *m {
                    Some(i) if i < width => row[i].clone(),
                    Some(_) => Value::text(t.name()),
                    None => Value::Null,
                })
                .collect();
            rows.push(Row::from_values(values));
        }
    }
    Table::new(name, union, rows)
}

/// The schema [`apply_renames`] produces: the same columns and types under
/// their renamed names.
fn renamed_schema(table: &Table, result: &MatchResult) -> Result<Schema> {
    let columns = table.schema().columns();
    let old: Vec<&str> = columns.iter().map(|c| c.name.as_str()).collect();
    let names = renamed_columns(table.name(), &old, result)?;
    Schema::new(
        columns
            .iter()
            .zip(names)
            .map(|(c, name)| Column::new(name, c.ctype))
            .collect(),
    )
}

/// [`integrate`] under its old signature.
///
/// Kept, with a `layout` that admits no choice, only because
/// `hbench/src/layers.rs:273` calls it; it goes when that call does.
#[doc(hidden)]
pub fn integrate_with_layout(
    tables: &[&Table],
    matches: &[MatchResult],
    name: &str,
    _layout: (),
) -> Result<Table> {
    integrate(tables, matches, name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dumas::SniffConfig;
    use crate::matcher::{match_tables, MatcherConfig};
    use hummer_engine::table;

    fn cfg() -> MatcherConfig {
        MatcherConfig {
            sniff: SniffConfig {
                min_similarity: 0.2,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn ee() -> Table {
        table! {
            "EE" => ["Name", "Age"];
            ["John Smith", 24],
            ["Mary Jones", 22],
        }
    }

    fn cs() -> Table {
        table! {
            "CS" => ["FullName", "Years", "Semester"];
            ["John Smith", 24, 5],
            ["Marie Curie", 31, 9],
        }
    }

    #[test]
    fn renames_to_preferred_schema() {
        let m = match_tables(&ee(), &cs(), &cfg());
        let renamed = apply_renames(&cs(), &m).unwrap();
        assert!(renamed.schema().contains("Name"));
        assert!(renamed.schema().contains("Age"));
        assert!(renamed.schema().contains("Semester")); // unmatched survives
    }

    #[test]
    fn source_id_added_with_alias() {
        let t = add_source_id(&ee(), "EE").unwrap();
        assert!(t.schema().contains(SOURCE_ID_COLUMN));
        assert_eq!(t.cell(0, 2), &Value::text("EE"));
    }

    #[test]
    fn integrate_produces_aligned_outer_union() {
        let e = ee();
        let c = cs();
        let m = match_tables(&e, &c, &cfg());
        let u = integrate(&[&e, &c], &[m], "Students").unwrap();
        // Preferred names + unmatched extras + sourceID.
        assert!(u.schema().contains("Name"));
        assert!(u.schema().contains("Age"));
        assert!(u.schema().contains("Semester"));
        assert!(u.schema().contains(SOURCE_ID_COLUMN));
        assert_eq!(u.len(), 4);
        // EE rows have NULL semester; CS rows have values.
        let name_idx = u.resolve("Name").unwrap();
        let sem_idx = u.resolve("Semester").unwrap();
        let sid_idx = u.resolve(SOURCE_ID_COLUMN).unwrap();
        for row in u.rows() {
            if row[sid_idx] == Value::text("EE") {
                assert!(row[sem_idx].is_null());
            } else {
                assert!(!row[name_idx].is_null());
            }
        }
    }

    #[test]
    fn collision_with_unmatched_column_moves_it_aside() {
        // Right table has "Name" (address label, unmatched) and "Person"
        // (actual name). Person→Name must not clobber the squatter.
        let l = table! { "L" => ["Name"]; ["John Smith"], ["Mary Jones"] };
        let r = table! {
            "R" => ["Person", "Name"];
            ["John Smith", "12 Main St"],
            ["Mary Jones", "34 Side Rd"],
        };
        let mut m = match_tables(&l, &r, &cfg());
        // Force the correspondence we are testing (instance data may or may
        // not find it alone).
        m.correspondences.clear();
        m.add("Name", "Person", 0.9);
        let out = apply_renames(&r, &m).unwrap();
        assert!(out.schema().contains("Name"));
        assert!(out.schema().contains("R_Name"));
        let name_idx = out.resolve("Name").unwrap();
        assert_eq!(out.cell(0, name_idx), &Value::text("John Smith"));
    }

    #[test]
    fn integrate_single_table_just_tags_source() {
        let e = ee();
        let u = integrate(&[&e], &[], "U").unwrap();
        assert_eq!(u.len(), 2);
        assert!(u.schema().contains(SOURCE_ID_COLUMN));
    }

    #[test]
    fn integrate_wrong_match_count_errors() {
        let e = ee();
        let c = cs();
        let err = integrate(&[&e, &c], &[], "U").unwrap_err();
        assert!(err.to_string().contains("one match result per"), "{err}");
    }
}
