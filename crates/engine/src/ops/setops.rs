//! Set operators, most importantly the **full outer union** that gives
//! `FUSE FROM` its semantics.
//!
//! The outer union of tables T₁…Tₙ has the union of all their columns
//! (aligned by name, first-seen order) and Σ|Tᵢ| rows; each row is padded
//! with `NULL` in the columns its source lacks. The paper's transformation
//! phase renames matched attributes to the preferred schema first, so
//! semantically corresponding columns share a name by the time this operator
//! runs (§2.2: "the full outer union of all tables is computed").

use crate::error::EngineError;
use crate::row::Row;
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;
use crate::Result;
use std::collections::HashSet;

/// `UNION ALL`: same-arity inputs, columns aligned by position, left schema
/// wins. Errors when arities differ.
pub fn union_all(left: &Table, right: &Table) -> Result<Table> {
    if left.schema().len() != right.schema().len() {
        return Err(EngineError::SchemaMismatch(format!(
            "UNION arity mismatch: {} vs {} columns",
            left.schema().len(),
            right.schema().len()
        )));
    }
    let mut out = Table::empty(left.name(), left.schema().clone());
    for r in left.rows().iter().chain(right.rows()) {
        out.push(r.clone())?;
    }
    Ok(out)
}

/// `UNION` (distinct): [`union_all`] followed by duplicate elimination.
pub fn union_distinct(left: &Table, right: &Table) -> Result<Table> {
    let all = union_all(left, right)?;
    let mut seen: HashSet<Row> = HashSet::with_capacity(all.len());
    let mut out = Table::empty(all.name(), all.schema().clone());
    for r in all.rows() {
        if seen.insert(r.clone()) {
            out.push(r.clone())?;
        }
    }
    Ok(out)
}

/// Full outer union of two tables (columns aligned by name).
pub fn outer_union_pair(left: &Table, right: &Table) -> Result<Table> {
    outer_union(&[left, right], &format!("{}∪{}", left.name(), right.name()))
}

/// Full outer union of any number of tables, aligned by column name.
///
/// The result's schema is the name-wise union of all input schemas in
/// first-seen order; every input row appears exactly once, `NULL`-padded in
/// the columns its source does not provide.
pub fn outer_union(tables: &[&Table], name: &str) -> Result<Table> {
    if tables.is_empty() {
        return Table::new(name, Schema::of_names::<&str>(&[])?, Vec::new());
    }
    let mut schema = tables[0].schema().clone();
    for t in &tables[1..] {
        schema = schema.outer_union(t.schema());
    }
    let mut out = Table::empty(name, schema.clone());
    for t in tables {
        // Mapping: position in the output schema -> position in t (if any).
        let mapping: Vec<Option<usize>> = schema
            .columns()
            .iter()
            .map(|c| t.schema().index_of(&c.name))
            .collect();
        for row in t.rows() {
            let values: Vec<Value> = mapping
                .iter()
                .map(|m| m.map(|i| row[i].clone()).unwrap_or(Value::Null))
                .collect();
            out.push(Row::from_values(values))?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table;

    fn ee() -> Table {
        table! {
            "EE_Student" => ["Name", "Age"];
            ["Alice", 22],
            ["Bob", 24],
        }
    }

    fn cs() -> Table {
        table! {
            "CS_Students" => ["Name", "Semester", "Age"];
            ["Alice", 5, 23],
            ["Dora", 1, 19],
        }
    }

    #[test]
    fn union_all_concatenates() {
        let a = table! { "A" => ["x"]; [1] };
        let b = table! { "B" => ["y"]; [2] };
        let u = union_all(&a, &b).unwrap();
        assert_eq!(u.len(), 2);
        assert_eq!(u.schema().names(), vec!["x"]); // left schema wins
    }

    #[test]
    fn union_arity_mismatch_errors() {
        let a = table! { "A" => ["x"]; [1] };
        let b = table! { "B" => ["y", "z"]; [2, 3] };
        assert!(union_all(&a, &b).is_err());
    }

    #[test]
    fn union_distinct_dedups() {
        let a = table! { "A" => ["x"]; [1], [2] };
        let b = table! { "B" => ["x"]; [2], [3] };
        assert_eq!(union_distinct(&a, &b).unwrap().len(), 3);
    }

    #[test]
    fn outer_union_aligns_by_name_and_pads() {
        let u = outer_union_pair(&ee(), &cs()).unwrap();
        assert_eq!(u.schema().names(), vec!["Name", "Age", "Semester"]);
        assert_eq!(u.len(), 4);
        // EE rows have NULL semester
        assert!(u.cell(0, 2).is_null());
        // CS rows carry their values into the aligned positions
        assert_eq!(u.cell(2, 0), &Value::text("Alice"));
        assert_eq!(u.cell(2, 1), &Value::Int(23));
        assert_eq!(u.cell(2, 2), &Value::Int(5));
    }

    #[test]
    fn outer_union_cardinality_is_sum() {
        let u = outer_union(&[&ee(), &cs(), &ee()], "U").unwrap();
        assert_eq!(u.len(), 6);
    }

    #[test]
    fn outer_union_of_identical_schemas_is_union_all() {
        let a = ee();
        let u = outer_union_pair(&a, &a).unwrap();
        assert_eq!(u.schema().names(), vec!["Name", "Age"]);
        assert_eq!(u.len(), 4);
    }

    #[test]
    fn outer_union_empty_input() {
        let u = outer_union(&[], "Empty").unwrap();
        assert!(u.is_empty());
        assert_eq!(u.schema().len(), 0);
    }

    #[test]
    fn outer_union_is_case_insensitive_on_names() {
        let a = table! { "A" => ["Name"]; ["x"] };
        let b = table! { "B" => ["name"]; ["y"] };
        let u = outer_union_pair(&a, &b).unwrap();
        assert_eq!(u.schema().len(), 1);
        assert_eq!(u.len(), 2);
        assert_eq!(u.cell(1, 0), &Value::text("y"));
    }
}
