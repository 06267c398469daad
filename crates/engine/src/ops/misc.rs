//! Projection, renaming, limit.

use crate::expr::Expr;
use crate::row::Row;
use crate::schema::{Column, Schema};
use crate::table::Table;
use crate::value::Value;
use crate::Result;

/// Generalized projection: each output column is `(alias, expression)`.
pub fn project(table: &Table, columns: &[(String, Expr)]) -> Result<Table> {
    let schema = Schema::new(
        columns
            .iter()
            .map(|(a, _)| Column::any(a.clone()))
            .collect(),
    )?;
    let mut out = Table::empty(table.name(), schema);
    for row in table.rows() {
        let values: Vec<Value> = columns
            .iter()
            .map(|(_, e)| e.eval(table.schema(), row))
            .collect::<Result<_>>()?;
        out.push(Row::from_values(values))?;
    }
    // Inference gives aliases concrete types where possible.
    out.infer_types();
    Ok(out)
}

/// Rename one column (ρ). Fails if `from` is missing or `to` collides.
pub fn rename_column(table: &Table, from: &str, to: &str) -> Result<Table> {
    let idx = table.resolve(from)?;
    let schema = table.schema().renamed(idx, to)?;
    Table::new(table.name(), schema, table.rows().to_vec())
}

/// Keep the first `n` rows.
pub fn limit(table: &Table, n: usize) -> Table {
    let rows = table.rows().iter().take(n).cloned().collect();
    Table::new(table.name(), table.schema().clone(), rows).expect("same schema")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table;

    fn t() -> Table {
        table! {
            "T" => ["a", "b"];
            [1, "x"],
            [2, "y"],
            [1, "x"],
        }
    }

    #[test]
    fn project_exprs_with_alias() {
        use crate::expr::ArithOp;
        let cols = vec![(
            "a2".to_string(),
            Expr::Arith(
                ArithOp::Mul,
                Box::new(Expr::col("a")),
                Box::new(Expr::lit(2)),
            ),
        )];
        let p = project(&t(), &cols).unwrap();
        assert_eq!(p.schema().names(), vec!["a2"]);
        assert_eq!(p.cell(1, 0), &Value::Int(4));
    }

    #[test]
    fn rename_column_works_and_validates() {
        let r = rename_column(&t(), "a", "alpha").unwrap();
        assert_eq!(r.schema().names(), vec!["alpha", "b"]);
        assert!(rename_column(&t(), "zz", "x").is_err());
        assert!(rename_column(&t(), "a", "b").is_err());
    }

    #[test]
    fn limit_truncates() {
        assert_eq!(limit(&t(), 2).len(), 2);
        assert_eq!(limit(&t(), 99).len(), 3);
        assert_eq!(limit(&t(), 0).len(), 0);
    }
}
