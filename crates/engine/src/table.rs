//! In-memory tables (materialized relations).

use crate::error::EngineError;
use crate::row::Row;
use crate::schema::{Column, ColumnType, Schema};
use crate::value::Value;
use crate::Result;
use std::fmt;

/// A named, materialized relation: a [`Schema`] plus rows.
///
/// `Table` is the unit of data flowing through the HumMer pipeline. All
/// engine operators consume and produce `Table`s.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<Row>,
}

impl Table {
    /// An empty table with the given name and schema.
    pub fn empty(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            schema,
            rows: Vec::new(),
        }
    }

    /// Build a table from rows, validating arity of every row.
    pub fn new(name: impl Into<String>, schema: Schema, rows: Vec<Row>) -> Result<Self> {
        let mut t = Table::empty(name, schema);
        t.rows.reserve(rows.len());
        for r in rows {
            t.push(r)?;
        }
        Ok(t)
    }

    /// Construct a table from string column names and a literal row list.
    /// Column types are inferred from the data (see [`Table::infer_types`]).
    pub fn from_rows<S: AsRef<str>>(
        name: impl Into<String>,
        columns: &[S],
        rows: Vec<Row>,
    ) -> Result<Self> {
        let schema = Schema::of_names(columns)?;
        let mut t = Table::new(name, schema, rows)?;
        t.infer_types();
        Ok(t)
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the table (used when registering under an alias).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The rows in order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row after checking its arity against the schema.
    pub fn push(&mut self, row: Row) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(EngineError::ArityMismatch {
                expected: self.schema.len(),
                actual: row.len(),
            });
        }
        self.rows.push(row);
        Ok(())
    }

    /// The cell at (`row`, `col`).
    pub fn cell(&self, row: usize, col: usize) -> &Value {
        &self.rows[row][col]
    }

    /// Column values as an iterator (for corpus statistics).
    pub fn column_values(&self, col: usize) -> impl Iterator<Item = &Value> + '_ {
        self.rows.iter().map(move |r| &r[col])
    }

    /// Index of a column by name, with an error naming this table.
    pub fn resolve(&self, column: &str) -> Result<usize> {
        self.schema.resolve(column, &self.name)
    }

    /// Replace each column's declared type by the least upper bound of the
    /// types actually present (ignoring `NULL`s). Columns with no non-null
    /// values keep [`ColumnType::Any`].
    pub fn infer_types(&mut self) {
        let mut types: Vec<Option<ColumnType>> = vec![None; self.schema.len()];
        for row in &self.rows {
            for (i, v) in row.values().iter().enumerate() {
                if let Some(t) = v.column_type() {
                    types[i] = Some(match types[i] {
                        None => t,
                        Some(prev) => prev.unify(t),
                    });
                }
            }
        }
        let cols: Vec<Column> = self
            .schema
            .columns()
            .iter()
            .zip(types)
            .map(|(c, t)| Column::new(c.name.clone(), t.unwrap_or(ColumnType::Any)))
            .collect();
        // Names unchanged, so construction cannot fail.
        self.schema = Schema::new(cols).expect("renaming-free schema rebuild");
    }

    /// Append a new column filled by `f(row_index, row)`.
    pub fn add_column(
        &mut self,
        column: Column,
        mut f: impl FnMut(usize, &Row) -> Value,
    ) -> Result<()> {
        let schema = self.schema.with_column(column)?;
        for (i, row) in self.rows.iter_mut().enumerate() {
            // Borrow trick: compute from the row before pushing onto it.
            let v = f(i, row);
            row.push(v);
        }
        self.schema = schema;
        Ok(())
    }

    /// A new table with rows sorted by the given comparator (stable).
    pub fn sorted_by(&self, mut cmp: impl FnMut(&Row, &Row) -> std::cmp::Ordering) -> Table {
        let mut rows = self.rows.clone();
        rows.sort_by(&mut cmp);
        Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            rows,
        }
    }

    /// Render as an ASCII grid (the demo's "browse result set" view).
    pub fn pretty(&self) -> String {
        let names = self.schema.names();
        let mut widths: Vec<usize> = names.iter().map(|n| n.chars().count()).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                r.values()
                    .iter()
                    .map(|v| {
                        if v.is_null() {
                            "·".to_string()
                        } else {
                            v.to_string()
                        }
                    })
                    .collect()
            })
            .collect();
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (n, w) in names.iter().zip(&widths) {
            out.push_str(&format!(" {n:<w$} |"));
        }
        out.push('\n');
        sep(&mut out);
        for row in &cells {
            out.push('|');
            for (c, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {c:<w$} |"));
            }
            out.push('\n');
        }
        sep(&mut out);
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} {} [{} rows]",
            self.name,
            self.schema,
            self.rows.len()
        )?;
        f.write_str(&self.pretty())
    }
}

/// Build a small [`Table`] literally, for tests and examples.
///
/// ```
/// use hummer_engine::table;
/// let t = table! {
///     "Students" => ["Name", "Age"];
///     ["Alice", 22],
///     ["Bob", ()],
/// };
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.schema().names(), vec!["Name", "Age"]);
/// ```
#[macro_export]
macro_rules! table {
    ($name:expr => [$($col:expr),+ $(,)?]; $([$($v:expr),* $(,)?]),* $(,)?) => {
        $crate::table::Table::from_rows(
            $name,
            &[$($col),+],
            vec![$($crate::row![$($v),*]),*],
        ).expect("literal table is well-formed")
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn students() -> Table {
        table! {
            "Students" => ["Name", "Age"];
            ["Alice", 22],
            ["Bob", 24],
            ["Carol", ()],
        }
    }

    #[test]
    fn literal_table_macro() {
        let t = students();
        assert_eq!(t.name(), "Students");
        assert_eq!(t.len(), 3);
        assert_eq!(t.cell(0, 0), &Value::text("Alice"));
        assert!(t.cell(2, 1).is_null());
    }

    #[test]
    fn arity_checked_on_push() {
        let mut t = students();
        assert!(t.push(row!["Dave"]).is_err());
        assert!(t.push(row!["Dave", 30]).is_ok());
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn type_inference() {
        let t = students();
        assert_eq!(t.schema().column(0).ctype, ColumnType::Text);
        assert_eq!(t.schema().column(1).ctype, ColumnType::Int);
    }

    #[test]
    fn inference_unifies_mixed_numeric() {
        let t = table! {
            "m" => ["x"];
            [1],
            [2.5],
        };
        assert_eq!(t.schema().column(0).ctype, ColumnType::Float);
    }

    #[test]
    fn all_null_column_stays_any() {
        let t = table! {
            "n" => ["x"];
            [()],
        };
        assert_eq!(t.schema().column(0).ctype, ColumnType::Any);
    }

    #[test]
    fn add_column_appends_values() {
        let mut t = students();
        t.add_column(Column::new("rowid", ColumnType::Int), |i, _| {
            Value::Int(i as i64)
        })
        .unwrap();
        assert_eq!(t.schema().names(), vec!["Name", "Age", "rowid"]);
        assert_eq!(t.cell(2, 2), &Value::Int(2));
    }

    #[test]
    fn add_column_rejects_duplicate_name() {
        let mut t = students();
        assert!(t
            .add_column(Column::any("name"), |_, _| Value::Null)
            .is_err());
    }

    #[test]
    fn pretty_renders_nulls_as_dot() {
        let p = students().pretty();
        assert!(p.contains("Alice"));
        assert!(p.contains('·'));
        assert!(p.starts_with('+'));
    }

    #[test]
    fn sorted_by_is_stable_and_nondestructive() {
        let t = students();
        let s = t.sorted_by(|a, b| a[1].cmp_total(&b[1]));
        assert_eq!(s.cell(0, 0), &Value::text("Alice"));
        assert!(s.cell(2, 1).is_null()); // NULL age sorts last
        assert_eq!(t.cell(0, 0), &Value::text("Alice")); // original untouched
    }

    #[test]
    fn resolve_names_table_in_error() {
        let e = students().resolve("GPA").unwrap_err();
        assert!(e.to_string().contains("Students"));
    }
}
