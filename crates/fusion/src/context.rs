//! The *query context* a conflict resolution function sees.
//!
//! Paper §2.4: "the concept of conflict resolution is more general than the
//! concept of aggregation, because it uses the entire query context to
//! resolve conflicts. The query context consists not only of the conflicting
//! values themselves, but also of the corresponding tuples, all the
//! remaining column values, and other metadata, such as column name or table
//! name."
//!
//! The context owns nothing: `rows` and `source_ids` borrow scratch that the
//! fusion loop refills once per cluster, and the accessors are iterators, so
//! looking at a cell allocates nothing.

use hummer_engine::{Row, Schema, Value};

/// Everything a resolution function may consult when merging one column of
/// one duplicate cluster.
#[derive(Debug, Clone, Copy)]
pub struct ConflictContext<'a> {
    /// Name of the table being fused.
    pub table_name: &'a str,
    /// Schema of the (pre-fusion) table.
    pub schema: &'a Schema,
    /// Name of the column being resolved.
    pub column: &'a str,
    /// Index of that column.
    pub column_index: usize,
    /// The cluster's full tuples, in input order.
    pub rows: &'a [&'a Row],
    /// Source alias per tuple (from the `sourceID` column), when present.
    pub source_ids: &'a [Option<&'a str>],
}

impl<'a> ConflictContext<'a> {
    /// The conflicting values themselves (this column of every tuple,
    /// `NULL`s included), in input order.
    pub fn values(&self) -> impl Iterator<Item = &'a Value> + 'a {
        let col = self.column_index;
        self.rows.iter().map(move |r| &r[col])
    }

    /// The non-`NULL` values with the index of the tuple that supplied each.
    pub fn non_null_values(&self) -> impl Iterator<Item = (usize, &'a Value)> + 'a {
        self.values().enumerate().filter(|(_, v)| !v.is_null())
    }

    /// Whether this column is in *conflict*: more than one distinct
    /// non-null value across the cluster.
    pub fn is_conflict(&self) -> bool {
        let mut non_null = self.non_null_values();
        match non_null.next() {
            None => false,
            Some((_, first)) => non_null.any(|(_, v)| !v.group_eq(first)),
        }
    }

    /// The value another column takes in tuple `row` (for functions like
    /// `MOST RECENT` that consult companion attributes).
    pub fn companion_value(&self, row: usize, column: &str) -> Option<&'a Value> {
        let idx = self.schema.index_of(column)?;
        self.rows.get(row).map(|r| &r[idx])
    }

    /// Tuple indices supplied by the given source alias.
    pub fn rows_from_source<'s>(&self, source: &'s str) -> impl Iterator<Item = usize> + 's
    where
        'a: 's,
    {
        self.source_ids
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.is_some_and(|alias| alias.eq_ignore_ascii_case(source)))
            .map(|(i, _)| i)
    }

    /// Number of tuples in the cluster.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the cluster is empty (does not occur during fusion but
    /// keeps the API total).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Owned rows and sources a test context borrows from.
#[cfg(test)]
pub(crate) struct TestCluster<'a> {
    pub(crate) rows: Vec<&'a Row>,
    pub(crate) sources: Vec<Option<&'a str>>,
}

#[cfg(test)]
impl<'a> TestCluster<'a> {
    /// The cluster made of all of `rows`, sources read from `source_col`.
    pub(crate) fn new(rows: &'a [Row], source_col: usize) -> Self {
        TestCluster {
            rows: rows.iter().collect(),
            sources: rows
                .iter()
                .map(|r| match &r[source_col] {
                    Value::Text(s) => Some(s.as_str()),
                    _ => None,
                })
                .collect(),
        }
    }

    /// The context of column `col`.
    pub(crate) fn ctx(&'a self, schema: &'a Schema, col: usize) -> ConflictContext<'a> {
        ConflictContext {
            table_name: "T",
            schema,
            column: schema.column(col).name.as_str(),
            column_index: col,
            rows: &self.rows,
            source_ids: &self.sources,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hummer_engine::{row, Schema};

    fn schema() -> Schema {
        Schema::of_names(&["Name", "Age", "sourceID"]).unwrap()
    }

    fn rows() -> Vec<Row> {
        vec![
            row!["John", 33, "A"],
            row!["John", 34, "B"],
            row!["John", (), "C"],
        ]
    }

    #[test]
    fn values_preserve_order_and_nulls() {
        let s = schema();
        let r = rows();
        let cluster = TestCluster::new(&r, 2);
        let vals: Vec<&Value> = cluster.ctx(&s, 1).values().collect();
        assert_eq!(vals.len(), 3);
        assert!(vals[2].is_null());
    }

    #[test]
    fn non_null_values_carry_row_indices() {
        let s = schema();
        let r = rows();
        let cluster = TestCluster::new(&r, 2);
        let nn: Vec<(usize, &Value)> = cluster.ctx(&s, 1).non_null_values().collect();
        assert_eq!(nn.len(), 2);
        assert_eq!(nn[0].0, 0);
        assert_eq!(nn[1].0, 1);
    }

    #[test]
    fn conflict_detection() {
        let s = schema();
        let r = rows();
        let cluster = TestCluster::new(&r, 2);
        assert!(cluster.ctx(&s, 1).is_conflict()); // 33 vs 34
        assert!(!cluster.ctx(&s, 0).is_conflict()); // all "John"
    }

    #[test]
    fn null_against_value_is_not_conflict() {
        let s = schema();
        let r = vec![row!["John", 33, "A"], row!["John", (), "B"]];
        let cluster = TestCluster::new(&r, 2);
        assert!(!cluster.ctx(&s, 1).is_conflict()); // subsumption, not conflict
    }

    #[test]
    fn companion_and_source_lookup() {
        let s = schema();
        let r = rows();
        let cluster = TestCluster::new(&r, 2);
        let c = cluster.ctx(&s, 1);
        assert_eq!(c.companion_value(1, "Name"), Some(&Value::text("John")));
        assert_eq!(c.companion_value(1, "nope"), None);
        assert_eq!(c.rows_from_source("b").collect::<Vec<_>>(), vec![1]);
        assert_eq!(c.rows_from_source("zz").count(), 0);
    }
}
