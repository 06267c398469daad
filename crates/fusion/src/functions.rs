//! The conflict resolution functions of paper §2.4.
//!
//! Each function consumes a [`ConflictContext`] (the full query context) and
//! produces a [`Resolved`] value plus the indices of the tuples that
//! contributed to it — the raw material for lineage tracking.
//!
//! Functions implemented (the paper's list, plus the standard SQL
//! aggregates it mentions): `CHOOSE(source)`, `COALESCE`, `FIRST`, `LAST`,
//! `VOTE`, `GROUP`, `CONCAT`, annotated `CONCAT`, `SHORTEST`, `LONGEST`,
//! `MOST RECENT`, `MIN`, `MAX`, `SUM`, `AVG`, `MEDIAN`, `COUNT`.
//!
//! A function that picks one tuple's value allocates nothing beyond the
//! value it returns: the context's accessors are iterators and a single
//! contributor travels inline (see [`Contributors`]).

use crate::context::ConflictContext;
use crate::error::FusionError;
use hummer_engine::Value;
use std::fmt::Write as _;

/// Result alias for resolution functions.
pub type Result<T> = std::result::Result<T, FusionError>;

/// The cluster-tuple indices that supplied a resolved value. Almost every
/// cell has none (all `NULL`) or one (a picked value), and those two cases
/// carry no heap allocation.
#[derive(Debug, Clone, Default)]
pub enum Contributors {
    /// No tuple contributed (a `NULL` cell, or a value made from nothing).
    #[default]
    None,
    /// Exactly one tuple contributed.
    One(usize),
    /// Several tuples contributed (votes, aggregates, concatenations).
    Many(Vec<usize>),
}

impl Contributors {
    /// The indices, in the order the function reported them.
    pub fn as_slice(&self) -> &[usize] {
        match self {
            Contributors::None => &[],
            Contributors::One(i) => std::slice::from_ref(i),
            Contributors::Many(v) => v,
        }
    }
}

impl PartialEq for Contributors {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<Vec<usize>> for Contributors {
    fn from(v: Vec<usize>) -> Self {
        match v.as_slice() {
            [] => Contributors::None,
            [i] => Contributors::One(*i),
            _ => Contributors::Many(v),
        }
    }
}

impl FromIterator<usize> for Contributors {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        match (iter.next(), iter.next()) {
            (None, _) => Contributors::None,
            (Some(i), None) => Contributors::One(i),
            (Some(i), Some(j)) => Contributors::Many([i, j].into_iter().chain(iter).collect()),
        }
    }
}

/// A resolved cell: the merged value and the cluster-tuple indices that
/// supplied it (empty when the value was synthesized from nothing).
#[derive(Debug, Clone, PartialEq)]
pub struct Resolved {
    /// The merged value.
    pub value: Value,
    /// Indices (within the cluster) of contributing tuples.
    pub contributors: Contributors,
}

impl Resolved {
    /// A resolved value with contributors (`vec![..]` converts).
    pub fn new(value: Value, contributors: impl Into<Contributors>) -> Self {
        Resolved {
            value,
            contributors: contributors.into(),
        }
    }

    /// `NULL`, contributed by nobody.
    pub fn null() -> Self {
        Resolved::new(Value::Null, Contributors::None)
    }

    /// Tuple `index`'s own value, picked unchanged.
    pub fn picked(index: usize, value: &Value) -> Self {
        Resolved::new(value.clone(), Contributors::One(index))
    }

    /// The outcome of a pick that may have found nothing.
    fn picked_or_null(pick: Option<(usize, &Value)>) -> Self {
        pick.map_or_else(Resolved::null, |(i, v)| Resolved::picked(i, v))
    }

    /// A synthesized value: derived from all tuples rather than taken from
    /// one (aggregates, concatenations).
    pub fn synthesized(value: Value, ctx: &ConflictContext<'_>) -> Self {
        Resolved {
            value,
            contributors: ctx.non_null_values().map(|(i, _)| i).collect(),
        }
    }
}

/// A conflict resolution function.
///
/// "Conflict resolution is implemented as user defined aggregation"
/// (§2.4) — implementors get the whole context, not just the value list,
/// and the registry makes the system extensible ("of course HumMer is
/// extensible and new functions can be added").
pub trait ResolutionFunction: Send + Sync {
    /// Canonical lowercase name (what Fuse By queries call).
    fn name(&self) -> &str;

    /// Merge one column of one cluster.
    fn resolve(&self, ctx: &ConflictContext<'_>) -> Result<Resolved>;
}

/// How [`Vote`] breaks ties between equally frequent values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// The value whose first occurrence comes earliest (deterministic
    /// stand-in for the paper's "choosing randomly").
    #[default]
    FirstSeen,
    /// The smallest value under the engine's total order.
    Least,
    /// The largest value under the engine's total order.
    Greatest,
}

// ---------------------------------------------------------------------------
// Value-picking functions
// ---------------------------------------------------------------------------

/// `COALESCE` — the first non-null value (the Fuse By default).
#[derive(Debug, Default, Clone, Copy)]
pub struct Coalesce;

impl ResolutionFunction for Coalesce {
    fn name(&self) -> &str {
        "coalesce"
    }
    fn resolve(&self, ctx: &ConflictContext<'_>) -> Result<Resolved> {
        Ok(Resolved::picked_or_null(ctx.non_null_values().next()))
    }
}

/// `FIRST` — the first value, "even if it is a null value".
#[derive(Debug, Default, Clone, Copy)]
pub struct First;

impl ResolutionFunction for First {
    fn name(&self) -> &str {
        "first"
    }
    fn resolve(&self, ctx: &ConflictContext<'_>) -> Result<Resolved> {
        Ok(Resolved::picked_or_null(ctx.values().enumerate().next()))
    }
}

/// `LAST` — the last value, even if null.
#[derive(Debug, Default, Clone, Copy)]
pub struct Last;

impl ResolutionFunction for Last {
    fn name(&self) -> &str {
        "last"
    }
    fn resolve(&self, ctx: &ConflictContext<'_>) -> Result<Resolved> {
        let last = ctx.len().checked_sub(1);
        Ok(Resolved::picked_or_null(
            last.map(|i| (i, &ctx.rows[i][ctx.column_index])),
        ))
    }
}

/// `CHOOSE(source)` — the value supplied by a specific source.
#[derive(Debug, Clone)]
pub struct Choose {
    /// The preferred source alias.
    pub source: String,
}

impl ResolutionFunction for Choose {
    fn name(&self) -> &str {
        "choose"
    }
    fn resolve(&self, ctx: &ConflictContext<'_>) -> Result<Resolved> {
        // First non-null value from the chosen source; NULL when the source
        // contributed nothing.
        let pick = ctx
            .rows_from_source(&self.source)
            .map(|i| (i, &ctx.rows[i][ctx.column_index]))
            .find(|(_, v)| !v.is_null());
        Ok(Resolved::picked_or_null(pick))
    }
}

/// `VOTE` — the most frequent non-null value; ties broken per [`TieBreak`].
#[derive(Debug, Default, Clone, Copy)]
pub struct Vote {
    /// Tie-breaking strategy.
    pub tie_break: TieBreak,
}

impl ResolutionFunction for Vote {
    fn name(&self) -> &str {
        "vote"
    }
    fn resolve(&self, ctx: &ConflictContext<'_>) -> Result<Resolved> {
        // Count occurrences of each distinct value, in first-seen order.
        let mut groups: Vec<(&Value, usize)> = Vec::new();
        for (_, v) in ctx.non_null_values() {
            match groups.iter_mut().find(|(g, _)| g.group_eq(v)) {
                Some((_, count)) => *count += 1,
                None => groups.push((v, 1)),
            }
        }
        let max_count = groups.iter().map(|&(_, n)| n).max().unwrap_or(0);
        let mut tied = groups.iter().filter(|&&(_, n)| n == max_count);
        let winner = match self.tie_break {
            TieBreak::FirstSeen => tied.next(),
            TieBreak::Least => tied.min_by(|a, b| a.0.cmp_total(b.0)),
            TieBreak::Greatest => tied.max_by(|a, b| a.0.cmp_total(b.0)),
        };
        let Some(&(value, _)) = winner else {
            return Ok(Resolved::null());
        };
        // A value votes for the first group it equals, as it was counted.
        let voters = ctx
            .non_null_values()
            .filter(|(_, v)| {
                let joined = groups.iter().find(|(g, _)| g.group_eq(v));
                joined.is_some_and(|&(g, _)| std::ptr::eq(g, value))
            })
            .map(|(i, _)| i);
        Ok(Resolved::new(
            value.clone(),
            voters.collect::<Contributors>(),
        ))
    }
}

/// Characters in a value's rendered form (text needs no rendering).
fn rendered_chars(v: &Value) -> usize {
    match v {
        Value::Text(s) => s.chars().count(),
        other => other.to_string().chars().count(),
    }
}

/// `SHORTEST` / `LONGEST` — the value of minimum/maximum length under the
/// character-count length measure.
#[derive(Debug, Clone, Copy)]
pub struct ByLength {
    /// True → `LONGEST`, false → `SHORTEST`.
    pub longest: bool,
}

impl ResolutionFunction for ByLength {
    fn name(&self) -> &str {
        if self.longest {
            "longest"
        } else {
            "shortest"
        }
    }
    fn resolve(&self, ctx: &ConflictContext<'_>) -> Result<Resolved> {
        // The first value of strictly best length wins.
        let best = ctx
            .non_null_values()
            .map(|(i, v)| (i, v, rendered_chars(v)))
            .reduce(|acc, cur| {
                let better = if self.longest {
                    cur.2 > acc.2
                } else {
                    cur.2 < acc.2
                };
                if better {
                    cur
                } else {
                    acc
                }
            });
        Ok(Resolved::picked_or_null(best.map(|(i, v, _)| (i, v))))
    }
}

/// `MOST RECENT` — "recency is evaluated with the help of another attribute
/// or other metadata": picks the value whose tuple has the greatest value in
/// `recency_column` (typically a date). Tuples with `NULL` recency lose to
/// any dated tuple; ties go to the earlier tuple.
#[derive(Debug, Clone)]
pub struct MostRecent {
    /// The companion attribute carrying recency (date or numeric).
    pub recency_column: String,
}

impl ResolutionFunction for MostRecent {
    fn name(&self) -> &str {
        "mostrecent"
    }
    fn resolve(&self, ctx: &ConflictContext<'_>) -> Result<Resolved> {
        let Some(recency) = ctx.schema.index_of(&self.recency_column) else {
            return Err(FusionError::BadArgument(format!(
                "MOST RECENT: no such recency column `{}`",
                self.recency_column
            )));
        };
        let best = ctx
            .non_null_values()
            .map(|(i, v)| (i, v, &ctx.rows[i][recency]))
            .max_by(|a, b| {
                // NULL recency sorts lowest; then engine order; earlier
                // tuple wins ties (max_by keeps the last maximal → compare
                // index descending as final key).
                let rec_ord = match (a.2.is_null(), b.2.is_null()) {
                    (true, true) => std::cmp::Ordering::Equal,
                    (true, false) => std::cmp::Ordering::Less,
                    (false, true) => std::cmp::Ordering::Greater,
                    (false, false) => a.2.cmp_total(b.2),
                };
                rec_ord.then(b.0.cmp(&a.0))
            });
        Ok(Resolved::picked_or_null(best.map(|(i, v, _)| (i, v))))
    }
}

// ---------------------------------------------------------------------------
// Value-synthesizing functions
// ---------------------------------------------------------------------------

/// `GROUP` — "returns a set of all conflicting values and leaves resolution
/// to the user". Rendered as `{v1, v2, …}` over the distinct non-null
/// values in first-seen order.
#[derive(Debug, Default, Clone, Copy)]
pub struct Group;

impl ResolutionFunction for Group {
    fn name(&self) -> &str {
        "group"
    }
    fn resolve(&self, ctx: &ConflictContext<'_>) -> Result<Resolved> {
        let Some(first) = ctx.non_null_values().next() else {
            return Ok(Resolved::null());
        };
        let mut distinct: Vec<&Value> = Vec::new();
        for (_, v) in ctx.non_null_values() {
            if !distinct.iter().any(|d| d.group_eq(v)) {
                distinct.push(v);
            }
        }
        if distinct.len() == 1 {
            // No conflict: hand back the single value unchanged.
            return Ok(Resolved::picked(first.0, first.1));
        }
        let mut set = String::from("{");
        for (k, v) in distinct.iter().enumerate() {
            if k > 0 {
                set.push_str(", ");
            }
            let _ = write!(set, "{v}");
        }
        set.push('}');
        Ok(Resolved::synthesized(Value::Text(set), ctx))
    }
}

/// `CONCAT` / annotated `CONCAT` — all non-null values joined by a
/// separator; the annotated form appends each value's source
/// ("including annotations, such as the data source").
#[derive(Debug, Clone)]
pub struct Concat {
    /// Separator between values.
    pub separator: String,
    /// Append `[source]` annotations.
    pub annotated: bool,
}

impl Default for Concat {
    fn default() -> Self {
        Concat {
            separator: " | ".into(),
            annotated: false,
        }
    }
}

impl ResolutionFunction for Concat {
    fn name(&self) -> &str {
        if self.annotated {
            "annotatedconcat"
        } else {
            "concat"
        }
    }
    fn resolve(&self, ctx: &ConflictContext<'_>) -> Result<Resolved> {
        let mut joined = String::new();
        let mut any = false;
        for (i, v) in ctx.non_null_values() {
            if any {
                joined.push_str(&self.separator);
            }
            any = true;
            let _ = write!(joined, "{v}");
            if self.annotated {
                let _ = write!(joined, " [{}]", ctx.source_ids[i].unwrap_or("?"));
            }
        }
        if !any {
            return Ok(Resolved::null());
        }
        Ok(Resolved::synthesized(Value::Text(joined), ctx))
    }
}

/// The numeric/ordering aggregates the paper inherits from SQL:
/// `MIN`, `MAX`, `SUM`, `AVG`, `MEDIAN`, `COUNT`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumericAggregate {
    /// Smallest non-null value (any type, engine order).
    Min,
    /// Largest non-null value.
    Max,
    /// Sum of numeric values.
    Sum,
    /// Mean of numeric values.
    Avg,
    /// Median of numeric values (midpoint average for even counts).
    Median,
    /// Count of non-null values.
    Count,
}

impl ResolutionFunction for NumericAggregate {
    fn name(&self) -> &str {
        match self {
            NumericAggregate::Min => "min",
            NumericAggregate::Max => "max",
            NumericAggregate::Sum => "sum",
            NumericAggregate::Avg => "avg",
            NumericAggregate::Median => "median",
            NumericAggregate::Count => "count",
        }
    }

    fn resolve(&self, ctx: &ConflictContext<'_>) -> Result<Resolved> {
        let non_null = ctx.non_null_values();
        match self {
            NumericAggregate::Count => Ok(Resolved::synthesized(
                Value::Int(non_null.count() as i64),
                ctx,
            )),
            // Among equal values `min_by` keeps the first and `max_by` the
            // last, as they always have here.
            NumericAggregate::Min => Ok(Resolved::picked_or_null(
                non_null.min_by(|a, b| a.1.cmp_total(b.1)),
            )),
            NumericAggregate::Max => Ok(Resolved::picked_or_null(
                non_null.max_by(|a, b| a.1.cmp_total(b.1)),
            )),
            NumericAggregate::Sum | NumericAggregate::Avg | NumericAggregate::Median => {
                let mut nums = Vec::with_capacity(ctx.len());
                let mut all_int = true;
                for (_, v) in non_null {
                    match v {
                        Value::Int(i) => nums.push(*i as f64),
                        Value::Float(f) => {
                            all_int = false;
                            nums.push(*f);
                        }
                        other => {
                            return Err(FusionError::TypeError(format!(
                                "{} over non-numeric value `{other}` in column `{}`",
                                self.name().to_uppercase(),
                                ctx.column
                            )))
                        }
                    }
                }
                if nums.is_empty() {
                    return Ok(Resolved::null());
                }
                let value = match self {
                    NumericAggregate::Sum => {
                        let s: f64 = nums.iter().sum();
                        if all_int {
                            Value::Int(s as i64)
                        } else {
                            Value::Float(s)
                        }
                    }
                    NumericAggregate::Avg => {
                        Value::Float(nums.iter().sum::<f64>() / nums.len() as f64)
                    }
                    NumericAggregate::Median => {
                        nums.sort_by(f64::total_cmp);
                        let n = nums.len();
                        let m = if n % 2 == 1 {
                            nums[n / 2]
                        } else {
                            (nums[n / 2 - 1] + nums[n / 2]) / 2.0
                        };
                        if all_int && m.fract() == 0.0 {
                            Value::Int(m as i64)
                        } else {
                            Value::Float(m)
                        }
                    }
                    _ => unreachable!(),
                };
                Ok(Resolved::synthesized(value, ctx))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TestCluster;
    use hummer_engine::{row, Row, Schema};

    fn schema() -> Schema {
        Schema::of_names(&["Name", "Age", "Updated", "sourceID"]).unwrap()
    }

    fn rows() -> Vec<Row> {
        vec![
            row![
                "Jon Smith",
                33,
                hummer_engine::Date::parse("2005-01-10").unwrap(),
                "A"
            ],
            row![
                "John Smith",
                34,
                hummer_engine::Date::parse("2005-03-02").unwrap(),
                "B"
            ],
            row![(), 34, (), "C"],
        ]
    }

    /// Resolve a column of the cluster made of all the given rows.
    trait ResolveOn: ResolutionFunction {
        fn resolve_on(&self, schema: &Schema, rows: &[Row], col: usize) -> Result<Resolved> {
            self.resolve(&TestCluster::new(rows, 3).ctx(schema, col))
        }
    }
    impl<F: ResolutionFunction> ResolveOn for F {}

    #[test]
    fn coalesce_takes_first_non_null() {
        let s = schema();
        let r = rows();
        let out = Coalesce.resolve_on(&s, &r, 0).unwrap();
        assert_eq!(out.value, Value::text("Jon Smith"));
        assert_eq!(out.contributors.as_slice(), [0]);
    }

    #[test]
    fn coalesce_all_null_is_null() {
        let s = schema();
        let r = vec![row![(), (), (), "A"]];
        let out = Coalesce.resolve_on(&s, &r, 0).unwrap();
        assert!(out.value.is_null());
        assert!(out.contributors.as_slice().is_empty());
    }

    #[test]
    fn first_takes_null_too() {
        let s = schema();
        let r = vec![row![(), 1, (), "A"], row!["x", 2, (), "B"]];
        let out = First.resolve_on(&s, &r, 0).unwrap();
        assert!(
            out.value.is_null(),
            "FIRST must take the first value even if NULL"
        );
        let last = Last.resolve_on(&s, &r, 0).unwrap();
        assert_eq!(last.value, Value::text("x"));
        assert_eq!(last.contributors.as_slice(), [1]);
    }

    #[test]
    fn choose_prefers_named_source() {
        let s = schema();
        let r = rows();
        let out = Choose { source: "B".into() }.resolve_on(&s, &r, 1).unwrap();
        assert_eq!(out.value, Value::Int(34));
        assert_eq!(out.contributors.as_slice(), [1]);
        // Source with only a NULL in this column → NULL.
        let none = Choose { source: "C".into() }.resolve_on(&s, &r, 0).unwrap();
        assert!(none.value.is_null());
        // Unknown source → NULL.
        let unk = Choose {
            source: "ZZ".into(),
        }
        .resolve_on(&s, &r, 0)
        .unwrap();
        assert!(unk.value.is_null());
    }

    #[test]
    fn vote_majority_and_ties() {
        let s = schema();
        let r = rows();
        let out = Vote::default().resolve_on(&s, &r, 1).unwrap();
        assert_eq!(out.value, Value::Int(34)); // 34 appears twice
        assert_eq!(out.contributors.as_slice(), [1, 2]);

        // Tie: 33 and 34 once each → FirstSeen picks 33, Greatest picks 34.
        let r2 = vec![row!["a", 33, (), "A"], row!["b", 34, (), "B"]];
        let first = Vote {
            tie_break: TieBreak::FirstSeen,
        }
        .resolve_on(&s, &r2, 1)
        .unwrap();
        assert_eq!(first.value, Value::Int(33));
        let hi = Vote {
            tie_break: TieBreak::Greatest,
        }
        .resolve_on(&s, &r2, 1)
        .unwrap();
        assert_eq!(hi.value, Value::Int(34));
        let lo = Vote {
            tie_break: TieBreak::Least,
        }
        .resolve_on(&s, &r2, 1)
        .unwrap();
        assert_eq!(lo.value, Value::Int(33));
    }

    #[test]
    fn shortest_longest() {
        let s = schema();
        let r = rows();
        let sh = ByLength { longest: false }.resolve_on(&s, &r, 0).unwrap();
        assert_eq!(sh.value, Value::text("Jon Smith"));
        let lo = ByLength { longest: true }.resolve_on(&s, &r, 0).unwrap();
        assert_eq!(lo.value, Value::text("John Smith"));
    }

    #[test]
    fn most_recent_follows_companion_date() {
        let s = schema();
        let r = rows();
        let f = MostRecent {
            recency_column: "Updated".into(),
        };
        let out = f.resolve_on(&s, &r, 1).unwrap();
        // Row 1 has the latest Updated and Age 34.
        assert_eq!(out.value, Value::Int(34));
        assert_eq!(out.contributors.as_slice(), [1]);
    }

    #[test]
    fn most_recent_null_recency_loses() {
        let s = schema();
        let r = vec![
            row![
                "old",
                1,
                hummer_engine::Date::parse("2001-01-01").unwrap(),
                "A"
            ],
            row!["undated", 2, (), "B"],
        ];
        let f = MostRecent {
            recency_column: "Updated".into(),
        };
        let out = f.resolve_on(&s, &r, 0).unwrap();
        assert_eq!(out.value, Value::text("old"));
    }

    #[test]
    fn most_recent_missing_column_errors() {
        let s = schema();
        let r = rows();
        let f = MostRecent {
            recency_column: "zz".into(),
        };
        assert!(f.resolve_on(&s, &r, 0).is_err());
    }

    #[test]
    fn group_renders_distinct_set() {
        let s = schema();
        let r = rows();
        let out = Group.resolve_on(&s, &r, 1).unwrap();
        assert_eq!(out.value, Value::text("{33, 34}"));
        // Single distinct value passes through un-bracketed.
        let single = vec![row!["x", 7, (), "A"], row!["y", 7, (), "B"]];
        let out1 = Group.resolve_on(&s, &single, 1).unwrap();
        assert_eq!(out1.value, Value::Int(7));
    }

    #[test]
    fn concat_plain_and_annotated() {
        let s = schema();
        let r = rows();
        let plain = Concat::default().resolve_on(&s, &r, 1).unwrap();
        assert_eq!(plain.value, Value::text("33 | 34 | 34"));
        let ann = Concat {
            separator: "; ".into(),
            annotated: true,
        }
        .resolve_on(&s, &r, 1)
        .unwrap();
        assert_eq!(ann.value, Value::text("33 [A]; 34 [B]; 34 [C]"));
    }

    #[test]
    fn numeric_aggregates() {
        let s = schema();
        let r = rows();
        let cluster = TestCluster::new(&r, 3);
        let c = cluster.ctx(&s, 1);
        assert_eq!(
            NumericAggregate::Min.resolve(&c).unwrap().value,
            Value::Int(33)
        );
        assert_eq!(
            NumericAggregate::Max.resolve(&c).unwrap().value,
            Value::Int(34)
        );
        assert_eq!(
            NumericAggregate::Sum.resolve(&c).unwrap().value,
            Value::Int(101)
        );
        assert_eq!(
            NumericAggregate::Avg.resolve(&c).unwrap().value,
            Value::Float(101.0 / 3.0)
        );
        assert_eq!(
            NumericAggregate::Median.resolve(&c).unwrap().value,
            Value::Int(34)
        );
        assert_eq!(
            NumericAggregate::Count.resolve(&c).unwrap().value,
            Value::Int(3)
        );
    }

    #[test]
    fn median_even_count_averages() {
        let s = schema();
        let r = vec![row!["a", 1, (), "A"], row!["b", 4, (), "B"]];
        let out = NumericAggregate::Median.resolve_on(&s, &r, 1).unwrap();
        assert_eq!(out.value, Value::Float(2.5));
    }

    #[test]
    fn sum_over_text_errors() {
        let s = schema();
        let r = rows();
        let e = NumericAggregate::Sum.resolve_on(&s, &r, 0);
        assert!(e.is_err());
    }

    #[test]
    fn aggregates_of_empty_cluster_are_null() {
        let s = schema();
        let cluster = TestCluster::new(&[], 3);
        let c = cluster.ctx(&s, 1);
        assert!(NumericAggregate::Sum.resolve(&c).unwrap().value.is_null());
        assert!(NumericAggregate::Min.resolve(&c).unwrap().value.is_null());
        assert_eq!(
            NumericAggregate::Count.resolve(&c).unwrap().value,
            Value::Int(0)
        );
        assert!(Vote::default().resolve(&c).unwrap().value.is_null());
        assert!(Group.resolve(&c).unwrap().value.is_null());
        assert!(Concat::default().resolve(&c).unwrap().value.is_null());
    }
}
