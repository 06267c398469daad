//! Executor for parsed Fuse By queries.
//!
//! Execution order mirrors the paper's semantics:
//!
//! 1. fetch the referenced tables from the catalog,
//! 2. combine them — `FUSE FROM` tags each table with `sourceID` and takes
//!    the **full outer union** (columns aligned by name; the full pipeline
//!    in `hummer-core` runs schema matching first so corresponding columns
//!    already share names), plain `FROM` takes the cross product (join
//!    predicates live in `WHERE`),
//! 3. apply `WHERE`,
//! 4. `FUSE BY` runs the fusion operator with the `RESOLVE` specifications
//!    from the select list (default `COALESCE`), or plain `GROUP BY` runs
//!    SQL aggregation,
//! 5. apply `HAVING`, then `ORDER BY`,
//! 6. project the select list (wildcard expands to all source attributes —
//!    bookkeeping columns are kept out of `*` for fusion queries).

use crate::ast::{FuseQuery, SelectItem};
use crate::catalog::Catalog;
use crate::error::{QueryError, Result};
use crate::parser::parse;
use hummer_engine::ops::{
    cross_product, group_by, outer_union, select as filter_rows, sort, AggFunc, Aggregate, SortKey,
};
use hummer_engine::{Column, ColumnType, Expr, Schema, Table, Value};
use hummer_fusion::{
    fuse as run_fusion, FunctionRegistry, FusedTable, FusionSpec, Lineage, Parallelism,
    ResolutionSpec, SampleConflict,
};
use std::borrow::Cow;
use std::collections::HashMap;

/// Bookkeeping columns excluded from `*` expansion in fusion queries.
const BOOKKEEPING: [&str; 2] = ["sourceID", "objectID"];

/// Detailed fusion by-products of a query (intermediate fused table,
/// lineage, conflict samples) — what the demo GUI visualizes.
#[derive(Debug, Clone)]
pub struct FusionInfo {
    /// The fused table before `HAVING`/`ORDER BY`/projection.
    pub fused_table: Table,
    /// Per-cell lineage of `fused_table`.
    pub lineage: Lineage,
    /// Sampled conflicts.
    pub sample_conflicts: Vec<SampleConflict>,
    /// Total resolved conflicts.
    pub conflict_count: usize,
}

/// Result of executing a query.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// The final result table.
    pub table: Table,
    /// Fusion by-products, when the query fused.
    pub fusion: Option<FusionInfo>,
}

/// Parse and execute a Fuse By query against a catalog.
pub fn run_query(
    sql: &str,
    catalog: &dyn Catalog,
    registry: &FunctionRegistry,
) -> Result<QueryOutput> {
    let q = parse(sql)?;
    execute(&q, catalog, registry)
}

/// Execute a parsed query.
pub fn execute(
    query: &FuseQuery,
    catalog: &dyn Catalog,
    registry: &FunctionRegistry,
) -> Result<QueryOutput> {
    // 1. Fetch tables.
    let mut tables: Vec<Table> = Vec::with_capacity(query.from.tables.len());
    for alias in &query.from.tables {
        let t = catalog
            .table(alias)
            .ok_or_else(|| QueryError::UnknownTable(alias.clone()))?;
        tables.push(t.clone());
    }
    let combined = combine_tables(query, &tables)?;
    execute_combined(query, &combined, registry, Parallelism::sequential())
}

/// Step 2 of execution: combine the fetched tables — `FUSE FROM` tags each
/// with `sourceID` and takes the full outer union, plain `FROM` takes the
/// cross product.
fn combine_tables(query: &FuseQuery, tables: &[Table]) -> Result<Table> {
    if tables.is_empty() {
        return Err(QueryError::Semantic("query references no tables".into()));
    }
    let combined: Table = if query.from.fuse {
        // FUSE FROM: sourceID + full outer union.
        let tagged: Vec<Table> = tables
            .iter()
            .map(|t| {
                if t.schema().contains("sourceID") {
                    Ok(t.clone())
                } else {
                    let mut c = t.clone();
                    c.add_column(Column::new("sourceID", ColumnType::Text), |_, _| {
                        Value::text(t.name())
                    })?;
                    Ok::<Table, QueryError>(c)
                }
            })
            .collect::<Result<_>>()?;
        let refs: Vec<&Table> = tagged.iter().collect();
        outer_union(&refs, tables[0].name())?
    } else {
        let mut acc = tables[0].clone();
        for t in &tables[1..] {
            acc = cross_product(&acc, t)?;
        }
        acc
    };
    Ok(combined)
}

/// Steps 3–6 of execution, starting from an already-combined table: `WHERE`,
/// `FUSE BY`/`GROUP BY`, `HAVING`, `ORDER BY`, projection.
///
/// `combined` must carry the columns the query references; for fusion
/// queries that is the `sourceID`-tagged outer union (extra bookkeeping
/// columns such as a precomputed `objectID` are welcome — they stay out of
/// `*` expansion and are available as `FUSE BY` keys). Borrowed, not owned:
/// a serving layer replays many queries against one cached table, and the
/// hot (cache-hit) path must not pay an O(rows × cols) copy per query.
///
/// A `FUSE BY` clause resolves disjoint duplicate clusters on up to
/// `par.get()` threads (identical output for every degree; see
/// `hummer_par`'s determinism contract). This is the knob a serving layer
/// sets per request so its worker pool and intra-query threads compose
/// without oversubscription.
pub fn execute_combined(
    query: &FuseQuery,
    combined: &Table,
    registry: &FunctionRegistry,
    par: Parallelism,
) -> Result<QueryOutput> {
    // 3. WHERE.
    let filtered;
    let combined: &Table = match &query.where_clause {
        Some(pred) => {
            filtered = filter_rows(combined, pred)?;
            &filtered
        }
        None => combined,
    };

    // Alias map: select-list alias → underlying column name (for HAVING /
    // ORDER BY references).
    let alias_map = build_alias_map(query);

    // 4. FUSE BY or GROUP BY. Every later step reads `current`; only steps
    // that make a new table own one, so a fused table is projected from a
    // borrow and then moved into the `FusionInfo` whole.
    let mut fused: Option<FusedTable> = None;
    let mut current: Cow<'_, Table> = if let Some(keys) = &query.fuse_by {
        let mut spec = FusionSpec::by_key(keys.clone()).with_parallelism(par);
        let mut resolved_cols: Vec<String> = Vec::new();
        for (col, rspec) in query.resolutions() {
            let key = col.to_ascii_lowercase();
            if resolved_cols.contains(&key) {
                return Err(QueryError::Semantic(format!(
                    "column `{col}` is RESOLVEd more than once; a fused column \
                     has exactly one resolution function"
                )));
            }
            resolved_cols.push(key);
            let rs = rspec
                .cloned()
                .unwrap_or_else(|| ResolutionSpec::named("coalesce"));
            spec = spec.resolve(col, rs);
        }
        Cow::Borrowed(&fused.insert(run_fusion(combined, &spec, registry)?).table)
    } else if !query.group_by.is_empty() {
        let aggs = collect_aggregates(query)?;
        let keys: Vec<&str> = query.group_by.iter().map(String::as_str).collect();
        Cow::Owned(group_by(combined, &keys, &aggs)?)
    } else if query
        .select
        .iter()
        .any(|i| matches!(i, SelectItem::Aggregate { .. }))
    {
        // Global aggregation without GROUP BY.
        let aggs = collect_aggregates(query)?;
        Cow::Owned(group_by(combined, &[], &aggs)?)
    } else {
        // Plain pass-through (incl. FUSE FROM without FUSE BY: the aligned
        // outer union itself).
        Cow::Borrowed(combined)
    };

    // 5. HAVING, then ORDER BY (aliases resolved against the select list).
    if let Some(having) = &query.having {
        let rewritten = rewrite_aliases(having, &alias_map, &current);
        current = Cow::Owned(filter_rows(&current, &rewritten)?);
    }
    if !query.order_by.is_empty() {
        let keys: Vec<SortKey> = query
            .order_by
            .iter()
            .map(|k| {
                let col = resolve_name(&k.column, &alias_map, &current);
                SortKey {
                    column: col,
                    ascending: k.ascending,
                }
            })
            .collect();
        current = Cow::Owned(sort(&current, &keys)?);
    }

    // 6. Projection.
    let table = project_select(query, current)?;
    Ok(QueryOutput {
        table,
        fusion: fused.map(|fused| FusionInfo {
            fused_table: fused.table,
            lineage: fused.lineage,
            sample_conflicts: fused.sample_conflicts,
            conflict_count: fused.conflict_count,
        }),
    })
}

/// alias (lowercase) → underlying column name.
fn build_alias_map(query: &FuseQuery) -> HashMap<String, String> {
    let mut m = HashMap::new();
    for item in &query.select {
        match item {
            SelectItem::Column {
                name,
                alias: Some(a),
            } => {
                m.insert(a.to_ascii_lowercase(), name.clone());
            }
            SelectItem::Resolve {
                column,
                alias: Some(a),
                ..
            } => {
                m.insert(a.to_ascii_lowercase(), column.clone());
            }
            SelectItem::Aggregate {
                function,
                column,
                alias: Some(a),
            } => {
                m.insert(
                    a.to_ascii_lowercase(),
                    default_agg_name(function, column.as_deref()),
                );
            }
            _ => {}
        }
    }
    m
}

/// Resolve a possibly-aliased name against the current table.
fn resolve_name(name: &str, aliases: &HashMap<String, String>, table: &Table) -> String {
    if table.schema().contains(name) {
        return name.to_string();
    }
    aliases
        .get(&name.to_ascii_lowercase())
        .cloned()
        .unwrap_or_else(|| name.to_string())
}

/// Rewrite column references in an expression through the alias map when
/// the column does not exist in the table directly.
fn rewrite_aliases(expr: &Expr, aliases: &HashMap<String, String>, table: &Table) -> Expr {
    use Expr::*;
    match expr {
        Column(name) => Column(resolve_name(name, aliases, table)),
        Literal(v) => Literal(v.clone()),
        Cmp(op, l, r) => Cmp(
            *op,
            Box::new(rewrite_aliases(l, aliases, table)),
            Box::new(rewrite_aliases(r, aliases, table)),
        ),
        Arith(op, l, r) => Arith(
            *op,
            Box::new(rewrite_aliases(l, aliases, table)),
            Box::new(rewrite_aliases(r, aliases, table)),
        ),
        And(l, r) => And(
            Box::new(rewrite_aliases(l, aliases, table)),
            Box::new(rewrite_aliases(r, aliases, table)),
        ),
        Or(l, r) => Or(
            Box::new(rewrite_aliases(l, aliases, table)),
            Box::new(rewrite_aliases(r, aliases, table)),
        ),
        Not(e) => Not(Box::new(rewrite_aliases(e, aliases, table))),
        IsNull(e) => IsNull(Box::new(rewrite_aliases(e, aliases, table))),
        IsNotNull(e) => IsNotNull(Box::new(rewrite_aliases(e, aliases, table))),
        Like(e, p) => Like(Box::new(rewrite_aliases(e, aliases, table)), p.clone()),
        In(e, list) => In(
            Box::new(rewrite_aliases(e, aliases, table)),
            list.iter()
                .map(|i| rewrite_aliases(i, aliases, table))
                .collect(),
        ),
        Call(name, args) => Call(
            name.clone(),
            args.iter()
                .map(|a| rewrite_aliases(a, aliases, table))
                .collect(),
        ),
        Neg(e) => Neg(Box::new(rewrite_aliases(e, aliases, table))),
    }
}

fn default_agg_name(function: &str, column: Option<&str>) -> String {
    match column {
        Some(c) => format!("{function}({c})"),
        None => format!("{function}(*)"),
    }
}

fn collect_aggregates(query: &FuseQuery) -> Result<Vec<Aggregate>> {
    let mut out = Vec::new();
    for item in &query.select {
        match item {
            SelectItem::Aggregate {
                function,
                column,
                alias,
            } => {
                let func = match (function.as_str(), column) {
                    ("count", None) => AggFunc::CountAll,
                    (name, _) => AggFunc::parse(name).ok_or_else(|| {
                        QueryError::Semantic(format!("unknown aggregate `{name}`"))
                    })?,
                };
                let alias = alias
                    .clone()
                    .unwrap_or_else(|| default_agg_name(function, column.as_deref()));
                out.push(Aggregate::new(
                    func,
                    column.clone().unwrap_or_default(),
                    alias,
                ));
            }
            SelectItem::Resolve { .. } => {
                return Err(QueryError::Semantic(
                    "RESOLVE requires FUSE BY, not GROUP BY".into(),
                ))
            }
            _ => {}
        }
    }
    Ok(out)
}

/// Apply the select list to the post-fusion/grouping table.
fn project_select(query: &FuseQuery, table: Cow<'_, Table>) -> Result<Table> {
    // Pure wildcard on a plain query: keep everything.
    if query.select.len() == 1
        && matches!(query.select[0], SelectItem::Wildcard)
        && !query.is_fusion()
    {
        return Ok(table.into_owned());
    }
    // Every select item picks one column of `table`: (output name, source
    // column).
    let mut columns: Vec<(String, String)> = Vec::new();
    // `*` skips columns already selected explicitly (SQL would emit
    // duplicate column names; our schemas require uniqueness).
    let explicit: Vec<String> = query
        .select
        .iter()
        .filter_map(|i| match i {
            SelectItem::Column { name, alias }
            | SelectItem::Resolve {
                column: name,
                alias,
                ..
            } => Some(
                alias
                    .clone()
                    .unwrap_or_else(|| short_name(name))
                    .to_ascii_lowercase(),
            ),
            _ => None,
        })
        .collect();
    for item in &query.select {
        match item {
            SelectItem::Wildcard => {
                for name in table.schema().names() {
                    if query.is_fusion() && BOOKKEEPING.iter().any(|b| b.eq_ignore_ascii_case(name))
                    {
                        continue;
                    }
                    if explicit.contains(&name.to_ascii_lowercase()) {
                        continue;
                    }
                    columns.push((name.to_string(), name.to_string()));
                }
            }
            SelectItem::Column { name, alias } => {
                let out_name = alias.clone().unwrap_or_else(|| short_name(name));
                columns.push((out_name, name.clone()));
            }
            SelectItem::Resolve { column, alias, .. } => {
                let out_name = alias.clone().unwrap_or_else(|| short_name(column));
                columns.push((out_name, column.clone()));
            }
            SelectItem::Aggregate {
                function,
                column,
                alias,
            } => {
                let name = alias
                    .clone()
                    .unwrap_or_else(|| default_agg_name(function, column.as_deref()));
                columns.push((name.clone(), name));
            }
        }
    }
    project_columns(&table, &columns)
}

/// The projection `hummer_engine::ops::project` computes for plain column
/// references — same schema (untyped aliases, then inferred), same values,
/// same error — with each column resolved once, not once per cell.
fn project_columns(table: &Table, columns: &[(String, String)]) -> Result<Table> {
    let schema = Schema::new(
        columns
            .iter()
            .map(|(alias, _)| Column::any(alias.clone()))
            .collect(),
    )?;
    // An expression is only evaluated against a row: over an empty table a
    // select list naming an unknown column is not an error, and stays none.
    let indices: Vec<usize> = if table.is_empty() {
        Vec::new()
    } else {
        columns
            .iter()
            .map(|(_, source)| table.schema().resolve(source, "<expr>"))
            .collect::<std::result::Result<_, _>>()?
    };
    let rows = table.rows().iter().map(|r| r.project(&indices)).collect();
    let mut out = Table::new(table.name(), schema, rows)?;
    out.infer_types();
    Ok(out)
}

/// Strip a table qualifier for output naming (`A.Name` → `Name`).
fn short_name(name: &str) -> String {
    match name.rsplit_once('.') {
        Some((_, tail)) => tail.to_string(),
        None => name.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableSet;
    use hummer_engine::table;

    fn catalog() -> TableSet {
        let mut c = TableSet::new();
        c.add(table! {
            "EE_Student" => ["Name", "Age"];
            ["Alice", 22],
            ["Bob", 24],
            ["Carol", 21],
        });
        c.add(table! {
            "CS_Students" => ["Name", "Age", "Semester"];
            ["Alice", 23, 5],
            ["Dora", 19, 1],
        });
        c
    }

    fn run(sql: &str) -> QueryOutput {
        run_query(sql, &catalog(), &FunctionRegistry::standard()).unwrap()
    }

    #[test]
    fn paper_example_executes() {
        // "This statement fuses data on EE- and CS Students, leaving just
        // one tuple per student [...] conflicts in the age [...] resolved by
        // taking the higher age."
        let out =
            run("SELECT Name, RESOLVE(Age, max) FUSE FROM EE_Student, CS_Students FUSE BY (Name)");
        assert_eq!(out.table.schema().names(), vec!["Name", "Age"]);
        assert_eq!(out.table.len(), 4); // Alice, Bob, Carol, Dora
        let alice = out
            .table
            .rows()
            .iter()
            .find(|r| r[0] == Value::text("Alice"))
            .unwrap();
        assert_eq!(alice[1], Value::Int(23)); // max(22, 23)
        let info = out.fusion.expect("fusion info present");
        assert!(info.conflict_count >= 1);
    }

    #[test]
    fn wildcard_expands_without_bookkeeping() {
        let out = run("SELECT * FUSE FROM EE_Student, CS_Students FUSE BY (Name)");
        assert_eq!(out.table.schema().names(), vec!["Name", "Age", "Semester"]);
    }

    #[test]
    fn fuse_from_is_outer_union_not_cross_product() {
        let out = run("SELECT * FUSE FROM EE_Student, CS_Students FUSE BY (Name)");
        assert_eq!(out.table.len(), 4); // not 3 × 2
    }

    #[test]
    fn default_resolution_is_coalesce() {
        let out =
            run("SELECT Name, RESOLVE(Semester) FUSE FROM EE_Student, CS_Students FUSE BY (Name)");
        let alice = out
            .table
            .rows()
            .iter()
            .find(|r| r[0] == Value::text("Alice"))
            .unwrap();
        // EE row has NULL semester (column absent there), CS supplies 5.
        assert_eq!(alice[1], Value::Int(5));
    }

    #[test]
    fn where_applies_before_fusion() {
        let out = run(
            "SELECT Name, RESOLVE(Age, max) FUSE FROM EE_Student, CS_Students \
             WHERE Age >= 22 FUSE BY (Name)",
        );
        // Dora (19) and Carol (21) are filtered before fusion.
        assert_eq!(out.table.len(), 2);
    }

    #[test]
    fn having_and_order_by() {
        let out = run("SELECT Name, RESOLVE(Age, max) AS oldest \
             FUSE FROM EE_Student, CS_Students FUSE BY (Name) \
             HAVING oldest > 20 ORDER BY oldest DESC");
        assert_eq!(out.table.len(), 3);
        assert_eq!(out.table.cell(0, 0), &Value::text("Bob")); // 24
        assert_eq!(out.table.cell(1, 0), &Value::text("Alice")); // 23
        assert_eq!(out.table.schema().names(), vec!["Name", "oldest"]);
    }

    #[test]
    fn choose_source_resolution() {
        let out = run("SELECT Name, RESOLVE(Age, choose('CS_Students')) \
             FUSE FROM EE_Student, CS_Students FUSE BY (Name)");
        let alice = out
            .table
            .rows()
            .iter()
            .find(|r| r[0] == Value::text("Alice"))
            .unwrap();
        assert_eq!(alice[1], Value::Int(23));
    }

    #[test]
    fn plain_select_where_order() {
        let out = run("SELECT Name FROM EE_Student WHERE Age > 21 ORDER BY Name");
        assert_eq!(out.table.len(), 2);
        assert_eq!(out.table.cell(0, 0), &Value::text("Alice"));
        assert!(out.fusion.is_none());
    }

    #[test]
    fn plain_group_by_aggregation() {
        let mut c = catalog();
        c.add(table! {
            "Sales" => ["Region", "Amount"];
            ["n", 10], ["s", 20], ["n", 30],
        });
        let out = run_query(
            "SELECT Region, sum(Amount) AS total, count(*) AS n FROM Sales \
             GROUP BY Region HAVING total > 15 ORDER BY total DESC",
            &c,
            &FunctionRegistry::standard(),
        )
        .unwrap();
        assert_eq!(out.table.len(), 2);
        assert_eq!(out.table.cell(0, 1), &Value::Int(40));
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let out = run("SELECT count(*) AS n, avg(Age) FROM EE_Student");
        assert_eq!(out.table.len(), 1);
        assert_eq!(out.table.cell(0, 0), &Value::Int(3));
    }

    #[test]
    fn cross_product_from_multiple_tables() {
        let out =
            run("SELECT * FROM EE_Student, CS_Students WHERE EE_Student.Name = CS_Students.Name");
        assert_eq!(out.table.len(), 1); // only Alice joins
    }

    #[test]
    fn unknown_table_is_reported() {
        let e = run_query(
            "SELECT * FROM Nope",
            &catalog(),
            &FunctionRegistry::standard(),
        );
        assert!(matches!(e, Err(QueryError::UnknownTable(_))));
    }

    #[test]
    fn unknown_resolution_function_is_reported() {
        let e = run_query(
            "SELECT RESOLVE(Age, frobnicate) FUSE FROM EE_Student FUSE BY (Name)",
            &catalog(),
            &FunctionRegistry::standard(),
        );
        assert!(matches!(e, Err(QueryError::Fusion(_))));
    }

    #[test]
    fn resolve_with_group_by_is_semantic_error() {
        let e = run_query(
            "SELECT RESOLVE(Age, max) FROM EE_Student GROUP BY Name",
            &catalog(),
            &FunctionRegistry::standard(),
        );
        assert!(matches!(e, Err(QueryError::Semantic(_))));
    }

    #[test]
    fn fuse_from_without_fuse_by_returns_outer_union() {
        let out = run("SELECT * FUSE FROM EE_Student, CS_Students");
        assert_eq!(out.table.len(), 5); // all rows, aligned
        assert!(out.fusion.is_none());
    }

    #[test]
    fn fusion_lineage_exposed() {
        let out =
            run("SELECT Name, RESOLVE(Age, max) FUSE FROM EE_Student, CS_Students FUSE BY (Name)");
        let info = out.fusion.unwrap();
        assert_eq!(info.fused_table.len(), 4);
        assert!(info.lineage.conflict_count() >= 1);
        assert!(!info.sample_conflicts.is_empty());
        assert!(info
            .sample_conflicts
            .iter()
            .any(|c| c.column == "Age" && c.values.contains(&"22".to_string())));
    }

    #[test]
    fn execute_combined_accepts_prematerialized_union() {
        // A serving layer materializes the sourceID-tagged union (plus an
        // objectID annotation) once and replays queries against it.
        let q = parse(
            "SELECT Name, RESOLVE(Age, max) FUSE FROM EE_Student, CS_Students FUSE BY (Name)",
        )
        .unwrap();
        let c = catalog();
        let tables: Vec<Table> = vec![
            c.table("EE_Student").unwrap().clone(),
            c.table("CS_Students").unwrap().clone(),
        ];
        let mut combined = combine_tables(&q, &tables).unwrap();
        combined
            .add_column(
                hummer_engine::Column::new("objectID", ColumnType::Int),
                |i, _| Value::Int(i as i64),
            )
            .unwrap();
        let out = execute_combined(
            &q,
            &combined,
            &FunctionRegistry::standard(),
            Parallelism::sequential(),
        )
        .unwrap();
        assert_eq!(out.table.len(), 4);
        // objectID stays out of the projection.
        assert_eq!(out.table.schema().names(), vec!["Name", "Age"]);
    }

    #[test]
    fn index_projection_equals_expression_projection() {
        let full = table! {
            "T" => ["Name", "Age", "Score"];
            ["Alice", 22, 1.5],
            ["Bob", (), 2],
            [(), 24, ()],
        };
        let empty = table! { "T" => ["Name", "Age", "Score"]; };
        let picks: [&[(&str, &str)]; 5] = [
            &[("n", "name"), ("Age", "Age")],
            &[("Score", "SCORE"), ("again", "Score"), ("Name", "Name")],
            &[],
            &[("x", "Name"), ("y", "Nope"), ("z", "AlsoNope")],
            &[("dup", "Name"), ("DUP", "Age")],
        ];
        for t in [&full, &empty] {
            for pick in picks {
                let columns: Vec<(String, String)> = pick
                    .iter()
                    .map(|(alias, source)| (alias.to_string(), source.to_string()))
                    .collect();
                let exprs: Vec<(String, Expr)> = columns
                    .iter()
                    .map(|(alias, source)| (alias.clone(), Expr::col(source.clone())))
                    .collect();
                let old = hummer_engine::ops::project(t, &exprs).map_err(QueryError::from);
                let new = project_columns(t, &columns);
                match (new, old) {
                    (Ok(new), Ok(old)) => {
                        assert_eq!(new.name(), old.name());
                        assert_eq!(new.schema().columns(), old.schema().columns());
                        assert_eq!(format!("{:?}", new.rows()), format!("{:?}", old.rows()));
                    }
                    (Err(new), Err(old)) => assert_eq!(new.to_string(), old.to_string()),
                    (new, old) => panic!("{pick:?}: {new:?} vs {old:?}"),
                }
            }
        }
    }

    #[test]
    fn combine_tables_rejects_empty() {
        let q = parse("SELECT * FROM EE_Student").unwrap();
        assert!(matches!(
            combine_tables(&q, &[]),
            Err(QueryError::Semantic(_))
        ));
    }

    #[test]
    fn vote_resolution_over_three_sources() {
        let mut c = TableSet::new();
        c.add(table! { "A" => ["K", "V"]; ["k", "x"] });
        c.add(table! { "B" => ["K", "V"]; ["k", "y"] });
        c.add(table! { "C" => ["K", "V"]; ["k", "y"] });
        let out = run_query(
            "SELECT K, RESOLVE(V, vote) FUSE FROM A, B, C FUSE BY (K)",
            &c,
            &FunctionRegistry::standard(),
        )
        .unwrap();
        assert_eq!(out.table.len(), 1);
        assert_eq!(out.table.cell(0, 1), &Value::text("y"));
    }
}
