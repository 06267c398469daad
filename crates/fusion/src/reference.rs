//! The test oracle: fusion as this crate computed it before the flat resolve
//! loop — a `HashMap<Row, Vec<usize>>` of key groups, one context per
//! cluster with its rows and `String` sources collected into `Vec`s, the
//! value lists collected again per cell, contributors in a `Vec`, sources
//! through a `BTreeSet`, one `CellLineage` per cell. The resolution functions
//! are the old bodies too, over the old context, so the differential tests
//! compare two independent implementations of every function, not one
//! implementation with itself.

use crate::error::FusionError;
use crate::functions::{
    ByLength, Choose, Coalesce, Concat, First, Group, Last, MostRecent, NumericAggregate,
    ResolutionFunction, TieBreak, Vote,
};
use crate::fuse::{FusionSpec, SampleConflict, MAX_SAMPLE_CONFLICTS};
use crate::lineage::CellLineage;
use crate::registry::ResolutionSpec;
use hummer_engine::{Row, Schema, Table, Value, SOURCE_ID_COLUMN};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

const NON_DATA_COLUMNS: [&str; 2] = ["sourceID", "objectID"];

#[derive(Debug)]
pub(crate) struct Context<'a> {
    #[allow(dead_code)]
    table_name: &'a str,
    pub(crate) schema: &'a Schema,
    pub(crate) column: &'a str,
    pub(crate) column_index: usize,
    pub(crate) rows: Vec<&'a Row>,
    pub(crate) source_ids: Vec<Option<String>>,
}

impl<'a> Context<'a> {
    pub(crate) fn values(&self) -> Vec<&'a Value> {
        self.rows.iter().map(|r| &r[self.column_index]).collect()
    }

    pub(crate) fn non_null_values(&self) -> Vec<(usize, &'a Value)> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| {
                let v = &r[self.column_index];
                (!v.is_null()).then_some((i, v))
            })
            .collect()
    }

    fn is_conflict(&self) -> bool {
        let non_null = self.non_null_values();
        match non_null.split_first() {
            None => false,
            Some(((_, first), rest)) => rest.iter().any(|(_, v)| !v.group_eq(first)),
        }
    }

    fn companion_value(&self, row: usize, column: &str) -> Option<&'a Value> {
        let idx = self.schema.index_of(column)?;
        self.rows.get(row).map(|r| &r[idx])
    }

    fn rows_from_source(&self, source: &str) -> Vec<usize> {
        self.source_ids
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                s.as_deref()
                    .is_some_and(|alias| alias.eq_ignore_ascii_case(source))
                    .then_some(i)
            })
            .collect()
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Resolved {
    pub(crate) value: Value,
    pub(crate) contributors: Vec<usize>,
}

impl Resolved {
    pub(crate) fn new(value: Value, contributors: Vec<usize>) -> Self {
        Resolved {
            value,
            contributors,
        }
    }

    fn synthesized(value: Value, ctx: &Context<'_>) -> Self {
        Resolved {
            value,
            contributors: ctx.non_null_values().iter().map(|(i, _)| *i).collect(),
        }
    }
}

/// The oracle's side of [`ResolutionFunction`].
pub(crate) trait Function: Send + Sync {
    fn resolve(&self, ctx: &Context<'_>) -> Result<Resolved, FusionError>;
}

impl Function for Coalesce {
    fn resolve(&self, ctx: &Context<'_>) -> Result<Resolved, FusionError> {
        match ctx.non_null_values().first() {
            Some(&(i, v)) => Ok(Resolved::new(v.clone(), vec![i])),
            None => Ok(Resolved::new(Value::Null, vec![])),
        }
    }
}

impl Function for First {
    fn resolve(&self, ctx: &Context<'_>) -> Result<Resolved, FusionError> {
        match ctx.values().first() {
            Some(v) => Ok(Resolved::new((*v).clone(), vec![0])),
            None => Ok(Resolved::new(Value::Null, vec![])),
        }
    }
}

impl Function for Last {
    fn resolve(&self, ctx: &Context<'_>) -> Result<Resolved, FusionError> {
        let vals = ctx.values();
        match vals.last() {
            Some(v) => Ok(Resolved::new((*v).clone(), vec![vals.len() - 1])),
            None => Ok(Resolved::new(Value::Null, vec![])),
        }
    }
}

impl Function for Choose {
    fn resolve(&self, ctx: &Context<'_>) -> Result<Resolved, FusionError> {
        let rows = ctx.rows_from_source(&self.source);
        // First non-null value from the chosen source; NULL when the source
        // contributed nothing.
        for i in rows {
            let v = &ctx.rows[i][ctx.column_index];
            if !v.is_null() {
                return Ok(Resolved::new(v.clone(), vec![i]));
            }
        }
        Ok(Resolved::new(Value::Null, vec![]))
    }
}

impl Function for Vote {
    fn resolve(&self, ctx: &Context<'_>) -> Result<Resolved, FusionError> {
        let non_null = ctx.non_null_values();
        if non_null.is_empty() {
            return Ok(Resolved::new(Value::Null, vec![]));
        }
        // Count occurrences of each distinct value, tracking contributors.
        let mut groups: Vec<(&Value, Vec<usize>)> = Vec::new();
        for (i, v) in &non_null {
            match groups.iter_mut().find(|(g, _)| g.group_eq(v)) {
                Some((_, members)) => members.push(*i),
                None => groups.push((v, vec![*i])),
            }
        }
        let max_count = groups.iter().map(|(_, m)| m.len()).max().unwrap_or(0);
        let tied: Vec<&(&Value, Vec<usize>)> = groups
            .iter()
            .filter(|(_, m)| m.len() == max_count)
            .collect();
        let winner = match self.tie_break {
            TieBreak::FirstSeen => tied[0],
            TieBreak::Least => tied
                .iter()
                .min_by(|a, b| a.0.cmp_total(b.0))
                .expect("tied is non-empty"),
            TieBreak::Greatest => tied
                .iter()
                .max_by(|a, b| a.0.cmp_total(b.0))
                .expect("tied is non-empty"),
        };
        Ok(Resolved::new(winner.0.clone(), winner.1.clone()))
    }
}

impl Function for ByLength {
    fn resolve(&self, ctx: &Context<'_>) -> Result<Resolved, FusionError> {
        let non_null = ctx.non_null_values();
        let best = non_null.iter().reduce(|acc, cur| {
            let la = acc.1.to_string().chars().count();
            let lc = cur.1.to_string().chars().count();
            let better = if self.longest { lc > la } else { lc < la };
            if better {
                cur
            } else {
                acc
            }
        });
        match best {
            Some(&(i, v)) => Ok(Resolved::new(v.clone(), vec![i])),
            None => Ok(Resolved::new(Value::Null, vec![])),
        }
    }
}

impl Function for MostRecent {
    fn resolve(&self, ctx: &Context<'_>) -> Result<Resolved, FusionError> {
        if ctx.schema.index_of(&self.recency_column).is_none() {
            return Err(FusionError::BadArgument(format!(
                "MOST RECENT: no such recency column `{}`",
                self.recency_column
            )));
        }
        let non_null = ctx.non_null_values();
        let best = non_null
            .iter()
            .map(|&(i, v)| {
                let rec = ctx
                    .companion_value(i, &self.recency_column)
                    .cloned()
                    .unwrap_or(Value::Null);
                (i, v, rec)
            })
            .max_by(|a, b| {
                // NULL recency sorts lowest; then engine order; earlier
                // tuple wins ties (max_by keeps the last maximal → compare
                // index descending as final key).
                let rec_ord = match (a.2.is_null(), b.2.is_null()) {
                    (true, true) => std::cmp::Ordering::Equal,
                    (true, false) => std::cmp::Ordering::Less,
                    (false, true) => std::cmp::Ordering::Greater,
                    (false, false) => a.2.cmp_total(&b.2),
                };
                rec_ord.then(b.0.cmp(&a.0))
            });
        match best {
            Some((i, v, _)) => Ok(Resolved::new(v.clone(), vec![i])),
            None => Ok(Resolved::new(Value::Null, vec![])),
        }
    }
}

impl Function for Group {
    fn resolve(&self, ctx: &Context<'_>) -> Result<Resolved, FusionError> {
        let non_null = ctx.non_null_values();
        if non_null.is_empty() {
            return Ok(Resolved::new(Value::Null, vec![]));
        }
        let mut distinct: Vec<&Value> = Vec::new();
        for (_, v) in &non_null {
            if !distinct.iter().any(|d| d.group_eq(v)) {
                distinct.push(v);
            }
        }
        if distinct.len() == 1 {
            // No conflict: hand back the single value unchanged.
            return Ok(Resolved::new(distinct[0].clone(), vec![non_null[0].0]));
        }
        let body = distinct
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        Ok(Resolved::synthesized(
            Value::Text(format!("{{{body}}}")),
            ctx,
        ))
    }
}

impl Function for Concat {
    fn resolve(&self, ctx: &Context<'_>) -> Result<Resolved, FusionError> {
        let non_null = ctx.non_null_values();
        if non_null.is_empty() {
            return Ok(Resolved::new(Value::Null, vec![]));
        }
        let parts: Vec<String> = non_null
            .iter()
            .map(|&(i, v)| {
                if self.annotated {
                    let src = ctx.source_ids[i].as_deref().unwrap_or("?");
                    format!("{v} [{src}]")
                } else {
                    v.to_string()
                }
            })
            .collect();
        Ok(Resolved::synthesized(
            Value::Text(parts.join(&self.separator)),
            ctx,
        ))
    }
}

impl Function for NumericAggregate {
    fn resolve(&self, ctx: &Context<'_>) -> Result<Resolved, FusionError> {
        let non_null = ctx.non_null_values();
        match self {
            NumericAggregate::Count => Ok(Resolved::synthesized(
                Value::Int(non_null.len() as i64),
                ctx,
            )),
            NumericAggregate::Min | NumericAggregate::Max => {
                let best = if *self == NumericAggregate::Min {
                    non_null.iter().min_by(|a, b| a.1.cmp_total(b.1))
                } else {
                    non_null.iter().max_by(|a, b| a.1.cmp_total(b.1))
                };
                match best {
                    Some(&(i, v)) => Ok(Resolved::new(v.clone(), vec![i])),
                    None => Ok(Resolved::new(Value::Null, vec![])),
                }
            }
            NumericAggregate::Sum | NumericAggregate::Avg | NumericAggregate::Median => {
                if non_null.is_empty() {
                    return Ok(Resolved::new(Value::Null, vec![]));
                }
                let mut nums = Vec::with_capacity(non_null.len());
                let mut all_int = true;
                for (_, v) in &non_null {
                    match v {
                        Value::Int(i) => nums.push(*i as f64),
                        Value::Float(f) => {
                            all_int = false;
                            nums.push(*f);
                        }
                        other => {
                            return Err(FusionError::TypeError(format!(
                                "{} over non-numeric value `{other}` in column `{}`",
                                ResolutionFunction::name(self).to_uppercase(),
                                ctx.column
                            )))
                        }
                    }
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

/// The standard registry's functions, old bodies. Panics on anything the
/// registry would reject: the oracle is only asked for valid specs.
pub(crate) fn standard(spec: &ResolutionSpec) -> Arc<dyn Function> {
    let arg = |what: &str| spec.args.first().cloned().expect(what);
    let separator = || spec.args.first().cloned().unwrap_or_else(|| " | ".into());
    match spec.function.to_ascii_lowercase().as_str() {
        "coalesce" => Arc::new(Coalesce),
        "first" => Arc::new(First),
        "last" => Arc::new(Last),
        "vote" => Arc::new(Vote {
            tie_break: match spec.args.first().map(|s| s.to_ascii_lowercase()).as_deref() {
                None | Some("first") => TieBreak::FirstSeen,
                Some("least") => TieBreak::Least,
                Some("greatest") => TieBreak::Greatest,
                Some(other) => panic!("oracle: vote tie-break `{other}`"),
            },
        }),
        "group" => Arc::new(Group),
        "concat" => Arc::new(Concat {
            separator: separator(),
            annotated: false,
        }),
        "annotatedconcat" => Arc::new(Concat {
            separator: separator(),
            annotated: true,
        }),
        "shortest" => Arc::new(ByLength { longest: false }),
        "longest" => Arc::new(ByLength { longest: true }),
        "choose" => Arc::new(Choose {
            source: arg("choose takes a source"),
        }),
        "mostrecent" => Arc::new(MostRecent {
            recency_column: arg("mostrecent takes a column"),
        }),
        "min" => Arc::new(NumericAggregate::Min),
        "max" => Arc::new(NumericAggregate::Max),
        "sum" => Arc::new(NumericAggregate::Sum),
        "avg" => Arc::new(NumericAggregate::Avg),
        "median" => Arc::new(NumericAggregate::Median),
        "count" => Arc::new(NumericAggregate::Count),
        other => panic!("oracle: no function `{other}`"),
    }
}

/// What the oracle's fusion yields: [`crate::FusedTable`] with the lineage
/// as nested owned cells.
#[derive(Debug)]
pub(crate) struct Fused {
    pub(crate) table: Table,
    pub(crate) cells: Vec<Vec<CellLineage>>,
    pub(crate) sample_conflicts: Vec<SampleConflict>,
    pub(crate) conflict_count: usize,
    pub(crate) merged_clusters: usize,
}

struct ResolvedCluster {
    values: Vec<Value>,
    cell_lineages: Vec<CellLineage>,
    samples: Vec<SampleConflict>,
    conflicts: usize,
}

fn resolve_cluster(
    cluster_idx: usize,
    members: &[usize],
    input: &Table,
    out_cols: &[usize],
    row_sources: &[Option<String>],
    explicit: &HashMap<usize, Arc<dyn Function>>,
    default_fn: &Arc<dyn Function>,
) -> Result<ResolvedCluster, FusionError> {
    let member_rows: Vec<&Row> = members.iter().map(|&i| &input.rows()[i]).collect();
    let member_sources: Vec<Option<String>> =
        members.iter().map(|&i| row_sources[i].clone()).collect();

    let mut values: Vec<Value> = Vec::with_capacity(out_cols.len());
    let mut cell_lineages: Vec<CellLineage> = Vec::with_capacity(out_cols.len());
    let mut samples: Vec<SampleConflict> = Vec::new();
    let mut conflicts = 0usize;
    let mut ctx = Context {
        table_name: input.name(),
        schema: input.schema(),
        column: "",
        column_index: 0,
        rows: member_rows,
        source_ids: member_sources,
    };
    for &col in out_cols {
        ctx.column = &input.schema().column(col).name;
        ctx.column_index = col;
        let is_data_column = !NON_DATA_COLUMNS
            .iter()
            .any(|b| b.eq_ignore_ascii_case(ctx.column));
        let had_conflict = is_data_column && ctx.is_conflict();
        let func = explicit.get(&col).unwrap_or(default_fn);
        let resolved = func.resolve(&ctx)?;

        if had_conflict {
            conflicts += 1;
            if samples.len() < MAX_SAMPLE_CONFLICTS {
                let mut distinct: Vec<String> = Vec::new();
                for (_, v) in ctx.non_null_values() {
                    let s = v.to_string();
                    if !distinct.contains(&s) {
                        distinct.push(s);
                    }
                }
                samples.push(SampleConflict {
                    cluster: cluster_idx,
                    column: ctx.column.to_string(),
                    values: distinct,
                    resolved: resolved.value.to_string(),
                });
            }
        }

        let mut sources: Vec<String> = resolved
            .contributors
            .iter()
            .filter_map(|&local| ctx.source_ids[local].clone())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        sources.sort();
        cell_lineages.push(CellLineage {
            row_indices: resolved.contributors.iter().map(|&l| members[l]).collect(),
            sources,
            had_conflict,
        });
        values.push(resolved.value);
    }
    Ok(ResolvedCluster {
        values,
        cell_lineages,
        samples,
        conflicts,
    })
}

/// [`crate::fuse()`] as it was; `build` instantiates the functions
/// ([`standard`], or a test's own for custom ones).
pub(crate) fn fuse(
    input: &Table,
    spec: &FusionSpec,
    build: &dyn Fn(&ResolutionSpec) -> Arc<dyn Function>,
) -> Result<Fused, FusionError> {
    let key_idx: Vec<usize> = spec
        .key_columns
        .iter()
        .map(|k| input.resolve(k).map_err(FusionError::from))
        .collect::<Result<_, _>>()?;
    if key_idx.is_empty() {
        return Err(FusionError::BadArgument(
            "fusion requires at least one key column (FUSE BY)".into(),
        ));
    }
    let dropped: BTreeSet<usize> = spec
        .drop_columns
        .iter()
        .map(|c| input.resolve(c).map_err(FusionError::from))
        .collect::<Result<_, _>>()?;
    let out_cols: Vec<usize> = (0..input.schema().len())
        .filter(|i| !dropped.contains(i))
        .collect();

    let default_fn = build(&spec.default_function);
    let mut explicit: HashMap<usize, Arc<dyn Function>> = HashMap::new();
    for (col, rspec) in &spec.resolutions {
        let idx = input.resolve(col).map_err(FusionError::from)?;
        explicit.insert(idx, build(rspec));
    }

    let source_idx = input.schema().index_of(SOURCE_ID_COLUMN);
    let row_sources: Vec<Option<String>> = input
        .rows()
        .iter()
        .map(|r| source_idx.and_then(|i| r[i].as_text()))
        .collect();

    let mut order: Vec<Row> = Vec::new();
    let mut groups: HashMap<Row, Vec<usize>> = HashMap::new();
    for (i, row) in input.rows().iter().enumerate() {
        let key = row.project(&key_idx);
        groups
            .entry(key.clone())
            .or_insert_with(|| {
                order.push(key);
                Vec::new()
            })
            .push(i);
    }

    let out_schema = input
        .schema()
        .project(&out_cols)
        .map_err(FusionError::from)?;
    let mut fused = Fused {
        table: Table::empty(input.name(), out_schema),
        cells: Vec::new(),
        sample_conflicts: Vec::new(),
        conflict_count: 0,
        merged_clusters: 0,
    };
    for (cluster_idx, key) in order.iter().enumerate() {
        let members = &groups[key];
        let cluster = resolve_cluster(
            cluster_idx,
            members,
            input,
            &out_cols,
            &row_sources,
            &explicit,
            &default_fn,
        )?;
        fused.conflict_count += cluster.conflicts;
        if members.len() > 1 {
            fused.merged_clusters += 1;
        }
        for sample in cluster.samples {
            if fused.sample_conflicts.len() >= MAX_SAMPLE_CONFLICTS {
                break;
            }
            fused.sample_conflicts.push(sample);
        }
        fused
            .table
            .push(Row::from_values(cluster.values))
            .map_err(FusionError::from)?;
        fused.cells.push(cluster.cell_lineages);
    }
    Ok(fused)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::{Contributors, Resolved as NewResolved};
    use crate::registry::FunctionRegistry;
    use crate::{ConflictContext, FusedTable, Parallelism};
    use hummer_datagen::scenarios::{
        cd_shopping, cleansing_service, disaster_registry, person_scale, student_rosters,
    };
    use hummer_datagen::GeneratedWorld;

    fn worlds() -> Vec<Table> {
        [
            cd_shopping(120, 5),
            disaster_registry(120, 6),
            student_rosters(120, 7),
            cleansing_service(120, 8),
            person_scale(150, 9),
        ]
        .iter()
        .map(GeneratedWorld::gold_annotated_union)
        .collect()
    }

    /// Exact comparison: `Value`'s `==` lets `2` equal `2.0`, `Debug` does
    /// not.
    fn assert_same(new: &FusedTable, old: &Fused, what: &str) {
        assert_eq!(
            new.table.schema().names(),
            old.table.schema().names(),
            "{what}"
        );
        assert_eq!(
            format!("{:?}", new.table.rows()),
            format!("{:?}", old.table.rows()),
            "{what}"
        );
        assert_eq!(new.conflict_count, old.conflict_count, "{what}");
        assert_eq!(new.merged_clusters, old.merged_clusters, "{what}");
        assert_eq!(new.sample_conflicts, old.sample_conflicts, "{what}");
        assert_eq!(new.lineage.len(), old.cells.len(), "{what}");
        assert_eq!(new.lineage.conflict_count(), old.conflict_count, "{what}");
        let mut sources = BTreeSet::new();
        for (r, row) in old.cells.iter().enumerate() {
            for (c, expected) in row.iter().enumerate() {
                assert_eq!(&new.lineage.cell(r, c), expected, "{what}: cell ({r}, {c})");
                sources.extend(expected.sources.iter().cloned());
            }
        }
        assert_eq!(
            new.lineage.all_sources(),
            sources.into_iter().collect::<Vec<_>>(),
            "{what}"
        );
    }

    /// New loop against the oracle at degrees 1–4; errors must agree too.
    fn check(
        t: &Table,
        spec: &FusionSpec,
        registry: &FunctionRegistry,
        build: &dyn Fn(&ResolutionSpec) -> Arc<dyn Function>,
        what: &str,
    ) {
        let old = fuse(t, spec, build);
        for degree in 1..=4 {
            let spec = spec.clone().with_parallelism(Parallelism::degree(degree));
            let new = crate::fuse(t, &spec, registry);
            let what = format!("{what}, degree {degree}");
            match (&new, &old) {
                (Ok(new), Ok(old)) => assert_same(new, old, &what),
                (Err(new), Err(old)) => assert_eq!(new.to_string(), old.to_string(), "{what}"),
                _ => panic!(
                    "{what}: one side failed: new {new:?}, old {:?}",
                    old.is_ok()
                ),
            }
        }
    }

    /// A column whose non-null cells are all numbers, if any.
    fn numeric_column(t: &Table) -> Option<String> {
        (0..t.schema().len())
            .find(|&c| {
                let name = &t.schema().column(c).name;
                let mut seen = false;
                let numeric = t.column_values(c).all(|v| match v {
                    Value::Int(_) | Value::Float(_) => {
                        seen = true;
                        true
                    }
                    Value::Null => true,
                    _ => false,
                });
                numeric && seen && !name.eq_ignore_ascii_case("objectID")
            })
            .map(|c| t.schema().column(c).name.clone())
    }

    /// A column with at least one `NULL` and one non-null cell.
    fn column_with_nulls(t: &Table) -> String {
        let c = (0..t.schema().len())
            .find(|&c| {
                t.column_values(c).any(|v| v.is_null()) && t.column_values(c).any(|v| !v.is_null())
            })
            .expect("an outer union of differing schemas has padded columns");
        t.schema().column(c).name.clone()
    }

    /// Every spec the standard registry can build, with the arguments some
    /// need and the variants arguments select.
    fn standard_specs(t: &Table, registry: &FunctionRegistry) -> Vec<ResolutionSpec> {
        let a_source = t
            .column_values(t.resolve(SOURCE_ID_COLUMN).unwrap())
            .last()
            .unwrap()
            .to_string();
        let a_column = t.schema().column(1).name.clone();
        let mut specs: Vec<ResolutionSpec> = registry
            .names()
            .into_iter()
            .map(|name| match name.as_str() {
                "choose" => ResolutionSpec::with_args(name, vec![a_source.clone()]),
                "mostrecent" => ResolutionSpec::with_args(name, vec![a_column.clone()]),
                _ => ResolutionSpec::named(name),
            })
            .collect();
        assert_eq!(specs.len(), 17, "a new standard function needs an oracle");
        for tie in ["least", "greatest"] {
            specs.push(ResolutionSpec::with_args("vote", vec![tie.into()]));
        }
        specs.push(ResolutionSpec::with_args("concat", vec!["; ".into()]));
        specs.push(ResolutionSpec::with_args(
            "annotatedconcat",
            vec!["/".into()],
        ));
        specs
    }

    fn keys(t: &Table) -> Vec<Vec<String>> {
        let text_key = t.schema().column(0).name.clone();
        let second = t.schema().column(1).name.clone();
        vec![
            vec!["objectID".into()],
            vec![text_key.clone()],
            vec![text_key, second],
            vec![column_with_nulls(t)],
        ]
    }

    #[test]
    fn resolve_loop_equals_the_oracle_for_every_standard_function() {
        let registry = FunctionRegistry::standard();
        for t in worlds() {
            let numeric = numeric_column(&t);
            for key in keys(&t) {
                for rspec in standard_specs(&t, &registry) {
                    let what = format!("{} by {key:?} with {rspec:?}", t.name());
                    // As the default for every column (numeric aggregates
                    // fail on the first text column: the errors must agree)…
                    let everywhere = FusionSpec {
                        default_function: rspec.clone(),
                        ..FusionSpec::by_key(key.clone())
                    };
                    check(&t, &everywhere, &registry, &standard, &what);
                    // …and on one numeric column beside COALESCE, with the
                    // bookkeeping columns dropped as the pipeline drops them.
                    if let Some(numeric) = &numeric {
                        let one = FusionSpec::by_key(key.clone())
                            .resolve(numeric.clone(), rspec)
                            .drop_column(SOURCE_ID_COLUMN);
                        check(&t, &one, &registry, &standard, &what);
                    }
                }
            }
        }
    }

    /// A custom function through the extension point, written once per
    /// trait: the span of the non-null values, citing the first and the
    /// last of them (twice the same tuple when there is only one).
    struct Span;

    impl ResolutionFunction for Span {
        fn name(&self) -> &str {
            "span"
        }
        fn resolve(&self, ctx: &ConflictContext<'_>) -> crate::functions::Result<NewResolved> {
            let mut non_null = ctx.non_null_values();
            let Some((first, lo)) = non_null.next() else {
                return Ok(NewResolved::null());
            };
            let (last, hi) = non_null.last().unwrap_or((first, lo));
            Ok(NewResolved::new(
                Value::Text(format!("{lo}..{hi} of {}", ctx.column)),
                Contributors::Many(vec![first, last]),
            ))
        }
    }

    impl Function for Span {
        fn resolve(&self, ctx: &Context<'_>) -> Result<Resolved, FusionError> {
            let non_null = ctx.non_null_values();
            let (Some((first, lo)), Some((last, hi))) = (non_null.first(), non_null.last()) else {
                return Ok(Resolved::new(Value::Null, vec![]));
            };
            Ok(Resolved::new(
                Value::Text(format!("{lo}..{hi} of {}", ctx.column)),
                vec![*first, *last],
            ))
        }
    }

    #[test]
    fn resolve_loop_equals_the_oracle_for_a_custom_function() {
        let mut registry = FunctionRegistry::standard();
        registry.register("span", |_| Ok(Arc::new(Span)));
        let build = |spec: &ResolutionSpec| -> Arc<dyn Function> {
            match spec.function.as_str() {
                "span" => Arc::new(Span),
                _ => standard(spec),
            }
        };
        for t in worlds() {
            for key in keys(&t) {
                let spec = FusionSpec {
                    default_function: ResolutionSpec::named("span"),
                    ..FusionSpec::by_key(key.clone())
                }
                .resolve(
                    t.schema().column(1).name.clone(),
                    ResolutionSpec::named("vote"),
                );
                check(
                    &t,
                    &spec,
                    &registry,
                    &build,
                    &format!("{} by {key:?}", t.name()),
                );
            }
        }
    }

    #[test]
    fn awkward_keys_group_as_projected_rows_did() {
        // 2 and 2.0 are one key, NULL is a key of its own, text "2" is not
        // the number 2; a huge integer takes the hashed path; sources of
        // other types render to their text.
        let t = hummer_engine::table! {
            "T" => ["k", "v", "sourceID"];
            [2, "a", "A"],
            [2.0, "b", "B"],
            [(), "c", 7],
            ["2", "d", "B"],
            [(), "e", ()],
            [i64::MAX, "f", 7],
            [i64::MIN, "g", "A"],
            [2, (), true],
        };
        let registry = FunctionRegistry::standard();
        for function in [
            "coalesce",
            "concat",
            "annotatedconcat",
            "vote",
            "count",
            "last",
        ] {
            let spec = FusionSpec {
                default_function: ResolutionSpec::named(function),
                ..FusionSpec::by_key(vec!["k"])
            };
            check(&t, &spec, &registry, &standard, function);
        }
        let ints = hummer_engine::table! {
            "T" => ["objectID", "v"];
            [5, "a"], [-3, "b"], [(), "c"], [5, "d"], [(), "e"], [-3, ()],
        };
        let spec = FusionSpec::by_key(vec!["objectID"]);
        check(
            &ints,
            &spec,
            &registry,
            &standard,
            "dense integers with NULLs",
        );
    }
}
