//! The fusion operator: collapse each duplicate cluster into one consistent
//! tuple, resolving conflicts per column.
//!
//! "Tuples with same objectID are fused into a single tuple and conflicts
//! among them are resolved according to the query specification" (paper §3).
//!
//! ## Allocation
//!
//! [`fuse`] allocates per *table* and per output *row*, not per cell:
//!
//! * key groups are CSR member lists over row indices — no `Row` is cloned
//!   to serve as a hash key, and a dense one-column integer key such as
//!   `objectID` is grouped by direct addressing, without hashing at all;
//! * `sourceID` is interned once per table into small ids;
//! * the [`ConflictContext`] borrows two scratch vectors refilled per
//!   cluster, its accessors are iterators, and a picked value reports its
//!   one contributor inline;
//! * lineage goes straight into the flat [`Lineage`] store.
//!
//! What remains per cell is the resolved value itself (a `String` clone for
//! text). `tests/alloc_budget.rs` holds that line.

use crate::context::ConflictContext;
use crate::error::FusionError;
use crate::functions::ResolutionFunction;
use crate::lineage::{Cells, Lineage, NO_SOURCE};
use crate::registry::{FunctionRegistry, ResolutionSpec};
use hummer_engine::{Row, Table, Value, BOOKKEEPING_COLUMNS, SOURCE_ID_COLUMN};
use hummer_par::{chunk_ranges, par_map, Parallelism};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// Specification of one fusion run.
#[derive(Debug, Clone)]
pub struct FusionSpec {
    /// The object-identity columns (`FUSE BY (...)`): tuples agreeing on
    /// all of them form one cluster. Typically this is the detector's
    /// `objectID`, or a natural key like `Name`.
    pub key_columns: Vec<String>,
    /// Per-column resolution functions (`RESOLVE(col, f)`), by column name.
    pub resolutions: Vec<(String, ResolutionSpec)>,
    /// Function for every column without an explicit `RESOLVE` — the paper
    /// mandates `COALESCE` as default.
    pub default_function: ResolutionSpec,
    /// Columns to drop from the fused output (e.g. bookkeeping columns).
    pub drop_columns: Vec<String>,
    /// How many threads may resolve disjoint clusters concurrently.
    /// Clusters are independent by construction, and results merge in
    /// first-appearance order, so the degree never changes the output —
    /// only the wall-clock cost of wide fusions. Defaults to sequential.
    pub parallelism: Parallelism,
}

impl FusionSpec {
    /// Fuse by the given key columns with `COALESCE` everywhere else.
    pub fn by_key<S: Into<String>>(keys: Vec<S>) -> Self {
        FusionSpec {
            key_columns: keys.into_iter().map(Into::into).collect(),
            resolutions: Vec::new(),
            default_function: ResolutionSpec::named("coalesce"),
            drop_columns: Vec::new(),
            parallelism: Parallelism::sequential(),
        }
    }

    /// Add a `RESOLVE(column, function)` clause.
    pub fn resolve(mut self, column: impl Into<String>, spec: ResolutionSpec) -> Self {
        self.resolutions.push((column.into(), spec));
        self
    }

    /// Drop a column from the output.
    pub fn drop_column(mut self, column: impl Into<String>) -> Self {
        self.drop_columns.push(column.into());
        self
    }

    /// Resolve disjoint clusters on up to `par.get()` threads.
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.parallelism = par;
        self
    }
}

/// A sample of an actual conflict encountered during fusion (the wizard's
/// "sample conflicts" pane, Fig. 2).
#[derive(Debug, Clone, PartialEq)]
pub struct SampleConflict {
    /// Output row (cluster) index.
    pub cluster: usize,
    /// Column name.
    pub column: String,
    /// The distinct conflicting values, rendered.
    pub values: Vec<String>,
    /// The resolved value, rendered.
    pub resolved: String,
}

/// The fused table plus per-cell lineage and conflict samples.
#[derive(Debug, Clone)]
pub struct FusedTable {
    /// The clean, consistent result (one tuple per real-world object).
    pub table: Table,
    /// Per-cell lineage (same shape as `table`).
    pub lineage: Lineage,
    /// Up to 25 (`MAX_SAMPLE_CONFLICTS`) resolved conflicts for inspection.
    pub sample_conflicts: Vec<SampleConflict>,
    /// Total number of cell-level conflicts resolved.
    pub conflict_count: usize,
    /// Output rows whose cluster merged more than one input row — the
    /// fusions that actually combined sources, as opposed to singleton
    /// pass-throughs.
    pub merged_clusters: usize,
}

/// Cap on collected [`SampleConflict`]s.
pub(crate) const MAX_SAMPLE_CONFLICTS: usize = 25;

/// Run fusion over `input` according to `spec`, instantiating resolution
/// functions from `registry`.
///
/// Clusters are the groups of tuples agreeing on all `key_columns`
/// (`NULL` keys compare equal, so tuples with missing keys form their own
/// cluster per distinct null-pattern). Output cluster order follows first
/// appearance in the input; column order follows the input schema minus
/// dropped columns.
pub fn fuse(
    input: &Table,
    spec: &FusionSpec,
    registry: &FunctionRegistry,
) -> Result<FusedTable, FusionError> {
    FusionSetup::new(input, spec, registry)?.fuse()
}

/// The key groups of a table in first-appearance order, as CSR member
/// lists: group `g` holds rows `members[starts[g]..starts[g + 1]]`,
/// ascending.
struct KeyGroups {
    starts: Vec<u32>,
    members: Vec<u32>,
}

impl KeyGroups {
    fn build(input: &Table, key_idx: &[usize]) -> KeyGroups {
        let (group_of_row, groups) = match key_idx {
            [col] => dense_int_groups(input, *col),
            _ => None,
        }
        .unwrap_or_else(|| hashed_groups(input, key_idx));

        let mut starts = vec![0u32; groups + 1];
        for &g in &group_of_row {
            starts[g as usize + 1] += 1;
        }
        for g in 0..groups {
            starts[g + 1] += starts[g];
        }
        let mut next = starts.clone();
        let mut members = vec![0u32; group_of_row.len()];
        for (row, &g) in group_of_row.iter().enumerate() {
            members[next[g as usize] as usize] = row as u32;
            next[g as usize] += 1;
        }
        KeyGroups { starts, members }
    }

    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    fn members(&self, group: usize) -> &[u32] {
        &self.members[self.starts[group] as usize..self.starts[group + 1] as usize]
    }
}

/// Group ids (first-appearance order) for a one-column key whose cells are
/// all integers or `NULL` and span a range not much wider than the table —
/// `objectID` — by direct addressing. `None` when the column is anything
/// else.
fn dense_int_groups(input: &Table, col: usize) -> Option<(Vec<u32>, usize)> {
    let (mut lo, mut hi) = (i64::MAX, i64::MIN);
    for v in input.column_values(col) {
        match v {
            Value::Int(i) => (lo, hi) = (lo.min(*i), hi.max(*i)),
            Value::Null => {}
            _ => return None,
        }
    }
    let span = if lo > hi {
        0
    } else {
        usize::try_from(hi.checked_sub(lo)?).ok()? + 1
    };
    if span > 4 * input.len() + 1024 {
        return None;
    }
    // One slot per integer in range, one more for NULL.
    let mut group_of_slot = vec![u32::MAX; span + 1];
    let mut groups = 0u32;
    let group_of_row = input
        .column_values(col)
        .map(|v| {
            let slot = match v {
                Value::Int(i) => (i - lo) as usize,
                _ => span,
            };
            if group_of_slot[slot] == u32::MAX {
                group_of_slot[slot] = groups;
                groups += 1;
            }
            group_of_slot[slot]
        })
        .collect();
    Some((group_of_row, groups as usize))
}

/// A row's key cells, hashed and compared in place (as the projected `Row`
/// would be: `NULL` equals `NULL`, `2` equals `2.0`).
struct KeyRef<'a> {
    row: &'a Row,
    cols: &'a [usize],
}

impl Hash for KeyRef<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for &c in self.cols {
            self.row[c].hash(state);
        }
    }
}

impl PartialEq for KeyRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cols.iter().all(|&c| self.row[c] == other.row[c])
    }
}

impl Eq for KeyRef<'_> {}

/// Group ids (first-appearance order) for any key.
fn hashed_groups(input: &Table, key_idx: &[usize]) -> (Vec<u32>, usize) {
    let mut ids: HashMap<KeyRef<'_>, u32> = HashMap::new();
    let group_of_row = input
        .rows()
        .iter()
        .map(|row| {
            let next = ids.len() as u32;
            *ids.entry(KeyRef { row, cols: key_idx }).or_insert(next)
        })
        .collect();
    (group_of_row, ids.len())
}

/// The `sourceID` column interned: the distinct aliases in first-appearance
/// order and each row's index into them ([`NO_SOURCE`] for `NULL`, or when
/// the table has no such column).
struct RowSources {
    aliases: Vec<String>,
    of_row: Vec<u32>,
}

impl RowSources {
    fn intern(input: &Table) -> RowSources {
        let Some(col) = input.schema().index_of(SOURCE_ID_COLUMN) else {
            return RowSources {
                aliases: Vec::new(),
                of_row: vec![NO_SOURCE; input.len()],
            };
        };
        let mut aliases: Vec<String> = Vec::new();
        let mut ids: HashMap<Cow<'_, str>, u32> = HashMap::new();
        // A union lists one source after the other: try the previous row's.
        let mut previous = NO_SOURCE;
        let of_row = input
            .column_values(col)
            .map(|v| {
                let alias: Cow<'_, str> = match v {
                    Value::Null => return NO_SOURCE,
                    Value::Text(s) => Cow::Borrowed(s.as_str()),
                    other => Cow::Owned(other.to_string()),
                };
                if previous == NO_SOURCE || aliases[previous as usize] != alias {
                    previous = *ids.entry(alias).or_insert_with_key(|alias| {
                        aliases.push(alias.to_string());
                        (aliases.len() - 1) as u32
                    });
                }
                previous
            })
            .collect();
        RowSources { aliases, of_row }
    }

    fn alias_of_row(&self, row: u32) -> Option<&str> {
        match self.of_row[row as usize] {
            NO_SOURCE => None,
            id => Some(&self.aliases[id as usize]),
        }
    }
}

/// The fused rows and lineage cells of a run of consecutive clusters.
struct Block {
    rows: Vec<Row>,
    cells: Cells,
}

/// Everything [`fuse`] derives from the spec before touching clusters:
/// output columns with their instantiated functions, interned sources, and
/// the key groups in first-appearance order.
struct FusionSetup<'a> {
    input: &'a Table,
    out_cols: Vec<usize>,
    /// Per output column: its resolution function, and whether differing
    /// values there count as a data conflict.
    funcs: Vec<Arc<dyn ResolutionFunction>>,
    is_data: Vec<bool>,
    groups: KeyGroups,
    sources: RowSources,
    parallelism: Parallelism,
}

impl<'a> FusionSetup<'a> {
    fn new(
        input: &'a Table,
        spec: &FusionSpec,
        registry: &FunctionRegistry,
    ) -> Result<FusionSetup<'a>, FusionError> {
        // Resolve key and output columns.
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

        // Instantiate one function per output column (the last `RESOLVE`
        // of a column wins).
        let default_fn = registry.build(&spec.default_function)?;
        let mut explicit: HashMap<usize, Arc<dyn ResolutionFunction>> = HashMap::new();
        for (col, rspec) in &spec.resolutions {
            let idx = input.resolve(col).map_err(FusionError::from)?;
            explicit.insert(idx, registry.build(rspec)?);
        }
        let funcs = out_cols
            .iter()
            .map(|col| explicit.remove(col).unwrap_or_else(|| default_fn.clone()))
            .collect();
        let is_data = out_cols
            .iter()
            .map(|&col| {
                let name = &input.schema().column(col).name;
                !BOOKKEEPING_COLUMNS
                    .iter()
                    .any(|b| b.eq_ignore_ascii_case(name))
            })
            .collect();

        // Group members and lineage store row indices as `u32`.
        if u32::try_from(input.len()).is_err() {
            return Err(FusionError::BadArgument(format!(
                "fusion input has {} rows; at most 2^32 - 1 are supported",
                input.len()
            )));
        }
        Ok(FusionSetup {
            input,
            out_cols,
            funcs,
            is_data,
            groups: KeyGroups::build(input, &key_idx),
            sources: RowSources::intern(input),
            parallelism: spec.parallelism,
        })
    }

    /// Output clusters (key groups).
    fn clusters(&self) -> usize {
        self.groups.len()
    }

    /// Output columns.
    fn width(&self) -> usize {
        self.out_cols.len()
    }

    /// The source list this run's lineage ids index.
    fn sources(&self) -> &[String] {
        &self.sources.aliases
    }

    /// Resolve every cluster and assemble the fused table, its lineage, and
    /// the conflict sample/count.
    ///
    /// Clusters are independent, so runs of them resolve on up to
    /// `spec.parallelism` threads and concatenate in first-appearance order
    /// — the output is the same at every degree.
    fn fuse(self) -> Result<FusedTable, FusionError> {
        let ranges = chunk_ranges(self.clusters(), self.parallelism.get());
        let blocks = par_map(self.parallelism, &ranges, |range| {
            self.resolve_range(range.clone())
        });
        // The first failing cluster in cluster order reports, whichever
        // thread met it.
        let mut rows: Vec<Row> = Vec::new();
        let mut cells = Cells::with_capacity(self.sources().len(), 0);
        for block in blocks {
            let block = block?;
            if rows.is_empty() {
                rows = block.rows;
            } else {
                rows.extend(block.rows);
            }
            cells.append(block.cells);
        }

        let input = self.input;
        let out_schema = input
            .schema()
            .project(&self.out_cols)
            .map_err(FusionError::from)?;
        let out_names: Vec<String> = out_schema.names().iter().map(|s| s.to_string()).collect();
        let table = Table::new(input.name(), out_schema, rows).map_err(FusionError::from)?;
        let sample_conflicts = self.sample_conflicts(&table, &cells);
        let merged_clusters = (0..self.clusters())
            .filter(|&g| self.groups.members(g).len() > 1)
            .count();
        let lineage = Lineage::from_cells(out_names, self.sources.aliases, cells, table.len());
        Ok(FusedTable {
            table,
            conflict_count: lineage.conflict_count(),
            lineage,
            sample_conflicts,
            merged_clusters,
        })
    }

    /// Fuse clusters `range`, one output row each.
    fn resolve_range(&self, range: Range<usize>) -> Result<Block, FusionError> {
        let input = self.input;
        let schema = input.schema();
        let mut rows: Vec<Row> = Vec::with_capacity(range.len());
        let mut cells = Cells::with_capacity(self.sources().len(), range.len() * self.width());
        // The context's view of the current cluster, refilled per cluster.
        let mut member_rows: Vec<&Row> = Vec::new();
        let mut member_sources: Vec<Option<&str>> = Vec::new();
        for cluster in range {
            let members = self.groups.members(cluster);
            member_rows.clear();
            member_rows.extend(members.iter().map(|&m| &input.rows()[m as usize]));
            member_sources.clear();
            member_sources.extend(members.iter().map(|&m| self.sources.alias_of_row(m)));

            let mut values: Vec<Value> = Vec::with_capacity(self.width());
            for (k, &col) in self.out_cols.iter().enumerate() {
                let ctx = ConflictContext {
                    table_name: input.name(),
                    schema,
                    column: &schema.column(col).name,
                    column_index: col,
                    rows: &member_rows,
                    source_ids: &member_sources,
                };
                let had_conflict = self.is_data[k] && ctx.is_conflict();
                let resolved = self.funcs[k].resolve(&ctx)?;
                let contributors = resolved.contributors.as_slice();
                cells.push(
                    had_conflict,
                    contributors.iter().map(|&local| members[local]),
                    contributors
                        .iter()
                        .map(|&local| self.sources.of_row[members[local] as usize]),
                );
                values.push(resolved.value);
            }
            rows.push(Row::from_values(values));
        }
        Ok(Block { rows, cells })
    }

    /// The first [`MAX_SAMPLE_CONFLICTS`] conflict cells in (cluster,
    /// column) order, rendered from the cluster's member rows and the fused
    /// value — after the fact, so the resolve loop carries no strings for
    /// conflicts nobody will look at.
    fn sample_conflicts(&self, table: &Table, cells: &Cells) -> Vec<SampleConflict> {
        let conflict_cells = (0..cells.len()).filter(|&cell| cells.had_conflict(cell));
        conflict_cells
            .take(MAX_SAMPLE_CONFLICTS)
            .map(|cell| {
                let (cluster, k) = (cell / self.width(), cell % self.width());
                let col = self.out_cols[k];
                let mut distinct: Vec<String> = Vec::new();
                for &m in self.groups.members(cluster) {
                    let v = &self.input.rows()[m as usize][col];
                    if !v.is_null() {
                        let s = v.to_string();
                        if !distinct.contains(&s) {
                            distinct.push(s);
                        }
                    }
                }
                SampleConflict {
                    cluster,
                    column: self.input.schema().column(col).name.clone(),
                    values: distinct,
                    resolved: table.cell(cluster, k).to_string(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hummer_engine::table;

    /// The integrated student table after matching + duplicate detection:
    /// objectID identifies clusters.
    fn students() -> Table {
        table! {
            "Students" => ["Name", "Age", "Semester", "sourceID", "objectID"];
            ["John Smith", 24, (), "EE", 0],
            ["John Smith", 25, 5, "CS", 0],
            ["Mary Jones", 22, (), "EE", 1],
            ["Marie Curie", 31, 9, "CS", 2],
        }
    }

    fn registry() -> FunctionRegistry {
        FunctionRegistry::standard()
    }

    #[test]
    fn fuses_one_tuple_per_object() {
        let spec = FusionSpec::by_key(vec!["objectID"]);
        let fused = fuse(&students(), &spec, &registry()).unwrap();
        assert_eq!(fused.table.len(), 3);
        // Key uniqueness after fusion: no two rows share an objectID.
        let oid = fused.table.resolve("objectID").unwrap();
        let mut seen: Vec<String> = fused
            .table
            .rows()
            .iter()
            .map(|r| r[oid].to_string())
            .collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn default_coalesce_fills_from_later_rows() {
        let spec = FusionSpec::by_key(vec!["objectID"]);
        let fused = fuse(&students(), &spec, &registry()).unwrap();
        let sem = fused.table.resolve("Semester").unwrap();
        // John's EE row has NULL semester; CS supplies 5.
        assert_eq!(fused.table.cell(0, sem), &Value::Int(5));
    }

    #[test]
    fn explicit_resolution_overrides_default() {
        // The paper's example: RESOLVE(Age, max) — students only get older.
        let spec =
            FusionSpec::by_key(vec!["objectID"]).resolve("Age", ResolutionSpec::named("max"));
        let fused = fuse(&students(), &spec, &registry()).unwrap();
        let age = fused.table.resolve("Age").unwrap();
        assert_eq!(fused.table.cell(0, age), &Value::Int(25));
    }

    #[test]
    fn conflicts_counted_and_sampled() {
        let spec = FusionSpec::by_key(vec!["objectID"]);
        let fused = fuse(&students(), &spec, &registry()).unwrap();
        // Exactly one conflict: John's age 24 vs 25. (sourceID values EE/CS
        // differ too — also a conflict under the definition.)
        assert!(fused.conflict_count >= 1);
        let age_conflict = fused
            .sample_conflicts
            .iter()
            .find(|c| c.column == "Age")
            .expect("age conflict sampled");
        assert_eq!(
            age_conflict.values,
            vec!["24".to_string(), "25".to_string()]
        );
        assert_eq!(age_conflict.cluster, 0);
    }

    #[test]
    fn lineage_tracks_sources_and_conflicts() {
        let spec =
            FusionSpec::by_key(vec!["objectID"]).resolve("Age", ResolutionSpec::named("max"));
        let fused = fuse(&students(), &spec, &registry()).unwrap();
        let age = fused.table.resolve("Age").unwrap();
        let cell = fused.lineage.cell(0, age);
        assert!(cell.had_conflict);
        assert_eq!(cell.sources, vec!["CS".to_string()]); // max came from CS
        assert_eq!(cell.row_indices, vec![1]); // input row 1
        let name = fused.table.resolve("Name").unwrap();
        assert!(!fused.lineage.cell(2, name).had_conflict);
    }

    #[test]
    fn drop_columns_removes_bookkeeping() {
        let spec = FusionSpec::by_key(vec!["objectID"])
            .drop_column("objectID")
            .drop_column("sourceID");
        let fused = fuse(&students(), &spec, &registry()).unwrap();
        assert_eq!(
            fused.table.schema().names(),
            vec!["Name", "Age", "Semester"]
        );
    }

    #[test]
    fn natural_key_fusion_without_object_id() {
        // FUSE BY (Name) directly, as in the paper's §2.1 example.
        let t = table! {
            "S" => ["Name", "Age"];
            ["Alice", 22],
            ["Alice", 23],
            ["Bob", 24],
        };
        let spec = FusionSpec::by_key(vec!["Name"]).resolve("Age", ResolutionSpec::named("max"));
        let fused = fuse(&t, &spec, &registry()).unwrap();
        assert_eq!(fused.table.len(), 2);
        assert_eq!(fused.table.cell(0, 1), &Value::Int(23));
    }

    #[test]
    fn fusion_is_idempotent() {
        // Fusing an already-fused table changes nothing.
        let spec = FusionSpec::by_key(vec!["objectID"]);
        let once = fuse(&students(), &spec, &registry()).unwrap();
        let twice = fuse(&once.table, &spec, &registry()).unwrap();
        assert_eq!(once.table.rows(), twice.table.rows());
        assert_eq!(twice.conflict_count, 0);
    }

    #[test]
    fn missing_key_column_errors() {
        let spec = FusionSpec::by_key(vec!["nope"]);
        assert!(fuse(&students(), &spec, &registry()).is_err());
    }

    #[test]
    fn empty_key_errors() {
        let spec = FusionSpec {
            key_columns: vec![],
            ..FusionSpec::by_key(vec!["x"])
        };
        assert!(fuse(&students(), &spec, &registry()).is_err());
    }

    #[test]
    fn unknown_resolution_function_errors() {
        let spec = FusionSpec::by_key(vec!["objectID"])
            .resolve("Age", ResolutionSpec::named("frobnicate"));
        assert!(matches!(
            fuse(&students(), &spec, &registry()),
            Err(FusionError::UnknownFunction(_))
        ));
    }

    #[test]
    fn empty_table_fuses_to_empty() {
        let t = table! { "E" => ["k", "v"]; };
        let spec = FusionSpec::by_key(vec!["k"]);
        let fused = fuse(&t, &spec, &registry()).unwrap();
        assert!(fused.table.is_empty());
        assert_eq!(fused.conflict_count, 0);
    }

    #[test]
    fn null_keys_cluster_together() {
        let t = table! {
            "T" => ["k", "v"];
            [(), 1],
            [(), 2],
            ["x", 3],
        };
        let spec = FusionSpec::by_key(vec!["k"]);
        let fused = fuse(&t, &spec, &registry()).unwrap();
        assert_eq!(fused.table.len(), 2);
    }

    #[test]
    fn choose_function_with_sources() {
        let spec = FusionSpec::by_key(vec!["objectID"]).resolve(
            "Age",
            ResolutionSpec::with_args("choose", vec!["EE".into()]),
        );
        let fused = fuse(&students(), &spec, &registry()).unwrap();
        let age = fused.table.resolve("Age").unwrap();
        assert_eq!(fused.table.cell(0, age), &Value::Int(24)); // EE said 24
    }
}
