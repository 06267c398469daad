//! Incremental fusion: re-resolve only dirty clusters.
//!
//! Fusion output is a pure function of each cluster in isolation — member
//! rows (in order), their source ids, and the resolution functions — plus a
//! deterministic merge in cluster order. So when a delta leaves a cluster's
//! membership and member contents untouched, its fused row, cell lineage,
//! and conflict by-products can be **reused** from a memo instead of
//! re-running the resolution functions, and the result is still
//! bit-identical to a from-scratch [`crate::fuse()`]:
//!
//! * reused values/conflict flags depend only on member-row contents, which
//!   are unchanged by assumption;
//! * lineage row indices are remapped through the delta's row mapping, and
//!   source ids through the two runs' source lists;
//! * conflict samples are not memoized at all: every run renders the first
//!   few conflict cells from its own input and fused values.
//!
//! The caller (the delta subsystem) decides which clusters are reusable —
//! see `hummer_delta::FusedView` for the sound plan construction — and this
//! module guarantees the mechanics: recomputed clusters go through exactly
//! the same code path as [`crate::fuse()`], and the final assembly is shared
//! with it.

use crate::error::FusionError;
use crate::fuse::{FusedTable, FusionSetup, FusionSpec};
use crate::lineage::{arena_row, Lineage, NO_SOURCE};
use crate::registry::FunctionRegistry;
use hummer_engine::{Row, Table};

/// Per-cluster cached fusion output — the fused rows and their lineage —
/// reusable across deltas while the cluster stays untouched.
#[derive(Debug, Clone)]
pub struct FusionMemo {
    rows: Vec<Row>,
    lineage: Lineage,
}

impl FusionMemo {
    fn of(fused: &FusedTable) -> FusionMemo {
        FusionMemo {
            rows: fused.table.rows().to_vec(),
            lineage: fused.lineage.clone(),
        }
    }

    /// Number of memoized clusters.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// What to do with one output cluster during an incremental fusion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterPlan {
    /// Run the resolution functions (the cluster is new or dirty).
    Recompute,
    /// Reuse the memoized output of old cluster `old` (sound only when the
    /// cluster's membership and member-row contents are unchanged — the
    /// caller's responsibility).
    Reuse {
        /// Index of the cluster in the memo this one reuses.
        old: usize,
    },
}

/// Work counters of one incremental fusion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalFusionStats {
    /// Output clusters in total.
    pub clusters: usize,
    /// Clusters served from the memo.
    pub reused: usize,
    /// Clusters whose resolution functions ran.
    pub recomputed: usize,
}

/// [`crate::fuse()`] that additionally returns a [`FusionMemo`] for later
/// incremental runs.
pub fn fuse_memo(
    input: &Table,
    spec: &FusionSpec,
    registry: &FunctionRegistry,
) -> Result<(FusedTable, FusionMemo), FusionError> {
    let fused = crate::fuse(input, spec, registry)?;
    let memo = FusionMemo::of(&fused);
    Ok((fused, memo))
}

/// Fuse `input` reusing memoized clusters according to `plans`.
///
/// `plans` must have one entry per output cluster (key group of `input`, in
/// first-appearance order); `old_to_new[r]` maps an input-row index of the
/// memoized run to its index in `input` (`None` for deleted rows — which
/// must not appear among a reused cluster's contributors).
///
/// Output is bit-identical to [`crate::fuse()`] over `input` provided every
/// `Reuse` plan points at a genuinely unchanged cluster.
pub fn fuse_incremental(
    input: &Table,
    spec: &FusionSpec,
    registry: &FunctionRegistry,
    plans: &[ClusterPlan],
    memo: &FusionMemo,
    old_to_new: &[Option<usize>],
) -> Result<(FusedTable, FusionMemo, IncrementalFusionStats), FusionError> {
    let setup = FusionSetup::new(input, spec, registry)?;
    if plans.len() != setup.clusters() {
        return Err(FusionError::BadArgument(format!(
            "incremental fusion got {} cluster plans for {} clusters",
            plans.len(),
            setup.clusters()
        )));
    }
    let width = setup.width();
    let (old_cells, old_sources) = memo.lineage.cells();
    let reuses = plans.iter().filter_map(|plan| match plan {
        ClusterPlan::Reuse { old } => Some(*old),
        ClusterPlan::Recompute => None,
    });
    // Validate reuse targets up front so the parallel resolve can treat
    // them as infallible.
    if reuses.clone().next().is_some() && memo.lineage.columns().len() != width {
        return Err(FusionError::BadArgument(format!(
            "memoized clusters have {} columns, this fusion {width}",
            memo.lineage.columns().len()
        )));
    }
    for old in reuses.clone() {
        if old >= memo.len() {
            return Err(FusionError::BadArgument(format!(
                "reuse target {old} out of bounds (memo has {})",
                memo.len()
            )));
        }
        for cell in old * width..(old + 1) * width {
            for &r in old_cells.rows_of(cell) {
                if old_to_new.get(r as usize).copied().flatten().is_none() {
                    return Err(FusionError::BadArgument(format!(
                        "reused cluster {old} cites deleted input row {r}"
                    )));
                }
            }
        }
    }
    // The memo's source ids in this run's numbering. A reused cluster's
    // rows are in `input` unchanged, so are the sources it cites.
    let source_map: Vec<u32> = old_sources
        .iter()
        .map(|alias| {
            let id = setup.sources().iter().position(|s| s == alias);
            id.map_or(NO_SOURCE, |id| id as u32)
        })
        .collect();

    let stats = IncrementalFusionStats {
        clusters: plans.len(),
        reused: reuses.count(),
        recomputed: plans
            .iter()
            .filter(|p| matches!(p, ClusterPlan::Recompute))
            .count(),
    };
    let fused = setup.fuse(|cluster, rows, cells| {
        let ClusterPlan::Reuse { old } = plans[cluster] else {
            return false;
        };
        rows.push(memo.rows[old].clone());
        for cell in old * width..(old + 1) * width {
            let remapped = old_cells
                .rows_of(cell)
                .iter()
                .map(|&r| arena_row(old_to_new[r as usize].expect("validated above")));
            let sources = old_cells.sources_of(cell);
            cells.push(
                old_cells.had_conflict(cell),
                remapped,
                sources.map(|id| source_map[id as usize]),
            );
        }
        true
    })?;
    let memo = FusionMemo::of(&fused);
    Ok((fused, memo, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ResolutionSpec;
    use hummer_engine::{table, Table, Value};

    fn students() -> Table {
        table! {
            "Students" => ["Name", "Age", "Semester", "sourceID", "objectID"];
            ["John Smith", 24, (), "EE", 0],
            ["John Smith", 25, 5, "CS", 0],
            ["Mary Jones", 22, (), "EE", 1],
            ["Marie Curie", 31, 9, "CS", 2],
        }
    }

    fn spec() -> FusionSpec {
        FusionSpec::by_key(vec!["objectID"])
            .drop_column("objectID")
            .drop_column("sourceID")
            .resolve("Age", ResolutionSpec::named("max"))
    }

    fn assert_fused_eq(a: &FusedTable, b: &FusedTable) {
        assert_eq!(a.table.rows(), b.table.rows());
        assert_eq!(a.conflict_count, b.conflict_count);
        assert_eq!(a.sample_conflicts, b.sample_conflicts);
        for row in 0..a.table.len() {
            for col in 0..a.table.schema().len() {
                assert_eq!(a.lineage.cell(row, col), b.lineage.cell(row, col));
            }
        }
    }

    #[test]
    fn memo_run_matches_plain_fuse() {
        let t = students();
        let registry = FunctionRegistry::standard();
        let plain = crate::fuse(&t, &spec(), &registry).unwrap();
        let (memoed, memo) = fuse_memo(&t, &spec(), &registry).unwrap();
        assert_fused_eq(&plain, &memoed);
        assert_eq!(memo.len(), 3);
        assert!(!memo.is_empty());
    }

    #[test]
    fn all_reuse_reproduces_output() {
        let t = students();
        let registry = FunctionRegistry::standard();
        let (plain, memo) = fuse_memo(&t, &spec(), &registry).unwrap();
        let identity: Vec<Option<usize>> = (0..t.len()).map(Some).collect();
        let plans = vec![
            ClusterPlan::Reuse { old: 0 },
            ClusterPlan::Reuse { old: 1 },
            ClusterPlan::Reuse { old: 2 },
        ];
        let (again, memo2, stats) =
            fuse_incremental(&t, &spec(), &registry, &plans, &memo, &identity).unwrap();
        assert_fused_eq(&plain, &again);
        assert_eq!(stats.reused, 3);
        assert_eq!(stats.recomputed, 0);
        assert_eq!(memo2.len(), 3);
    }

    #[test]
    fn dirty_cluster_recomputes_and_clean_ones_remap() {
        let t = students();
        let registry = FunctionRegistry::standard();
        let (_, memo) = fuse_memo(&t, &spec(), &registry).unwrap();
        // Delete Mary (row 2): clusters 0 and 2 survive untouched, the
        // Mary cluster disappears, a new Grace cluster appears.
        let t2 = table! {
            "Students" => ["Name", "Age", "Semester", "sourceID", "objectID"];
            ["John Smith", 24, (), "EE", 0],
            ["John Smith", 25, 5, "CS", 0],
            ["Marie Curie", 31, 9, "CS", 1],
            ["Grace Hopper", 37, 3, "EE", 2],
        };
        let old_to_new = vec![Some(0), Some(1), None, Some(2)];
        let plans = vec![
            ClusterPlan::Reuse { old: 0 }, // John cluster unchanged
            ClusterPlan::Reuse { old: 2 }, // Marie, renumbered 2 -> 1
            ClusterPlan::Recompute,        // Grace is new
        ];
        let (incremental, _, stats) =
            fuse_incremental(&t2, &spec(), &registry, &plans, &memo, &old_to_new).unwrap();
        let scratch = crate::fuse(&t2, &spec(), &registry).unwrap();
        assert_fused_eq(&incremental, &scratch);
        assert_eq!(stats.reused, 2);
        assert_eq!(stats.recomputed, 1);
        // Marie's lineage now cites new row 2.
        let name = incremental.table.resolve("Name").unwrap();
        assert_eq!(incremental.lineage.cell(1, name).row_indices, vec![2]);
        assert_eq!(incremental.table.cell(1, name), &Value::text("Marie Curie"));
    }

    #[test]
    fn plan_arity_and_bounds_validated() {
        let t = students();
        let registry = FunctionRegistry::standard();
        let (_, memo) = fuse_memo(&t, &spec(), &registry).unwrap();
        let identity: Vec<Option<usize>> = (0..t.len()).map(Some).collect();
        // Wrong plan count.
        assert!(fuse_incremental(&t, &spec(), &registry, &[], &memo, &identity).is_err());
        // Out-of-bounds reuse target.
        let plans = vec![
            ClusterPlan::Reuse { old: 9 },
            ClusterPlan::Recompute,
            ClusterPlan::Recompute,
        ];
        assert!(fuse_incremental(&t, &spec(), &registry, &plans, &memo, &identity).is_err());
        // Reused cluster citing a deleted row.
        let deleted: Vec<Option<usize>> = vec![None; t.len()];
        let plans = vec![
            ClusterPlan::Reuse { old: 0 },
            ClusterPlan::Recompute,
            ClusterPlan::Recompute,
        ];
        assert!(fuse_incremental(&t, &spec(), &registry, &plans, &memo, &deleted).is_err());
    }
}
