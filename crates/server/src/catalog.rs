//! Catalog mutations — register, delta-update and deregister a table, each
//! through one commit path (`FusionService::commit`, which documents the
//! WAL protocol and lock order) — the catalog listing, and the wire shapes
//! of what they answer.
//!
//! A delta does not invalidate the prepared pipelines over its table: it
//! *upgrades* them in place, so the next fusion query over the updated
//! sources is a cache hit.

use crate::cache::Taken;
use crate::error::{Result, ServerError};
use crate::json::Json;
use crate::service::{FusionService, UNPOISONED};
use hummer_core::RowMapping;
use hummer_delta::{concat_mappings, DeltaCounts, TableDelta};
use hummer_engine::{csv, Table, Value};
use hummer_obs::Span;
use hummer_query::{VersionedTable, VersionedTableSet};
use hummer_store::SnapshotEntry;
use std::sync::Arc;

/// Descriptive facts about one registered table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableInfo {
    /// Registered name.
    pub name: String,
    /// Row count.
    pub rows: usize,
    /// Column names.
    pub columns: Vec<String>,
    /// Content version (bumps on re-upload).
    pub version: u64,
}

impl TableInfo {
    /// The facts of one catalog entry.
    fn of(entry: &VersionedTable) -> TableInfo {
        TableInfo {
            name: entry.table.name().to_string(),
            rows: entry.table.len(),
            columns: entry
                .table
                .schema()
                .names()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            version: entry.version,
        }
    }
}

/// What one delta batch did to the prepared cache. `/metrics` adds these
/// up across batches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpgradeTally {
    /// Prepared-cache entries upgraded in place.
    pub upgraded: u64,
    /// Upgrade attempts that failed (those entries die; next query
    /// re-prepares cold).
    pub upgrade_failures: u64,
    /// Upgrades that internally degraded to a full rescore.
    pub full_rescores: u64,
    /// Upgrades that found no delta index (match and detection indexes) on
    /// their entry and built one.
    pub index_builds: u64,
}

/// What applying one delta batch did, for the endpoint's response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaApplyResult {
    /// The table's post-delta shape and new content version.
    pub info: TableInfo,
    /// Rows inserted, updated and deleted by this batch.
    pub applied: DeltaCounts,
    /// What this batch did to the prepared cache.
    pub cache: UpgradeTally,
}

/// Parse the `POST /tables/{name}/delta` JSON body into a [`TableDelta`]:
///
/// ```json
/// {
///   "insert": [["Eve Adams", 30, "Bremen"]],
///   "update": [{"row": 2, "values": ["Mary Jones", 23, "Hamburg"]}],
///   "delete": [4]
/// }
/// ```
///
/// Cell values type like CSV ingestion: JSON strings go through
/// [`Value::infer`] (so `"25"` becomes an integer and `"2005-08-30"` a
/// date), numbers/booleans/null map directly.
pub fn parse_delta(name: &str, body: &str) -> Result<TableDelta> {
    let doc = Json::parse(body)?;
    let mut delta = TableDelta::new(name);
    let array = |key: &str, what: &str| match doc.get(key) {
        Some(v) => v.as_array().map(Some).ok_or_else(|| bad_request(what)),
        None => Ok(None),
    };
    let row_index = |v: Option<&Json>, what: &str| match v.and_then(Json::as_i64) {
        Some(row) if row >= 0 => Ok(row as usize),
        _ => Err(bad_request(what)),
    };
    for row in array("insert", "`insert` must be an array of rows")?.unwrap_or_default() {
        delta = delta.insert(json_row(row)?);
    }
    for entry in array("update", "`update` must be an array")?.unwrap_or_default() {
        let row = row_index(
            entry.get("row"),
            "`update` entries need a non-negative `row`",
        )?;
        let values = entry
            .get("values")
            .ok_or_else(|| bad_request("`update` entries need a `values` array"))?;
        delta = delta.update(row, json_row(values)?);
    }
    for row in array("delete", "`delete` must be an array of rows")?.unwrap_or_default() {
        delta = delta.delete(row_index(
            Some(row),
            "`delete` entries must be non-negative row indices",
        )?);
    }
    if delta.is_empty() {
        return Err(bad_request(
            "delta body carries no `insert`, `update`, or `delete` ops",
        ));
    }
    Ok(delta)
}

fn bad_request(what: &str) -> ServerError {
    ServerError::BadRequest(what.into())
}

/// One JSON row (array of scalars) as engine values.
fn json_row(row: &Json) -> Result<Vec<Value>> {
    let cells = row
        .as_array()
        .ok_or_else(|| bad_request("a delta row must be an array of values"))?;
    cells.iter().map(json_value).collect()
}

/// A JSON scalar as an engine value (strings type-inferred like CSV cells).
fn json_value(v: &Json) -> Result<Value> {
    match v {
        Json::Null => Ok(Value::Null),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Int(i) => Ok(Value::Int(*i)),
        Json::Float(f) => Ok(Value::Float(*f)),
        Json::Str(s) => Ok(Value::infer(s)),
        Json::Arr(_) | Json::Obj(_) => Err(bad_request("delta cell values must be scalars")),
    }
}

/// A validated catalog change: what [`FusionService::commit`] logs and
/// applies.
enum Change<'d> {
    /// Register (or replace) a table.
    Register(Table),
    /// Replace a table with what the delta made of it; the mapping takes
    /// its old rows to the new ones. The WAL logs the delta, not the table.
    Delta(Table, &'d TableDelta, RowMapping),
    /// Deregister a table.
    Deregister,
}

impl FusionService {
    /// Commit one catalog change: the path every mutation takes, and the
    /// one place a cached pipeline stops being current.
    ///
    /// Under the catalog write lock, `plan` validates the change against
    /// the catalog and names the alias it applies to. The change is then
    /// enqueued to the store's WAL (when one is attached) still under that
    /// lock, so WAL order always equals version order; then applied; then
    /// the WAL is compacted if it crossed its threshold; then every cached
    /// pipeline naming the alias is taken out of the prepared cache. Lock
    /// order: the catalog lock first, then the store or the cache — never
    /// the other way around, and never both at once. Only after the
    /// catalog lock is released does the writer wait for group
    /// durability, so one fsync covers every writer that queued behind it;
    /// a durability failure poisons the store, so no later mutation can
    /// commit on top of a non-durable one. Reads never touch the store.
    ///
    /// So the cache holds only current pipelines: [`FusionService::admit`]
    /// caches one only while its key is current, and whatever a change
    /// supersedes leaves here. A delta upgrades what it took (see
    /// [`FusionService::upgrade`]). Then the superseded table and
    /// pipelines go to the reaper in one hand-over, so no change wakes it
    /// more than once.
    ///
    /// Returns the alias's facts after the change (before it, for a
    /// deregistration) and what the change did to the cache.
    fn commit<'d>(
        &self,
        plan: impl FnOnce(&VersionedTableSet) -> Result<(String, Change<'d>)>,
        parent: &Span,
    ) -> Result<(TableInfo, UpgradeTally)> {
        let (alias, info, superseded, mut taken, delta, ticket) = {
            let mut catalog = self.catalog.write().expect(UNPOISONED);
            let (alias, change) = plan(&catalog)?;
            let version = catalog.upcoming_version();
            let ticket = match &self.store {
                Some(store) => {
                    let mut store = store.lock().expect(UNPOISONED);
                    Some(match &change {
                        Change::Register(table) => store.enqueue_register(&alias, version, table),
                        Change::Delta(_, delta, _) => store.enqueue_delta(&alias, version, delta),
                        Change::Deregister => store.enqueue_deregister(&alias),
                    }?)
                }
                None => None,
            };
            let superseded = catalog.get(&alias).cloned();
            let (table, mapping) = match change {
                Change::Register(table) => (Some(table), None),
                Change::Delta(table, _, mapping) => (Some(table), Some(mapping)),
                Change::Deregister => (None, None),
            };
            if let Some(table) = table {
                let assigned = catalog.register(alias.as_str(), table);
                debug_assert_eq!(assigned, version);
            } else {
                catalog.remove(&alias);
            }
            let entry = catalog.get(&alias).or(superseded.as_ref());
            let info = TableInfo::of(entry.expect("a change names or registers its table"));
            self.compact_if_needed(&catalog);
            let alias = alias.to_ascii_lowercase();
            let taken = self.cache.lock().expect(UNPOISONED).take(&alias);
            let delta = mapping.map(|mapping| (mapping, catalog.clone()));
            (alias, info, superseded, taken, delta, ticket)
        };
        if let Some(ticket) = ticket {
            self.committer
                .as_ref()
                .expect("a WAL ticket implies an attached store")
                .wait(ticket)?;
        }
        let tally = match delta {
            Some((mapping, catalog)) => {
                self.upgrade(&alias, &mapping, &catalog, &mut taken, parent)
            }
            None => UpgradeTally::default(),
        };
        self.reaper.retire(Box::new((superseded, taken)));
        Ok((info, tally))
    }

    /// Upgrade the pipelines a delta to table `alias` took out of the
    /// cache over `catalog` — the catalog the delta's commit left —
    /// moving each one's delta index (or building it when the entry had
    /// none) into the upgraded entry, and admit the results, recording an
    /// `upgrade` span under `parent`. `mapping` takes the table's old rows
    /// to the new ones; every other source maps to itself. An upgrade a
    /// later commit superseded first is not admitted; one that fails is
    /// counted and dropped, and the next query over its sources prepares
    /// cold.
    fn upgrade(
        &self,
        alias: &str,
        mapping: &RowMapping,
        catalog: &VersionedTableSet,
        taken: &mut [Taken],
        parent: &Span,
    ) -> UpgradeTally {
        let mut tally = UpgradeTally::default();
        let mut span = parent.child("upgrade");
        for (key, artifacts, index) in taken {
            let mut index = index.take();
            let built = index.is_none();
            // Every cached key was current until this delta, so its names
            // resolve to the tables it was prepared over, this one's new
            // version in place of its old.
            let (mut tables, mut per_source, mut new_key) = (vec![], vec![], vec![]);
            for (name, _) in key.iter() {
                let source = catalog.get(name).expect("cached keys are current");
                tables.push(source.table.as_ref());
                per_source.push(if name == alias {
                    mapping.clone()
                } else {
                    RowMapping::identity(source.table.len())
                });
                new_key.push((name.clone(), source.version));
            }
            let upgraded = concat_mappings(&per_source)
                .map_err(Into::into)
                .and_then(|union| {
                    artifacts.apply_delta_traced(&tables, &union, &self.config, &mut index, &span)
                });
            match upgraded {
                Ok((upgraded, report)) => {
                    if self.admit(new_key, Arc::new(upgraded), index) {
                        tally.upgraded += 1;
                        tally.full_rescores += u64::from(report.detection.full_rescore);
                        tally.index_builds += u64::from(built);
                    }
                }
                Err(_) => tally.upgrade_failures += 1,
            }
        }
        span.count("cache_upgrades", tally.upgraded);
        span.count("cache_upgrade_failures", tally.upgrade_failures);
        span.count("full_rescores", tally.full_rescores);
        span.count("index_builds", tally.index_builds);
        tally
    }

    /// Roll the WAL into a fresh snapshot if it crossed the threshold.
    /// Called with the catalog write lock held so the snapshot is a
    /// consistent image. Compaction failure is non-fatal (the WAL record
    /// is already durable); it is reported and retried after the next
    /// mutation.
    fn compact_if_needed(&self, catalog: &VersionedTableSet) {
        let Some(store) = &self.store else { return };
        let mut store = store.lock().expect(UNPOISONED);
        if !store.wants_compaction() {
            return;
        }
        let entries = catalog.entries();
        let snapshot: Vec<SnapshotEntry<'_>> = entries
            .iter()
            .map(|e| SnapshotEntry {
                alias: e.table.name(),
                version: e.version,
                table: e.table.as_ref(),
            })
            .collect();
        if let Err(e) = store.compact(&snapshot) {
            eprintln!("hummer-server: WAL compaction failed (will retry): {e}");
        }
    }

    /// Parse and register CSV under `name`. A re-upload replaces the table
    /// and bumps its version; the cached pipelines over the old version
    /// leave the cache. When durable, the registration is WAL-logged
    /// before the catalog changes.
    pub fn put_table(&self, name: &str, csv_text: &str) -> Result<TableInfo> {
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_alphanumeric() || c == '_' || c == '-')
        {
            return Err(ServerError::BadRequest(format!(
                "table name `{name}` must be non-empty and alphanumeric/underscore/dash"
            )));
        }
        let table = csv::read_csv_str(name, csv_text)?;
        let plan = |_: &VersionedTableSet| Ok((name.to_string(), Change::Register(table)));
        Ok(self.commit(plan, &Span::noop())?.0)
    }

    /// Remove a table from the catalog; returns its final shape. When
    /// durable, the removal is WAL-logged before it is applied. Every
    /// cached pipeline over the table leaves the cache with it.
    pub fn delete_table(&self, name: &str) -> Result<TableInfo> {
        let plan = |catalog: &VersionedTableSet| {
            catalog
                .get(name)
                .ok_or_else(|| ServerError::UnknownTable(name.to_string()))?;
            Ok((name.to_string(), Change::Deregister))
        };
        Ok(self.commit(plan, &Span::noop())?.0)
    }

    /// Apply a parsed delta batch to table `name`: update the catalog (new
    /// content version) and **upgrade** every prepared-pipeline cache entry
    /// that referenced the old version, instead of letting it die. Repeat
    /// fusion queries over the updated sources therefore hit the cache —
    /// no cold re-prepare.
    ///
    /// Cache-upgrade work is recorded as child spans of `parent` (the HTTP
    /// layer's per-request span; [`Span::noop`] records nothing).
    pub fn apply_delta(
        &self,
        name: &str,
        delta: &TableDelta,
        parent: &Span,
    ) -> Result<DeltaApplyResult> {
        let plan = |catalog: &VersionedTableSet| {
            let entry = catalog
                .get(name)
                .ok_or_else(|| ServerError::UnknownTable(name.to_string()))?;
            let (table, mapping) = delta
                .apply(&entry.table)
                .map_err(|e| ServerError::BadRequest(e.to_string()))?;
            // Re-register under the table's canonical alias, not the
            // request's casing: a delta must never rename the table (and
            // WAL replay preserves the registered alias, so anything else
            // would break recovery's identity contract).
            let alias = entry.table.name().to_string();
            Ok((alias, Change::Delta(table, delta, mapping)))
        };
        let (info, cache) = self.commit(plan, parent)?;
        let applied = delta.counts();
        self.metrics.record_delta(&applied, &cache);
        Ok(DeltaApplyResult {
            info,
            applied,
            cache,
        })
    }

    /// All registered tables, sorted by name.
    pub fn tables(&self) -> Vec<TableInfo> {
        let catalog = self.catalog.read().expect(UNPOISONED);
        catalog.entries().into_iter().map(TableInfo::of).collect()
    }
}

/// The `PUT` / `DELETE /tables/{name}` response document and one entry of
/// the `GET /tables` listing.
pub(crate) fn table_info_json(info: &TableInfo) -> Json {
    Json::object()
        .with("table", info.name.clone())
        .with("rows", info.rows)
        .with(
            "columns",
            Json::Arr(info.columns.iter().map(|c| Json::Str(c.clone())).collect()),
        )
        .with("version", info.version)
}

/// The `POST /tables/{name}/delta` response document.
pub fn delta_result_to_json(r: &DeltaApplyResult) -> Json {
    Json::object()
        .with("table", r.info.name.clone())
        .with("rows", r.info.rows)
        .with("version", r.info.version)
        .with(
            "applied",
            Json::object()
                .with("inserted", r.applied.inserted)
                .with("updated", r.applied.updated)
                .with("deleted", r.applied.deleted),
        )
        .with(
            "cache",
            Json::object()
                .with("upgraded", r.cache.upgraded)
                .with("upgrade_failures", r.cache.upgrade_failures)
                .with("full_rescores", r.cache.full_rescores)
                .with("index_builds", r.cache.index_builds),
        )
}
