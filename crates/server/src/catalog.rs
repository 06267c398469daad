//! Catalog mutations — register, delta-update and deregister a table, each
//! through one commit path (`FusionService::commit`, which documents the
//! WAL protocol and lock order) — the catalog listing, and the wire shapes
//! of what they answer.
//!
//! A delta does not invalidate the prepared pipelines over its table: it
//! *upgrades* them in place, so the next fusion query over the updated
//! sources is a cache hit.

use crate::cache::PreparedKey;
use crate::error::{Result, ServerError};
use crate::json::Json;
use crate::service::{FusionService, UNPOISONED};
use hummer_core::{DeltaIndex, PreparedSources, RowMapping};
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
    /// Replace a table with what the delta made of it; the WAL logs the
    /// delta, not the table.
    Delta(Table, &'d TableDelta),
    /// Deregister a table.
    Deregister,
}

impl FusionService {
    /// Commit one catalog change: the path every mutation takes.
    ///
    /// Under the catalog write lock, `plan` validates the change against
    /// the catalog and names the alias it applies to. The change is then
    /// enqueued to the store's WAL (when one is attached) still under that
    /// lock, so WAL order always equals version order; then applied; then
    /// the WAL is compacted if it crossed its threshold. Lock order: the
    /// catalog write lock first, then the store — never the other way
    /// around. Only after the catalog lock is released does the writer wait
    /// for group durability, so one fsync covers every writer that queued
    /// behind it; a durability failure poisons the store, so no later
    /// mutation can commit on top of a non-durable one. Reads never touch
    /// the store.
    ///
    /// Returns the alias's catalog entry before and after the change.
    fn commit<'d>(
        &self,
        plan: impl FnOnce(&VersionedTableSet) -> Result<(String, Change<'d>)>,
    ) -> Result<(Option<VersionedTable>, Option<VersionedTable>)> {
        let (before, after, ticket) = {
            let mut catalog = self.catalog.write().expect(UNPOISONED);
            let (alias, change) = plan(&catalog)?;
            let version = catalog.upcoming_version();
            let ticket = match &self.store {
                Some(store) => {
                    let mut store = store.lock().expect(UNPOISONED);
                    Some(match &change {
                        Change::Register(table) => store.enqueue_register(&alias, version, table),
                        Change::Delta(_, delta) => store.enqueue_delta(&alias, version, delta),
                        Change::Deregister => store.enqueue_deregister(&alias),
                    }?)
                }
                None => None,
            };
            let before = catalog.get(&alias).cloned();
            match change {
                Change::Register(table) | Change::Delta(table, _) => {
                    let assigned = catalog.register(alias.as_str(), table);
                    debug_assert_eq!(assigned, version);
                }
                Change::Deregister => {
                    catalog.remove(&alias);
                }
            }
            let after = catalog.get(&alias).cloned();
            self.compact_if_needed(&catalog);
            (before, after, ticket)
        };
        if let Some(ticket) = ticket {
            self.committer
                .as_ref()
                .expect("a WAL ticket implies an attached store")
                .wait(ticket)?;
        }
        Ok((before, after))
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

    /// Parse and register CSV under `name` (re-upload replaces and bumps the
    /// version, invalidating cached pipelines over the table). When durable,
    /// the registration is WAL-logged before the catalog changes.
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
        let (_, after) = self.commit(|_| Ok((name.to_string(), Change::Register(table))))?;
        Ok(TableInfo::of(&after.expect("just registered")))
    }

    /// Remove a table from the catalog; returns its final shape. When
    /// durable, the removal is WAL-logged before it is applied. Prepared
    /// cache entries over the removed table become unreachable (versions
    /// are never reused) and age out via LRU.
    pub fn delete_table(&self, name: &str) -> Result<TableInfo> {
        let (before, _) = self.commit(|catalog| {
            catalog
                .get(name)
                .ok_or_else(|| ServerError::UnknownTable(name.to_string()))?;
            Ok((name.to_string(), Change::Deregister))
        })?;
        Ok(TableInfo::of(&before.expect("checked under the lock")))
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
        let mut mapping = None;
        let (before, after) = self.commit(|catalog| {
            let entry = catalog
                .get(name)
                .ok_or_else(|| ServerError::UnknownTable(name.to_string()))?;
            let (table, rows) = delta
                .apply(&entry.table)
                .map_err(|e| ServerError::BadRequest(e.to_string()))?;
            mapping = Some(rows);
            // Re-register under the table's canonical alias, not the
            // request's casing: a delta must never rename the table (and
            // WAL replay preserves the registered alias, so anything else
            // would break recovery's identity contract).
            Ok((entry.table.name().to_string(), Change::Delta(table, delta)))
        })?;
        let (old, new) = (
            before.expect("checked under the lock"),
            after.expect("just registered"),
        );
        let mapping = mapping.expect("set by the committed plan");
        // The superseded table dies on the reaper, off the ack path.
        self.reaper.retire(Box::new(old.table));
        let info = TableInfo::of(&new);

        // Upgrade cached pipelines over the superseded version. The cache
        // lock is not held while upgrading; the eventual insert's stale
        // purge retires the old-version entry.
        let candidates = self
            .cache
            .lock()
            .expect("no cache operation panics while holding the lock")
            .take_for_upgrade(&info.name.to_ascii_lowercase(), old.version);
        let mut cache = UpgradeTally::default();
        let mut upgrade_span = parent.child("upgrade");
        for (key, artifacts, index) in candidates {
            let built = index.is_none();
            match self.upgrade_entry(&key, &artifacts, index, &new, &mapping, &upgrade_span) {
                Ok(Some(full_rescore)) => {
                    cache.upgraded += 1;
                    cache.full_rescores += u64::from(full_rescore);
                    cache.index_builds += u64::from(built);
                }
                Ok(None) => {} // another source in the entry went stale
                Err(_) => cache.upgrade_failures += 1,
            }
            // The upgraded entry replaced these artifacts in the cache; this
            // is usually the last reference.
            self.reaper.retire(Box::new(artifacts));
        }
        upgrade_span.count("cache_upgrades", cache.upgraded);
        upgrade_span.count("cache_upgrade_failures", cache.upgrade_failures);
        upgrade_span.count("full_rescores", cache.full_rescores);
        upgrade_span.count("index_builds", cache.index_builds);
        drop(upgrade_span);
        let applied = delta.counts();
        self.metrics.record_delta(&applied, &cache);
        Ok(DeltaApplyResult {
            info,
            applied,
            cache,
        })
    }

    /// Upgrade one cached entry to `new`, the delta'd table, carrying its
    /// delta `index` (or building it when the entry had none) into the
    /// upgraded entry. Returns `Ok(Some(full_rescore))` on success,
    /// `Ok(None)` when the entry is unrecoverably stale (another referenced
    /// source changed meanwhile, or a concurrent delta already superseded
    /// `new`).
    fn upgrade_entry(
        &self,
        key: &PreparedKey,
        artifacts: &Arc<PreparedSources>,
        mut index: Option<DeltaIndex>,
        new: &VersionedTable,
        mapping: &RowMapping,
        parent: &Span,
    ) -> Result<Option<bool>> {
        let mut tables: Vec<Arc<Table>> = Vec::with_capacity(key.len());
        let mut per_source: Vec<RowMapping> = Vec::with_capacity(key.len());
        let mut new_key: PreparedKey = Vec::with_capacity(key.len());
        {
            let catalog = self.catalog.read().expect(UNPOISONED);
            for (alias, version) in key {
                let current = catalog
                    .get(alias)
                    .ok_or_else(|| ServerError::UnknownTable(alias.clone()))?;
                if alias.eq_ignore_ascii_case(new.table.name()) {
                    // Key the upgraded artifacts with the version *this*
                    // delta produced — never the catalog's current version:
                    // a concurrent delta may already have moved the table
                    // past ours, and caching our (older) content under the
                    // newest key would serve stale fusions as cache hits.
                    if current.version != new.version {
                        return Ok(None); // superseded while we upgraded
                    }
                    tables.push(Arc::clone(&new.table));
                    per_source.push(mapping.clone());
                    new_key.push((alias.clone(), new.version));
                } else {
                    if current.version != *version {
                        return Ok(None); // entry stale beyond this delta
                    }
                    tables.push(Arc::clone(&current.table));
                    per_source.push(RowMapping::identity(current.table.len()));
                    new_key.push((alias.clone(), *version));
                }
            }
        }
        let union_mapping = concat_mappings(&per_source)?;
        let refs: Vec<&Table> = tables.iter().map(|t| t.as_ref()).collect();
        let (upgraded, report) = artifacts.apply_delta_traced(
            &refs,
            &union_mapping,
            &self.config,
            &mut index,
            parent,
        )?;
        self.cache
            .lock()
            .expect("no cache operation panics while holding the lock")
            .insert(new_key, Arc::new(upgraded), index);
        Ok(Some(report.detection.full_rescore))
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
