//! The fusion service: shared catalog + prepared-pipeline cache + metrics,
//! and the query path with the rendering of its answer.
//!
//! [`FusionService`] is the transport-independent heart of the server: the
//! HTTP layer, the integration tests, and hbench's serving workloads (through
//! a child `hummer-serve`) all drive this struct. Worker threads share one
//! instance behind an `Arc`; the catalog sits in an `RwLock` so concurrent
//! queries read in parallel, and the tables themselves are `Arc`-shared so
//! a snapshot never copies data. Catalog mutations live in
//! [`crate::catalog`], the `/metrics` exposition in [`crate::metrics`].
//!
//! Query semantics for `FUSE FROM`: the full automatic pipeline (DUMAS
//! matching → rename + outer union → duplicate detection → `objectID`
//! annotation) runs over the referenced sources — through the prepared
//! cache — and the query then executes against the annotated union. That
//! means `FUSE BY (objectID)` is available to every client for free, and a
//! repeated query over unchanged sources pays only fusion + projection.

use crate::cache::{CacheStats, PreparedCache, PreparedKey};
use crate::error::{Result, ServerError};
use crate::json::{write_escaped, write_f64, Json};
use crate::metrics::Metrics;
use crate::reaper::Reaper;
use hummer_core::{prepare_tables_traced, HummerConfig, PreparedSources, StageTimings};
use hummer_engine::{Table, Value};
use hummer_fusion::FunctionRegistry;
use hummer_obs::{Span, Tracer};
use hummer_query::{execute, execute_combined, parse, FuseQuery, QueryOutput, VersionedTableSet};
use hummer_store::{CatalogStore, Recovery, StoreStats, WalCommitter};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Why taking the catalog, store or cache lock cannot fail: no operation
/// panics while holding one.
pub(crate) const UNPOISONED: &str = "no catalog, store or cache operation panics holding its lock";

/// Service construction parameters.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Pipeline (matcher + detector) configuration used for every prepare.
    pub pipeline: HummerConfig,
    /// Prepared-pipeline cache capacity (source sets, not bytes).
    pub cache_capacity: usize,
    /// Enable the fault-injection endpoint `POST /__test/panic` (the
    /// handler panics on purpose). Test/CI only — never expose this on a
    /// real deployment.
    pub debug_panic_route: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            pipeline: HummerConfig::default(),
            cache_capacity: 64,
            debug_panic_route: false,
        }
    }
}

impl ServiceConfig {
    /// A configuration tuned for narrow (2–3 column) schemas like the
    /// paper's student example: permissive duplicate sniffing and a lower
    /// duplicate-classification threshold (little evidence mass per tuple).
    pub fn narrow_schema() -> Self {
        use hummer_core::{DetectorConfig, MatcherConfig, SniffConfig};
        ServiceConfig {
            pipeline: HummerConfig {
                matcher: MatcherConfig {
                    sniff: SniffConfig {
                        min_similarity: 0.2,
                        ..Default::default()
                    },
                    ..Default::default()
                },
                detector: DetectorConfig {
                    threshold: 0.7,
                    unsure_threshold: 0.55,
                    ..Default::default()
                },
                ..Default::default()
            },
            ..ServiceConfig::default()
        }
    }
}

/// What one query produced, plus serving metadata.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The executed query's output (final table + fusion by-products).
    pub output: QueryOutput,
    /// `Some(true)` when prepared artifacts came from the cache,
    /// `Some(false)` on a miss, `None` for non-fusion queries.
    pub cache_hit: Option<bool>,
    /// Stage cost of the prepared artifacts used (zero for plain queries).
    /// On a hit this is the *saved* cost, not cost paid by this request.
    pub prepare_timings: StageTimings,
    /// Wall time this request spent executing (fusion + projection; for a
    /// miss this excludes preparation, which is reported separately).
    pub execute_time: Duration,
    /// Always `None`, and nothing reads it. Kept only because hbench
    /// builds a `QueryResult` by struct literal; it goes when hbench does
    /// not name it any more.
    #[doc(hidden)]
    pub shards: Option<usize>,
}

/// The shared, thread-safe fusion service.
///
/// With a durable store attached ([`FusionService::with_store`]), every
/// catalog mutation — register, delta, deregister — is write-ahead-logged
/// before it is acked, through one commit path (see [`crate::catalog`]).
/// Reads never touch the store.
#[derive(Debug)]
pub struct FusionService {
    pub(crate) catalog: RwLock<VersionedTableSet>,
    pub(crate) cache: Mutex<PreparedCache>,
    pub(crate) metrics: Metrics,
    registry: FunctionRegistry,
    pub(crate) config: HummerConfig,
    pub(crate) store: Option<Mutex<CatalogStore>>,
    /// Waits on WAL tickets without holding `store` (or the catalog lock)
    /// — this is what lets concurrent commits share one fsync.
    pub(crate) committer: Option<WalCommitter>,
    /// Fault-injection endpoint toggle (see [`ServiceConfig`]).
    debug_panic_route: bool,
    /// Drops superseded tables and artifacts off the delta's ack path;
    /// joined when the service is dropped.
    pub(crate) reaper: Reaper,
}

impl FusionService {
    /// A service with the given configuration and an empty, in-memory-only
    /// catalog.
    pub fn new(config: ServiceConfig) -> Self {
        FusionService::assemble(config, VersionedTableSet::new(), None)
    }

    /// A durable service: the catalog is seeded from `recovery` — content
    /// versions included, so prepared-pipeline cache keys stay meaningful
    /// across restarts — and every further mutation is logged to `store`
    /// before it is acked.
    pub fn with_store(config: ServiceConfig, store: CatalogStore, recovery: Recovery) -> Self {
        let mut catalog = VersionedTableSet::new();
        for t in recovery.tables {
            catalog.restore(t.alias, t.table, t.version);
        }
        // The log may have assigned versions beyond every *surviving*
        // table's (a deleted table held the highest); never reuse them.
        catalog.advance_version_clock(recovery.last_version);
        FusionService::assemble(config, catalog, Some(store))
    }

    fn assemble(
        config: ServiceConfig,
        catalog: VersionedTableSet,
        store: Option<CatalogStore>,
    ) -> Self {
        FusionService {
            catalog: RwLock::new(catalog),
            cache: Mutex::new(PreparedCache::new(config.cache_capacity)),
            metrics: Metrics::new(),
            registry: FunctionRegistry::standard(),
            config: config.pipeline,
            committer: store.as_ref().map(CatalogStore::committer),
            store: store.map(Mutex::new),
            debug_panic_route: config.debug_panic_route,
            reaper: Reaper::new(),
        }
    }

    /// Whether the fault-injection endpoint is enabled (test/CI only).
    pub fn debug_panic_route(&self) -> bool {
        self.debug_panic_route
    }

    /// The metrics registry (workers record; `/metrics` snapshots).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The service tracer — the same instance the pipeline stages record
    /// into (it rides on `HummerConfig::obs`), so a per-request root span
    /// created here parents every stage span of that request.
    pub fn tracer(&self) -> &Tracer {
        &self.config.obs.tracer
    }

    /// The configured intra-query parallelism degree.
    pub fn degree(&self) -> usize {
        self.config.parallelism.get()
    }

    /// Prepared-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().expect(UNPOISONED).stats()
    }

    /// Cache `artifacts` (and their delta `index`) under `key` if every
    /// `(alias, version)` in it is current: the one rule that admits a
    /// pipeline, for a cold prepare and a delta upgrade alike. The catalog
    /// read lock, held from the check through the insert, keeps a commit
    /// from superseding the key in between; one that lands later takes the
    /// entry out again. Returns whether the entry was admitted.
    pub(crate) fn admit(
        &self,
        key: PreparedKey,
        artifacts: Arc<PreparedSources>,
        index: Option<hummer_core::DeltaIndex>,
    ) -> bool {
        let catalog = self.catalog.read().expect(UNPOISONED);
        let current = |(alias, version): &(String, u64)| {
            catalog.get(alias).is_some_and(|e| e.version == *version)
        };
        let admitted = key.iter().all(current);
        if admitted {
            self.cache
                .lock()
                .expect(UNPOISONED)
                .insert(key, artifacts, index);
        }
        admitted
    }

    /// Durable-store counters, when a store is attached.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(|s| s.lock().unwrap().stats())
    }

    /// Parse and execute one Fuse By SQL statement, recording pipeline
    /// stage spans (and prepared-cache counters) as children of `parent`
    /// ([`Span::noop`] records nothing).
    pub fn query(&self, sql: &str, parent: &Span) -> Result<QueryResult> {
        let q = parse(sql)?;
        if q.from.fuse {
            self.fusion_query(&q, parent)
        } else {
            self.plain_query(&q)
        }
    }

    /// Plain SQL: execute against a catalog snapshot (cheap `Arc` clones, so
    /// the read lock is held only for the clone).
    fn plain_query(&self, q: &FuseQuery) -> Result<QueryResult> {
        let snapshot = self.catalog.read().unwrap().clone();
        let t0 = Instant::now();
        let output = execute(q, &snapshot, &self.registry)?;
        Ok(QueryResult {
            output,
            cache_hit: None,
            prepare_timings: StageTimings::default(),
            execute_time: t0.elapsed(),
            shards: None,
        })
    }

    /// `FUSE FROM`: run (or reuse) the prepared pipeline over the referenced
    /// sources, then execute the query against the annotated union.
    fn fusion_query(&self, q: &FuseQuery, parent: &Span) -> Result<QueryResult> {
        // Snapshot the referenced tables + versions under the read lock.
        let (key, tables): (PreparedKey, Vec<Arc<Table>>) = {
            let catalog = self.catalog.read().unwrap();
            let mut key = Vec::with_capacity(q.from.tables.len());
            let mut tables = Vec::with_capacity(q.from.tables.len());
            for alias in &q.from.tables {
                let entry = catalog
                    .get(alias)
                    .ok_or_else(|| ServerError::UnknownTable(alias.clone()))?;
                key.push((alias.to_ascii_lowercase(), entry.version));
                tables.push(Arc::clone(&entry.table));
            }
            (key, tables)
        };

        let (artifacts, hit) = self.prepared_for(&key, &tables, parent)?;
        let mut fuse_span = parent.child("fuse");
        let t0 = Instant::now();
        // The same per-request degree the prepare stages use: the worker
        // pool provides inter-query concurrency, `config.parallelism`
        // intra-query threads — configure them to multiply to the machine
        // (see `ServerConfig`).
        let output = execute_combined(
            q,
            &artifacts.annotated,
            &self.registry,
            self.config.parallelism,
        )?;
        let execute_time = t0.elapsed();
        if fuse_span.is_recording() {
            fuse_span.count("result_rows", output.table.len() as u64);
            if let Some(info) = &output.fusion {
                fuse_span.count("fused_rows", info.fused_table.len() as u64);
                fuse_span.count("conflicts", info.conflict_count as u64);
            }
            fuse_span.count("degree", self.config.parallelism.get() as u64);
        }
        drop(fuse_span);
        self.metrics.record_fusion(execute_time, self.degree());
        Ok(QueryResult {
            output,
            cache_hit: Some(hit),
            prepare_timings: artifacts.timings,
            execute_time,
            shards: None,
        })
    }

    /// Cache lookup, computing and admitting on a miss.
    ///
    /// The cache lock is *not* held during preparation — concurrent misses
    /// on the same key may prepare twice, but a slow prepare never blocks
    /// hits on other keys; the duplicate insert is idempotent. A prepare
    /// that a commit superseded meanwhile answers its query but is not
    /// cached.
    fn prepared_for(
        &self,
        key: &PreparedKey,
        tables: &[Arc<Table>],
        parent: &Span,
    ) -> Result<(Arc<PreparedSources>, bool)> {
        if let Some(found) = self.cache.lock().expect(UNPOISONED).get(key) {
            if parent.is_recording() {
                parent.child("prepare").count("cache_hits", 1);
            }
            return Ok((found, true));
        }
        let refs: Vec<&Table> = tables.iter().map(|t| t.as_ref()).collect();
        let mut prepare_span = parent.child("prepare");
        prepare_span.count("cache_misses", 1);
        let prepared = Arc::new(prepare_tables_traced(&refs, &self.config, &prepare_span)?);
        drop(prepare_span);
        self.metrics
            .record_prepare(&prepared.timings, self.degree());
        self.admit(key.clone(), Arc::clone(&prepared), None);
        Ok((prepared, false))
    }
}

/// A cell value as wire JSON.
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::Int(*i),
        Value::Float(f) => Json::Float(*f),
        Value::Text(s) => Json::Str(s.clone()),
        Value::Date(d) => Json::Str(d.to_string()),
    }
}

/// A table as wire JSON: `{"columns": [...], "rows": [[...], ...]}`.
pub fn table_to_json(table: &Table) -> Json {
    let columns: Vec<Json> = table
        .schema()
        .names()
        .iter()
        .map(|n| Json::Str(n.to_string()))
        .collect();
    let rows: Vec<Json> = table
        .rows()
        .iter()
        .map(|r| Json::Arr(r.values().iter().map(value_to_json).collect()))
        .collect();
    Json::object()
        .with("columns", Json::Arr(columns))
        .with("rows", Json::Arr(rows))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `POST /query` response document.
pub fn query_result_to_json(r: &QueryResult) -> Json {
    let mut doc = Json::object()
        .with("result", table_to_json(&r.output.table))
        .with("row_count", r.output.table.len())
        .with("fused", r.output.fusion.is_some());
    if let Some(info) = &r.output.fusion {
        let sources: Vec<Json> = info
            .lineage
            .all_sources()
            .into_iter()
            .map(Json::Str)
            .collect();
        doc.push(
            "fusion",
            Json::object()
                .with("conflict_count", info.conflict_count)
                .with("fused_rows", info.fused_table.len())
                .with("sources", Json::Arr(sources)),
        );
    }
    doc.push(
        "cache",
        match r.cache_hit {
            Some(true) => Json::Str("hit".into()),
            Some(false) => Json::Str("miss".into()),
            None => Json::Str("n/a".into()),
        },
    );
    doc.push(
        "timings_ms",
        Json::object()
            .with("matching", ms(r.prepare_timings.matching))
            .with("transformation", ms(r.prepare_timings.transformation))
            .with("detection", ms(r.prepare_timings.detection))
            .with("execute", ms(r.execute_time)),
    );
    doc
}

/// [`query_result_to_json`]`(r).to_string_compact()`, byte for byte, written
/// straight into `out`: the served `/query` body never exists as a [`Json`]
/// tree (one heap node per cell) or as a second string. The tree builder
/// above stays as the readable definition of the document and as this
/// writer's test oracle.
pub(crate) fn write_query_result(r: &QueryResult, out: &mut String) {
    let table = &r.output.table;
    out.push_str("{\"result\":{\"columns\":[");
    for (i, name) in table.schema().names().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(name, out);
    }
    out.push_str("],\"rows\":[");
    for (i, row) in table.rows().iter().enumerate() {
        out.push_str(if i > 0 { ",[" } else { "[" });
        for (k, value) in row.values().iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            match value {
                Value::Null => out.push_str("null"),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Value::Int(i) => {
                    let _ = write!(out, "{i}");
                }
                Value::Float(f) => write_f64(*f, out),
                Value::Text(s) => write_escaped(s, out),
                // Dates render as digits and dashes: nothing to escape.
                Value::Date(d) => {
                    let _ = write!(out, "\"{d}\"");
                }
            }
        }
        out.push(']');
    }
    let _ = write!(
        out,
        "]}},\"row_count\":{},\"fused\":{}",
        table.len(),
        r.output.fusion.is_some()
    );
    if let Some(info) = &r.output.fusion {
        let _ = write!(
            out,
            ",\"fusion\":{{\"conflict_count\":{},\"fused_rows\":{},\"sources\":[",
            info.conflict_count,
            info.fused_table.len()
        );
        for (i, source) in info.lineage.all_sources().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(source, out);
        }
        out.push_str("]}");
    }
    out.push_str(match r.cache_hit {
        Some(true) => ",\"cache\":\"hit\"",
        Some(false) => ",\"cache\":\"miss\"",
        None => ",\"cache\":\"n/a\"",
    });
    out.push_str(",\"timings_ms\":{");
    for (i, (stage, took)) in [
        ("matching", r.prepare_timings.matching),
        ("transformation", r.prepare_timings.transformation),
        ("detection", r.prepare_timings.detection),
        ("execute", r.execute_time),
    ]
    .into_iter()
    .enumerate()
    {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{stage}\":");
        write_f64(ms(took), out);
    }
    out.push('}');
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{delta_result_to_json, parse_delta};
    use crate::metrics::metrics_to_prometheus;
    use hummer_delta::TableDelta;
    use hummer_engine::csv;

    const EE_CSV: &str =
        "Name,Age,City\nJohn Smith,24,Berlin\nMary Jones,22,Hamburg\nPeter Miller,27,Munich\n";
    const CS_CSV: &str = "FullName,Years,Town\nJohn Smith,25,Berlin\nMary Jones,22,Hamburg\nAda Lovelace,28,London\n";

    /// The service's `/metrics` exposition, parsed.
    fn scrape(s: &FusionService) -> crate::promlint::Scrape {
        crate::promlint::parse(&metrics_to_prometheus(s)).unwrap()
    }

    fn service() -> FusionService {
        let s = FusionService::new(ServiceConfig::narrow_schema());
        s.put_table("EE_Student", EE_CSV).unwrap();
        s.put_table("CS_Students", CS_CSV).unwrap();
        s
    }

    const PAPER_QUERY: &str =
        "SELECT Name, RESOLVE(Age, max) FUSE FROM EE_Student, CS_Students FUSE BY (Name)";

    /// A delta setting John Smith's age (row 0 of `CS_Students`).
    fn johns_age(age: i64) -> TableDelta {
        let row = vec![
            Value::text("John Smith"),
            Value::Int(age),
            Value::text("Berlin"),
        ];
        TableDelta::new("CS_Students").update(0, row)
    }

    /// `sql` answered by a cold prepare over a copy of `s`'s current
    /// catalog content.
    fn cold_answer(s: &FusionService, sql: &str) -> Result<QueryResult> {
        let fresh = FusionService::new(ServiceConfig::narrow_schema());
        for entry in s.catalog.read().unwrap().entries() {
            let csv = csv::write_csv_str(&entry.table);
            fresh.put_table(entry.table.name(), &csv).unwrap();
        }
        fresh.query(sql, &Span::noop())
    }

    #[test]
    fn upload_validates_and_versions() {
        let s = service();
        assert!(s.put_table("bad name!", "a\n1\n").is_err());
        assert!(s.put_table("", "a\n1\n").is_err());
        assert_eq!(s.put_table("T", "a,b\n1\n").unwrap_err().status(), 400); // ragged record
        let v1 = s.put_table("T", "a\n1\n").unwrap().version;
        let v2 = s.put_table("T", "a\n2\n").unwrap().version;
        assert!(v2 > v1);
        let names: Vec<String> = s.tables().into_iter().map(|t| t.name).collect();
        assert_eq!(names, vec!["CS_Students", "EE_Student", "T"]);
    }

    #[test]
    fn fusion_query_misses_then_hits() {
        let s = service();
        let cold = s.query(PAPER_QUERY, &Span::noop()).unwrap();
        assert_eq!(cold.cache_hit, Some(false));
        assert_eq!(cold.output.table.len(), 4);
        let warm = s.query(PAPER_QUERY, &Span::noop()).unwrap();
        assert_eq!(warm.cache_hit, Some(true));
        assert_eq!(warm.output.table.rows(), cold.output.table.rows());
        // A different query over the same sources still hits.
        let other = s
            .query(
                "SELECT Name FUSE FROM EE_Student, CS_Students FUSE BY (objectID)",
                &Span::noop(),
            )
            .unwrap();
        assert_eq!(other.cache_hit, Some(true));
        assert_eq!(other.output.table.len(), 4);
        let stats = s.cache_stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn delta_upgrades_cache_instead_of_invalidating() {
        let s = service();
        let cold = s.query(PAPER_QUERY, &Span::noop()).unwrap();
        assert_eq!(cold.cache_hit, Some(false));

        // Insert a fifth, distinct student into CS.
        let delta = parse_delta(
            "CS_Students",
            r#"{"insert": [["Grace Hopper", "37", "Arlington"]]}"#,
        )
        .unwrap();
        let outcome = s.apply_delta("CS_Students", &delta, &Span::noop()).unwrap();
        assert_eq!(outcome.applied.inserted, 1);
        assert_eq!(outcome.cache.upgraded, 1, "{outcome:?}");
        assert_eq!(outcome.cache.upgrade_failures, 0);
        assert_eq!(outcome.info.rows, 4);

        // The very next query hits the *upgraded* entry and sees the change.
        let warm = s.query(PAPER_QUERY, &Span::noop()).unwrap();
        assert_eq!(warm.cache_hit, Some(true), "upgrade must not invalidate");
        assert_eq!(warm.output.table.len(), 5);
        let stats = s.cache_stats();
        assert_eq!(stats.misses, 1, "no second cold prepare");

        // The upgraded artifacts equal a cold prepare over the new data.
        s.put_table("CS_Check", EE_CSV).unwrap(); // unrelated churn
        let m = scrape(&s);
        assert_eq!(m.value("hummer_deltas_applied_total", &[]), Some(1.0));
        assert_eq!(m.value("hummer_deltas_rows_inserted_total", &[]), Some(1.0));
        assert_eq!(
            m.value("hummer_prepared_cache_upgrades_total", &[]),
            Some(1.0)
        );
    }

    /// The first upgrade of an entry builds its delta index (match and
    /// detection); every later one carries it — so no delta after the
    /// first tokenizes an unchanged row, rebuilds a corpus, or recomputes
    /// the union's measure or attribute scores.
    #[test]
    fn delta_upgrades_build_the_carried_state_once() {
        let mut config = ServiceConfig::narrow_schema();
        config.pipeline.obs = hummer_obs::ObsConfig::enabled(256);
        let s = FusionService::new(config);
        s.put_table("EE_Student", EE_CSV).unwrap();
        s.put_table("CS_Students", CS_CSV).unwrap();
        assert_eq!(
            s.query(PAPER_QUERY, &Span::noop()).unwrap().cache_hit,
            Some(false)
        );
        s.tracer().drain();

        let mut reused = Vec::new();
        for age in [30, 31, 32] {
            let delta = johns_age(age);
            let root = s.tracer().trace("POST /tables/CS_Students/delta");
            let outcome = s.apply_delta("CS_Students", &delta, &root).unwrap();
            drop(root);
            assert_eq!(outcome.cache.upgraded, 1, "{outcome:?}");
            assert_eq!(
                outcome.cache.index_builds,
                u64::from(age == 30),
                "{outcome:?}"
            );
            let spans = s.tracer().drain();
            let counters = |stage: &str| {
                let span = spans
                    .iter()
                    .find(|span| span.name == stage)
                    .unwrap_or_else(|| panic!("the upgrade records a {stage} span"));
                move |name: &str| {
                    span.counters
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, v)| *v)
                }
            };
            let (matching, detect) = (counters("match"), counters("detect"));
            reused.push((matching("index_reused"), detect("index_reused")));
            assert_eq!(detect("rows_rerendered"), Some(1));
            if age > 30 {
                // One row changed: one row tokenized, no pair rebuilt.
                assert_eq!(matching("rows_retokenized"), Some(1));
                assert_eq!(matching("full_rematch"), Some(0));
            }
        }
        assert_eq!(
            reused,
            vec![(Some(0), Some(0)), (Some(1), Some(1)), (Some(1), Some(1))]
        );
        assert!(metrics_to_prometheus(&s).contains("\nhummer_delta_index_builds_total 1\n"));

        // The carried entry answers what a cold prepare answers.
        let served = s.query(PAPER_QUERY, &Span::noop()).unwrap();
        assert_eq!(served.cache_hit, Some(true));
        let cold = cold_answer(&s, PAPER_QUERY).unwrap();
        assert_eq!(served.output.table.rows(), cold.output.table.rows());
    }

    /// The artifacts and the table version a delta supersedes are freed by
    /// the reaper thread, not on the delta's own thread, and dropping the
    /// service waits for the reaper to finish.
    #[test]
    fn superseded_artifacts_die_on_the_reaper() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::mpsc;

        /// Garbage whose drop blocks until released, then records it ran.
        struct Gate(mpsc::Receiver<()>, Arc<AtomicBool>);
        impl Drop for Gate {
            fn drop(&mut self) {
                let _ = self.0.recv();
                self.1.store(true, Ordering::SeqCst);
            }
        }

        let s = service();
        s.query(PAPER_QUERY, &Span::noop()).unwrap();
        let (artifacts, table) = {
            let key: PreparedKey = vec![("ee_student".into(), 1), ("cs_students".into(), 2)];
            let artifacts = s.cache.lock().unwrap().get(&key).expect("cached");
            let catalog = s.catalog.read().unwrap();
            let table = Arc::clone(&catalog.get("CS_Students").unwrap().table);
            (Arc::downgrade(&artifacts), Arc::downgrade(&table))
        };

        // Hold the reaper up, then apply a delta: what it supersedes
        // outlives the delta's thread.
        let (release, held) = mpsc::channel();
        let dropped = Arc::new(AtomicBool::new(false));
        s.reaper.retire(Box::new(Gate(held, Arc::clone(&dropped))));
        let delta = johns_age(40);
        assert_eq!(
            s.apply_delta("CS_Students", &delta, &Span::noop())
                .unwrap()
                .cache
                .upgraded,
            1
        );
        assert!(artifacts.upgrade().is_some(), "freed on the delta's thread");
        assert!(table.upgrade().is_some(), "freed on the delta's thread");

        // Released, the reaper frees both; dropping the service joins it.
        release.send(()).unwrap();
        drop(s);
        assert!(
            dropped.load(Ordering::SeqCst),
            "the drop waited for the reaper"
        );
        assert!(artifacts.upgrade().is_none());
        assert!(table.upgrade().is_none());
    }

    #[test]
    fn delta_update_and_delete_reflect_in_queries() {
        let s = service();
        s.query(PAPER_QUERY, &Span::noop()).unwrap();
        // Update John's CS age to 30; delete Ada.
        let delta = parse_delta(
            "CS_Students",
            r#"{"update": [{"row": 0, "values": ["John Smith", 30, "Berlin"]}], "delete": [2]}"#,
        )
        .unwrap();
        let outcome = s.apply_delta("CS_Students", &delta, &Span::noop()).unwrap();
        assert_eq!((outcome.applied.updated, outcome.applied.deleted), (1, 1));
        let after = s.query(PAPER_QUERY, &Span::noop()).unwrap();
        assert_eq!(after.cache_hit, Some(true));
        assert_eq!(after.output.table.len(), 3); // Ada gone
        let age = after.output.table.resolve("Age").unwrap();
        let name = after.output.table.resolve("Name").unwrap();
        let john = after
            .output
            .table
            .rows()
            .iter()
            .find(|r| r[name] == Value::text("John Smith"))
            .unwrap();
        assert_eq!(john[age], Value::Int(30));
    }

    #[test]
    fn delta_validation_and_unknown_table() {
        let s = service();
        assert_eq!(
            s.apply_delta(
                "Ghosts",
                &TableDelta::new("Ghosts").delete(0),
                &Span::noop()
            )
            .unwrap_err()
            .status(),
            404
        );
        // Bad row index -> 400.
        let delta = TableDelta::new("EE_Student").delete(99);
        assert_eq!(
            s.apply_delta("EE_Student", &delta, &Span::noop())
                .unwrap_err()
                .status(),
            400
        );
        // Parse errors.
        assert!(parse_delta("T", "{").is_err());
        assert!(parse_delta("T", "{}").is_err()); // no ops
        assert!(parse_delta("T", r#"{"insert": "nope"}"#).is_err());
        assert!(parse_delta("T", r#"{"update": [{"values": [1]}]}"#).is_err());
        assert!(parse_delta("T", r#"{"delete": [-1]}"#).is_err());
        assert!(parse_delta("T", r#"{"insert": [[{"nested": 1}]]}"#).is_err());
        // Typed parsing: strings infer like CSV cells.
        let d = parse_delta("T", r#"{"insert": [["x", "25", null, true, 1.5]]}"#).unwrap();
        match &d.ops[0] {
            hummer_delta::DeltaOp::Insert(vals) => {
                assert_eq!(vals[1], Value::Int(25));
                assert_eq!(vals[2], Value::Null);
                assert_eq!(vals[3], Value::Bool(true));
                assert_eq!(vals[4], Value::Float(1.5));
            }
            other => panic!("expected insert, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_deltas_never_cache_stale_content() {
        // Regression for a review finding: an upgrade must key its
        // artifacts with the version *its* delta produced, never the
        // catalog's current version — otherwise two racing deltas could
        // cache the older content under the newest version key and serve
        // stale fusions as hits. Here we hammer one table from several
        // threads and then verify the served result equals a cold
        // recompute of the final catalog content.
        let s = Arc::new(service());
        s.query(PAPER_QUERY, &Span::noop()).unwrap(); // warm
        let threads: Vec<_> = (0i64..4)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0i64..4 {
                        s.apply_delta("CS_Students", &johns_age(26 + t + i), &Span::noop())
                            .unwrap();
                        s.query(PAPER_QUERY, &Span::noop()).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let served = s.query(PAPER_QUERY, &Span::noop()).unwrap();
        let reference = cold_answer(&s, PAPER_QUERY).unwrap();
        assert_eq!(
            served.output.table.rows(),
            reference.output.table.rows(),
            "a cached entry served content that does not match the catalog"
        );
    }

    /// Seeded sequences of uploads, deltas, deletes, re-uploads and
    /// queries over three tables and three source sets. After every step,
    /// the cache holds only pipelines whose every `(alias, version)` is
    /// current, and every query answers what a fresh service over the same
    /// catalog content answers.
    #[test]
    fn cache_holds_only_current_pipelines() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const TABLES: [(&str, &str); 3] = [
            ("EE_Student", "Name,Age,City"),
            ("CS_Students", "FullName,Years,Town"),
            ("Alumni", "Name,Age,City"),
        ];
        const SETS: [&[usize]; 3] = [&[0, 1], &[1, 2], &[2, 0, 1]];
        const NAMES: [&str; 5] = [
            "John Smith",
            "Mary Jones",
            "Peter Miller",
            "Ada Lovelace",
            "Jon Smith",
        ];
        const CITIES: [&str; 3] = ["Berlin", "Hamburg", "London"];
        let row = |rng: &mut StdRng| {
            let name = NAMES[rng.gen_range(0..NAMES.len())];
            let city = CITIES[rng.gen_range(0..CITIES.len())];
            vec![
                Value::text(name),
                Value::Int(rng.gen_range(20..30)),
                Value::text(city),
            ]
        };
        let sql = |set: &[usize]| {
            let from: Vec<&str> = set.iter().map(|&t| TABLES[t].0).collect();
            format!("SELECT * FUSE FROM {} FUSE BY (objectID)", from.join(", "))
        };
        // Answers compared, of them cache hits, and delta upgrades.
        let (mut answers, mut hits, mut upgrades) = (0, 0, 0);
        for seed in 0..12 {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = FusionService::new(ServiceConfig::narrow_schema());
            let rows = |s: &FusionService, t: usize| {
                s.catalog
                    .read()
                    .unwrap()
                    .get(TABLES[t].0)
                    .map(|e| e.table.len())
            };
            for step in 0..30 {
                let t = rng.gen_range(0..TABLES.len());
                let (name, header) = TABLES[t];
                match (rng.gen_range(0..8), rows(&s, t)) {
                    // Upload, or re-upload over the old version.
                    (0, _) | (1..=3, None) => {
                        let mut csv = format!("{header}\n");
                        for _ in 0..rng.gen_range(2..5) {
                            let r = row(&mut rng);
                            csv += &format!("{},{},{}\n", r[0], r[1], r[2]);
                        }
                        s.put_table(name, &csv).unwrap();
                    }
                    (1 | 2, Some(n)) => {
                        let delta = match rng.gen_range(0..3) {
                            0 => TableDelta::new(name).insert(row(&mut rng)),
                            1 if n > 1 => TableDelta::new(name).delete(rng.gen_range(0..n)),
                            _ => TableDelta::new(name).update(rng.gen_range(0..n), row(&mut rng)),
                        };
                        let outcome = s.apply_delta(name, &delta, &Span::noop()).unwrap();
                        upgrades += outcome.cache.upgraded;
                    }
                    (3, Some(_)) => {
                        s.delete_table(name).unwrap();
                    }
                    _ => {
                        let sql = sql(SETS[rng.gen_range(0..SETS.len())]);
                        let what = format!("seed {seed} step {step}: {sql}");
                        match (s.query(&sql, &Span::noop()), cold_answer(&s, &sql)) {
                            (Ok(served), Ok(fresh)) => {
                                answers += 1;
                                hits += usize::from(served.cache_hit == Some(true));
                                let (served, fresh) = (&served.output.table, &fresh.output.table);
                                assert_eq!(
                                    served.schema().names(),
                                    fresh.schema().names(),
                                    "{what}"
                                );
                                assert_eq!(served.rows(), fresh.rows(), "{what}");
                            }
                            (Err(a), Err(b)) => assert_eq!((a.status(), b.status()), (404, 404)),
                            (a, b) => panic!("{what}: served {a:?}, fresh {b:?}"),
                        }
                    }
                }
                // Every cached key is the current key of one of the sets.
                let catalog = s.catalog.read().unwrap().clone();
                let current = SETS
                    .iter()
                    .filter_map(|set| {
                        let key = set.iter().map(|&t| {
                            let entry = catalog.get(TABLES[t].0)?;
                            Some((TABLES[t].0.to_ascii_lowercase(), entry.version))
                        });
                        key.collect::<Option<PreparedKey>>()
                    })
                    .filter(|key| s.cache.lock().unwrap().get(key).is_some())
                    .count();
                assert_eq!(
                    s.cache_stats().entries,
                    current,
                    "seed {seed} step {step}: the cache holds a superseded pipeline"
                );
            }
        }
        // The sequences reach the paths they are meant to check.
        assert!(
            answers >= 40 && hits >= 20 && upgrades >= 20,
            "{answers} {hits} {upgrades}"
        );
    }

    /// A pipeline prepared or upgraded over a version a commit has since
    /// superseded (a late upgrade racing a newer delta) is not cached, and
    /// evicts nothing; one over current versions is.
    #[test]
    fn superseded_keys_are_not_admitted() {
        let s = service();
        let artifacts = || {
            let catalog = s.catalog.read().unwrap();
            let tables = [&*catalog.get("CS_Students").unwrap().table];
            Arc::new(hummer_core::prepare_tables(&tables, &s.config).unwrap())
        };
        let old: PreparedKey = vec![("cs_students".into(), 2)];
        assert!(s.admit(old.clone(), artifacts(), None));
        let new = s.apply_delta("CS_Students", &johns_age(30), &Span::noop());
        let new: PreparedKey = vec![("cs_students".into(), new.unwrap().info.version)];
        assert!(
            s.cache.lock().unwrap().get(&old).is_none(),
            "the delta took it out"
        );
        assert!(s.admit(new.clone(), artifacts(), None));
        assert!(!s.admit(old.clone(), artifacts(), None));
        assert!(s.cache.lock().unwrap().get(&new).is_some());
        assert!(s.cache.lock().unwrap().get(&old).is_none());
        assert!(!s.admit(vec![("ghosts".into(), 1)], artifacts(), None));
        let stats = s.cache_stats();
        assert_eq!((stats.entries, stats.evictions), (1, 0));
    }

    #[test]
    fn delta_json_documents_round_trip() {
        let s = service();
        s.query(PAPER_QUERY, &Span::noop()).unwrap();
        let delta = parse_delta("EE_Student", r#"{"delete": [2]}"#).unwrap();
        let outcome = s.apply_delta("EE_Student", &delta, &Span::noop()).unwrap();
        let doc = Json::parse(&delta_result_to_json(&outcome).to_string_compact()).unwrap();
        assert_eq!(doc.get("rows").unwrap().as_i64(), Some(2));
        assert_eq!(
            doc.get("applied").unwrap().get("deleted").unwrap().as_i64(),
            Some(1)
        );
        let m = scrape(&s);
        assert_eq!(m.value("hummer_deltas_applied_total", &[]), Some(1.0));
        assert!(m
            .value("hummer_prepared_cache_upgrades_total", &[])
            .is_some());
    }

    #[test]
    fn reupload_invalidates_cache() {
        let s = service();
        s.query(PAPER_QUERY, &Span::noop()).unwrap();
        s.put_table("CS_Students", CS_CSV).unwrap(); // same bytes, new version
        let after = s.query(PAPER_QUERY, &Span::noop()).unwrap();
        assert_eq!(after.cache_hit, Some(false));
    }

    #[test]
    fn plain_query_bypasses_cache() {
        let s = service();
        let out = s
            .query(
                "SELECT Name FROM EE_Student WHERE Age > 23 ORDER BY Name",
                &Span::noop(),
            )
            .unwrap();
        assert_eq!(out.cache_hit, None);
        assert_eq!(out.output.table.len(), 2);
        assert_eq!(s.cache_stats().misses, 0);
    }

    #[test]
    fn unknown_table_and_bad_sql_statuses() {
        let s = service();
        assert_eq!(
            s.query("SELECT * FROM Ghosts", &Span::noop())
                .unwrap_err()
                .status(),
            404
        );
        assert_eq!(
            s.query("SELECT * FUSE FROM Ghosts FUSE BY (x)", &Span::noop())
                .unwrap_err()
                .status(),
            404
        );
        assert_eq!(
            s.query("SELEKT garbage", &Span::noop())
                .unwrap_err()
                .status(),
            400
        );
    }

    #[test]
    fn concurrent_queries_share_one_prepare() {
        let s = Arc::new(service());
        s.query(PAPER_QUERY, &Span::noop()).unwrap(); // warm the cache
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let r = s.query(PAPER_QUERY, &Span::noop()).unwrap();
                    assert_eq!(r.cache_hit, Some(true));
                    r.output.table.len()
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), 4);
        }
        assert_eq!(s.cache_stats().misses, 1);
    }

    #[test]
    fn wire_json_round_trips() {
        let s = service();
        let r = s.query(PAPER_QUERY, &Span::noop()).unwrap();
        let doc = query_result_to_json(&r);
        let parsed = Json::parse(&doc.to_string_compact()).unwrap();
        assert_eq!(parsed.get("row_count").unwrap().as_i64(), Some(4));
        assert_eq!(parsed.get("fused").unwrap(), &Json::Bool(true));
        assert_eq!(parsed.get("cache").unwrap().as_str(), Some("miss"));
        let result = parsed.get("result").unwrap();
        assert_eq!(result.get("rows").unwrap().as_array().unwrap().len(), 4);
        let misses = scrape(&s).value("hummer_prepared_cache_misses_total", &[]);
        assert!(misses.unwrap() >= 1.0);
    }

    use hummer_store::StoreOptions;

    fn temp_dir() -> std::path::PathBuf {
        hummer_store::scratch::dir("service")
    }

    fn durable_service(dir: &std::path::Path) -> FusionService {
        let (store, recovery) = CatalogStore::open(dir, StoreOptions::default()).unwrap();
        FusionService::with_store(ServiceConfig::narrow_schema(), store, recovery)
    }

    #[test]
    fn durable_service_recovers_byte_identical_catalog_and_versions() {
        let dir = temp_dir();
        let (before_rows, before_tables) = {
            let s = durable_service(&dir);
            s.put_table("EE_Student", EE_CSV).unwrap();
            s.put_table("CS_Students", CS_CSV).unwrap();
            let delta = parse_delta(
                "CS_Students",
                r#"{"insert": [["Grace Hopper", "37", "Arlington"]]}"#,
            )
            .unwrap();
            s.apply_delta("CS_Students", &delta, &Span::noop()).unwrap();
            let r = s.query(PAPER_QUERY, &Span::noop()).unwrap();
            (r.output.table.rows().to_vec(), s.tables())
        }; // dropped mid-flight: a crash, no shutdown hook ran

        let (store, recovery) = CatalogStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recovery.replayed_records, 3); // 2 registers + 1 delta
        assert_eq!(recovery.dropped_bytes, 0);
        let s2 = FusionService::with_store(ServiceConfig::narrow_schema(), store, recovery);
        // Tables, shapes, AND content versions survive — cache keys stay
        // meaningful across the restart.
        assert_eq!(s2.tables(), before_tables);
        let after = s2.query(PAPER_QUERY, &Span::noop()).unwrap();
        assert_eq!(after.output.table.rows(), &before_rows[..]);
        assert_eq!(after.output.table.len(), 5);
        // New registrations continue past recovered versions.
        let v = s2.put_table("T", "a\n1\n").unwrap().version;
        assert!(v > before_tables.iter().map(|t| t.version).max().unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delete_table_is_logged_and_recovered() {
        let dir = temp_dir();
        {
            let s = durable_service(&dir);
            s.put_table("EE_Student", EE_CSV).unwrap(); // v1
            s.put_table("CS_Students", CS_CSV).unwrap(); // v2 — the highest
            let gone = s.delete_table("CS_Students").unwrap();
            assert_eq!(gone.name, "CS_Students");
            assert_eq!(gone.rows, 3);
            assert_eq!(gone.version, 2);
            assert_eq!(s.delete_table("CS_Students").unwrap_err().status(), 404);
        }
        let s2 = durable_service(&dir);
        let names: Vec<String> = s2.tables().into_iter().map(|t| t.name).collect();
        assert_eq!(names, vec!["EE_Student"]);
        // The deleted table held the highest version (2); the recovered
        // clock must resume past it — reusing 2 would let pre-crash cache
        // keys alias fresh content.
        let v = s2.put_table("T", "a\n1\n").unwrap().version;
        assert_eq!(v, 3, "version clock must resume past deleted tables");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delta_request_casing_never_renames_the_table() {
        let s = service();
        let delta = parse_delta(
            "cs_students", // deliberately not the registered casing
            r#"{"insert": [["Grace Hopper", "37", "Arlington"]]}"#,
        )
        .unwrap();
        let outcome = s.apply_delta("cs_students", &delta, &Span::noop()).unwrap();
        assert_eq!(outcome.info.name, "CS_Students", "canonical alias kept");
        let names: Vec<String> = s.tables().into_iter().map(|t| t.name).collect();
        assert!(names.contains(&"CS_Students".to_string()), "{names:?}");
        assert!(!names.contains(&"cs_students".to_string()), "{names:?}");
    }

    #[test]
    fn delete_table_works_without_a_store_too() {
        let s = service();
        s.delete_table("EE_Student").unwrap();
        assert_eq!(s.tables().len(), 1);
        assert_eq!(
            s.query(PAPER_QUERY, &Span::noop()).unwrap_err().status(),
            404
        );
    }

    #[test]
    fn threshold_compaction_runs_inside_the_service() {
        let dir = temp_dir();
        {
            let (store, recovery) = CatalogStore::open(
                &dir,
                StoreOptions {
                    fsync: true,
                    compact_after_bytes: 256, // tiny: every upload compacts
                    group_commit_window_us: 0,
                },
            )
            .unwrap();
            let s = FusionService::with_store(ServiceConfig::narrow_schema(), store, recovery);
            s.put_table("EE_Student", EE_CSV).unwrap();
            s.put_table("CS_Students", CS_CSV).unwrap();
            let stats = s.store_stats().unwrap();
            assert!(stats.snapshots_written >= 1, "{stats:?}");
        }
        let s2 = durable_service(&dir);
        assert_eq!(s2.tables().len(), 2);
        assert_eq!(
            s2.query(PAPER_QUERY, &Span::noop())
                .unwrap()
                .output
                .table
                .len(),
            4
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_have_store_section_only_when_durable() {
        let plain = service();
        let m = scrape(&plain);
        assert!(m.value("hummer_store_wal_bytes", &[]).is_none());
        assert!(m.value("hummer_store_fsync_enabled", &[]).is_none());
        assert!(plain.store_stats().is_none());

        let dir = temp_dir();
        let s = durable_service(&dir);
        s.put_table("EE_Student", EE_CSV).unwrap();
        let m = scrape(&s);
        assert!(m.value("hummer_store_wal_bytes", &[]).unwrap() > 16.0);
        assert_eq!(m.value("hummer_store_wal_records", &[]), Some(1.0));
        assert_eq!(m.value("hummer_store_snapshots_total", &[]), Some(0.0));
        assert!(m.value("hummer_store_recovery_seconds", &[]).is_some());
        assert_eq!(m.value("hummer_store_fsync_enabled", &[]), Some(1.0));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The served body against the tree it replaced.
    fn assert_streams_equal(result: &QueryResult, what: &str) {
        let expected = query_result_to_json(result).to_string_compact();
        // Into a buffer with history: the writer appends, callers clear.
        let mut streamed = String::with_capacity(7);
        write_query_result(result, &mut streamed);
        assert_eq!(streamed, expected, "{what}");
        // And it is the document a client parses.
        let doc = Json::parse(&streamed).unwrap();
        assert_eq!(
            doc.get("row_count").and_then(Json::as_i64),
            Some(result.output.table.len() as i64),
            "{what}"
        );
    }

    #[test]
    fn streamed_query_body_equals_the_json_tree() {
        use hummer_engine::Date;
        let s = service();
        for sql in [
            // Full, selective, HAVING / ORDER BY, aliases, explicit
            // resolutions, plain FROM, aggregates, empty results.
            "SELECT * FUSE FROM EE_Student, CS_Students FUSE BY (objectID)",
            "SELECT Name, RESOLVE(Age, max) AS oldest FUSE FROM EE_Student, CS_Students \
             FUSE BY (objectID) HAVING oldest > 20 ORDER BY oldest DESC",
            "SELECT Name FUSE FROM EE_Student, CS_Students WHERE Age > 23 FUSE BY (objectID)",
            "SELECT Name FUSE FROM EE_Student, CS_Students WHERE Age > 99 FUSE BY (objectID)",
            "SELECT * FUSE FROM EE_Student, CS_Students",
            "SELECT * FROM EE_Student",
            "SELECT Name FROM EE_Student WHERE Age > 99",
            "SELECT count(*) AS n, avg(Years) FROM CS_Students",
        ] {
            let first = s.query(sql, &Span::noop()).unwrap();
            assert_streams_equal(&first, sql);
            // Again as a cache hit.
            let again = s.query(sql, &Span::noop()).unwrap();
            assert_streams_equal(&again, sql);
        }

        // Every value the writer has a branch for, and every string the
        // escaper does: quotes, backslashes, all control characters, DEL,
        // two-, three- and four-byte characters, in cells and in column
        // names.
        let controls: String = (0u8..0x20).map(char::from).collect();
        let awkward = hummer_engine::table! {
            "T" => ["plain", "say \"hi\"\\\n", "ünï\u{7f}"];
            [f64::NAN, f64::INFINITY, f64::NEG_INFINITY],
            [2.0, -0.0, 1e300],
            [1.5e-7, i64::MIN, i64::MAX],
            [(), true, false],
            [Date::new(2005, 8, 30).unwrap(), Date::new(1, 1, 1).unwrap(), ""],
            ["\"", "\\", "a\"b\\c\"\""],
            [controls.as_str(), "tab\there", "\r\n"],
            ["é", "漢字", "𝄞 non-BMP 🎼"],
            ["trailing\u{1f}", "\u{0}leading", "mid\u{8}\u{c}dle"],
        };
        let with_values = |cache_hit| QueryResult {
            output: QueryOutput {
                table: awkward.clone(),
                fusion: None,
            },
            cache_hit,
            prepare_timings: StageTimings {
                matching: Duration::from_micros(1500),
                transformation: Duration::from_secs(2),
                detection: Duration::from_nanos(1),
                fusion: Duration::ZERO,
            },
            execute_time: Duration::from_micros(333),
            shards: None,
        };
        assert_streams_equal(&with_values(None), "awkward values, plain");
        assert_streams_equal(&with_values(Some(false)), "awkward values, miss");
        assert_streams_equal(&with_values(Some(true)), "awkward values, hit");
    }

    #[test]
    fn values_serialize_by_type() {
        use hummer_engine::Date;
        assert_eq!(value_to_json(&Value::Null), Json::Null);
        assert_eq!(value_to_json(&Value::Int(3)), Json::Int(3));
        assert_eq!(value_to_json(&Value::Float(1.5)), Json::Float(1.5));
        assert_eq!(value_to_json(&Value::Bool(true)), Json::Bool(true));
        assert_eq!(value_to_json(&Value::text("x")), Json::Str("x".into()));
        assert_eq!(
            value_to_json(&Value::Date(Date::new(2005, 8, 30).unwrap())),
            Json::Str("2005-08-30".into())
        );
    }
}
