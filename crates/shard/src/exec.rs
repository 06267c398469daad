//! The shard executor: the per-shard worker kernel, the pluggable scatter
//! backend, and the end-to-end sharded pipeline.
//!
//! ## Why per-shard output is bit-identical
//!
//! The worker scores its shard's candidate pairs with
//! [`hummer_dupdetect::score_candidates`] against the **full integrated
//! table and its corpus-wide similarity statistics** — only the pair list
//! is shard-local. A pair therefore scores to the exact same bits it would
//! in the single-shard detector. Clusters (transitive closures over
//! accepted pairs) never cross shards by the planner's co-occurrence
//! invariant, so the per-shard union-find finds exactly the global
//! clusters restricted to the shard, and per-shard fusion — over a
//! shard-local table with the global name and schema — resolves each
//! cluster from exactly the member rows the global fusion would.
//!
//! Schema matching and transformation run **once, globally**: DUMAS
//! matching is instance-based, so per-shard matching could diverge. Only
//! detection, clustering, and fusion fan out.

use crate::combine::combine_partials;
use crate::error::{Result, ShardError};
use crate::plan::{plan_shards, Shard};
use hummer_core::{count_matching, HummerConfig, PipelineOutcome, PreparedSources, StageTimings};
use hummer_dupdetect::{
    annotate_object_ids, score_candidates, sort_pairs_canonical, CandidateSpec, DetectionResult,
    DetectorConfig, DuplicatePair, HeuristicConfig, TupleSimilarity, UnionFind, OBJECT_ID_COLUMN,
};
use hummer_engine::{Row, Table, Value};
use hummer_fusion::{
    fuse, CellLineage, FunctionRegistry, FusionSpec, ResolutionSpec, SampleConflict,
};
use hummer_matching::{integrate, match_star_par, SOURCE_ID_COLUMN};
use hummer_obs::Span;
use hummer_par::Parallelism;
use std::time::{Duration, Instant};

/// Everything a worker needs to execute shards besides the table and the
/// shard list: the resolved detector scalars and the query's resolution
/// functions. Attribute names are pre-resolved by the coordinator so
/// workers never re-run the selection heuristics.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Comparison attributes, in resolution order.
    pub attributes: Vec<String>,
    /// Duplicate threshold.
    pub threshold: f64,
    /// Unsure-band lower threshold.
    pub unsure_threshold: f64,
    /// Whether the upper-bound filter applies.
    pub use_filter: bool,
    /// Per-column resolution functions (possibly empty — plain `COALESCE`
    /// fusion then applies, exactly as in the unsharded pipeline).
    pub resolutions: Vec<(String, ResolutionSpec)>,
}

impl JobSpec {
    /// The detector configuration a worker scores under. The candidate
    /// spec is irrelevant (workers receive pre-generated pair lists) and
    /// pinned to `AllPairs`.
    pub fn detector_config(&self) -> DetectorConfig {
        DetectorConfig {
            attributes: Some(self.attributes.clone()),
            heuristics: HeuristicConfig::default(),
            candidates: CandidateSpec::AllPairs,
            threshold: self.threshold,
            unsure_threshold: self.unsure_threshold,
            use_filter: self.use_filter,
        }
    }
}

/// One fused cluster as a worker ships it: the global smallest member (the
/// combiner's merge key), the fused row, per-cell lineage in **global** row
/// indices, and the cluster's conflict samples in column order.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPartial {
    /// Smallest global row index of the cluster — unique across shards,
    /// and ascending in exactly the global fusion's first-appearance order.
    pub min_member: usize,
    /// The fused row's values (output schema order).
    pub values: Vec<Value>,
    /// Per-cell lineage, `row_indices` remapped shard-local → global.
    pub cells: Vec<CellLineage>,
    /// Conflict samples for this cluster (the `cluster` field still holds
    /// the shard-local cluster index; the combiner rewrites it).
    pub samples: Vec<SampleConflict>,
}

/// Everything one shard's worker produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardPartial {
    /// Candidate pairs this shard was assigned.
    pub candidates: usize,
    /// Accepted pairs (global row indices), canonical order.
    pub pairs: Vec<DuplicatePair>,
    /// Unsure pairs (global row indices), canonical order.
    pub unsure: Vec<DuplicatePair>,
    /// Candidates discarded by the upper-bound filter.
    pub filtered_out: usize,
    /// Full similarity evaluations performed.
    pub compared: usize,
    /// Edit-distance memo hits (excluded from the bit-identity contract,
    /// like [`hummer_dupdetect::DetectionStats::memo_hits`]).
    pub memo_hits: usize,
    /// Cell-level conflicts resolved by this shard's fusion.
    pub conflict_count: usize,
    /// Fused clusters in shard-local first-appearance order (ascending
    /// `min_member`).
    pub clusters: Vec<ClusterPartial>,
}

/// Run one shard end to end: score its candidate pairs against the full
/// table's `measure`, form the shard-local transitive closure, fuse, and
/// package the partial for the combiner. Records a `shard` span with
/// `score` and `cluster` stage children under `parent` — on a worker
/// serving a remote-traced request these are the spans that ship back to
/// the coordinator.
#[allow(clippy::too_many_arguments)]
pub fn run_shard(
    table: &Table,
    measure: &TupleSimilarity,
    cfg: &DetectorConfig,
    shard: &Shard,
    resolutions: &[(String, ResolutionSpec)],
    registry: &FunctionRegistry,
    par: Parallelism,
    parent: &Span,
) -> Result<ShardPartial> {
    let mut shard_span = parent.child("shard");
    shard_span.count("rows", shard.rows.len() as u64);

    // 1. Score: full-table corpus statistics, shard-local pair list.
    let mut span = shard_span.child("score");
    let scored = score_candidates(table, measure, cfg, &shard.candidates, par);
    let mut pairs = scored.pairs;
    let mut unsure = scored.unsure;
    sort_pairs_canonical(&mut pairs);
    sort_pairs_canonical(&mut unsure);
    span.count("candidates", shard.candidates.len() as u64);
    span.count("compared", scored.compared as u64);
    span.count("filtered_out", scored.filtered_out as u64);
    span.count("cut_short", scored.cut_short as u64);
    span.count("pairs", pairs.len() as u64);
    drop(span);

    let mut cluster_span = shard_span.child("cluster");

    // 2. Transitive closure within the shard (pairs never leave it).
    let local_of = |g: usize| -> Result<usize> {
        shard
            .rows
            .binary_search(&g)
            .map_err(|_| ShardError::Wire(format!("candidate row {g} outside its shard")))
    };
    let mut uf = UnionFind::new(shard.rows.len());
    for p in &pairs {
        uf.union(local_of(p.left)?, local_of(p.right)?);
    }
    let cluster_ids = uf.cluster_ids();
    let clusters = uf.clusters();

    // 3. Shard-local annotated table: the shard's rows in global order,
    // under the global table name and schema, with a dense local objectID
    // — resolution functions see exactly the context the global fusion
    // would give them.
    let rows: Vec<Row> = shard
        .rows
        .iter()
        .map(|&r| table.rows()[r].clone())
        .collect();
    let local = Table::new(table.name(), table.schema().clone(), rows)?;
    let detection = DetectionResult {
        pairs: Vec::new(),
        unsure: Vec::new(),
        cluster_ids,
        clusters: clusters.clone(),
        stats: Default::default(),
        attributes_used: Vec::new(),
    };
    let annotated = annotate_object_ids(&local, &detection)?;

    // 4. Fuse with the same spec shape as `fuse_prepared`.
    let mut fspec = FusionSpec::by_key(vec![OBJECT_ID_COLUMN])
        .drop_column(OBJECT_ID_COLUMN)
        .drop_column(SOURCE_ID_COLUMN)
        .with_parallelism(par);
    for (col, rspec) in resolutions {
        fspec = fspec.resolve(col.clone(), rspec.clone());
    }
    let fused = fuse(&annotated, &fspec, registry)?;
    debug_assert_eq!(fused.table.len(), clusters.len());

    // 5. Package: remap lineage to global rows, tag clusters with their
    // global smallest member, group samples per cluster.
    let ncols = fused.table.schema().len();
    let mut cluster_partials: Vec<ClusterPartial> = fused
        .table
        .rows()
        .iter()
        .enumerate()
        .map(|(ci, row)| {
            let cells = (0..ncols)
                .map(|c| {
                    let mut cell = fused.lineage.cell(ci, c);
                    for row in &mut cell.row_indices {
                        *row = shard.rows[*row];
                    }
                    cell
                })
                .collect();
            ClusterPartial {
                min_member: shard.rows[clusters[ci][0]],
                values: row.values().to_vec(),
                cells,
                samples: Vec::new(),
            }
        })
        .collect();
    for sample in fused.sample_conflicts {
        cluster_partials[sample.cluster].samples.push(sample);
    }

    cluster_span.count("clusters", clusters.len() as u64);
    cluster_span.count("conflicts", fused.conflict_count as u64);
    drop(cluster_span);

    Ok(ShardPartial {
        candidates: shard.candidates.len(),
        pairs,
        unsure,
        filtered_out: scored.filtered_out,
        compared: scored.compared,
        memo_hits: scored.memo_hits,
        conflict_count: fused.conflict_count,
        clusters: cluster_partials,
    })
}

/// How often a scatter touched workers, retried, and fell back — the
/// coordinator's observability payload (all zeros for the local backend).
#[derive(Debug, Clone, Default)]
pub struct ScatterStats {
    /// Shards executed.
    pub shards: usize,
    /// Worker HTTP requests attempted (including retries).
    pub requests: usize,
    /// Requests that were retried on a distinct worker.
    pub retries: usize,
    /// Shard batches that fell back to local execution.
    pub fallbacks: usize,
    /// One entry per worker request, for per-worker latency metrics.
    pub worker_calls: Vec<WorkerCall>,
}

/// One worker request's outcome.
#[derive(Debug, Clone)]
pub struct WorkerCall {
    /// Worker address.
    pub worker: String,
    /// Wall-clock time of the request.
    pub latency: Duration,
    /// Whether the request produced usable partials.
    pub ok: bool,
}

/// Where shard batches execute: in-process ([`LocalBackend`]) or scattered
/// over HTTP to remote workers ([`crate::client::RemoteBackend`]).
pub trait ShardBackend {
    /// Execute every shard and return their partials (any order — the
    /// combiner's merge is order-insensitive) plus scatter statistics.
    /// Execution spans (per-shard stages locally, `worker_call` / `retry`
    /// / `fallback` remotely) nest under `parent`.
    fn scatter(
        &self,
        table: &Table,
        spec: &JobSpec,
        shards: &[Shard],
        registry: &FunctionRegistry,
        par: Parallelism,
        parent: &Span,
    ) -> Result<(Vec<ShardPartial>, ScatterStats)>;
}

/// Run every shard in-process, sequentially, each with `par` threads of
/// intra-shard parallelism.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalBackend;

/// Execute `shards` in-process against `table`: build the full-table
/// measure once, then run each shard. Shared by [`LocalBackend`], the
/// worker-side HTTP handler, and the coordinator's fallback path.
pub fn run_shards_local(
    table: &Table,
    spec: &JobSpec,
    shards: &[Shard],
    registry: &FunctionRegistry,
    par: Parallelism,
    parent: &Span,
) -> Result<Vec<ShardPartial>> {
    let cfg = spec.detector_config();
    let attrs: Vec<usize> = spec
        .attributes
        .iter()
        .map(|n| table.resolve(n))
        .collect::<std::result::Result<_, _>>()?;
    let measure = TupleSimilarity::new(table, attrs);
    shards
        .iter()
        .map(|s| {
            run_shard(
                table,
                &measure,
                &cfg,
                s,
                &spec.resolutions,
                registry,
                par,
                parent,
            )
        })
        .collect()
}

impl ShardBackend for LocalBackend {
    fn scatter(
        &self,
        table: &Table,
        spec: &JobSpec,
        shards: &[Shard],
        registry: &FunctionRegistry,
        par: Parallelism,
        parent: &Span,
    ) -> Result<(Vec<ShardPartial>, ScatterStats)> {
        let partials = run_shards_local(table, spec, shards, registry, par, parent)?;
        let stats = ScatterStats {
            shards: shards.len(),
            ..Default::default()
        };
        Ok((partials, stats))
    }
}

/// The sharded pipeline's complete output.
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// Bit-identical to `prepare_tables` + `fuse_prepared_par` over the
    /// same tables and configuration (modulo `detection.stats.memo_hits`
    /// and wall-clock timings).
    pub outcome: PipelineOutcome,
    /// The preparation artifacts (for a serving layer's prepared cache).
    pub prepared: PreparedSources,
    /// Shards the plan produced.
    pub shards: usize,
    /// Candidate-graph components the plan packed.
    pub components: usize,
    /// Scatter statistics from the backend.
    pub stats: ScatterStats,
}

/// Run the full sharded pipeline in-process: match + transform globally,
/// plan at most `k` shards, execute them locally, and combine.
pub fn execute_sharded(
    tables: &[&Table],
    config: &HummerConfig,
    k: usize,
    resolutions: &[(String, ResolutionSpec)],
    registry: &FunctionRegistry,
) -> Result<ShardedOutcome> {
    execute_sharded_with(
        tables,
        config,
        k,
        resolutions,
        registry,
        &LocalBackend,
        &Span::noop(),
    )
}

/// [`execute_sharded`] with an explicit backend and parent span. Stage
/// spans (`match`, `transform`, `plan`, `scatter`, `combine`) nest under
/// `parent`.
pub fn execute_sharded_with(
    tables: &[&Table],
    config: &HummerConfig,
    k: usize,
    resolutions: &[(String, ResolutionSpec)],
    registry: &FunctionRegistry,
    backend: &dyn ShardBackend,
    parent: &Span,
) -> Result<ShardedOutcome> {
    let mut timings = StageTimings::default();

    // Global stages: matching and transformation (see module docs).
    let mut span = parent.child("match");
    let t0 = Instant::now();
    let match_results = match_star_par(tables, &config.matcher, config.parallelism);
    timings.matching = t0.elapsed();
    span.count("tables", tables.len() as u64);
    count_matching(&mut span, &match_results);
    drop(span);

    let mut span = parent.child("transform");
    let t0 = Instant::now();
    let integrated = integrate(tables, &match_results, "Integrated")?;
    timings.transformation = t0.elapsed();
    span.count("union_rows", integrated.len() as u64);
    drop(span);

    let cfg = config.detector_config();
    let attrs = hummer_dupdetect::resolve_attributes(&integrated, &cfg)?;
    let attributes: Vec<String> = attrs
        .iter()
        .map(|&i| integrated.schema().column(i).name.clone())
        .collect();

    let t0 = Instant::now();
    let mut span = parent.child("plan");
    let plan = plan_shards(&integrated, &cfg, k)?;
    span.count("shards", plan.shards.len() as u64);
    span.count("components", plan.components as u64);
    span.count("candidates", plan.candidates as u64);
    drop(span);

    let spec = JobSpec {
        attributes: attributes.clone(),
        threshold: cfg.threshold,
        unsure_threshold: cfg.unsure_threshold,
        use_filter: cfg.use_filter,
        resolutions: resolutions.to_vec(),
    };

    let mut span = parent.child("scatter");
    let (partials, mut stats) = backend.scatter(
        &integrated,
        &spec,
        &plan.shards,
        registry,
        config.parallelism,
        &span,
    )?;
    stats.shards = plan.shards.len();
    span.count("shards", plan.shards.len() as u64);
    span.count("requests", stats.requests as u64);
    span.count("retries", stats.retries as u64);
    span.count("fallbacks", stats.fallbacks as u64);
    drop(span);
    timings.detection = t0.elapsed();

    let t0 = Instant::now();
    let mut span = parent.child("combine");
    let combined = combine_partials(&integrated, attributes, partials)?;
    timings.fusion = t0.elapsed();
    span.count("clusters", combined.detection.object_count() as u64);
    span.count("fused_rows", combined.table.len() as u64);
    span.count("conflicts", combined.conflict_count as u64);
    drop(span);

    let prepared = PreparedSources {
        match_results: match_results.clone(),
        integrated: integrated.clone(),
        detection: combined.detection.clone(),
        annotated: combined.annotated,
        timings: StageTimings {
            fusion: Duration::ZERO,
            ..timings
        },
    };
    let outcome = PipelineOutcome {
        result: combined.table,
        lineage: combined.lineage,
        sample_conflicts: combined.sample_conflicts,
        conflict_count: combined.conflict_count,
        match_results,
        integrated,
        detection: combined.detection,
        timings,
    };
    Ok(ShardedOutcome {
        outcome,
        prepared,
        shards: plan.shards.len(),
        components: plan.components,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::key_equality_spec;
    use hummer_core::{fuse_prepared_par, prepare_tables};
    use hummer_datagen::scenarios::person_scale;
    use hummer_fusion::ResolutionSpec;

    fn fingerprint(out: &PipelineOutcome) -> String {
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{}|{:?}",
            out.result.rows(),
            out.result.schema().names(),
            out.detection.cluster_ids,
            out.detection.pairs,
            out.detection.unsure,
            out.conflict_count,
            out.sample_conflicts,
        )
    }

    #[test]
    fn sharded_matches_single_shard_bitwise() {
        let world = person_scale(30, 7);
        let tables: Vec<&Table> = world.sources.iter().map(|s| &s.table).collect();
        let mut config = HummerConfig::default();
        config.detector.candidates = key_equality_spec("Name");
        config.parallelism = Parallelism::degree(2);
        let registry = FunctionRegistry::standard();
        let resolutions = [("Name".to_string(), ResolutionSpec::named("longest"))];

        let prepared = prepare_tables(&tables, &config).unwrap();
        let reference =
            fuse_prepared_par(&prepared, &resolutions, &registry, config.parallelism).unwrap();

        for k in [1usize, 2, 4, 8] {
            let sharded = execute_sharded(&tables, &config, k, &resolutions, &registry).unwrap();
            assert_eq!(
                fingerprint(&reference),
                fingerprint(&sharded.outcome),
                "k={k}"
            );
            assert_eq!(
                prepared.annotated.rows(),
                sharded.prepared.annotated.rows(),
                "annotated rows diverged at k={k}"
            );
            assert!(sharded.shards <= k);
        }
    }

    #[test]
    fn coordinator_match_span_carries_the_matching_counters() {
        let world = person_scale(30, 7);
        let tables: Vec<&Table> = world.sources.iter().map(|s| &s.table).collect();
        let mut config = HummerConfig::default();
        config.detector.candidates = key_equality_spec("Name");
        let registry = FunctionRegistry::standard();

        let tracer = hummer_obs::ObsConfig::enabled(256).tracer;
        let root = tracer.trace("prepare");
        let sharded =
            execute_sharded_with(&tables, &config, 2, &[], &registry, &LocalBackend, &root)
                .unwrap();
        drop(root);

        let spans = tracer.drain();
        let matches: Vec<_> = spans.iter().filter(|s| s.name == "match").collect();
        assert_eq!(matches.len(), 1);
        let results = &sharded.outcome.match_results;
        let sum =
            |of: fn(&hummer_matching::MatchResult) -> u64| -> u64 { results.iter().map(of).sum() };
        assert!(sum(|m| m.sniff.rounds) >= 1 && sum(|m| m.correspondence_count() as u64) >= 1);
        for (name, value) in [
            ("tables", tables.len() as u64),
            ("correspondences", sum(|m| m.correspondence_count() as u64)),
            ("sniff_postings_visited", sum(|m| m.sniff.postings_visited)),
            (
                "sniff_candidates_scored",
                sum(|m| m.sniff.candidates_scored),
            ),
            ("sniff_rows_expanded", sum(|m| m.sniff.rows_expanded)),
            ("sniff_rounds", sum(|m| m.sniff.rounds)),
        ] {
            let counter = matches[0].counters.iter().find(|(n, _)| n == name);
            assert_eq!(counter.map(|(_, v)| *v), Some(value), "{name}");
        }
    }

    #[test]
    fn local_backend_reports_shard_count() {
        let world = person_scale(12, 3);
        let tables: Vec<&Table> = world.sources.iter().map(|s| &s.table).collect();
        let mut config = HummerConfig::default();
        config.detector.candidates = key_equality_spec("Name");
        let registry = FunctionRegistry::standard();
        let sharded = execute_sharded(&tables, &config, 4, &[], &registry).unwrap();
        assert_eq!(sharded.stats.shards, sharded.shards);
        assert_eq!(sharded.stats.requests, 0);
        assert_eq!(sharded.stats.fallbacks, 0);
    }

    /// FNV-1a over the frame: the golden values below were printed by this
    /// very test at the commit before fusion's lineage went flat (a v2
    /// frame; v3 changed only the request frame and the version byte).
    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn golden_response_frame_is_unchanged() {
        let world = person_scale(30, 7);
        let tables: Vec<&Table> = world.sources.iter().map(|s| &s.table).collect();
        let mut config = HummerConfig::default();
        config.detector.candidates = key_equality_spec("Name");
        let prepared = prepare_tables(&tables, &config).unwrap();
        let cfg = config.detector_config();
        let plan = plan_shards(&prepared.integrated, &cfg, 3).unwrap();
        let spec = JobSpec {
            attributes: prepared.detection.attributes_used.clone(),
            threshold: cfg.threshold,
            unsure_threshold: cfg.unsure_threshold,
            use_filter: cfg.use_filter,
            resolutions: vec![
                ("Name".to_string(), ResolutionSpec::named("longest")),
                ("City".to_string(), ResolutionSpec::named("vote")),
                ("Age".to_string(), ResolutionSpec::named("avg")),
            ],
        };
        let mut partials = run_shards_local(
            &prepared.integrated,
            &spec,
            &plan.shards,
            &FunctionRegistry::standard(),
            Parallelism::degree(2),
            &Span::noop(),
        )
        .unwrap();
        // Work counters the identity contract leaves out.
        for p in &mut partials {
            p.memo_hits = 0;
        }
        let mut frame = crate::wire::encode_response(&partials, &[]);
        assert_eq!(frame[4], 3, "the version byte follows the 4-byte magic");
        frame[4] = 2;
        let cells: usize = partials
            .iter()
            .flat_map(|p| &p.clusters)
            .map(|c| c.cells.len())
            .sum();
        assert!(
            partials.len() > 1 && cells > 100,
            "{} shards, {cells} cells",
            partials.len()
        );
        assert_eq!(
            (frame.len(), fnv(&frame)),
            (5630, 13_603_032_144_052_462_987),
            "HmSh response bytes moved"
        );
    }
}
