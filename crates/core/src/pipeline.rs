//! The HumMer facade: fully automatic data fusion.
//!
//! "Guided by a query against multiple tables, HumMer proceeds in three
//! fully automated steps: instance-based schema matching [...], duplicate
//! detection [...], data fusion and conflict resolution" (abstract).
//!
//! Two modes, as in §3:
//! * [`Hummer::query`] — the basic SQL interface: `FUSE FROM` queries over
//!   heterogeneous sources are pre-aligned by schema matching (renaming
//!   favors the first source in the query), then executed;
//! * [`Hummer::fuse_sources`] — the automatic end-to-end pipeline the
//!   wizard drives: match → transform → detect duplicates → fuse by
//!   `objectID` (the step-wise, adjustable variant lives in
//!   [`crate::wizard`]).

use crate::error::Result;
use crate::repository::MetadataRepository;
use hummer_dupdetect::{
    annotate_object_ids, detect_duplicates, DeltaDetectionStats, DetectionIndex, DetectionResult,
    DetectorConfig, RowMapping,
};
use hummer_engine::{Table, OBJECT_ID_COLUMN, SOURCE_ID_COLUMN};
use hummer_fusion::{
    fuse, FunctionRegistry, FusionSpec, Lineage, Parallelism, ResolutionSpec, SampleConflict,
};
use hummer_matching::{
    apply_renames, integrate, match_star, MatchDeltaStats, MatchIndex, MatchResult, MatcherConfig,
};
use hummer_obs::{ObsConfig, Span};
use hummer_query::{parse, QueryOutput, TableSet};
use std::time::{Duration, Instant};

/// Wall-clock time spent in each pipeline stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Schema matching (DUMAS over all table pairs).
    pub matching: Duration,
    /// Renaming + `sourceID` + full outer union.
    pub transformation: Duration,
    /// Duplicate detection.
    pub detection: Duration,
    /// Conflict resolution / fusion.
    pub fusion: Duration,
}

impl StageTimings {
    /// Total pipeline time.
    pub fn total(&self) -> Duration {
        self.matching + self.transformation + self.detection + self.fusion
    }
}

/// The reusable artifacts of the pipeline's *preparation* stages — schema
/// matching, transformation, and duplicate detection — everything up to (but
/// excluding) fusion.
///
/// Preparation depends only on the source tables, not on the query's
/// resolution functions, so a serving layer can compute it once per source
/// set and replay many differently-resolved fusions against it (see
/// [`fuse_prepared`]); `hummer_server`'s prepared-pipeline cache stores
/// exactly this struct.
#[derive(Debug, Clone)]
pub struct PreparedSources {
    /// Schema-matching results (preferred table vs. each other table).
    pub match_results: Vec<MatchResult>,
    /// Renamed + `sourceID`-tagged full outer union of the sources.
    pub integrated: Table,
    /// Duplicate detection over `integrated`.
    pub detection: DetectionResult,
    /// `integrated` with the `objectID` column appended.
    pub annotated: Table,
    /// Wall-clock cost of the preparation stages (`fusion` is zero).
    pub timings: StageTimings,
}

/// Run the preparation stages (match → transform → detect → annotate) over
/// explicit tables, without needing a [`Hummer`] or its repository.
///
/// `config.parallelism` sets how many threads the matching and detection
/// stages may use; the output is bit-identical for every degree.
///
/// # Example
///
/// ```
/// use hummer_core::{prepare_tables, HummerConfig};
/// use hummer_engine::table;
///
/// let dump = table! {
///     "Dump" => ["Name", "City"];
///     ["John Smith", "Berlin"],
///     ["Jon Smith",  "Berlin"],   // typo duplicate
///     ["Mary Jones", "Hamburg"],
/// };
/// let mut config = HummerConfig::default();
/// config.detector.threshold = 0.6;
/// config.detector.unsure_threshold = 0.5;
///
/// let prepared = prepare_tables(&[&dump], &config).unwrap();
/// assert!(prepared.annotated.schema().contains("objectID"));
/// assert_eq!(prepared.detection.object_count(), 2); // the Smiths cluster
/// ```
pub fn prepare_tables(tables: &[&Table], config: &HummerConfig) -> Result<PreparedSources> {
    let root = config.obs.tracer.trace("prepare");
    prepare_tables_traced(tables, config, &root)
}

/// [`prepare_tables`] recording its stage spans (match → transform →
/// detect → cluster) as children of `parent` — the serving layer passes
/// its per-request span here so one trace covers the whole query. With a
/// no-op `parent` this is exactly `prepare_tables`.
pub fn prepare_tables_traced(
    tables: &[&Table],
    config: &HummerConfig,
    parent: &Span,
) -> Result<PreparedSources> {
    let mut timings = StageTimings::default();

    // 1. Schema matching.
    let mut span = parent.child("match");
    let t0 = Instant::now();
    let match_results = match_star(tables, &config.matcher, config.parallelism);
    timings.matching = t0.elapsed();
    span.count("tables", tables.len() as u64);
    count_matching(&mut span, &match_results);
    span.count("degree", config.parallelism.get() as u64);
    drop(span);

    // 2. Transformation: rename → sourceID → full outer union.
    let mut span = parent.child("transform");
    let t0 = Instant::now();
    let integrated = integrate(tables, &match_results, "Integrated")?;
    timings.transformation = t0.elapsed();
    span.count("union_rows", integrated.len() as u64);
    span.count("union_cols", integrated.schema().len() as u64);
    drop(span);

    // 3. Duplicate detection → objectID.
    let t0 = Instant::now();
    let mut span = parent.child("detect");
    let detection = detect_duplicates(&integrated, &config.detector_config(), config.parallelism)?;
    count_detection(&mut span, &detection.stats);
    drop(span);
    let mut span = parent.child("cluster");
    let annotated = annotate_object_ids(&integrated, &detection)?;
    timings.detection = t0.elapsed();
    span.count("clusters", detection.object_count() as u64);
    span.count("duplicate_pairs", detection.pairs.len() as u64);
    drop(span);

    Ok(PreparedSources {
        match_results,
        integrated,
        detection,
        annotated,
        timings,
    })
}

/// Attach matching counters to the `match` span, summed over the star's
/// table pairs: correspondences found, and what sniffing the duplicates
/// behind them cost (see [`hummer_matching::SniffStats`]). The cold
/// prepare and the delta path both call it, so their `match` spans carry
/// the same counters.
fn count_matching(span: &mut Span, results: &[MatchResult]) {
    let sum = |of: fn(&MatchResult) -> u64| results.iter().map(of).sum::<u64>();
    span.count("correspondences", sum(|m| m.correspondence_count() as u64));
    span.count("sniff_postings_visited", sum(|m| m.sniff.postings_visited));
    span.count(
        "sniff_candidates_scored",
        sum(|m| m.sniff.candidates_scored),
    );
    span.count("sniff_rows_expanded", sum(|m| m.sniff.rows_expanded));
    span.count("sniff_rounds", sum(|m| m.sniff.rounds));
}

/// Attach detection counters to the `detect` span: candidate pairs,
/// filter rejections, pairs actually scored, and how many 512-pair blocks
/// the scoring kernel processed. (`DetectionStats::memo_hits` is always 0
/// and is not reported.)
fn count_detection(span: &mut Span, stats: &hummer_dupdetect::DetectionStats) {
    if !span.is_recording() {
        return;
    }
    span.count("candidates", stats.candidates as u64);
    span.count("filtered_out", stats.filtered_out as u64);
    span.count("compared", stats.compared as u64);
    span.count(
        "columnar_blocks",
        stats.compared.div_ceil(hummer_dupdetect::PAIR_BLOCK) as u64,
    );
}

/// What one [`PreparedSources::apply_delta`] cost and how much it reused.
#[derive(Debug, Clone)]
pub struct DeltaReport {
    /// Incremental-matching counters (rows tokenized again, rows scanned
    /// again, field matrices reused, pairs rebuilt).
    pub matching: MatchDeltaStats,
    /// Incremental-detection counters (dirty rows, carried vs. rescored
    /// pairs, full-rescore fallbacks).
    pub detection: DeltaDetectionStats,
    /// Wall-clock cost of *this* apply, by stage (`fusion` is zero).
    pub timings: StageTimings,
}

/// What a delta carries from one set of prepared artifacts to the next:
/// the [`MatchIndex`] of their sources and the [`DetectionIndex`] of their
/// integrated table. Built by the first delta of a set of artifacts (a
/// cold prepare builds neither for keeps) and handed on by every later one.
#[derive(Debug)]
pub struct DeltaIndex {
    matching: MatchIndex,
    detection: DetectionIndex,
}

impl DeltaIndex {
    /// The carried detection index.
    pub fn detection(&self) -> &DetectionIndex {
        &self.detection
    }
}

impl PreparedSources {
    /// Refresh these prepared artifacts for the post-delta `new_tables`
    /// (same sources, same order), where `mapping` relates the rows of the
    /// old and new *integrated* (outer-union) tables — build it with
    /// `hummer_delta::concat_mappings` from the per-source mappings a
    /// `TableDelta` application returns.
    ///
    /// The refreshed artifacts are **byte-identical** to
    /// [`prepare_tables`] over `new_tables` — except `detection.stats` and
    /// each match result's `sniff`, which report the (delta-sized) work
    /// this refresh actually did — at every parallelism degree. Schema
    /// matching goes through a [`MatchIndex`]: only touched rows are
    /// tokenized again and only what they moved is re-matched; the
    /// transformation re-runs (linear); duplicate detection goes through a
    /// [`DetectionIndex`]: only pairs touching dirty rows are re-scored, and
    /// the clusters are formed from the carried and re-scored pairs.
    ///
    /// This builds both indexes and drops them afterwards; a caller that
    /// refreshes the same artifacts again and again keeps them through
    /// [`PreparedSources::apply_delta_traced`].
    ///
    /// `config` must be the configuration that produced `self`.
    pub fn apply_delta(
        &self,
        new_tables: &[&Table],
        mapping: &RowMapping,
        config: &HummerConfig,
    ) -> Result<(PreparedSources, DeltaReport)> {
        let root = config.obs.tracer.trace("delta");
        self.apply_delta_traced(new_tables, mapping, config, &mut None, &root)
    }

    /// [`PreparedSources::apply_delta`] carrying the delta index and
    /// recording its stage spans under `parent` (the server's per-request
    /// span).
    ///
    /// `index` is the [`DeltaIndex`] of `self`, or `None` to build it: the
    /// match index over `new_tables` (a cold match), the detection index
    /// from these artifacts. On success it holds the index of the returned
    /// artifacts, ready for the next delta; on error it is `None`.
    pub fn apply_delta_traced(
        &self,
        new_tables: &[&Table],
        mapping: &RowMapping,
        config: &HummerConfig,
        index: &mut Option<DeltaIndex>,
        parent: &Span,
    ) -> Result<(PreparedSources, DeltaReport)> {
        let mut timings = StageTimings::default();
        let carried = index.take();
        let index_reused = carried.is_some();
        let (carried_matching, carried_detection) = match carried {
            Some(DeltaIndex {
                matching,
                detection,
            }) => (Some(matching), Some(detection)),
            None => (None, None),
        };

        // 1. Schema matching: the carried match index moves by the rows the
        //    delta touched, so instance drift that changes correspondences
        //    is honored, not approximated.
        let mut span = parent.child("match");
        let t0 = Instant::now();
        let (matching, match_stats) = match carried_matching {
            Some(mut matching) => {
                let stats = matching.apply_delta(
                    &self.integrated,
                    new_tables,
                    &mapping.new_to_old,
                    config.parallelism,
                )?;
                (matching, stats)
            }
            None => {
                let matching = MatchIndex::build(new_tables, &config.matcher, config.parallelism);
                let rows = new_tables.iter().map(|t| t.len()).sum();
                let stats = MatchDeltaStats {
                    rows_retokenized: rows,
                    full_rematch: new_tables.len().saturating_sub(1),
                    ..MatchDeltaStats::default()
                };
                (matching, stats)
            }
        };
        let match_results = matching.results();
        timings.matching = t0.elapsed();
        span.count("tables", new_tables.len() as u64);
        count_matching(&mut span, &match_results);
        if span.is_recording() {
            span.count("index_reused", u64::from(index_reused));
            span.count("rows_retokenized", match_stats.rows_retokenized as u64);
            span.count("rows_rescanned", match_stats.rows_rescanned as u64);
            span.count(
                "right_rows_rescored",
                match_stats.right_rows_rescored as u64,
            );
            span.count(
                "pair_matrices_reused",
                match_stats.pair_matrices_reused as u64,
            );
            span.count("full_rematch", match_stats.full_rematch as u64);
        }
        drop(span);

        // 2. Transformation: recomputed (linear). If matching changed the
        //    union schema, the detection index notices the changed columns
        //    and re-indexes.
        let mut span = parent.child("transform");
        let t0 = Instant::now();
        let integrated = integrate(new_tables, &match_results, "Integrated")?;
        timings.transformation = t0.elapsed();
        span.count("union_rows", integrated.len() as u64);
        drop(span);

        // 3. Duplicate detection: the old artifacts' index, carried.
        let t0 = Instant::now();
        let mut span = parent.child("detect");
        let mut detection_index = match carried_detection {
            Some(carried) => carried,
            None => DetectionIndex::build(&self.integrated, &config.detector_config())?,
        };
        let (detection, delta_stats) = detection_index.apply_delta(
            &self.integrated,
            &self.detection,
            &integrated,
            mapping,
            config.parallelism,
        )?;
        *index = Some(DeltaIndex {
            matching,
            detection: detection_index,
        });
        if span.is_recording() {
            span.count("index_reused", u64::from(index_reused));
            span.count("rows_rerendered", delta_stats.rows_rerendered as u64);
            span.count("rows_reweighted", delta_stats.rows_reweighted as u64);
            span.count("dirty_rows", delta_stats.dirty_rows as u64);
            span.count("candidates", delta_stats.candidates as u64);
            span.count("compared", delta_stats.compared as u64);
            span.count("carried_pairs", delta_stats.carried_pairs as u64);
            span.count("scored_pairs", delta_stats.scored_pairs as u64);
            span.count("full_rescore", u64::from(delta_stats.full_rescore));
        }
        drop(span);
        let mut span = parent.child("cluster");
        let annotated = annotate_object_ids(&integrated, &detection)?;
        timings.detection = t0.elapsed();
        span.count("clusters", detection.object_count() as u64);
        drop(span);

        Ok((
            PreparedSources {
                match_results,
                integrated,
                detection,
                annotated,
                timings,
            },
            DeltaReport {
                matching: match_stats,
                detection: delta_stats,
                timings,
            },
        ))
    }
}

/// Run the fusion stage over prepared artifacts: fuse `annotated` by
/// `objectID` with the given per-column resolutions (default `COALESCE`).
///
/// The preparation timings are carried into the outcome with the fusion
/// stage's cost added, so `outcome.timings.total()` reflects what an
/// uncached end-to-end run would have paid.
pub fn fuse_prepared(
    prepared: &PreparedSources,
    resolutions: &[(String, ResolutionSpec)],
    registry: &FunctionRegistry,
) -> Result<PipelineOutcome> {
    fuse_prepared_traced(
        prepared,
        resolutions,
        registry,
        Parallelism::sequential(),
        &Span::noop(),
    )
}

/// [`fuse_prepared`] with up to `par.get()` threads resolving disjoint
/// duplicate clusters concurrently (bit-identical output for every
/// degree), recording a `fuse` span (fused rows, resolved conflicts,
/// parallelism degree) as a child of `parent`.
pub fn fuse_prepared_traced(
    prepared: &PreparedSources,
    resolutions: &[(String, ResolutionSpec)],
    registry: &FunctionRegistry,
    par: Parallelism,
    parent: &Span,
) -> Result<PipelineOutcome> {
    let mut timings = prepared.timings;
    let mut span = parent.child("fuse");
    let t0 = Instant::now();
    let mut spec = FusionSpec::by_key(vec![OBJECT_ID_COLUMN])
        .drop_column(OBJECT_ID_COLUMN)
        .drop_column(SOURCE_ID_COLUMN)
        .with_parallelism(par);
    for (col, rspec) in resolutions {
        spec = spec.resolve(col.clone(), rspec.clone());
    }
    let fused = fuse(&prepared.annotated, &spec, registry)?;
    timings.fusion = t0.elapsed();
    if span.is_recording() {
        span.count("fused_rows", fused.table.len() as u64);
        span.count("merged_clusters", fused.merged_clusters as u64);
        span.count("conflicts", fused.conflict_count as u64);
        span.count("degree", par.get() as u64);
    }
    drop(span);

    Ok(PipelineOutcome {
        result: fused.table,
        lineage: fused.lineage,
        sample_conflicts: fused.sample_conflicts,
        conflict_count: fused.conflict_count,
        match_results: prepared.match_results.clone(),
        integrated: prepared.integrated.clone(),
        detection: prepared.detection.clone(),
        timings,
    })
}

/// Everything the automatic pipeline produced (the intermediate artifacts
/// are what the demo GUI visualizes at each step).
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// The clean, consistent, fused result (bookkeeping columns dropped).
    pub result: Table,
    /// Per-cell lineage of `result` (color-coding support).
    pub lineage: Lineage,
    /// Sampled conflicts that were resolved.
    pub sample_conflicts: Vec<SampleConflict>,
    /// Total number of resolved cell-level conflicts.
    pub conflict_count: usize,
    /// Schema-matching results (preferred table vs. each other table).
    pub match_results: Vec<MatchResult>,
    /// The integrated table (after transformation, before detection).
    pub integrated: Table,
    /// The duplicate-detection result over `integrated`.
    pub detection: DetectionResult,
    /// Per-stage wall-clock timings.
    pub timings: StageTimings,
}

/// Pipeline configuration.
#[derive(Debug, Clone, Default)]
pub struct HummerConfig {
    /// Schema-matching parameters.
    pub matcher: MatcherConfig,
    /// Duplicate-detection parameters.
    pub detector: DetectorConfig,
    /// Intra-query thread budget for the parallelizable stages (matching,
    /// detection, fusion). Defaults to sequential; results are
    /// bit-identical for every degree, so this is purely a latency knob.
    /// A serving layer running N workers should set this to
    /// `Parallelism::auto_shared(N)` so the two layers compose without
    /// oversubscribing the machine.
    pub parallelism: Parallelism,
    /// No setting: there is one execution path. Kept only because
    /// `hbench/src/layers.rs:273` passes it to
    /// `hummer_matching::integrate_with_layout`; it goes when that call does.
    #[doc(hidden)]
    pub layout: (),
    /// Observability: where pipeline stage spans are recorded. Disabled by
    /// default (spans become branch-only no-ops); instrumentation never
    /// changes the fused output —
    /// `tests/parallel_equivalence.rs::tracing_does_not_perturb_the_answer`
    /// holds bit-identity, and hbench's `obs.trace_overhead_share` reports
    /// the cost.
    pub obs: ObsConfig,
}

impl HummerConfig {
    /// The detector configuration the pipeline runs under. The pipeline
    /// reads it here; `tests/incremental_properties.rs` and the hbench
    /// layer probes read it too, so they score pairs under exactly the
    /// configuration the pipeline uses.
    pub fn detector_config(&self) -> DetectorConfig {
        self.detector.clone()
    }
}

/// The HumMer system: a metadata repository plus configured components.
#[derive(Debug, Default)]
pub struct Hummer {
    repository: MetadataRepository,
    config: HummerConfig,
    registry: FunctionRegistry,
}

impl Hummer {
    /// A HumMer with default configuration and an empty repository.
    pub fn new() -> Self {
        Hummer::default()
    }

    /// A HumMer with explicit configuration.
    pub fn with_config(config: HummerConfig) -> Self {
        Hummer {
            repository: MetadataRepository::new(),
            config,
            registry: FunctionRegistry::standard(),
        }
    }

    /// The metadata repository (read).
    pub fn repository(&self) -> &MetadataRepository {
        &self.repository
    }

    /// The metadata repository (register/deregister sources).
    pub fn repository_mut(&mut self) -> &mut MetadataRepository {
        &mut self.repository
    }

    /// The resolution-function registry (register custom functions here).
    pub fn registry_mut(&mut self) -> &mut FunctionRegistry {
        &mut self.registry
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &HummerConfig {
        &self.config
    }

    /// The pipeline configuration (mutable).
    pub fn config_mut(&mut self) -> &mut HummerConfig {
        &mut self.config
    }

    /// Run the fully automatic pipeline over the given source aliases:
    /// schema matching → transformation → duplicate detection → fusion.
    ///
    /// `resolutions` assigns per-column conflict-resolution functions
    /// (columns named in the *preferred* — first — source's schema);
    /// everything else defaults to `COALESCE`. All parallelizable stages
    /// honor `config().parallelism`.
    ///
    /// # Example
    ///
    /// ```
    /// use hummer_core::{Hummer, ResolutionSpec};
    /// use hummer_engine::table;
    ///
    /// let mut hummer = Hummer::new();
    /// // Narrow 2-column sources carry little evidence; lower the bar.
    /// hummer.config_mut().detector.threshold = 0.6;
    /// hummer.config_mut().detector.unsure_threshold = 0.5;
    /// hummer.repository_mut().register_table("EE", table! {
    ///     "EE" => ["Name", "Age"];
    ///     ["John Smith", 24],
    ///     ["Mary Jones", 22],
    /// }).unwrap();
    /// hummer.repository_mut().register_table("CS", table! {
    ///     "CS" => ["FullName", "Years"];   // heterogeneous labels
    ///     ["John Smith", 25],
    /// }).unwrap();
    ///
    /// let out = hummer.fuse_sources(
    ///     &["EE", "CS"],
    ///     &[("Age".to_string(), ResolutionSpec::named("max"))],
    /// ).unwrap();
    /// assert_eq!(out.result.len(), 2);     // John fused across sources
    /// assert!(out.result.schema().contains("Name")); // preferred schema
    /// ```
    pub fn fuse_sources(
        &self,
        aliases: &[&str],
        resolutions: &[(String, ResolutionSpec)],
    ) -> Result<PipelineOutcome> {
        let prepared = self.prepare(aliases)?;
        fuse_prepared_traced(
            &prepared,
            resolutions,
            &self.registry,
            self.config.parallelism,
            &Span::noop(),
        )
    }

    /// Run only the preparation stages (match → transform → detect) over the
    /// given source aliases; combine with [`fuse_prepared`] to finish, or
    /// reuse the artifacts across many fusions.
    pub fn prepare(&self, aliases: &[&str]) -> Result<PreparedSources> {
        let tables: Vec<&Table> = aliases
            .iter()
            .map(|a| self.repository.get(a))
            .collect::<Result<_>>()?;
        prepare_tables(&tables, &self.config)
    }

    /// Execute a Fuse By query (the "basic SQL interface" mode).
    ///
    /// For `FUSE FROM` over multiple heterogeneous sources, schema matching
    /// aligns the non-preferred tables to the first table's attribute names
    /// before execution — so the query can "use only column names of one of
    /// the tables to be fused" (§2.1). The matching honours
    /// `config.parallelism`, with the same result at every degree.
    pub fn query(&self, sql: &str) -> Result<QueryOutput> {
        let q = parse(sql)?;
        if q.from.fuse && q.from.tables.len() > 1 {
            // Pre-align with schema matching.
            let tables: Vec<&Table> = q
                .from
                .tables
                .iter()
                .map(|a| self.repository.get(a))
                .collect::<Result<_>>()?;
            let matches = match_star(&tables, &self.config.matcher, self.config.parallelism);
            let mut aligned = TableSet::new();
            aligned.add(tables[0].clone());
            for (t, m) in tables[1..].iter().zip(&matches) {
                aligned.add(apply_renames(t, m)?);
            }
            Ok(hummer_query::execute(&q, &aligned, &self.registry)?)
        } else {
            Ok(hummer_query::execute(&q, &self.repository, &self.registry)?)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hummer_engine::{table, Value};
    use hummer_matching::SniffConfig;

    /// Heterogeneous student sources with duplicates and conflicts.
    fn hummer() -> Hummer {
        let mut h = Hummer::with_config(HummerConfig {
            matcher: MatcherConfig {
                sniff: SniffConfig {
                    min_similarity: 0.2,
                    ..Default::default()
                },
                ..Default::default()
            },
            // Narrow 2-3 column schemas carry little evidence mass, so the
            // duplicate threshold sits lower than the wide-schema default —
            // exactly the knob wizard step 3 exposes.
            detector: DetectorConfig {
                threshold: 0.7,
                unsure_threshold: 0.55,
                ..Default::default()
            },
            ..Default::default()
        });
        h.repository_mut()
            .register_table(
                "EE_Student",
                table! {
                    "EE_Student" => ["Name", "Age", "City"];
                    ["John Smith", 24, "Berlin"],
                    ["Mary Jones", 22, "Hamburg"],
                    ["Peter Miller", 27, "Munich"],
                },
            )
            .unwrap();
        h.repository_mut()
            .register_table(
                "CS_Students",
                table! {
                    "CS_Students" => ["FullName", "Years", "Town"];
                    ["John Smith", 25, "Berlin"],
                    ["Mary Jones", 22, "Hamburg"],
                    ["Ada Lovelace", 28, "London"],
                },
            )
            .unwrap();
        h
    }

    #[test]
    fn automatic_pipeline_end_to_end() {
        let h = hummer();
        let out = h
            .fuse_sources(
                &["EE_Student", "CS_Students"],
                &[("Age".to_string(), ResolutionSpec::named("max"))],
            )
            .unwrap();
        // 4 distinct people out of 6 rows.
        assert_eq!(out.result.len(), 4, "{}", out.result.pretty());
        // Schema is the preferred one (plus unmatched extras), bookkeeping dropped.
        assert!(out.result.schema().contains("Name"));
        assert!(out.result.schema().contains("Age"));
        assert!(!out.result.schema().contains("objectID"));
        assert!(!out.result.schema().contains("sourceID"));
        // John's age conflict resolved by max.
        let name = out.result.resolve("Name").unwrap();
        let age = out.result.resolve("Age").unwrap();
        let john = out
            .result
            .rows()
            .iter()
            .find(|r| r[name] == Value::text("John Smith"))
            .expect("john fused");
        assert_eq!(john[age], Value::Int(25));
        // Intermediate artifacts exposed.
        assert_eq!(out.integrated.len(), 6);
        assert_eq!(out.detection.object_count(), 4);
        assert!(out.conflict_count >= 1);
        assert_eq!(out.match_results.len(), 1);
    }

    #[test]
    fn lineage_shows_merged_sources() {
        let h = hummer();
        let out = h.fuse_sources(&["EE_Student", "CS_Students"], &[]).unwrap();
        let name = out.result.resolve("Name").unwrap();
        let sources = out.lineage.all_sources();
        assert_eq!(
            sources,
            vec!["CS_Students".to_string(), "EE_Student".to_string()]
        );
        // Some fused cell carries provenance.
        let any_pure = (0..out.result.len()).any(|r| out.lineage.cell(r, name).is_pure());
        assert!(any_pure);
    }

    #[test]
    fn query_mode_aligns_schemas_first() {
        let h = hummer();
        // CS_Students has FullName/Years/Town, but the query may speak the
        // preferred (EE) schema thanks to automatic matching.
        let out = h
            .query(
                "SELECT Name, RESOLVE(Age, max) FUSE FROM EE_Student, CS_Students FUSE BY (Name)",
            )
            .unwrap();
        assert_eq!(out.table.len(), 4);
        let john = out
            .table
            .rows()
            .iter()
            .find(|r| r[0] == Value::text("John Smith"))
            .unwrap();
        assert_eq!(john[1], Value::Int(25));
    }

    #[test]
    fn plain_query_passes_through() {
        let h = hummer();
        let out = h
            .query("SELECT Name FROM EE_Student WHERE Age > 23 ORDER BY Name")
            .unwrap();
        assert_eq!(out.table.len(), 2);
    }

    #[test]
    fn unknown_alias_errors() {
        let h = hummer();
        assert!(h.fuse_sources(&["Nope"], &[]).is_err());
        assert!(h.query("SELECT * FROM Nope").is_err());
    }

    #[test]
    fn timings_are_recorded() {
        let h = hummer();
        let out = h.fuse_sources(&["EE_Student", "CS_Students"], &[]).unwrap();
        assert!(out.timings.total() > Duration::ZERO);
    }

    #[test]
    fn prepared_artifacts_replay_across_resolutions() {
        // One preparation, many fusions — the serving layer's cache pattern.
        let h = hummer();
        let prepared = h.prepare(&["EE_Student", "CS_Students"]).unwrap();
        assert_eq!(prepared.integrated.len(), 6);
        assert!(prepared.annotated.schema().contains("objectID"));
        assert_eq!(prepared.timings.fusion, Duration::ZERO);

        let registry = FunctionRegistry::standard();
        let by_max = fuse_prepared(
            &prepared,
            &[("Age".to_string(), ResolutionSpec::named("max"))],
            &registry,
        )
        .unwrap();
        let by_min = fuse_prepared(
            &prepared,
            &[("Age".to_string(), ResolutionSpec::named("min"))],
            &registry,
        )
        .unwrap();
        assert_eq!(by_max.result.len(), 4);
        assert_eq!(by_min.result.len(), 4);
        let name = by_max.result.resolve("Name").unwrap();
        let age = by_max.result.resolve("Age").unwrap();
        let john_max = by_max
            .result
            .rows()
            .iter()
            .find(|r| r[name] == Value::text("John Smith"))
            .unwrap();
        let john_min = by_min
            .result
            .rows()
            .iter()
            .find(|r| r[name] == Value::text("John Smith"))
            .unwrap();
        assert_eq!(john_max[age], Value::Int(25));
        assert_eq!(john_min[age], Value::Int(24));
        // The replay matches the one-shot pipeline.
        let oneshot = h
            .fuse_sources(
                &["EE_Student", "CS_Students"],
                &[("Age".to_string(), ResolutionSpec::named("max"))],
            )
            .unwrap();
        assert_eq!(oneshot.result.rows(), by_max.result.rows());
    }

    #[test]
    fn apply_delta_matches_from_scratch_prepare() {
        let h = hummer();
        let prepared = h.prepare(&["EE_Student", "CS_Students"]).unwrap();

        // CS_Students: fix John's age and add a new student.
        let ee = h.repository().get("EE_Student").unwrap().clone();
        let mut cs_rows = h.repository().get("CS_Students").unwrap().rows().to_vec();
        cs_rows[0] = hummer_engine::Row::from_values(vec![
            Value::text("John Smith"),
            Value::Int(26),
            Value::text("Berlin"),
        ]);
        cs_rows.push(hummer_engine::Row::from_values(vec![
            Value::text("Grace Hopper"),
            Value::Int(37),
            Value::text("Arlington"),
        ]));
        let cs =
            hummer_engine::Table::from_rows("CS_Students", &["FullName", "Years", "Town"], cs_rows)
                .unwrap();

        // EE unchanged (3 rows) + CS: row 0 updated, 1 row appended.
        let mut old_to_new: Vec<Option<usize>> = (0..6).map(Some).collect();
        old_to_new.truncate(6);
        let mapping = RowMapping::new(old_to_new, 7).unwrap();

        let (upgraded, report) = prepared
            .apply_delta(&[&ee, &cs], &mapping, h.config())
            .unwrap();
        let scratch = prepare_tables(&[&ee, &cs], h.config()).unwrap();
        assert_eq!(upgraded.integrated.rows(), scratch.integrated.rows());
        assert_eq!(upgraded.annotated.rows(), scratch.annotated.rows());
        assert_eq!(upgraded.detection.pairs, scratch.detection.pairs);
        assert_eq!(upgraded.detection.unsure, scratch.detection.unsure);
        assert_eq!(
            upgraded.detection.cluster_ids,
            scratch.detection.cluster_ids
        );
        assert_eq!(upgraded.detection.clusters, scratch.detection.clusters);
        assert_eq!(
            upgraded.detection.attributes_used,
            scratch.detection.attributes_used
        );
        assert_eq!(report.detection.new_rows, 7);
        assert!(report.timings.total() > Duration::ZERO);

        // And the fused views agree, too.
        let registry = FunctionRegistry::standard();
        let from_upgraded = fuse_prepared(&upgraded, &[], &registry).unwrap();
        let from_scratch = fuse_prepared(&scratch, &[], &registry).unwrap();
        assert_eq!(from_upgraded.result.rows(), from_scratch.result.rows());
        assert_eq!(from_upgraded.conflict_count, from_scratch.conflict_count);
    }

    #[test]
    fn match_spans_carry_the_sniff_counters() {
        let h = hummer();
        let config = HummerConfig {
            obs: hummer_obs::ObsConfig::enabled(64),
            ..h.config().clone()
        };
        let ee = h.repository().get("EE_Student").unwrap();
        let cs = h.repository().get("CS_Students").unwrap();
        let prepared = prepare_tables(&[ee, cs], &config).unwrap();
        let unchanged = RowMapping::identity(prepared.integrated.len());
        prepared
            .apply_delta(&[ee, cs], &unchanged, &config)
            .unwrap();

        let sniff = prepared.match_results[0].sniff;
        assert!(
            sniff.rounds >= 1 && sniff.candidates_scored >= 1,
            "{sniff:?}"
        );
        let spans = config.obs.tracer.drain();
        let matches: Vec<_> = spans.iter().filter(|s| s.name == "match").collect();
        assert_eq!(matches.len(), 2, "one from prepare, one from the delta");
        for span in matches {
            for (name, value) in [
                ("sniff_postings_visited", sniff.postings_visited),
                ("sniff_candidates_scored", sniff.candidates_scored),
                ("sniff_rows_expanded", sniff.rows_expanded),
                ("sniff_rounds", sniff.rounds),
            ] {
                let counter = span.counters.iter().find(|(n, _)| n == name);
                assert_eq!(counter.map(|(_, v)| *v), Some(value), "{name}");
            }
        }
    }

    #[test]
    fn single_source_cleansing() {
        // The online data-cleansing service scenario: one dirty table.
        let mut h = hummer();
        h.repository_mut()
            .register_table(
                "Dump",
                table! {
                    "Dump" => ["Name", "City"];
                    ["Jon Smith", "Berlin"],
                    ["John Smith", "Berlin"],
                    ["Mary Jones", "Hamburg"],
                },
            )
            .unwrap();
        let out = h.fuse_sources(&["Dump"], &[]).unwrap();
        assert_eq!(out.result.len(), 2);
    }
}
