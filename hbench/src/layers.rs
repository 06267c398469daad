//! Every call into a `hummer_*` crate lives in this file. Workloads,
//! generators and reporting import only from here, so a change that
//! collapses the program's entry points is followed by a one-file fix.
//!
//! Nothing here measures: callers wrap these functions in their own timers
//! and spans.

use crate::stats::Fnv;
use hummer_core::{
    fuse_prepared, Hummer, HummerConfig, MatcherConfig, Parallelism, SniffConfig, StageTimings,
};
use hummer_datagen::{cluster_pair_metrics, scenarios::person_scale};
use hummer_dupdetect::{
    annotate_object_ids, candidate_pairs, resolve_attributes, resolve_candidate_strategy,
    score_candidates, sort_pairs_canonical, CandidateSpec, DetectionStats, TupleSimilarity,
};
use hummer_engine::codec::ByteWriter;
use hummer_engine::{csv, Value};
use hummer_fusion::FunctionRegistry;
use hummer_matching::{integrate_with_layout, match_star_par, sniff_duplicates_par};
use hummer_query::{execute_combined_par, parse};
use hummer_server::service::{query_result_to_json, value_to_json};
use hummer_server::{QueryResult, ServiceConfig};
use hummer_textsim::{word_tokens, SoftTfIdf};
use std::fmt::Write as _;

pub use hummer_core::{HummerConfig as PipelineConfig, PipelineOutcome, PreparedSources};
pub use hummer_datagen::GeneratedWorld as World;
pub use hummer_delta::TableDelta;
pub use hummer_dupdetect::{DeltaDetectionStats, DetectionResult, ScoredCandidates};
pub use hummer_engine::Table;
pub use hummer_matching::MatchResult;
pub use hummer_query::{FuseQuery, QueryOutput};
pub use hummer_server::loadgen::{Client, ResponseMeta};
pub use hummer_server::Json;
pub use hummer_textsim::Corpus;

/// Library workloads run on one thread: the host has two cores and the
/// generator needs none of them, but degrees above one would measure the
/// scheduler.
fn seq() -> Parallelism {
    Parallelism::sequential()
}

// ---------------------------------------------------------------- worlds

/// Cut every source to at most `rows` rows (and its gold labels with it). A
/// source covers a random share of the entities, so its size moves with the
/// seed, and work that is quadratic in the row count would move by several
/// percent from seed to seed; cut a few standard deviations below the
/// expected size, every seed gives the same amount of work.
fn cut_sources(world: &mut World, rows: usize) {
    for source in &mut world.sources {
        let kept = source.table.rows()[..rows.min(source.table.len())].to_vec();
        source.table = Table::new(source.table.name(), source.table.schema().clone(), kept)
            .expect("a prefix of a table's rows fits its schema");
        source.entity_ids.truncate(rows);
    }
}

/// The two-source person world of the library workloads (`person_scale`),
/// each source exactly `rows_per_source` rows.
pub fn person_world(rows_per_source: usize, seed: u64) -> World {
    // Coverage is 0.7: 1.6 entities per row (and 40 more, for tiny test
    // worlds) leave the draw more than five standard deviations of slack.
    let mut world = person_scale(rows_per_source * 8 / 5 + 40, seed);
    cut_sources(&mut world, rows_per_source);
    assert!(
        world
            .sources
            .iter()
            .all(|s| s.table.len() == rows_per_source),
        "a source drew fewer than {rows_per_source} rows"
    );
    world
}

/// The four demo-scenario worlds of the serving workloads (1000 entities
/// each), their sources renamed `w{i}_{name}` so that all four fit in one
/// catalog, and cut about four standard deviations below each scenario's
/// expected source size (700, 660, 600 and 1500 rows).
pub fn scenario_worlds(seed: u64) -> Vec<World> {
    const ROWS: [usize; 4] = [640, 590, 540, 1430];
    let mut worlds = hummer_server::loadgen::scenario_worlds(4, 1000, seed);
    for (i, world) in worlds.iter_mut().enumerate() {
        cut_sources(world, ROWS[i]);
        for source in &mut world.sources {
            let alias = format!("w{i}_{}", source.table.name());
            source.table.set_name(alias);
        }
    }
    worlds
}

/// The world as a server holds it after `PUT /tables/*`: every source
/// written to CSV and parsed back (typing is re-inferred from the text).
pub fn as_uploaded(world: &World) -> World {
    let mut uploaded = world.clone();
    for source in &mut uploaded.sources {
        source.table = csv_parse(source.table.name(), &csv_write(&source.table));
    }
    uploaded
}

pub fn union_rows(world: &World) -> usize {
    world.sources.iter().map(|s| s.table.len()).sum()
}

// ------------------------------------------------------- pipeline configs

/// exp7's configuration: permissive sniffing; `blocking` selects
/// sorted-neighbourhood over `Name` (window 15) instead of all pairs.
pub fn library_config(blocking: bool) -> HummerConfig {
    let mut config = HummerConfig {
        matcher: MatcherConfig {
            sniff: SniffConfig {
                top_k: 10,
                min_similarity: 0.3,
                ..Default::default()
            },
            ..Default::default()
        },
        parallelism: seq(),
        ..Default::default()
    };
    if blocking {
        config.detector.candidates = CandidateSpec::SortedNeighborhood {
            key: vec!["Name".into()],
            window: 15,
        };
    }
    config
}

/// The pipeline configuration a default `hummer-serve` prepares with
/// (results are bit-identical at every degree, so one thread will do).
pub fn service_config() -> HummerConfig {
    HummerConfig {
        parallelism: seq(),
        ..ServiceConfig::default().pipeline
    }
}

// ------------------------------------------------------------ end to end

/// One cold run of the paper's ad-hoc pipeline: a fresh `Hummer`, every
/// source registered, `fuse_sources` over all of them.
pub fn cold_fuse(world: &World, config: &HummerConfig) -> PipelineOutcome {
    let mut hummer = Hummer::with_config(config.clone());
    let mut aliases = Vec::with_capacity(world.sources.len());
    for source in &world.sources {
        let alias = source.table.name().to_string();
        hummer
            .repository_mut()
            .register_table(alias.clone(), source.table.clone())
            .expect("generated aliases are distinct");
        aliases.push(alias);
    }
    let refs: Vec<&str> = aliases.iter().map(String::as_str).collect();
    hummer
        .fuse_sources(&refs, &[])
        .expect("generated worlds fuse")
}

/// Fingerprint of everything a user of the fused answer can see: the result
/// rows, their column names, and the cluster of every union row.
pub fn outcome_fingerprint(result: &Table, cluster_ids: &[usize]) -> u64 {
    let mut h = Fnv::default();
    let _ = write!(
        h,
        "{:?}|{:?}|{:?}",
        result.schema().names(),
        result.rows(),
        cluster_ids
    );
    h.0
}

/// Answer quality against the generator's ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Pairwise F1 of the detected clusters against gold entity ids.
    pub dup_f1: f64,
    /// Fused cells equal to the clean value of the cluster's majority gold
    /// entity, over the fused cells compared.
    pub cell_accuracy: f64,
    pub cells_compared: usize,
}

/// `fused` must be the fusion by `objectID` of the union whose rows carry
/// `cluster_ids`: its rows follow the clusters' first appearance.
pub fn quality(world: &World, cluster_ids: &[usize], fused: &Table) -> Quality {
    let gold = world.gold_union_entity_ids();
    let dup_f1 = cluster_pair_metrics(cluster_ids, &gold).f1();

    // Fused row of each cluster, in first-appearance order.
    let mut fused_row_of = vec![usize::MAX; cluster_ids.len()];
    let mut members: Vec<Vec<usize>> = Vec::new();
    for (row, &cluster) in cluster_ids.iter().enumerate() {
        if fused_row_of[cluster] == usize::MAX {
            fused_row_of[cluster] = members.len();
            members.push(Vec::new());
        }
        members[fused_row_of[cluster]].push(gold[row]);
    }
    assert_eq!(members.len(), fused.len(), "one fused row per cluster");

    // Fused columns that carry a canonical (clean-schema) name.
    let columns: Vec<(usize, usize)> = fused
        .schema()
        .names()
        .iter()
        .enumerate()
        .filter_map(|(f, name)| world.clean.schema().index_of(name).map(|c| (f, c)))
        .collect();
    let (mut equal, mut compared) = (0usize, 0usize);
    for (fused_row, entities) in members.iter_mut().enumerate() {
        entities.sort_unstable();
        let majority = majority_of_sorted(entities);
        for &(f, c) in &columns {
            compared += 1;
            if fused
                .cell(fused_row, f)
                .group_eq(world.clean.cell(majority, c))
            {
                equal += 1;
            }
        }
    }
    Quality {
        dup_f1,
        cell_accuracy: equal as f64 / compared.max(1) as f64,
        cells_compared: compared,
    }
}

/// Most frequent value of a sorted slice; the smallest wins a tie.
fn majority_of_sorted(sorted: &[usize]) -> usize {
    let (mut best, mut best_run) = (sorted[0], 0usize);
    let mut i = 0;
    while i < sorted.len() {
        let j = sorted[i..].iter().take_while(|&&v| v == sorted[i]).count();
        if j > best_run {
            (best, best_run) = (sorted[i], j);
        }
        i += j;
    }
    best
}

// ------------------------------------------------- the pipeline, by layer

pub fn source_tables(world: &World) -> Vec<&Table> {
    world.sources.iter().map(|s| &s.table).collect()
}

/// matching: the whole star match (sniffing + field matrices + Hungarian).
pub fn match_star(tables: &[&Table], config: &HummerConfig) -> Vec<MatchResult> {
    match_star_par(tables, &config.matcher, seq())
}

/// matching: duplicate sniffing alone, preferred table against each other
/// one, as the star match runs it. Returns the sniffed pairs.
pub fn sniff(tables: &[&Table], config: &HummerConfig) -> usize {
    let (preferred, rest) = tables.split_first().expect("at least one table");
    rest.iter()
        .map(|t| sniff_duplicates_par(preferred, t, &config.matcher.sniff, seq()).len())
        .sum()
}

/// matching: rename, tag with `sourceID`, outer union.
pub fn transform(tables: &[&Table], matches: &[MatchResult], config: &HummerConfig) -> Table {
    integrate_with_layout(tables, matches, "Integrated", config.layout)
        .expect("matched tables integrate")
}

/// dupdetect: candidate generation alone.
pub fn candidates(integrated: &Table, config: &HummerConfig) -> Vec<(usize, usize)> {
    let strategy = resolve_candidate_strategy(integrated, &config.detector.candidates)
        .expect("blocking key exists");
    candidate_pairs(integrated, &strategy)
}

/// dupdetect: attribute selection plus the similarity measure's corpus
/// statistics (built once per detection, before any pair is scored).
/// Returns the measure and the names of the compared columns.
pub fn measure(integrated: &Table, config: &HummerConfig) -> (TupleSimilarity, Vec<String>) {
    let attrs = resolve_attributes(integrated, &config.detector_config())
        .expect("heuristics select attributes");
    let names = attrs
        .iter()
        .map(|&i| integrated.schema().column(i).name.clone())
        .collect();
    (TupleSimilarity::new(integrated, attrs), names)
}

/// dupdetect: pair scoring alone.
pub fn score(
    integrated: &Table,
    measure: &TupleSimilarity,
    candidates: &[(usize, usize)],
    config: &HummerConfig,
) -> ScoredCandidates {
    score_candidates(
        integrated,
        measure,
        &config.detector_config(),
        candidates,
        seq(),
    )
}

/// dupdetect: canonical pair order, transitive closure, `objectID` column.
pub fn cluster(
    integrated: &Table,
    candidates: usize,
    scored: ScoredCandidates,
    attributes_used: Vec<String>,
) -> (DetectionResult, Table) {
    let stats = DetectionStats {
        candidates,
        filtered_out: scored.filtered_out,
        compared: scored.compared,
        memo_hits: scored.memo_hits,
    };
    let (mut pairs, mut unsure) = (scored.pairs, scored.unsure);
    sort_pairs_canonical(&mut pairs);
    sort_pairs_canonical(&mut unsure);
    let mut detection = DetectionResult {
        pairs,
        unsure,
        cluster_ids: vec![0; integrated.len()],
        clusters: Vec::new(),
        stats,
        attributes_used,
    };
    detection.recluster();
    let annotated = annotate_object_ids(integrated, &detection).expect("objectID is a new column");
    (detection, annotated)
}

pub fn prepared(
    match_results: Vec<MatchResult>,
    integrated: Table,
    detection: DetectionResult,
    annotated: Table,
) -> PreparedSources {
    PreparedSources {
        match_results,
        integrated,
        detection,
        annotated,
        timings: StageTimings::default(),
    }
}

/// The program's own preparation, for worlds the served answers are
/// compared against.
pub fn prepare(world: &World, config: &HummerConfig) -> PreparedSources {
    hummer_core::prepare_tables(&source_tables(world), config).expect("generated worlds prepare")
}

/// fusion: fuse the annotated union by `objectID`, default resolution.
pub fn fuse(prepared: &PreparedSources) -> PipelineOutcome {
    fuse_prepared(prepared, &[], &FunctionRegistry::standard()).expect("annotated union fuses")
}

// ------------------------------------------------------------------ delta

/// A one-row update of `table`: row `row` with `tag` appended to its first
/// text cell (so consecutive deltas really change content).
pub fn update_delta(table: &Table, alias: &str, row: usize, tag: &str) -> TableDelta {
    TableDelta::new(alias).update(row, tagged_row(table, row, tag))
}

fn tagged_row(table: &Table, row: usize, tag: &str) -> Vec<Value> {
    let mut values = table.rows()[row].values().to_vec();
    if let Some(Value::Text(s)) = values.iter_mut().find(|v| matches!(v, Value::Text(_))) {
        s.push(' ');
        s.push_str(tag);
    }
    values
}

/// delta: apply to one source; the rest keep their rows. Returns the new
/// source tables and the union-space row mapping.
pub fn delta_apply(
    delta: &TableDelta,
    tables: &[&Table],
    target: usize,
) -> (Vec<Table>, hummer_delta::RowMapping) {
    let (updated, mapping) = delta
        .apply(tables[target])
        .expect("delta addresses live rows");
    let mut new_tables: Vec<Table> = tables.iter().map(|t| (*t).clone()).collect();
    new_tables[target] = updated;
    let per_source: Vec<hummer_delta::RowMapping> = tables
        .iter()
        .enumerate()
        .map(|(i, t)| {
            if i == target {
                mapping.clone()
            } else {
                hummer_delta::RowMapping::identity(t.len())
            }
        })
        .collect();
    let union = hummer_delta::concat_mappings(&per_source).expect("mappings concatenate");
    (new_tables, union)
}

/// delta: size of the WAL encoding of one delta.
pub fn delta_codec_bytes(delta: &TableDelta) -> usize {
    let mut w = ByteWriter::new();
    hummer_delta::encode_delta(&mut w, delta);
    w.len()
}

/// dupdetect: the incremental detector alone.
pub fn detect_delta(
    old: &PreparedSources,
    new_integrated: &Table,
    mapping: &hummer_delta::RowMapping,
    config: &HummerConfig,
) -> (DetectionResult, DeltaDetectionStats) {
    hummer_dupdetect::detect_delta(
        &old.integrated,
        &old.detection,
        new_integrated,
        mapping,
        &config.detector_config(),
        seq(),
    )
    .expect("mapping matches the tables")
}

/// core: the whole prepared-artifact upgrade a served delta triggers.
pub fn apply_delta_prepared(
    old: &PreparedSources,
    new_tables: &[Table],
    mapping: &hummer_delta::RowMapping,
    config: &HummerConfig,
) -> PreparedSources {
    let refs: Vec<&Table> = new_tables.iter().collect();
    old.apply_delta(&refs, mapping, config)
        .expect("delta upgrade succeeds")
        .0
}

/// The `POST /tables/{t}/delta` bodies of the mixed workload.
pub fn delta_body_update(table: &Table, row: usize, tag: &str) -> String {
    let values = Json::Arr(
        tagged_row(table, row, tag)
            .iter()
            .map(value_to_json)
            .collect(),
    );
    Json::object()
        .with(
            "update",
            Json::Arr(vec![Json::object().with("row", row).with("values", values)]),
        )
        .to_string_compact()
}

pub fn delta_body_insert(table: &Table, row: usize, tag: &str) -> String {
    let values = Json::Arr(
        tagged_row(table, row, tag)
            .iter()
            .map(value_to_json)
            .collect(),
    );
    Json::object()
        .with("insert", Json::Arr(vec![values]))
        .to_string_compact()
}

pub fn delta_body_delete(row: usize) -> String {
    Json::object()
        .with("delete", Json::Arr(vec![Json::Int(row as i64)]))
        .to_string_compact()
}

// -------------------------------------------------------- engine, textsim

pub fn csv_write(table: &Table) -> String {
    csv::write_csv_str(table)
}

pub fn csv_parse(name: &str, text: &str) -> Table {
    csv::read_csv_str(name, text).expect("written CSV parses")
}

pub fn column_names(table: &Table) -> Vec<String> {
    table
        .schema()
        .names()
        .iter()
        .map(|s| s.to_string())
        .collect()
}

/// The text cells of one column (`None` for nulls and non-text values).
pub fn text_column(table: &Table, col: usize) -> Vec<Option<String>> {
    table
        .column_values(col)
        .map(|v| match v {
            Value::Text(s) => Some(s.clone()),
            _ => None,
        })
        .collect()
}

pub fn is_integer_column(table: &Table, col: usize) -> bool {
    let mut seen = false;
    for v in table.column_values(col) {
        match v {
            Value::Int(_) => seen = true,
            Value::Null => {}
            _ => return false,
        }
    }
    seen
}

pub fn tokens(text: &str) -> Vec<String> {
    word_tokens(text)
}

/// textsim: corpus statistics over tokenised documents.
pub fn corpus(docs: &[Vec<String>]) -> Corpus {
    Corpus::from_documents(docs.iter())
}

/// textsim: SoftTFIDF over a fixed pair sample; the sum defeats dead-code
/// elimination and is itself a checkable output.
pub fn soft_tfidf_sum(corpus: &Corpus, docs: &[Vec<String>], pairs: &[(usize, usize)]) -> f64 {
    let measure = SoftTfIdf::new(corpus);
    pairs
        .iter()
        .map(|&(a, b)| measure.similarity(&docs[a], &docs[b]))
        .sum()
}

// ----------------------------------------------------------- query, server

pub fn parse_sql(sql: &str) -> FuseQuery {
    parse(sql).expect("benchmark statements parse")
}

/// query: execute over the annotated union, as a cache hit does.
pub fn execute(query: &FuseQuery, annotated: &Table) -> QueryOutput {
    execute_combined_par(query, annotated, &FunctionRegistry::standard(), seq())
        .expect("benchmark statements execute")
}

/// server: the `/query` response document, serialised.
pub fn response_json(output: QueryOutput) -> String {
    query_result_to_json(&QueryResult {
        output,
        cache_hit: Some(true),
        prepare_timings: StageTimings::default(),
        execute_time: std::time::Duration::ZERO,
        shards: None,
    })
    .to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_prefers_the_longest_run() {
        assert_eq!(majority_of_sorted(&[4]), 4);
        assert_eq!(majority_of_sorted(&[1, 2, 2, 3]), 2);
        assert_eq!(majority_of_sorted(&[1, 1, 2, 2]), 1);
    }

    #[test]
    fn step_by_step_equals_fuse_sources() {
        let world = person_world(40, 11);
        for blocking in [false, true] {
            let config = library_config(blocking);
            let whole = cold_fuse(&world, &config);

            let tables = source_tables(&world);
            let matches = match_star(&tables, &config);
            let integrated = transform(&tables, &matches, &config);
            let cands = candidates(&integrated, &config);
            let (m, attrs) = measure(&integrated, &config);
            let scored = score(&integrated, &m, &cands, &config);
            let (detection, annotated) = cluster(&integrated, cands.len(), scored, attrs);
            assert_eq!(detection.attributes_used, whole.detection.attributes_used);
            let stepped = fuse(&prepared(matches, integrated, detection, annotated));

            assert_eq!(
                outcome_fingerprint(&whole.result, &whole.detection.cluster_ids),
                outcome_fingerprint(&stepped.result, &stepped.detection.cluster_ids),
            );
            let q = quality(&world, &whole.detection.cluster_ids, &whole.result);
            assert!(q.dup_f1 > 0.5 && q.dup_f1 <= 1.0, "{q:?}");
            assert!(q.cell_accuracy > 0.5 && q.cell_accuracy <= 1.0, "{q:?}");
        }
    }

    #[test]
    fn delta_bodies_are_what_the_server_parses() {
        let world = person_world(15, 3);
        let table = &world.sources[0].table;
        for body in [
            delta_body_update(table, 1, "u1"),
            delta_body_insert(table, 2, "i1"),
            delta_body_delete(0),
        ] {
            let delta = hummer_server::parse_delta("A", &body).expect("body parses");
            assert_eq!(delta.counts().total(), 1);
        }
        let delta = update_delta(table, "A", 0, "x");
        let (new_tables, mapping) = delta_apply(&delta, &source_tables(&world), 0);
        assert_eq!(new_tables[0].len(), table.len());
        assert_eq!(mapping.new_len(), union_rows(&world));
        assert!(delta_codec_bytes(&delta) > 0);
    }
}
