//! The traced run's in-process half: the pipeline re-executed step by step
//! through each crate's public functions, one span per layer boundary, with
//! counts and allocation totals taken at the same boundaries.

use crate::alloc::{counted, AllocCount};
use crate::layers::{self, PipelineConfig, PipelineOutcome, World};
use crate::report::{is_exact_count, Outcome, Values};
use crate::spans::Recorder;
use crate::statements::{for_world, Statements};
use crate::stats::{median, Lcg};

/// Size of the fixed SoftTFIDF pair sample.
const TEXT_PAIRS: usize = 10_000;

/// One world to probe, with the answer the end-to-end path gave for it.
pub struct Target<'a> {
    pub world: &'a World,
    pub config: &'a PipelineConfig,
    /// Fingerprint of the whole-pipeline result the steps must reproduce.
    pub reference: u64,
}

pub fn reference_of(out: &PipelineOutcome) -> u64 {
    layers::outcome_fingerprint(&out.result, &out.detection.cluster_ids)
}

/// Run `iterations` traced passes over the targets and fill `out` with the
/// per-layer values: medians of the timings, and counts that must repeat
/// exactly. Times and counts of several worlds add up.
pub fn run(targets: &[Target<'_>], iterations: usize, rec: &mut Recorder, out: &mut Outcome) {
    let mut passes: Vec<Values> = Vec::new();
    for _ in 0..iterations {
        let mut pass = Values::new();
        for target in targets {
            one_world(target, rec, &mut pass, out);
        }
        passes.push(pass);
    }
    let first = passes[0].clone();
    for (&name, &value) in &first {
        let column: Vec<f64> = passes.iter().map(|p| p[name]).collect();
        if is_exact_count(name) {
            out.check(column.iter().all(|v| *v == value), || {
                format!("{name} does not repeat across traced iterations: {column:?}")
            });
            out.set(name, value);
        } else {
            out.set(name, median(&column));
        }
    }
    derive_ratios(out);
}

fn add(values: &mut Values, name: &'static str, v: f64) {
    *values.entry(name).or_insert(0.0) += v;
}

fn add_alloc(values: &mut Values, bytes: &'static str, calls: &'static str, alloc: AllocCount) {
    add(values, bytes, alloc.bytes as f64);
    add(values, calls, alloc.calls as f64);
}

fn one_world(target: &Target<'_>, rec: &mut Recorder, v: &mut Values, out: &mut Outcome) {
    let (world, config) = (target.world, target.config);
    let tables = layers::source_tables(world);
    let Statements { full, selective } = for_world(world);

    // engine: CSV out and back in, as an upload pays it.
    let (texts, ms) = rec.span("engine.csv_write", |_| {
        tables
            .iter()
            .map(|t| layers::csv_write(t))
            .collect::<Vec<_>>()
    });
    add(v, "engine.csv_write_ms", ms);
    let (parsed, ms) = rec.span("engine.csv_parse", |_| {
        texts
            .iter()
            .zip(&tables)
            .map(|(text, t)| layers::csv_parse(t.name(), text).len())
            .sum::<usize>()
    });
    add(v, "engine.csv_parse_ms", ms);
    out.check(parsed == layers::union_rows(world), || {
        "CSV round trip changed the row count".to_string()
    });

    // textsim: corpus statistics and SoftTFIDF over the identity column.
    let docs: Vec<Vec<String>> = tables
        .iter()
        .flat_map(|t| layers::text_column(t, name_column(t)))
        .map(|cell| layers::tokens(cell.as_deref().unwrap_or("")))
        .collect();
    let (corpus, ms) = rec.span("textsim.corpus_build", |_| layers::corpus(&docs));
    add(v, "textsim.corpus_build_ms", ms);
    let pairs = pair_sample(docs.len(), TEXT_PAIRS);
    let (sum, ms) = rec.span("textsim.softtfidf", |_| {
        layers::soft_tfidf_sum(&corpus, &docs, &pairs)
    });
    std::hint::black_box(sum);
    add(
        v,
        "textsim.softtfidf_ns_per_pair",
        ms * 1e6 / TEXT_PAIRS as f64,
    );

    // The pipeline, one span per layer boundary.
    let ((prepared, fused), total_ms) = rec.span("pipeline", |rec| {
        let ((matches, alloc), ms) = rec.span("matching.match", |_| {
            counted(|| layers::match_star(&tables, config))
        });
        add(v, "matching.match_ms", ms);
        add_alloc(v, "matching.alloc_bytes", "matching.alloc_count", alloc);

        let (integrated, ms) = rec.span("matching.transform", |rec| {
            let t = layers::transform(&tables, &matches, config);
            rec.count("union_rows", t.len() as u64);
            t
        });
        add(v, "matching.transform_ms", ms);

        // Allocations are counted per sub-step, so the recorder's own
        // bookkeeping between them stays out of the totals.
        let ((detection, annotated), ms) = rec.span("dupdetect.detect", |rec| {
            let ((cands, alloc), ms) = rec.span("dupdetect.candidates", |rec| {
                let (c, alloc) = counted(|| layers::candidates(&integrated, config));
                rec.count("candidate_pairs", c.len() as u64);
                (c, alloc)
            });
            add(v, "dupdetect.candidates_ms", ms);
            add_alloc(v, "dupdetect.alloc_bytes", "dupdetect.alloc_count", alloc);
            let (((measure, attrs), alloc), ms) = rec.span("dupdetect.stats", |_| {
                counted(|| layers::measure(&integrated, config))
            });
            add(v, "dupdetect.stats_ms", ms);
            add_alloc(v, "dupdetect.alloc_bytes", "dupdetect.alloc_count", alloc);
            let ((scored, alloc), ms) = rec.span("dupdetect.score", |rec| {
                let (s, alloc) = counted(|| layers::score(&integrated, &measure, &cands, config));
                rec.count("compared", s.compared as u64);
                rec.count("filtered_out", s.filtered_out as u64);
                (s, alloc)
            });
            add(v, "dupdetect.score_ms", ms);
            add_alloc(v, "dupdetect.alloc_bytes", "dupdetect.alloc_count", alloc);
            add(v, "dupdetect.candidate_pairs", cands.len() as f64);
            add(v, "dupdetect.pairs_compared", scored.compared as f64);
            add(v, "dupdetect.pairs_filtered", scored.filtered_out as f64);
            let ((clustered, alloc), ms) = rec.span("dupdetect.cluster", |_| {
                counted(|| layers::cluster(&integrated, cands.len(), scored, attrs))
            });
            add(v, "dupdetect.cluster_ms", ms);
            add_alloc(v, "dupdetect.alloc_bytes", "dupdetect.alloc_count", alloc);
            clustered
        });
        add(v, "dupdetect.detect_ms", ms);
        add(v, "dupdetect.duplicate_pairs", detection.pairs.len() as f64);

        let prepared = layers::prepared(matches, integrated, detection, annotated);
        let ((fused, alloc), ms) = rec.span("fusion.fuse", |rec| {
            let (fused, alloc) = counted(|| layers::fuse(&prepared));
            rec.count("fused_rows", fused.result.len() as u64);
            rec.count("conflicts", fused.conflict_count as u64);
            (fused, alloc)
        });
        add(v, "fusion.fuse_ms", ms);
        add(v, "fusion.alloc_bytes", alloc.bytes as f64);
        add(v, "fusion.fused_rows", fused.result.len() as f64);
        add(v, "fusion.conflicts", fused.conflict_count as f64);
        (prepared, fused)
    });
    add(v, "pipeline.step_total_ms", total_ms);
    out.check(reference_of(&fused) == target.reference, || {
        "step-by-step result differs from the fuse_sources result".to_string()
    });
    drop(fused);

    // matching: sniffing alone; the rest of the match is its self time.
    let (sniffed, ms) = rec.span("matching.sniff", |_| layers::sniff(&tables, config));
    add(v, "matching.sniff_ms", ms);
    add(v, "matching.sniff_pairs", sniffed as f64);

    // delta, core, dupdetect: a one-row update of the first source.
    let alias = tables[0].name().to_string();
    let delta = layers::update_delta(tables[0], &alias, 0, "upd");
    add(
        v,
        "delta.codec_bytes",
        layers::delta_codec_bytes(&delta) as f64,
    );
    let ((new_tables, mapping), ms) =
        rec.span("delta.apply", |_| layers::delta_apply(&delta, &tables, 0));
    add(v, "delta.apply_ms", ms);
    let (upgraded, ms) = rec.span("core.apply_delta", |_| {
        layers::apply_delta_prepared(&prepared, &new_tables, &mapping, config)
    });
    add(v, "core.apply_delta_ms", ms);
    let ((_, stats), ms) = rec.span("dupdetect.detect_delta", |_| {
        layers::detect_delta(&prepared, &upgraded.integrated, &mapping, config)
    });
    add(v, "dupdetect.detect_delta_ms", ms);
    add(v, "dupdetect.delta_scored", stats.scored_pairs as f64);
    add(v, "dupdetect.delta_carried", stats.carried_pairs as f64);
    drop(upgraded);

    // query and server: what a cache hit pays after the lookup.
    let ((full_q, sel_q), ms) = rec.span("query.parse", |_| {
        (layers::parse_sql(&full), layers::parse_sql(&selective))
    });
    add(v, "query.parse_us", ms * 1e3 / 2.0);
    let (full_out, ms) = rec.span("query.execute_full", |_| {
        layers::execute(&full_q, &prepared.annotated)
    });
    add(v, "query.execute_full_ms", ms);
    let (sel_out, ms) = rec.span("query.execute_selective", |_| {
        layers::execute(&sel_q, &prepared.annotated)
    });
    add(v, "query.execute_selective_ms", ms);
    add(v, "query.rows_examined", prepared.annotated.len() as f64);
    add(v, "query.rows_returned", sel_out.table.len() as f64);
    let ((body, alloc), ms) = rec.span("server.json_serialize", |_| {
        counted(|| layers::response_json(full_out))
    });
    add(v, "server.json_serialize_ms", ms);
    add(v, "server.json_bytes", body.len() as f64);
    add(v, "server.alloc_bytes_per_response", alloc.bytes as f64);
}

/// Ratios are taken over the sums, where the work happened, then the
/// helper sums are dropped (they are not metrics).
fn derive_ratios(out: &mut Outcome) {
    let mut take = |name: &str| out.values.remove(name).unwrap_or(0.0);
    let duplicates = take("dupdetect.duplicate_pairs");
    let scored = take("dupdetect.delta_scored");
    let carried = take("dupdetect.delta_carried");
    let examined = take("query.rows_examined");
    let returned = take("query.rows_returned");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let compared = out.values["dupdetect.pairs_compared"];
    out.set(
        "dupdetect.duplicates_per_compared",
        ratio(duplicates, compared),
    );
    out.set(
        "dupdetect.delta_rescored_share",
        ratio(scored, scored + carried),
    );
    out.set(
        "query.rows_examined_per_row_returned",
        ratio(examined, returned),
    );
    let assign = out.values["matching.match_ms"] - out.values["matching.sniff_ms"];
    out.set("matching.assign_ms", assign.max(0.0));
}

/// The column a world's entities are named by (`Name`, `FullName`,
/// `Artist`, ...): the first text column.
fn name_column(table: &layers::Table) -> usize {
    (0..layers::column_names(table).len())
        .find(|&c| layers::text_column(table, c).iter().any(Option::is_some))
        .unwrap_or(0)
}

/// A fixed sample of index pairs below `n`: it depends on `n` alone, so it
/// is the same on every commit.
fn pair_sample(n: usize, pairs: usize) -> Vec<(usize, usize)> {
    let mut lcg = Lcg::default();
    let mut next = || lcg.below(n as u64) as usize;
    (0..pairs).map(|_| (next(), next())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{is_served_layer, PER_LAYER};

    #[test]
    fn probe_fills_the_in_process_layers_and_reproduces_the_answer() {
        let world = layers::person_world(50, 9);
        let config = layers::library_config(false);
        let whole = layers::cold_fuse(&world, &config);
        let mut out = Outcome::default();
        let mut rec = Recorder::new(9);
        let target = Target {
            world: &world,
            config: &config,
            reference: reference_of(&whole),
        };
        run(&[target], 2, &mut rec, &mut out);
        // Allocation totals are process-wide and the test harness runs tests
        // on parallel threads, so only the other checks must hold here.
        let hard: Vec<&String> = out
            .failures
            .iter()
            .filter(|f| !f.contains("alloc"))
            .collect();
        assert!(hard.is_empty(), "{hard:?}");
        for (name, _) in PER_LAYER {
            assert_eq!(
                out.values.contains_key(name),
                !is_served_layer(name),
                "{name}"
            );
        }
        assert!(out.values["dupdetect.candidate_pairs"] > 0.0);
        assert!(out.values["query.rows_examined_per_row_returned"] > 10.0);
        assert!(rec.spans.iter().any(|s| s.name == "dupdetect.score"));
        let detect = rec.spans.iter().position(|s| s.name == "dupdetect.detect");
        let score = rec
            .spans
            .iter()
            .find(|s| s.name == "dupdetect.score")
            .unwrap();
        assert_eq!(score.parent, detect);
    }

    #[test]
    fn pair_sample_is_fixed_and_in_range() {
        let a = pair_sample(50, 100);
        assert_eq!(a, pair_sample(50, 100));
        assert!(a.iter().all(|&(x, y)| x < 50 && y < 50));
    }
}
