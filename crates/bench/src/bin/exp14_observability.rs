//! E14 — the observability contract: tracing is effectively free.
//!
//! Two claims are checked on the ≈ 10k-row `person_scale` world:
//!
//! 1. **Overhead** (hard gate): the fully-instrumented pipeline — an
//!    enabled [`Tracer`] recording every stage span (match → transform →
//!    detect → cluster → fuse) with counters — must finish within
//!    [`OVERHEAD_BAR_PCT`] of the bare pipeline, aggregated over
//!    parallelism degrees 1–4. Bare and instrumented
//!    reps are interleaved so clock drift and thermal state hit both
//!    sides equally; the minimum of [`REPS`] runs is compared.
//! 2. **Identity** (hard requirement): instrumentation must not perturb
//!    the pipeline. For every degree the fused table,
//!    cluster ids, conflict samples, and match correspondences of the
//!    instrumented run must be bit-identical to the bare run.
//!
//! The run also sanity-checks that spans actually landed in the ring —
//! a "0% overhead" result from a silently-disabled tracer would be
//! meaningless — and writes `BENCH_observability.json`.

use hummer_bench::{f3, render_table};
use hummer_core::{
    fuse_prepared_traced, prepare_tables_traced, HummerConfig, MatcherConfig, ObsConfig,
    Parallelism, PipelineOutcome, SniffConfig,
};
use hummer_datagen::scenarios::person_scale;
use hummer_fusion::FunctionRegistry;
use hummer_obs::Tracer;
use hummer_server::Json;
use std::process::ExitCode;
use std::time::Instant;

const DEGREES: [usize; 4] = [1, 2, 3, 4];
const SEED: u64 = 2005;
/// Entities in the world: ≈ 10k union rows at coverage 0.7 × 2 sources.
const LARGE_ENTITIES: usize = 7200;
/// Sorted-neighborhood window (all-pairs at 10k rows is a ~50M-pair sweep).
const WINDOW: usize = 15;
/// Maximum tolerated instrumented-over-bare overhead, in percent.
const OVERHEAD_BAR_PCT: f64 = 3.0;
/// Timing repetitions per cell; minima are compared.
const REPS: usize = 3;
/// Span-ring capacity for the instrumented runs (the `hummer-serve`
/// default).
const RING: usize = 65536;

fn config(par: Parallelism, obs: ObsConfig) -> HummerConfig {
    let mut cfg = HummerConfig {
        matcher: MatcherConfig {
            sniff: SniffConfig {
                top_k: 10,
                min_similarity: 0.3,
                ..Default::default()
            },
            ..Default::default()
        },
        parallelism: par,
        obs,
        ..Default::default()
    };
    cfg.detector.candidates = hummer_dupdetect::CandidateSpec::SortedNeighborhood {
        key: vec!["Name".into()],
        window: WINDOW,
    };
    cfg
}

/// One full pipeline run (prepare + fuse) under `cfg`, every stage span a
/// child of a fresh per-run trace — the same shape the server gives a
/// `POST /query`. Returns the outcome and the wall milliseconds.
fn run_once(tables: &[&hummer_engine::Table], cfg: &HummerConfig) -> (PipelineOutcome, f64) {
    let registry = FunctionRegistry::standard();
    let t0 = Instant::now();
    let root = cfg.obs.tracer.trace("exp14_query");
    let prepared = prepare_tables_traced(tables, cfg, &root).expect("prepare");
    let out =
        fuse_prepared_traced(&prepared, &[], &registry, cfg.parallelism, &root).expect("fuse");
    drop(root);
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// A bit-exact rendering of everything the pipeline produced (`{:?}` on
/// `f64` prints the shortest roundtrip form, so different bits render
/// differently).
fn fingerprint(out: &PipelineOutcome) -> String {
    format!(
        "{:?}|{:?}|{:?}|{}|{:?}|{:?}",
        out.result.rows(),
        out.result.schema().names(),
        out.detection.cluster_ids,
        out.conflict_count,
        out.sample_conflicts,
        out.match_results
            .iter()
            .map(|m| &m.correspondences)
            .collect::<Vec<_>>(),
    )
}

fn main() -> ExitCode {
    println!("E14 — observability overhead: instrumented vs. bare pipeline\n");

    let world = person_scale(LARGE_ENTITIES, SEED);
    let tables: Vec<&hummer_engine::Table> = world.sources.iter().map(|s| &s.table).collect();

    // One shared tracer for every instrumented cell, like a server would
    // hold; its ring fills with real stage spans as the matrix runs.
    let tracer = Tracer::with_capacity(RING);

    let mut rows = Vec::new();
    let mut cell_reports = Vec::new();
    let mut union_rows = 0usize;
    let mut bare_total = 0.0f64;
    let mut instr_total = 0.0f64;
    for &d in &DEGREES {
        let par = Parallelism::degree(d);
        let bare_cfg = config(par, ObsConfig::default());
        let instr_cfg = config(
            par,
            ObsConfig {
                tracer: tracer.clone(),
            },
        );

        // Interleave reps: bare, instrumented, bare, instrumented, … so
        // neither side systematically sees a warmer cache or a throttled
        // core.
        let mut bare_ms = f64::INFINITY;
        let mut instr_ms = f64::INFINITY;
        let mut bare_out = None;
        let mut instr_out = None;
        for _ in 0..REPS {
            let (out, ms) = run_once(&tables, &bare_cfg);
            bare_ms = bare_ms.min(ms);
            bare_out = Some(out);
            let (out, ms) = run_once(&tables, &instr_cfg);
            instr_ms = instr_ms.min(ms);
            instr_out = Some(out);
        }
        let bare_out = bare_out.expect("REPS >= 1");
        let instr_out = instr_out.expect("REPS >= 1");
        union_rows = bare_out.result.rows().len().max(union_rows);

        if fingerprint(&bare_out) != fingerprint(&instr_out) {
            eprintln!("FAIL: instrumentation changed the fused output ({d} thread(s))");
            return ExitCode::FAILURE;
        }

        let overhead_pct = (instr_ms / bare_ms.max(1e-9) - 1.0) * 100.0;
        bare_total += bare_ms;
        instr_total += instr_ms;
        rows.push(vec![
            d.to_string(),
            format!("{bare_ms:.1}"),
            format!("{instr_ms:.1}"),
            format!("{overhead_pct:+.2}%"),
        ]);
        cell_reports.push(
            Json::object()
                .with("degree", d)
                .with("bare_ms", bare_ms)
                .with("instrumented_ms", instr_ms)
                .with("overhead_pct", overhead_pct)
                .with("identical", true),
        );
    }
    println!(
        "{}",
        render_table(
            &["threads", "bare ms", "instrumented ms", "overhead"],
            &rows
        )
    );
    println!("all {} degree cells bit-identical\n", rows.len());

    // The instrumented side must have actually traced something.
    let spans_recorded = tracer.span_count() as u64 + tracer.dropped_spans();
    let sample = tracer
        .recent_traces(1)
        .first()
        .and_then(|&id| tracer.trace_tree(id));
    let sample_spans = sample.as_ref().map(|t| t.span_count()).unwrap_or(0);
    if spans_recorded == 0 || sample_spans < 2 {
        eprintln!(
            "FAIL: instrumented runs recorded {spans_recorded} span(s) \
             (sample trace has {sample_spans}) — the tracer was not live, \
             so the overhead number proves nothing"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "tracer: {spans_recorded} spans recorded; last trace is a \
         {sample_spans}-span tree"
    );

    // The aggregate gate: total instrumented wall time over the whole
    // matrix within the bar of total bare wall time. Per-cell numbers
    // jitter a few percent either way on a busy machine; the 4-cell
    // aggregate is what the contract holds.
    let overhead_pct = (instr_total / bare_total.max(1e-9) - 1.0) * 100.0;
    let passed = overhead_pct <= OVERHEAD_BAR_PCT;
    println!(
        "aggregate: bare {:.1} ms, instrumented {:.1} ms -> {}% overhead (bar {}%)\n",
        bare_total,
        instr_total,
        f3(overhead_pct),
        OVERHEAD_BAR_PCT
    );

    let report = Json::object()
        .with("experiment", "exp14_observability")
        .with(
            "world",
            Json::object()
                .with("scenario", "person_scale")
                .with("entities", LARGE_ENTITIES)
                .with("union_rows", union_rows)
                .with("window", WINDOW),
        )
        .with("cells", Json::Arr(cell_reports))
        .with(
            "spans",
            Json::object()
                .with("recorded", spans_recorded)
                .with("ring_capacity", RING)
                .with("sample_trace_spans", sample_spans),
        )
        .with(
            "gate",
            Json::object()
                .with("bare_total_ms", bare_total)
                .with("instrumented_total_ms", instr_total)
                .with("overhead_pct", overhead_pct)
                .with("bar_pct", OVERHEAD_BAR_PCT)
                .with("passed", passed),
        );
    let path = "BENCH_observability.json";
    std::fs::write(path, report.to_string_pretty()).expect("write BENCH_observability.json");
    println!("wrote {path}");

    if !passed {
        eprintln!(
            "FAIL: tracing overhead is {}%, above the {OVERHEAD_BAR_PCT}% bar",
            f3(overhead_pct)
        );
        return ExitCode::FAILURE;
    }
    println!(
        "PASS: tracing overhead = {}% (<= {OVERHEAD_BAR_PCT}%), outputs bit-identical",
        f3(overhead_pct)
    );
    ExitCode::SUCCESS
}
