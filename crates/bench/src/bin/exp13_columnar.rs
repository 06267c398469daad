//! E13 — the columnar execution layer: byte-identity between the row and
//! columnar paths, and the single-thread speedups the layout buys.
//!
//! Three claims are checked:
//!
//! 1. **Identity** (hard requirement): for every scenario world, layout
//!    ([`ExecutionLayout::Row`] vs. [`ExecutionLayout::Columnar`]) and
//!    parallelism degree 1–4, the pipeline's output — fused table, cluster
//!    ids, conflict samples, match correspondences — must be bit-identical.
//!    A mismatch aborts the experiment.
//! 2. **Scoring throughput** (hard gate): on the ≈ 10k-row `person_scale`
//!    union, single-thread candidate-pair scoring through the columnar
//!    kernel must be ≥ 1.5× the row path. Both read the same measure (the
//!    columnar view copies nothing), so the gap is the kernel's staged
//!    bound: about one edit distance per compared pair where the row path
//!    runs one per text attribute. The two scorings must also agree bit
//!    for bit (pairs, unsure, counters).
//! 3. **Transform / annotation** (reported, no gate): wall time of the
//!    per-cell-clone row transform vs. the column-splicing transform, and
//!    of the old clone-then-push `objectID` annotation vs. the current
//!    width-exact assembly.

use hummer_bench::{f3, render_table};
use hummer_core::{fuse_prepared_par, PreparedSources};
use hummer_core::{
    prepare_tables, ExecutionLayout, HummerConfig, MatcherConfig, Parallelism, PipelineOutcome,
    SniffConfig,
};
use hummer_datagen::scenarios::{
    cd_shopping, cleansing_service, disaster_registry, person_scale, student_rosters,
};
use hummer_datagen::GeneratedWorld;
use hummer_dupdetect::{
    annotate_object_ids, candidate_pairs, score_candidate_pairs, select_attributes,
    CandidateStrategy, ColumnarMeasure, DetectorConfig, HeuristicConfig, PairScorer,
    TupleSimilarity, OBJECT_ID_COLUMN,
};
use hummer_engine::{Column, ColumnType, Table, Value};
use hummer_fusion::FunctionRegistry;
use hummer_server::Json;
use std::process::ExitCode;
use std::time::Instant;

const DEGREES: [usize; 4] = [1, 2, 3, 4];
const SEED: u64 = 2005;
/// Entities per identity-matrix world (the four demo scenarios).
const CURVE_ENTITIES: usize = 120;
/// Entities in the large world: ≈ 10k union rows at coverage 0.7 × 2
/// sources — an order of magnitude past the paper-scale worlds.
const LARGE_ENTITIES: usize = 7200;
/// Sorted-neighborhood window for the large-world scoring measurement
/// (all-pairs at 10k rows is a ~50M-pair sweep; blocking is what a user
/// would run at this scale).
const WINDOW: usize = 15;
/// Required single-thread speedup of columnar over row pair scoring.
const SPEEDUP_BAR: f64 = 1.5;
/// Timing repetitions; the minimum is reported.
const REPS: usize = 3;
/// Alternating row/columnar repetitions of the gated scoring measurement.
const SCORING_REPS: usize = 7;

fn config(layout: ExecutionLayout, par: Parallelism) -> HummerConfig {
    HummerConfig {
        matcher: MatcherConfig {
            sniff: SniffConfig {
                top_k: 10,
                min_similarity: 0.3,
                ..Default::default()
            },
            ..Default::default()
        },
        parallelism: par,
        layout,
        ..Default::default()
    }
}

fn run_world(world: &GeneratedWorld, layout: ExecutionLayout, par: Parallelism) -> PipelineOutcome {
    let tables: Vec<&Table> = world.sources.iter().map(|s| &s.table).collect();
    let cfg = config(layout, par);
    let registry = FunctionRegistry::standard();
    let prepared = prepare_tables(&tables, &cfg).expect("prepare");
    fuse_prepared_par(&prepared, &[], &registry, par).expect("fuse")
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

/// Minimum wall-clock milliseconds of `f` over [`REPS`] runs.
fn time_min_ms<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let v = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        out = Some(v);
    }
    (out.expect("REPS >= 1"), best)
}

/// The pre-refactor `objectID` annotation: clone the table, then grow every
/// row by one cell (each push reallocates, since a cloned `Vec`'s capacity
/// equals its length). Kept here as the timing baseline.
fn annotate_baseline(table: &Table, cluster_ids: &[usize]) -> Table {
    let mut out = table.clone();
    out.add_column(Column::new(OBJECT_ID_COLUMN, ColumnType::Int), |i, _| {
        Value::Int(cluster_ids[i] as i64)
    })
    .expect("annotate");
    out
}

fn main() -> ExitCode {
    println!("E13 — columnar batches & vectorized similarity kernels\n");

    // ---- 1. Identity matrix: worlds × layouts × degrees -----------------
    let worlds: Vec<(&str, GeneratedWorld)> = vec![
        ("cd_shopping", cd_shopping(CURVE_ENTITIES, SEED)),
        ("disaster_registry", disaster_registry(CURVE_ENTITIES, SEED)),
        ("student_rosters", student_rosters(CURVE_ENTITIES, SEED)),
        ("cleansing_service", cleansing_service(CURVE_ENTITIES, SEED)),
    ];
    let mut identity_reports = Vec::new();
    for (name, world) in &worlds {
        let base = fingerprint(&run_world(
            world,
            ExecutionLayout::Row,
            Parallelism::degree(1),
        ));
        let mut checked = 0usize;
        for layout in [ExecutionLayout::Row, ExecutionLayout::Columnar] {
            for &d in &DEGREES {
                let fp = fingerprint(&run_world(world, layout, Parallelism::degree(d)));
                if fp != base {
                    eprintln!("FAIL: {name} diverged under {layout:?} at {d} thread(s)");
                    return ExitCode::FAILURE;
                }
                checked += 1;
            }
        }
        println!("{name}: {checked} layout x degree runs bit-identical");
        identity_reports.push(
            Json::object()
                .with("scenario", *name)
                .with("runs", checked)
                .with("identical", true),
        );
    }
    println!();

    // ---- 2. Large world: transform + annotation before/after -----------
    let large = person_scale(LARGE_ENTITIES, SEED);
    let tables: Vec<&Table> = large.sources.iter().map(|s| &s.table).collect();
    let registry = FunctionRegistry::standard();

    let row_cfg = config(ExecutionLayout::Row, Parallelism::degree(1));
    let col_cfg = config(ExecutionLayout::Columnar, Parallelism::degree(1));
    // Blocking: at 10k rows all-pairs is quadratic; use the same window the
    // scoring measurement uses.
    let blocking = hummer_dupdetect::CandidateSpec::SortedNeighborhood {
        key: vec!["Name".into()],
        window: WINDOW,
    };
    let (row_cfg, col_cfg) = {
        let mut r = row_cfg;
        let mut c = col_cfg;
        r.detector.candidates = blocking.clone();
        c.detector.candidates = blocking.clone();
        (r, c)
    };

    let (row_prep, row_prep_ms) =
        time_min_ms(|| prepare_tables(&tables, &row_cfg).expect("prepare row"));
    let (col_prep, col_prep_ms) =
        time_min_ms(|| prepare_tables(&tables, &col_cfg).expect("prepare columnar"));
    let integrated_rows = row_prep.integrated.len();
    println!(
        "large world: {} union rows; prepare {:.0} ms (row) vs {:.0} ms (columnar)",
        integrated_rows, row_prep_ms, col_prep_ms
    );

    // End-to-end identity on the large world too.
    let row_out = fuse_prepared_par(&row_prep, &[], &registry, Parallelism::degree(1)).unwrap();
    let col_out = fuse_prepared_par(&col_prep, &[], &registry, Parallelism::degree(1)).unwrap();
    if fingerprint(&row_out) != fingerprint(&col_out) {
        eprintln!("FAIL: large world fused output differs between layouts");
        return ExitCode::FAILURE;
    }
    println!("large world fused output bit-identical between layouts");

    // Transform in isolation: per-cell-clone row path vs. column splicing.
    let PreparedSources { match_results, .. } = &row_prep;
    let (_, xform_row_ms) = time_min_ms(|| {
        hummer_matching::integrate(&tables, match_results, "Integrated").expect("integrate")
    });
    let (col_integrated, xform_col_ms) = time_min_ms(|| {
        hummer_matching::integrate_columnar(&tables, match_results, "Integrated")
            .expect("integrate columnar")
    });
    assert_eq!(
        col_integrated.rows(),
        row_prep.integrated.rows(),
        "transform outputs must agree"
    );
    let xform_speedup = xform_row_ms / xform_col_ms.max(1e-9);

    // Annotation in isolation: clone-then-push baseline vs. width-exact.
    let cluster_ids = &row_prep.detection.cluster_ids;
    let (base_annot, annot_base_ms) =
        time_min_ms(|| annotate_baseline(&row_prep.integrated, cluster_ids));
    let (cur_annot, annot_cur_ms) =
        time_min_ms(|| annotate_object_ids(&row_prep.integrated, &row_prep.detection).unwrap());
    assert_eq!(
        base_annot.rows(),
        cur_annot.rows(),
        "annotation outputs must agree"
    );
    let annot_speedup = annot_base_ms / annot_cur_ms.max(1e-9);

    // ---- 3. Large world: single-thread pair-scoring throughput ---------
    // Score against the actual integrated union (sourceID included), the
    // same table a detection run sees.
    let union = &row_prep.integrated;
    let attrs = select_attributes(union, &HeuristicConfig::default());
    let measure = TupleSimilarity::new(union, attrs);
    let key_attrs = vec![union.resolve("Name").expect("Name column")];
    let candidates = candidate_pairs(
        union,
        &CandidateStrategy::SortedNeighborhood {
            key_attrs,
            window: WINDOW,
        },
    );
    let det_cfg = DetectorConfig::default();
    let seq = Parallelism::degree(1);

    // The two scorers take turns, so a slow spell on a shared host slows
    // both; the minimum of each is reported. The measure's columns are the
    // columnar view (`from_measure` copies nothing).
    let cm = ColumnarMeasure::from_measure(&measure);
    let rows = PairScorer::Rows {
        table: union,
        measure: &measure,
    };
    let (mut score_row_ms, mut score_col_ms) = (f64::INFINITY, f64::INFINITY);
    let (mut row_scored, mut col_scored) = (None, None);
    for _ in 0..SCORING_REPS {
        let t0 = Instant::now();
        row_scored = Some(score_candidate_pairs(&rows, &det_cfg, &candidates, seq));
        score_row_ms = score_row_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        col_scored = Some(score_candidate_pairs(
            &PairScorer::Columnar(&cm),
            &det_cfg,
            &candidates,
            seq,
        ));
        score_col_ms = score_col_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    let (row_scored, col_scored) = (
        row_scored.expect("SCORING_REPS >= 1"),
        col_scored.expect("SCORING_REPS >= 1"),
    );

    let identical = row_scored.filtered_out == col_scored.filtered_out
        && row_scored.compared == col_scored.compared
        && row_scored.pairs.len() == col_scored.pairs.len()
        && row_scored.unsure.len() == col_scored.unsure.len()
        && row_scored
            .pairs
            .iter()
            .zip(&col_scored.pairs)
            .chain(row_scored.unsure.iter().zip(&col_scored.unsure))
            .all(|(a, b)| {
                a.left == b.left
                    && a.right == b.right
                    && a.similarity.to_bits() == b.similarity.to_bits()
            });
    if !identical {
        eprintln!("FAIL: row and columnar scorers disagree on the large world");
        return ExitCode::FAILURE;
    }
    let pairs_per_sec_row = candidates.len() as f64 / (score_row_ms / 1e3);
    let pairs_per_sec_col = candidates.len() as f64 / (score_col_ms / 1e3);
    let score_speedup = score_row_ms / score_col_ms.max(1e-9);

    println!(
        "{}",
        render_table(
            &["stage", "row ms", "columnar ms", "speedup"],
            &[
                vec![
                    "transform (outer union)".into(),
                    format!("{xform_row_ms:.1}"),
                    format!("{xform_col_ms:.1}"),
                    format!("{}x", f3(xform_speedup)),
                ],
                vec![
                    "objectID annotation".into(),
                    format!("{annot_base_ms:.1}"),
                    format!("{annot_cur_ms:.1}"),
                    format!("{}x", f3(annot_speedup)),
                ],
                vec![
                    format!("pair scoring ({} pairs)", candidates.len()),
                    format!("{score_row_ms:.1}"),
                    format!("{score_col_ms:.1}"),
                    format!("{}x", f3(score_speedup)),
                ],
            ],
        )
    );
    println!(
        "pair throughput: {:.0} pairs/s (row) vs {:.0} pairs/s (columnar)\n",
        pairs_per_sec_row, pairs_per_sec_col
    );

    // ---- Report ---------------------------------------------------------
    let gate_passed = score_speedup >= SPEEDUP_BAR;
    let report = Json::object()
        .with("experiment", "exp13_columnar")
        .with("identity", Json::Arr(identity_reports))
        .with(
            "large_world",
            Json::object()
                .with("entities", LARGE_ENTITIES)
                .with("union_rows", integrated_rows)
                .with("window", WINDOW)
                .with("candidate_pairs", candidates.len())
                .with("identical_between_layouts", true),
        )
        .with(
            "transform",
            Json::object()
                .with("row_ms", xform_row_ms)
                .with("columnar_ms", xform_col_ms)
                .with("speedup", xform_speedup),
        )
        .with(
            "annotation",
            Json::object()
                .with("baseline_ms", annot_base_ms)
                .with("current_ms", annot_cur_ms)
                .with("speedup", annot_speedup),
        )
        .with(
            "scoring_gate",
            Json::object()
                .with("threads", 1usize)
                .with("row_ms", score_row_ms)
                .with("columnar_ms", score_col_ms)
                .with("row_pairs_per_sec", pairs_per_sec_row)
                .with("columnar_pairs_per_sec", pairs_per_sec_col)
                .with("required_speedup", SPEEDUP_BAR)
                .with("measured_speedup", score_speedup)
                .with("passed", gate_passed),
        );
    let path = "BENCH_columnar.json";
    std::fs::write(path, report.to_string_pretty()).expect("write BENCH_columnar.json");
    println!("wrote {path}");

    if !gate_passed {
        eprintln!(
            "FAIL: columnar scoring speedup is {}x, below the {SPEEDUP_BAR}x bar",
            f3(score_speedup)
        );
        return ExitCode::FAILURE;
    }
    println!(
        "PASS: columnar scoring speedup = {}x (>= {SPEEDUP_BAR}x), all outputs bit-identical",
        f3(score_speedup)
    );
    ExitCode::SUCCESS
}
