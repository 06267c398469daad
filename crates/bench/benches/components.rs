//! Criterion micro-benchmarks for every HumMer component, including the
//! ablations DESIGN.md §6 calls out (hash vs. nested-loop join, filter
//! on/off, soft vs. hard token matching).
//!
//! Sample sizes are kept small so `cargo bench --workspace` completes in
//! minutes; the experiment binaries (`exp1` … `exp8`) are the primary
//! quantitative artifacts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hummer_core::{Hummer, HummerConfig, MatcherConfig, SniffConfig};
use hummer_datagen::{generate, DirtyConfig, EntityKind, SourceSpec};
use hummer_dupdetect::{
    candidate_pairs, detect_duplicates, field_similarity_with_range, numeric_field_similarity,
    score_candidates, select_attributes, CandidateSpec, CandidateStrategy, DetectorConfig,
    HeuristicConfig, Parallelism, TupleSimilarity,
};
use hummer_engine::expr::Expr;
use hummer_engine::ops::{hash_join, nested_loop_join, outer_union, JoinKind};
use hummer_engine::Table;
use hummer_fusion::{fuse, FunctionRegistry, FusionSpec, ResolutionSpec};
use hummer_matching::{match_tables, sniff_duplicates};
use hummer_query::{parse, run_query, TableSet};
use hummer_textsim::{jaro_winkler, levenshtein, word_tokens, Corpus, SoftTfIdf};
use std::hint::black_box;

fn person_world(n: usize, seed: u64) -> hummer_datagen::GeneratedWorld {
    generate(&DirtyConfig {
        kind: EntityKind::Person,
        entities: n,
        sources: vec![
            SourceSpec::plain("A"),
            SourceSpec::plain("B")
                .rename("Name", "FullName")
                .rename("City", "Town")
                .shuffled(),
        ],
        coverage: 0.7,
        typo_rate: 0.08,
        null_rate: 0.05,
        conflict_rate: 0.1,
        dup_within_source: 0.0,
        seed,
    })
}

fn union_of(world: &hummer_datagen::GeneratedWorld) -> Table {
    let refs: Vec<&Table> = world.sources.iter().map(|s| &s.table).collect();
    outer_union(&refs, "U").unwrap()
}

fn bench_textsim(c: &mut Criterion) {
    let mut g = c.benchmark_group("textsim");
    g.sample_size(30);
    g.bench_function("levenshtein/10ch", |b| {
        b.iter(|| levenshtein(black_box("john smith"), black_box("jon smyth!")))
    });
    g.bench_function("jaro_winkler/10ch", |b| {
        b.iter(|| jaro_winkler(black_box("john smith"), black_box("jon smyth!")))
    });
    let docs: Vec<Vec<String>> = (0..500)
        .map(|i| word_tokens(&format!("artist {} album number {}", i % 40, i)))
        .collect();
    let corpus = Corpus::from_documents(docs.iter());
    let a = word_tokens("artist 7 album number 300");
    let b2 = word_tokens("artist 7 albun number 301");
    g.bench_function("tfidf_cosine", |b| {
        b.iter(|| corpus.tfidf_cosine(black_box(&a), black_box(&b2)))
    });
    let soft = SoftTfIdf::new(&corpus);
    g.bench_function("soft_tfidf", |b| {
        b.iter(|| soft.similarity(black_box(&a), black_box(&b2)))
    });
    g.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.sample_size(20);
    let w = person_world(500, 1);
    let a = &w.sources[0].table;
    let b2 = &w.sources[1].table;
    g.bench_function("outer_union/2x500", |bch| {
        bch.iter(|| outer_union(&[black_box(a), black_box(b2)], "U").unwrap())
    });
    // Ablation: hash join vs nested-loop join on the same equi-predicate.
    g.bench_function("hash_join/500x500", |bch| {
        bch.iter(|| hash_join(a, b2, "Name", "FullName", JoinKind::Inner).unwrap())
    });
    let pred = Expr::col("Name").eq(Expr::col("FullName"));
    g.bench_function("nested_loop_join/500x500", |bch| {
        bch.iter(|| nested_loop_join(a, b2, &pred, JoinKind::Inner).unwrap())
    });
    let csv = hummer_engine::csv::write_csv_str(a);
    g.bench_function("csv_parse/500rows", |bch| {
        bch.iter(|| hummer_engine::csv::read_csv_str("T", black_box(&csv)).unwrap())
    });
    g.finish();
}

fn bench_matching(c: &mut Criterion) {
    let mut g = c.benchmark_group("matching");
    g.sample_size(10);
    for n in [200usize, 1000] {
        let w = person_world(n, 2);
        let a = &w.sources[0].table;
        let b2 = &w.sources[1].table;
        g.bench_with_input(BenchmarkId::new("sniff_duplicates", n), &n, |bch, _| {
            bch.iter(|| {
                sniff_duplicates(
                    a,
                    b2,
                    &SniffConfig {
                        min_similarity: 0.3,
                        ..Default::default()
                    },
                )
            })
        });
        let cfg = MatcherConfig {
            sniff: SniffConfig {
                min_similarity: 0.3,
                ..Default::default()
            },
            ..Default::default()
        };
        g.bench_with_input(BenchmarkId::new("match_tables", n), &n, |bch, _| {
            bch.iter(|| match_tables(a, b2, &cfg))
        });
    }
    g.finish();
}

fn bench_dupdetect(c: &mut Criterion) {
    let mut g = c.benchmark_group("dupdetect");
    g.sample_size(10);
    let w = person_world(400, 3);
    let u = union_of(&w);
    // Ablation: filter on/off, blocking.
    g.bench_function("all_pairs_no_filter", |bch| {
        bch.iter(|| {
            detect_duplicates(
                &u,
                &DetectorConfig {
                    use_filter: false,
                    ..Default::default()
                },
            )
            .unwrap()
        })
    });
    g.bench_function("all_pairs_filter", |bch| {
        bch.iter(|| detect_duplicates(&u, &DetectorConfig::default()).unwrap())
    });
    g.bench_function("sorted_neighborhood_w20", |bch| {
        bch.iter(|| {
            detect_duplicates(
                &u,
                &DetectorConfig {
                    candidates: CandidateSpec::SortedNeighborhood {
                        key: vec!["Name".into()],
                        window: 20,
                    },
                    ..Default::default()
                },
            )
            .unwrap()
        })
    });
    g.finish();
}

/// The inner kernels: TF-IDF weight vectors and the merge-join dot/norm
/// sweep, the numeric distance kernel with and without `Value` dispatch,
/// and candidate-pair scoring through [`score_candidates`].
fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels");
    g.sample_size(20);

    // TF-IDF: building the sorted SoA weight vector, and the merge-join
    // cosine over two prebuilt vectors (the hot sweep inside sniffing).
    let docs: Vec<Vec<String>> = (0..500)
        .map(|i| word_tokens(&format!("artist {} album number {}", i % 40, i)))
        .collect();
    let corpus = Corpus::from_documents(docs.iter());
    let ta = word_tokens("artist 7 album number 300 deluxe remastered edition");
    let tb = word_tokens("artist 7 albun number 301 deluxe remaster edition");
    g.bench_function("tfidf_weight_vector", |bch| {
        bch.iter(|| corpus.weight_vector(black_box(&ta)))
    });
    let va = corpus.weight_vector(&ta);
    let vb = corpus.weight_vector(&tb);
    g.bench_function("tfidf_cosine_merge_join", |bch| {
        bch.iter(|| black_box(&va).cosine(black_box(&vb)))
    });

    // Numeric distance: the raw f64 kernel vs. the Value-dispatching entry.
    let xs: Vec<f64> = (0..1024).map(|i| 19.0 + (i % 77) as f64 * 0.5).collect();
    let ys: Vec<f64> = (0..1024).map(|i| 19.0 + (i % 91) as f64 * 0.5).collect();
    g.bench_function("numeric_kernel_1024", |bch| {
        bch.iter(|| {
            let mut acc = 0.0f64;
            for (x, y) in xs.iter().zip(&ys) {
                acc += numeric_field_similarity(black_box(*x), black_box(*y), Some(40.0));
            }
            acc
        })
    });
    let vxs: Vec<hummer_engine::Value> =
        xs.iter().map(|&x| hummer_engine::Value::Float(x)).collect();
    let vys: Vec<hummer_engine::Value> =
        ys.iter().map(|&y| hummer_engine::Value::Float(y)).collect();
    g.bench_function("numeric_value_dispatch_1024", |bch| {
        bch.iter(|| {
            let mut acc = 0.0f64;
            for (x, y) in vxs.iter().zip(&vys) {
                acc += field_similarity_with_range(black_box(x), black_box(y), Some(40.0));
            }
            acc
        })
    });

    // Pair scoring: the staged block kernel over a sorted neighbourhood.
    let w = person_world(1000, 7);
    let u = union_of(&w);
    let attrs = select_attributes(&u, &HeuristicConfig::default());
    let measure = TupleSimilarity::new(&u, attrs);
    let candidates = candidate_pairs(
        &u,
        &CandidateStrategy::SortedNeighborhood {
            key_attrs: vec![u.resolve("Name").unwrap()],
            window: 15,
        },
    );
    let cfg = DetectorConfig::default();
    let seq = Parallelism::degree(1);
    g.bench_function("score_pairs", |bch| {
        bch.iter(|| score_candidates(&u, &measure, &cfg, black_box(&candidates), seq))
    });
    g.finish();
}

fn bench_fusion(c: &mut Criterion) {
    let mut g = c.benchmark_group("fusion");
    g.sample_size(20);
    let w = person_world(1000, 4);
    let mut u = union_of(&w);
    // Give it an object key: entity ids as a column.
    let ids = w.gold_union_entity_ids();
    u.add_column(
        hummer_engine::Column::new("objectID", hummer_engine::ColumnType::Int),
        |i, _| hummer_engine::Value::Int(ids[i] as i64),
    )
    .unwrap();
    let registry = FunctionRegistry::standard();
    for func in ["coalesce", "vote", "concat"] {
        g.bench_with_input(BenchmarkId::new("fuse_1400rows", func), &func, |bch, f| {
            let spec =
                FusionSpec::by_key(vec!["objectID"]).resolve("Name", ResolutionSpec::named(*f));
            bch.iter(|| fuse(&u, &spec, &registry).unwrap())
        });
    }
    g.finish();
}

fn bench_query(c: &mut Criterion) {
    let mut g = c.benchmark_group("query");
    g.sample_size(30);
    let sql = "SELECT Name, RESOLVE(Age, max) FUSE FROM EE_Student, CS_Students \
               WHERE Age > 18 FUSE BY (Name) HAVING Age > 20 ORDER BY Name";
    g.bench_function("parse", |bch| bch.iter(|| parse(black_box(sql)).unwrap()));

    let mut cat = TableSet::new();
    let w = person_world(300, 5);
    let mut a = w.sources[0].table.clone();
    a.set_name("EE_Student");
    let mut b2 = w.sources[1].table.clone();
    b2 = hummer_engine::ops::rename_column(&b2, "FullName", "Name").unwrap();
    b2.set_name("CS_Students");
    cat.add(a);
    cat.add(b2);
    let registry = FunctionRegistry::standard();
    g.bench_function("execute_fusion_600rows", |bch| {
        bch.iter(|| run_query(sql, &cat, &registry).unwrap())
    });
    g.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    let w = person_world(200, 6);
    let mut h = Hummer::with_config(HummerConfig {
        matcher: MatcherConfig {
            sniff: SniffConfig {
                min_similarity: 0.3,
                ..Default::default()
            },
            ..Default::default()
        },
        ..Default::default()
    });
    for s in &w.sources {
        h.repository_mut()
            .register_table(s.table.name().to_string(), s.table.clone())
            .unwrap();
    }
    g.bench_function("fuse_sources_2x200", |bch| {
        bch.iter(|| h.fuse_sources(&["A", "B"], &[]).unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_textsim,
    bench_engine,
    bench_matching,
    bench_dupdetect,
    bench_kernels,
    bench_fusion,
    bench_query,
    bench_pipeline
);
criterion_main!(benches);
