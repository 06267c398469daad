//! Property test for the intra-query parallel layer (ISSUE 3): across
//! random scenario worlds and thread counts 1–8, the parallel pipeline must
//! produce output *identical* to the sequential pipeline — same fused
//! rows, same cluster ids and duplicate pairs (to the bit, including
//! similarity scores), same conflict samples, same correspondences.
//!
//! Determinism rests on two properties checked here end to end:
//! `hummer_par`'s in-input-order merges, and the order-stable float
//! accumulation in `hummer_textsim` (token-sorted TF-IDF vectors).
//!
//! Tracing is held to the same contract: a pipeline recording every stage
//! span into an enabled tracer answers bit-identically to a bare one.

use hummer::core::{
    fuse_prepared_traced, prepare_tables, prepare_tables_traced, Hummer, HummerConfig, ObsConfig,
    Parallelism, PipelineOutcome,
};
use hummer::datagen::scenarios::{
    cd_shopping, cleansing_service, disaster_registry, person_scale, student_rosters,
};
use hummer::datagen::GeneratedWorld;
use hummer::engine::Table;
use hummer::fusion::{FunctionRegistry, ResolutionSpec};
use hummer::matching::SniffConfig;
use hummer::obs::Span;
use proptest::prelude::*;

fn world_for(scenario: u8, entities: usize, seed: u64) -> GeneratedWorld {
    match scenario % 4 {
        0 => cd_shopping(entities, seed),
        1 => disaster_registry(entities, seed),
        2 => student_rosters(entities, seed),
        _ => cleansing_service(entities, seed),
    }
}

fn config(par: Parallelism) -> HummerConfig {
    HummerConfig {
        matcher: hummer::core::MatcherConfig {
            sniff: SniffConfig {
                top_k: 10,
                min_similarity: 0.3,
                ..Default::default()
            },
            ..Default::default()
        },
        parallelism: par,
        ..Default::default()
    }
}

/// An explicit resolution alongside the COALESCE default, where the
/// integrated schema has the column.
fn resolutions_for(integrated: &Table) -> Vec<(String, ResolutionSpec)> {
    if integrated.schema().contains("Title") {
        vec![("Title".to_string(), ResolutionSpec::named("longest"))]
    } else {
        Vec::new()
    }
}

fn run(world: &GeneratedWorld, par: Parallelism) -> PipelineOutcome {
    let tables: Vec<&Table> = world.sources.iter().map(|s| &s.table).collect();
    let registry = FunctionRegistry::standard();
    let prepared = prepare_tables(&tables, &config(par)).expect("prepare");
    let resolutions = resolutions_for(&prepared.integrated);
    fuse_prepared_traced(&prepared, &resolutions, &registry, par, &Span::noop()).expect("fuse")
}

/// Everything user-visible, rendered bit-exactly (`{:?}` on `f64` is the
/// shortest roundtrip form, so differing bits render differently).
fn fingerprint(out: &PipelineOutcome) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{}|{:?}|{:?}",
        out.result.rows(),
        out.result.schema().names(),
        out.detection.cluster_ids,
        out.detection.pairs,
        out.conflict_count,
        out.sample_conflicts,
        out.match_results
            .iter()
            .map(|m| (&m.correspondences, &m.duplicates_used))
            .collect::<Vec<_>>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Parallel == sequential for every thread count 1–8, on a random
    /// scenario world of random size.
    #[test]
    fn parallel_pipeline_matches_sequential(
        scenario in 0u8..4,
        entities in 8usize..40,
        seed in 0u64..1000,
    ) {
        let world = world_for(scenario, entities, seed);
        let sequential = run(&world, Parallelism::sequential());
        let reference = fingerprint(&sequential);
        for degree in 2..=8 {
            let parallel = run(&world, Parallelism::degree(degree));
            prop_assert_eq!(&reference, &fingerprint(&parallel));
        }
    }

    /// Re-running the *same* configuration twice is also bit-stable (no
    /// hash-order or thread-timing leakage into results).
    #[test]
    fn pipeline_is_run_to_run_deterministic(
        scenario in 0u8..4,
        seed in 0u64..1000,
    ) {
        let world = world_for(scenario, 20, seed);
        let a = run(&world, Parallelism::degree(4));
        let b = run(&world, Parallelism::degree(4));
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
    }
}

/// Tracing does not perturb the answer: at degrees 1–4 on every scenario
/// world, the pipeline run under an enabled tracer's root — every stage
/// recording its span — fingerprints exactly like the bare run, and the
/// spans really landed in the ring.
#[test]
fn tracing_does_not_perturb_the_answer() {
    let registry = FunctionRegistry::standard();
    for scenario in 0..4u8 {
        let world = world_for(scenario, 60, 2005 + u64::from(scenario));
        let tables: Vec<&Table> = world.sources.iter().map(|s| &s.table).collect();
        for degree in 1..=4 {
            let par = Parallelism::degree(degree);
            let bare = fingerprint(&run(&world, par));

            let obs = ObsConfig::enabled(4096);
            let tracer = obs.tracer.clone();
            let traced_config = HummerConfig { obs, ..config(par) };
            let root = tracer.trace("query");
            let prepared = prepare_tables_traced(&tables, &traced_config, &root).expect("prepare");
            let resolutions = resolutions_for(&prepared.integrated);
            let traced =
                fuse_prepared_traced(&prepared, &resolutions, &registry, par, &root).expect("fuse");
            drop(root);
            assert_eq!(
                bare,
                fingerprint(&traced),
                "scenario {scenario} at degree {degree}"
            );

            let spans = tracer.drain();
            for stage in ["match", "transform", "detect", "cluster", "fuse"] {
                assert!(
                    spans.iter().any(|s| s.name == stage),
                    "no {stage} span in the ring (scenario {scenario}, degree {degree})"
                );
            }
        }
    }
}

/// `Hummer::query` pre-aligns a multi-source `FUSE FROM` by schema
/// matching at `config.parallelism`; its result rows are the same at
/// degrees 1 and 4.
#[test]
fn query_answers_alike_at_every_degree() {
    let world = cd_shopping(120, 31);
    let answer = |degree: usize| {
        let mut hummer = Hummer::with_config(config(Parallelism::degree(degree)));
        for source in &world.sources {
            let table = source.table.clone();
            hummer
                .repository_mut()
                .register_table(table.name().to_string(), table)
                .expect("register");
        }
        let out = hummer
            .query(
                "SELECT Title, RESOLVE(Price, min) FUSE FROM CDPalace, DiscountDiscs, MusicMile \
                 FUSE BY (Title) ORDER BY Title",
            )
            .expect("query");
        assert!(!out.table.is_empty());
        format!("{:?}|{:?}", out.table.schema().names(), out.table.rows())
    };
    assert_eq!(answer(1), answer(4));
}

/// The answer sniffing is defined by: every pair of tuples scored by the
/// cosine of their TF-IDF vectors, pairs at or above `min_similarity`
/// sorted by (similarity descending, left row, right row), filtered to 1:1,
/// cut to `top_k`. (With `min_similarity > 0` a pair that shares no token
/// scores 0 and drops out, so all pairs stand in for the token-sharing
/// join.)
fn full_join(left: &Table, right: &Table, cfg: &SniffConfig) -> Vec<(usize, usize, u64)> {
    use hummer::textsim::{word_tokens, Corpus};
    let documents = |t: &Table| -> Vec<Vec<String>> {
        t.rows()
            .iter()
            .map(|r| word_tokens(&r.as_document()))
            .collect()
    };
    let (left_docs, right_docs) = (documents(left), documents(right));
    let corpus = Corpus::from_documents(left_docs.iter().chain(right_docs.iter()));
    let vectors = |docs: &[Vec<String>]| {
        docs.iter()
            .map(|d| corpus.weight_vector(d))
            .collect::<Vec<_>>()
    };
    let (left_vecs, right_vecs) = (vectors(&left_docs), vectors(&right_docs));
    let mut pairs = Vec::new();
    for (i, a) in left_vecs.iter().enumerate() {
        for (j, b) in right_vecs.iter().enumerate() {
            let similarity = a.cosine(b);
            if similarity >= cfg.min_similarity {
                pairs.push((i, j, similarity));
            }
        }
    }
    pairs.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
    let (mut used_l, mut used_r) = (vec![false; left.len()], vec![false; right.len()]);
    pairs.retain(|&(i, j, _)| {
        let free = !cfg.one_to_one || (!used_l[i] && !used_r[j]);
        if free {
            (used_l[i], used_r[j]) = (true, true);
        }
        free
    });
    pairs.truncate(cfg.top_k);
    pairs
        .into_iter()
        .map(|(i, j, s)| (i, j, s.to_bits()))
        .collect()
}

/// Bounded top-k sniffing returns the full join's pairs — rows and
/// similarity bits — at degrees 1–4, on the scenario worlds.
#[test]
fn sniffing_equals_the_full_join_at_every_degree() {
    use hummer::matching::sniff_duplicates;
    let worlds = [
        cd_shopping(300, 21),
        disaster_registry(300, 22),
        student_rosters(300, 23),
        person_scale(300, 24),
    ];
    for world in &worlds {
        let (left, right) = (&world.sources[0].table, &world.sources[1].table);
        for (top_k, min_similarity, one_to_one) in [
            (10, 0.3, true),
            (10, 0.5, false),
            (300, 0.2, true),
            (5000, 0.3, true),
        ] {
            let cfg = SniffConfig {
                top_k,
                min_similarity,
                one_to_one,
            };
            let expected = full_join(left, right, &cfg);
            for degree in 1..=4 {
                let sniffed: Vec<(usize, usize, u64)> =
                    sniff_duplicates(left, right, &cfg, Parallelism::degree(degree))
                        .iter()
                        .map(|p| (p.left, p.right, p.similarity.to_bits()))
                        .collect();
                assert_eq!(sniffed, expected, "{cfg:?} at degree {degree}");
            }
        }
    }
}
