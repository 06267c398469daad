//! Property tests for the scatter-gather shard executor (ISSUE 9): across
//! random scenario worlds, shard ceilings K ∈ 1..8, and parallelism degrees
//! 1–4, the shard-merge output must be *bit-identical* to the single-shard
//! pipeline — same fused rows (NaN payloads and `-0.0` included via `{:?}`
//! rendering), same cluster ids, same accepted/unsure pairs with their
//! similarity bits, same conflict samples.
//!
//! A second property audits the planner's co-occurrence invariant directly:
//! no candidate pair may straddle a shard boundary, rows partition the
//! union exactly, and the union of per-shard candidate lists is the global
//! candidate list.
//!
//! The `scatter` tests drive the coordinator over real HTTP workers: the
//! stitched trace tree, the dead-worker drills, and the planner's division
//! of work.

use hummer::core::{fuse_prepared_par, prepare_tables, HummerConfig, Parallelism, PipelineOutcome};
use hummer::datagen::scenarios::{
    cd_shopping, cleansing_service, disaster_registry, student_rosters,
};
use hummer::datagen::GeneratedWorld;
use hummer::dupdetect::{candidate_pairs, resolve_candidate_strategy};
use hummer::engine::Table;
use hummer::fusion::{FunctionRegistry, ResolutionSpec};
use hummer::shard::{execute_sharded, key_equality_spec, plan_shards};
use proptest::prelude::*;

mod wire_version {
    //! Wire-frame version negotiation: a v2 peer (whose request frames
    //! still carry a layout byte) talking to this v3 binary — in either
    //! direction — must fail with the typed [`ShardError::VersionMismatch`]
    //! carrying the offending version byte, never hang on a length it
    //! mis-parsed or decode garbage into a partial.

    use hummer::engine::table;
    use hummer::fusion::ResolutionSpec;
    use hummer::shard::{
        decode_request, decode_response, encode_request, encode_response, JobSpec, Shard,
        ShardError, SHARD_WIRE_VERSION,
    };

    fn spec() -> JobSpec {
        JobSpec {
            attributes: vec!["Name".into(), "City".into()],
            threshold: 0.77,
            unsure_threshold: 0.6,
            use_filter: true,
            resolutions: vec![("City".into(), ResolutionSpec::named("vote"))],
        }
    }

    fn request_bytes() -> Vec<u8> {
        let t = table! {
            "Integrated" => ["Name", "City"];
            ["ann", "berlin"],
            ["bob", "hamburg"],
        };
        let shards = vec![Shard {
            rows: vec![0, 1],
            candidates: vec![(0, 1)],
        }];
        encode_request(&t, &spec(), &shards, Some((0xbeef, 9)))
    }

    /// Patch the version byte (fixed offset 4, right after the magic) to
    /// impersonate another protocol generation.
    fn with_version(mut bytes: Vec<u8>, version: u8) -> Vec<u8> {
        bytes[4] = version;
        bytes
    }

    #[test]
    fn v2_frame_at_v3_worker_is_typed_mismatch() {
        // An old coordinator (v2) calling this binary's worker.
        let bytes = with_version(request_bytes(), 2);
        match decode_request(&bytes) {
            Err(ShardError::VersionMismatch { got, expected }) => {
                assert_eq!((got, expected), (2, 3));
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn v4_frame_at_v3_worker_is_typed_mismatch() {
        // A *newer* peer too: the check is an equality, not a minimum, so
        // layout changes in either direction fail fast.
        let bytes = with_version(request_bytes(), 4);
        match decode_request(&bytes) {
            Err(ShardError::VersionMismatch { got, expected }) => {
                assert_eq!((got, expected), (4, 3));
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_response_at_coordinator_is_typed_mismatch() {
        // The reverse direction: this binary's coordinator decoding an old
        // (v2) worker's response frame.
        let bytes = with_version(encode_response(&[], &[]), 2);
        match decode_response(&bytes, 2) {
            Err(ShardError::VersionMismatch { got, expected }) => {
                assert_eq!((got, expected), (2, 3));
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn mismatch_error_names_both_versions() {
        let bytes = with_version(request_bytes(), 2);
        let message = decode_request(&bytes).unwrap_err().to_string();
        assert!(message.contains("version mismatch"), "{message}");
        assert!(message.contains("v2"), "{message}");
        assert!(
            message.contains(&format!("v{SHARD_WIRE_VERSION}")),
            "{message}"
        );
    }

    #[test]
    fn matching_version_still_roundtrips() {
        // Control: the untouched frame decodes, trace context intact.
        let (_, spec2, shards, trace) = decode_request(&request_bytes()).expect("roundtrip");
        assert_eq!(spec2, spec());
        assert_eq!(shards.len(), 1);
        assert_eq!(trace, Some((0xbeef, 9)));
    }
}

fn world_for(scenario: u8, entities: usize, seed: u64) -> GeneratedWorld {
    match scenario % 4 {
        0 => cd_shopping(entities, seed),
        1 => disaster_registry(entities, seed),
        2 => student_rosters(entities, seed),
        _ => cleansing_service(entities, seed),
    }
}

/// The shardable configuration: key-equality blocking on the first source's
/// first column (the scenario worlds' text identifier), which makes each
/// key group its own candidate-graph component so K > 1 actually fans out.
fn sharded_config(world: &GeneratedWorld, par: Parallelism) -> HummerConfig {
    let key = world.sources[0].table.schema().names()[0].to_string();
    let mut config = HummerConfig {
        parallelism: par,
        ..Default::default()
    };
    config.detector.candidates = key_equality_spec(key);
    config
}

fn resolutions_for(integrated: &Table) -> Vec<(String, ResolutionSpec)> {
    if integrated.schema().contains("Title") {
        vec![("Title".to_string(), ResolutionSpec::named("longest"))]
    } else {
        Vec::new()
    }
}

/// Everything user-visible, rendered bit-exactly (`{:?}` on `f64` is the
/// shortest roundtrip form, so differing bits — NaN payloads, `-0.0` —
/// render differently).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shard-merge == single-shard pipeline for every shard ceiling 1..8
    /// and intra-shard parallelism degree 1–4, on a random scenario world.
    #[test]
    fn sharded_matches_single_shard(
        scenario in 0u8..4,
        entities in 6usize..24,
        seed in 0u64..1000,
    ) {
        let world = world_for(scenario, entities, seed);
        let tables: Vec<&Table> = world.sources.iter().map(|s| &s.table).collect();
        let registry = FunctionRegistry::standard();

        let ref_config = sharded_config(&world, Parallelism::sequential());
        let prepared = prepare_tables(&tables, &ref_config).expect("prepare");
        let resolutions = resolutions_for(&prepared.integrated);
        let reference = fingerprint(
            &fuse_prepared_par(&prepared, &resolutions, &registry, Parallelism::sequential())
                .expect("fuse"),
        );

        for degree in 1..=4 {
            let config = sharded_config(&world, Parallelism::degree(degree));
            for k in 1..=8 {
                let sharded = execute_sharded(&tables, &config, k, &resolutions, &registry)
                    .expect("sharded");
                assert_eq!(
                    &reference,
                    &fingerprint(&sharded.outcome),
                    "k={k} degree={degree}"
                );
                prop_assert!(sharded.shards <= k);
            }
        }
    }

    /// Planner co-occurrence audit: rows partition the union, no candidate
    /// pair straddles a shard boundary, and the per-shard candidate lists
    /// reassemble into exactly the global candidate list.
    #[test]
    fn no_candidate_pair_straddles_a_shard(
        scenario in 0u8..4,
        entities in 6usize..30,
        seed in 0u64..1000,
        k in 1usize..8,
    ) {
        let world = world_for(scenario, entities, seed);
        let tables: Vec<&Table> = world.sources.iter().map(|s| &s.table).collect();
        let config = sharded_config(&world, Parallelism::sequential());
        let prepared = prepare_tables(&tables, &config).expect("prepare");
        let integrated = &prepared.integrated;

        let cfg = config.detector_config();
        let plan = plan_shards(integrated, &cfg, k).expect("plan");
        prop_assert_eq!(plan.audit(integrated.len()), 0);
        prop_assert!(plan.shards.len() <= k);

        let strategy = resolve_candidate_strategy(integrated, &cfg.candidates).expect("strategy");
        let mut global = candidate_pairs(integrated, &strategy);
        global.sort_unstable();
        let mut reassembled: Vec<(usize, usize)> = plan
            .shards
            .iter()
            .flat_map(|s| s.candidates.iter().copied())
            .collect();
        reassembled.sort_unstable();
        prop_assert_eq!(global, reassembled);
    }
}

mod scatter {
    //! The coordinator's scatter over real HTTP workers (in-process
    //! `HummerServer`s on ephemeral ports), on a `person_scale` world under
    //! `City` key-equality blocking — the generator's finite city pool
    //! splits the candidate graph into a few dozen fat components:
    //!
    //! * with two live workers, one query is one stitched trace tree that
    //!   names both workers;
    //! * a dead worker's batch is retried on the survivor, a dead fleet's
    //!   batches run locally — both visible as spans, both answering
    //!   bit-identically — and with local fallback off a dead fleet is a
    //!   typed error, never a partial answer;
    //! * the planner's round-robin batches divide the pair-scoring work.

    use super::fingerprint;
    use hummer::core::{fuse_prepared_par, prepare_tables, HummerConfig, Parallelism};
    use hummer::datagen::scenarios::person_scale;
    use hummer::dupdetect::{candidate_pairs, resolve_candidate_strategy};
    use hummer::engine::Table;
    use hummer::fusion::FunctionRegistry;
    use hummer::obs::{SpanRecord, TraceNode, TraceTree, Tracer};
    use hummer::server::{HummerServer, ServerConfig, ServiceConfig};
    use hummer::shard::{
        execute_sharded_with, key_equality_spec, plan_shards, CoordinatorConfig, RemoteBackend,
        ShardError, ShardedOutcome,
    };
    use std::collections::BTreeSet;
    use std::net::TcpListener;

    const SEED: u64 = 2005;
    /// Shard ceiling: 8 shards round-robined over 2 workers.
    const K: usize = 8;
    /// `person_scale` entities of the drill world (≈ 210 union rows).
    const DRILL_ENTITIES: usize = 150;

    fn city_config(par: Parallelism) -> HummerConfig {
        let mut config = HummerConfig {
            parallelism: par,
            ..Default::default()
        };
        config.detector.candidates = key_equality_spec("City".to_string());
        config
    }

    /// The single-shard sequential answer the scatter must reproduce.
    fn reference(tables: &[&Table]) -> String {
        let config = city_config(Parallelism::sequential());
        let prepared = prepare_tables(tables, &config).expect("prepare");
        fingerprint(
            &fuse_prepared_par(
                &prepared,
                &[],
                &FunctionRegistry::standard(),
                Parallelism::sequential(),
            )
            .expect("fuse"),
        )
    }

    /// A shard worker on an ephemeral port: a plain server — the shard
    /// request carries its own rows, so nothing is uploaded.
    fn start_worker() -> (String, impl FnOnce()) {
        let server = HummerServer::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            service: ServiceConfig::default(),
            ..ServerConfig::default()
        })
        .expect("bind ephemeral worker port");
        let addr = server.local_addr().to_string();
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run().unwrap());
        (addr, move || {
            handle.shutdown();
            join.join().expect("worker thread");
        })
    }

    /// An address nobody listens on: bound, then dropped.
    fn dead_addr() -> String {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().unwrap().to_string()
    }

    fn backend(workers: Vec<String>, fallback_local: bool) -> RemoteBackend {
        RemoteBackend::new(CoordinatorConfig {
            workers,
            fallback_local,
            ..CoordinatorConfig::default()
        })
    }

    /// One scatter of the drill world under a fresh trace root; returns the
    /// outcome and the assembled trace tree.
    fn traced_scatter(
        tables: &[&Table],
        backend: &RemoteBackend,
    ) -> (hummer::shard::Result<ShardedOutcome>, TraceTree) {
        let tracer = Tracer::with_capacity(65536);
        let root = tracer.trace("query");
        let id = root.trace_id().expect("an enabled tracer allocates ids");
        let outcome = execute_sharded_with(
            tables,
            &city_config(Parallelism::degree(2)),
            K,
            &[],
            &FunctionRegistry::standard(),
            backend,
            &root,
        );
        drop(root);
        let tree = tracer.trace_tree(id).expect("the trace is in the ring");
        (outcome, tree)
    }

    /// Every span of the tree with its parent's record, depth-first.
    fn edges(tree: &TraceTree) -> Vec<(Option<&SpanRecord>, &SpanRecord)> {
        fn walk<'a>(
            node: &'a TraceNode,
            parent: Option<&'a SpanRecord>,
            out: &mut Vec<(Option<&'a SpanRecord>, &'a SpanRecord)>,
        ) {
            out.push((parent, &node.record));
            for child in &node.children {
                walk(child, Some(&node.record), out);
            }
        }
        let mut out = Vec::new();
        for root in &tree.roots {
            walk(root, None, &mut out);
        }
        out
    }

    fn has_span(tree: &TraceTree, name: &str) -> bool {
        edges(tree).iter().any(|(_, span)| span.name == name)
    }

    #[test]
    fn two_live_workers_stitch_one_trace_tree() {
        let world = person_scale(DRILL_ENTITIES, SEED);
        let tables: Vec<&Table> = world.sources.iter().map(|s| &s.table).collect();
        let (a, stop_a) = start_worker();
        let (b, stop_b) = start_worker();
        let (outcome, tree) = traced_scatter(&tables, &backend(vec![a, b], true));
        stop_a();
        stop_b();
        let outcome = outcome.expect("scatter");
        assert_eq!(fingerprint(&outcome.outcome), reference(&tables));
        assert_eq!((outcome.stats.retries, outcome.stats.fallbacks), (0, 0));

        assert_eq!(tree.roots.len(), 1, "one root");
        assert_eq!(tree.orphans, 0);
        let edges = edges(&tree);
        let nodes: BTreeSet<&str> = edges
            .iter()
            .filter_map(|(_, span)| span.node.as_deref())
            .collect();
        assert!(nodes.len() >= 2, "worker nodes {nodes:?}");
        // The coordinator's own stages are local spans.
        for stage in ["plan", "scatter", "combine"] {
            assert!(
                edges
                    .iter()
                    .any(|(_, span)| span.name == stage && span.node.is_none()),
                "no local {stage} span"
            );
        }
        // Each worker's stages nest worker_batch → shard → score / cluster,
        // every one of them labelled with the worker that ran it.
        let nested = |child: &str, parent: &str| {
            let spans: Vec<_> = edges
                .iter()
                .filter(|(_, span)| span.name == child)
                .collect();
            !spans.is_empty()
                && spans.iter().all(|(up, span)| {
                    span.node.is_some()
                        && up.is_some_and(|up| up.name == parent && up.node == span.node)
                })
        };
        assert!(edges
            .iter()
            .any(|(_, span)| span.name == "worker_batch" && span.node.is_some()));
        assert!(nested("shard", "worker_batch"), "shard under worker_batch");
        assert!(nested("score", "shard"), "score under shard");
        assert!(nested("cluster", "shard"), "cluster under shard");
    }

    #[test]
    fn a_dead_worker_is_retried_on_the_survivor() {
        let world = person_scale(DRILL_ENTITIES, SEED);
        let tables: Vec<&Table> = world.sources.iter().map(|s| &s.table).collect();
        let (live, stop) = start_worker();
        let (outcome, tree) = traced_scatter(&tables, &backend(vec![live, dead_addr()], true));
        stop();
        let outcome = outcome.expect("scatter with one dead worker");
        assert!(outcome.stats.retries >= 1, "{:?}", outcome.stats);
        assert!(has_span(&tree, "retry"), "no retry span");
        assert_eq!(fingerprint(&outcome.outcome), reference(&tables));
    }

    #[test]
    fn a_dead_fleet_falls_back_to_local_execution() {
        let world = person_scale(DRILL_ENTITIES, SEED);
        let tables: Vec<&Table> = world.sources.iter().map(|s| &s.table).collect();
        let fleet = vec![dead_addr(), dead_addr()];
        let (outcome, tree) = traced_scatter(&tables, &backend(fleet, true));
        let outcome = outcome.expect("scatter with every worker dead");
        assert!(outcome.stats.fallbacks >= 1, "{:?}", outcome.stats);
        assert!(has_span(&tree, "fallback"), "no fallback span");
        assert_eq!(fingerprint(&outcome.outcome), reference(&tables));
    }

    #[test]
    fn a_dead_fleet_without_fallback_is_a_typed_error() {
        let world = person_scale(DRILL_ENTITIES, SEED);
        let tables: Vec<&Table> = world.sources.iter().map(|s| &s.table).collect();
        let fleet = vec![dead_addr(), dead_addr()];
        let (outcome, _) = traced_scatter(&tables, &backend(fleet, false));
        match outcome {
            Err(ShardError::Worker { timeout, .. }) => assert!(!timeout),
            other => panic!("expected a worker error, got {:?}", other.map(|o| o.stats)),
        }
    }

    /// Round-robin over two workers (worker i takes shards i, i + 2, …),
    /// the heaviest batch holds at most 1/1.5 of the candidate pairs: two
    /// workers buy at least 1.5× on the pair-scoring stage. On
    /// `person_scale(1400)` (1,944 union rows, 53,340 candidate pairs, 8
    /// shards) the heaviest batch holds 26,707 of them, a share of 0.501.
    #[test]
    fn round_robin_batches_divide_the_pair_work() {
        let world = person_scale(1400, SEED);
        let tables: Vec<&Table> = world.sources.iter().map(|s| &s.table).collect();
        let config = city_config(Parallelism::sequential());
        let prepared = prepare_tables(&tables, &config).expect("prepare");
        let detector = config.detector_config();
        let strategy = resolve_candidate_strategy(&prepared.integrated, &detector.candidates)
            .expect("strategy");
        let total = candidate_pairs(&prepared.integrated, &strategy).len();
        let plan = plan_shards(&prepared.integrated, &detector, K).expect("plan");
        let mut batches = [0usize; 2];
        for (i, shard) in plan.shards.iter().enumerate() {
            batches[i % 2] += shard.candidates.len();
        }
        let heaviest = batches.iter().copied().max().unwrap();
        let share = heaviest as f64 / total as f64;
        assert_eq!(batches.iter().sum::<usize>(), total);
        assert!(
            share <= 1.0 / 1.5,
            "heaviest batch holds {share:.3} of the pairs"
        );
    }
}
