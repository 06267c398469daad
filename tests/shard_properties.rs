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
