//! Cross-crate integration tests: the full HumMer pipeline on generated
//! scenario worlds, with quality floors asserted against gold standards.

use hummer::core::{
    prepare_tables, Hummer, HummerConfig, MatcherConfig, ResolutionSpec, SniffConfig,
};
use hummer::datagen::scenarios::{
    cd_shopping, cleansing_service, disaster_registry, student_rosters,
};
use hummer::datagen::{cluster_pair_metrics, correspondence_metrics, GeneratedWorld};
use hummer::dupdetect::{
    detect_duplicates, CandidateSpec, DetectionIndex, DetectorConfig, Parallelism,
};
use hummer::engine::{Table, Value};

fn hummer_for(world: &GeneratedWorld) -> Hummer {
    let mut h = Hummer::with_config(HummerConfig {
        matcher: MatcherConfig {
            sniff: SniffConfig {
                top_k: 10,
                min_similarity: 0.3,
                ..Default::default()
            },
            ..Default::default()
        },
        ..Default::default()
    });
    for s in &world.sources {
        h.repository_mut()
            .register_table(s.table.name().to_string(), s.table.clone())
            .unwrap();
    }
    h
}

#[test]
fn cd_shopping_pipeline_quality() {
    let world = cd_shopping(40, 2005);
    let h = hummer_for(&world);
    let aliases: Vec<&str> = world.sources.iter().map(|s| s.table.name()).collect();
    let out = h
        .fuse_sources(
            &aliases,
            &[("Price".to_string(), ResolutionSpec::named("min"))],
        )
        .unwrap();

    // Fusion must reduce cardinality to (roughly) the number of entities
    // actually covered.
    assert!(out.result.len() < out.integrated.len());
    assert!(out.result.len() >= 40 * 5 / 10, "not everything collapsed");

    // Schema matching recall: every gold rename recovered (precision may
    // admit spurious same-named pairs, recall is the claim).
    for (i, m) in out.match_results.iter().enumerate() {
        let predicted: Vec<(String, String)> = m
            .correspondences
            .iter()
            .map(|c| (c.right_column.clone(), c.left_column.clone()))
            .collect();
        let gold: Vec<(String, String)> = world.gold_renames[i + 1]
            .iter()
            .filter(|(l, c)| !l.eq_ignore_ascii_case(c))
            .map(|(l, c)| (l.clone(), c.clone()))
            .collect();
        let pr = correspondence_metrics(&predicted, &gold);
        assert!(
            pr.recall >= 0.99,
            "matching recall vs {}: {:?}",
            m.right_table,
            pr
        );
    }

    // Duplicate detection on this noise level: high precision, usable recall.
    let pr = cluster_pair_metrics(&out.detection.cluster_ids, &world.gold_union_entity_ids());
    assert!(pr.precision >= 0.9, "precision {:?}", pr);
    assert!(pr.recall >= 0.4, "recall {:?}", pr);
}

#[test]
fn disaster_registry_pipeline_quality() {
    let world = disaster_registry(60, 26122004);
    let h = hummer_for(&world);
    let aliases: Vec<&str> = world.sources.iter().map(|s| s.table.name()).collect();
    let out = h
        .fuse_sources(
            &aliases,
            &[("LastSeen".to_string(), ResolutionSpec::named("max"))],
        )
        .unwrap();
    let pr = cluster_pair_metrics(&out.detection.cluster_ids, &world.gold_union_entity_ids());
    assert!(pr.precision >= 0.7, "{pr:?}");
    assert!(pr.recall >= 0.3, "{pr:?}");
    assert!(out.result.len() < out.integrated.len());
}

#[test]
fn cleansing_service_dedup_quality() {
    let world = cleansing_service(50, 7);
    let h = hummer_for(&world);
    let out = h.fuse_sources(&["CustomerDump"], &[]).unwrap();
    let pr = cluster_pair_metrics(&out.detection.cluster_ids, &world.gold_union_entity_ids());
    assert!(pr.f1() >= 0.8, "{pr:?}");
}

#[test]
fn student_rosters_query_mode() {
    let world = student_rosters(30, 3);
    let h = hummer_for(&world);
    // The query speaks only the preferred (EE) schema; CS columns are
    // FullName/Years and must be aligned automatically.
    let out = h
        .query(
            "SELECT Name, RESOLVE(Age, max) FUSE FROM EE_Student, CS_Students FUSE BY (Name) \
             ORDER BY Name",
        )
        .unwrap();
    assert_eq!(out.table.schema().names(), vec!["Name", "Age"]);
    assert!(!out.table.is_empty());
    // FUSE BY (Name) ⇒ names unique in the output.
    let mut names: Vec<String> = out.table.rows().iter().map(|r| r[0].to_string()).collect();
    let n = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), n, "FUSE BY key must be unique in the result");
}

#[test]
fn fused_result_has_no_remaining_near_duplicates() {
    // Consistency check from the paper's promise: the result is "a single,
    // consistent, and clean representation" — re-running detection on the
    // fused output finds (almost) nothing left to merge.
    let world = cleansing_service(40, 99);
    let h = hummer_for(&world);
    let out = h.fuse_sources(&["CustomerDump"], &[]).unwrap();
    let mut h2 = Hummer::new();
    h2.repository_mut()
        .register_table("Fused", out.result.clone())
        .unwrap();
    let second_pass = h2.fuse_sources(&["Fused"], &[]).unwrap();
    let shrink = out.result.len() - second_pass.result.len();
    assert!(
        shrink <= out.result.len() / 10,
        "second pass still merged {shrink} of {} rows",
        out.result.len()
    );
}

#[test]
fn fusion_improves_completeness() {
    // Fused tuples should be at least as complete (non-null cells per
    // entity) as the best single source row — COALESCE fills gaps.
    let world = disaster_registry(40, 5);
    let h = hummer_for(&world);
    let out = h
        .fuse_sources(
            &world
                .sources
                .iter()
                .map(|s| s.table.name())
                .collect::<Vec<_>>(),
            &[],
        )
        .unwrap();
    let fused_nn: usize = out.result.rows().iter().map(|r| r.non_null_count()).sum();
    let fused_cells: usize = out.result.len() * out.result.schema().len();
    let integ_nn: usize = out
        .integrated
        .rows()
        .iter()
        .map(|r| r.non_null_count())
        .sum();
    // integrated has 2 extra bookkeeping cols, all non-null; exclude them.
    let integ_nn = integ_nn - out.integrated.len(); // sourceID always set
    let integ_cells: usize = out.integrated.len() * (out.integrated.schema().len() - 1);
    let fused_density = fused_nn as f64 / fused_cells as f64;
    let integ_density = integ_nn as f64 / integ_cells as f64;
    assert!(
        fused_density >= integ_density - 1e-9,
        "fusion must not lose values: {fused_density:.3} vs {integ_density:.3}"
    );
}

#[test]
fn lineage_covers_every_non_null_cell() {
    let world = student_rosters(25, 11);
    let h = hummer_for(&world);
    let out = h
        .fuse_sources(
            &world
                .sources
                .iter()
                .map(|s| s.table.name())
                .collect::<Vec<_>>(),
            &[],
        )
        .unwrap();
    for row in 0..out.result.len() {
        for col in 0..out.result.schema().len() {
            let v = out.result.cell(row, col);
            let cell = out.lineage.cell(row, col);
            if v != &Value::Null {
                assert!(
                    !cell.row_indices.is_empty(),
                    "non-null cell ({row},{col}) must have provenance"
                );
            }
        }
    }
}

/// A sorted-neighbourhood window below 2 is a configuration error, not a
/// panic: every entry into detection returns `Err`.
#[test]
fn window_below_two_is_an_error() {
    let world = student_rosters(20, 2005);
    let tables: Vec<&Table> = world.sources.iter().map(|s| &s.table).collect();
    let key = tables[0].schema().names()[0].to_string();
    for window in [0, 1] {
        let candidates = CandidateSpec::SortedNeighborhood {
            key: vec![key.clone()],
            window,
        };
        let cfg = DetectorConfig {
            candidates: candidates.clone(),
            ..Default::default()
        };
        assert!(detect_duplicates(tables[0], &cfg, Parallelism::sequential()).is_err());
        assert!(DetectionIndex::build(tables[0], &cfg).is_err());
        let mut config = HummerConfig::default();
        config.detector.candidates = candidates;
        assert!(prepare_tables(&tables, &config).is_err(), "window {window}");
    }
}
