//! Cross-crate property-based tests: invariants of the pipeline that must
//! hold on arbitrary (generated) inputs.

use hummer::datagen::{generate, DirtyConfig, EntityKind, SourceSpec};
use hummer::dupdetect::{detect_duplicates, DetectorConfig, Parallelism};
use hummer::engine::ops::outer_union;
use hummer::engine::{Row, Table, Value};
use hummer::fusion::{fuse, FunctionRegistry, FusionSpec};
use hummer::query::parse;
use proptest::prelude::*;

/// Strategy: a small random table of text/int/null cells.
fn arb_table() -> impl Strategy<Value = Table> {
    let cell = prop_oneof![
        2 => "[a-z]{1,8}".prop_map(Value::text),
        2 => (0i64..50).prop_map(Value::Int),
        1 => Just(Value::Null),
    ];
    (2usize..5).prop_flat_map(move |width| {
        let cols: Vec<String> = (0..width).map(|i| format!("c{i}")).collect();
        prop::collection::vec(prop::collection::vec(cell.clone(), width), 0..25).prop_map(
            move |rows| {
                Table::from_rows("T", &cols, rows.into_iter().map(Row::from_values).collect())
                    .expect("arity matches by construction")
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fusion by a key is idempotent: fusing a fused table is a no-op.
    #[test]
    fn fusion_idempotent(t in arb_table()) {
        let registry = FunctionRegistry::standard();
        let spec = FusionSpec::by_key(vec!["c0"]);
        let once = fuse(&t, &spec, &registry).unwrap();
        let twice = fuse(&once.table, &spec, &registry).unwrap();
        prop_assert_eq!(once.table.rows(), twice.table.rows());
        prop_assert_eq!(twice.conflict_count, 0);
    }

    /// Fusion never increases cardinality, and the key is unique afterwards.
    #[test]
    fn fusion_key_unique(t in arb_table()) {
        let registry = FunctionRegistry::standard();
        let spec = FusionSpec::by_key(vec!["c0"]);
        let fused = fuse(&t, &spec, &registry).unwrap();
        prop_assert!(fused.table.len() <= t.len());
        let mut keys: Vec<Value> = fused.table.rows().iter().map(|r| r[0].clone()).collect();
        let n = keys.len();
        keys.sort();
        keys.dedup();
        prop_assert_eq!(keys.len(), n);
    }

    /// The outer union has Σ|Tᵢ| rows and the name-wise union of columns.
    #[test]
    fn outer_union_cardinality(a in arb_table(), b in arb_table()) {
        let u = outer_union(&[&a, &b], "U").unwrap();
        prop_assert_eq!(u.len(), a.len() + b.len());
        for c in a.schema().names().iter().chain(b.schema().names().iter()) {
            prop_assert!(u.schema().contains(c));
        }
    }

    /// The upper-bound filter never changes detection output, only cost.
    #[test]
    fn filter_is_lossless(seed in 0u64..500) {
        let cfg = DirtyConfig {
            entities: 12,
            dup_within_source: 0.3,
            ..DirtyConfig::two_sources(EntityKind::Person, 12, seed)
        };
        let world = generate(&cfg);
        let refs: Vec<&Table> = world.sources.iter().map(|s| &s.table).collect();
        let u = outer_union(&refs, "U").unwrap();
        if u.is_empty() {
            return Ok(());
        }
        let seq = Parallelism::sequential();
        let with = detect_duplicates(&u, &DetectorConfig { use_filter: true, ..Default::default() }, seq).unwrap();
        let without = detect_duplicates(&u, &DetectorConfig { use_filter: false, ..Default::default() }, seq).unwrap();
        prop_assert_eq!(&with.pairs, &without.pairs);
        prop_assert_eq!(&with.cluster_ids, &without.cluster_ids);
        prop_assert!(with.stats.compared <= without.stats.compared);
    }

    /// Detection similarity classification respects thresholds, pairs are
    /// canonical (left < right), and cluster ids are dense.
    #[test]
    fn detection_invariants(seed in 0u64..500) {
        let world = generate(&DirtyConfig::two_sources(EntityKind::Cd, 15, seed));
        let refs: Vec<&Table> = world.sources.iter().map(|s| &s.table).collect();
        let u = outer_union(&refs, "U").unwrap();
        if u.is_empty() {
            return Ok(());
        }
        let cfg = DetectorConfig::default();
        let det = detect_duplicates(&u, &cfg, Parallelism::sequential()).unwrap();
        for p in &det.pairs {
            prop_assert!(p.left < p.right);
            prop_assert!(p.similarity >= cfg.threshold);
        }
        for p in &det.unsure {
            prop_assert!(p.similarity >= cfg.unsure_threshold);
            prop_assert!(p.similarity < cfg.threshold);
        }
        // Dense cluster ids: 0..object_count, every id used.
        let max = det.cluster_ids.iter().copied().max().unwrap_or(0);
        prop_assert_eq!(max + 1, det.object_count());
        // Pairs imply same cluster.
        for p in &det.pairs {
            prop_assert_eq!(det.cluster_ids[p.left], det.cluster_ids[p.right]);
        }
    }

    /// The parser never panics on arbitrary input (errors are values).
    #[test]
    fn parser_total(input in ".{0,80}") {
        let _ = parse(&input);
    }

    /// Generated worlds always satisfy their own gold-standard invariants.
    #[test]
    fn generated_world_consistency(seed in 0u64..300, entities in 1usize..30) {
        let cfg = DirtyConfig {
            sources: vec![
                SourceSpec::plain("A"),
                SourceSpec::plain("B").rename("Name", "Person").shuffled(),
            ],
            ..DirtyConfig::two_sources(EntityKind::Person, entities, seed)
        };
        let world = generate(&cfg);
        prop_assert_eq!(world.clean.len(), entities);
        let ids = world.gold_union_entity_ids();
        let total: usize = world.sources.iter().map(|s| s.table.len()).sum();
        prop_assert_eq!(ids.len(), total);
        for (i, j) in world.gold_union_pairs() {
            prop_assert!(i < j);
            prop_assert_eq!(ids[i], ids[j]);
        }
        // The gold rename map covers every column of every source.
        for (s, renames) in world.sources.iter().zip(&world.gold_renames) {
            for col in s.table.schema().names() {
                prop_assert!(renames.contains_key(col), "missing gold for {col}");
            }
        }
    }
}
