//! The delta subsystem's contract as a property: a random sequence of
//! deltas (inserts / updates / deletes across scenario worlds) applied
//! incrementally equals a from-scratch rebuild, bit-for-bit, at every
//! parallelism degree 1–4 — prepared artifacts *and* the fused result a
//! query over them returns, lineage included, schema matching included
//! (correspondences, sniffed duplicates and the averaged matrix, to the
//! bit). Chains through a carried delta index additionally leave the
//! detection index equal to one built from scratch, under every blocking
//! strategy, on worlds large enough that most deltas are scored
//! incrementally.

use hummer::core::{
    fuse_prepared, prepare_tables, DeltaIndex, DetectionIndex, HummerConfig, MatcherConfig,
    Parallelism, PreparedSources, SniffConfig, Span,
};
use hummer::datagen::scenarios::{
    cd_shopping, cleansing_service, disaster_registry, student_rosters,
};
use hummer::datagen::GeneratedWorld;
use hummer::delta::{concat_mappings, RowMapping, TableDelta};
use hummer::dupdetect::{candidate_pairs, resolve_candidate_strategy, CandidateSpec};
use hummer::engine::{Table, Value};
use hummer::fusion::FunctionRegistry;
use hummer::matching::MatchResult;
use proptest::prelude::*;

fn config(par: Parallelism) -> HummerConfig {
    HummerConfig {
        matcher: MatcherConfig {
            sniff: SniffConfig {
                top_k: 8,
                min_similarity: 0.3,
                ..Default::default()
            },
            ..Default::default()
        },
        parallelism: par,
        ..Default::default()
    }
}

/// One op in the generated plan: `(kind, row_pick, perturbation)`.
type OpPlan = (u8, usize, String);
/// One delta in the plan: `(source_pick, ops)`.
type DeltaPlan = (usize, Vec<OpPlan>);

/// Interpret an op plan against a concrete table, avoiding row conflicts.
fn build_delta(table: &Table, plan: &[OpPlan]) -> TableDelta {
    let mut delta = TableDelta::new(table.name());
    let mut used: Vec<usize> = Vec::new();
    for (kind, pick, text) in plan {
        let n = table.len();
        match kind % 3 {
            0 => {
                // Insert: clone a row (or synthesize) and perturb its first
                // text cell so the new row is genuinely new content.
                let mut values: Vec<Value> = if n == 0 {
                    table
                        .schema()
                        .names()
                        .iter()
                        .map(|_| Value::text(text.clone()))
                        .collect()
                } else {
                    table.rows()[pick % n].values().to_vec()
                };
                if let Some(v) = values.iter_mut().find(|v| matches!(v, Value::Text(_))) {
                    *v = Value::text(format!("{v} {text}"));
                }
                delta = delta.insert(values);
            }
            1 if n > 0 => {
                let row = pick % n;
                if used.contains(&row) {
                    continue;
                }
                used.push(row);
                let mut values: Vec<Value> = table.rows()[row].values().to_vec();
                if let Some(v) = values.iter_mut().find(|v| matches!(v, Value::Text(_))) {
                    *v = Value::text(format!("{text} {v}"));
                } else if let Some(v) = values.first_mut() {
                    *v = Value::text(text.clone());
                }
                delta = delta.update(row, values);
            }
            2 if n > 1 => {
                let row = pick % n;
                if used.contains(&row) {
                    continue;
                }
                used.push(row);
                delta = delta.delete(row);
            }
            _ => {}
        }
    }
    delta
}

/// A match result as bits: table names, correspondences (names and score
/// bits), the duplicates used (rows and similarity bits) and the averaged
/// matrix — everything but `sniff`, which reports work.
type MatchBits = (
    String,
    String,
    Vec<(String, String, u64)>,
    Vec<(usize, usize, u64)>,
    Vec<u64>,
);

fn match_bits(m: &MatchResult) -> MatchBits {
    (
        m.left_table.clone(),
        m.right_table.clone(),
        m.correspondences
            .iter()
            .map(|c| {
                (
                    c.left_column.clone(),
                    c.right_column.clone(),
                    c.score.to_bits(),
                )
            })
            .collect(),
        m.duplicates_used
            .iter()
            .map(|d| (d.left, d.right, d.similarity.to_bits()))
            .collect(),
        m.matrix
            .to_nested()
            .iter()
            .flatten()
            .map(|v| v.to_bits())
            .collect(),
    )
}

/// Everything the byte-identity contract covers (stats excluded).
fn assert_prepared_identical(
    a: &PreparedSources,
    b: &PreparedSources,
    context: &str,
) -> Result<(), TestCaseError> {
    let (ma, mb): (Vec<MatchBits>, Vec<MatchBits>) = (
        a.match_results.iter().map(match_bits).collect(),
        b.match_results.iter().map(match_bits).collect(),
    );
    prop_assert!(ma == mb, "match results: {context}");
    prop_assert!(
        a.integrated.rows() == b.integrated.rows(),
        "integrated: {context}"
    );
    prop_assert!(
        a.annotated.schema().names() == b.annotated.schema().names(),
        "schema: {context}"
    );
    prop_assert!(
        a.annotated.rows() == b.annotated.rows(),
        "annotated: {context}"
    );
    prop_assert!(a.detection.pairs == b.detection.pairs, "pairs: {context}");
    prop_assert!(
        a.detection.unsure == b.detection.unsure,
        "unsure: {context}"
    );
    prop_assert!(
        a.detection.cluster_ids == b.detection.cluster_ids,
        "cluster_ids: {context}"
    );
    prop_assert!(
        a.detection.clusters == b.detection.clusters,
        "clusters: {context}"
    );
    prop_assert!(
        a.detection.attributes_used == b.detection.attributes_used,
        "attributes: {context}"
    );
    Ok(())
}

fn world(which: usize, entities: usize, seed: u64) -> GeneratedWorld {
    match which % 4 {
        0 => cd_shopping(entities, seed),
        1 => disaster_registry(entities, seed),
        2 => student_rosters(entities, seed),
        _ => cleansing_service(entities, seed),
    }
}

/// Apply `ops` to source `s` of `tables`; returns the new tables and the
/// union-space mapping.
fn step(tables: &[Table], s: usize, ops: &[OpPlan]) -> (Vec<Table>, RowMapping) {
    let delta = build_delta(&tables[s], ops);
    let mut maps: Vec<RowMapping> = Vec::new();
    let mut next_tables: Vec<Table> = Vec::new();
    for (i, t) in tables.iter().enumerate() {
        if i == s {
            let (nt, m) = delta.apply(t).unwrap();
            next_tables.push(nt);
            maps.push(m);
        } else {
            next_tables.push(t.clone());
            maps.push(RowMapping::identity(t.len()));
        }
    }
    (next_tables, concat_mappings(&maps).unwrap())
}

/// The blocking strategies over a world: all pairs and a sorted
/// neighbourhood keyed on the column the deltas edit (the first text column
/// of the preferred source, first in the union).
fn blocking_configs(tables: &[Table]) -> Vec<(&'static str, HummerConfig)> {
    let key = tables[0].schema().names()[0].to_string();
    let with = |candidates: CandidateSpec| {
        let mut c = config(Parallelism::sequential());
        c.detector.candidates = candidates;
        c
    };
    vec![
        ("all pairs", with(CandidateSpec::AllPairs)),
        (
            "sorted neighbourhood",
            with(CandidateSpec::SortedNeighborhood {
                key: vec![key],
                window: 6,
            }),
        ),
    ]
}

/// The carried index equals one built from scratch over the same union:
/// every row's cells, the scales, the attribute scores and the candidates
/// (in [`candidate_pairs`] order).
fn assert_index_identical(
    carried: &DetectionIndex,
    integrated: &Table,
    config: &HummerConfig,
    context: &str,
) -> Result<(), TestCaseError> {
    let cfg = config.detector_config();
    let scratch = DetectionIndex::build(integrated, &cfg).unwrap();
    let (a, b) = (carried.measure(), scratch.measure());
    prop_assert!(a.attrs() == b.attrs(), "attributes: {context}");
    prop_assert!(a.range_bits() == b.range_bits(), "scales: {context}");
    prop_assert!(a.row_count() == integrated.len(), "rows: {context}");
    for i in 0..integrated.len() {
        prop_assert!(a.row_cells_identical(i, b, i), "row {i} cells: {context}");
    }
    let bits = |d: &DetectionIndex| {
        d.attribute_scores().map(|scores| {
            scores
                .iter()
                .map(|s| {
                    (
                        s.coverage.to_bits(),
                        s.distinctness.to_bits(),
                        s.score.to_bits(),
                    )
                })
                .collect::<Vec<_>>()
        })
    };
    prop_assert!(
        bits(carried) == bits(&scratch),
        "attribute scores: {context}"
    );
    let fresh = resolve_candidate_strategy(integrated, &cfg.candidates).unwrap();
    prop_assert!(
        carried.candidates() == candidate_pairs(integrated, &fresh),
        "candidates: {context}"
    );
    Ok(())
}

/// One chain of deltas through carried delta indexes, one chain per
/// degree 1–4: after every step the upgraded artifacts (match results
/// included) equal `prepare_tables` from scratch and every carried
/// detection index equals a fresh one. Returns how many
/// steps were scored as a full rescore.
fn carried_chain(
    tables: Vec<Table>,
    config: &HummerConfig,
    plan: &[DeltaPlan],
    what: &str,
) -> Result<usize, TestCaseError> {
    let at = |degree: usize| HummerConfig {
        parallelism: Parallelism::degree(degree),
        ..config.clone()
    };
    let refs: Vec<&Table> = tables.iter().collect();
    let first = prepare_tables(&refs, config).unwrap();
    let mut chains: Vec<(PreparedSources, Option<DeltaIndex>)> =
        (1..=4).map(|_| (first.clone(), None)).collect();
    let mut tables = tables;
    let mut full_rescores = 0;
    for (n, (source_pick, ops)) in plan.iter().enumerate() {
        let (next_tables, mapping) = step(&tables, source_pick % tables.len(), ops);
        let next_refs: Vec<&Table> = next_tables.iter().collect();
        let scratch = prepare_tables(&next_refs, config).unwrap();
        for (d, (prepared, index)) in chains.iter_mut().enumerate() {
            let degree = d + 1;
            let context = format!("{what}, step {n}, degree {degree}");
            let (upgraded, report) = prepared
                .apply_delta_traced(&next_refs, &mapping, &at(degree), index, &Span::noop())
                .unwrap();
            assert_prepared_identical(&upgraded, &scratch, &context)?;
            let carried = index.as_ref().expect("a successful delta leaves the index");
            assert_index_identical(carried.detection(), &scratch.integrated, config, &context)?;
            if degree == 1 {
                full_rescores += usize::from(report.detection.full_rescore);
            }
            *prepared = upgraded;
        }
        tables = next_tables;
    }
    Ok(full_rescores)
}

fn arb_op() -> BoxedStrategy<OpPlan> {
    (0u8..6)
        .prop_flat_map(|kind| {
            (0usize..1000)
                .prop_flat_map(move |pick| "[a-z]{2,6}".prop_map(move |text| (kind, pick, text)))
        })
        .boxed()
}

fn arb_deltas() -> BoxedStrategy<Vec<DeltaPlan>> {
    let delta = (0usize..4).prop_flat_map(|source| {
        prop::collection::vec(arb_op(), 1..5).prop_map(move |ops| (source, ops))
    });
    prop::collection::vec(delta, 1..3).boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Incremental == from-scratch, bit-for-bit, for degrees 1–4, across a
    /// random delta sequence over a random scenario world.
    #[test]
    fn delta_sequence_equals_rebuild(
        which in 0usize..4,
        seed in 0u64..1000,
        entities in 16usize..28,
        deltas in arb_deltas(),
    ) {
        let world = match which {
            0 => cd_shopping(entities, seed),
            1 => disaster_registry(entities, seed),
            2 => student_rosters(entities, seed),
            _ => cleansing_service(entities, seed),
        };
        let mut tables: Vec<Table> = world.sources.iter().map(|s| s.table.clone()).collect();
        let refs: Vec<&Table> = tables.iter().collect();
        let registry = FunctionRegistry::standard();
        let mut prepared = prepare_tables(&refs, &config(Parallelism::sequential())).unwrap();

        for (step, (source_pick, ops)) in deltas.iter().enumerate() {
            let s = source_pick % tables.len();
            let delta = build_delta(&tables[s], ops);
            let mut maps: Vec<RowMapping> = Vec::new();
            let mut next_tables: Vec<Table> = Vec::new();
            for (i, t) in tables.iter().enumerate() {
                if i == s {
                    let (nt, m) = delta.apply(t).unwrap();
                    next_tables.push(nt);
                    maps.push(m);
                } else {
                    next_tables.push(t.clone());
                    maps.push(RowMapping::identity(t.len()));
                }
            }
            let mapping = concat_mappings(&maps).unwrap();
            let next_refs: Vec<&Table> = next_tables.iter().collect();

            // From-scratch reference.
            let scratch = prepare_tables(&next_refs, &config(Parallelism::sequential())).unwrap();

            // Incremental at degrees 1–4, all bit-identical to the reference.
            let mut upgraded_at_one: Option<PreparedSources> = None;
            for degree in 1..=4usize {
                let (upgraded, _report) = prepared
                    .apply_delta(&next_refs, &mapping, &config(Parallelism::degree(degree)))
                    .unwrap();
                assert_prepared_identical(
                    &upgraded,
                    &scratch,
                    &format!("step {step}, degree {degree}"),
                )?;
                if degree == 1 {
                    upgraded_at_one = Some(upgraded);
                }
            }
            let upgraded = upgraded_at_one.expect("degree 1 ran");

            // A query after the delta — fusion over the upgraded
            // artifacts — equals fusion over the rebuilt ones.
            let fused = fuse_prepared(&upgraded, &[], &registry).unwrap();
            let scratch_fused = fuse_prepared(&scratch, &[], &registry).unwrap();
            prop_assert!(
                fused.result.rows() == scratch_fused.result.rows(),
                "fused rows diverged at step {step}"
            );
            prop_assert!(
                fused.conflict_count == scratch_fused.conflict_count,
                "conflict count diverged at step {step}"
            );
            prop_assert!(
                fused.sample_conflicts == scratch_fused.sample_conflicts,
                "samples diverged at step {step}"
            );
            for r in 0..fused.result.len() {
                for c in 0..fused.result.schema().len() {
                    prop_assert!(
                        fused.lineage.cell(r, c) == scratch_fused.lineage.cell(r, c),
                        "lineage of cell ({r}, {c}) diverged at step {step}"
                    );
                }
            }

            tables = next_tables;
            prepared = upgraded;
        }
    }

    /// Random chains through carried indexes on worlds of 150+ entities,
    /// under each blocking strategy: artifacts and index equal their
    /// from-scratch builds after every step, at degrees 1–4.
    #[test]
    fn carried_index_chain_equals_rebuild(
        which in 0usize..4,
        seed in 0u64..1000,
        entities in 150usize..200,
        blocking in 0usize..2,
        deltas in arb_deltas(),
    ) {
        let tables: Vec<Table> = world(which, entities, seed)
            .sources
            .iter()
            .map(|s| s.table.clone())
            .collect();
        let (what, config) = blocking_configs(&tables).swap_remove(blocking);
        carried_chain(tables, &config, &deltas, what)?;
    }
}

/// On worlds of 150+ entities the quantized statistics hold across most
/// deltas — inserts, updates and deletes alike — so most steps of a chain
/// are scored incrementally, under every blocking strategy.
#[test]
fn large_worlds_mostly_stay_incremental() {
    let (mut steps, mut full_rescores) = (0, 0);
    for which in 0..4 {
        let tables: Vec<Table> = world(which, 150, 2005 + which as u64)
            .sources
            .iter()
            .map(|s| s.table.clone())
            .collect();
        // Two of each op kind, on alternating sources and rows.
        let plan: Vec<DeltaPlan> = (0..6)
            .map(|i| (i, vec![((i % 3) as u8, 37 * i + 5, format!("edit{i}"))]))
            .collect();
        for (what, config) in blocking_configs(&tables) {
            let what = format!("world {which}, {what}");
            full_rescores += carried_chain(tables.clone(), &config, &plan, &what).unwrap();
            steps += plan.len();
        }
    }
    assert!(
        2 * full_rescores <= steps,
        "{full_rescores} of {steps} steps were full rescores"
    );
}
