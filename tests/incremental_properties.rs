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

/// Apply `delta` to source `s` of `tables`; returns the new tables and
/// the union-space mapping.
fn step(tables: &[Table], s: usize, delta: &TableDelta) -> (Vec<Table>, RowMapping) {
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

/// The carried index equals one built from scratch over the same union
/// (`DetectionIndex::difference_from_scratch`: the measure's cells and
/// scales, every kept interning pass — live distinct renderings, non-null
/// rows, each row's rendering — the attribute scores and the candidates),
/// and its candidates are those of the public blocking entry points.
fn assert_index_identical(
    carried: &DetectionIndex,
    integrated: &Table,
    config: &HummerConfig,
    context: &str,
) -> Result<(), TestCaseError> {
    let difference = carried.difference_from_scratch(integrated);
    prop_assert!(difference.is_none(), "{difference:?}: {context}");
    let fresh = resolve_candidate_strategy(integrated, &config.detector_config().candidates);
    prop_assert!(
        carried.candidates() == candidate_pairs(integrated, &fresh.unwrap()),
        "candidates: {context}"
    );
    Ok(())
}

/// One edit of a chain: the source it edits, and the delta it makes of
/// that source as the chain has left it.
type Edit<'a> = (usize, Box<dyn Fn(&Table) -> TableDelta + 'a>);

/// [`carried_edits`] over a generated plan.
fn carried_chain(
    tables: Vec<Table>,
    config: &HummerConfig,
    plan: &[DeltaPlan],
    what: &str,
) -> Result<usize, TestCaseError> {
    let edits = plan
        .iter()
        .map(|(source_pick, ops)| -> Edit<'_> {
            let edit = move |t: &Table| build_delta(t, ops);
            (*source_pick, Box::new(edit))
        })
        .collect();
    carried_edits(tables, config, edits, what)
}

/// One chain of deltas through carried delta indexes, one chain per
/// degree 1–4: after every step the upgraded artifacts (match results
/// included) equal `prepare_tables` from scratch and every carried
/// detection index equals a fresh one. Returns how many
/// steps were scored as a full rescore.
fn carried_edits(
    tables: Vec<Table>,
    config: &HummerConfig,
    edits: Vec<Edit<'_>>,
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
    for (n, (source_pick, edit)) in edits.iter().enumerate() {
        let s = source_pick % tables.len();
        let (next_tables, mapping) = step(&tables, s, &edit(&tables[s]));
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

/// Sorted neighbourhood on a column of few values (a disaster registry's
/// `Status`), where long runs of rows share a key and sort by row index
/// within the run: an update moves a key into the middle of a run, one
/// moves a key from inside a run to another run, and one only changes
/// the case of a key, which leaves the key — and the order — as it was.
/// After each, artifacts and the carried index equal fresh builds.
#[test]
fn sorted_neighbourhood_keys_move_inside_runs_of_equal_keys() {
    let tables: Vec<Table> = disaster_registry(150, 2006)
        .sources
        .iter()
        .map(|s| s.table.clone())
        .collect();
    let mut config = config(Parallelism::sequential());
    config.detector.candidates = CandidateSpec::SortedNeighborhood {
        key: vec!["Status".into()],
        window: 5,
    };
    // The statuses of `t` by how many rows hold them, most first, and the
    // rows holding each.
    let runs = |t: &Table| -> Vec<(String, Vec<usize>)> {
        let status = t.resolve("Status").unwrap();
        let mut runs: Vec<(String, Vec<usize>)> = Vec::new();
        for (row, v) in t.column_values(status).enumerate() {
            let Value::Text(s) = v else { continue };
            match runs.iter_mut().find(|(k, _)| k == s) {
                Some((_, rows)) => rows.push(row),
                None => runs.push((s.clone(), vec![row])),
            }
        }
        runs.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
        runs
    };
    let set_status = |t: &Table, row: usize, status: String| {
        let mut values = t.rows()[row].values().to_vec();
        values[t.resolve("Status").unwrap()] = Value::text(status);
        TableDelta::new(t.name()).update(row, values)
    };
    let edits: Vec<Edit<'_>> = vec![
        // A row of a small run takes the largest run's key.
        (
            0,
            Box::new(|t: &Table| {
                let runs = runs(t);
                let (largest, small) = (&runs[0], runs.last().unwrap());
                assert!(largest.1.len() > 4 * small.1.len());
                set_status(t, small.1[0], largest.0.clone())
            }),
        ),
        // The middle row of the largest run moves to the second run.
        (
            0,
            Box::new(|t: &Table| {
                let runs = runs(t);
                let rows = &runs[0].1;
                set_status(t, rows[rows.len() / 2], runs[1].0.clone())
            }),
        ),
        // A row of the largest run upper-cases its key: the same key.
        (
            0,
            Box::new(|t: &Table| {
                let runs = runs(t);
                let (key, rows) = &runs[0];
                assert_ne!(key.to_uppercase(), *key);
                set_status(t, rows[1], key.to_uppercase())
            }),
        ),
    ];
    carried_edits(tables, &config, edits, "status runs").unwrap();
}
