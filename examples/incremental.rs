//! Incremental updates: prepare → query → delta → re-query, with timing.
//!
//! HumMer's sources are autonomous and evolving; this example shows the
//! delta subsystem keeping the prepared artifacts (matching, integration,
//! duplicate detection) current under row-level changes at a cost
//! proportional to the *change*. A query after the delta fuses the upgraded
//! artifacts, as `hummer-serve` does, and the example verifies (as the
//! whole subsystem guarantees) that its answer is byte-identical to a
//! from-scratch rebuild's.
//!
//! Run with: `cargo run --release --example incremental`

use hummer::core::{
    fuse_prepared, prepare_tables, HummerConfig, MatcherConfig, PipelineOutcome, SniffConfig,
};
use hummer::datagen::scenarios::cd_shopping;
use hummer::delta::{concat_mappings, RowMapping, TableDelta};
use hummer::engine::{Table, Value};
use hummer::fusion::{FunctionRegistry, ResolutionSpec};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three CD-shop catalogs with heterogeneous labels and conflicting
    // prices — a realistic evolving-sources world.
    let world = cd_shopping(400, 7);
    let mut tables: Vec<Table> = world.sources.iter().map(|s| s.table.clone()).collect();
    let config = HummerConfig {
        matcher: MatcherConfig {
            sniff: SniffConfig {
                top_k: 10,
                min_similarity: 0.3,
                ..Default::default()
            },
            ..Default::default()
        },
        ..Default::default()
    };
    let registry = FunctionRegistry::standard();

    // 1. Prepare: match → transform → detect (the expensive, cacheable part).
    let t0 = Instant::now();
    let refs: Vec<&Table> = tables.iter().collect();
    let mut prepared = prepare_tables(&refs, &config)?;
    println!(
        "prepare        {:6.1} ms   ({} union rows, {} objects)",
        t0.elapsed().as_secs_f64() * 1e3,
        prepared.integrated.len(),
        prepared.detection.object_count()
    );

    // 2. Query: fuse the prepared artifacts, resolving price conflicts by
    //    `min`.
    let resolutions = vec![("Price".to_string(), ResolutionSpec::named("min"))];
    let t0 = Instant::now();
    let fused = fuse_prepared(&prepared, &resolutions, &registry)?;
    println!(
        "fuse           {:6.1} ms   ({} fused rows)",
        t0.elapsed().as_secs_f64() * 1e3,
        fused.result.len()
    );

    // 3. Deltas: the first catalog corrects three artist names, twice.
    //    (Text updates touch only the changed rows' evidence, so the delta
    //    path stays delta-sized; numeric updates additionally re-weight
    //    rows sharing the changed values' evidence buckets, and
    //    inserts/deletes amortize across corpus-statistics window
    //    crossings — see ARCHITECTURE.md, "The delta subsystem".)
    //
    // 4. Apply incrementally: only changed rows re-tokenize, only dirty
    //    rows re-score, only affected clusters re-cluster. The first delta
    //    of a prepared set builds the delta index (so it tokenizes every
    //    row once); later ones carry it, as the server's cache does.
    let mut index = None;
    let mut delta_ms = 0.0;
    for rows in [0..3, 3..6] {
        let catalog = &tables[0];
        let artist_col = catalog.resolve("Artist")?;
        let mut delta = TableDelta::new(catalog.name());
        for row in rows {
            let mut values = catalog.rows()[row].values().to_vec();
            values[artist_col] = Value::text(format!("{} (corrected)", values[artist_col]));
            delta = delta.update(row, values);
        }
        println!(
            "delta          {} update(s) against `{}`",
            delta.counts().updated,
            delta.table
        );

        let (updated_catalog, source_map) = delta.apply(&tables[0])?;
        tables[0] = updated_catalog;
        let mut maps = vec![source_map];
        for t in &tables[1..] {
            maps.push(RowMapping::identity(t.len()));
        }
        let mapping = concat_mappings(&maps)?;

        let refs: Vec<&Table> = tables.iter().collect();
        let t0 = Instant::now();
        let root = config.obs.tracer.trace("delta");
        let (upgraded, report) =
            prepared.apply_delta_traced(&refs, &mapping, &config, &mut index, &root)?;
        delta_ms = t0.elapsed().as_secs_f64() * 1e3;
        println!(
            "delta-apply    {:6.1} ms   ({} rows re-tokenized, {} field matrices reused; \
             {} dirty rows, {} pairs re-scored, {} carried)",
            delta_ms,
            report.matching.rows_retokenized,
            report.matching.pair_matrices_reused,
            report.detection.dirty_rows,
            report.detection.scored_pairs,
            report.detection.carried_pairs
        );
        prepared = upgraded;
    }

    // 5. Re-query, and verify against a from-scratch rebuild.
    let t0 = Instant::now();
    let fused = fuse_prepared(&prepared, &resolutions, &registry)?;
    println!(
        "fuse           {:6.1} ms   ({} fused rows)",
        t0.elapsed().as_secs_f64() * 1e3,
        fused.result.len()
    );
    let refs: Vec<&Table> = tables.iter().collect();
    let t0 = Instant::now();
    let scratch = prepare_tables(&refs, &config)?;
    let scratch_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "from-scratch   {:6.1} ms   (the cost the last delta avoided: {:.1}x)",
        scratch_ms,
        scratch_ms / delta_ms.max(1e-9)
    );
    let rebuilt = fuse_prepared(&scratch, &resolutions, &registry)?;
    assert_same(&fused, &rebuilt);
    println!(
        "verified       incremental == from-scratch, bit for bit ({} fused rows)",
        fused.result.len()
    );
    Ok(())
}

/// Rows, conflict count, conflict samples and every cell's lineage agree.
fn assert_same(fused: &PipelineOutcome, rebuilt: &PipelineOutcome) {
    let what = "the answer after a delta must be byte-identical to a rebuild's";
    assert_eq!(fused.result.rows(), rebuilt.result.rows(), "{what}");
    assert_eq!(fused.conflict_count, rebuilt.conflict_count, "{what}");
    assert_eq!(fused.sample_conflicts, rebuilt.sample_conflicts, "{what}");
    for r in 0..fused.result.len() {
        for c in 0..fused.result.schema().len() {
            assert_eq!(
                fused.lineage.cell(r, c),
                rebuilt.lineage.cell(r, c),
                "{what}"
            );
        }
    }
}
