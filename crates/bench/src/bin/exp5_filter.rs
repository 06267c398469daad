//! E5 — the comparison filter (§2.3: "the number of pairwise comparisons
//! are reduced by applying a filter (upper bound to the similarity
//! measure)") and sorted-neighborhood blocking: work saved vs. recall kept.
//!
//! The filter is lossless, and this checks it: at every size "filter" must
//! find exactly the pairs, unsure pairs (with their similarity bits) and
//! clusters "naive" finds, or the binary exits non-zero.

use hummer_bench::{f3, render_table};
use hummer_datagen::{cluster_pair_metrics, generate, DirtyConfig, EntityKind};
use hummer_dupdetect::{
    detect_duplicates, CandidateSpec, DetectionResult, DetectorConfig, DuplicatePair, Parallelism,
};
use hummer_engine::ops::outer_union;
use hummer_engine::Table;
use std::time::Instant;

/// Pairs as `(left, right, similarity bits)`.
type PairBits = Vec<(usize, usize, u64)>;

/// What detection answers: pairs, unsure pairs and the cluster of every row.
type Answer = (PairBits, PairBits, Vec<usize>);

fn answer(det: &DetectionResult) -> Answer {
    let bits = |pairs: &[DuplicatePair]| {
        pairs
            .iter()
            .map(|p| (p.left, p.right, p.similarity.to_bits()))
            .collect()
    };
    (bits(&det.pairs), bits(&det.unsure), det.cluster_ids.clone())
}

fn main() {
    println!("E5 — candidate pruning: naive vs. filter vs. blocking\n");
    let mut rows = Vec::new();
    for n in [250usize, 500, 1000, 2000, 4000] {
        let cfg = DirtyConfig {
            dup_within_source: 0.2,
            coverage: 0.8,
            ..DirtyConfig::two_sources(EntityKind::Person, n, n as u64)
        };
        let w = generate(&cfg);
        let refs: Vec<&Table> = w.sources.iter().map(|s| &s.table).collect();
        let u = outer_union(&refs, "U").unwrap();
        let gold = w.gold_union_entity_ids();
        let mut naive: Option<Answer> = None;

        for (label, det_cfg) in [
            (
                "naive",
                DetectorConfig {
                    use_filter: false,
                    ..Default::default()
                },
            ),
            (
                "filter",
                DetectorConfig {
                    use_filter: true,
                    ..Default::default()
                },
            ),
            (
                "blocking w=20",
                DetectorConfig {
                    use_filter: true,
                    candidates: CandidateSpec::SortedNeighborhood {
                        key: vec!["Name".into()],
                        window: 20,
                    },
                    ..Default::default()
                },
            ),
        ] {
            let t0 = Instant::now();
            let det = detect_duplicates(&u, &det_cfg, Parallelism::sequential()).unwrap();
            let elapsed = t0.elapsed();
            match label {
                "naive" => naive = Some(answer(&det)),
                "filter" => assert!(
                    naive.as_ref() == Some(&answer(&det)),
                    "{} rows: the filter changed the answer (pairs, unsure or clusters)",
                    u.len()
                ),
                _ => {}
            }
            let pr = cluster_pair_metrics(&det.cluster_ids, &gold);
            rows.push(vec![
                u.len().to_string(),
                label.to_string(),
                det.stats.candidates.to_string(),
                det.stats.compared.to_string(),
                det.stats.filtered_out.to_string(),
                f3(pr.recall),
                f3(pr.precision),
                format!("{:.1}", elapsed.as_secs_f64() * 1e3),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "rows",
                "strategy",
                "candidates",
                "compared",
                "filtered",
                "recall",
                "precision",
                "ms"
            ],
            &rows
        )
    );
}
