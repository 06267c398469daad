//! E4 — duplicate-detection semantics (§2.3): precision/recall/F1 across
//! the similarity threshold θ, the contradiction-vs-missing asymmetry, and
//! transitive closure vs. raw pair set.

use hummer_bench::{f3, render_table};
use hummer_datagen::{cluster_pair_metrics, generate, pair_metrics, DirtyConfig, EntityKind};
use hummer_dupdetect::{cluster, detect_duplicates, DetectorConfig, Parallelism, TupleSimilarity};
use hummer_engine::ops::outer_union;
use hummer_engine::{table, Table};

fn integrated_world(entities: usize, seed: u64) -> (Table, Vec<usize>) {
    let cfg = DirtyConfig {
        typo_rate: 0.1,
        null_rate: 0.08,
        conflict_rate: 0.12,
        dup_within_source: 0.2,
        coverage: 0.8,
        ..DirtyConfig::two_sources(EntityKind::Person, entities, seed)
    };
    let w = generate(&cfg);
    let refs: Vec<&Table> = w.sources.iter().map(|s| &s.table).collect();
    let u = outer_union(&refs, "U").unwrap();
    (u, w.gold_union_entity_ids())
}

fn main() {
    // (a) threshold sweep.
    println!("E4a — duplicate detection P/R/F1 vs. threshold θ (1 000 entities)\n");
    let (u, gold) = integrated_world(1000, 4);
    let mut rows = Vec::new();
    for theta in [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9] {
        let det = detect_duplicates(
            &u,
            &DetectorConfig {
                threshold: theta,
                unsure_threshold: theta - 0.1,
                ..Default::default()
            },
            Parallelism::sequential(),
        )
        .unwrap();
        let pr = cluster_pair_metrics(&det.cluster_ids, &gold);
        rows.push(vec![
            format!("{theta:.2}"),
            det.pairs.len().to_string(),
            det.unsure.len().to_string(),
            det.object_count().to_string(),
            f3(pr.precision),
            f3(pr.recall),
            f3(pr.f1()),
        ]);
    }
    println!(
        "{}",
        render_table(&["θ", "pairs", "unsure", "objects", "P", "R", "F1"], &rows)
    );

    // (b) contradiction vs missing asymmetry on a controlled pair.
    println!("\nE4b — contradictions reduce similarity, missing values do not\n");
    let t = table! {
        "T" => ["Name", "City", "Age"];
        ["John Smith", "Berlin", 34],     // 0 reference
        ["John Smith", "Berlin", 34],     // 1 identical
        ["John Smith", (), 34],           // 2 city missing
        ["John Smith", "Munich", 34],     // 3 city contradicts
        ["John Smith", (), ()],           // 4 city and age missing
        ["John Smith", "Munich", 71],     // 5 city and age contradict
    };
    let m = TupleSimilarity::new(&t, vec![0, 1, 2]);
    let mut rows = Vec::new();
    for (label, j) in [
        ("identical", 1usize),
        ("1 missing", 2),
        ("1 contradiction", 3),
        ("2 missing", 4),
        ("2 contradictions", 5),
    ] {
        rows.push(vec![label.to_string(), f3(m.similarity(&t, 0, j))]);
    }
    println!(
        "{}",
        render_table(&["variant vs. reference", "similarity"], &rows)
    );

    // (c) transitive closure vs. raw pair set.
    println!("\nE4c — transitive closure vs. raw duplicate pairs (θ = 0.75)\n");
    let det = detect_duplicates(&u, &DetectorConfig::default(), Parallelism::sequential()).unwrap();
    let raw: Vec<(usize, usize)> = det.pairs.iter().map(|p| (p.left, p.right)).collect();
    // Gold pairs from entity ids.
    let mut gold_pairs = Vec::new();
    {
        let mut by: std::collections::HashMap<usize, Vec<usize>> = std::collections::HashMap::new();
        for (row, &e) in gold.iter().enumerate() {
            by.entry(e).or_default().push(row);
        }
        for mem in by.values() {
            for i in 0..mem.len() {
                for j in (i + 1)..mem.len() {
                    gold_pairs.push((mem[i], mem[j]));
                }
            }
        }
    }
    let raw_pr = pair_metrics(&raw, &gold_pairs);
    let closed_pr = cluster_pair_metrics(&cluster(u.len(), &det.pairs).0, &gold);
    let rows = vec![
        vec![
            "raw pairs".to_string(),
            f3(raw_pr.precision),
            f3(raw_pr.recall),
            f3(raw_pr.f1()),
        ],
        vec![
            "transitive closure".to_string(),
            f3(closed_pr.precision),
            f3(closed_pr.recall),
            f3(closed_pr.f1()),
        ],
    ];
    println!("{}", render_table(&["pair set", "P", "R", "F1"], &rows));
}
