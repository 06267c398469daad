//! E3 — the DUMAS claims (§2.2): (a) "experimental evaluation shows that
//! the most similar tuples are in fact duplicates" → precision@k of the
//! TF-IDF ranking; (b) matching quality grows with the number k of
//! duplicates used and with cleaner data; (c) ablation: SoftTFIDF vs. plain
//! TF-IDF field comparison (soft_theta = 1.0 admits only exact tokens).

use hummer_bench::{f3, render_table};
use hummer_datagen::{
    correspondence_metrics, generate, precision_at_k, DirtyConfig, EntityKind, SourceSpec,
};
use hummer_matching::{match_tables, sniff_duplicates, MatcherConfig, Parallelism, SniffConfig};

/// A deliberately hard matching task: CD catalogs, where `Year` and
/// `Price` are numerically confusable, `Genre` has low cardinality, and
/// `Artist`/`Title` share vocabulary; no uniquely identifying key column.
fn world(entities: usize, typo_rate: f64, seed: u64) -> hummer_datagen::GeneratedWorld {
    generate(&DirtyConfig {
        kind: EntityKind::Cd,
        entities,
        sources: vec![
            SourceSpec::plain("A"),
            SourceSpec::plain("B")
                .rename("Artist", "Interpret")
                .rename("Title", "AlbumTitle")
                .rename("Year", "Released")
                .rename("Price", "Cost")
                .rename("Genre", "Style")
                .shuffled(),
        ],
        coverage: 0.7,
        typo_rate,
        null_rate: 0.1,
        conflict_rate: 0.25,
        dup_within_source: 0.0,
        seed,
    })
}

fn main() {
    // (a) precision@k of the most-similar-tuple ranking.
    println!("E3a — precision@k of TF-IDF tuple ranking (500 entities, typo 10%)\n");
    let w = world(500, 0.1, 42);
    let pairs = sniff_duplicates(
        &w.sources[0].table,
        &w.sources[1].table,
        &SniffConfig {
            top_k: 100,
            min_similarity: 0.0,
            one_to_one: true,
        },
        Parallelism::sequential(),
    );
    let ranked: Vec<(usize, usize)> = pairs.iter().map(|p| (p.left, p.right)).collect();
    // Gold pairs in (left-row, right-row) space.
    let gold: Vec<(usize, usize)> = {
        let mut g = Vec::new();
        for (i, &ei) in w.sources[0].entity_ids.iter().enumerate() {
            for (j, &ej) in w.sources[1].entity_ids.iter().enumerate() {
                if ei == ej {
                    g.push((i, j));
                }
            }
        }
        g
    };
    let mut rows = Vec::new();
    for k in [1usize, 2, 5, 10, 20, 50, 100] {
        rows.push(vec![k.to_string(), f3(precision_at_k(&ranked, &gold, k))]);
    }
    println!("{}", render_table(&["k", "precision@k"], &rows));

    // (b) matching F1 vs. number of duplicates used (k sweep) × typo rate.
    println!("\nE3b — schema-matching F1 vs. duplicates used (k) and typo rate (500 entities)\n");
    let mut rows = Vec::new();
    for typo in [0.0, 0.1, 0.2] {
        let w = world(500, typo, 7);
        let gold: Vec<(String, String)> = w.gold_renames[1]
            .iter()
            .filter(|(l, c)| !l.eq_ignore_ascii_case(c))
            .map(|(l, c)| (l.clone(), c.clone()))
            .collect();
        let mut row = vec![format!("{:.0}%", typo * 100.0)];
        for k in [1usize, 2, 3, 5, 10] {
            let cfg = MatcherConfig {
                sniff: SniffConfig {
                    top_k: k,
                    min_similarity: 0.3,
                    one_to_one: true,
                },
                ..Default::default()
            };
            let m = match_tables(&w.sources[0].table, &w.sources[1].table, &cfg);
            let predicted: Vec<(String, String)> = m
                .correspondences
                .iter()
                .map(|c| (c.right_column.clone(), c.left_column.clone()))
                .collect();
            row.push(f3(correspondence_metrics(&predicted, &gold).f1()));
        }
        rows.push(row);
    }
    println!(
        "{}",
        render_table(&["typo", "k=1", "k=2", "k=3", "k=5", "k=10"], &rows)
    );

    // (c) ablation: SoftTFIDF (θ=0.9) vs. hard TF-IDF (θ=1.0) field
    // comparison under typos.
    println!("\nE3c — ablation: SoftTFIDF vs. exact-token matching (k=10)\n");
    let mut rows = Vec::new();
    for typo in [0.0, 0.1, 0.2, 0.3] {
        let w = world(500, typo, 11);
        let gold: Vec<(String, String)> = w.gold_renames[1]
            .iter()
            .filter(|(l, c)| !l.eq_ignore_ascii_case(c))
            .map(|(l, c)| (l.clone(), c.clone()))
            .collect();
        let mut row = vec![format!("{:.0}%", typo * 100.0)];
        for theta in [0.9, 1.0] {
            let cfg = MatcherConfig {
                sniff: SniffConfig {
                    top_k: 10,
                    min_similarity: 0.3,
                    one_to_one: true,
                },
                soft_theta: theta,
            };
            let m = match_tables(&w.sources[0].table, &w.sources[1].table, &cfg);
            let predicted: Vec<(String, String)> = m
                .correspondences
                .iter()
                .map(|c| (c.right_column.clone(), c.left_column.clone()))
                .collect();
            row.push(f3(correspondence_metrics(&predicted, &gold).f1()));
        }
        rows.push(row);
    }
    println!(
        "{}",
        render_table(&["typo", "soft θ=0.9", "hard θ=1.0"], &rows)
    );
}
