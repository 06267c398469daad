//! E8 — `FUSE FROM` semantics (§2.1/§2.2): outer union vs. join vs. cross
//! product cardinalities and schema widths, and preferred-schema renaming
//! across 2–5 sources.

use hummer_bench::{f3, render_table};
use hummer_datagen::{correspondence_metrics, generate, DirtyConfig, EntityKind, SourceSpec};
use hummer_engine::ops::{cross_product, hash_join, outer_union, JoinKind};
use hummer_engine::Table;
use hummer_matching::{integrate, match_star, MatcherConfig, Parallelism, SniffConfig};

fn main() {
    // (a) combination-operator comparison on two 200-row sources.
    let w = generate(&DirtyConfig {
        coverage: 0.7,
        ..DirtyConfig::two_sources(EntityKind::Cd, 200, 8)
    });
    let a = &w.sources[0].table;
    let b = &w.sources[1].table;

    println!(
        "E8a — combining two sources ({} and {} rows)\n",
        a.len(),
        b.len()
    );
    let union = outer_union(&[a, b], "U").unwrap();
    let join = hash_join(a, b, "Title", "Title", JoinKind::Inner).unwrap();
    let cross = cross_product(a, b).unwrap();
    let rows = vec![
        vec![
            "full outer union (FUSE FROM)".to_string(),
            union.len().to_string(),
            union.schema().len().to_string(),
        ],
        vec![
            "inner equi-join on Title".to_string(),
            join.len().to_string(),
            join.schema().len().to_string(),
        ],
        vec![
            "cross product (plain FROM)".to_string(),
            cross.len().to_string(),
            cross.schema().len().to_string(),
        ],
    ];
    println!("{}", render_table(&["operator", "rows", "columns"], &rows));

    // (b) preferred-schema renaming across k = 2..5 sources.
    println!("\nE8b — star alignment to the preferred schema, k sources\n");
    let mut rows = Vec::new();
    for k in 2usize..=5 {
        let mut sources = vec![SourceSpec::plain("S0")];
        for i in 1..k {
            sources.push(
                SourceSpec::plain(format!("S{i}"))
                    .rename("Name", format!("Person{i}"))
                    .rename("City", format!("Town{i}"))
                    .shuffled(),
            );
        }
        let w = generate(&DirtyConfig {
            kind: EntityKind::Person,
            entities: 300,
            sources,
            coverage: 0.6,
            typo_rate: 0.08,
            null_rate: 0.05,
            conflict_rate: 0.1,
            dup_within_source: 0.0,
            seed: k as u64,
        });
        let refs: Vec<&Table> = w.sources.iter().map(|s| &s.table).collect();
        let cfg = MatcherConfig {
            sniff: SniffConfig {
                top_k: 10,
                min_similarity: 0.3,
                ..Default::default()
            },
            ..Default::default()
        };
        let matches = match_star(&refs, &cfg, Parallelism::sequential());
        let integrated = integrate(&refs, &matches, "I").unwrap();
        // Rename quality averaged over non-preferred sources.
        let mut f1_sum = 0.0;
        for (i, m) in matches.iter().enumerate() {
            let predicted: Vec<(String, String)> = m
                .correspondences
                .iter()
                .filter(|c| !c.right_column.eq_ignore_ascii_case(&c.left_column))
                .map(|c| (c.right_column.clone(), c.left_column.clone()))
                .collect();
            let gold: Vec<(String, String)> = w.gold_renames[i + 1]
                .iter()
                .filter(|(l, c)| !l.eq_ignore_ascii_case(c))
                .map(|(l, c)| (l.clone(), c.clone()))
                .collect();
            f1_sum += correspondence_metrics(&predicted, &gold).f1();
        }
        let total_rows: usize = refs.iter().map(|t| t.len()).sum();
        rows.push(vec![
            k.to_string(),
            total_rows.to_string(),
            integrated.len().to_string(),
            integrated.schema().len().to_string(),
            f3(f1_sum / matches.len() as f64),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["sources", "Σ rows", "union rows", "union cols", "rename F1"],
            &rows
        )
    );
}
