//! E7 — scalability of the ad-hoc ("virtual ETL") pipeline: wall time of
//! each stage as the input grows, with and without blocking.

use hummer_bench::{f3, ms, render_table};
use hummer_core::{Hummer, HummerConfig, MatcherConfig, SniffConfig};
use hummer_datagen::cluster_pair_metrics;
use hummer_datagen::scenarios::person_scale;
use hummer_dupdetect::CandidateSpec;

/// Above this entity count only the blocking strategy runs: all-pairs at
/// 7200 entities is a ~50M-comparison quadratic sweep that adds nothing
/// the 5000-entity point has not already shown.
const ALL_PAIRS_CUTOFF: usize = 5000;

fn main() {
    println!("E7 — pipeline scalability (two heterogeneous person sources)\n");
    let mut rows = Vec::new();
    // 7200 entities ≈ a 10k-row union — the hot paths' scale target.
    for n in [100usize, 500, 1000, 2000, 5000, 7200] {
        let w = person_scale(n, n as u64);

        for (label, blocking) in [("all-pairs", false), ("blocking", true)] {
            if !blocking && n > ALL_PAIRS_CUTOFF {
                continue;
            }
            let mut config = HummerConfig {
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
            if blocking {
                config.detector.candidates = CandidateSpec::SortedNeighborhood {
                    key: vec!["Name".into()],
                    window: 15,
                };
            }
            let mut h = Hummer::with_config(config);
            for s in &w.sources {
                h.repository_mut()
                    .register_table(s.table.name().to_string(), s.table.clone())
                    .unwrap();
            }
            let out = h.fuse_sources(&["A", "B"], &[]).unwrap();
            let pr = cluster_pair_metrics(&out.detection.cluster_ids, &w.gold_union_entity_ids());
            rows.push(vec![
                out.integrated.len().to_string(),
                label.to_string(),
                ms(out.timings.matching),
                ms(out.timings.transformation),
                ms(out.timings.detection),
                ms(out.timings.fusion),
                ms(out.timings.total()),
                f3(pr.f1()),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "rows",
                "strategy",
                "match_ms",
                "xform_ms",
                "detect_ms",
                "fuse_ms",
                "total_ms",
                "dupF1"
            ],
            &rows
        )
    );
}
