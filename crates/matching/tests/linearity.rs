//! Sniffing work grows with the rows, not with the row pairs — asserted on
//! counts the sniffer reports, so the test cannot flake on a busy host.

use hummer_datagen::scenarios::person_scale;
use hummer_engine::Table;
use hummer_matching::{match_tables, MatcherConfig, SniffConfig, SniffStats};

/// Sniffing work on the two-source person world with each source cut to
/// exactly `rows` rows (a source covers a random 70 % of the entities, so
/// 1.6 entities per row leave room to cut).
fn sniff_work(rows: usize) -> SniffStats {
    let world = person_scale(rows * 8 / 5 + 40, 11);
    let cut = |t: &Table| {
        assert!(t.len() >= rows);
        Table::new(t.name(), t.schema().clone(), t.rows()[..rows].to_vec())
            .expect("a prefix of a table's rows fits its schema")
    };
    let config = MatcherConfig {
        sniff: SniffConfig {
            min_similarity: 0.3,
            ..Default::default()
        },
        ..Default::default()
    };
    let result = match_tables(
        &cut(&world.sources[0].table),
        &cut(&world.sources[1].table),
        &config,
    );
    assert_eq!(result.duplicates_used.len(), config.sniff.top_k);
    result.sniff
}

#[test]
fn doubling_the_rows_about_doubles_the_postings_visited() {
    let (small, large) = (sniff_work(1000), sniff_work(2000));
    assert!(small.postings_visited > 0);
    // The full join visits 4x the postings on 2x the rows.
    assert!(
        2 * large.postings_visited <= 5 * small.postings_visited,
        "2 x 1000 rows: {small:?}, 2 x 2000 rows: {large:?}"
    );
    assert!(large.candidates_scored <= large.postings_visited);
}
