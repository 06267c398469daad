//! The paper's demo scenarios (§1), as ready-made generated worlds:
//!
//! * **CD shopping** — "a customer shopping for CDs might want to supply
//!   only the different sites to search on": three shop catalogs with
//!   different field labels (web sites "use different labels for data
//!   fields"), overlapping stock, and diverging prices.
//! * **Disaster registry** — the tsunami scenario: "data about damages,
//!   missing persons, hospital treatments etc. is often collected multiple
//!   times (causing duplicates) at different levels of detail (causing
//!   schematic heterogeneity) and with different levels of accuracy
//!   (causing data conflicts)".
//! * **Student rosters** — the running EE/CS example of §2.1.
//! * **Cleansing service** — "users of such a service simply submit sets of
//!   heterogeneous and dirty data and receive a consistent and clean data
//!   set in response": a single table with internal duplicates.

use crate::entities::EntityKind;
use crate::generator::{generate, DirtyConfig, GeneratedWorld, SourceSpec};

/// Three CD-store catalogs with heterogeneous labels and conflicting
/// prices/years. `entities` ≈ catalog size; the stores cover ~70 % of the
/// stock each, so most CDs appear in at least two shops.
pub fn cd_shopping(entities: usize, seed: u64) -> GeneratedWorld {
    generate(&DirtyConfig {
        kind: EntityKind::Cd,
        entities,
        sources: vec![
            SourceSpec::plain("CDPalace"),
            SourceSpec::plain("DiscountDiscs")
                .rename("Artist", "Interpret")
                .rename("Title", "AlbumTitle")
                .rename("Price", "Cost")
                .shuffled(),
            SourceSpec::plain("MusicMile")
                .rename("Title", "Album")
                .rename("Year", "Released")
                .drop("Genre")
                .shuffled(),
        ],
        coverage: 0.7,
        typo_rate: 0.08,
        null_rate: 0.04,
        // Prices differ between shops almost always; handled by generic
        // conflict rate — high to reflect the scenario.
        conflict_rate: 0.25,
        dup_within_source: 0.0,
        seed,
    })
}

/// Three disaster-relief registries at different levels of detail.
pub fn disaster_registry(entities: usize, seed: u64) -> GeneratedWorld {
    generate(&DirtyConfig {
        kind: EntityKind::DisasterRecord,
        entities,
        sources: vec![
            // Field team: full detail.
            SourceSpec::plain("FieldTeam"),
            // Hospital list: different labels, no village.
            SourceSpec::plain("HospitalList")
                .rename("Name", "Patient")
                .rename("Status", "Condition")
                .rename("LastSeen", "Admitted")
                .drop("Village")
                .shuffled(),
            // Relatives' reports: coarse, error-prone.
            SourceSpec::plain("MissingReports")
                .rename("Name", "Person")
                .rename("Village", "LastLocation")
                .drop("Hospital")
                .drop("Status"),
        ],
        coverage: 0.6,
        typo_rate: 0.15, // names written down in a hurry
        null_rate: 0.1,
        conflict_rate: 0.12,
        dup_within_source: 0.1, // the same person reported twice
        seed,
    })
}

/// The paper's EE/CS student rosters (§2.1): two departments, overlapping
/// students, ages that disagree ("assuming students only get older").
pub fn student_rosters(entities: usize, seed: u64) -> GeneratedWorld {
    generate(&DirtyConfig {
        kind: EntityKind::Person,
        entities,
        sources: vec![
            SourceSpec::plain("EE_Student").drop("Phone"),
            SourceSpec::plain("CS_Students")
                .rename("Name", "FullName")
                .rename("Age", "Years")
                .drop("Phone")
                .shuffled(),
        ],
        coverage: 0.6,
        typo_rate: 0.05,
        null_rate: 0.03,
        conflict_rate: 0.15, // ages recorded in different semesters
        dup_within_source: 0.0,
        seed,
    })
}

/// The two-source person world of the scalability experiments (exp7,
/// hbench), as a named preset: source B relabels `Name`/`City` and
/// shuffles its columns, so the pipeline has real schema matching to do
/// at scale. With `coverage: 0.7` the union holds ≈ `1.4 × entities` rows,
/// so `entities = 7200` produces a ≈ 10 000-row union — an order of
/// magnitude past the paper-scale scenario worlds, which is what the hot
/// paths are sized for.
pub fn person_scale(entities: usize, seed: u64) -> GeneratedWorld {
    generate(&DirtyConfig {
        kind: EntityKind::Person,
        entities,
        sources: vec![
            SourceSpec::plain("A"),
            SourceSpec::plain("B")
                .rename("Name", "FullName")
                .rename("City", "Town")
                .shuffled(),
        ],
        coverage: 0.7,
        typo_rate: 0.08,
        null_rate: 0.05,
        conflict_rate: 0.1,
        dup_within_source: 0.0,
        seed,
    })
}

/// A single dirty customer table for the online-cleansing-service scenario:
/// one source, heavy internal duplication and noise.
pub fn cleansing_service(entities: usize, seed: u64) -> GeneratedWorld {
    generate(&DirtyConfig {
        kind: EntityKind::Person,
        entities,
        sources: vec![SourceSpec::plain("CustomerDump")],
        coverage: 1.0,
        typo_rate: 0.12,
        null_rate: 0.08,
        conflict_rate: 0.1,
        dup_within_source: 0.5,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cd_shopping_shape() {
        let w = cd_shopping(60, 1);
        assert_eq!(w.sources.len(), 3);
        assert!(w.sources[1].table.schema().contains("Interpret"));
        assert!(w.sources[2].table.schema().contains("Released"));
        assert!(!w.sources[2].table.schema().contains("Genre"));
        assert!(!w.gold_union_pairs().is_empty());
    }

    #[test]
    fn disaster_registry_shape() {
        let w = disaster_registry(80, 2);
        assert_eq!(w.sources.len(), 3);
        assert!(w.sources[1].table.schema().contains("Patient"));
        assert!(!w.sources[1].table.schema().contains("Village"));
        assert!(w.sources[2].table.schema().contains("LastLocation"));
    }

    #[test]
    fn student_rosters_shape() {
        let w = student_rosters(40, 3);
        assert_eq!(w.sources.len(), 2);
        assert_eq!(w.sources[0].table.name(), "EE_Student");
        assert!(w.sources[1].table.schema().contains("FullName"));
        assert!(w.sources[1].table.schema().contains("Years"));
    }

    #[test]
    fn cleansing_service_has_internal_dups() {
        let w = cleansing_service(50, 4);
        assert_eq!(w.sources.len(), 1);
        assert!(w.sources[0].table.len() > 55, "expect ~50% extra dups");
    }

    #[test]
    fn person_scale_shape() {
        let w = person_scale(100, 7);
        assert_eq!(w.sources.len(), 2);
        assert_eq!(w.sources[0].table.name(), "A");
        assert!(w.sources[1].table.schema().contains("FullName"));
        assert!(w.sources[1].table.schema().contains("Town"));
        // coverage 0.7 per source → union ≈ 1.4 × entities.
        let union: usize = w.sources.iter().map(|s| s.table.len()).sum();
        assert!((120..=160).contains(&union), "union was {union}");
    }

    #[test]
    fn scenarios_deterministic() {
        let a = cd_shopping(30, 9);
        let b = cd_shopping(30, 9);
        for (x, y) in a.sources.iter().zip(&b.sources) {
            assert_eq!(x.table.rows(), y.table.rows());
        }
    }
}
