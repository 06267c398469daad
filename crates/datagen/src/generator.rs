//! The dirty-source generator: derive heterogeneous, duplicate-ridden,
//! conflicting sources from a clean entity table, keeping the gold standard.
//!
//! This reproduces the *properties* the HumMer demo data exercised
//! (paper §1): identical real-world objects represented in several sources
//! (duplicates), under different schemata (heterogeneity), with missing
//! values and contradictions (conflicts) — but, unlike the demo's
//! hand-collected data, with machine-checkable ground truth.

use crate::entities::EntityKind;
use crate::noise::dirty_value;
use hummer_engine::ops::{outer_union, rename_column};
use hummer_engine::{Column, ColumnType, Row, Table, Value, OBJECT_ID_COLUMN, SOURCE_ID_COLUMN};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Schema variation of one generated source.
#[derive(Debug, Clone)]
pub struct SourceSpec {
    /// Source alias (table name).
    pub name: String,
    /// Renames applied to canonical columns: `(canonical, source_label)`.
    pub renames: Vec<(String, String)>,
    /// Canonical columns this source does not carry at all.
    pub dropped: Vec<String>,
    /// Shuffle the column order (schematic heterogeneity beyond labels).
    pub shuffle_columns: bool,
}

impl SourceSpec {
    /// A source that keeps the canonical schema.
    pub fn plain(name: impl Into<String>) -> Self {
        SourceSpec {
            name: name.into(),
            renames: Vec::new(),
            dropped: Vec::new(),
            shuffle_columns: false,
        }
    }

    /// Add a rename.
    pub fn rename(mut self, canonical: impl Into<String>, label: impl Into<String>) -> Self {
        self.renames.push((canonical.into(), label.into()));
        self
    }

    /// Drop a canonical column.
    pub fn drop(mut self, canonical: impl Into<String>) -> Self {
        self.dropped.push(canonical.into());
        self
    }

    /// Shuffle column order.
    pub fn shuffled(mut self) -> Self {
        self.shuffle_columns = true;
        self
    }
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct DirtyConfig {
    /// What kind of entities populate the world.
    pub kind: EntityKind,
    /// Number of distinct real-world entities.
    pub entities: usize,
    /// The sources to derive.
    pub sources: Vec<SourceSpec>,
    /// Fraction of entities each source covers (1.0 = every entity in every
    /// source; 0.5 = each source samples half the world).
    pub coverage: f64,
    /// Probability a text field in a source row gets a typo.
    pub typo_rate: f64,
    /// Probability a field is nulled out.
    pub null_rate: f64,
    /// Probability a field is perturbed into a contradicting value.
    pub conflict_rate: f64,
    /// Expected extra duplicates *within* a source per entity (0.0 = none;
    /// 0.3 = ~30 % of rows have an extra in-source duplicate).
    pub dup_within_source: f64,
    /// RNG seed — everything is deterministic in this.
    pub seed: u64,
}

impl DirtyConfig {
    /// A sensible two-source default for `kind` with mild dirt.
    pub fn two_sources(kind: EntityKind, entities: usize, seed: u64) -> Self {
        DirtyConfig {
            kind,
            entities,
            sources: vec![SourceSpec::plain("SourceA"), SourceSpec::plain("SourceB")],
            coverage: 0.7,
            typo_rate: 0.1,
            null_rate: 0.05,
            conflict_rate: 0.1,
            dup_within_source: 0.0,
            seed,
        }
    }
}

/// One generated source table plus its row-level gold labels.
#[derive(Debug, Clone)]
pub struct GeneratedSource {
    /// The dirty table (schema per its [`SourceSpec`]).
    pub table: Table,
    /// Gold entity id of each row.
    pub entity_ids: Vec<usize>,
}

/// A generated world: the clean truth, the dirty sources, and the gold
/// schema mapping.
#[derive(Debug, Clone)]
pub struct GeneratedWorld {
    /// The clean entity table (canonical schema; row index = entity id).
    pub clean: Table,
    /// The derived sources.
    pub sources: Vec<GeneratedSource>,
    /// Gold attribute correspondences per source:
    /// `gold_renames[i]` maps this source's label → canonical name.
    pub gold_renames: Vec<HashMap<String, String>>,
}

impl GeneratedWorld {
    /// Gold duplicate pairs *within the outer union* of all sources, as
    /// index pairs into the concatenated row space (source 0 rows first).
    /// Two rows are gold-duplicates iff they share an entity id.
    pub fn gold_union_pairs(&self) -> Vec<(usize, usize)> {
        let ids = self.gold_union_entity_ids();
        let mut by_entity: HashMap<usize, Vec<usize>> = HashMap::new();
        for (row, &e) in ids.iter().enumerate() {
            by_entity.entry(e).or_default().push(row);
        }
        let mut pairs = Vec::new();
        for members in by_entity.values() {
            for i in 0..members.len() {
                for j in (i + 1)..members.len() {
                    pairs.push((members[i], members[j]));
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }

    /// Gold entity id per row of the outer union (sources concatenated in
    /// order).
    pub fn gold_union_entity_ids(&self) -> Vec<usize> {
        self.sources
            .iter()
            .flat_map(|s| s.entity_ids.iter().copied())
            .collect()
    }

    /// The table a perfect matcher and a perfect detector would hand to
    /// fusion: every source's labels renamed to their canonical names,
    /// tagged with `sourceID` (the source's name), outer-unioned in source
    /// order, and annotated with `objectID` = the row's gold entity id.
    pub fn gold_annotated_union(&self) -> Table {
        let tagged: Vec<Table> = self
            .sources
            .iter()
            .zip(&self.gold_renames)
            .map(|(source, renames)| {
                let mut t = source.table.clone();
                for (label, canonical) in renames {
                    if label != canonical {
                        t = rename_column(&t, label, canonical).expect("gold renames are 1:1");
                    }
                }
                let alias = t.name().to_string();
                t.add_column(Column::new(SOURCE_ID_COLUMN, ColumnType::Text), |_, _| {
                    Value::text(alias.clone())
                })
                .expect("sources carry no sourceID of their own");
                t
            })
            .collect();
        let refs: Vec<&Table> = tagged.iter().collect();
        let mut union = outer_union(&refs, "Integrated").expect("canonical schemas align");
        let gold = self.gold_union_entity_ids();
        union
            .add_column(Column::new(OBJECT_ID_COLUMN, ColumnType::Int), |i, _| {
                Value::Int(gold[i] as i64)
            })
            .expect("sources carry no objectID of their own");
        union
    }
}

/// Generate a dirty world.
pub fn generate(cfg: &DirtyConfig) -> GeneratedWorld {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let clean = cfg.kind.clean_table(cfg.entities, &mut rng);
    let canonical: Vec<String> = clean
        .schema()
        .names()
        .iter()
        .map(|s| s.to_string())
        .collect();

    let mut sources = Vec::with_capacity(cfg.sources.len());
    let mut gold_renames = Vec::with_capacity(cfg.sources.len());

    for spec in &cfg.sources {
        // Which entities does this source cover?
        let mut covered: Vec<usize> = (0..cfg.entities)
            .filter(|_| rng.gen_bool(cfg.coverage.clamp(0.0, 1.0)))
            .collect();
        // Guarantee a non-trivial overlap sample even at low coverage.
        if covered.is_empty() && cfg.entities > 0 {
            covered.push(rng.gen_range(0..cfg.entities));
        }

        // Column layout for this source.
        let mut kept: Vec<usize> = (0..canonical.len())
            .filter(|&i| {
                !spec
                    .dropped
                    .iter()
                    .any(|d| d.eq_ignore_ascii_case(&canonical[i]))
            })
            .collect();
        if spec.shuffle_columns {
            kept.shuffle(&mut rng);
        }
        let label_of = |canon: &str| -> String {
            spec.renames
                .iter()
                .find(|(c, _)| c.eq_ignore_ascii_case(canon))
                .map(|(_, l)| l.clone())
                .unwrap_or_else(|| canon.to_string())
        };
        let labels: Vec<String> = kept.iter().map(|&i| label_of(&canonical[i])).collect();
        let gold: HashMap<String, String> = kept
            .iter()
            .zip(&labels)
            .map(|(&i, l)| (l.clone(), canonical[i].clone()))
            .collect();

        // Rows: dirty copies of the covered entities (+ in-source dups).
        let mut rows: Vec<Row> = Vec::new();
        let mut entity_ids: Vec<usize> = Vec::new();
        for &e in &covered {
            let copies = 1 + usize::from(rng.gen_bool(cfg.dup_within_source.clamp(0.0, 1.0)));
            for _ in 0..copies {
                let clean_row = &clean.rows()[e];
                let values: Vec<Value> = kept
                    .iter()
                    .map(|&i| {
                        dirty_value(
                            &clean_row[i],
                            cfg.typo_rate,
                            cfg.null_rate,
                            cfg.conflict_rate,
                            &mut rng,
                        )
                    })
                    .collect();
                rows.push(Row::from_values(values));
                entity_ids.push(e);
            }
        }

        let table =
            Table::from_rows(spec.name.clone(), &labels, rows).expect("generated schema is valid");
        sources.push(GeneratedSource { table, entity_ids });
        gold_renames.push(gold);
    }

    GeneratedWorld {
        clean,
        sources,
        gold_renames,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> GeneratedWorld {
        let cfg = DirtyConfig {
            kind: EntityKind::Person,
            entities: 50,
            sources: vec![
                SourceSpec::plain("A"),
                SourceSpec::plain("B")
                    .rename("Name", "FullName")
                    .rename("City", "Town")
                    .drop("Phone")
                    .shuffled(),
            ],
            coverage: 0.8,
            typo_rate: 0.1,
            null_rate: 0.05,
            conflict_rate: 0.1,
            dup_within_source: 0.2,
            seed: 42,
        };
        generate(&cfg)
    }

    #[test]
    fn deterministic_in_seed() {
        let a = world();
        let b = world();
        assert_eq!(a.sources[0].table.rows(), b.sources[0].table.rows());
        assert_eq!(a.sources[1].table.rows(), b.sources[1].table.rows());
    }

    #[test]
    fn renames_and_drops_applied() {
        let w = world();
        let b = &w.sources[1].table;
        assert!(b.schema().contains("FullName"));
        assert!(b.schema().contains("Town"));
        assert!(!b.schema().contains("Name"));
        assert!(!b.schema().contains("Phone"));
        // Gold mapping points back to canonical names.
        assert_eq!(w.gold_renames[1].get("FullName").unwrap(), "Name");
        assert_eq!(w.gold_renames[1].get("Town").unwrap(), "City");
    }

    #[test]
    fn entity_ids_track_rows() {
        let w = world();
        for s in &w.sources {
            assert_eq!(s.table.len(), s.entity_ids.len());
            for &e in &s.entity_ids {
                assert!(e < 50);
            }
        }
    }

    #[test]
    fn in_source_duplicates_generated() {
        let w = world();
        let ids = &w.sources[0].entity_ids;
        let mut seen = std::collections::HashSet::new();
        let dups = ids.iter().filter(|e| !seen.insert(**e)).count();
        assert!(
            dups > 0,
            "dup_within_source=0.2 should create in-source dups"
        );
    }

    #[test]
    fn gold_union_pairs_are_consistent() {
        let w = world();
        let ids = w.gold_union_entity_ids();
        let pairs = w.gold_union_pairs();
        for (i, j) in &pairs {
            assert_eq!(ids[*i], ids[*j]);
            assert!(i < j);
        }
        // Every cross-source repeat shows up as at least one pair.
        let n0 = w.sources[0].table.len();
        let any_cross = pairs.iter().any(|&(i, j)| i < n0 && j >= n0);
        assert!(any_cross, "80% coverage must give cross-source duplicates");
    }

    #[test]
    fn zero_noise_copies_are_clean() {
        let cfg = DirtyConfig {
            typo_rate: 0.0,
            null_rate: 0.0,
            conflict_rate: 0.0,
            dup_within_source: 0.0,
            coverage: 1.0,
            ..DirtyConfig::two_sources(EntityKind::Person, 10, 7)
        };
        let w = generate(&cfg);
        for s in &w.sources {
            assert_eq!(s.table.len(), 10);
            for (row, &e) in s.table.rows().iter().zip(&s.entity_ids) {
                assert_eq!(row, &w.clean.rows()[e]);
            }
        }
    }

    #[test]
    fn coverage_bounds_row_count() {
        let cfg = DirtyConfig {
            coverage: 0.5,
            ..DirtyConfig::two_sources(EntityKind::Cd, 200, 11)
        };
        let w = generate(&cfg);
        for s in &w.sources {
            assert!(
                s.table.len() > 50 && s.table.len() < 150,
                "{}",
                s.table.len()
            );
        }
    }

    #[test]
    fn empty_world() {
        let cfg = DirtyConfig {
            entities: 0,
            ..DirtyConfig::two_sources(EntityKind::Person, 0, 1)
        };
        let w = generate(&cfg);
        assert!(w.clean.is_empty());
        for s in &w.sources {
            assert!(s.table.is_empty());
        }
        assert!(w.gold_union_pairs().is_empty());
    }
}
