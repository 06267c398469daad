//! Crash-safety properties of the durable catalog store.
//!
//! 1. **Codec round-trips** over adversarial values (quotes, commas,
//!    newlines, unicode, NaN-free floats incl. `-0.0`, nulls): engine
//!    value/table codec and the delta WAL-record codec are bit-exact.
//! 2. **Torn-tail recovery**: a random register/delta/deregister sequence
//!    is logged; the WAL is then truncated at *every byte boundary of the
//!    final record* — recovery must succeed and equal exactly the last
//!    fully-acked state (never a partial mutation).
//! 3. **Fusion byte-identity**: the recovered catalog produces bit-identical
//!    prepared artifacts to the pre-crash catalog at parallelism degrees
//!    1–4, and survives a compact → reopen cycle unchanged.

use hummer::core::{prepare_tables, HummerConfig, MatcherConfig, Parallelism, SniffConfig};
use hummer::delta::TableDelta;
use hummer::engine::codec::{
    read_table, read_value, write_table, write_value, ByteReader, ByteWriter,
};
use hummer::engine::{Date, Row, Table, Value};
use hummer::store::{CatalogStore, SnapshotEntry, StoreOptions};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;

fn temp_dir() -> PathBuf {
    hummer::store::scratch::dir("durability")
}

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

/// Adversarial cell values: nulls, bools, ints, finite floats (incl. the
/// sign of zero), text with quotes/commas/newlines/unicode, dates.
fn arb_value() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        (0u8..2).prop_map(|b| Value::Bool(b == 1)),
        (-10_000i64..10_000).prop_map(Value::Int),
        (-70_000i64..70_000).prop_map(|n| Value::Float(n as f64 / 7.0)),
        Just(Value::Float(-0.0)),
        "[a-z\"', \n]{0,10}".prop_map(Value::Text),
        ".{0,8}".prop_map(Value::Text),
        (2000i32..2030).prop_flat_map(|y| {
            (1u8..13).prop_flat_map(move |m| {
                (1u8..29).prop_map(move |d| Value::Date(Date::new(y, m, d).unwrap()))
            })
        }),
    ]
    .boxed()
}

/// A full-arity (3-column) row of adversarial values.
fn arb_row() -> BoxedStrategy<Vec<Value>> {
    prop::collection::vec(arb_value(), 3).boxed()
}

/// One mutation plan: `(kind, alias_pick, row_pick, values)`. Interpreted
/// against the live state, so row indices are always made valid.
type MutationPlan = (u8, usize, usize, Vec<Vec<Value>>);

fn arb_mutation() -> BoxedStrategy<MutationPlan> {
    (0u8..8)
        .prop_flat_map(|kind| {
            (0usize..3).prop_flat_map(move |alias_pick| {
                (0usize..1000).prop_flat_map(move |row_pick| {
                    prop::collection::vec(arb_row(), 1..4)
                        .prop_map(move |values| (kind, alias_pick, row_pick, values))
                })
            })
        })
        .boxed()
}

const ALIASES: [&str; 3] = ["T0", "T1", "T2"];
const COLUMNS: [&str; 3] = ["Name", "Amount", "Note"];

/// The in-memory reference: alias → (version, table). What the store must
/// reproduce after any crash.
type Expected = BTreeMap<String, (u64, Table)>;

fn seed_table(alias: &str) -> Table {
    Table::from_rows(
        alias,
        &COLUMNS,
        vec![
            Row::from_values(vec![
                Value::text("John Smith"),
                Value::Int(24),
                Value::text("Berlin"),
            ]),
            Row::from_values(vec![
                Value::text("Mary Jones"),
                Value::Float(22.5),
                Value::text("Hamburg"),
            ]),
        ],
    )
    .unwrap()
}

/// Apply one plan to (store, expected), numbering versions from
/// `last_version`; returns false if it was a no-op.
fn apply_mutation(
    store: &mut CatalogStore,
    last_version: &mut u64,
    expected: &mut Expected,
    plan: &MutationPlan,
) -> bool {
    let (kind, alias_pick, row_pick, values) = plan;
    let alias = ALIASES[alias_pick % ALIASES.len()];
    match kind % 4 {
        // Register / replace with a fresh table built from the plan's rows.
        0 => {
            let rows: Vec<Row> = values.iter().map(|v| Row::from_values(v.clone())).collect();
            let table = Table::from_rows(alias, &COLUMNS, rows).unwrap();
            *last_version += 1;
            let version = *last_version;
            store.log_register(alias, version, &table).unwrap();
            expected.insert(alias.to_string(), (version, table));
            true
        }
        // Delta: insert every plan row; update/delete row_pick when valid.
        1 | 2 => {
            let Some((_, table)) = expected.get(alias) else {
                return false;
            };
            let mut delta = TableDelta::new(alias);
            if kind % 4 == 1 {
                for v in values {
                    delta = delta.insert(v.clone());
                }
                if !table.is_empty() {
                    delta = delta.delete(row_pick % table.len());
                }
            } else if !table.is_empty() {
                delta = delta.update(row_pick % table.len(), values[0].clone());
            } else {
                delta = delta.insert(values[0].clone());
            }
            *last_version += 1;
            let version = *last_version;
            store.log_delta(alias, version, &delta).unwrap();
            let (table, _mapping) = delta.apply(table).unwrap();
            expected.insert(alias.to_string(), (version, table));
            true
        }
        // Deregister.
        _ => {
            if expected.remove(alias).is_none() {
                return false;
            }
            store.log_deregister(alias).unwrap();
            true
        }
    }
}

/// Recovered state as an `Expected` map (tables keep alias naming).
fn recovered_map(recovery: &hummer::store::Recovery) -> Expected {
    recovery
        .tables
        .iter()
        .map(|t| (t.alias.clone(), (t.version, t.table.clone())))
        .collect()
}

/// Bit-exact rendering of a table: name, ordered typed columns, and the raw
/// `Value` debug forms (which distinguish `Int(2)` from `Float(2.0)` and
/// `-0.0` from `0.0`, unlike `Value`'s grouping `PartialEq`).
fn table_fp(t: &Table) -> String {
    format!("{:?}|{:?}|{:?}", t.name(), t.schema().columns(), t.rows())
}

/// Bit-exact rendering of a whole catalog state.
fn state_fp(state: &Expected) -> String {
    state
        .iter()
        .map(|(alias, (version, table))| format!("{alias}@{version}:{}", table_fp(table)))
        .collect::<Vec<_>>()
        .join(";")
}

/// Bit-exact fingerprint of the prepared artifacts (the delta contract's
/// comparison set, minus run-scoped stats).
fn fingerprint(p: &hummer::core::PreparedSources) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}",
        p.annotated.rows(),
        p.annotated.schema().names(),
        p.detection.pairs,
        p.detection.unsure,
        p.detection.cluster_ids,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Engine codec: adversarial values and whole tables round-trip
    /// bit-exactly (debug form covers `-0.0` vs `0.0` and Int vs Float).
    #[test]
    fn value_and_table_codec_round_trip(rows in prop::collection::vec(arb_row(), 0..6)) {
        for row in &rows {
            for v in row {
                let mut w = ByteWriter::new();
                write_value(&mut w, v);
                let bytes = w.into_bytes();
                let mut r = ByteReader::new(&bytes);
                let back = read_value(&mut r).unwrap();
                prop_assert_eq!(format!("{:?}", v), format!("{:?}", back));
                prop_assert!(r.is_exhausted());
            }
        }
        let table = Table::from_rows(
            "Adversarial",
            &COLUMNS,
            rows.iter().map(|v| Row::from_values(v.clone())).collect(),
        )
        .unwrap();
        let mut w = ByteWriter::new();
        write_table(&mut w, &table);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = read_table(&mut r).unwrap();
        prop_assert!(r.is_exhausted());
        prop_assert_eq!(table_fp(&table), table_fp(&back));
    }

    /// Delta codec: encode/decode is the identity on random batches.
    #[test]
    fn delta_codec_round_trip(
        inserts in prop::collection::vec(arb_row(), 0..3),
        updates in prop::collection::vec(arb_row(), 0..3),
        deletes in prop::collection::vec(0usize..50, 0..3),
    ) {
        let mut delta = TableDelta::new("T");
        for v in &inserts {
            delta = delta.insert(v.clone());
        }
        for (i, v) in updates.iter().enumerate() {
            delta = delta.update(100 + i, v.clone());
        }
        for d in &deletes {
            delta = delta.delete(*d);
        }
        let mut w = ByteWriter::new();
        hummer::delta::encode_delta(&mut w, &delta);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = hummer::delta::decode_delta(&mut r).unwrap();
        prop_assert!(r.is_exhausted());
        prop_assert_eq!(format!("{:?}", delta), format!("{:?}", back));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The headline crash property: log a random mutation sequence, then
    /// truncate the WAL at every byte boundary of the final record.
    /// Recovery must succeed at each cut and equal the last fully-acked
    /// state; the fully-recovered catalog must fuse bit-identically to the
    /// reference at degrees 1–4 and survive compact → reopen.
    #[test]
    fn truncated_wal_recovers_last_acked_state(
        mutations in prop::collection::vec(arb_mutation(), 1..6),
    ) {
        let dir = temp_dir();
        let options = StoreOptions {
            fsync: false,            // page cache is enough for this test
            compact_after_bytes: 0,  // keep one WAL, no auto-compaction
            group_commit_window_us: 0,
        };
        let (mut store, opened) = CatalogStore::open(&dir, options.clone()).unwrap();
        let mut last_version = opened.last_version;
        let mut expected: Expected = BTreeMap::new();

        // Seed: both fusion sources registered (acked baseline).
        for alias in ["T0", "T1"] {
            let table = seed_table(alias);
            last_version += 1;
            store.log_register(alias, last_version, &table).unwrap();
            expected.insert(alias.to_string(), (last_version, table));
        }

        // Random mutation sequence; remember the state + WAL length right
        // before the final effective mutation.
        let mut before_final = (expected.clone(), store.stats().wal_bytes);
        for plan in &mutations {
            let snapshot = (expected.clone(), store.stats().wal_bytes);
            if apply_mutation(&mut store, &mut last_version, &mut expected, plan) {
                before_final = snapshot;
            }
        }
        let full_len = store.stats().wal_bytes;
        drop(store); // crash

        let wal_file = dir.join("wal-0.log");
        let wal_bytes = std::fs::read(&wal_file).unwrap();
        prop_assert_eq!(wal_bytes.len() as u64, full_len);
        let (prev_state, prev_len) = before_final;

        // Every truncation point across the final record.
        for cut in prev_len..=full_len {
            let cut_dir = temp_dir();
            std::fs::write(cut_dir.join("wal-0.log"), &wal_bytes[..cut as usize]).unwrap();
            let (_s, recovery) = CatalogStore::open(&cut_dir, options.clone()).unwrap();
            let want = if cut == full_len { &expected } else { &prev_state };
            prop_assert!(
                state_fp(&recovered_map(&recovery)) == state_fp(want),
                "cut at byte {cut} of [{prev_len}, {full_len}] recovered the wrong state"
            );
            std::fs::remove_dir_all(&cut_dir).ok();
        }

        // Full recovery fuses bit-identically to the in-memory reference at
        // every parallelism degree (when sources remain to fuse).
        let (mut store, recovery) = CatalogStore::open(&dir, options.clone()).unwrap();
        let recovered = recovered_map(&recovery);
        prop_assert_eq!(state_fp(&recovered), state_fp(&expected));
        let reference: Vec<&Table> = expected.values().map(|(_, t)| t).collect();
        let fusable = !reference.is_empty() && reference.iter().all(|t| !t.is_empty());
        if fusable {
            let recovered_tables: Vec<&Table> = recovered.values().map(|(_, t)| t).collect();
            let want = fingerprint(
                &prepare_tables(&reference, &config(Parallelism::sequential())).unwrap(),
            );
            for degree in 1..=4usize {
                let got = fingerprint(
                    &prepare_tables(&recovered_tables, &config(Parallelism::degree(degree)))
                        .unwrap(),
                );
                prop_assert!(got == want, "prepared artifacts diverged at degree {degree}");
            }
        }

        // Compact → reopen: same catalog, now snapshot-seeded.
        let entries: Vec<SnapshotEntry<'_>> = expected
            .iter()
            .map(|(alias, (version, table))| SnapshotEntry {
                alias,
                version: *version,
                table,
            })
            .collect();
        store.compact(&entries).unwrap();
        drop(store);
        let (_s, reloaded) = CatalogStore::open(&dir, options).unwrap();
        prop_assert_eq!(reloaded.snapshot_generation, Some(1));
        prop_assert_eq!(reloaded.replayed_records, 0);
        prop_assert_eq!(state_fp(&recovered_map(&reloaded)), state_fp(&expected));

        std::fs::remove_dir_all(&dir).ok();
    }
}
