//! Group-commit WAL properties (crates/store/src/group.rs).
//!
//! 1. **Concurrent acks, sequential bytes**: N threads enqueue register
//!    records concurrently through the group-commit path; after a crash,
//!    recovery yields *every acked record*, and the on-disk WAL is
//!    bit-identical to the same records appended sequentially with
//!    per-record fsync. Batching never reorders acks: ticket sequence
//!    numbers, content versions, and the replay all agree on one order.
//! 2. **Torn final batch**: the WAL is truncated at *every byte boundary*
//!    of the final group-commit batch; recovery must succeed and contain
//!    exactly the records whose frames are fully inside the cut — the
//!    acked prefix, in ack order, never a partial mutation.
//! 3. **Batching happens**: writers that arrive together inside a commit
//!    window share commits — fewer group commits than records.

use hummer::engine::{Row, Table, Value};
use hummer::store::snapshot::wal_path;
use hummer::store::{wal, CatalogStore, StoreOptions};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, Barrier, Mutex};

fn temp_dir() -> PathBuf {
    hummer::store::scratch::dir("group_commit")
}

fn options(fsync: bool, window_us: u64) -> StoreOptions {
    StoreOptions {
        fsync,
        compact_after_bytes: 0, // no auto-compaction: the WAL is the record
        group_commit_window_us: window_us,
    }
}

/// A tiny one-column table whose content is `text` (so every record has a
/// distinct, size-varying payload).
fn small_table(name: &str, text: &str) -> Table {
    Table::from_rows(
        name,
        &["Note"],
        vec![Row::from_values(vec![Value::text(text)])],
    )
    .expect("literal table is well-formed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// N concurrent appenders × random record sizes: every acked record
    /// recovers, in ack order, and the WAL bytes equal the sequential
    /// per-record-fsync appends of the same records.
    #[test]
    fn concurrent_acks_recover_in_order_with_sequential_bytes(
        threads in 2usize..5,
        per_thread in 1usize..5,
        window_us in prop_oneof![Just(0u64), Just(150u64)],
        texts in proptest::collection::vec("[a-zA-Z0-9 ]{0,24}", 16),
    ) {
        let dir = temp_dir();
        let (store, recovery) = CatalogStore::open(&dir, options(false, window_us)).unwrap();
        prop_assert_eq!(recovery.tables.len(), 0);
        let committer = store.committer();
        // (version, alias, table) in enqueue order — versions are assigned
        // under the same lock as the enqueue, so version order IS enqueue
        // order; the sequential replay below rebuilds the WAL from it.
        let log: Arc<Mutex<Vec<(u64, String, Table)>>> = Arc::new(Mutex::new(Vec::new()));
        let store = Arc::new(Mutex::new((store, 0u64)));
        let total = threads * per_thread;

        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let store = Arc::clone(&store);
                let log = Arc::clone(&log);
                let committer = committer.clone();
                let texts = texts.clone();
                std::thread::spawn(move || {
                    let mut acked: Vec<(u64, u64)> = Vec::new(); // (seq, version)
                    for i in 0..per_thread {
                        let name = format!("T{t}_{i}");
                        let text = &texts[(t * 5 + i) % texts.len()];
                        let table = small_table(&name, text);
                        let (ticket, version) = {
                            let mut guard = store.lock().unwrap();
                            guard.1 += 1;
                            let version = guard.1;
                            let ticket = guard
                                .0
                                .enqueue_register(&name, version, &table)
                                .expect("enqueue");
                            log.lock().unwrap().push((version, name, table));
                            (ticket, version)
                        };
                        let seq = ticket.seq();
                        committer.wait(ticket).expect("group commit");
                        acked.push((seq, version));
                    }
                    acked
                })
            })
            .collect();
        let mut acked: Vec<(u64, u64)> = Vec::new();
        for h in handles {
            acked.extend(h.join().unwrap());
        }

        // Batching never reorders acks: sequence numbers and versions are
        // assigned under one lock, so sorting by either yields the same
        // permutation — and every enqueued record was acked exactly once.
        prop_assert_eq!(acked.len(), total);
        acked.sort_unstable();
        for (i, &(seq, version)) in acked.iter().enumerate() {
            prop_assert_eq!(seq, i as u64 + 1);
            prop_assert_eq!(version, i as u64 + 1);
        }

        // Crash (drop without compaction) and recover: exactly the acked
        // catalog, versions intact.
        let (store, _) = Arc::try_unwrap(store)
            .map_err(|_| ())
            .expect("threads joined")
            .into_inner()
            .unwrap();
        let group_commits = store.stats().group_commits;
        prop_assert!(group_commits >= 1 && group_commits <= total as u64);
        drop(store);
        let (_reopened, recovery) = CatalogStore::open(&dir, options(false, 0)).unwrap();
        prop_assert_eq!(recovery.tables.len(), total);
        prop_assert_eq!(recovery.last_version, total as u64);
        prop_assert_eq!(recovery.dropped_bytes, 0);
        let log = Arc::try_unwrap(log).expect("threads joined").into_inner().unwrap();
        for (version, name, table) in &log {
            let recovered = recovery
                .tables
                .iter()
                .find(|t| &t.alias == name)
                .expect("acked record recovered");
            prop_assert_eq!(recovered.version, *version);
            prop_assert_eq!(&recovered.table, table);
        }

        // Byte identity: replay the same records sequentially (one commit
        // + fsync per record) into a fresh store; the WAL files match
        // bit-for-bit.
        let seq_dir = temp_dir();
        let (mut seq_store, _) = CatalogStore::open(&seq_dir, options(true, 0)).unwrap();
        let mut ordered = log;
        ordered.sort_by_key(|(version, _, _)| *version);
        for (version, name, table) in &ordered {
            seq_store.log_register(name, *version, table).unwrap();
        }
        drop(seq_store);
        let grouped = std::fs::read(wal_path(&dir, 0)).unwrap();
        let sequential = std::fs::read(wal_path(&seq_dir, 0)).unwrap();
        prop_assert_eq!(grouped, sequential);

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&seq_dir).ok();
    }

    /// Truncate the WAL at every byte boundary of the final batch: recovery
    /// succeeds and holds exactly the records fully inside the cut.
    #[test]
    fn torn_final_batch_recovers_exactly_the_contained_prefix(
        prefix_records in 0usize..3,
        batch_records in 1usize..5,
        texts in proptest::collection::vec("[a-z]{0,40}", 8),
    ) {
        let dir = temp_dir();
        let (mut store, _) = CatalogStore::open(&dir, options(true, 0)).unwrap();

        // Acked prefix: one commit (and one fsync) per record.
        for i in 0..prefix_records {
            let name = format!("P{i}");
            let table = small_table(&name, &texts[i % texts.len()]);
            store.log_register(&name, i as u64 + 1, &table).unwrap();
        }
        let len_before = std::fs::metadata(wal_path(&dir, 0)).unwrap().len();

        // Final batch: enqueue everything, then wait once — a single group
        // commit writes all frames in one write_all.
        let commits_before = store.stats().group_commits;
        let mut frame_ends = Vec::new(); // absolute end offset of each frame
        let mut end = len_before;
        let mut last_ticket = None;
        for i in 0..batch_records {
            let name = format!("B{i}");
            let version = (prefix_records + i) as u64 + 1;
            let table = small_table(&name, &texts[(i + 3) % texts.len()]);
            end += wal::frame(&wal::encode_register_payload(&name, version, &table)).len() as u64;
            frame_ends.push(end);
            last_ticket = Some(store.enqueue_register(&name, version, &table).unwrap());
        }
        store.committer().wait(last_ticket.unwrap()).unwrap();
        prop_assert_eq!(store.stats().group_commits, commits_before + 1);
        drop(store);

        let bytes = std::fs::read(wal_path(&dir, 0)).unwrap();
        prop_assert_eq!(bytes.len() as u64, end);

        // Every byte boundary of the batch, from "none of it" to "all of it".
        for cut in len_before..=bytes.len() as u64 {
            let cut_dir = temp_dir();
            std::fs::write(wal_path(&cut_dir, 0), &bytes[..cut as usize]).unwrap();
            let contained = frame_ends.iter().filter(|&&e| e <= cut).count();
            let (_store, recovery) = CatalogStore::open(&cut_dir, options(true, 0)).unwrap();
            prop_assert!(
                recovery.tables.len() == prefix_records + contained,
                "cut at {} of {}: recovered {} tables, expected {}",
                cut,
                bytes.len(),
                recovery.tables.len(),
                prefix_records + contained
            );
            prop_assert_eq!(recovery.last_version, (prefix_records + contained) as u64);
            // The survivors are exactly the ack-order prefix.
            for i in 0..contained {
                let name = format!("B{i}");
                prop_assert!(recovery.tables.iter().any(|t| t.alias == name));
            }
            for i in contained..batch_records {
                let name = format!("B{i}");
                prop_assert!(!recovery.tables.iter().any(|t| t.alias == name));
            }
            std::fs::remove_dir_all(&cut_dir).ok();
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// 16 writers released by one barrier into a 5 ms commit window (the
/// window the server smoke test runs with), fsync on: the leader's linger
/// lets the others join its batch, so the store writes fewer group commits
/// than records — and every acked record recovers.
#[test]
fn writers_inside_one_window_share_group_commits() {
    const WRITERS: usize = 16;
    let dir = temp_dir();
    let (store, _) = CatalogStore::open(&dir, options(true, 5_000)).unwrap();
    let committer = store.committer();
    let store = Arc::new(Mutex::new((store, 0u64)));
    let barrier = Arc::new(Barrier::new(WRITERS));
    let writers: Vec<_> = (0..WRITERS)
        .map(|i| {
            let (store, barrier, committer) =
                (Arc::clone(&store), Arc::clone(&barrier), committer.clone());
            std::thread::spawn(move || {
                let name = format!("W{i}");
                let table = small_table(&name, &format!("writer {i}"));
                barrier.wait();
                let ticket = {
                    let mut guard = store.lock().unwrap();
                    guard.1 += 1;
                    let version = guard.1;
                    guard.0.enqueue_register(&name, version, &table).unwrap()
                };
                committer.wait(ticket).expect("group commit");
                (name, table)
            })
        })
        .collect();
    let acked: Vec<(String, Table)> = writers.into_iter().map(|w| w.join().unwrap()).collect();

    let (store, _) = Arc::try_unwrap(store)
        .map_err(|_| ())
        .expect("writers joined")
        .into_inner()
        .unwrap();
    let group_commits = store.stats().group_commits;
    assert!(
        (1..WRITERS as u64).contains(&group_commits),
        "{group_commits} group commits for {WRITERS} records"
    );
    drop(store);
    let (_reopened, recovery) = CatalogStore::open(&dir, options(true, 0)).unwrap();
    assert_eq!(recovery.tables.len(), WRITERS);
    for (name, table) in &acked {
        let recovered = recovery
            .tables
            .iter()
            .find(|t| &t.alias == name)
            .expect("acked record recovered");
        assert_eq!(&recovered.table, table);
    }
    std::fs::remove_dir_all(&dir).ok();
}
