//! [`CatalogStore`]: the durable catalog — snapshot + WAL orchestration,
//! crash recovery, and threshold-based compaction.
//!
//! ## Recovery & compaction state machine
//!
//! A data directory holds at most one *live* generation `g`: the newest
//! valid `snapshot-<g>.snap` plus its `wal-<g>.log` tail. Opening the store:
//!
//! 1. load the newest snapshot that validates (magic, length, CRC); fall
//!    back to older ones if the newest is corrupt;
//! 2. replay `wal-<g>.log` record by record, stopping at the first torn
//!    frame (a crash mid-append) and truncating the file back to the valid
//!    prefix so new appends extend acked state;
//! 3. hand the recovered `(alias, version, table)` set to the caller.
//!
//! Compaction rolls the WAL into a fresh snapshot: write `snapshot-<g+1>`
//! atomically, start an empty `wal-<g+1>.log`, then delete generation `g`'s
//! files. A crash anywhere in that sequence leaves either generation fully
//! recoverable — the snapshot rename is the commit point.
//!
//! ## The byte-identity contract
//!
//! Everything on disk round-trips bit-exactly (engine codec floats are bit
//! patterns, deltas replay through the same [`TableDelta::apply`] that
//! served the request), so a recovered catalog produces **byte-identical
//! fusion output** to the pre-crash catalog at every parallelism degree.

use crate::error::{Result, StoreError};
use crate::group::{WalCommitter, WalShared, WalTicket};
use crate::snapshot::{
    self, list_snapshots, load_snapshot, snapshot_path, sync_dir, wal_path, SnapshotEntry,
};
use crate::wal::{self, WalRecord, WAL_HEADER_LEN};
use hummer_delta::TableDelta;
use hummer_engine::Table;
use hummer_obs::Histogram;
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Store tuning knobs.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// fsync the WAL on every commit (and snapshots on write). Default on;
    /// turning it off is a benchmarking escape hatch that trades power-loss
    /// durability for throughput (kill -9 safety is unaffected — the page
    /// cache survives the process).
    pub fsync: bool,
    /// Roll the WAL into a fresh snapshot once it exceeds this many bytes
    /// (`0` disables automatic compaction).
    pub compact_after_bytes: u64,
    /// How long a group-commit leader lingers (microseconds) before
    /// flushing the pending batch, letting concurrent writers pile in so
    /// one fsync covers more records. `0` (the default) commits as soon
    /// as a leader is elected — lone writers pay no extra latency, and
    /// batching still happens whenever writers queue behind an in-flight
    /// fsync.
    pub group_commit_window_us: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            fsync: true,
            compact_after_bytes: 8 * 1024 * 1024,
            group_commit_window_us: 0,
        }
    }
}

/// One catalog entry as recovered from disk.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredTable {
    /// Catalog alias (original casing, as registered).
    pub alias: String,
    /// Content version the entry had when last logged.
    pub version: u64,
    /// The table, byte-identical to the pre-crash content.
    pub table: Table,
}

/// Everything [`CatalogStore::open`] reconstructed, plus how it went.
#[derive(Debug)]
pub struct Recovery {
    /// Recovered catalog entries, sorted by alias.
    pub tables: Vec<RecoveredTable>,
    /// Highest content version ever assigned (the caller's version counter
    /// must resume above this so cache keys never collide across restarts).
    pub last_version: u64,
    /// Generation of the snapshot that seeded recovery, if any.
    pub snapshot_generation: Option<u64>,
    /// WAL records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Torn-tail bytes dropped (a crash mid-append leaves these).
    pub dropped_bytes: u64,
    /// Snapshot files that failed validation and were skipped.
    pub corrupt_snapshots: u64,
    /// Wall time of the whole open+recover, in milliseconds.
    pub recovery_ms: f64,
}

/// Point-in-time store counters (surfaced by the server's `/metrics`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreStats {
    /// Live generation number.
    pub generation: u64,
    /// Current WAL size in bytes (header included).
    pub wal_bytes: u64,
    /// Records in the current WAL (replayed + appended since open).
    pub wal_records: u64,
    /// Snapshots written by this process (compactions).
    pub snapshots_written: u64,
    /// Recovery wall time of the most recent open, in milliseconds.
    pub recovery_ms: f64,
    /// Whether commits fsync.
    pub fsync: bool,
    /// WAL commit fsyncs issued by this process (snapshot/rotation syncs
    /// not included; 0 when `fsync` is off).
    pub fsyncs: u64,
    /// Group-commit batches written by this process. Equal to `fsyncs`
    /// under fsync; the ratio of committed records to batches is the
    /// group-commit amplification.
    pub group_commits: u64,
}

/// The durable catalog store. See the module docs for the on-disk layout
/// and the recovery/compaction state machine.
#[derive(Debug)]
pub struct CatalogStore {
    dir: PathBuf,
    options: StoreOptions,
    /// The WAL tail: pending batch buffer, durability watermarks, and the
    /// file handle, shared with [`WalCommitter`] handles so writers can
    /// wait for group durability without holding the store lock. Poisoning
    /// (a commit failure that must refuse further writes, see
    /// [`StoreError::Poisoned`]) lives here too.
    shared: Arc<WalShared>,
    generation: u64,
    version_clock: u64,
    snapshots_written: u64,
    recovery_ms: f64,
    /// The OS advisory lock on `store.lock`, held for this store's
    /// lifetime. The kernel releases it when the handle closes — including
    /// on `kill -9` — so stale locks cannot exist and two live openers
    /// (processes *or* handles) can never interleave WAL appends.
    _lock: File,
}

/// Take the single-writer lock: an OS advisory lock (`File::try_lock`) on
/// `store.lock`. Lock ownership is per open file description, so a second
/// open — same process or not — fails while the first store lives, and a
/// crashed holder's lock vanishes with its file handle (no PID checking,
/// no stale-lock reclaim races). The file content is the holder's PID, as
/// a best-effort operator diagnostic only; the file itself is never
/// deleted (removing it could split future openers across two inodes).
fn acquire_lock(dir: &Path) -> Result<File> {
    let path = dir.join("store.lock");
    let mut f = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(false)
        .open(&path)
        .map_err(|e| StoreError::io("open lock file", &path, e))?;
    match f.try_lock() {
        Ok(()) => {
            let _ = f.set_len(0);
            let _ = f.write_all(std::process::id().to_string().as_bytes());
            Ok(f)
        }
        Err(std::fs::TryLockError::WouldBlock) => {
            let pid = fs::read_to_string(&path)
                .ok()
                .and_then(|s| s.trim().parse::<u32>().ok())
                .unwrap_or(0);
            Err(StoreError::Locked { path, pid })
        }
        Err(std::fs::TryLockError::Error(e)) => Err(StoreError::io("lock", &path, e)),
    }
}

/// Best-effort removal of files from superseded generations — `.tmp`
/// leftovers and any `snapshot-*.snap` / `wal-*.log` older than the live
/// generation (a crash between compaction's rename and its deletes leaks
/// them; recovery never reads them, so they only waste disk).
fn cleanup_stale_generations(dir: &Path, live_generation: u64) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale_gen = |gen: u64| gen < live_generation;
        let stale = name.ends_with(".tmp")
            || snapshot::parse_generation(name, "snapshot-", ".snap").is_some_and(stale_gen)
            || snapshot::parse_generation(name, "wal-", ".log").is_some_and(stale_gen);
        if stale {
            fs::remove_file(entry.path()).ok();
        }
    }
}

impl CatalogStore {
    /// Open (or initialize) a store in `dir` and recover its catalog.
    pub fn open(dir: impl AsRef<Path>, options: StoreOptions) -> Result<(CatalogStore, Recovery)> {
        let t0 = Instant::now();
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| StoreError::io("create directory", &dir, e))?;
        // Early-error paths drop the handle, which releases the OS lock.
        let lock = acquire_lock(&dir)?;

        // 1. Newest valid snapshot seeds the state.
        let mut state: BTreeMap<String, RecoveredTable> = BTreeMap::new();
        let mut generation = 0u64;
        let mut version_clock = 0u64;
        let mut snapshot_generation = None;
        let mut corrupt_snapshots = 0u64;
        let listed = list_snapshots(&dir)?;
        let snapshot_files = listed.len();
        for (gen, path) in listed {
            match load_snapshot(&path) {
                Ok(data) => {
                    generation = gen;
                    version_clock = data.version_clock;
                    snapshot_generation = Some(gen);
                    for (alias, version, mut table) in data.tables {
                        table.set_name(alias.clone());
                        state.insert(
                            alias.to_ascii_lowercase(),
                            RecoveredTable {
                                alias,
                                version,
                                table,
                            },
                        );
                    }
                    break;
                }
                Err(_) => corrupt_snapshots += 1,
            }
        }
        // Snapshots exist but none validates: starting from an empty
        // catalog would silently discard the whole store (and the next
        // compaction would truncate the surviving WAL). Fail loudly and
        // leave everything on disk for the operator.
        if snapshot_generation.is_none() && snapshot_files > 0 {
            return Err(StoreError::corrupt(
                &dir,
                format!(
                    "all {snapshot_files} snapshot file(s) failed validation; \
                     refusing to start from an empty catalog"
                ),
            ));
        }

        // 2. Replay the WAL tail, tolerating a torn final record.
        let wal_file_path = wal_path(&dir, generation);
        let mut replayed_records = 0u64;
        let mut dropped_bytes = 0u64;
        let mut wal_bytes = WAL_HEADER_LEN;
        let wal_exists = wal_file_path.exists();
        if wal_exists {
            let bytes =
                fs::read(&wal_file_path).map_err(|e| StoreError::io("read", &wal_file_path, e))?;
            let scan = wal::scan(&bytes, &wal_file_path)?;
            if scan.header_ok && scan.generation != generation {
                return Err(StoreError::corrupt(
                    &wal_file_path,
                    format!(
                        "WAL header declares generation {} but the file is named for {generation}",
                        scan.generation
                    ),
                ));
            }
            dropped_bytes = scan.dropped_bytes;
            replayed_records = scan.records.len() as u64;
            for (i, record) in scan.records.into_iter().enumerate() {
                version_clock =
                    apply_record(&mut state, record, version_clock, &wal_file_path, i as u64)?;
            }
            if scan.header_ok {
                wal_bytes = scan.valid_len;
            }
            // Truncate any torn tail (and heal a torn header) so appends
            // extend acked state, then re-stamp the header if it was torn.
            if dropped_bytes > 0 || !scan.header_ok {
                let f = OpenOptions::new()
                    .write(true)
                    .open(&wal_file_path)
                    .map_err(|e| StoreError::io("open for truncation", &wal_file_path, e))?;
                f.set_len(if scan.header_ok { scan.valid_len } else { 0 })
                    .map_err(|e| StoreError::io("truncate", &wal_file_path, e))?;
                f.sync_all()
                    .map_err(|e| StoreError::io("fsync", &wal_file_path, e))?;
            }
            if !scan.header_ok {
                write_new_wal(&dir, &wal_file_path, generation, options.fsync)?;
            }
        } else {
            write_new_wal(&dir, &wal_file_path, generation, options.fsync)?;
        }

        let wal = OpenOptions::new()
            .append(true)
            .open(&wal_file_path)
            .map_err(|e| StoreError::io("open for appending", &wal_file_path, e))?;

        // Recovery succeeded: retire leftovers from superseded generations
        // (a crash mid-compaction can leak them).
        cleanup_stale_generations(&dir, generation);

        let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
        let shared = WalShared::new(
            wal,
            wal_file_path,
            wal_bytes,
            replayed_records,
            options.fsync,
            options.group_commit_window_us,
        );
        let store = CatalogStore {
            dir,
            options,
            shared,
            generation,
            version_clock,
            snapshots_written: 0,
            recovery_ms,
            _lock: lock,
        };
        let recovery = Recovery {
            tables: state.into_values().collect(),
            last_version: store.version_clock,
            snapshot_generation,
            replayed_records,
            dropped_bytes,
            corrupt_snapshots,
            recovery_ms,
        };
        Ok((store, recovery))
    }

    /// The data directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        let st = self.shared.state.lock().unwrap();
        StoreStats {
            generation: self.generation,
            wal_bytes: st.wal_bytes,
            wal_records: st.wal_records,
            snapshots_written: self.snapshots_written,
            recovery_ms: self.recovery_ms,
            fsync: self.options.fsync,
            fsyncs: st.fsyncs,
            group_commits: st.group_commits,
        }
    }

    /// Shared handle to the WAL-commit fsync latency histogram
    /// (microsecond samples). The server exposes it as
    /// `hummer_store_fsync_seconds`; recording is lock-free, so holding
    /// the handle outside the catalog lock is safe.
    pub fn fsync_histogram(&self) -> Arc<Histogram> {
        Arc::clone(&self.shared.fsync_hist)
    }

    /// Shared handle to the records-per-group-commit histogram. A mean
    /// near 1 means writers were never contended; larger means one fsync
    /// covered that many commits.
    pub fn batch_histogram(&self) -> Arc<Histogram> {
        Arc::clone(&self.shared.batch_hist)
    }

    /// A handle for waiting on [`WalTicket`]s without holding the store
    /// (or any catalog) lock — the enqueue/apply/release/wait pattern that
    /// makes group commit batch.
    pub fn committer(&self) -> WalCommitter {
        self.shared.committer()
    }

    /// Log a registration (or replacement) of `alias` at `version`.
    /// Durable once this returns — call *before* acking the mutation.
    pub fn log_register(&mut self, alias: &str, version: u64, table: &Table) -> Result<()> {
        let ticket = self.enqueue_register(alias, version, table)?;
        self.shared.wait_durable(ticket.seq)
    }

    /// Log a delta batch against `alias` producing `new_version`.
    pub fn log_delta(&mut self, alias: &str, new_version: u64, delta: &TableDelta) -> Result<()> {
        let ticket = self.enqueue_delta(alias, new_version, delta)?;
        self.shared.wait_durable(ticket.seq)
    }

    /// Log the removal of `alias`.
    pub fn log_deregister(&mut self, alias: &str) -> Result<()> {
        let ticket = self.enqueue_deregister(alias)?;
        self.shared.wait_durable(ticket.seq)
    }

    /// Enqueue a registration without waiting for durability. The record's
    /// WAL position is fixed here (enqueue order == replay order), so call
    /// this under the same lock that orders catalog versions; redeem the
    /// ticket via [`CatalogStore::committer`] *after* releasing that lock
    /// and *before* acking the mutation.
    pub fn enqueue_register(
        &mut self,
        alias: &str,
        version: u64,
        table: &Table,
    ) -> Result<WalTicket> {
        self.enqueue(
            Some(version),
            wal::encode_register_payload(alias, version, table),
        )
    }

    /// Enqueue a delta batch without waiting for durability (see
    /// [`CatalogStore::enqueue_register`] for the protocol).
    pub fn enqueue_delta(
        &mut self,
        alias: &str,
        new_version: u64,
        delta: &TableDelta,
    ) -> Result<WalTicket> {
        self.enqueue(
            Some(new_version),
            wal::encode_delta_payload(alias, new_version, delta),
        )
    }

    /// Enqueue a removal without waiting for durability (see
    /// [`CatalogStore::enqueue_register`] for the protocol).
    pub fn enqueue_deregister(&mut self, alias: &str) -> Result<WalTicket> {
        self.enqueue(None, wal::encode_deregister_payload(alias))
    }

    fn enqueue(&mut self, version: Option<u64>, payload: Vec<u8>) -> Result<WalTicket> {
        if payload.len() as u64 > u64::from(wal::MAX_RECORD_BYTES) {
            let path = self.shared.state.lock().unwrap().path.clone();
            return Err(StoreError::TooLarge {
                what: "WAL record",
                path,
                bytes: payload.len() as u64,
                cap: u64::from(wal::MAX_RECORD_BYTES),
            });
        }
        let framed = wal::frame(&payload);
        let ticket = self.shared.enqueue(&framed)?;
        if let Some(v) = version {
            self.version_clock = self.version_clock.max(v);
        }
        Ok(ticket)
    }

    /// Whether the WAL has grown past the compaction threshold. Pending
    /// (enqueued-but-not-yet-committed) records count: callers check this
    /// right after enqueueing, and [`CatalogStore::compact`] drains the
    /// pending batch before rotating anyway.
    pub fn wants_compaction(&self) -> bool {
        if self.options.compact_after_bytes == 0 {
            return false;
        }
        let st = self.shared.state.lock().unwrap();
        st.wal_records + st.pending_records > 0
            && st.wal_bytes + st.pending.len() as u64 >= self.options.compact_after_bytes
    }

    /// Roll the WAL into a fresh snapshot of `entries` (the caller's
    /// complete current catalog). The snapshot rename is the commit point;
    /// a crash on either side of it recovers cleanly. If rotation fails
    /// *after* that commit point (e.g. creating the next WAL hits ENOSPC),
    /// the just-committed snapshot is rolled back — leaving it while
    /// appends continue to the old WAL would make the next recovery load
    /// the snapshot, ignore those acked appends, and delete them as stale.
    /// If even the rollback fails, the store poisons itself.
    pub fn compact(&mut self, entries: &[SnapshotEntry<'_>]) -> Result<()> {
        // Flush every enqueued record first — rotation must not strand
        // pending frames behind the file swap. Callers hold whatever lock
        // orders enqueues (the server: the catalog write lock), so no new
        // record can slip in between the drain and the swap.
        self.shared.commit_all()?;
        let next_gen = self.generation + 1;
        snapshot::write_snapshot(
            &self.dir,
            next_gen,
            self.version_clock,
            entries,
            self.options.fsync,
        )?;
        let next_wal_path = wal_path(&self.dir, next_gen);
        let rotation = write_new_wal(&self.dir, &next_wal_path, next_gen, self.options.fsync)
            .and_then(|()| {
                OpenOptions::new()
                    .append(true)
                    .open(&next_wal_path)
                    .map_err(|e| StoreError::io("open for appending", &next_wal_path, e))
            });
        let next_wal = match rotation {
            Ok(f) => f,
            Err(e) => {
                // The snapshot is the commit point, so it must go first: a
                // crash after removing only the new WAL would still leave a
                // snapshot that shadows future appends to the old WAL.
                let committed = snapshot_path(&self.dir, next_gen);
                if fs::remove_file(&committed).is_err() && committed.exists() {
                    self.shared.state.lock().unwrap().poisoned = true;
                } else {
                    fs::remove_file(&next_wal_path).ok();
                    if self.options.fsync {
                        sync_dir(&self.dir).ok();
                    }
                }
                return Err(e);
            }
        };

        // Generation g+1 is durable; swap the tail under both WAL locks
        // (nobody else ever holds the two together, and commit leaders
        // are excluded because the WAL is fully drained and callers block
        // new enqueues), then retire generation g (best effort — a
        // leftover file is ignored by recovery, never load-bearing).
        let old_wal = {
            let mut io = self.shared.io.lock().unwrap();
            let mut st = self.shared.state.lock().unwrap();
            io.file = next_wal;
            io.durable_bytes = WAL_HEADER_LEN;
            st.wal_bytes = WAL_HEADER_LEN;
            st.wal_records = 0;
            std::mem::replace(&mut st.path, next_wal_path)
        };
        let old_snapshot = snapshot_path(&self.dir, self.generation);
        fs::remove_file(&old_wal).ok();
        fs::remove_file(&old_snapshot).ok();
        if self.options.fsync {
            sync_dir(&self.dir).ok();
        }

        self.generation = next_gen;
        self.snapshots_written += 1;
        Ok(())
    }
}

/// Create a WAL file for `generation` with just its header.
fn write_new_wal(dir: &Path, path: &Path, generation: u64, fsync: bool) -> Result<()> {
    let mut f = File::create(path).map_err(|e| StoreError::io("create", path, e))?;
    f.write_all(&wal::header(generation))
        .map_err(|e| StoreError::io("write header to", path, e))?;
    if fsync {
        f.sync_all().map_err(|e| StoreError::io("fsync", path, e))?;
        sync_dir(dir)?;
    }
    Ok(())
}

/// Apply one replayed record to the recovered state; returns the advanced
/// version clock.
fn apply_record(
    state: &mut BTreeMap<String, RecoveredTable>,
    record: WalRecord,
    version_clock: u64,
    path: &Path,
    index: u64,
) -> Result<u64> {
    let replay_err = |detail: String| StoreError::Replay {
        path: path.to_path_buf(),
        record: index,
        detail,
    };
    match record {
        WalRecord::Register {
            alias,
            version,
            mut table,
        } => {
            table.set_name(alias.clone());
            state.insert(
                alias.to_ascii_lowercase(),
                RecoveredTable {
                    alias,
                    version,
                    table,
                },
            );
            Ok(version_clock.max(version))
        }
        WalRecord::Delta {
            alias,
            version,
            delta,
        } => {
            let entry = state
                .get_mut(&alias.to_ascii_lowercase())
                .ok_or_else(|| replay_err(format!("delta for unregistered table `{alias}`")))?;
            let (table, _mapping) = delta
                .apply(&entry.table)
                .map_err(|e| replay_err(format!("delta against `{alias}` failed: {e}")))?;
            entry.table = table;
            entry.table.set_name(entry.alias.clone());
            entry.version = version;
            Ok(version_clock.max(version))
        }
        WalRecord::Deregister { alias } => {
            state
                .remove(&alias.to_ascii_lowercase())
                .ok_or_else(|| replay_err(format!("deregister of unknown table `{alias}`")))?;
            Ok(version_clock)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hummer_engine::{table, Value};

    fn temp_dir() -> PathBuf {
        crate::scratch::dir("store")
    }

    fn students() -> Table {
        table! {
            "EE_Student" => ["Name", "Age"];
            ["John Smith", 24],
            ["Mary Jones", 22],
        }
    }

    #[test]
    fn fresh_dir_opens_empty() {
        let dir = temp_dir();
        let (store, recovery) = CatalogStore::open(&dir, StoreOptions::default()).unwrap();
        assert!(recovery.tables.is_empty());
        assert_eq!(recovery.last_version, 0);
        assert_eq!(store.stats().generation, 0);
        assert_eq!(store.stats().wal_bytes, WAL_HEADER_LEN);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mutations_survive_reopen() {
        let dir = temp_dir();
        {
            let (mut store, _) = CatalogStore::open(&dir, StoreOptions::default()).unwrap();
            store.log_register("EE_Student", 1, &students()).unwrap();
            let delta = TableDelta::new("EE_Student")
                .insert(vec![Value::text("Grace Hopper"), Value::Int(37)])
                .update(0, vec![Value::text("John Smith"), Value::Int(25)]);
            store.log_delta("EE_Student", 2, &delta).unwrap();
            store.log_register("Doomed", 3, &students()).unwrap();
            store.log_deregister("Doomed").unwrap();
        } // dropped without any snapshot: recovery is pure WAL replay
        let (store, recovery) = CatalogStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recovery.tables.len(), 1);
        let t = &recovery.tables[0];
        assert_eq!(t.alias, "EE_Student");
        assert_eq!(t.version, 2);
        assert_eq!(t.table.len(), 3);
        assert_eq!(t.table.cell(0, 1), &Value::Int(25));
        assert_eq!(t.table.cell(2, 0), &Value::text("Grace Hopper"));
        assert_eq!(recovery.last_version, 3);
        assert_eq!(recovery.replayed_records, 4);
        assert_eq!(store.stats().wal_records, 4);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_dropped_and_healed() {
        let dir = temp_dir();
        {
            let (mut store, _) = CatalogStore::open(&dir, StoreOptions::default()).unwrap();
            store.log_register("T", 1, &students()).unwrap();
        }
        let wal = wal_path(&dir, 0);
        let mut bytes = fs::read(&wal).unwrap();
        let acked_len = bytes.len();
        bytes.extend_from_slice(&[7u8; 13]); // torn partial frame
        fs::write(&wal, &bytes).unwrap();
        {
            let (mut store, recovery) = CatalogStore::open(&dir, StoreOptions::default()).unwrap();
            assert_eq!(recovery.tables.len(), 1);
            assert_eq!(recovery.dropped_bytes, 13);
            // The file was truncated back to acked state; new appends extend it.
            assert_eq!(fs::metadata(&wal).unwrap().len(), acked_len as u64);
            store.log_deregister("T").unwrap();
        }
        let (_, recovery) = CatalogStore::open(&dir, StoreOptions::default()).unwrap();
        assert!(recovery.tables.is_empty());
        assert_eq!(recovery.dropped_bytes, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_rolls_generations_and_recovers() {
        let dir = temp_dir();
        {
            let (mut store, _) = CatalogStore::open(&dir, StoreOptions::default()).unwrap();
            let t = students();
            store.log_register("A", 1, &t).unwrap();
            store.log_register("B", 2, &t).unwrap();
            let entries = [
                SnapshotEntry {
                    alias: "A",
                    version: 1,
                    table: &t,
                },
                SnapshotEntry {
                    alias: "B",
                    version: 2,
                    table: &t,
                },
            ];
            store.compact(&entries).unwrap();
            assert_eq!(store.stats().generation, 1);
            assert_eq!(store.stats().wal_records, 0);
            assert_eq!(store.stats().snapshots_written, 1);
            // Old generation's files are gone.
            assert!(!wal_path(&dir, 0).exists());
            assert!(!snapshot_path(&dir, 0).exists());
            // Post-compaction mutations land in the new WAL.
            store.log_deregister("A").unwrap();
        }
        let (_, recovery) = CatalogStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recovery.snapshot_generation, Some(1));
        assert_eq!(recovery.replayed_records, 1);
        let aliases: Vec<&str> = recovery.tables.iter().map(|t| t.alias.as_str()).collect();
        assert_eq!(aliases, vec!["B"]);
        assert_eq!(recovery.last_version, 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_snapshots_corrupt_refuses_to_open() {
        // Starting from an empty catalog when snapshot files exist would
        // silently discard the store (and a later compaction would truncate
        // the surviving WAL) — open must fail loudly instead.
        let dir = temp_dir();
        fs::write(snapshot_path(&dir, 1), b"HUMSNAP1garbage").unwrap();
        let e = CatalogStore::open(&dir, StoreOptions::default()).unwrap_err();
        assert!(matches!(e, StoreError::Corrupt { .. }), "{e}");
        assert!(e.to_string().contains("refusing"), "{e}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_older() {
        let dir = temp_dir();
        let t = students();
        let entry = [SnapshotEntry {
            alias: "A",
            version: 5,
            table: &t,
        }];
        snapshot::write_snapshot(&dir, 1, 5, &entry, false).unwrap();
        // A newer but corrupt snapshot (truncated payload).
        let newer = snapshot_path(&dir, 2);
        fs::write(&newer, b"HUMSNAP1garbage").unwrap();
        let (_, recovery) = CatalogStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recovery.snapshot_generation, Some(1));
        assert_eq!(recovery.corrupt_snapshots, 1);
        assert_eq!(recovery.tables.len(), 1);
        assert_eq!(recovery.tables[0].version, 5);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wants_compaction_respects_threshold() {
        let dir = temp_dir();
        let options = StoreOptions {
            fsync: false,
            compact_after_bytes: 64,
            group_commit_window_us: 0,
        };
        let (mut store, _) = CatalogStore::open(&dir, options).unwrap();
        assert!(!store.wants_compaction()); // empty WAL never compacts
        store.log_register("A", 1, &students()).unwrap();
        assert!(store.wants_compaction());
        let disabled = StoreOptions {
            fsync: false,
            compact_after_bytes: 0,
            group_commit_window_us: 0,
        };
        let dir2 = temp_dir();
        let (mut store2, _) = CatalogStore::open(&dir2, disabled).unwrap();
        store2.log_register("A", 1, &students()).unwrap();
        assert!(!store2.wants_compaction());
        fs::remove_dir_all(&dir).ok();
        fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn directory_is_single_writer_but_dead_locks_vanish() {
        let dir = temp_dir();
        let (store, _) = CatalogStore::open(&dir, StoreOptions::default()).unwrap();
        // Second open while the first store lives: refused, naming us.
        let e = CatalogStore::open(&dir, StoreOptions::default()).unwrap_err();
        assert!(
            matches!(e, StoreError::Locked { pid, .. } if pid == std::process::id()),
            "{e}"
        );
        drop(store); // closing the handle releases the OS lock
                     // A leftover lock file from a dead process (kill -9) carries no OS
                     // lock — the next open just takes it.
        fs::write(dir.join("store.lock"), "4294967294").unwrap();
        let (_store, recovery) = CatalogStore::open(&dir, StoreOptions::default()).unwrap();
        assert!(recovery.tables.is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_retires_generations_leaked_by_a_mid_compaction_crash() {
        let dir = temp_dir();
        {
            let (mut store, _) = CatalogStore::open(&dir, StoreOptions::default()).unwrap();
            store.log_register("A", 1, &students()).unwrap();
            let t = students();
            store
                .compact(&[SnapshotEntry {
                    alias: "A",
                    version: 1,
                    table: &t,
                }])
                .unwrap();
        }
        // Simulate the crash window between compaction's rename and its
        // deletes: generation-0 leftovers and a stray temp file reappear.
        fs::write(wal_path(&dir, 0), wal::header(0)).unwrap();
        fs::write(snapshot_path(&dir, 0), b"stale").unwrap();
        fs::write(dir.join("snapshot-00000000000000000009.tmp"), b"tmp").unwrap();
        let (_store, recovery) = CatalogStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recovery.snapshot_generation, Some(1));
        assert_eq!(recovery.tables.len(), 1);
        assert!(!wal_path(&dir, 0).exists(), "stale WAL retired");
        assert!(!snapshot_path(&dir, 0).exists(), "stale snapshot retired");
        assert!(
            !dir.join("snapshot-00000000000000000009.tmp").exists(),
            "tmp leftovers retired"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_inconsistency_is_loud() {
        let dir = temp_dir();
        {
            let (mut store, _) = CatalogStore::open(&dir, StoreOptions::default()).unwrap();
            store
                .log_delta(
                    "Ghost",
                    1,
                    &TableDelta::new("Ghost").insert(vec![Value::Int(1), Value::Int(2)]),
                )
                .unwrap();
        }
        let e = CatalogStore::open(&dir, StoreOptions::default()).unwrap_err();
        assert!(matches!(e, StoreError::Replay { record: 0, .. }), "{e}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_group_commit_recovers_every_acked_record_in_order() {
        let dir = temp_dir();
        let options = StoreOptions {
            fsync: false, // keep the test fast; batching logic is identical
            compact_after_bytes: 0,
            group_commit_window_us: 200,
        };
        let acked: std::sync::Mutex<Vec<u64>> = std::sync::Mutex::new(Vec::new());
        {
            let (store, _) = CatalogStore::open(&dir, options.clone()).unwrap();
            let committer = store.committer();
            let store = std::sync::Mutex::new((store, 0u64));
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        for _ in 0..5 {
                            // Enqueue under the lock that orders versions
                            // (standing in for the server's catalog write
                            // lock), wait for durability outside it.
                            let (version, ticket) = {
                                let mut guard = store.lock().unwrap();
                                let (st, last) = &mut *guard;
                                *last += 1;
                                let v = *last;
                                let t = st
                                    .enqueue_register(&format!("T{v}"), v, &students())
                                    .unwrap();
                                acked.lock().unwrap().push(v);
                                (v, t)
                            };
                            committer.wait(ticket).unwrap();
                            let _ = version;
                        }
                    });
                }
            });
            let stats = store.lock().unwrap().0.stats();
            assert_eq!(stats.wal_records, 20);
            assert!(stats.group_commits >= 1 && stats.group_commits <= 20);
            let batches = store.lock().unwrap().0.batch_histogram().snapshot();
            assert_eq!(batches.count(), stats.group_commits);
            assert_eq!(batches.sum(), 20, "every record lands in some batch");
        }
        // Recovery replays the records in enqueue (== ack) order: the
        // versions recovered are exactly the acked set, and since each
        // alias is unique, all 20 survive.
        let (_, recovery) = CatalogStore::open(&dir, options).unwrap();
        let mut want = acked.into_inner().unwrap();
        want.sort_unstable();
        let mut got: Vec<u64> = recovery.tables.iter().map(|t| t.version).collect();
        got.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(recovery.last_version, 20);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_wal_bytes_match_sequential_appends() {
        // The batched WAL must be bit-identical to sequential appends of
        // the same records in the same order.
        let seq_dir = temp_dir();
        let grp_dir = temp_dir();
        let options = StoreOptions {
            fsync: false,
            compact_after_bytes: 0,
            group_commit_window_us: 0,
        };
        {
            let (mut store, _) = CatalogStore::open(&seq_dir, options.clone()).unwrap();
            for v in 1..=6u64 {
                store
                    .log_register(&format!("T{v}"), v, &students())
                    .unwrap();
            }
        }
        {
            let (mut store, _) = CatalogStore::open(&grp_dir, options.clone()).unwrap();
            let committer = store.committer();
            // Enqueue everything first, wait afterwards: one batch.
            let tickets: Vec<_> = (1..=6u64)
                .map(|v| {
                    store
                        .enqueue_register(&format!("T{v}"), v, &students())
                        .unwrap()
                })
                .collect();
            for t in tickets {
                committer.wait(t).unwrap();
            }
            assert_eq!(store.stats().group_commits, 1, "single drain batch");
        }
        let seq = fs::read(wal_path(&seq_dir, 0)).unwrap();
        let grp = fs::read(wal_path(&grp_dir, 0)).unwrap();
        assert_eq!(seq, grp);
        fs::remove_dir_all(&seq_dir).ok();
        fs::remove_dir_all(&grp_dir).ok();
    }

    #[test]
    fn compaction_drains_enqueued_records_before_rotating() {
        let dir = temp_dir();
        let options = StoreOptions {
            fsync: false,
            compact_after_bytes: 0,
            group_commit_window_us: 0,
        };
        {
            let (mut store, _) = CatalogStore::open(&dir, options.clone()).unwrap();
            let t = students();
            // Enqueued but never waited on: compaction must still flush it
            // so the snapshot and the version clock agree.
            let _ticket = store.enqueue_register("A", 1, &t).unwrap();
            store
                .compact(&[SnapshotEntry {
                    alias: "A",
                    version: 1,
                    table: &t,
                }])
                .unwrap();
            assert_eq!(store.stats().wal_records, 0);
        }
        let (_, recovery) = CatalogStore::open(&dir, options).unwrap();
        assert_eq!(recovery.snapshot_generation, Some(1));
        assert_eq!(recovery.tables.len(), 1);
        assert_eq!(recovery.last_version, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn allocate_version_continues_past_recovery() {
        let dir = temp_dir();
        {
            let (mut store, _) = CatalogStore::open(&dir, StoreOptions::default()).unwrap();
            store.log_register("A", 7, &students()).unwrap();
        }
        {
            let (mut store, recovery) = CatalogStore::open(&dir, StoreOptions::default()).unwrap();
            assert_eq!(recovery.last_version, 7);
            store
                .log_register("B", recovery.last_version + 1, &students())
                .unwrap();
        }
        let (_, recovery) = CatalogStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recovery.last_version, 8);
        fs::remove_dir_all(&dir).ok();
    }
}
