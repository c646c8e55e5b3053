//! The durable store: segment + WAL lifecycle over a [`StorageBackend`].
//!
//! A [`DurableStore`] owns the files of one store directory. It does not
//! know about sessions or snapshots — `rig_core::Session` drives it:
//! `log_commit` before publishing a commit in memory, `checkpoint` +
//! `truncate_wal` around compaction, `open` to recover after a restart.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use rig_graph::{decode_segment, encode_segment, DataGraph, MutationOp};

use crate::wal::{encode_wal_record, replay_wal, WalRecord};
use crate::{corrupt, io_err, Durability, RecoveryReport, StorageBackend, StorageError};

const WAL_FILE: &str = "wal.log";
const TMP_FILE: &str = "segment.tmp";

/// The name of the snapshot segment capturing store version `version`.
/// Zero-padded so lexicographic file order is version order.
pub fn segment_file_name(version: u64) -> String {
    format!("segment-{version:020}.seg")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("segment-")?.strip_suffix(".seg")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Store tuning: durability policy and the batched-fsync interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    pub durability: Durability,
    /// Under [`Durability::Batched`], fsync after this many unsynced
    /// commits.
    pub batch_commits: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions { durability: Durability::Strict, batch_commits: 32 }
    }
}

impl StoreOptions {
    pub fn with_durability(durability: Durability) -> StoreOptions {
        StoreOptions { durability, ..StoreOptions::default() }
    }
}

/// What [`DurableStore::open`] recovered: the snapshot graph, the
/// transactions to replay on top (in version order, contiguous from
/// `base_version + 1`), and the report.
pub struct Recovered {
    pub base: DataGraph,
    pub base_version: u64,
    pub txns: Vec<WalRecord>,
    pub report: RecoveryReport,
}

/// Durable companion of one versioned store: a snapshot segment plus the
/// WAL of commits since that segment was written.
pub struct DurableStore {
    backend: Arc<dyn StorageBackend>,
    dir: PathBuf,
    opts: StoreOptions,
    /// Bytes of the WAL known to hold valid records (the rollback point
    /// for failed appends).
    wal_len: u64,
    /// Commits appended since the last successful fsync.
    unsynced_commits: usize,
    /// Set when a failed append/sync could not be rolled back: further
    /// writes would compound the damage, so they are refused.
    poisoned: Option<String>,
}

impl DurableStore {
    fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }

    /// True iff `dir` already holds a store (any segment file).
    pub fn is_initialized(backend: &dyn StorageBackend, dir: &Path) -> bool {
        backend
            .list(dir)
            .map(|names| names.iter().any(|n| parse_segment_name(n).is_some()))
            .unwrap_or(false)
    }

    /// Initializes a fresh store at `dir` holding `graph` as version
    /// `version` and an empty WAL. Fails if a store is already present.
    pub fn create(
        backend: Arc<dyn StorageBackend>,
        dir: &Path,
        graph: &DataGraph,
        version: u64,
        opts: StoreOptions,
    ) -> Result<DurableStore, StorageError> {
        backend.create_dir_all(dir).map_err(io_err("create dir", dir))?;
        if Self::is_initialized(backend.as_ref(), dir) {
            return Err(corrupt(dir, "refusing to create: directory already holds a store"));
        }
        let mut store = DurableStore {
            backend,
            dir: dir.to_path_buf(),
            opts,
            wal_len: 0,
            unsynced_commits: 0,
            poisoned: None,
        };
        store.write_segment(graph, version)?;
        let wal = store.wal_path();
        store.backend.write(&wal, &[]).map_err(io_err("create wal", &wal))?;
        store.backend.sync(&wal).map_err(io_err("sync wal", &wal))?;
        Ok(store)
    }

    /// Recovers the store at `dir`: newest decodable segment + WAL replay
    /// with prefix durability, then repairs the WAL tail so future appends
    /// extend a clean log.
    pub fn open(
        backend: Arc<dyn StorageBackend>,
        dir: &Path,
        opts: StoreOptions,
    ) -> Result<(DurableStore, Recovered), StorageError> {
        let names = backend.list(dir).map_err(io_err("list dir", dir))?;
        let mut segments: Vec<(u64, String)> =
            names.iter().filter_map(|n| parse_segment_name(n).map(|v| (v, n.clone()))).collect();
        if segments.is_empty() {
            return Err(StorageError::NotInitialized { dir: dir.to_path_buf() });
        }
        segments.sort();
        segments.reverse(); // newest first

        let mut report = RecoveryReport::default();
        let mut chosen: Option<(DataGraph, u64)> = None;
        for (version, name) in &segments {
            let path = dir.join(name);
            let bytes = backend.read(&path).map_err(io_err("read segment", &path))?;
            match decode_segment(&bytes) {
                Ok((graph, stored_version)) if stored_version == *version => {
                    chosen = Some((graph, *version));
                    break;
                }
                Ok((_, stored_version)) => report.corrupt_segments.push(format!(
                    "{name} (stores version {stored_version}, file name says {version})"
                )),
                Err(e) => report.corrupt_segments.push(format!("{name} ({})", e.message)),
            }
        }
        let Some((base, base_version)) = chosen else {
            return Err(corrupt(
                dir,
                format!("no segment decodes cleanly: {}", report.corrupt_segments.join("; ")),
            ));
        };
        report.snapshot_version = base_version;

        // WAL replay: prefix durability, tail repair
        let wal = dir.join(WAL_FILE);
        let wal_bytes = if backend.exists(&wal) {
            backend.read(&wal).map_err(io_err("read wal", &wal))?
        } else {
            Vec::new()
        };
        let scan = replay_wal(&wal, &wal_bytes)?;
        let torn = wal_bytes.len() as u64 - scan.valid_len;
        report.wal_truncated_bytes = torn;
        if torn > 0 {
            backend.truncate(&wal, scan.valid_len).map_err(io_err("repair wal tail", &wal))?;
            backend.sync(&wal).map_err(io_err("sync wal", &wal))?;
        }

        // records <= base_version are leftovers of a crash between
        // checkpoint rename and WAL truncation; the rest must be a
        // contiguous version run on top of the snapshot, or commits have
        // gone missing (e.g. recovery fell back to an older segment after
        // the WAL was truncated for a newer one)
        // (tracking the last version, not the next: a segment may hold
        // `u64::MAX`)
        let mut txns: Vec<WalRecord> = Vec::new();
        let mut last = base_version;
        for rec in scan.records {
            if rec.version <= base_version {
                report.wal_records_skipped += 1;
                continue;
            }
            if rec.version - 1 != last {
                return Err(corrupt(
                    &wal,
                    format!(
                        "wal version {} does not continue the store (last {last}, \
                         snapshot at {base_version}): committed transactions are missing",
                        rec.version
                    ),
                ));
            }
            last = rec.version;
            txns.push(rec);
        }
        report.wal_records_replayed = txns.len() as u64;
        report.recovered_version = last;

        let store = DurableStore {
            backend,
            dir: dir.to_path_buf(),
            opts,
            wal_len: scan.valid_len,
            unsynced_commits: 0,
            poisoned: None,
        };
        Ok((store, Recovered { base, base_version, txns, report }))
    }

    /// The store's durability policy.
    pub fn options(&self) -> StoreOptions {
        self.opts
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Valid WAL bytes (diagnostics / compaction heuristics).
    pub fn wal_len(&self) -> u64 {
        self.wal_len
    }

    fn check_poisoned(&self) -> Result<(), StorageError> {
        match &self.poisoned {
            Some(detail) => Err(StorageError::Poisoned { detail: detail.clone() }),
            None => Ok(()),
        }
    }

    /// Rolls the WAL back to the last known-good length after a failed
    /// append/sync; on rollback failure the store poisons itself.
    fn rollback_wal(&mut self, cause: &StorageError) {
        let wal = self.wal_path();
        if let Err(e) = self.backend.truncate(&wal, self.wal_len) {
            self.poisoned =
                Some(format!("wal rollback to {} bytes failed ({e}) after: {cause}", self.wal_len));
        }
    }

    /// Makes the transaction that will publish `version` durable (to the
    /// policy's standard). Must be called *before* the commit is
    /// acknowledged or published in memory; on error nothing was
    /// acknowledged and the WAL has been rolled back to its previous
    /// record boundary (or the store is poisoned).
    pub fn log_commit(&mut self, version: u64, ops: &[MutationOp]) -> Result<(), StorageError> {
        self.check_poisoned()?;
        let wal = self.wal_path();
        let record = encode_wal_record(version, ops);
        if let Err(e) = self.backend.append(&wal, &record) {
            let err = io_err("append wal", &wal)(e);
            self.rollback_wal(&err);
            return Err(err);
        }
        self.unsynced_commits += 1;
        let must_sync = match self.opts.durability {
            Durability::Strict => true,
            Durability::Batched => self.unsynced_commits >= self.opts.batch_commits.max(1),
            Durability::None => false,
        };
        if must_sync {
            if let Err(e) = self.backend.sync(&wal) {
                let err = io_err("sync wal", &wal)(e);
                // under Strict the commit is not acknowledged without its
                // fsync, so undo the record; under Batched earlier commits
                // in the window were acknowledged with a loss window
                // anyway, but *this* one still fails, so undo it too
                self.unsynced_commits -= 1;
                self.rollback_wal(&err);
                return Err(err);
            }
            self.unsynced_commits = 0;
        }
        self.wal_len += record.len() as u64;
        Ok(())
    }

    /// fsyncs any batched-but-unsynced WAL records.
    pub fn flush(&mut self) -> Result<(), StorageError> {
        self.check_poisoned()?;
        if self.unsynced_commits == 0 {
            return Ok(());
        }
        let wal = self.wal_path();
        self.backend.sync(&wal).map_err(io_err("sync wal", &wal))?;
        self.unsynced_commits = 0;
        Ok(())
    }

    fn write_segment(&mut self, graph: &DataGraph, version: u64) -> Result<(), StorageError> {
        let tmp = self.dir.join(TMP_FILE);
        let dst = self.dir.join(segment_file_name(version));
        let bytes = encode_segment(graph, version);
        self.backend.write(&tmp, &bytes).map_err(io_err("write segment", &tmp))?;
        self.backend.sync(&tmp).map_err(io_err("sync segment", &tmp))?;
        self.backend.rename(&tmp, &dst).map_err(io_err("install segment", &dst))?;
        self.backend.sync_dir(&self.dir).map_err(io_err("sync dir", &self.dir))?;
        Ok(())
    }

    /// Writes the snapshot segment for `graph` at `version` (write-new,
    /// fsync, atomic rename, directory fsync). Safe to run while commits
    /// continue: until [`truncate_wal`](Self::truncate_wal) the WAL still
    /// holds every record, and replay skips the ones the segment absorbed.
    /// A checkpoint failure leaves the previous segment + full WAL intact.
    pub fn checkpoint(&mut self, graph: &DataGraph, version: u64) -> Result<(), StorageError> {
        self.check_poisoned()?;
        // an unsynced batched tail must be durable before the WAL shrinks
        self.flush()?;
        self.write_segment(graph, version)
    }

    /// Empties the WAL after a successful [`checkpoint`](Self::checkpoint)
    /// and garbage-collects segments older than `keep_version`. The caller
    /// must guarantee no commit newer than `keep_version` has been logged
    /// (the session holds its state lock across this).
    pub fn truncate_wal(&mut self, keep_version: u64) -> Result<(), StorageError> {
        self.check_poisoned()?;
        let wal = self.wal_path();
        self.backend.truncate(&wal, 0).map_err(io_err("truncate wal", &wal))?;
        // account for the truncate before the sync can fail: `wal_len`
        // must track the file's actual length or a later rollback would
        // cut (or zero-extend) at the wrong offset
        self.wal_len = 0;
        self.unsynced_commits = 0;
        self.backend.sync(&wal).map_err(io_err("sync wal", &wal))?;
        // older segments are now unreferenced; removal is best-effort
        if let Ok(names) = self.backend.list(&self.dir) {
            for name in names {
                if let Some(v) = parse_segment_name(&name) {
                    if v < keep_version {
                        let _ = self.backend.remove(&self.dir.join(name));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemBackend;
    use rig_graph::{GraphBuilder, LabelSpec};

    fn tiny_graph() -> DataGraph {
        let mut b = GraphBuilder::new();
        let x = b.add_node_with_name(0, "A");
        let y = b.add_node_with_name(1, "B");
        b.add_edge(x, y);
        b.build()
    }

    fn dir() -> PathBuf {
        PathBuf::from("/store")
    }

    #[test]
    fn create_open_round_trip() {
        let backend = Arc::new(MemBackend::new());
        let g = tiny_graph();
        let mut store =
            DurableStore::create(backend.clone(), &dir(), &g, 0, StoreOptions::default()).unwrap();
        store.log_commit(1, &[MutationOp::AddNode(LabelSpec::Id(0))]).unwrap();
        store.log_commit(2, &[MutationOp::AddEdge(2, 0)]).unwrap();
        let (_, rec) = DurableStore::open(backend, &dir(), StoreOptions::default()).unwrap();
        assert_eq!(rec.base_version, 0);
        assert_eq!(rec.base.num_nodes(), 2);
        assert_eq!(rec.txns.len(), 2);
        assert_eq!(rec.report.recovered_version, 2);
        assert_eq!(rec.report.wal_truncated_bytes, 0);
    }

    #[test]
    fn create_refuses_existing_store() {
        let backend = Arc::new(MemBackend::new());
        let g = tiny_graph();
        DurableStore::create(backend.clone(), &dir(), &g, 0, StoreOptions::default()).unwrap();
        match DurableStore::create(backend, &dir(), &g, 0, StoreOptions::default()) {
            Err(StorageError::Corrupt { .. }) => {}
            other => panic!("expected refusal, got {:?}", other.err()),
        }
    }

    #[test]
    fn open_empty_dir_is_not_initialized() {
        let backend = Arc::new(MemBackend::new());
        match DurableStore::open(backend, &dir(), StoreOptions::default()) {
            Err(StorageError::NotInitialized { .. }) => {}
            other => panic!("expected NotInitialized, got {:?}", other.err()),
        }
    }

    #[test]
    fn checkpoint_then_crash_before_truncate_skips_absorbed_records() {
        let backend = Arc::new(MemBackend::new());
        let g = tiny_graph();
        let mut store =
            DurableStore::create(backend.clone(), &dir(), &g, 0, StoreOptions::default()).unwrap();
        store.log_commit(1, &[MutationOp::AddNode(LabelSpec::Id(0))]).unwrap();
        store.log_commit(2, &[MutationOp::AddNode(LabelSpec::Id(1))]).unwrap();
        // checkpoint at version 2 but "crash" before truncate_wal
        store.checkpoint(&g, 2).unwrap();
        drop(store);
        let (_, rec) = DurableStore::open(backend, &dir(), StoreOptions::default()).unwrap();
        assert_eq!(rec.base_version, 2);
        assert_eq!(rec.txns.len(), 0);
        assert_eq!(rec.report.wal_records_skipped, 2);
        assert_eq!(rec.report.recovered_version, 2);
    }

    #[test]
    fn truncate_wal_collects_old_segments() {
        let backend = Arc::new(MemBackend::new());
        let g = tiny_graph();
        let mut store =
            DurableStore::create(backend.clone(), &dir(), &g, 0, StoreOptions::default()).unwrap();
        store.log_commit(1, &[MutationOp::AddNode(LabelSpec::Id(0))]).unwrap();
        store.checkpoint(&g, 1).unwrap();
        store.truncate_wal(1).unwrap();
        let names = backend.list(&dir()).unwrap();
        assert!(names.contains(&segment_file_name(1)));
        assert!(!names.contains(&segment_file_name(0)), "old segment collected: {names:?}");
        let (_, rec) = DurableStore::open(backend, &dir(), StoreOptions::default()).unwrap();
        assert_eq!(rec.base_version, 1);
        assert_eq!(rec.txns.len(), 0);
    }

    #[test]
    fn torn_append_rolls_back_and_next_commit_succeeds() {
        let backend = Arc::new(MemBackend::new());
        let g = tiny_graph();
        let mut store =
            DurableStore::create(backend.clone(), &dir(), &g, 0, StoreOptions::default()).unwrap();
        store.log_commit(1, &[MutationOp::AddNode(LabelSpec::Id(0))]).unwrap();
        // tear the next append after 5 bytes; ops so far: segment write,
        // rename, wal create, commit append — the tear hits op 5
        backend.short_append_at(5, 5);
        match store.log_commit(2, &[MutationOp::AddNode(LabelSpec::Id(1))]) {
            Err(StorageError::Io { op: "append wal", .. }) => {}
            other => panic!("expected append failure, got {:?}", other.err()),
        }
        // rollback repaired the log: the retry lands cleanly
        store.log_commit(2, &[MutationOp::AddNode(LabelSpec::Id(1))]).unwrap();
        let (_, rec) = DurableStore::open(backend, &dir(), StoreOptions::default()).unwrap();
        assert_eq!(rec.txns.len(), 2);
        assert_eq!(rec.report.recovered_version, 2);
        assert_eq!(rec.report.wal_truncated_bytes, 0);
    }

    #[test]
    fn fsync_failure_is_unacked_and_rolled_back() {
        let backend = Arc::new(MemBackend::new());
        let g = tiny_graph();
        let mut store =
            DurableStore::create(backend.clone(), &dir(), &g, 0, StoreOptions::default()).unwrap();
        // syncs so far: segment, dir, wal create = 3; the next commit's
        // fsync is #4
        backend.fail_sync_at(4);
        match store.log_commit(1, &[MutationOp::AddNode(LabelSpec::Id(0))]) {
            Err(StorageError::Io { op: "sync wal", .. }) => {}
            other => panic!("expected sync failure, got {:?}", other.err()),
        }
        // the record was rolled back: recovery sees an empty store
        let (_, rec) =
            DurableStore::open(backend.clone(), &dir(), StoreOptions::default()).unwrap();
        assert_eq!(rec.txns.len(), 0);
        // and the store keeps working
        store.log_commit(1, &[MutationOp::AddNode(LabelSpec::Id(0))]).unwrap();
        let (_, rec) = DurableStore::open(backend, &dir(), StoreOptions::default()).unwrap();
        assert_eq!(rec.txns.len(), 1);
    }

    #[test]
    fn rollback_failure_poisons_the_store() {
        let backend = Arc::new(MemBackend::new());
        let g = tiny_graph();
        let mut store =
            DurableStore::create(backend.clone(), &dir(), &g, 0, StoreOptions::default()).unwrap();
        backend.wedge_after_fault();
        backend.short_append_at(4, 3); // commit append tears, then wedged
        assert!(store.log_commit(1, &[MutationOp::AddNode(LabelSpec::Id(0))]).is_err());
        match store.log_commit(2, &[MutationOp::AddNode(LabelSpec::Id(0))]) {
            Err(StorageError::Poisoned { .. }) => {}
            other => panic!("expected Poisoned, got {:?}", other.err()),
        }
        // after the machine comes back, recovery still works and shows the
        // clean prefix (nothing was acknowledged)
        backend.simulate_crash();
        let (_, rec) = DurableStore::open(backend, &dir(), StoreOptions::default()).unwrap();
        assert_eq!(rec.txns.len(), 0);
        assert_eq!(rec.report.recovered_version, 0);
    }

    #[test]
    fn power_loss_respects_durability_policy() {
        // Strict: every acked commit survives a crash
        let backend = Arc::new(MemBackend::new());
        let g = tiny_graph();
        let mut store = DurableStore::create(
            backend.clone(),
            &dir(),
            &g,
            0,
            StoreOptions::with_durability(Durability::Strict),
        )
        .unwrap();
        for v in 1..=5 {
            store.log_commit(v, &[MutationOp::AddNode(LabelSpec::Id(0))]).unwrap();
        }
        backend.simulate_crash();
        let (_, rec) = DurableStore::open(backend, &dir(), StoreOptions::default()).unwrap();
        assert_eq!(rec.report.recovered_version, 5);

        // None: a crash may drop everything since the last OS flush — the
        // store still recovers cleanly to a prefix
        let backend = Arc::new(MemBackend::new());
        let mut store = DurableStore::create(
            backend.clone(),
            &dir(),
            &g,
            0,
            StoreOptions::with_durability(Durability::None),
        )
        .unwrap();
        for v in 1..=5 {
            store.log_commit(v, &[MutationOp::AddNode(LabelSpec::Id(0))]).unwrap();
        }
        backend.simulate_crash();
        let (_, rec) = DurableStore::open(backend, &dir(), StoreOptions::default()).unwrap();
        assert_eq!(rec.report.recovered_version, 0, "unsynced commits lost, prefix clean");
    }

    #[test]
    fn batched_interval_bounds_the_loss_window() {
        let backend = Arc::new(MemBackend::new());
        let g = tiny_graph();
        let opts = StoreOptions { durability: Durability::Batched, batch_commits: 3 };
        let mut store = DurableStore::create(backend.clone(), &dir(), &g, 0, opts).unwrap();
        for v in 1..=7 {
            store.log_commit(v, &[MutationOp::AddNode(LabelSpec::Id(0))]).unwrap();
        }
        backend.simulate_crash();
        // commits 1..=6 covered by the two interval fsyncs; 7 was in the
        // open window
        let (_, rec) = DurableStore::open(backend, &dir(), StoreOptions::default()).unwrap();
        assert_eq!(rec.report.recovered_version, 6);
    }

    #[test]
    fn segment_bit_flip_falls_back_or_errors() {
        let backend = Arc::new(MemBackend::new());
        let g = tiny_graph();
        let mut store =
            DurableStore::create(backend.clone(), &dir(), &g, 0, StoreOptions::default()).unwrap();
        store.log_commit(1, &[MutationOp::AddNode(LabelSpec::Id(0))]).unwrap();
        // only one segment exists; corrupting it must be a typed error
        let seg = dir().join(segment_file_name(0));
        backend.corrupt(&seg, 25, 0x40);
        match DurableStore::open(backend, &dir(), StoreOptions::default()) {
            Err(StorageError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {:?}", other.err()),
        }
    }

    #[test]
    fn stale_older_segment_cannot_silently_lose_commits() {
        // segment-0 and segment-2 both present (crash before GC), WAL
        // truncated at the version-2 checkpoint; if segment-2 is corrupt,
        // falling back to segment-0 would need WAL records 1..=2 that are
        // gone — recovery must error, not serve the stale state
        let backend = Arc::new(MemBackend::new());
        let g = tiny_graph();
        let mut store =
            DurableStore::create(backend.clone(), &dir(), &g, 0, StoreOptions::default()).unwrap();
        store.log_commit(1, &[MutationOp::AddNode(LabelSpec::Id(0))]).unwrap();
        store.log_commit(2, &[MutationOp::AddNode(LabelSpec::Id(1))]).unwrap();
        store.checkpoint(&g, 2).unwrap();
        // truncate the wal but keep segment-0 (simulate GC not running)
        let wal = dir().join(WAL_FILE);
        backend.truncate(&wal, 0).unwrap();
        store.log_commit(3, &[MutationOp::AddNode(LabelSpec::Id(0))]).unwrap();
        let seg2 = dir().join(segment_file_name(2));
        backend.corrupt(&seg2, 30, 0x01);
        match DurableStore::open(backend, &dir(), StoreOptions::default()) {
            Err(StorageError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {:?}", other.err()),
        }
    }
}
