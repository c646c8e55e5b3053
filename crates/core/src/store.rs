//! The versioned graph store behind a [`Session`]: creating and recovering
//! durable stores, transactions and commits, and the rebase and
//! checkpoint that fold the delta overlay away. The store's state lives
//! in the session's one state lock, next to the plan cache, so a commit
//! publishes its snapshot and sweeps the cache in one critical section.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use rig_graph::{CommitImpact, DataGraph, DeltaOverlay, Label, MutationOp, NodeId, Snapshot};
use rig_reach::{BflIndex, Reachability};
use rig_storage::{
    DurableStore, FsBackend, RecoveryReport, StorageBackend, StorageError, StoreOptions,
};

use crate::{Error, GmConfig, Session};

/// When the store compacts: rebases the delta into a fresh base and
/// checkpoints it.
///
/// Compaction triggers at the end of a commit once the commits since the
/// last checkpoint have applied at least `min_ops` mutations **and** at
/// least `ratio * (|V| + |E|)` of the current base segment's size. Both
/// knobs guard the two failure modes: tiny graphs should not recompact on
/// every commit, and huge graphs should not let the (hash-probed) overlay
/// and the WAL grow into a significant fraction of reads and recovery.
/// Read-time rebases do not reset the count, so they never delay a
/// checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// Minimum operations committed since the last checkpoint before
    /// compaction is considered.
    pub min_ops: u64,
    /// Those operations as a fraction of base size (nodes + edges).
    pub ratio: f64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy { min_ops: 4096, ratio: 0.25 }
    }
}

impl CompactionPolicy {
    /// Never compact automatically ([`Session::compact`] still works).
    pub const fn disabled() -> CompactionPolicy {
        CompactionPolicy { min_ops: u64::MAX, ratio: f64::INFINITY }
    }

    fn due(&self, ops_since_checkpoint: u64, base_size: u64) -> bool {
        ops_since_checkpoint >= self.min_ops
            && (ops_since_checkpoint as f64) >= self.ratio * base_size as f64
    }
}

/// Graph-store statistics (see [`Session::store_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Monotone store version: bumped by every commit.
    pub version: u64,
    /// Commits applied since the session opened.
    pub commits: u64,
    /// LSM compactions run (automatic + manual): rebase plus checkpoint.
    pub compactions: u64,
    /// Dirty snapshots rebased in memory and published (materialize plus
    /// a BFL index for the result, no storage I/O), by a RIG build, an
    /// analysis or a compaction.
    pub rebases: u64,
    /// Published rebases that extended the previous BFL index instead of
    /// rebuilding it: those whose delta removed nothing and added only
    /// nodes and edges the index already implied.
    pub index_extensions: u64,
    /// Total time the published rebases spent materializing the delta
    /// into a fresh base (none for a snapshot a reader had already
    /// materialized: the rebase takes that merge).
    pub rebase_materialize_time: Duration,
    /// Total time the published rebases spent building (or extending)
    /// the index of that base.
    pub rebase_index_time: Duration,
    /// Mutations currently resident in the delta overlay: 0 exactly when
    /// the current snapshot is clean.
    pub delta_ops: u64,
    /// Base segment size: node slots.
    pub base_nodes: usize,
    /// Base segment size: edges.
    pub base_edges: usize,
    /// Live nodes under the current snapshot.
    pub live_nodes: usize,
    /// Edges under the current snapshot.
    pub edges: usize,
    /// WAL flushes that failed (or found the store mutex poisoned) —
    /// including the best-effort final flush in `Drop`, so a server's
    /// /metrics surface can witness a failed shutdown flush instead of it
    /// vanishing into a swallowed error. Always 0 for in-memory sessions.
    pub wal_flush_failures: u64,
}

/// What one [`Session::commit`] did.
#[derive(Debug, Clone)]
pub struct CommitSummary {
    /// Store version the commit published.
    pub version: u64,
    pub nodes_added: u64,
    pub nodes_removed: u64,
    pub edges_added: u64,
    pub edges_removed: u64,
    /// Labels whose membership or incident adjacency changed.
    pub touched_labels: Vec<Label>,
    /// True when any edge changed (see [`CacheStats::invalidated`] rules).
    ///
    /// [`CacheStats::invalidated`]: crate::CacheStats::invalidated
    pub structural: bool,
    /// Cached plans dropped by the label-aware invalidation sweep.
    pub plans_invalidated: u64,
    /// Cached plans that survived the sweep.
    pub plans_retained: u64,
    /// True when this commit tripped the compaction threshold.
    pub compacted: bool,
}

/// A staged batch of graph mutations. Create with [`Session::begin`],
/// stage changes, publish atomically with [`Session::commit`] —
/// all-or-nothing: if any op fails validation the graph is untouched.
///
/// Node ids handed out by [`GraphTxn::add_node`] are *provisional*: they
/// become real iff the commit succeeds. Commits are optimistic — a txn
/// begun at store version `v` only commits against version `v`, so two
/// racing writers cannot interleave half-applied batches.
#[derive(Debug)]
pub struct GraphTxn {
    ops: Vec<MutationOp>,
    next_node: NodeId,
    start_version: u64,
}

impl GraphTxn {
    /// Stages a node addition; returns the id the node will have.
    pub fn add_node(&mut self, label: Label) -> NodeId {
        self.stage_node(MutationOp::AddNode(rig_graph::LabelSpec::Id(label)))
    }

    /// Stages a node addition labeled by name (interned on first use).
    pub fn add_named_node(&mut self, name: &str) -> NodeId {
        self.stage_node(MutationOp::AddNode(rig_graph::LabelSpec::Named(name.to_string())))
    }

    fn stage_node(&mut self, op: MutationOp) -> NodeId {
        self.ops.push(op);
        let id = self.next_node;
        self.next_node += 1;
        id
    }

    /// Stages a node removal (tombstones the id, drops incident edges).
    pub fn remove_node(&mut self, v: NodeId) {
        self.ops.push(MutationOp::RemoveNode(v));
    }

    /// Stages an edge addition (idempotent if the edge exists).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        self.ops.push(MutationOp::AddEdge(u, v));
    }

    /// Stages an edge removal (the edge must exist at commit time).
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) {
        self.ops.push(MutationOp::RemoveEdge(u, v));
    }

    /// Stages a pre-parsed [`MutationOp`] (the CLI mutation-script path).
    pub fn push(&mut self, op: MutationOp) {
        if matches!(op, MutationOp::AddNode(_)) {
            self.next_node += 1;
        }
        self.ops.push(op);
    }

    /// Number of staged operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// True when `delta` leaves reachability over its base as `base_bfl`
/// (the base's index) reports it: the delta removed nothing, and every
/// edge it added joins two base nodes that already reach each other. New
/// nodes then carry no edges, and no new edge creates a path, so the
/// materialized graph has the base's components plus one singleton per
/// new node. Node inserts always qualify; edge inserts only when implied.
fn preserves_reachability(delta: &DeltaOverlay, base_bfl: &BflIndex) -> bool {
    let base_n = delta.base().num_nodes() as NodeId;
    delta.edges_removed() == 0
        && delta.nodes_removed() == 0
        && delta
            .added_edges()
            .into_iter()
            .all(|(u, v)| u < base_n && v < base_n && base_bfl.reaches(u, v))
}

/// Locks the durable store, mapping a poisoned mutex (a writer panicked
/// mid-operation) to a typed [`StorageError::Poisoned`] instead of
/// propagating the panic — a server must degrade a poisoned store into an
/// error response, never abort a worker.
fn lock_store(store: &Mutex<DurableStore>) -> Result<MutexGuard<'_, DurableStore>, Error> {
    store.lock().map_err(|_| {
        Error::Storage(StorageError::Poisoned {
            detail: "store mutex poisoned by a panicked writer".to_string(),
        })
    })
}

impl Session {
    /// Creates a **durable** session: initializes a fresh store at `dir`
    /// (binary snapshot segment + empty WAL) holding `graph`, then every
    /// [`Session::commit`] is written ahead to the log before it
    /// publishes. Fails if `dir` already holds a store — reopen those
    /// with [`Session::open`].
    pub fn create_at(
        dir: impl AsRef<Path>,
        graph: impl Into<Arc<DataGraph>>,
    ) -> Result<Session, Error> {
        Session::create_at_with(
            dir,
            graph,
            GmConfig::default(),
            Arc::new(FsBackend),
            StoreOptions::default(),
        )
    }

    /// [`Session::create_at`] with explicit pipeline config, storage
    /// backend (fault injection in tests) and durability options.
    pub fn create_at_with(
        dir: impl AsRef<Path>,
        graph: impl Into<Arc<DataGraph>>,
        config: GmConfig,
        backend: Arc<dyn StorageBackend>,
        opts: StoreOptions,
    ) -> Result<Session, Error> {
        let base = graph.into();
        let store = DurableStore::create(backend, dir.as_ref(), &base, 0, opts)?;
        let mut session = Session::with_config(base, config);
        session.store = Some(Mutex::new(store));
        Ok(session)
    }

    /// Recovers a durable session from the store at `dir`: loads the last
    /// durable snapshot segment, replays the WAL (tolerating a torn tail),
    /// and resumes at the recovered version. [`Session::recovery_report`]
    /// tells what happened.
    pub fn open(dir: impl AsRef<Path>) -> Result<Session, Error> {
        Session::open_with(dir, GmConfig::default(), Arc::new(FsBackend), StoreOptions::default())
    }

    /// [`Session::open`] with explicit pipeline config, storage backend
    /// and durability options.
    pub fn open_with(
        dir: impl AsRef<Path>,
        config: GmConfig,
        backend: Arc<dyn StorageBackend>,
        opts: StoreOptions,
    ) -> Result<Session, Error> {
        let dir = dir.as_ref();
        let (store, recovered) = DurableStore::open(backend, dir, opts)?;
        let base = Arc::new(recovered.base);
        let bfl = BflIndex::new(&base);
        let mut overlay = DeltaOverlay::new(base);
        let mut version = recovered.base_version;
        for rec in &recovered.txns {
            let mut impact = CommitImpact::default();
            for op in &rec.ops {
                // a durable record that no longer applies means the log and
                // segment disagree — that is corruption, not a user error
                overlay.apply(op, &mut impact).map_err(|e| StorageError::Corrupt {
                    path: dir.join("wal.log"),
                    detail: format!("replaying committed version {}: {e}", rec.version),
                })?;
            }
            version = rec.version;
        }
        // the replayed records are not checkpointed yet: they count
        // towards the next compaction exactly as before the restart
        let ops_since_checkpoint = overlay.ops();
        let snapshot = Snapshot::new(Arc::new(overlay), version);
        let mut session = Session::assemble(snapshot, bfl, ops_since_checkpoint, config);
        session.store = Some(Mutex::new(store));
        session.recovery = Some(recovered.report);
        Ok(session)
    }

    /// True when commits are written ahead to a durable store.
    pub fn is_durable(&self) -> bool {
        self.store.is_some()
    }

    /// The recovery report, when this session came from [`Session::open`].
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// fsyncs any WAL records batched but not yet synced (a no-op under
    /// `Durability::Strict`). Call before a planned shutdown under
    /// `Durability::Batched` to close the loss window; dropping the
    /// session does this best-effort.
    ///
    /// Failures — including a store mutex poisoned by a panicked writer —
    /// come back as typed [`Error::Storage`] values (never a panic) and
    /// are counted in [`StoreStats::wal_flush_failures`].
    pub fn flush_wal(&self) -> Result<(), Error> {
        let Some(store) = &self.store else { return Ok(()) };
        let result = lock_store(store).and_then(|mut s| Ok(s.flush()?));
        if result.is_err() {
            self.wal_flush_failures.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Sets the delta-compaction policy. Builder-style; call right after
    /// construction.
    pub fn with_compaction(mut self, policy: CompactionPolicy) -> Session {
        self.compaction = policy;
        self
    }

    /// The current graph snapshot: an O(1) immutable view. Holding it
    /// pins nothing — later commits simply publish newer snapshots.
    pub fn graph(&self) -> Arc<Snapshot> {
        Arc::clone(&self.state().snapshot)
    }

    /// The concrete BFL index of the current **base segment**, for
    /// harnesses that drive RIG construction outside the session. On a
    /// dirty snapshot pair it with [`rig_reach::SnapshotReach`]. Any
    /// RIG build or analysis may rebase in between two calls, so take
    /// [`Session::graph`] and this index with no read running.
    pub fn bfl(&self) -> Arc<BflIndex> {
        Arc::clone(&self.state().bfl)
    }

    /// Reachability-index construction time (Fig. 18a's "BFL" column).
    /// After a rebase that extended the previous index (see
    /// [`StoreStats::index_extensions`]) this is the time of that
    /// extension, not of a full build.
    pub fn index_build_time(&self) -> Duration {
        Duration::from_secs_f64(self.bfl().build_seconds())
    }

    /// Starts a mutation transaction against the current store version.
    pub fn begin(&self) -> GraphTxn {
        let st = self.state();
        GraphTxn {
            ops: Vec::new(),
            next_node: st.snapshot.num_nodes() as NodeId,
            start_version: st.snapshot.version(),
        }
    }

    /// Atomically applies a transaction: validates and applies every op to
    /// a private copy of the delta, publishes a new snapshot on success,
    /// sweeps the plan cache by label-set fingerprint, and compacts the
    /// store if the delta crossed the policy threshold. Fails without side
    /// effects on the first invalid op, if another commit landed since
    /// [`Session::begin`] (optimistic concurrency), or if the store is at
    /// version `u64::MAX`, which no version can follow.
    pub fn commit(&self, txn: GraphTxn) -> Result<CommitSummary, Error> {
        let mut st = self.state();
        let current = st.snapshot.version();
        if current != txn.start_version {
            return Err(Error::Conflict { started_at: txn.start_version, current });
        }
        // a store opened at the last version has no next one: refuse
        // before anything is logged or published
        let version = current.checked_add(1).ok_or_else(|| {
            Error::validation(format!("store version {current} is the last; no commit can follow"))
        })?;
        let mut overlay: DeltaOverlay = (**st.snapshot.delta()).clone();
        let mut impact = CommitImpact::default();
        for op in &txn.ops {
            overlay.apply(op, &mut impact).map_err(Error::validation)?;
        }
        // write-ahead: the record must be durable (to the policy's
        // standard) before the commit publishes. On error nothing was
        // published and the store rolled back, so the commit simply fails.
        if let Some(store) = &self.store {
            lock_store(store)?.log_commit(version, &txn.ops)?;
        }
        st.commits += 1;
        st.pairs = None;
        st.ops_since_checkpoint += impact.ops();
        let ops_since_checkpoint = st.ops_since_checkpoint;
        let base = overlay.base();
        let base_size = (base.num_nodes() + base.num_edges()) as u64;
        st.snapshot = Arc::new(Snapshot::new(Arc::new(overlay), version));
        let (plans_invalidated, plans_retained) = st.cache.invalidate(&impact);
        drop(st);

        // compaction happens *outside* the state lock (materialize and the
        // BFL index are the expensive part) so readers keep executing
        // against the just-published snapshot in the meantime
        let compacted =
            self.compaction.due(ops_since_checkpoint, base_size) && self.compact_at(version);
        let mut touched_labels: Vec<Label> = impact.touched.iter().copied().collect();
        touched_labels.sort_unstable();
        Ok(CommitSummary {
            version,
            nodes_added: impact.nodes_added,
            nodes_removed: impact.nodes_removed,
            edges_added: impact.edges_added,
            edges_removed: impact.edges_removed,
            touched_labels,
            structural: impact.structural,
            plans_invalidated,
            plans_retained,
            compacted,
        })
    }

    /// Convenience: begin + stage `ops` + commit.
    pub fn apply(&self, ops: &[MutationOp]) -> Result<CommitSummary, Error> {
        let mut txn = self.begin();
        for op in ops {
            txn.push(op.clone());
        }
        self.commit(txn)
    }

    /// Forces a compaction now: rebase the delta into a fresh base, then
    /// checkpoint it. Returns `false` when there is nothing to fold (a
    /// clean snapshot, and on a durable session no commit since the last
    /// checkpoint) or a concurrent commit raced the compaction (that
    /// commit will trigger its own if it is still over threshold).
    pub fn compact(&self) -> bool {
        let version = {
            let st = self.state();
            let unsaved = self.store.is_some() && st.ops_since_checkpoint > 0;
            if !st.snapshot.is_dirty() && !unsaved {
                return false;
            }
            st.snapshot.version()
        };
        self.compact_at(version)
    }

    /// Compacts the snapshot published at `version`: a rebase (skipped
    /// when a read already rebased that version) followed by a checkpoint
    /// of the clean base, both **outside the state lock**. The WAL is
    /// truncated iff no commit landed in the meantime; losing that race
    /// leaves a harmless extra segment (replay skips the records it
    /// absorbed), and the racing commit re-evaluates the threshold itself.
    /// If the checkpoint fails the previous segment and the full WAL stay
    /// authoritative and the next commit retries.
    fn compact_at(&self, version: u64) -> bool {
        let snapshot = {
            let st = self.state();
            if st.snapshot.version() != version {
                return false;
            }
            Arc::clone(&st.snapshot)
        };
        let base = if snapshot.is_dirty() {
            Arc::clone(self.rebase(&snapshot).0.base())
        } else {
            Arc::clone(snapshot.base())
        };
        if let Some(store) = &self.store {
            let Ok(mut s) = lock_store(store) else { return false };
            if s.checkpoint(&base, version).is_err() {
                return false;
            }
        }
        let mut st = self.state();
        if st.snapshot.version() != version {
            return false;
        }
        if let Some(store) = &self.store {
            // safe under the state lock: no commit newer than `version`
            // can be logged concurrently. Best-effort — a failed truncate
            // leaves records the next replay skips.
            if let Ok(mut s) = lock_store(store) {
                let _ = s.truncate_wal(version);
            }
        }
        st.ops_since_checkpoint = 0;
        st.compactions += 1;
        true
    }

    /// Rebases the dirty `snapshot`: takes its materialization (merged
    /// here, or earlier by a reader of the snapshot, never twice) and
    /// builds the BFL index of the result **without holding the state
    /// lock**, and publishes the clean pair iff no commit landed in the
    /// meantime.
    /// Either way the caller gets a clean snapshot of its own version plus
    /// its BFL, so snapshot isolation is unchanged. Touches no storage.
    /// Single-flight: a racer that waited on the rebase lock finds the
    /// clean pair published and reuses it. Cached plans are kept: a rebase
    /// changes representation, never the graph.
    ///
    /// The index is extended, not rebuilt, when the published one indexes
    /// exactly `snapshot`'s base and the delta preserves reachability (see
    /// [`preserves_reachability`]): the new nodes join it as singleton
    /// components. Every other delta rebuilds it from scratch.
    pub(crate) fn rebase(&self, snapshot: &Snapshot) -> (Arc<Snapshot>, Arc<BflIndex>) {
        let version = snapshot.version();
        let _flight = self.rebase.lock().unwrap_or_else(PoisonError::into_inner);
        let parent = {
            let st = self.state();
            if st.snapshot.version() == version && !st.snapshot.is_dirty() {
                return (Arc::clone(&st.snapshot), Arc::clone(&st.bfl));
            }
            // the published index describes the published base; a rebase
            // of an older version may see a newer base here, and must not
            // borrow its index
            Arc::ptr_eq(st.snapshot.base(), snapshot.base()).then(|| Arc::clone(&st.bfl))
        };
        let start = Instant::now();
        let merged = Arc::clone(snapshot.materialized());
        let materialized = Instant::now();
        let extend = parent.filter(|bfl| preserves_reachability(snapshot.delta(), bfl));
        let bfl = Arc::new(match &extend {
            Some(parent) => parent.extended(merged.num_nodes()),
            None => BflIndex::new(&merged),
        });
        let indexed = Instant::now();
        let clean = Arc::new(Snapshot::new(Arc::new(DeltaOverlay::new(merged)), version));
        let mut st = self.state();
        if st.snapshot.version() == version {
            st.snapshot = Arc::clone(&clean);
            st.bfl = Arc::clone(&bfl);
            st.rebases += 1;
            st.index_extensions += u64::from(extend.is_some());
            st.rebase_materialize += materialized - start;
            st.rebase_index += indexed - materialized;
        }
        (clean, bfl)
    }

    /// Graph-store counters.
    pub fn store_stats(&self) -> StoreStats {
        let st = self.state();
        let base = st.snapshot.base();
        StoreStats {
            version: st.snapshot.version(),
            commits: st.commits,
            compactions: st.compactions,
            rebases: st.rebases,
            index_extensions: st.index_extensions,
            rebase_materialize_time: st.rebase_materialize,
            rebase_index_time: st.rebase_index,
            delta_ops: st.snapshot.delta().ops(),
            base_nodes: base.num_nodes(),
            base_edges: base.num_edges(),
            live_nodes: st.snapshot.num_live_nodes(),
            edges: st.snapshot.num_edges(),
            wal_flush_failures: self.wal_flush_failures.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // close the Batched loss window on a planned shutdown; a failure
        // here is indistinguishable from a crash an instant later (which
        // the recovery path already handles), but `flush_wal` *records*
        // it in `wal_flush_failures` rather than swallowing it, so
        // anything still holding a stats snapshot path (a server's
        // /metrics scrape racing the drop) can witness it
        let _ = self.flush_wal();
    }
}
