//! The `Session` API — the single front door to the GM pipeline.
//!
//! A [`Session`] owns a **versioned graph store** (base CSR segment + delta
//! overlay), its BFL reachability index, and an LRU cache of built RIGs
//! (the per-query "plans" of this engine). Queries enter as HPQL text
//! (`MATCH (a:Author)->(p:Paper)=>(q:Paper)`) or as hand-built
//! [`PatternQuery`] values, are parsed / validated / transitively reduced /
//! canonicalized **once** by [`Session::prepare`], and then execute any
//! number of times through the [`Run`] builder:
//!
//! ```
//! use rig_core::Session;
//! use rig_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new();
//! let a = b.add_named_node("Author");
//! let p = b.add_named_node("Paper");
//! let q = b.add_named_node("Paper");
//! b.add_edge(a, p);
//! b.add_edge(p, q);
//! let session = Session::new(b.build());
//!
//! let prepared = session.prepare("MATCH (a:Author)->(p:Paper)=>(q:Paper)").unwrap();
//! assert_eq!(prepared.run().count().result.count, 1);
//! // the second execution reuses the cached RIG
//! assert_eq!(prepared.run().count().result.count, 1);
//! assert_eq!(session.cache_stats().hits, 1);
//! ```
//!
//! ## Dynamic graphs
//!
//! The graph is **mutable between runs**: stage node/edge changes on a
//! [`GraphTxn`] and publish them with [`Session::commit`]. Every run
//! executes against one immutable [`Snapshot`] (O(1) to take), so
//! in-flight sequential and morsel-parallel enumerations keep a
//! consistent view while writers proceed; the next run simply picks up
//! the newest snapshot.
//!
//! ```
//! use rig_core::Session;
//! use rig_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new();
//! let a = b.add_named_node("Author");
//! let p = b.add_named_node("Paper");
//! b.add_edge(a, p);
//! let session = Session::new(b.build());
//! let papers = session.prepare("MATCH (a:Author)->(p:Paper)").unwrap();
//! assert_eq!(papers.run().count().result.count, 1);
//!
//! let mut txn = session.begin();
//! let p2 = txn.add_named_node("Paper");
//! txn.add_edge(0, p2);
//! session.commit(txn).unwrap();
//! assert_eq!(papers.run().count().result.count, 2);
//! ```
//!
//! Commits invalidate cached plans **by label set**, not wholesale: a
//! plan is dropped only when the commit touched one of the labels its
//! reduced query reads, or when it contains reachability edges and the
//! commit changed any edge (paths traverse arbitrary labels). Plans over
//! disjoint labels stay hot — [`CacheStats::invalidated`] counts the
//! drops.
//!
//! Folding the delta away has two halves. A **rebase** merges the
//! overlay into a fresh id-stable base in memory and rebuilds BFL; it
//! touches no storage. A read whose plan has a reachability edge and that
//! finds a dirty snapshot rebases first, so reachability edges always
//! expand through BFL probes on a clean base (direct-only plans read the
//! overlay as is). A **checkpoint** writes that base to a segment and
//! truncates the WAL. Once the ops committed since the last checkpoint
//! pass the [`CompactionPolicy`] threshold, the commit *compacts*: rebase
//! (unless a read already did) plus checkpoint.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use rig_analyze::{Analyzer, AnalyzerConfig, Report};
use rig_graph::{
    CommitImpact, DataGraph, DeltaOverlay, GraphView, Label, LabelPairCounts, MutationOp, NodeId,
    Snapshot,
};
use rig_index::{build_rig, Rig, RigOptions};
use rig_query::{closest_label, parse_hpql, transitive_reduction, EdgeKind, PatternQuery};
use rig_reach::{BflIndex, Reachability, SnapshotReach};
use rig_sim::{SimContext, SimOptions};
use rig_storage::{
    DurableStore, FsBackend, RecoveryReport, StorageBackend, StorageError, StoreOptions,
};

pub use crate::run::{Explain, Prepared, Run};
use crate::{Error, GmConfig};

/// Default number of cached RIGs per session.
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

// ---------------------------------------------------------------------------
// plan cache
// ---------------------------------------------------------------------------

#[derive(PartialEq, Eq)]
struct CacheKey {
    labels: Vec<Label>,
    edges: Vec<rig_query::PatternEdge>,
    opts: RigOptions,
}

impl CacheKey {
    fn new(query: &PatternQuery, rig_opts: &RigOptions) -> CacheKey {
        // build_threads is normalized out: the expansion phase is
        // bit-identical at every thread count (see docs/parallel.md), so
        // plans are shared across it. Deadlines are normalized out too:
        // only fully-built plans are ever cached, and a cached plan
        // serves runs with any budget.
        let opts = RigOptions {
            build_threads: 0,
            deadline: None,
            sim: SimOptions { deadline: None, ..rig_opts.sim },
            ..*rig_opts
        };
        CacheKey { labels: query.labels().to_vec(), edges: query.edges().to_vec(), opts }
    }
}

struct CacheEntry {
    key: CacheKey,
    rig: Arc<Rig>,
    /// 64-bit label-set fingerprint of the reduced query (bit `l mod 64`
    /// per label) — the cheap pre-check of the commit invalidation sweep.
    mask: u64,
    /// True when the reduced query has reachability edges: such plans
    /// depend on paths through nodes of *any* label, so every structural
    /// (edge-mutating) commit invalidates them.
    has_reach: bool,
}

/// Tiny exact-LRU over a vec: entries ordered most- to least-recently
/// used. Capacities are small (default 64), so the linear scan is cheaper
/// than a linked-hash structure and keeps the code dependency-free.
struct PlanCache {
    capacity: usize,
    entries: Vec<CacheEntry>,
    evictions: u64,
}

impl PlanCache {
    fn get(&mut self, key: &CacheKey) -> Option<Arc<Rig>> {
        let pos = self.entries.iter().position(|e| e.key == *key)?;
        let entry = self.entries.remove(pos);
        let rig = Arc::clone(&entry.rig);
        self.entries.insert(0, entry);
        Some(rig)
    }

    fn insert(&mut self, entry: CacheEntry) {
        if self.capacity == 0 {
            return;
        }
        if let Some(pos) = self.entries.iter().position(|e| e.key == entry.key) {
            self.entries.remove(pos);
        }
        self.entries.insert(0, entry);
        while self.entries.len() > self.capacity {
            self.entries.pop();
            self.evictions += 1;
        }
    }
}

/// Plan-cache counters (see [`Session::cache_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Executions served from a cached RIG.
    pub hits: u64,
    /// Cache lookups that missed and built their RIG (`no_cache` bypass
    /// runs count neither here nor as hits).
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Plans dropped by commit label-set invalidation (witnesses that a
    /// commit hit a plan's labels — or its reachability edges).
    pub invalidated: u64,
    /// Plans currently resident.
    pub entries: usize,
    /// Maximum resident plans.
    pub capacity: usize,
}

// ---------------------------------------------------------------------------
// compaction policy & store statistics
// ---------------------------------------------------------------------------

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
    /// Monotone store version: bumped by every commit and `replace_graph`.
    pub version: u64,
    /// Commits applied since the session opened.
    pub commits: u64,
    /// LSM compactions run (automatic + manual): rebase plus checkpoint.
    pub compactions: u64,
    /// Dirty snapshots rebased in memory and published (materialize +
    /// BFL rebuild, no storage I/O), by a reachability read or by a
    /// compaction.
    pub rebases: u64,
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
    pub structural: bool,
    /// Cached plans dropped by the label-aware invalidation sweep.
    pub plans_invalidated: u64,
    /// Cached plans that survived the sweep.
    pub plans_retained: u64,
    /// True when this commit tripped the compaction threshold.
    pub compacted: bool,
}

// ---------------------------------------------------------------------------
// transactions
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// session
// ---------------------------------------------------------------------------

struct State {
    snapshot: Arc<Snapshot>,
    bfl: Arc<BflIndex>,
    version: u64,
    commits: u64,
    compactions: u64,
    rebases: u64,
    /// Mutations applied by the commits since the last checkpoint (the
    /// [`CompactionPolicy`] input). Unlike the overlay's op count, a
    /// rebase leaves it alone.
    ops_since_checkpoint: u64,
    cache: PlanCache,
    /// Label-pair edge-count matrix for the snapshot at `.0` (a store
    /// version), built lazily on the first lint/analysis run and reused
    /// until a commit changes the graph. Compaction keeps it: it changes
    /// representation, never counts.
    pairs: Option<(u64, Arc<LabelPairCounts>)>,
}

/// A query session over one data graph: owns the versioned graph store,
/// its reachability index, and the RIG plan cache. See the
/// [module docs](self) for a tour. `Session` is `Sync`: runs on other
/// threads keep executing against their snapshots while a writer commits.
pub struct Session {
    /// Snapshot, BFL index, plan cache and version counters. The
    /// session's lock order is rebase → state → store.
    state: Mutex<State>,
    /// Single-flights rebases: racing readers of one dirty snapshot
    /// build its clean base once. Taken before the state lock, never
    /// while holding it.
    rebase: Mutex<()>,
    config: GmConfig,
    compaction: CompactionPolicy,
    /// Durable companion (WAL + snapshot segments) when the session was
    /// opened on a store directory; `None` for in-memory sessions. Lock
    /// order is rebase → state → store: a holder of this lock never takes
    /// the state or rebase lock.
    store: Option<Mutex<DurableStore>>,
    /// What recovery did, when this session came from [`Session::open`].
    recovery: Option<RecoveryReport>,
    epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidated: AtomicU64,
    wal_flush_failures: AtomicU64,
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
    /// Locks the session state, recovering from a poisoned mutex. Every
    /// critical section over [`State`] is short, allocation-light and —
    /// under this crate's unwrap/expect/panic lints — panic-free, so a
    /// poison can only come from an allocator abort mid-update; the
    /// published `snapshot`/`bfl` Arcs are swapped atomically and stay
    /// coherent, and turning one panicked writer into a permanent outage
    /// for every later query would be strictly worse.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens a session on `graph` with the paper-default [`GmConfig`].
    /// Builds the BFL reachability index once (the per-graph setup cost of
    /// Fig. 18a); every prepared query reuses it.
    pub fn new(graph: impl Into<Arc<DataGraph>>) -> Session {
        Session::with_config(graph, GmConfig::default())
    }

    /// Opens a session with an explicit pipeline configuration (ablation
    /// knobs, simulation tuning, RIG build threads).
    pub fn with_config(graph: impl Into<Arc<DataGraph>>, config: GmConfig) -> Session {
        let base = graph.into();
        let bfl = Arc::new(BflIndex::new(&base));
        let snapshot = Arc::new(Snapshot::clean(base));
        Session {
            state: Mutex::new(State {
                snapshot,
                bfl,
                version: 0,
                commits: 0,
                compactions: 0,
                rebases: 0,
                ops_since_checkpoint: 0,
                cache: PlanCache {
                    capacity: DEFAULT_CACHE_CAPACITY,
                    entries: Vec::new(),
                    evictions: 0,
                },
                pairs: None,
            }),
            rebase: Mutex::new(()),
            config,
            compaction: CompactionPolicy::default(),
            store: None,
            recovery: None,
            epoch: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            wal_flush_failures: AtomicU64::new(0),
        }
    }

    // -- durable sessions ---------------------------------------------------

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
        let bfl = Arc::new(BflIndex::new(&base));
        let mut overlay = DeltaOverlay::new(Arc::clone(&base));
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
        let snapshot = Arc::new(Snapshot::new(Arc::new(overlay), version));
        let mut session = Session::with_config(Arc::clone(&base), config);
        {
            let mut st = session.state();
            st.ops_since_checkpoint = ops_since_checkpoint;
            st.snapshot = snapshot;
            st.bfl = bfl;
            st.version = version;
        }
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
        let result = match lock_store(store) {
            Ok(mut s) => s.flush().map_err(Error::from),
            Err(e) => Err(e),
        };
        if result.is_err() {
            self.wal_flush_failures.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Sets the plan-cache capacity (0 disables caching). Builder-style;
    /// call right after construction.
    pub fn cache_capacity(self, capacity: usize) -> Session {
        {
            let mut st = self.state();
            st.cache.capacity = capacity;
            while st.cache.entries.len() > capacity {
                st.cache.entries.pop();
                st.cache.evictions += 1;
            }
        }
        self
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

    /// The session's pipeline configuration.
    pub fn config(&self) -> &GmConfig {
        &self.config
    }

    /// The graph epoch: bumped by every [`Session::replace_graph`] (a
    /// whole-graph swap, as opposed to the versioned commits of
    /// [`Session::commit`]).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Reachability-index construction time (Fig. 18a's "BFL" column).
    pub fn index_build_time(&self) -> Duration {
        Duration::from_secs_f64(self.bfl().build_seconds())
    }

    /// The concrete BFL index of the current **base segment**, for
    /// harnesses that drive RIG construction outside the session. On a
    /// dirty snapshot pair it with [`rig_reach::SnapshotReach`]. A
    /// reachability read may rebase in between two calls, so take
    /// [`Session::graph`] and this index with no read running.
    pub fn bfl(&self) -> Arc<BflIndex> {
        Arc::clone(&self.state().bfl)
    }

    /// Swaps in a whole new graph: rebuilds the reachability index, bumps
    /// the epoch and drops every cached plan. For incremental changes use
    /// [`Session::begin`] / [`Session::commit`], which keep unaffected
    /// plans cached.
    ///
    /// Takes `&mut self` deliberately: a [`Prepared`] resolved its label
    /// names against the *old* graph, so the borrow checker must prevent
    /// any from outliving the swap (commits only grow the label space, so
    /// they are safe under `&self`; a wholesale replacement is not).
    ///
    /// On a durable session the new graph is checkpointed to a fresh
    /// segment *before* the in-memory swap; a storage failure leaves both
    /// the session and the store on the old graph. In-memory sessions
    /// never fail.
    pub fn replace_graph(&mut self, graph: impl Into<Arc<DataGraph>>) -> Result<(), Error> {
        let base = graph.into();
        let bfl = Arc::new(BflIndex::new(&base));
        let mut st = self.state();
        let version = st.version + 1;
        if let Some(store) = &self.store {
            let mut s = lock_store(store)?;
            s.checkpoint(&base, version)?;
            // best-effort: leftover WAL records are all <= the old version
            // and replay skips them against the new segment
            let _ = s.truncate_wal(version);
        }
        st.version = version;
        st.snapshot = Arc::new(Snapshot::new(Arc::new(DeltaOverlay::new(base)), version));
        st.bfl = bfl;
        st.ops_since_checkpoint = 0;
        st.cache.entries.clear();
        st.pairs = None;
        self.epoch.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    // -- mutation API -------------------------------------------------------

    /// Starts a mutation transaction against the current store version.
    pub fn begin(&self) -> GraphTxn {
        let st = self.state();
        GraphTxn {
            ops: Vec::new(),
            next_node: st.snapshot.num_nodes() as NodeId,
            start_version: st.version,
        }
    }

    /// Atomically applies a transaction: validates and applies every op to
    /// a private copy of the delta, publishes a new snapshot on success,
    /// sweeps the plan cache by label-set fingerprint, and compacts the
    /// store if the delta crossed the policy threshold. Fails without side
    /// effects on the first invalid op, or if another commit landed since
    /// [`Session::begin`] (optimistic concurrency).
    pub fn commit(&self, txn: GraphTxn) -> Result<CommitSummary, Error> {
        let mut st = self.state();
        if st.version != txn.start_version {
            return Err(Error::Conflict { started_at: txn.start_version, current: st.version });
        }
        let mut overlay: DeltaOverlay = (**st.snapshot.delta()).clone();
        let mut impact = CommitImpact::default();
        for op in &txn.ops {
            overlay.apply(op, &mut impact).map_err(Error::validation)?;
        }
        // write-ahead: the record must be durable (to the policy's
        // standard) before the commit publishes. On error nothing was
        // published and the store rolled back, so the commit simply fails.
        if let Some(store) = &self.store {
            lock_store(store)?.log_commit(st.version + 1, &txn.ops)?;
        }
        st.version += 1;
        st.commits += 1;
        st.pairs = None;
        st.ops_since_checkpoint += impact.ops();
        let ops_since_checkpoint = st.ops_since_checkpoint;
        let base = overlay.base();
        let base_size = (base.num_nodes() + base.num_edges()) as u64;
        st.snapshot = Arc::new(Snapshot::new(Arc::new(overlay), st.version));

        // label-aware invalidation sweep
        let touched_mask = impact.touched_mask();
        let version = st.version;
        let mut invalidated = 0u64;
        st.cache.entries.retain(|e| {
            let stale = (e.has_reach && impact.structural)
                || (e.mask & touched_mask != 0
                    && e.key.labels.iter().any(|l| impact.touched.contains(l)));
            if stale {
                invalidated += 1;
            }
            !stale
        });
        self.invalidated.fetch_add(invalidated, Ordering::Relaxed);
        let retained = st.cache.entries.len() as u64;
        drop(st);

        // compaction happens *outside* the state lock (materialize + BFL
        // rebuild are the expensive part) so readers keep executing
        // against the just-published snapshot in the meantime
        let compacted =
            self.compaction.due(ops_since_checkpoint, base_size) && self.compact_at(version);
        Ok(CommitSummary {
            version,
            nodes_added: impact.nodes_added,
            nodes_removed: impact.nodes_removed,
            edges_added: impact.edges_added,
            edges_removed: impact.edges_removed,
            touched_labels: {
                let mut t: Vec<Label> = impact.touched.iter().copied().collect();
                t.sort_unstable();
                t
            },
            structural: impact.structural,
            plans_invalidated: invalidated,
            plans_retained: retained,
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
            st.version
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
            if st.version != version {
                return false;
            }
            Arc::clone(&st.snapshot)
        };
        let base = if snapshot.is_dirty() {
            Arc::clone(self.rebase(&snapshot, version).0.base())
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
        if st.version != version {
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

    /// Rebases `snapshot`, the dirty snapshot published at `version`:
    /// materializes it and rebuilds BFL **without holding the state
    /// lock**, and publishes the clean pair iff no commit landed in the
    /// meantime. Either way the caller gets a clean snapshot of its own
    /// `version` plus its BFL, so snapshot isolation is unchanged.
    /// Touches no storage. Single-flight: a racer that waited on the
    /// rebase lock finds the clean pair published and reuses it. Cached
    /// plans are kept: a rebase changes representation, never the graph.
    fn rebase(&self, snapshot: &Snapshot, version: u64) -> (Arc<Snapshot>, Arc<BflIndex>) {
        let _flight = self.rebase.lock().unwrap_or_else(PoisonError::into_inner);
        {
            let st = self.state();
            if st.version == version && !st.snapshot.is_dirty() {
                return (Arc::clone(&st.snapshot), Arc::clone(&st.bfl));
            }
        }
        let merged = Arc::new(snapshot.materialize());
        let bfl = Arc::new(BflIndex::new(&merged));
        let clean = Arc::new(Snapshot::new(Arc::new(DeltaOverlay::new(merged)), version));
        let mut st = self.state();
        if st.version == version {
            st.snapshot = Arc::clone(&clean);
            st.bfl = Arc::clone(&bfl);
            st.rebases += 1;
        }
        (clean, bfl)
    }

    /// Drops every cached plan (counters are kept).
    pub fn clear_cache(&self) {
        self.state().cache.entries.clear();
    }

    /// Plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        let st = self.state();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: st.cache.evictions,
            invalidated: self.invalidated.load(Ordering::Relaxed),
            entries: st.cache.entries.len(),
            capacity: st.cache.capacity,
        }
    }

    /// Graph-store counters.
    pub fn store_stats(&self) -> StoreStats {
        let st = self.state();
        let base = st.snapshot.base();
        StoreStats {
            version: st.version,
            commits: st.commits,
            compactions: st.compactions,
            rebases: st.rebases,
            delta_ops: st.snapshot.delta().ops(),
            base_nodes: base.num_nodes(),
            base_edges: base.num_edges(),
            live_nodes: st.snapshot.num_live_nodes(),
            edges: st.snapshot.num_edges(),
            wal_flush_failures: self.wal_flush_failures.load(Ordering::Relaxed),
        }
    }

    // -- static analysis ----------------------------------------------------

    /// Runs the static analyzer (`rig_analyze`) over HPQL text against
    /// the current snapshot: name resolution with did-you-mean hints,
    /// emptiness proofs (empty labels, zero label-pair edge counts,
    /// refuted reachability), redundancy lints and cost warnings. Never
    /// executes the query. Parse failures come back as `P001`
    /// diagnostics inside the report, not as `Err`.
    ///
    /// The label-pair count matrix is built lazily and cached per store
    /// version; reachability refutation probes BFL directly on clean
    /// snapshots and the delta-aware [`SnapshotReach`] oracle on dirty
    /// ones, so proofs stay sound across uncompacted commits.
    pub fn analyze(&self, text: &str) -> Report {
        self.with_analyzer(|a| a.analyze_text(text))
    }

    /// [`Session::analyze`] over a pre-parsed AST. `source` is the
    /// original query text, for caret rendering in diagnostics.
    pub fn analyze_ast(&self, ast: &rig_query::HpqlQuery, source: Option<&str>) -> Report {
        self.with_analyzer(|a| a.analyze_ast(ast, source))
    }

    /// [`Session::analyze`] over a hand-built pattern (legacy query
    /// files): same passes, span-less diagnostics.
    pub fn analyze_pattern(&self, q: &PatternQuery) -> Report {
        self.with_analyzer(|a| a.analyze_pattern(q, None))
    }

    fn with_analyzer<R>(&self, f: impl FnOnce(&Analyzer<'_>) -> R) -> R {
        let (snapshot, bfl, version) = {
            let st = self.state();
            (Arc::clone(&st.snapshot), Arc::clone(&st.bfl), st.version)
        };
        let pairs = self.pair_counts(version, &snapshot);
        let config = AnalyzerConfig {
            dp_conditioning_limit: crate::factorized::DP_CONDITIONING_LIMIT,
            ..AnalyzerConfig::default()
        };
        let view = GraphView::from(&*snapshot);
        if snapshot.is_dirty() {
            let reach = SnapshotReach::new(&snapshot, &bfl);
            f(&Analyzer::new(view).with_pair_counts(&pairs).with_reach(&reach).with_config(config))
        } else {
            f(&Analyzer::new(view)
                .with_pair_counts(&pairs)
                .with_reach(bfl.as_ref())
                .with_config(config))
        }
    }

    /// The label-pair count matrix for the snapshot at `version`, built
    /// (O(V + E)) on the first analysis after each commit and cached
    /// until the next one.
    fn pair_counts(&self, version: u64, snapshot: &Snapshot) -> Arc<LabelPairCounts> {
        {
            let st = self.state();
            if let Some((v, pairs)) = &st.pairs {
                if *v == version {
                    return Arc::clone(pairs);
                }
            }
        }
        // built outside the lock; a racing commit just refuses the insert
        let pairs = Arc::new(LabelPairCounts::of(GraphView::from(snapshot)));
        let mut st = self.state();
        if st.version == version {
            st.pairs = Some((version, Arc::clone(&pairs)));
        }
        pairs
    }

    /// [`Session::prepare`] with a lint gate in front. [`LintMode::Off`]
    /// skips analysis entirely; [`LintMode::Warn`] runs it and returns
    /// the report next to the prepared query (the CLI and `explain`
    /// render it); [`LintMode::Strict`] refuses to prepare when any
    /// error-severity diagnostic fires — the full report comes back as
    /// [`Error::Analysis`] (CLI exit code 8, HTTP 422 with a structured
    /// diagnostics body).
    ///
    /// Parse errors keep their ordinary classification
    /// ([`Error::Hpql`], exit code 3) in every mode.
    pub fn prepare_with_lint<'s>(
        &'s self,
        text: &str,
        mode: LintMode,
    ) -> Result<(Prepared<'s>, Report), Error> {
        if matches!(mode, LintMode::Off) {
            return Ok((self.prepare(text)?, Report::default()));
        }
        let ast = parse_hpql(text)?;
        let report = self.analyze_ast(&ast, Some(text));
        if matches!(mode, LintMode::Strict) && report.has_errors() {
            return Err(Error::Analysis(report));
        }
        let prepared = self.prepare(ast)?;
        Ok((prepared, report))
    }

    /// Parses (HPQL text) or adopts (a [`PatternQuery`]) the query,
    /// validates it against the graph, applies §3 transitive reduction and
    /// canonicalizes the result. The returned [`Prepared`] executes any
    /// number of times via [`Prepared::run`]; repeated executions reuse
    /// the cached RIG, and each run sees the newest committed snapshot.
    pub fn prepare<'s, Q: IntoPattern>(&'s self, source: Q) -> Result<Prepared<'s>, Error> {
        let snapshot = self.graph();
        let (original, vars) = source.into_pattern(GraphView::from(&*snapshot))?;
        validate_pattern(&*snapshot, &original, vars.as_deref())?;
        let red_start = Instant::now();
        let (reduced, edges_reduced) = if self.config.skip_reduction {
            (original.clone(), 0)
        } else {
            let r = transitive_reduction(&original);
            let removed = original.num_edges() - r.num_edges();
            (r, removed)
        };
        let exec = reduced.canonical();
        let reduction_time = red_start.elapsed();
        // capture just the resolved label names for rendering — pinning
        // the whole snapshot here would keep a superseded base segment +
        // overlay alive for the Prepared's entire lifetime
        let mut label_names: Vec<(Label, String)> = original
            .labels()
            .iter()
            .map(|&l| (l, snapshot.label_name(l).to_string()))
            .filter(|(_, n)| !n.is_empty())
            .collect();
        label_names.sort_unstable();
        label_names.dedup();
        Ok(Prepared {
            session: self,
            label_names,
            original,
            exec,
            vars,
            edges_reduced,
            reduction_time,
        })
    }

    /// Looks up or builds the RIG for `prepared`. Returns the plan and
    /// whether it came from the cache. A build of a plan with a
    /// reachability edge on a dirty snapshot rebases it first, so the
    /// expansion probes BFL on a clean base. No lock is held during the
    /// build, so concurrent misses on the same key build twice and the
    /// second insert wins — wasted work, never a wrong answer; a build
    /// raced by a commit is simply not cached (its snapshot is already
    /// stale).
    ///
    /// `deadline` caps the build itself (selection stops at the next
    /// simulation pass boundary, expansion aborts): a timed-out build
    /// comes back as an empty-shaped RIG with `stats.timed_out` set and is
    /// never cached.
    pub(crate) fn rig_for(
        &self,
        prepared: &Prepared<'_>,
        use_cache: bool,
        deadline: Option<Instant>,
    ) -> (Arc<Rig>, bool) {
        let key = CacheKey::new(&prepared.exec, &self.config.rig);
        let has_reach = prepared.exec.edges().iter().any(|e| e.kind == EdgeKind::Reachability);
        let (mut snapshot, mut bfl, version) = {
            let mut st = self.state();
            if use_cache {
                if let Some(rig) = st.cache.get(&key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return (rig, true);
                }
                // only attempted lookups count as misses: `no_cache` runs
                // bypass the cache and must not skew the hit rate
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
            (Arc::clone(&st.snapshot), Arc::clone(&st.bfl), st.version)
        };
        if has_reach && snapshot.is_dirty() {
            (snapshot, bfl) = self.rebase(&snapshot, version);
        }
        let opts = self.config.rig.with_deadline(deadline);
        let rig = Arc::new(build_plan(&snapshot, &bfl, &prepared.exec, &opts));
        if use_cache && !rig.stats.timed_out {
            let mut st = self.state();
            // a commit may have landed while we built: then this RIG
            // describes a superseded snapshot and must not be cached
            if st.version == version {
                st.cache.insert(CacheEntry {
                    mask: label_mask(&key.labels),
                    has_reach,
                    rig: Arc::clone(&rig),
                    key,
                });
            }
        }
        (rig, false)
    }
}

/// How much static analysis gates [`Session::prepare_with_lint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintMode {
    /// No analysis: identical to [`Session::prepare`].
    #[default]
    Off,
    /// Analyze and report, but prepare regardless (even provable
    /// emptiness doesn't block — the engine returns 0 for it anyway).
    Warn,
    /// Refuse queries with error-severity diagnostics via
    /// [`Error::Analysis`].
    Strict,
}

impl LintMode {
    /// Parses the CLI / query-string spelling (`off` / `warn` /
    /// `strict`).
    pub fn parse(s: &str) -> Option<LintMode> {
        match s {
            "off" => Some(LintMode::Off),
            "warn" => Some(LintMode::Warn),
            "strict" => Some(LintMode::Strict),
            _ => None,
        }
    }
}

fn label_mask(labels: &[Label]) -> u64 {
    labels.iter().fold(0u64, |m, &l| m | 1u64 << (l & 63))
}

/// Builds a RIG against one snapshot. Clean snapshots run the pure
/// base-CSR + BFL path; dirty ones read adjacency through the overlay and
/// probe reachability through the delta-aware [`SnapshotReach`] oracle.
/// [`Session::rig_for`] rebases reachability plans first, so only
/// direct-only plans take the dirty branch.
fn build_plan(snapshot: &Snapshot, bfl: &BflIndex, exec: &PatternQuery, opts: &RigOptions) -> Rig {
    if snapshot.is_dirty() {
        let reach = SnapshotReach::new(snapshot, bfl);
        let ctx = SimContext::new(snapshot, exec, &reach);
        build_rig(&ctx, bfl, opts)
    } else {
        let ctx = SimContext::new(snapshot.base(), exec, bfl);
        build_rig(&ctx, bfl, opts)
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("graph", &self.graph())
            .field("store", &self.store_stats())
            .field("cache", &self.cache_stats())
            .finish()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // close the Batched loss window on a planned shutdown; a failure
        // here is indistinguishable from a crash an instant later (which
        // the recovery path already handles), but it is *recorded* in
        // `wal_flush_failures` rather than swallowed, so anything still
        // holding a stats snapshot path (a server's /metrics scrape racing
        // the drop) can witness it
        if let Some(store) = &self.store {
            let failed = match store.lock() {
                Ok(mut s) => s.flush().is_err(),
                Err(_) => true, // poisoned by a panicked writer
            };
            if failed {
                self.wal_flush_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Validates a pattern against a graph: non-empty, connected, and every
/// label inside the graph's label space (labels with zero data nodes are
/// fine — they simply produce an empty answer). [`Session::prepare`] runs
/// this; front ends that hand patterns to non-Session engines (the CLI
/// baselines) call it directly so bad queries classify identically across
/// engines. `vars` supplies HPQL variable names for error messages.
pub fn validate_pattern<'a>(
    graph: impl Into<GraphView<'a>>,
    query: &PatternQuery,
    vars: Option<&[String]>,
) -> Result<(), Error> {
    let graph = graph.into();
    if query.num_nodes() == 0 {
        return Err(Error::validation("query has no nodes"));
    }
    if !query.is_connected() {
        return Err(Error::validation(
            "query must be connected (every pattern node linked by some chain of edges)",
        ));
    }
    let num_labels = graph.num_labels() as Label;
    for (i, &l) in query.labels().iter().enumerate() {
        if l >= num_labels {
            let var = vars.map_or_else(|| format!("node {i}"), |v| v[i].clone());
            return Err(Error::validation(format!(
                "label id {l} of {var} is outside the graph's label space \
                 (graph has labels 0..{num_labels})"
            )));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// query sources
// ---------------------------------------------------------------------------

/// Anything [`Session::prepare`] accepts: HPQL text, a pre-parsed
/// [`rig_query::HpqlQuery`], or a hand-built [`PatternQuery`].
pub trait IntoPattern {
    /// Produces the pattern plus its variable names (text sources only).
    fn into_pattern(
        self,
        graph: GraphView<'_>,
    ) -> Result<(PatternQuery, Option<Vec<String>>), Error>;
}

impl IntoPattern for &str {
    fn into_pattern(
        self,
        graph: GraphView<'_>,
    ) -> Result<(PatternQuery, Option<Vec<String>>), Error> {
        parse_hpql(self)?.into_pattern(graph)
    }
}

impl IntoPattern for &String {
    fn into_pattern(
        self,
        graph: GraphView<'_>,
    ) -> Result<(PatternQuery, Option<Vec<String>>), Error> {
        self.as_str().into_pattern(graph)
    }
}

impl IntoPattern for rig_query::HpqlQuery {
    fn into_pattern(
        self,
        graph: GraphView<'_>,
    ) -> Result<(PatternQuery, Option<Vec<String>>), Error> {
        // unknown label names get a "did you mean" hint computed over
        // the graph's label dictionary (same helper the analyzer uses)
        let resolved = self.resolve_with(
            |name| graph.label_id(name),
            |name| {
                closest_label(name, (0..graph.num_labels()).map(|l| graph.label_name(l as Label)))
                    .map(str::to_string)
            },
        )?;
        Ok((resolved.query, Some(resolved.vars)))
    }
}

impl IntoPattern for PatternQuery {
    fn into_pattern(
        self,
        _graph: GraphView<'_>,
    ) -> Result<(PatternQuery, Option<Vec<String>>), Error> {
        Ok((self, None))
    }
}

impl IntoPattern for &PatternQuery {
    fn into_pattern(
        self,
        _graph: GraphView<'_>,
    ) -> Result<(PatternQuery, Option<Vec<String>>), Error> {
        Ok((self.clone(), None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ErrorKind;
    use rig_mjoin::{CountSink, ResultSink, SearchOrder};
    use rig_query::EdgeKind;

    fn fig2_graph() -> DataGraph {
        use rig_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        for _ in 0..3 {
            b.add_node_with_name(0, "A");
        }
        for _ in 0..4 {
            b.add_node_with_name(1, "B");
        }
        for _ in 0..3 {
            b.add_node_with_name(2, "C");
        }
        b.add_edge(1, 3);
        b.add_edge(1, 7);
        b.add_edge(3, 8);
        b.add_edge(8, 7);
        b.add_edge(2, 5);
        b.add_edge(2, 9);
        b.add_edge(5, 9);
        b.add_edge(5, 8);
        b.add_edge(0, 4);
        b.add_edge(4, 7);
        b.add_edge(6, 0);
        b.build()
    }

    fn fig2_session() -> Session {
        Session::new(fig2_graph())
    }

    const FIG2_HPQL: &str = "MATCH (a:A)->(b:B)=>(c:C), (a)->(c)";

    #[test]
    fn text_and_builder_agree_through_the_session() {
        let session = fig2_session();
        let by_text = session.prepare(FIG2_HPQL).unwrap();
        let by_builder = session.prepare(rig_query::fig2_query()).unwrap();
        let (mut t1, o1) = by_text.run().collect_all();
        let (mut t2, o2) = by_builder.run().collect_all();
        t1.sort();
        t2.sort();
        assert_eq!(t1, vec![vec![1, 3, 7], vec![2, 5, 9]]);
        assert_eq!(t1, t2);
        assert_eq!(o1.result.count, 2);
        assert_eq!(o2.result.count, 2);
        // identical canonical plans => the second prepare's run was a hit
        assert_eq!(session.cache_stats().misses, 1);
        assert_eq!(session.cache_stats().hits, 1);
    }

    #[test]
    fn second_execution_reuses_the_cached_rig() {
        let session = fig2_session();
        let p = session.prepare(FIG2_HPQL).unwrap();
        let cold = p.run().count();
        assert!(!cold.metrics.rig_from_cache);
        assert_eq!(cold.result.count, 2);
        let warm = p.run().count();
        assert!(warm.metrics.rig_from_cache);
        assert_eq!(warm.result.count, 2);
        let stats = session.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // the cached stats still describe the same RIG
        assert_eq!(warm.metrics.rig_stats.node_count, cold.metrics.rig_stats.node_count);
    }

    #[test]
    fn no_cache_bypasses_and_capacity_zero_disables() {
        let session = fig2_session().cache_capacity(0);
        let p = session.prepare(FIG2_HPQL).unwrap();
        assert_eq!(p.run().count().result.count, 2);
        assert_eq!(p.run().count().result.count, 2);
        let stats = session.cache_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.entries, 0);

        let session = fig2_session();
        let p = session.prepare(FIG2_HPQL).unwrap();
        p.run().no_cache().count();
        p.run().no_cache().count();
        assert_eq!(session.cache_stats().hits, 0);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let session = fig2_session().cache_capacity(2);
        let a = session.prepare("MATCH (a:A)->(b:B)").unwrap();
        let b = session.prepare("MATCH (b:B)=>(c:C)").unwrap();
        let c = session.prepare("MATCH (a:A)=>(c:C)").unwrap();
        a.run().count(); // cache: [a]
        b.run().count(); // cache: [b, a]
        a.run().count(); // hit; cache: [a, b]
        c.run().count(); // evicts b; cache: [c, a]
        b.run().count(); // miss again
        let stats = session.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn replace_graph_bumps_epoch_and_invalidates() {
        let mut session = fig2_session();
        {
            let p = session.prepare(FIG2_HPQL).unwrap();
            p.run().count();
            p.run().count();
            assert_eq!(session.cache_stats().hits, 1);
        }
        let epoch_before = session.epoch();
        // same graph content — but the swap must force a rebuild
        session.replace_graph(fig2_graph()).unwrap();
        assert_eq!(session.epoch(), epoch_before + 1);
        let p = session.prepare(FIG2_HPQL).unwrap();
        let outcome = p.run().count();
        assert!(!outcome.metrics.rig_from_cache);
        assert_eq!(outcome.result.count, 2);
        assert_eq!(session.cache_stats().misses, 2);
    }

    #[test]
    fn prepare_validates() {
        let session = fig2_session();
        // disconnected
        let mut q = PatternQuery::new(vec![0, 1, 2]);
        q.add_edge(0, 1, EdgeKind::Direct);
        assert!(matches!(session.prepare(q), Err(Error::Validation(_))));
        // label out of range
        let mut q = PatternQuery::new(vec![0, 9]);
        q.add_edge(0, 1, EdgeKind::Direct);
        let err = session.prepare(q).unwrap_err();
        assert!(matches!(err, Error::Validation(_)), "{err}");
        // unknown label name
        assert!(matches!(session.prepare("MATCH (a:A)->(x:Nope)"), Err(Error::Hpql(_))));
        // empty
        assert!(session.prepare("MATCH ;").is_err());
    }

    #[test]
    fn run_builder_knobs() {
        let session = fig2_session();
        let p = session.prepare(FIG2_HPQL).unwrap();
        let o = p.run().limit(1).count();
        assert_eq!(o.result.count, 1);
        assert!(o.result.limit_hit);
        assert!(matches!(p.run().limit(1).try_count(), Err(Error::Budget { .. })));
        for order in [SearchOrder::Jo, SearchOrder::Ri, SearchOrder::Bj] {
            assert_eq!(p.run().order(order).count().result.count, 2, "{order:?}");
        }
        for threads in [2usize, 4] {
            assert_eq!(p.run().threads(threads).count().result.count, 2);
            let (tuples, _) = p.run().threads(threads).morsel(1).collect_all();
            assert_eq!(tuples, vec![vec![1, 3, 7], vec![2, 5, 9]]);
        }
        let (tuples, _) = p.run().collect(1);
        assert_eq!(tuples.len(), 1);
        let mut sink = CountSink::default();
        assert_eq!(p.run().stream(&mut sink).result.count, 2);
        assert_eq!(sink.count, 2);
    }

    #[test]
    fn stream_finishes_sink_on_empty_rig() {
        let session = fig2_session();
        // C -> A never occurs
        let mut q = PatternQuery::new(vec![2, 0]);
        q.add_edge(0, 1, EdgeKind::Direct);
        let p = session.prepare(q).unwrap();
        struct FinishCounter(u32);
        impl ResultSink for FinishCounter {
            fn push(&mut self, _t: &[NodeId]) -> bool {
                true
            }
            fn finish(&mut self) {
                self.0 += 1;
            }
        }
        let mut sink = FinishCounter(0);
        let o = p.run().stream(&mut sink);
        assert_eq!(o.result.count, 0);
        assert_eq!(sink.0, 1);
        let (sinks, o) = p.run().threads(3).par_stream(|_| FinishCounter(0));
        assert_eq!(o.result.count, 0);
        assert_eq!(sinks.len(), 3);
        assert!(sinks.iter().all(|s| s.0 == 1));
    }

    /// One thread is the sequential engine, not one spawned worker:
    /// `par_stream` builds exactly one sink on the calling thread, every
    /// push happens there, and the tuples arrive in `stream`'s order.
    #[test]
    fn single_thread_par_stream_runs_inline_like_stream() {
        struct OnCaller {
            caller: std::thread::ThreadId,
            tuples: Vec<Vec<NodeId>>,
        }
        impl ResultSink for OnCaller {
            fn push(&mut self, t: &[NodeId]) -> bool {
                assert_eq!(std::thread::current().id(), self.caller, "push off the caller");
                self.tuples.push(t.to_vec());
                true
            }
        }
        let session = dense_session(6);
        let p = session.prepare(TRIANGLE).unwrap();
        let caller = std::thread::current().id();
        let mut expect = rig_mjoin::CollectSink::default();
        let seq = p.run().stream(&mut expect);
        assert_eq!(expect.tuples.len(), 120);
        let (sinks, o) = p.run().threads(1).par_stream(|w| {
            assert_eq!((w, std::thread::current().id()), (0, caller), "sink built off the caller");
            OnCaller { caller, tuples: Vec::new() }
        });
        assert_eq!(sinks.len(), 1);
        assert_eq!(sinks[0].tuples, expect.tuples);
        assert_eq!(o.result.count, seq.result.count);
    }

    #[test]
    fn explain_reports_reduction_and_cache_state() {
        let session = fig2_session();
        // A -> B => C plus the redundant A => C
        let p = session.prepare("MATCH (a:A)->(b:B)=>(c:C), (a)=>(c)").unwrap();
        let ex = p.run().explain();
        assert_eq!(ex.edges_reduced, 1);
        assert!(!ex.rig_from_cache);
        assert!(!ex.empty_answer);
        assert_eq!(ex.order.len(), 3);
        let shown = ex.to_string();
        assert!(shown.contains("reduced:"), "{shown}");
        assert!(shown.contains("built"), "{shown}");
        // explain populated the cache: a run right after is a hit
        let o = p.run().count();
        assert!(o.metrics.rig_from_cache);
        let ex2 = p.run().explain();
        assert!(ex2.rig_from_cache);
        assert!(ex2.to_string().contains("cached"));
    }

    #[test]
    fn equivalent_texts_share_one_plan() {
        let session = fig2_session();
        // same constraints and variable order, but a different chain
        // decomposition => different edge insertion order; the canonical
        // cache key unifies them
        let p1 = session.prepare("MATCH (a:A)->(b:B)=>(c:C), (a)->(c)").unwrap();
        let p2 = session.prepare("MATCH (a:A)->(b:B), (a)->(c:C), (b)=>(c)").unwrap();
        assert_ne!(p1.query(), p2.query(), "raw edge order differs");
        p1.run().count();
        p2.run().count();
        let stats = session.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1), "{stats:?}");
        // renaming variables keeps the plan shared (names are not part of
        // the key); *reordering* them is a different query (tuple indexing)
        let p3 = session.prepare("MATCH (x:A)->(y:B)=>(z:C), (x)->(z)").unwrap();
        p3.run().count();
        assert_eq!(session.cache_stats().hits, 2);
        let p4 = session.prepare("MATCH (x:A)->(z:C), (x)->(y:B), (y)=>(z)").unwrap();
        p4.run().count();
        assert_eq!(session.cache_stats().misses, 2, "variable order is part of the plan");
    }

    // -- dynamic-graph tests -------------------------------------------------

    #[test]
    fn commit_updates_answers_without_replace() {
        let session = fig2_session();
        let p = session.prepare(FIG2_HPQL).unwrap();
        assert_eq!(p.run().count().result.count, 2);
        // wire a0 into the pattern: a0 -> b1 exists, b1 -> c? b1(4) -> c0(7)
        // exists... make a0 -> c0 direct to satisfy (a)->(c)
        let mut txn = session.begin();
        txn.add_edge(0, 7);
        let summary = session.commit(txn).unwrap();
        assert!(summary.structural);
        assert_eq!(summary.edges_added, 1);
        assert_eq!(p.run().count().result.count, 3);
        // and removing it brings the old answer back
        let mut txn = session.begin();
        txn.remove_edge(0, 7);
        session.commit(txn).unwrap();
        assert_eq!(p.run().count().result.count, 2);
    }

    #[test]
    fn commit_is_atomic_and_optimistic() {
        let session = fig2_session();
        let mut txn = session.begin();
        txn.add_edge(0, 7);
        txn.add_edge(0, 99); // invalid: no such node
        let before = session.store_stats();
        assert!(session.commit(txn).is_err());
        let after = session.store_stats();
        assert_eq!(before.version, after.version, "failed commit must not publish");
        assert!(!session.graph().has_edge(0, 7), "all-or-nothing");
        // optimistic concurrency: a commit in between invalidates the txn
        let stale = session.begin();
        let mut fresh = session.begin();
        fresh.add_edge(0, 7);
        session.commit(fresh).unwrap();
        assert!(matches!(session.commit(stale), Err(Error::Conflict { .. })), "write conflict");
    }

    #[test]
    fn added_nodes_and_labels_are_queryable() {
        let session = fig2_session();
        let mut txn = session.begin();
        let d = txn.add_named_node("D");
        txn.add_edge(0, d);
        session.commit(txn).unwrap();
        let p = session.prepare("MATCH (a:A)->(d:D)").unwrap();
        let (tuples, _) = p.run().collect_all();
        assert_eq!(tuples, vec![vec![0, 10]]);
        // snapshot label dictionary grew
        assert_eq!(session.graph().label_id("D"), Some(3));
    }

    #[test]
    fn snapshots_pin_a_consistent_view() {
        let session = fig2_session();
        let before = session.graph();
        let mut txn = session.begin();
        txn.remove_node(3); // b0
        session.commit(txn).unwrap();
        let after = session.graph();
        assert!(before.is_live(3), "old snapshot unaffected");
        assert!(!after.is_live(3));
        assert_eq!(before.num_edges(), 11);
        assert!(after.num_edges() < 11);
    }

    #[test]
    fn label_disjoint_plans_survive_commits() {
        let session = fig2_session();
        let ab = session.prepare("MATCH (a:A)->(b:B)").unwrap();
        let bc = session.prepare("MATCH (b:B)->(c:C)").unwrap();
        ab.run().count();
        bc.run().count();
        assert_eq!(session.cache_stats().entries, 2);
        // a commit touching only label C (c1 -> c2 edge) must invalidate
        // the B,C plan and keep the A,B plan cached
        let mut txn = session.begin();
        txn.add_edge(8, 9);
        let summary = session.commit(txn).unwrap();
        assert_eq!(summary.plans_invalidated, 1);
        assert_eq!(summary.plans_retained, 1);
        assert!(summary.touched_labels == vec![2]);
        let o = ab.run().count();
        assert!(o.metrics.rig_from_cache, "disjoint plan stayed hot");
        let o = bc.run().count();
        assert!(!o.metrics.rig_from_cache, "touched plan was rebuilt");
        assert_eq!(session.cache_stats().invalidated, 1);
    }

    #[test]
    fn reach_plans_invalidate_on_any_structural_commit() {
        let session = fig2_session();
        let reach = session.prepare("MATCH (a:A)=>(c:C)").unwrap();
        let direct = session.prepare("MATCH (a:A)->(b:B)").unwrap();
        reach.run().count();
        direct.run().count();
        // an edge between two C nodes shares no label with (a:A)->(b:B),
        // but can lengthen paths: the reachability plan must go
        let mut txn = session.begin();
        txn.add_edge(9, 8);
        let summary = session.commit(txn).unwrap();
        assert_eq!(summary.plans_invalidated, 1);
        assert!(!reach.run().count().metrics.rig_from_cache);
        assert!(direct.run().count().metrics.rig_from_cache);
        // a pure node addition is not structural: the reach plan (now
        // re-cached) survives a commit adding an isolated D node
        let mut txn = session.begin();
        txn.add_named_node("D");
        let summary = session.commit(txn).unwrap();
        assert!(!summary.structural);
        assert_eq!(summary.plans_invalidated, 0);
        assert!(reach.run().count().metrics.rig_from_cache);
    }

    #[test]
    fn dirty_snapshot_answers_match_materialized_rebuild() {
        let session = fig2_session();
        let mut txn = session.begin();
        let a3 = txn.add_named_node("A");
        let b4 = txn.add_named_node("B");
        txn.add_edge(a3, b4);
        txn.add_edge(b4, 9); // b4 -> c2
        txn.remove_node(5); // b2: kills the a2,b2,c2 occurrence
        session.commit(txn).unwrap();
        let p = session.prepare(FIG2_HPQL).unwrap();
        let (mut overlay_tuples, _) = p.run().collect_all();
        overlay_tuples.sort();
        // oracle: full rebuild from the materialized snapshot
        let rebuilt = Session::new(session.graph().materialize());
        let p2 = rebuilt.prepare(FIG2_HPQL).unwrap();
        let (mut rebuilt_tuples, _) = p2.run().collect_all();
        rebuilt_tuples.sort();
        assert_eq!(overlay_tuples, rebuilt_tuples);
        // parallel enumeration on the dirty snapshot agrees too
        let (mut par_tuples, _) = p.run().threads(4).morsel(1).collect_all();
        par_tuples.sort();
        assert_eq!(par_tuples, overlay_tuples);
    }

    /// Sorted match set of `hpql` on `session`.
    fn sorted_matches(session: &Session, hpql: &str) -> Vec<Vec<NodeId>> {
        let (mut tuples, _) = session.prepare(hpql).unwrap().run().collect_all();
        tuples.sort();
        tuples
    }

    /// fig2 plus one structural commit: a new A -> B -> C chain.
    fn dirty_fig2_session() -> Session {
        let session = fig2_session();
        let mut txn = session.begin();
        let a3 = txn.add_named_node("A");
        txn.add_edge(a3, 4); // a3 -> b1
        txn.add_edge(3, 9); // b0 -> c2
        session.commit(txn).unwrap();
        assert!(session.graph().is_dirty());
        session
    }

    #[test]
    fn reachability_read_rebases_a_dirty_snapshot() {
        let session = dirty_fig2_session();
        let expect = sorted_matches(&Session::new(session.graph().materialize()), FIG2_HPQL);
        let before = session.store_stats();
        assert_eq!(before.delta_ops, 3);
        assert_eq!(sorted_matches(&session, FIG2_HPQL), expect);
        let after = session.store_stats();
        assert!(!session.graph().is_dirty(), "the read published a clean base");
        assert_eq!(after.delta_ops, 0);
        assert_eq!(after.rebases, 1);
        assert_eq!(after.compactions, before.compactions, "a rebase is not a checkpoint");
        assert_eq!(after.version, before.version, "a rebase publishes no new version");
        assert_eq!((after.base_nodes, after.edges), (11, before.edges));
        // the rebased base answers the next (cached and uncached) reads
        assert_eq!(sorted_matches(&session, FIG2_HPQL), expect);
        let (mut t, _) = session.prepare(FIG2_HPQL).unwrap().run().no_cache().collect_all();
        t.sort();
        assert_eq!(t, expect);
        assert_eq!(session.store_stats().rebases, 1);
    }

    #[test]
    fn direct_only_read_leaves_the_snapshot_dirty() {
        let session = dirty_fig2_session();
        let q = "MATCH (a:A)->(b:B)";
        let expect = sorted_matches(&Session::new(session.graph().materialize()), q);
        assert_eq!(sorted_matches(&session, q), expect);
        assert_eq!(session.prepare(q).unwrap().run().no_cache().count().result.count, 4);
        assert!(session.graph().is_dirty());
        let stats = session.store_stats();
        assert_eq!((stats.rebases, stats.delta_ops), (0, 3));
    }

    #[test]
    fn snapshots_taken_before_a_rebase_keep_their_version() {
        let session = fig2_session();
        let clean = session.graph();
        let mut txn = session.begin();
        txn.add_edge(0, 7);
        txn.remove_edge(1, 3);
        session.commit(txn).unwrap();
        let dirty = session.graph();
        session.prepare(FIG2_HPQL).unwrap().run().count();
        let rebased = session.graph();
        assert!(!rebased.is_dirty());
        assert_eq!(session.store_stats().rebases, 1);
        // the held snapshots answer for their own versions
        assert!(dirty.is_dirty());
        assert_eq!((dirty.version(), rebased.version()), (1, 1));
        assert!(dirty.has_edge(0, 7) && !dirty.has_edge(1, 3));
        assert!(!clean.has_edge(0, 7) && clean.has_edge(1, 3));
        assert_eq!((clean.num_edges(), dirty.num_edges(), rebased.num_edges()), (11, 11, 11));
        assert!(rebased.has_edge(0, 7) && !rebased.has_edge(1, 3));
    }

    /// Readers racing the first reachability read on one dirty snapshot
    /// rebase it once. The rebase lock is held while they start, so all
    /// of them queue on it (a late starter finds the clean base), and
    /// only the first may materialize.
    #[test]
    fn racing_reachability_reads_rebase_once() {
        let session = dirty_fig2_session();
        let expect = sorted_matches(&Session::new(session.graph().materialize()), FIG2_HPQL);
        let answers = std::thread::scope(|s| {
            let flight = session.rebase.lock().unwrap();
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let p = session.prepare(FIG2_HPQL).unwrap();
                        let (mut t, _) = p.run().no_cache().collect_all();
                        t.sort();
                        t
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_millis(100));
            drop(flight);
            readers.into_iter().map(|r| r.join().unwrap()).collect::<Vec<_>>()
        });
        assert!(answers.iter().all(|t| *t == expect), "{answers:?}");
        assert_eq!(session.store_stats().rebases, 1);
        assert!(!session.graph().is_dirty());
    }

    /// The checkpoint cadence counts ops since the last checkpoint: a
    /// read-time rebase empties the overlay but must not postpone the
    /// compaction the committed ops are due.
    #[test]
    fn rebases_do_not_delay_the_checkpoint_cadence() {
        let session =
            Session::new(fig2_graph()).with_compaction(CompactionPolicy { min_ops: 3, ratio: 0.0 });
        let mut txn = session.begin();
        txn.add_edge(0, 7);
        assert!(!session.commit(txn).unwrap().compacted, "1 op < min_ops");
        assert_eq!(session.prepare(FIG2_HPQL).unwrap().run().count().result.count, 3);
        assert_eq!(session.store_stats().rebases, 1);
        let mut txn = session.begin();
        let x = txn.add_named_node("A");
        txn.add_edge(x, 3);
        assert!(session.commit(txn).unwrap().compacted, "1 + 2 ops >= min_ops");
        let stats = session.store_stats();
        assert_eq!((stats.compactions, stats.delta_ops), (1, 0));
        // an in-memory session has nothing to checkpoint once clean
        assert!(!session.compact());
    }

    #[test]
    fn compaction_triggers_and_preserves_semantics() {
        let session =
            Session::new(fig2_graph()).with_compaction(CompactionPolicy { min_ops: 3, ratio: 0.0 });
        let p = session.prepare(FIG2_HPQL).unwrap();
        assert_eq!(p.run().count().result.count, 2);
        let mut txn = session.begin();
        txn.add_edge(0, 7); // a0 -> c0: third occurrence
        let s1 = session.commit(txn).unwrap();
        assert!(!s1.compacted, "1 op < min_ops");
        let mut txn = session.begin();
        let x = txn.add_named_node("A");
        txn.add_edge(x, 3);
        let s2 = session.commit(txn).unwrap();
        assert!(s2.compacted, "3 ops >= min_ops");
        let stats = session.store_stats();
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.delta_ops, 0, "delta folded into the base");
        assert_eq!(stats.base_nodes, 11);
        assert!(!session.graph().is_dirty());
        assert_eq!(p.run().count().result.count, 3, "same answers after compaction");
        // manual compaction on a clean store is a no-op
        assert!(!session.compact());
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let session = std::sync::Arc::new(fig2_session());
        std::thread::scope(|s| {
            for _ in 0..3 {
                let session = std::sync::Arc::clone(&session);
                s.spawn(move || {
                    let p = session.prepare("MATCH (a:A)->(b:B)").unwrap();
                    for _ in 0..200 {
                        let n = p.run().count().result.count;
                        assert!(n >= 3, "fig2 has 3 A->B pairs; commits only add");
                    }
                });
            }
            let writer = std::sync::Arc::clone(&session);
            s.spawn(move || {
                for i in 0..50 {
                    let mut txn = writer.begin();
                    let a = txn.add_node(0);
                    let b = txn.add_node(1);
                    txn.add_edge(a, b);
                    assert!(txn.len() == 3 && !txn.is_empty());
                    writer.commit(txn).unwrap_or_else(|e| panic!("commit {i}: {e}"));
                }
            });
        });
        let p = session.prepare("MATCH (a:A)->(b:B)").unwrap();
        assert_eq!(p.run().count().result.count, 3 + 50);
    }

    #[test]
    fn apply_runs_parsed_mutation_ops() {
        let session = fig2_session();
        let script = rig_graph::parse_mutations("a v A\na e 10 3\n").unwrap();
        assert_eq!(script.len(), 1);
        let summary = session.apply(&script[0]).unwrap();
        assert_eq!(summary.nodes_added, 1);
        assert_eq!(summary.edges_added, 1);
        assert!(session.graph().has_edge(10, 3));
    }

    /// A dense single-label graph (every pair connected both ways) and a
    /// cyclic triangle query — worst case for both RIG expansion and the
    /// factorized DP's conditioning loop.
    fn dense_session(n: u32) -> Session {
        use rig_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_node_with_name(0, "A");
        }
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    b.add_edge(u, v);
                }
            }
        }
        Session::new(b.build())
    }

    const TRIANGLE: &str = "MATCH (a:A)->(b:A)->(c:A), (c)->(a)";

    /// Satellite regression: an already-expired deadline must surface as
    /// a timeout (budget exit path), never as an empty answer, and the
    /// aborted build must not be cached.
    #[test]
    fn expired_deadline_is_a_timeout_not_an_empty_answer() {
        let session = dense_session(24);
        let p = session.prepare(TRIANGLE).unwrap();

        let o = p.run().timeout(Duration::ZERO).count();
        assert!(o.result.timed_out, "zero budget must time out");
        assert!(o.metrics.rig_stats.timed_out, "the RIG build aborted");
        assert_eq!(o.result.count, 0);
        let err = p.run().timeout(Duration::ZERO).try_count().unwrap_err();
        assert!(matches!(err, Error::Budget { timed_out: true, .. }), "{err}");
        assert_eq!(session.cache_stats().entries, 0, "timed-out plans are never cached");

        // the same query with no budget completes and is cached
        let full = p.run().try_count().unwrap();
        assert!(!full.result.timed_out);
        assert_eq!(full.result.count, 24 * 23 * 22);
        assert_eq!(session.cache_stats().entries, 1);

        // a cached plan serves budgeted runs: enumeration gets the whole
        // budget and finishes this tiny instance comfortably
        let warm = p.run().timeout(Duration::from_secs(3600)).count();
        assert!(warm.metrics.rig_from_cache);
        assert_eq!(warm.result.count, 24 * 23 * 22);
    }

    /// Satellite regression: a store mutex poisoned by a panicked writer
    /// must surface as a typed `Error::Storage` (and be counted in
    /// `StoreStats::wal_flush_failures`), never as a second panic — a
    /// server worker hitting this would otherwise abort the process.
    #[test]
    fn flush_wal_reports_poisoned_store_instead_of_panicking() {
        let dir = std::env::temp_dir().join(format!("rig_session_poison_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = Session::create_at(&dir, fig2_graph()).unwrap();
        assert!(session.is_durable());
        session.flush_wal().unwrap();
        assert_eq!(session.store_stats().wal_flush_failures, 0);
        // poison the store mutex: a thread panics while holding it
        let store = session.store.as_ref().unwrap();
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = store.lock().unwrap();
                panic!("poison the store lock");
            })
            .join()
        });
        assert!(poisoner.is_err(), "the poisoner must have panicked");
        let err = session.flush_wal().unwrap_err();
        assert!(matches!(err, Error::Storage(StorageError::Poisoned { .. })), "{err}");
        assert_eq!(session.store_stats().wal_flush_failures, 1);
        // commits degrade to typed errors too, never a worker-killing panic
        let mut txn = session.begin();
        txn.add_edge(0, 7);
        assert!(matches!(session.commit(txn), Err(Error::Storage(_))));
        drop(session); // Drop records (not swallows) the failed final flush
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The factorized terminal honors the deadline too: the DP's
    /// conditioning loop aborts and the summary says so instead of
    /// reporting a partial count.
    #[test]
    fn factorized_summary_times_out_cleanly() {
        let session = dense_session(24);
        let p = session.prepare(TRIANGLE).unwrap();
        let s = p.run().timeout(Duration::ZERO).factorized_summary();
        assert!(s.timed_out);
        assert_eq!(s.count, None, "a partial DP sum must not masquerade as the count");
        let full = p.run().factorized_summary();
        assert!(!full.timed_out);
        assert_eq!(full.count, Some(24 * 23 * 22));
        assert!(format!("{s}").contains("timed out"));
    }

    fn library_graph() -> DataGraph {
        use rig_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        let a = b.add_node_with_name(0, "Author");
        let p = b.add_node_with_name(1, "Paper");
        let q = b.add_node_with_name(1, "Paper");
        b.add_edge(a, p);
        b.add_edge(p, q);
        b.build()
    }

    #[test]
    fn unknown_labels_get_a_did_you_mean_hint() {
        let session = Session::new(library_graph());
        let err = session.prepare("MATCH (a:Athor)->(p:Paper)").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Parse, "unknown names stay parse errors");
        let msg = err.to_string();
        assert!(msg.contains("did you mean 'Author'?"), "{msg}");
        // a name nowhere near the dictionary gets no hint
        let err = session.prepare("MATCH (x:Zebra)->(p:Paper)").unwrap_err();
        assert!(!err.to_string().contains("did you mean"), "{err}");
    }

    #[test]
    fn strict_lint_refuses_provably_empty_queries() {
        let session = Session::new(library_graph());
        // satisfiable: passes strict lint and prepares
        let (p, report) =
            session.prepare_with_lint("MATCH (a:Author)->(p:Paper)", LintMode::Strict).unwrap();
        assert!(!report.has_errors());
        assert_eq!(p.run().count().result.count, 1);
        // Paper -> Author never occurs: proven empty, refused with exit code 8
        let err =
            session.prepare_with_lint("MATCH (p:Paper)->(a:Author)", LintMode::Strict).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Analysis);
        assert_eq!(err.kind().exit_code(), 8);
        let Error::Analysis(report) = err else { panic!("expected Error::Analysis") };
        assert!(report.proven_empty());
        // warn mode lets the same query through (the engine counts 0)
        let (p, report) =
            session.prepare_with_lint("MATCH (p:Paper)->(a:Author)", LintMode::Warn).unwrap();
        assert!(report.proven_empty());
        assert_eq!(p.run().count().result.count, 0, "soundness: proven empty must count 0");
    }

    #[test]
    fn analysis_pair_counts_follow_commits() {
        let session = Session::new(library_graph());
        assert!(session.analyze("MATCH (p:Paper)->(a:Author)").proven_empty());
        // add a Paper -> Author edge: the proof must dissolve on the
        // dirty snapshot (cache invalidated, counts read the overlay)
        let mut txn = session.begin();
        txn.add_edge(1, 0);
        session.commit(txn).unwrap();
        let report = session.analyze("MATCH (p:Paper)->(a:Author)");
        assert!(!report.proven_empty(), "{}", report.render_compact());
        assert_eq!(
            session.prepare("MATCH (p:Paper)->(a:Author)").unwrap().run().count().result.count,
            1
        );
    }

    #[test]
    fn analysis_refutes_reachability_on_dirty_snapshots() {
        let session = Session::new(library_graph());
        // Author =*=> Paper holds on the base graph
        assert!(!session.analyze("MATCH (a:Author)=>(q:Paper)").proven_empty());
        // remove both edges: no Author can reach any Paper any more, and
        // the dirty-snapshot oracle (SnapshotReach) must see that
        let mut txn = session.begin();
        txn.remove_edge(0, 1);
        txn.remove_edge(1, 2);
        session.commit(txn).unwrap();
        let report = session.analyze("MATCH (a:Author)=>(q:Paper)");
        assert!(report.proven_empty(), "{}", report.render_compact());
        assert_eq!(
            session.prepare("MATCH (a:Author)=>(q:Paper)").unwrap().run().count().result.count,
            0
        );
    }
}
