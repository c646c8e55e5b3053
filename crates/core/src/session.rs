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
//! This module holds the session, its one state lock, `prepare`, static
//! analysis and plan lookup; the private `store` module the store
//! (create/open, commits, rebase, checkpoint), `plan_cache` the cache.
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
//! overlay into a fresh id-stable base in memory and gives it a BFL
//! index: the previous one extended when the delta adds only nodes and
//! edges the index already implies, a rebuilt one otherwise. It touches
//! no storage. **Every RIG build and every analysis reads a clean
//! base and the BFL index of that base**: one that finds a dirty snapshot
//! rebases it first (once, however many readers race). Cache hits skip
//! this, since a cached plan was built on a clean base and survives only
//! commits that could not change it. A **checkpoint** writes that base to
//! a segment and truncates the WAL. Once the ops committed since the last
//! checkpoint pass the [`CompactionPolicy`] threshold, the commit
//! *compacts*: rebase (unless a read already did) plus checkpoint.

use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use rig_analyze::{Analyzer, Report};
use rig_graph::{DataGraph, GraphView, Label, LabelPairCounts, Snapshot};
use rig_index::{build_rig, Rig};
use rig_query::{closest_label, parse_hpql, transitive_reduction, PatternQuery};
use rig_reach::BflIndex;
use rig_sim::SimContext;
use rig_storage::{DurableStore, RecoveryReport};

use crate::plan_cache::{CacheKey, PlanCache};
pub use crate::plan_cache::{CacheStats, DEFAULT_CACHE_CAPACITY};
pub use crate::run::{Explain, Prepared, Run};
pub use crate::store::{CommitSummary, CompactionPolicy, GraphTxn, StoreStats};
use crate::{Error, GmConfig};

/// Everything the session's one state lock guards.
pub(crate) struct State {
    /// The published snapshot; its version is the store version.
    pub(crate) snapshot: Arc<Snapshot>,
    /// BFL of `snapshot.base()`.
    pub(crate) bfl: Arc<BflIndex>,
    pub(crate) commits: u64,
    pub(crate) compactions: u64,
    pub(crate) rebases: u64,
    pub(crate) index_extensions: u64,
    /// Mutations applied by the commits since the last checkpoint (the
    /// [`CompactionPolicy`] input). Unlike the overlay's op count, a
    /// rebase leaves it alone.
    pub(crate) ops_since_checkpoint: u64,
    pub(crate) cache: PlanCache,
    /// Label-pair edge-count matrix for the snapshot at `.0` (a store
    /// version), built lazily on the first lint/analysis run and reused
    /// until a commit changes the graph. Compaction keeps it: it changes
    /// representation, never counts.
    pub(crate) pairs: Option<(u64, Arc<LabelPairCounts>)>,
}

/// A query session over one data graph: owns the versioned graph store,
/// its reachability index, and the RIG plan cache. See the
/// [module docs](self) for a tour. `Session` is `Sync`: runs on other
/// threads keep executing against their snapshots while a writer commits.
pub struct Session {
    /// Snapshot, BFL index, plan cache and store counters. The session's
    /// lock order is rebase → state → store.
    state: Mutex<State>,
    /// Single-flights rebases: racing readers of one dirty snapshot
    /// build its clean base once. Taken before the state lock, never
    /// while holding it.
    pub(crate) rebase: Mutex<()>,
    config: GmConfig,
    pub(crate) compaction: CompactionPolicy,
    /// Durable companion (WAL + snapshot segments) when the session was
    /// opened on a store directory; `None` for in-memory sessions. Lock
    /// order is rebase → state → store: a holder of this lock never takes
    /// the state or rebase lock.
    pub(crate) store: Option<Mutex<DurableStore>>,
    /// What recovery did, when this session came from [`Session::open`].
    pub(crate) recovery: Option<RecoveryReport>,
    pub(crate) wal_flush_failures: AtomicU64,
}

impl Session {
    /// Locks the session state, recovering from a poisoned mutex. Every
    /// critical section over [`State`] is short, allocation-light and —
    /// under this crate's unwrap/expect/panic lints — panic-free, so a
    /// poison can only come from an allocator abort mid-update; the
    /// published `snapshot`/`bfl` Arcs are swapped atomically and stay
    /// coherent, and turning one panicked writer into a permanent outage
    /// for every later query would be strictly worse.
    pub(crate) fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens a session on `graph` with the paper-default [`GmConfig`].
    /// Builds the BFL reachability index once (the per-graph setup cost of
    /// Fig. 18a); every prepared query reuses it.
    pub fn new(graph: impl Into<Arc<DataGraph>>) -> Session {
        Session::with_config(graph, GmConfig::default())
    }

    /// Opens a session with an explicit pipeline configuration (ablation
    /// knobs, simulation tuning, enumeration defaults).
    pub fn with_config(graph: impl Into<Arc<DataGraph>>, config: GmConfig) -> Session {
        let base = graph.into();
        let bfl = BflIndex::new(&base);
        Session::assemble(Snapshot::clean(base), bfl, 0, config)
    }

    /// An in-memory session serving `snapshot`, whose base `bfl` indexes,
    /// with `ops_since_checkpoint` committed ops not yet checkpointed.
    pub(crate) fn assemble(
        snapshot: Snapshot,
        bfl: BflIndex,
        ops_since_checkpoint: u64,
        config: GmConfig,
    ) -> Session {
        Session {
            state: Mutex::new(State {
                snapshot: Arc::new(snapshot),
                bfl: Arc::new(bfl),
                commits: 0,
                compactions: 0,
                rebases: 0,
                index_extensions: 0,
                ops_since_checkpoint,
                cache: PlanCache::new(DEFAULT_CACHE_CAPACITY),
                pairs: None,
            }),
            rebase: Mutex::new(()),
            config,
            compaction: CompactionPolicy::default(),
            store: None,
            recovery: None,
            wal_flush_failures: AtomicU64::new(0),
        }
    }

    /// The session's pipeline configuration.
    pub fn config(&self) -> &GmConfig {
        &self.config
    }

    /// Plan-cache counters, read in one critical section.
    pub fn cache_stats(&self) -> CacheStats {
        self.state().cache.stats()
    }

    // -- static analysis ----------------------------------------------------

    /// Runs the static analyzer (`rig_analyze`) over HPQL text against
    /// the current snapshot: name resolution with did-you-mean hints,
    /// emptiness proofs (empty labels, zero label-pair edge counts,
    /// refuted reachability), redundancy lints and cost warnings. Never
    /// executes the query. Parse failures come back as `P001`
    /// diagnostics inside the report, not as `Err`.
    ///
    /// Analysis reads the clean base of the current version (a dirty
    /// snapshot is rebased first, as for a RIG build): the label-pair
    /// count matrix is built lazily and cached per store version, and
    /// reachability refutation probes that base's BFL index.
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
        let (snapshot, bfl) = self.clean_snapshot();
        let pairs = self.pair_counts(&snapshot);
        f(&Analyzer::new(snapshot.base()).with_pair_counts(&pairs).with_reach(&*bfl))
    }

    /// The published snapshot and the BFL index of its base, rebased
    /// first (single-flight, see [`Session::rebase`]) when the snapshot
    /// is dirty. Every RIG build and every analysis reads through this
    /// one rule, so each sees a clean base its BFL index describes.
    fn clean_snapshot(&self) -> (Arc<Snapshot>, Arc<BflIndex>) {
        let (snapshot, bfl) = {
            let st = self.state();
            (Arc::clone(&st.snapshot), Arc::clone(&st.bfl))
        };
        if snapshot.is_dirty() {
            self.rebase(&snapshot)
        } else {
            (snapshot, bfl)
        }
    }

    /// The label-pair count matrix for the clean `snapshot`, built
    /// (O(V + E)) on the first analysis after each commit and cached
    /// until the next one.
    fn pair_counts(&self, snapshot: &Snapshot) -> Arc<LabelPairCounts> {
        let version = snapshot.version();
        {
            let st = self.state();
            if let Some((v, pairs)) = &st.pairs {
                if *v == version {
                    return Arc::clone(pairs);
                }
            }
        }
        // built outside the lock; a racing commit just refuses the insert
        let pairs = Arc::new(LabelPairCounts::of(snapshot.base()));
        let mut st = self.state();
        if st.snapshot.version() == version {
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
    /// whether it came from the cache. A build reads a clean base (a
    /// dirty snapshot is rebased first), so selection and expansion probe
    /// the BFL index of the graph they read. No lock is held during the
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
        // only attempted lookups count: `no_cache` runs bypass the cache
        // and must not skew the hit rate
        if use_cache {
            if let Some(rig) = self.state().cache.get(&key) {
                return (rig, true);
            }
        }
        let (snapshot, bfl) = self.clean_snapshot();
        let opts = self.config.rig.with_deadline(deadline);
        let ctx = SimContext::new(snapshot.base(), &prepared.exec, &*bfl);
        let rig = Arc::new(build_rig(&ctx, &bfl, &opts));
        if use_cache && !rig.stats.timed_out {
            let mut st = self.state();
            // a commit may have landed while we built: then this RIG
            // describes a superseded snapshot and must not be cached
            if st.snapshot.version() == snapshot.version() {
                st.cache.insert(key, Arc::clone(&rig));
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

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("graph", &self.graph())
            .field("store", &self.store_stats())
            .field("cache", &self.cache_stats())
            .finish()
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
    use rig_graph::NodeId;
    use rig_mjoin::{CountSink, ResultSink, SearchOrder};
    use rig_query::EdgeKind;
    use rig_storage::StorageError;
    use std::time::Duration;

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
    fn no_cache_bypasses_the_cache() {
        let session = fig2_session();
        let p = session.prepare(FIG2_HPQL).unwrap();
        p.run().no_cache().count();
        p.run().no_cache().count();
        assert_eq!(session.cache_stats().hits, 0);
    }

    /// Hits and misses are counted under the state lock: after racing
    /// cached runs, every lookup is accounted for exactly once.
    #[test]
    fn concurrent_lookups_are_all_counted() {
        const RUNS: u64 = 50;
        let session = fig2_session();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let p = session.prepare(FIG2_HPQL).unwrap();
                    start.wait();
                    for _ in 0..RUNS {
                        assert_eq!(p.run().count().result.count, 2);
                    }
                });
            }
        });
        let stats = session.cache_stats();
        assert_eq!(stats.hits + stats.misses, 4 * RUNS, "{stats:?}");
        assert_eq!(stats.entries, 1);
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

    /// `explain` reports the same DP-vs-enumerate routing that `count`
    /// takes, under every budget knob and the escape hatch.
    #[test]
    fn explain_and_count_route_alike() {
        let session = fig2_session();
        let p = session.prepare("MATCH (a:A)->(b:B)=>(c:C)").unwrap();
        type Knob = for<'a, 's> fn(Run<'a, 's>) -> Run<'a, 's>;
        let knobs: [(&str, Knob); 5] = [
            ("none", |r| r),
            ("limit", |r| r.limit(100)),
            ("timeout", |r| r.timeout(Duration::from_secs(60))),
            ("injective", |r| r.injective(true)),
            ("force_enumerate", |r| r.force_enumerate()),
        ];
        for (name, knob) in knobs {
            let eligible = knob(p.run()).explain().count_strategy.eligible;
            let via_dp = knob(p.run()).count().metrics.counted_via_factorization;
            assert_eq!(eligible, via_dp, "{name}");
            assert_eq!(eligible, name == "none", "{name}");
        }
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
            let (tuples, _) = p.run().threads(threads).collect_all();
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

    /// `explain` names MJoin's memo split and the suffix it replays, or
    /// says there is none; injective runs never replay.
    #[test]
    fn explain_reports_the_memo_split() {
        let session = fig2_session();
        // Jo binds c, then the leaf d, so the suffix a → b replays while
        // the run into a repeats
        let p = session.prepare("MATCH (a:A)->(b:B), (a)=>(c:C)=>(d:C)").unwrap();
        let ex = p.run().explain();
        assert_eq!(ex.memo_split, Some(2));
        let shown = ex.to_string();
        assert!(shown.contains("memo:     split at position 2: replays [a → b]"), "{shown}");
        let iso = p.run().injective(true).explain();
        assert_eq!(iso.memo_split, None);
        assert!(iso.to_string().contains("memo:     none"), "{iso}");
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
        let (mut par_tuples, _) = p.run().threads(4).collect_all();
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
    fn direct_only_read_rebases_a_dirty_snapshot() {
        let session = dirty_fig2_session();
        let q = "MATCH (a:A)->(b:B)";
        let expect = sorted_matches(&Session::new(session.graph().materialize()), q);
        assert_eq!(sorted_matches(&session, q), expect);
        assert!(!session.graph().is_dirty());
        let stats = session.store_stats();
        assert_eq!((stats.rebases, stats.delta_ops), (1, 0));
        assert_eq!(session.prepare(q).unwrap().run().no_cache().count().result.count, 4);
        assert_eq!(session.store_stats().rebases, 1);
    }

    /// The diagnostic codes of `report`, in order.
    fn codes(report: &Report) -> Vec<rig_analyze::Code> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    /// Satisfiable, a refuted direct edge (C -> A) and a refuted
    /// reachability edge (C =*=> B) on the dirty fig2 graph.
    const ANALYZED: [&str; 3] = [FIG2_HPQL, "MATCH (c:C)->(a:A)", "MATCH (c:C)=>(b:B)"];

    #[test]
    fn analysis_of_a_dirty_snapshot_rebases_once() {
        let session = dirty_fig2_session();
        let rebuilt = Session::new(session.graph().materialize());
        for q in ANALYZED {
            assert_eq!(codes(&session.analyze(q)), codes(&rebuilt.analyze(q)), "{q}");
        }
        assert!(session.analyze(ANALYZED[1]).proven_empty());
        assert!(session.analyze(ANALYZED[2]).proven_empty());
        let stats = session.store_stats();
        assert_eq!((stats.rebases, stats.delta_ops), (1, 0));
        // a reachability read finds the base the analysis rebased
        assert_eq!(sorted_matches(&session, FIG2_HPQL), sorted_matches(&rebuilt, FIG2_HPQL));
        assert_eq!(session.store_stats().rebases, 1);
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

    /// Readers and analyses racing the first read of one dirty snapshot
    /// rebase it once. The rebase lock is held while they start, so all
    /// of them queue on it (a late starter finds the clean base), and
    /// only the first may materialize.
    #[test]
    fn racing_reachability_reads_rebase_once() {
        let session = dirty_fig2_session();
        let rebuilt = Session::new(session.graph().materialize());
        let expect = sorted_matches(&rebuilt, FIG2_HPQL);
        let expect_codes: Vec<_> = ANALYZED.iter().map(|q| codes(&rebuilt.analyze(q))).collect();
        let (answers, reports) = std::thread::scope(|s| {
            let flight = session.rebase.lock().unwrap();
            let readers: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        let p = session.prepare(FIG2_HPQL).unwrap();
                        let (mut t, _) = p.run().no_cache().collect_all();
                        t.sort();
                        t
                    })
                })
                .collect();
            let analyzers: Vec<_> = (0..3)
                .map(|_| s.spawn(|| ANALYZED.iter().map(|q| codes(&session.analyze(q))).collect()))
                .collect();
            std::thread::sleep(Duration::from_millis(100));
            drop(flight);
            let answers: Vec<_> = readers.into_iter().map(|r| r.join().unwrap()).collect();
            let reports: Vec<Vec<_>> = analyzers.into_iter().map(|a| a.join().unwrap()).collect();
            (answers, reports)
        });
        assert!(answers.iter().all(|t| *t == expect), "{answers:?}");
        assert!(reports.iter().all(|r| *r == expect_codes), "{reports:?}");
        assert_eq!(session.store_stats().rebases, 1);
        assert!(!session.graph().is_dirty());
    }

    /// A rebase of an older dirty version that runs after a newer clean
    /// base was published must not borrow that base's index: it rebuilds
    /// one for its own graph. fig2 is acyclic, and version 2's edge
    /// c0 -> a1 closes a cycle that version 1 does not have.
    #[test]
    fn rebase_of_an_older_version_rebuilds_its_index() {
        use rig_reach::Reachability;
        let session = fig2_session();
        let mut txn = session.begin();
        txn.add_named_node("A");
        session.commit(txn).unwrap();
        let old = session.graph();
        let mut txn = session.begin();
        txn.add_edge(7, 1);
        session.commit(txn).unwrap();
        assert!(session.compact());
        let stats = session.store_stats();
        assert_eq!((stats.rebases, stats.index_extensions), (1, 0), "a new path rebuilds");
        assert!(session.bfl().reaches(7, 1));

        let (clean, bfl) = session.rebase(&old);
        assert_eq!((clean.version(), clean.is_dirty(), clean.num_nodes()), (1, false, 11));
        let fresh = BflIndex::new(clean.base());
        for u in 0..11 {
            for v in 0..11 {
                assert_eq!(bfl.reaches(u, v), fresh.reaches(u, v), "{u} -> {v}");
            }
        }
        assert!(!bfl.reaches(7, 1), "version 1 has no c0 -> a1 path");
        // the stale rebase published nothing
        let stats = session.store_stats();
        assert_eq!((stats.version, stats.rebases, stats.index_extensions), (2, 1, 0));
        assert!(session.bfl().reaches(7, 1));
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
        // add a Paper -> Author edge: the proof must dissolve once the
        // commit lands (cache invalidated, counts rebuilt on the rebased
        // base)
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
        // BFL of the rebased base must see that
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
