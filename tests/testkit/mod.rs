//! Shared machinery of the root integration tests: one copy of the graph
//! regimes, the query shapes, the mutation batches, the answer oracle and
//! the per-case answer check that `tests/matrix.rs` runs over its table
//! and the named suites run over their own cases.
//!
//! The oracle is [`rigmatch::baselines::brute_force_tuples`]: naive
//! backtracking over the raw graph with on-line DFS reachability, so it
//! shares no code with the engine under test. A hybrid pattern's answer is
//! its set of homomorphisms: each direct edge maps to a data edge, each
//! reachability edge to a non-empty path.

// every test binary uses a different part of the kit
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rigmatch::core::factorized::Factorization;
use rigmatch::core::{
    CompactionPolicy, GmConfig, GraphTxn, MemBackend, Session, StorageBackend, StoreOptions,
};
use rigmatch::graph::{CommitImpact, DataGraph, DeltaOverlay, GraphBuilder, MutationOp, NodeId};
use rigmatch::mjoin::{
    enumerate_sink, CollectSink, CountSink, EnumOptions, EnumResult, Plan, SearchOrder,
};
use rigmatch::query::{EdgeKind, PatternQuery, QNode};
use rigmatch::reach::{BflIndex, Reachability, SnapshotReach};
use rigmatch::rig::{build_rig, Rig, RigOptions, SelectMode};
use rigmatch::sim::{DirectCheckMode, SimContext};

pub const D: EdgeKind = EdgeKind::Direct;
pub const R: EdgeKind = EdgeKind::Reachability;

pub const ORDERS: [SearchOrder; 3] = [SearchOrder::Jo, SearchOrder::Ri, SearchOrder::Bj];
pub const SELECT_MODES: [SelectMode; 4] = [
    SelectMode::PrefilterThenSim,
    SelectMode::SimOnly,
    SelectMode::PrefilterOnly,
    SelectMode::MatchSets,
];
pub const DIRECT_MODES: [DirectCheckMode; 3] =
    [DirectCheckMode::BinSearch, DirectCheckMode::BitIter, DirectCheckMode::BitBat];

// ---------------------------------------------------------------------------
// graphs
// ---------------------------------------------------------------------------

/// The SCC structure of a test graph, which decides how many adjacency
/// runs a reachability RIG edge stores: one per source SCC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// A Hamiltonian cycle plus chords: every node in one SCC, so every
    /// reachability run is shared.
    GiantScc,
    /// Cycles of three consecutive nodes, joined by edges from earlier to
    /// later groups only.
    SmallSccs,
    /// Edges from lower to higher ids only: every SCC is one node, one run
    /// per source.
    Dag,
}

pub const REGIMES: [Regime; 3] = [Regime::GiantScc, Regime::SmallSccs, Regime::Dag];

/// A graph of `n` nodes (a multiple of 3) over `labels` labels. Labels
/// cycle with the id, so every label class spans the whole id range (the
/// DAG's topological order).
pub fn graph(regime: Regime, seed: u64, n: usize, labels: u32) -> DataGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    for i in 0..n {
        b.add_node(i as u32 % labels);
    }
    let node = |i: usize| i as NodeId;
    match regime {
        Regime::GiantScc => (0..n).for_each(|i| b.add_edge(node(i), node((i + 1) % n))),
        Regime::SmallSccs => (0..n).step_by(3).for_each(|g| {
            b.add_edge(node(g), node(g + 1));
            b.add_edge(node(g + 1), node(g + 2));
            b.add_edge(node(g + 2), node(g));
        }),
        Regime::Dag => {}
    }
    // the acyclic regimes need more edges for non-trivial answers
    let extra = match regime {
        Regime::GiantScc => 3 * n,
        Regime::SmallSccs => 6 * n,
        Regime::Dag => 10 * n,
    };
    for _ in 0..extra {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let keep = match regime {
            Regime::GiantScc => u != v,
            Regime::SmallSccs => u / 3 < v / 3,
            Regime::Dag => u < v,
        };
        if keep {
            b.add_edge(node(u), node(v));
        }
    }
    b.build()
}

/// A random graph of `nodes` nodes and up to `edges` edges, with one node
/// of every label first, so every label's class is populated.
pub fn random_graph(nodes: usize, edges: usize, labels: u32, seed: u64) -> DataGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    for i in 0..nodes {
        b.add_node(if i < labels as usize { i as u32 } else { rng.gen_range(0..labels) });
    }
    for _ in 0..edges {
        let (u, v) = (rng.gen_range(0..nodes) as NodeId, rng.gen_range(0..nodes) as NodeId);
        if u != v {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// One label, `n` nodes, `edges` random edges: every reachability chain
/// query over it has an astronomically large answer.
pub fn explosive_graph(seed: u64, n: usize, edges: usize) -> DataGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    for _ in 0..n {
        b.add_node(0);
    }
    for _ in 0..edges {
        let (u, v) = (rng.gen_range(0..n) as NodeId, rng.gen_range(0..n) as NodeId);
        if u != v {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// A reachability chain of `len` nodes, all of label 0.
pub fn reach_chain(len: u32) -> PatternQuery {
    let mut q = PatternQuery::new(vec![0; len as usize]);
    for i in 1..len {
        q.add_edge(i - 1, i, R);
    }
    q
}

// ---------------------------------------------------------------------------
// queries
// ---------------------------------------------------------------------------

/// A pattern with `labels` per node and edges zipped with their kinds.
pub fn query(labels: &[u32], edges: &[(u32, u32)], kinds: &[EdgeKind]) -> PatternQuery {
    let mut q = PatternQuery::new(labels.to_vec());
    for (&(from, to), &kind) in edges.iter().zip(kinds) {
        q.add_edge(from, to, kind);
    }
    q
}

/// HQ0: a leaf bound before a branch that never reads it.
pub const HQ0: [(u32, u32); 3] = [(0, 1), (0, 2), (2, 3)];
/// HQ6: a diamond, whose closing node intersects two runs.
pub const HQ6: [(u32, u32); 4] = [(0, 1), (0, 2), (1, 3), (2, 3)];
/// HQ8: two diamonds sharing node 3.
pub const HQ8: [(u32, u32); 7] = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)];
/// HQ13: seven nodes, reachability edges into a suffix of shared runs.
pub const HQ13: [(u32, u32); 10] =
    [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 6), (5, 6), (2, 6)];

/// A named query and the graph size it runs at: the oracle is exhaustive,
/// so wide queries run on smaller graphs.
pub struct Shape {
    pub name: &'static str,
    pub q: PatternQuery,
    pub n: usize,
    pub labels: u32,
}

fn shape(name: &'static str, q: PatternQuery, n: usize, labels: u32) -> Shape {
    Shape { name, q, n, labels }
}

/// The HQ0 and HQ13 shapes whose plans split for the suffix memo on the
/// giant SCC.
pub fn memo_shapes() -> Vec<Shape> {
    vec![
        // direct edges store one run per source: the split qualifies only
        // through a leaf no later step reads
        shape("HQ0 direct", query(&[0, 1, 1, 0], &HQ0, &[D; 3]), 30, 2),
        shape("HQ0 hybrid", query(&[0, 1, 1, 0], &HQ0, &[D, R, R]), 30, 2),
        shape(
            "HQ13 hybrid",
            query(&[0, 1, 2, 0, 1, 2, 0], &HQ13, &[R, R, D, R, R, R, R, R, D, R]),
            18,
            3,
        ),
    ]
}

/// HQ6 and HQ8 diamonds over two labels, so each diamond's closing node
/// shares its source's label. The hybrid HQ6 runs on a graph wider than
/// one 64-bit word, for the bitmap direct checks.
pub fn diamond_shapes() -> Vec<Shape> {
    vec![
        shape("HQ6 reach", query(&[0, 1, 1, 0], &HQ6, &[R; 4]), 24, 2),
        shape("HQ6 hybrid", query(&[0, 1, 1, 0], &HQ6, &[D, R, R, D]), 72, 2),
        shape("HQ8 hybrid", query(&[0, 1, 1, 0, 1, 0], &HQ8, &[D, R, D, R, D, R, R]), 24, 2),
    ]
}

/// Tree shapes, whose DP is the dense pass alone: a reachability chain,
/// an out-tree and an in-tree (whose child links read predecessor runs).
pub fn tree_shapes() -> Vec<Shape> {
    vec![
        shape("chain", query(&[0, 1, 0], &[(0, 1), (1, 2)], &[R, R]), 24, 2),
        shape("out-tree", query(&[0, 1, 1, 0], &[(0, 1), (0, 2), (2, 3)], &[D, R, R]), 24, 2),
        shape("in-tree", query(&[0, 1, 0, 1], &[(1, 0), (2, 0), (3, 2)], &[R, R, D]), 24, 2),
    ]
}

/// Cyclic shapes beyond the diamonds, which condition the DP on a vertex
/// cover: a reachability triangle and a hybrid triangle.
pub fn cyclic_shapes() -> Vec<Shape> {
    vec![
        shape("reach triangle", query(&[0, 1, 0], &[(0, 1), (1, 2), (0, 2)], &[R, R, R]), 24, 2),
        // wider than one 64-bit word, for the bitmap direct checks
        shape("hybrid triangle", query(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)], &[D, R, R]), 96, 3),
    ]
}

/// Small shapes over labels 0..3 in three edge-kind flavours (all direct,
/// all reachability, alternating): trees (a 2-chain, a 3-chain, an
/// out-star) and cyclic shapes (a triangle, a 4-cycle, a diamond with a
/// chord), for small random graphs.
pub fn flavoured_queries() -> Vec<PatternQuery> {
    let mut out = Vec::new();
    for ks in [[D; 5], [R; 5], [D, R, D, R, R]] {
        out.push(query(&[0, 1], &[(0, 1)], &ks));
        out.push(query(&[0, 1, 2], &[(0, 1), (1, 2)], &ks));
        out.push(query(&[1, 0, 2], &[(0, 1), (0, 2)], &ks));
        out.push(query(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)], &ks));
        out.push(query(&[0, 1, 2, 0], &[(0, 1), (1, 2), (3, 2), (0, 3)], &ks));
        let chord = [ks[0], ks[1], ks[2], ks[3], R];
        out.push(query(&[0, 1, 1, 2], &[(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)], &chord));
    }
    out
}

/// Every shape the matrix runs.
pub fn all_shapes() -> Vec<Shape> {
    let mut out = memo_shapes();
    out.extend(diamond_shapes());
    out.extend(tree_shapes());
    out.extend(cyclic_shapes());
    out
}

// ---------------------------------------------------------------------------
// oracle and engine runs
// ---------------------------------------------------------------------------

/// Every occurrence of `q` in `g`, sorted: the oracle.
pub use rigmatch::baselines::brute_force_tuples as oracle;

/// The RIG of `q` over a clean graph with its own fresh index.
pub fn rig(g: &DataGraph, q: &PatternQuery, opts: &RigOptions) -> Rig {
    let bfl = BflIndex::new(g);
    build_rig(&SimContext::new(g, q, &bfl), opts)
}

/// One sequential run, its tuples sorted.
pub fn sequential(
    q: &PatternQuery,
    rig: &Rig,
    opts: &EnumOptions,
) -> (Vec<Vec<NodeId>>, EnumResult) {
    let mut sink = CollectSink::default();
    let r = enumerate_sink(q, rig, opts, &mut sink);
    sink.tuples.sort_unstable();
    (sink.tuples, r)
}

/// A sequential count through a [`CountSink`].
pub fn count(q: &PatternQuery, rig: &Rig, opts: &EnumOptions) -> EnumResult {
    enumerate_sink(q, rig, opts, &mut CountSink::default())
}

/// Steps a memo-free MJoin takes over `rig` in search order `order`,
/// stopping at the `limit`-th answer: Σ_{i<n} P_i, where P_i counts the
/// consistent bindings of the first `i` positions (P_0 = 1, the root).
/// It reads only [`Rig::candidates`] and run membership, so it shares no
/// search code with the engine.
pub fn memo_free_steps(q: &PatternQuery, rig: &Rig, order: &[QNode], limit: u64) -> u64 {
    struct Walk<'a> {
        q: &'a PatternQuery,
        rig: &'a Rig,
        order: &'a [QNode],
        /// Local candidate id per query node, valid once bound.
        bound: Vec<u32>,
        is_bound: Vec<bool>,
        steps: u64,
        left: u64,
    }
    impl Walk<'_> {
        fn consistent(&self, qn: QNode, v: u32) -> bool {
            self.q.edges().iter().enumerate().all(|(eid, e)| {
                let eid = eid as u32;
                if e.from == qn && self.is_bound[e.to as usize] {
                    self.rig.successors_local(eid, v).contains(self.bound[e.to as usize])
                } else if e.to == qn && self.is_bound[e.from as usize] {
                    self.rig.successors_local(eid, self.bound[e.from as usize]).contains(v)
                } else {
                    true
                }
            })
        }

        /// False once the limit stopped the walk.
        fn walk(&mut self, i: usize) -> bool {
            if i == self.order.len() {
                self.left -= 1;
                return self.left > 0;
            }
            self.steps += 1;
            let qn = self.order[i];
            for v in 0..self.rig.candidates(qn as usize).len() as u32 {
                if self.consistent(qn, v) {
                    self.bound[qn as usize] = v;
                    self.is_bound[qn as usize] = true;
                    let more = self.walk(i + 1);
                    self.is_bound[qn as usize] = false;
                    if !more {
                        return false;
                    }
                }
            }
            true
        }
    }
    let n = q.num_nodes();
    let mut w = Walk {
        q,
        rig,
        order,
        bound: vec![0; n],
        is_bound: vec![false; n],
        steps: 0,
        left: limit.max(1),
    };
    if !rig.is_empty() {
        w.walk(0);
    }
    w.steps
}

// ---------------------------------------------------------------------------
// stores
// ---------------------------------------------------------------------------

/// How the graph a case reads reached its current state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Store {
    /// The base graph as built.
    Clean,
    /// Committed mutations still in the delta overlay, read through a RIG
    /// built outside the session over the snapshot with `SnapshotReach`.
    Dirty,
    /// Node-only and implied-edge commits, rebased by a read that extends
    /// the published index.
    RebasedExtended,
    /// Commits that remove an edge, rebased by a read that rebuilds the
    /// index.
    RebasedRebuilt,
    /// Committed mutations folded into the base by a compaction.
    Compacted,
    /// Committed mutations written ahead to a `MemBackend` store, crashed
    /// and recovered from the segment and the WAL.
    Recovered,
}

pub const STORES: [Store; 6] = [
    Store::Clean,
    Store::Dirty,
    Store::RebasedExtended,
    Store::RebasedRebuilt,
    Store::Compacted,
    Store::Recovered,
];

/// Stages up to `ops` random mutations on a transaction, validating each
/// on a scratch overlay first (an earlier staged removal may have killed
/// an endpoint), so the commit applies cleanly.
pub fn random_txn(session: &Session, gen_state: &mut u64, ops: usize, labels: u32) -> GraphTxn {
    let mut scratch: DeltaOverlay = (**session.graph().delta()).clone();
    let mut txn = session.begin();
    for _ in 0..ops {
        if let Some(op) = scratch.random_mutation(gen_state, labels) {
            if scratch.apply(&op, &mut CommitImpact::default()).is_ok() {
                txn.push(op);
            }
        }
    }
    txn
}

/// Up to three edges the session's index implies but the graph lacks,
/// plus one added node: a delta the rebase extends the index for.
fn implied_ops(session: &Session, seed: u64) -> Vec<MutationOp> {
    let (g, bfl) = (session.graph(), session.bfl());
    let n = g.num_nodes() as NodeId;
    let implied: Vec<(NodeId, NodeId)> = (0..n)
        .flat_map(|u| (0..n).map(move |v| (u, v)))
        .filter(|&(u, v)| bfl.reaches(u, v) && !g.has_edge(u, v))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops: Vec<MutationOp> = (0..3.min(implied.len()))
        .map(|_| {
            let (u, v) = implied[rng.gen_range(0..implied.len())];
            MutationOp::AddEdge(u, v)
        })
        .collect();
    ops.dedup();
    ops.push(MutationOp::AddNode(rigmatch::graph::LabelSpec::Id(0)));
    ops
}

/// Rebases the session's dirty snapshot the way a read does: an analysis
/// with a reachability edge.
fn rebase_by_a_read(session: &Session) {
    session.analyze("MATCH (a:0)=>(b:1)");
    assert!(!session.graph().is_dirty(), "the read rebased the snapshot");
}

/// A session over `base` in state `store` (see [`Store`]), with its
/// mutations drawn from `seed`. Reads on a dirty session rebase it, so
/// the caller checks a [`Store::Dirty`] case outside the session first.
pub fn open_store(store: Store, base: DataGraph, cfg: GmConfig, seed: u64, labels: u32) -> Session {
    let mut gen_state = seed ^ 0xD1FF;
    let commits = |session: &Session, gen_state: &mut u64| {
        for _ in 0..2 {
            let txn = random_txn(session, gen_state, 6, labels);
            session.commit(txn).expect("scratch-validated ops commit cleanly");
        }
    };
    let session =
        |g: DataGraph| Session::with_config(g, cfg).with_compaction(CompactionPolicy::disabled());
    match store {
        Store::Clean => session(base),
        Store::Dirty => {
            let s = session(base);
            commits(&s, &mut gen_state);
            assert!(s.graph().is_dirty(), "the commits changed the graph");
            s
        }
        Store::RebasedExtended => {
            let s = session(base);
            s.apply(&implied_ops(&s, seed)).expect("implied edges commit");
            rebase_by_a_read(&s);
            let stats = s.store_stats();
            assert_eq!((stats.rebases, stats.index_extensions), (1, 1), "an extension");
            s
        }
        Store::RebasedRebuilt => {
            let s = session(base);
            let (u, v) = s.graph().base().edges().next().expect("a non-empty base graph");
            s.apply(&[MutationOp::RemoveEdge(u, v)]).expect("an existing edge is removable");
            commits(&s, &mut gen_state);
            rebase_by_a_read(&s);
            let stats = s.store_stats();
            assert_eq!((stats.rebases, stats.index_extensions), (1, 0), "a rebuild");
            s
        }
        Store::Compacted => {
            let s = session(base);
            commits(&s, &mut gen_state);
            assert!(s.compact(), "committed ops make the session compactable");
            s
        }
        Store::Recovered => {
            let backend = Arc::new(MemBackend::new());
            let dir = Path::new("/matrix-store");
            let as_dyn = || Arc::clone(&backend) as Arc<dyn StorageBackend>;
            let s = Session::create_at_with(dir, base, cfg, as_dyn(), StoreOptions::default())
                .expect("create the store");
            commits(&s, &mut gen_state);
            drop(s);
            backend.simulate_crash();
            let s = Session::open_with(dir, cfg, as_dyn(), StoreOptions::default())
                .expect("recover the store");
            assert_eq!(s.recovery_report().map(|r| r.recovered_version), Some(2));
            s.with_compaction(CompactionPolicy::disabled())
        }
    }
}

/// The RIG of `q` over the session's current snapshot, built outside the
/// session: over a clean snapshot with the session's published index,
/// over a dirty one with `SnapshotReach`, so the build sweeps the
/// snapshot's own condensation.
pub fn session_rig(session: &Session, q: &PatternQuery, opts: &RigOptions) -> Rig {
    let (snapshot, bfl) = (session.graph(), session.bfl());
    if snapshot.is_dirty() {
        let reach = SnapshotReach::new(&snapshot, &bfl);
        build_rig(&SimContext::new(&*snapshot, q, &reach), opts)
    } else {
        build_rig(&SimContext::new(snapshot.base().as_ref(), q, &*bfl), opts)
    }
}

// ---------------------------------------------------------------------------
// the per-case check
// ---------------------------------------------------------------------------

/// The budget a case runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Runs to completion.
    None,
    /// Limits below the answer size: exactly that many tuples, flagged.
    Limit,
    /// A deadline already past: every run reports a timeout.
    PastDeadline,
}

pub const BUDGETS: [Budget; 3] = [Budget::None, Budget::Limit, Budget::PastDeadline];

/// The sampled dimensions of one case.
#[derive(Debug, Clone, Copy)]
pub struct Dims {
    pub order: SearchOrder,
    pub select: SelectMode,
    pub direct: DirectCheckMode,
    pub budget: Budget,
    pub store: Store,
}

impl Dims {
    /// Draws every dimension from `seed`.
    pub fn sample(seed: u64) -> Dims {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pick = |len: usize| rng.gen_range(0..len);
        Dims {
            order: ORDERS[pick(3)],
            select: SELECT_MODES[pick(4)],
            direct: DIRECT_MODES[pick(3)],
            budget: BUDGETS[pick(3)],
            store: STORES[pick(6)],
        }
    }

    /// A clean store with the default options and no budget.
    pub fn clean() -> Dims {
        let rig = RigOptions::default();
        Dims {
            order: SearchOrder::Jo,
            select: rig.select,
            direct: rig.sim.direct_mode,
            budget: Budget::None,
            store: Store::Clean,
        }
    }

    pub fn rig_options(&self) -> RigOptions {
        let mut opts = RigOptions { select: self.select, ..RigOptions::default() };
        opts.sim.direct_mode = self.direct;
        opts
    }

    pub fn config(&self) -> GmConfig {
        GmConfig { rig: self.rig_options(), ..GmConfig::default() }
    }
}

/// What one check exercised, for the matrix's coverage assertions.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checked {
    /// The answer was non-empty.
    pub answers: bool,
    /// The engine's plan had a suffix-memo split.
    pub memo_split: bool,
    /// The DP conditioned on a vertex cover (a cyclic shape).
    pub conditioned: bool,
}

/// Checks every way of computing the answer of `q` over `session` (set up
/// as `dims.store`) against the oracle over the session's materialized
/// snapshot: MJoin runs, the DP count, injective runs, the budget
/// `dims.budget`, and the session's collect, stream (enumeration) and DP
/// `count` terminals.
pub fn check(session: &Session, q: &PatternQuery, dims: &Dims, what: &str) -> Checked {
    let ctx = format!("{what} {dims:?}");
    let truth = session.graph().materialize();
    let expect = oracle(&truth, q, false);
    let iso = oracle(&truth, q, true);
    let len = expect.len() as u64;

    // engine runs over a RIG built outside the session
    let rig = session_rig(session, q, &dims.rig_options());
    let opts = EnumOptions { order: dims.order, ..Default::default() };
    let memo_split = Plan::new(q, &rig, &opts).memo_split().is_some();
    let (seq, r) = sequential(q, &rig, &opts);
    assert_eq!(seq, expect, "sequential, {ctx}");
    assert!(r.count == len && !r.limit_hit && !r.timed_out, "sequential result {r:?}, {ctx}");
    let inj = EnumOptions { injective: true, ..opts };
    assert_eq!(Plan::new(q, &rig, &inj).memo_split(), None, "injective plans never split, {ctx}");
    assert_eq!(sequential(q, &rig, &inj).0, iso, "injective, {ctx}");

    let mut conditioned = false;
    if !rig.is_empty() {
        let mut f = Factorization::new(q, &rig);
        conditioned = !f.shape().conditioned.is_empty();
        // twice, so the second pass reuses the memo scratch
        for _ in 0..2 {
            assert_eq!(f.count().total, Some(u128::from(len)), "DP count, {ctx}");
        }
    } else {
        assert!(expect.is_empty(), "an empty RIG lost answers, {ctx}");
    }

    match dims.budget {
        Budget::None => {}
        Budget::Limit => {
            let mut limits = vec![1, len / 2, len.saturating_sub(1)];
            limits.retain(|&k| k > 0 && k < len);
            limits.dedup();
            for k in limits {
                let (tuples, r) = sequential(q, &rig, &EnumOptions { limit: Some(k), ..opts });
                let ctx = format!("limit {k}, {ctx}");
                assert!(r.count == k && r.limit_hit && !r.timed_out, "{r:?}, {ctx}");
                assert_eq!(tuples.len() as u64, k, "{ctx}");
                assert!(tuples.windows(2).all(|w| w[0] != w[1]), "duplicate tuple, {ctx}");
                assert!(tuples.iter().all(|t| expect.binary_search(t).is_ok()), "{ctx}");
            }
        }
        Budget::PastDeadline => {
            let opts = EnumOptions { deadline: Some(Instant::now()), ..opts };
            if !rig.is_empty() {
                assert!(count(q, &rig, &opts).timed_out, "past deadline, {ctx}");
            }
        }
    }

    // the session's terminals (a read rebases a dirty snapshot)
    let p = session.prepare(q).expect("the case's query validates");
    let run = || p.run().order(dims.order);
    let (mut tuples, o) = run().collect_all();
    tuples.sort_unstable();
    assert_eq!(tuples, expect, "session collect, {ctx}");
    assert!(!o.result.limit_hit && !o.result.timed_out, "session collect, {ctx}");
    let mut sink = CountSink::default();
    assert_eq!(run().stream(&mut sink).result.count, len, "session stream, {ctx}");
    assert_eq!(sink.count, len, "session stream sink, {ctx}");
    let dp = run().count();
    assert_eq!(dp.result.count, len, "session DP count, {ctx}");
    let empty = run().explain().empty_answer;
    assert_eq!(dp.metrics.counted_via_factorization, !empty, "DP witness, {ctx}");
    let inj = run().injective(true).count();
    assert_eq!(inj.result.count, iso.len() as u64, "session injective, {ctx}");
    match dims.budget {
        Budget::Limit if len > 1 => {
            let o = run().limit(len - 1).count();
            assert!(o.result.count == len - 1 && o.result.limit_hit, "session limit, {ctx}");
        }
        Budget::PastDeadline if len > 0 => {
            let o = run().timeout(Duration::ZERO).count();
            assert!(o.result.timed_out, "session past deadline, {ctx}");
        }
        _ => {}
    }
    Checked { answers: len > 0, memo_split, conditioned }
}

// ---------------------------------------------------------------------------
// allocation counting
// ---------------------------------------------------------------------------

/// A global allocator that counts the bytes each thread asks for, so an
/// allocation bound is a byte count that does not depend on timing. A
/// test binary installs it with `#[global_allocator] static GLOBAL:
/// testkit::CountingAlloc = testkit::CountingAlloc;` and measures with
/// [`bytes_during`].
pub struct CountingAlloc;

thread_local! {
    /// Bytes allocated by this thread. A const-initialized `Cell` needs no
    /// lazy set-up and no destructor, so the allocator can touch it
    /// without allocating.
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc(bytes: usize) {
    // a thread being torn down may have lost its slot: skip the count
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    /// Counts the whole new block: an upper bound on what a grown block
    /// adds.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// `f`'s result and the bytes the calling thread allocated running it
/// (0 unless the binary installed [`CountingAlloc`]).
pub fn bytes_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOC_BYTES.with(Cell::get);
    let out = f();
    (out, ALLOC_BYTES.with(Cell::get) - before)
}
