//! Differential test of the direct-edge checks: for every direct query edge,
//! forward and backward, `BitBat`, `BitIter` and `BinSearch` must prune
//! exactly the nodes a naive oracle over a model edge set prunes, and leave
//! every other candidate set alone.
//!
//! The candidate sets are handed in directly (not derived from labels), so
//! they can hold ids on word and roaring-chunk boundaries, dense chunks,
//! overlay-added ids and tombstoned ids.

use std::collections::BTreeSet;
use std::sync::Arc;

use rig_bitset::Bitset;
use rig_graph::{
    CommitImpact, DataGraph, DeltaOverlay, GraphBuilder, GraphView, LabelSpec, MutationOp, NodeId,
    Snapshot,
};
use rig_query::{EdgeId, EdgeKind, PatternQuery};
use rig_reach::{BflIndex, SnapshotReach};
use rig_sim::{backward_prune_edge, forward_prune_edge, DirectCheckMode, SimContext, SimOptions};

const MODES: [DirectCheckMode; 3] =
    [DirectCheckMode::BitBat, DirectCheckMode::BitIter, DirectCheckMode::BinSearch];

/// The model graph: every edge as `(from, to)` and as `(to, from)`.
#[derive(Default)]
struct Edges {
    out: BTreeSet<(NodeId, NodeId)>,
    inc: BTreeSet<(NodeId, NodeId)>,
}

impl Edges {
    fn insert(&mut self, u: NodeId, v: NodeId) {
        self.out.insert((u, v));
        self.inc.insert((v, u));
    }

    /// Drops `v` and every edge incident to it.
    fn remove_node(&mut self, v: NodeId) {
        self.out.retain(|&(a, b)| a != v && b != v);
        self.inc.retain(|&(a, b)| a != v && b != v);
    }

    fn adj(set: &BTreeSet<(NodeId, NodeId)>, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        set.range((v, 0)..=(v, NodeId::MAX)).map(|&(_, w)| w)
    }

    /// The model agrees with `graph` on every adjacency list.
    fn assert_models(&self, graph: GraphView<'_>) {
        assert_eq!(graph.num_edges(), self.out.len());
        for v in 0..graph.num_nodes() as NodeId {
            assert!(graph.out_neighbors(v).iter().copied().eq(Self::adj(&self.out, v)), "out {v}");
            assert!(graph.in_neighbors(v).iter().copied().eq(Self::adj(&self.inc, v)), "in {v}");
        }
    }
}

/// `(kept, pruned)`: `v ∈ cands` is kept iff some `adj` neighbor of `v` is
/// in `other`.
fn oracle(
    adj: &BTreeSet<(NodeId, NodeId)>,
    cands: &Bitset,
    other: &Bitset,
) -> (Vec<NodeId>, Vec<NodeId>) {
    cands.iter().partition(|&v| Edges::adj(adj, v).any(|w| other.contains(w)))
}

/// Runs both checks of every edge of `ctx.query`, in every mode, from `fb`
/// and compares each against the oracle.
fn check_all(ctx: &SimContext<'_>, edges: &Edges, fb: &[Bitset]) {
    for eid in 0..ctx.query.num_edges() as EdgeId {
        let e = ctx.query.edge(eid);
        assert_eq!(e.kind, EdgeKind::Direct);
        let (qi, qj) = (e.from as usize, e.to as usize);
        let fwd = oracle(&edges.out, &fb[qi], &fb[qj]);
        let bwd = oracle(&edges.inc, &fb[qj], &fb[qi]);
        for mode in MODES {
            let opts = SimOptions { direct_mode: mode, ..SimOptions::default() };
            for (side, (kept, pruned)) in [(qi, &fwd), (qj, &bwd)] {
                let mut got = fb.to_vec();
                let removed = if side == qi {
                    forward_prune_edge(ctx, &mut got, eid, &opts)
                } else {
                    backward_prune_edge(ctx, &mut got, eid, &opts)
                };
                let dir = if side == qi { "forward" } else { "backward" };
                assert_eq!(&removed, pruned, "{mode:?} {dir} edge {eid}: pruned");
                assert_eq!(&got[side].to_vec(), kept, "{mode:?} {dir} edge {eid}: kept");
                for (q, set) in got.iter().enumerate().filter(|&(q, _)| q != side) {
                    assert_eq!(set, &fb[q], "{mode:?} {dir} edge {eid}: touched set {q}");
                }
            }
        }
    }
}

/// A cyclic query over four nodes (labels are not consulted by the checks).
fn query() -> PatternQuery {
    let mut q = PatternQuery::new(vec![0; 4]);
    for (from, to) in [(0, 1), (1, 2), (2, 0), (0, 3), (3, 1)] {
        q.add_edge(from, to, EdgeKind::Direct);
    }
    q
}

/// Deterministic splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> NodeId {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as NodeId
    }

    /// `count` draws from `pool`, plus each of `always`.
    fn pick(&mut self, pool: &[NodeId], count: usize, always: &[NodeId]) -> Bitset {
        let draws = (0..count).map(|_| pool[self.below(pool.len()) as usize]);
        draws.chain(always.iter().copied()).collect()
    }
}

fn build(n: usize, edges: &Edges) -> DataGraph {
    let mut b = GraphBuilder::new();
    b.add_nodes(0, n);
    for &(u, v) in &edges.out {
        b.add_edge(u, v);
    }
    b.build()
}

/// Ids on both sides of 64-bit word and 2^16 roaring-chunk boundaries.
const BOUNDARY: [NodeId; 10] = [0, 63, 64, 65, 127, 128, 65_534, 65_535, 65_536, 65_537];

#[test]
fn wide_graph_crosses_word_and_chunk_boundaries() {
    const N: usize = 70_000;
    let mut rng = Rng(7);
    // a pool of "busy" ids around the boundaries and spread over the range
    let mut pool: Vec<NodeId> = BOUNDARY.to_vec();
    pool.extend((0..600).map(|_| rng.below(N)));
    pool.extend(60_000..60_040);
    let mut edges = Edges::default();
    for &u in &BOUNDARY {
        for &v in &BOUNDARY {
            if rng.below(2) == 0 {
                edges.insert(u, v);
            }
        }
    }
    for _ in 0..4_000 {
        let (u, v) = (pool[rng.below(pool.len()) as usize], pool[rng.below(pool.len()) as usize]);
        edges.insert(u, v);
    }
    let g = build(N, &edges);
    assert_eq!(g.num_nodes(), N);
    edges.assert_models(GraphView::from(&g));
    let q = query();
    let bfl = BflIndex::new(&g);
    let ctx = SimContext::new(&g, &q, &bfl);
    // a dense candidate set: bitmap containers on both sides of 65 536
    let dense: Bitset = (60_000..70_000).collect();
    for round in 0..6 {
        let mut fb: Vec<Bitset> = (0..4).map(|_| rng.pick(&pool, 150, &[])).collect();
        // the boundary ids go in on alternating sides
        fb[round % 4].extend(BOUNDARY);
        fb[(round + 1) % 4].extend(BOUNDARY);
        if round % 2 == 0 {
            fb[round % 4].or_assign(&dense);
        }
        check_all(&ctx, &edges, &fb);
    }
}

#[test]
fn dirty_snapshot_with_added_and_tombstoned_nodes() {
    const BASE: usize = 130;
    let mut rng = Rng(11);
    let mut edges = Edges::default();
    for _ in 0..600 {
        edges.insert(rng.below(BASE), rng.below(BASE));
    }
    let base = Arc::new(build(BASE, &edges));
    let bfl = BflIndex::new(&base);
    let mut overlay = DeltaOverlay::new(base);
    let mut impact = CommitImpact::default();
    let mut apply = |op: MutationOp| overlay.apply(&op, &mut impact).unwrap();
    // 70 added nodes: ids 130..200 span words 2 and 3
    for _ in 0..70 {
        apply(MutationOp::AddNode(LabelSpec::Id(0)));
    }
    const N: usize = BASE + 70;
    for _ in 0..500 {
        let (u, v) = (rng.below(N), rng.below(N));
        if u as usize >= BASE || v as usize >= BASE {
            apply(MutationOp::AddEdge(u, v));
            edges.insert(u, v);
        }
    }
    let mut tombstoned = Vec::new();
    for v in [0, 63, 64, 129, 130, 191, 192, 199] {
        apply(MutationOp::RemoveNode(v));
        edges.remove_node(v);
        tombstoned.push(v);
    }
    let snap = Snapshot::new(Arc::new(overlay), 1);
    assert!(snap.is_dirty());
    assert_eq!(snap.num_nodes(), N);
    edges.assert_models(GraphView::from(&snap));
    let q = query();
    let reach = SnapshotReach::new(&snap, &bfl);
    let ctx = SimContext::new(&snap, &q, &reach);
    let all: Vec<NodeId> = (0..N as NodeId).collect();
    for round in 0..8 {
        let mut fb: Vec<Bitset> = (0..4).map(|_| rng.pick(&all, 60, &[])).collect();
        fb[round % 4].extend(tombstoned.iter().copied());
        fb[(round + 2) % 4].extend(BASE as NodeId..N as NodeId);
        check_all(&ctx, &edges, &fb);
    }
}

#[test]
fn empty_candidate_sets_on_either_side() {
    let mut rng = Rng(3);
    let mut edges = Edges::default();
    for _ in 0..300 {
        edges.insert(rng.below(100), rng.below(100));
    }
    let g = build(100, &edges);
    let q = query();
    let bfl = BflIndex::new(&g);
    let ctx = SimContext::new(&g, &q, &bfl);
    let all: Bitset = (0..100).collect();
    for empty in 0..4 {
        let mut fb = vec![all.clone(); 4];
        fb[empty] = Bitset::new();
        check_all(&ctx, &edges, &fb);
    }
    check_all(&ctx, &edges, &vec![Bitset::new(); 4]);
}
