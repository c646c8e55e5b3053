//! The pre-CSR runtime index graph, kept verbatim as a **reference
//! implementation**: per-edge adjacency as hash maps of bitmaps, mirrored
//! in both directions, with the selection phase running the full
//! simulation from the raw match sets and intersecting with the pre-filter
//! afterwards.
//!
//! It exists for one job only: it is the **oracle** of the index-side
//! differential suite. The `expansion_agreement` proptests assert the CSR
//! [`crate::Rig`] produces identical candidate sets and adjacency under
//! every selection mode.
//!
//! Do not use it in new code paths; it is strictly slower and larger.

use std::time::Instant;

use rig_bitset::Bitset;
use rig_graph::{FxHashMap, GraphView, NodeId};
use rig_query::{EdgeId, EdgeKind};
use rig_sim::{double_simulation, prefilter, SimContext};

use crate::{RigOptions, RigStats, SelectMode};

/// A materialized runtime index graph in the pre-CSR layout.
pub struct RefRig {
    /// Candidate occurrence set per query node.
    pub cos: Vec<Bitset>,
    /// Per query edge: successor adjacency `u ∈ cos(from) -> {v ∈ cos(to)}`.
    fwd: Vec<FxHashMap<NodeId, Bitset>>,
    /// Per query edge: predecessor adjacency `v ∈ cos(to) -> {u ∈ cos(from)}`.
    bwd: Vec<FxHashMap<NodeId, Bitset>>,
    pub stats: RigStats,
}

impl RefRig {
    /// Successors of `u` across query edge `eid` (`None` if none).
    pub fn successors(&self, eid: EdgeId, u: NodeId) -> Option<&Bitset> {
        self.fwd[eid as usize].get(&u)
    }

    /// Predecessors of `v` across query edge `eid`.
    pub fn predecessors(&self, eid: EdgeId, v: NodeId) -> Option<&Bitset> {
        self.bwd[eid as usize].get(&v)
    }

    /// True iff some candidate set is empty.
    pub fn is_empty(&self) -> bool {
        self.cos.iter().any(|c| c.is_empty())
    }

    /// Candidate set cardinality of query node `q`.
    pub fn cos_len(&self, q: rig_query::QNode) -> u64 {
        self.cos[q as usize].len()
    }

    /// Total RIG edge cardinality `|cos(e)|` across query edge `eid`.
    pub fn edge_cardinality(&self, eid: EdgeId) -> u64 {
        self.fwd[eid as usize].values().map(|b| b.len()).sum()
    }
}

/// Builds a [`RefRig`] with the pre-CSR pipeline (Alg. 4, original code).
pub fn build_reference_rig(ctx: &SimContext<'_>, opts: &RigOptions) -> RefRig {
    // ---- node selection phase ----
    let select_start = Instant::now();
    let mut sim_passes = 0;
    let mut pruned = 0;
    let cos: Vec<Bitset> = match opts.select {
        SelectMode::MatchSets => ctx.match_sets(),
        SelectMode::PrefilterOnly => prefilter(ctx),
        SelectMode::SimOnly => {
            let r = double_simulation(ctx, &opts.sim);
            sim_passes = r.passes;
            pruned = r.pruned;
            r.fb
        }
        SelectMode::PrefilterThenSim => {
            // Original behavior: run the simulation from the raw match sets
            // and intersect with the pre-filter output afterwards (the
            // prefilter's pruning is re-derived rather than seeded).
            let pf = prefilter(ctx);
            let mut r = double_simulation(ctx, &opts.sim);
            for (acc, s) in r.fb.iter_mut().zip(pf.iter()) {
                acc.and_assign(s);
            }
            sim_passes = r.passes;
            pruned = r.pruned;
            r.fb
        }
    };
    let select_time = select_start.elapsed();

    let ne = ctx.query.num_edges();
    let mut rig = RefRig {
        cos,
        fwd: vec![FxHashMap::default(); ne],
        bwd: vec![FxHashMap::default(); ne],
        stats: RigStats { select_time, sim_passes, pruned, ..Default::default() },
    };

    // Empty candidate set => empty answer; skip expansion (§4.3).
    if rig.is_empty() {
        for c in rig.cos.iter_mut() {
            c.clear();
        }
        rig.stats.node_count = 0;
        return rig;
    }

    // ---- node expansion phase ----
    let expand_start = Instant::now();
    for eid in 0..ne as EdgeId {
        expand_edge(ctx, &mut rig, eid);
    }
    rig.stats.expand_time = expand_start.elapsed();
    rig.stats.node_count = rig.cos.iter().map(|c| c.len()).sum();
    rig.stats.edge_count = rig.fwd.iter().flat_map(|m| m.values()).map(|b| b.len()).sum();
    rig
}

/// Per source, `adjf(v_p) ∩ cos(q)` in one bitmap AND (§4.5) on a direct
/// edge, one DFS on a reachability edge.
fn expand_edge(ctx: &SimContext<'_>, rig: &mut RefRig, eid: EdgeId) {
    let e = ctx.query.edge(eid);
    let (p, q) = (e.from as usize, e.to as usize);
    let mut fwd: FxHashMap<NodeId, Bitset> = FxHashMap::default();
    let mut bwd: FxHashMap<NodeId, Bitset> = FxHashMap::default();
    for u in rig.cos[p].iter() {
        let succ = match e.kind {
            EdgeKind::Direct => {
                Bitset::from_sorted_dedup(ctx.graph.out_neighbors(u)).and(&rig.cos[q])
            }
            EdgeKind::Reachability => reach_dfs(ctx.graph, u, &rig.cos[q]),
        };
        if succ.is_empty() {
            continue;
        }
        for v in succ.iter() {
            bwd.entry(v).or_default().insert(u);
        }
        fwd.insert(u, succ);
    }
    rig.fwd[eid as usize] = fwd;
    rig.bwd[eid as usize] = bwd;
}

/// The members of `targets` that `u` reaches, by one DFS over the view's
/// adjacency. It reads no index and no condensation, so it is an oracle
/// independent of the CSR build's sweep.
fn reach_dfs(g: GraphView<'_>, u: NodeId, targets: &Bitset) -> Bitset {
    let mut seen = vec![false; g.num_nodes()];
    let mut succ = Bitset::new();
    let mut stack: Vec<NodeId> = g.out_neighbors(u).to_vec();
    while let Some(x) = stack.pop() {
        if std::mem::replace(&mut seen[x as usize], true) {
            continue;
        }
        if targets.contains(x) {
            succ.insert(x);
        }
        stack.extend_from_slice(g.out_neighbors(x));
    }
    succ
}
