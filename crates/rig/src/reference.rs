//! The pre-CSR runtime index graph, kept verbatim as a **reference
//! implementation**: per-edge adjacency as hash maps of bitmaps, mirrored
//! in both directions, with the selection phase running the full
//! simulation from the raw match sets and intersecting with the pre-filter
//! afterwards.
//!
//! It exists for one job only: it is the **oracle** of the differential
//! suites. The `csr_vs_reference` proptests assert the CSR [`crate::Rig`]
//! produces identical candidate sets, adjacency and MJoin counts, and the
//! `engine_matrix` suite checks the CSR engine's answers against it.
//!
//! Do not use it in new code paths; it is strictly slower and larger.

use std::time::Instant;

use rig_bitset::Bitset;
use rig_graph::{FxHashMap, NodeId};
use rig_query::{EdgeId, EdgeKind};
use rig_reach::BflIndex;
use rig_sim::{double_simulation, prefilter, SimContext};

use crate::{ReachExpandMode, RigOptions, RigStats, SelectMode};

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

    /// Approximate heap footprint (bytes) of the hashmap layout.
    pub fn heap_bytes(&self) -> usize {
        let cos: usize = self.cos.iter().map(|b| b.heap_bytes()).sum();
        let adj: usize = self
            .fwd
            .iter()
            .chain(self.bwd.iter())
            .flat_map(|m| m.values())
            .map(|b| b.heap_bytes() + std::mem::size_of::<(NodeId, Bitset)>())
            .sum();
        cos + adj
    }
}

/// Builds a [`RefRig`] with the pre-CSR pipeline (Alg. 4, original code).
pub fn build_reference_rig(ctx: &SimContext<'_>, bfl: &BflIndex, opts: &RigOptions) -> RefRig {
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
        expand_edge(ctx, bfl, opts, &mut rig, eid);
    }
    rig.stats.expand_time = expand_start.elapsed();
    rig.stats.node_count = rig.cos.iter().map(|c| c.len()).sum();
    rig.stats.edge_count = rig.fwd.iter().flat_map(|m| m.values()).map(|b| b.len()).sum();
    rig
}

fn expand_edge(
    ctx: &SimContext<'_>,
    bfl: &BflIndex,
    opts: &RigOptions,
    rig: &mut RefRig,
    eid: EdgeId,
) {
    let e = ctx.query.edge(eid);
    let (p, q) = (e.from as usize, e.to as usize);
    match e.kind {
        EdgeKind::Direct => {
            // adjf(v_p) ∩ cos(q) in one bitmap AND per source (§4.5).
            let mut fwd: FxHashMap<NodeId, Bitset> = FxHashMap::default();
            let mut bwd: FxHashMap<NodeId, Bitset> = FxHashMap::default();
            for u in rig.cos[p].iter() {
                let succ = Bitset::from_sorted_dedup(ctx.graph.out_neighbors(u)).and(&rig.cos[q]);
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
        EdgeKind::Reachability => match opts.reach_expand {
            ReachExpandMode::PairwiseBfl => expand_reach_pairwise(ctx, bfl, opts, rig, eid, p, q),
            ReachExpandMode::PrunedDfs => expand_reach_dfs(ctx, rig, eid, p, q),
        },
    }
}

/// Reachability expansion with per-pair BFL probes (original per-pair
/// component/interval lookups, no memoization).
fn expand_reach_pairwise(
    ctx: &SimContext<'_>,
    bfl: &BflIndex,
    opts: &RigOptions,
    rig: &mut RefRig,
    eid: EdgeId,
    p: usize,
    q: usize,
) {
    let cond = bfl.condensation();
    let intervals = bfl.intervals();
    // cos(q) sorted by interval begin
    let mut targets: Vec<NodeId> = rig.cos[q].iter().collect();
    if opts.early_termination {
        intervals.sort_nodes_by_begin(cond, &mut targets);
    }
    let mut fwd: FxHashMap<NodeId, Bitset> = FxHashMap::default();
    let mut bwd: FxHashMap<NodeId, Bitset> = FxHashMap::default();
    for u in rig.cos[p].iter() {
        let cu = cond.component(u);
        let u_end = intervals.end[cu as usize];
        let mut succ = Bitset::new();
        for &v in &targets {
            if opts.early_termination {
                let cv = cond.component(v);
                if intervals.begin[cv as usize] > u_end {
                    break; // all later candidates are unreachable from u
                }
            }
            if (u != v || cond.nontrivial[cu as usize]) && ctx.reach.reaches(u, v) {
                succ.insert(v);
            }
        }
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

/// Reachability expansion by one pruned DFS per source node.
fn expand_reach_dfs(ctx: &SimContext<'_>, rig: &mut RefRig, eid: EdgeId, p: usize, q: usize) {
    let g = ctx.graph;
    let n = g.num_nodes();
    let mut stamp = vec![u32::MAX; n];
    let mut fwd: FxHashMap<NodeId, Bitset> = FxHashMap::default();
    let mut bwd: FxHashMap<NodeId, Bitset> = FxHashMap::default();
    for (epoch, u) in rig.cos[p].iter().enumerate() {
        let epoch = epoch as u32;
        let mut succ = Bitset::new();
        let mut stack: Vec<NodeId> = g.out_neighbors(u).to_vec();
        while let Some(x) = stack.pop() {
            if stamp[x as usize] == epoch {
                continue;
            }
            stamp[x as usize] = epoch;
            if rig.cos[q].contains(x) {
                succ.insert(x);
            }
            stack.extend_from_slice(g.out_neighbors(x));
        }
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
