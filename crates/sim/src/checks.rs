//! Per-edge pruning primitives shared by all three FB algorithms.
//!
//! `forward_prune_edge` enforces condition 2 of Def. 1 for one query edge
//! `(qi, qj)`: every surviving candidate of `qi` must have a qualified
//! successor among the candidates of `qj`. `backward_prune_edge` enforces
//! condition 3 symmetrically. Both return the set of nodes they pruned so
//! callers can maintain change flags and traces.

use crate::{DirectCheckMode, SimContext, SimOptions};
use rig_bitset::Bitset;
use rig_graph::{DataGraph, NodeId};
use rig_query::{EdgeId, EdgeKind};

/// Marks every neighbor (under `adj`) of the members of `set` in a dense
/// bitmap of `ceil(|V|/64)` words, one bit per adjacency entry: the
/// adjacency union of the bitBat batch check, built without a sort.
fn mark_neighbors(
    graph: &DataGraph,
    set: &Bitset,
    adj: fn(&DataGraph, NodeId) -> &[NodeId],
) -> Vec<u64> {
    let mut marks = vec![0u64; graph.num_nodes().div_ceil(64)];
    for w in set.iter() {
        for &v in adj(graph, w) {
            marks[(v >> 6) as usize] |= 1 << (v & 63);
        }
    }
    marks
}

/// True iff `v`'s bit is set in a [`mark_neighbors`] bitmap.
fn is_marked(marks: &[u64], v: NodeId) -> bool {
    marks.get((v >> 6) as usize).is_some_and(|w| w >> (v & 63) & 1 != 0)
}

/// Prunes `fb[qi]` (tail side) of edge `eid`; returns pruned node ids.
pub fn forward_prune_edge(
    ctx: &SimContext<'_>,
    fb: &mut [Bitset],
    eid: EdgeId,
    opts: &SimOptions,
) -> Vec<NodeId> {
    let e = ctx.query.edge(eid);
    let (qi, qj) = (e.from as usize, e.to as usize);
    if fb[qi].is_empty() {
        return Vec::new();
    }
    match e.kind {
        EdgeKind::Direct => match opts.direct_mode {
            DirectCheckMode::BitBat => {
                // v survives iff some w ∈ FB(qj) has v among its in-neighbors
                let marks = mark_neighbors(&ctx.graph, &fb[qj], DataGraph::in_neighbors);
                shrink_to_members(&mut fb[qi], |v| is_marked(&marks, v))
            }
            DirectCheckMode::BitIter => {
                let keep = fb[qj].clone();
                shrink_to_members(&mut fb[qi], |v| {
                    Bitset::from_sorted_dedup(ctx.graph.out_neighbors(v)).intersects(&keep)
                })
            }
            DirectCheckMode::BinSearch => {
                let keep = fb[qj].clone();
                shrink_to_members(&mut fb[qi], |v| {
                    let adj = ctx.graph.out_neighbors(v);
                    keep.iter().any(|w| adj.binary_search(&w).is_ok())
                })
            }
        },
        // v survives iff it is an ancestor of some member of FB(qj)
        EdgeKind::Reachability => {
            let qualified = ctx.condensation().ancestors_of_set(&fb[qj]);
            shrink_to_members(&mut fb[qi], |v| qualified.contains(v))
        }
    }
}

/// Prunes `fb[qj]` (head side) of edge `eid`; returns pruned node ids.
pub fn backward_prune_edge(
    ctx: &SimContext<'_>,
    fb: &mut [Bitset],
    eid: EdgeId,
    opts: &SimOptions,
) -> Vec<NodeId> {
    let e = ctx.query.edge(eid);
    let (qi, qj) = (e.from as usize, e.to as usize);
    if fb[qj].is_empty() {
        return Vec::new();
    }
    match e.kind {
        EdgeKind::Direct => match opts.direct_mode {
            DirectCheckMode::BitBat => {
                let marks = mark_neighbors(&ctx.graph, &fb[qi], DataGraph::out_neighbors);
                shrink_to_members(&mut fb[qj], |v| is_marked(&marks, v))
            }
            DirectCheckMode::BitIter => {
                let keep = fb[qi].clone();
                shrink_to_members(&mut fb[qj], |v| {
                    Bitset::from_sorted_dedup(ctx.graph.in_neighbors(v)).intersects(&keep)
                })
            }
            DirectCheckMode::BinSearch => {
                let keep = fb[qi].clone();
                shrink_to_members(&mut fb[qj], |v| {
                    let adj = ctx.graph.in_neighbors(v);
                    keep.iter().any(|w| adj.binary_search(&w).is_ok())
                })
            }
        },
        EdgeKind::Reachability => {
            let qualified = ctx.condensation().descendants_of_set(&fb[qi]);
            shrink_to_members(&mut fb[qj], |v| qualified.contains(v))
        }
    }
}

/// Keeps the members of `set` that satisfy `member` and returns the
/// others: one in-place pass over `set`, no intermediate bitset.
fn shrink_to_members(set: &mut Bitset, mut member: impl FnMut(NodeId) -> bool) -> Vec<NodeId> {
    let mut removed = Vec::new();
    set.retain(|v| {
        member(v) || {
            removed.push(v);
            false
        }
    });
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use rig_graph::{
        CommitImpact, DeltaOverlay, GraphBuilder, GraphView, LabelSpec, MutationOp, Snapshot,
    };
    use rig_query::{EdgeKind, PatternQuery};
    use rig_reach::BflIndex;
    use std::sync::Arc;

    fn chain_graph() -> rig_graph::DataGraph {
        // 0:a -> 1:b -> 2:c ; 3:a (no children) ; 4:b (no c below)
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(0);
        let n1 = b.add_node(1);
        let n2 = b.add_node(2);
        let _n3 = b.add_node(0);
        let n4 = b.add_node(1);
        b.add_edge(n0, n1);
        b.add_edge(n1, n2);
        b.add_edge(n0, n4);
        b.build()
    }

    fn ab_query(kind: EdgeKind) -> PatternQuery {
        let mut q = PatternQuery::new(vec![0, 1]);
        q.add_edge(0, 1, kind);
        q
    }

    #[test]
    fn forward_prune_direct_all_modes_agree() {
        let g = chain_graph();
        let q = ab_query(EdgeKind::Direct);
        let reach = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &reach);
        for mode in [DirectCheckMode::BinSearch, DirectCheckMode::BitIter, DirectCheckMode::BitBat]
        {
            let opts = SimOptions { direct_mode: mode, ..SimOptions::default() };
            let mut fb = ctx.match_sets();
            let pruned = forward_prune_edge(&ctx, &mut fb, 0, &opts);
            assert_eq!(pruned, vec![3], "{mode:?}"); // a-node 3 has no b child
            assert_eq!(fb[0].to_vec(), vec![0]);
        }
    }

    #[test]
    fn backward_prune_direct_all_modes_agree() {
        let g = chain_graph();
        let q = ab_query(EdgeKind::Direct);
        let reach = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &reach);
        for mode in [DirectCheckMode::BinSearch, DirectCheckMode::BitIter, DirectCheckMode::BitBat]
        {
            let opts = SimOptions { direct_mode: mode, ..SimOptions::default() };
            let mut fb = ctx.match_sets();
            let pruned = backward_prune_edge(&ctx, &mut fb, 0, &opts);
            assert!(pruned.is_empty(), "{mode:?}"); // both b nodes have a parents
            assert_eq!(fb[1].to_vec(), vec![1, 4]);
        }
    }

    /// The reachability check sweeps the index's condensation on a clean
    /// view and the view's own on a dirty one; both must prune the same
    /// nodes.
    #[test]
    fn reachability_prune_both_modes_agree() {
        let g = Arc::new(chain_graph());
        let mut q = PatternQuery::new(vec![0, 2]); // A ⇝ C
        q.add_edge(0, 1, EdgeKind::Reachability);
        let reach = BflIndex::new(&g);
        // an isolated node of a new label makes the view dirty without
        // changing any answer
        let mut delta = DeltaOverlay::new(Arc::clone(&g));
        delta.apply(&MutationOp::AddNode(LabelSpec::Id(3)), &mut CommitImpact::default()).unwrap();
        let dirty = Snapshot::new(Arc::new(delta), 1);
        for view in [GraphView::from(&*g), GraphView::from(&dirty)] {
            let ctx = SimContext::new(view, &q, &reach);
            let opts = SimOptions::default();
            let mut fb = ctx.match_sets();
            let fp = forward_prune_edge(&ctx, &mut fb, 0, &opts);
            assert_eq!(fp, vec![3], "dirty={}", view.is_dirty()); // node 3 reaches nothing
            let bp = backward_prune_edge(&ctx, &mut fb, 0, &opts);
            assert!(bp.is_empty(), "dirty={}", view.is_dirty());
            assert_eq!(fb[0].to_vec(), vec![0]);
            assert_eq!(fb[1].to_vec(), vec![2]);
        }
    }

    #[test]
    fn empty_side_is_noop() {
        let g = chain_graph();
        let q = ab_query(EdgeKind::Direct);
        let reach = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &reach);
        let opts = SimOptions::default();
        let mut fb = vec![rig_bitset::Bitset::new(), ctx.match_sets()[1].clone()];
        assert!(forward_prune_edge(&ctx, &mut fb, 0, &opts).is_empty());
    }
}
