//! Search-order strategies (§5.2 and Table 4).

use rig_index::Rig;
use rig_query::{PatternQuery, QNode};

/// The three ordering strategies the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchOrder {
    /// Greedy join ordering \[26\]: start from the smallest RIG candidate
    /// set, repeatedly append the *connected* node with the smallest
    /// candidate set. Uses data statistics through the RIG.
    Jo,
    /// RI \[9\]: purely topological — prefer nodes with the most edges into
    /// the already-ordered prefix (maximizing early constraints), breaking
    /// ties by total degree then node id. Ignores the data graph.
    Ri,
    /// Optimal left-deep order by dynamic programming over subsets, cost =
    /// estimated intermediate-result sizes from RIG cardinalities. Falls
    /// back to `Jo` beyond 16 query nodes (2^n states do not scale —
    /// exactly the paper's observation about JM's planner).
    Bj,
}

/// Computes a search order (a permutation of query nodes).
pub fn compute_order(query: &PatternQuery, rig: &Rig, strategy: SearchOrder) -> Vec<QNode> {
    let n = query.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    match strategy {
        SearchOrder::Jo => jo_order(query, rig),
        SearchOrder::Ri => ri_order(query),
        SearchOrder::Bj => {
            if n <= 16 {
                bj_order(query, rig)
            } else {
                jo_order(query, rig)
            }
        }
    }
}

/// True iff each node (after the first) touches an earlier node — the
/// connectivity property JO enforces to avoid Cartesian products.
pub fn is_connected_order(query: &PatternQuery, order: &[QNode]) -> bool {
    for (i, &q) in order.iter().enumerate().skip(1) {
        let earlier = &order[..i];
        let touches = query.neighbors(q).any(|(nb, _, _)| earlier.contains(&nb));
        if !touches {
            return false;
        }
    }
    true
}

fn jo_order(query: &PatternQuery, rig: &Rig) -> Vec<QNode> {
    let n = query.num_nodes();
    let mut order: Vec<QNode> = Vec::with_capacity(n);
    let mut used = vec![false; n];
    // next: the connected node with the smallest candidate set (ties by id
    // for determinism), else the globally smallest remaining set — which
    // picks the start node, and keeps a disconnected pattern (not produced
    // by our generators) total
    while let Some(next) = (0..n as QNode)
        .filter(|&q| !used[q as usize])
        .filter(|&q| query.neighbors(q).any(|(nb, _, _)| used[nb as usize]))
        .min_by_key(|&q| (rig.cos_len(q), q))
        .or_else(|| {
            (0..n as QNode).filter(|&q| !used[q as usize]).min_by_key(|&q| (rig.cos_len(q), q))
        })
    {
        order.push(next);
        used[next as usize] = true;
    }
    order
}

pub(crate) fn ri_order(query: &PatternQuery) -> Vec<QNode> {
    let n = query.num_nodes();
    let mut order: Vec<QNode> = Vec::with_capacity(n);
    let mut used = vec![false; n];
    // the start node has no prefix, so it is the highest-degree node
    while let Some(next) = (0..n as QNode).filter(|&q| !used[q as usize]).max_by_key(|&q| {
        let into_prefix = query.neighbors(q).filter(|&(nb, _, _)| used[nb as usize]).count();
        (into_prefix, query.degree(q), std::cmp::Reverse(q))
    }) {
        order.push(next);
        used[next as usize] = true;
    }
    order
}

/// Exhaustive left-deep DP: state = subset of bound nodes, value = minimal
/// accumulated intermediate cardinality estimate.
fn bj_order(query: &PatternQuery, rig: &Rig) -> Vec<QNode> {
    let n = query.num_nodes();
    let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
    // selectivity of each query edge from RIG statistics
    let sel: Vec<f64> = (0..query.num_edges())
        .map(|eid| {
            let e = query.edge(eid as u32);
            let card = rig.edge_cardinality(eid as u32) as f64;
            let denom = rig.cos_len(e.from) as f64 * rig.cos_len(e.to) as f64;
            if denom == 0.0 {
                0.0
            } else {
                (card / denom).min(1.0)
            }
        })
        .collect();
    let size = 1usize << n;
    let mut best_cost = vec![f64::INFINITY; size];
    let mut best_size = vec![0.0f64; size];
    let mut pred: Vec<(u32, QNode)> = vec![(0, 0); size];
    for q in 0..n as QNode {
        let mask = 1u32 << q;
        best_cost[mask as usize] = rig.cos_len(q) as f64;
        best_size[mask as usize] = rig.cos_len(q) as f64;
    }
    // iterate masks in increasing popcount order implicitly via value order
    for mask in 1..=full {
        if best_cost[mask as usize].is_infinite() {
            continue;
        }
        for q in 0..n as QNode {
            let bit = 1u32 << q;
            if mask & bit != 0 {
                continue;
            }
            // require connectivity to the prefix when possible
            let connected = query.neighbors(q).any(|(nb, _, _)| mask & (1 << nb) != 0);
            if !connected && mask != 0 && (mask | bit) != full {
                // allow Cartesian only as a last resort (final node)
                let any_connected_choice = (0..n as QNode).any(|r| {
                    let rb = 1u32 << r;
                    mask & rb == 0 && query.neighbors(r).any(|(nb, _, _)| mask & (1 << nb) != 0)
                });
                if any_connected_choice {
                    continue;
                }
            }
            let mut est = best_size[mask as usize] * rig.cos_len(q) as f64;
            for (eid, e) in query.edges().iter().enumerate() {
                let touches = (e.from == q && mask & (1 << e.to) != 0)
                    || (e.to == q && mask & (1 << e.from) != 0);
                if touches {
                    est *= sel[eid];
                }
            }
            let new_mask = (mask | bit) as usize;
            let cost = best_cost[mask as usize] + est;
            if cost < best_cost[new_mask] {
                best_cost[new_mask] = cost;
                best_size[new_mask] = est;
                pred[new_mask] = (mask, q);
            }
        }
    }
    // reconstruct
    let mut order = Vec::with_capacity(n);
    let mut mask = full;
    while mask != 0 {
        let (prev, q) = pred[mask as usize];
        if mask.count_ones() == 1 {
            order.push(mask.trailing_zeros() as QNode);
            break;
        }
        order.push(q);
        mask = prev;
    }
    order.reverse();
    debug_assert_eq!(order.len(), n);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use rig_graph::GraphBuilder;
    use rig_index::{build_rig, RigOptions};
    use rig_query::{fig2_query, EdgeKind, PatternQuery};
    use rig_reach::BflIndex;
    use rig_sim::SimContext;

    fn fig2_rig() -> (PatternQuery, Rig) {
        let mut b = GraphBuilder::new();
        for _ in 0..3 {
            b.add_node(0);
        }
        for _ in 0..4 {
            b.add_node(1);
        }
        for _ in 0..3 {
            b.add_node(2);
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
        let g = b.build();
        let q = fig2_query();
        let bfl = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &bfl);
        let rig = build_rig(&ctx, &RigOptions::exact());
        (q, rig)
    }

    #[test]
    fn all_orders_are_connected_permutations() {
        let (q, rig) = fig2_rig();
        for strat in [SearchOrder::Jo, SearchOrder::Ri, SearchOrder::Bj] {
            let order = compute_order(&q, &rig, strat);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "{strat:?} not a permutation");
            assert!(is_connected_order(&q, &order), "{strat:?} disconnected");
        }
    }

    #[test]
    fn jo_starts_from_smallest_candidate_set() {
        let (q, rig) = fig2_rig();
        let order = compute_order(&q, &rig, SearchOrder::Jo);
        let first = order[0];
        for other in 0..q.num_nodes() as QNode {
            assert!(rig.cos_len(first) <= rig.cos_len(other));
        }
    }

    #[test]
    fn ri_starts_from_max_degree() {
        // star pattern: center has degree 3
        let mut q = PatternQuery::new(vec![0, 1, 1, 1]);
        q.add_edge(0, 1, EdgeKind::Direct);
        q.add_edge(0, 2, EdgeKind::Direct);
        q.add_edge(0, 3, EdgeKind::Direct);
        let order = ri_order(&q);
        assert_eq!(order[0], 0);
    }

    #[test]
    fn bj_large_query_falls_back() {
        // 18-node path exceeds the DP budget; must still return an order.
        let mut q = PatternQuery::new(vec![0; 18]);
        for i in 1..18u32 {
            q.add_edge(i - 1, i, EdgeKind::Direct);
        }
        // fabricate a rig on a tiny matching graph
        let mut b = GraphBuilder::new();
        let mut prev = b.add_node(0);
        for _ in 1..20 {
            let v = b.add_node(0);
            b.add_edge(prev, v);
            prev = v;
        }
        let g = b.build();
        let bfl = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &bfl);
        let rig = build_rig(&ctx, &RigOptions::exact());
        let order = compute_order(&q, &rig, SearchOrder::Bj);
        assert_eq!(order.len(), 18);
        assert!(is_connected_order(&q, &order));
    }
}
