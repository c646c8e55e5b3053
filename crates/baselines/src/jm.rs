//! JM — the join-based approach (§1, §7.1; R-Join \[12\] style).
//!
//! 1. Materialize one binary relation per query edge: the edge's match
//!    set over (pre-filtered) candidate lists.
//! 2. Pick a left-deep join order — exhaustive subset DP when the query
//!    has ≤ 12 edges (the paper notes JM's DP enumerates millions of plans
//!    on large queries), greedy smallest-relation-first otherwise.
//! 3. Execute the plan as a sequence of hash joins, materializing every
//!    intermediate relation. Intermediates can exceed the final output by
//!    orders of magnitude — that blow-up is JM's defining weakness and is
//!    bounded by [`Budget::max_intermediate`].

use std::time::Instant;

use crate::{failure_report, Budget, Engine};
use rig_core::{RunReport, RunStatus};
use rig_graph::{DataGraph, Deadline, FxHashMap, NodeId};
use rig_query::{EdgeId, EdgeKind, PatternQuery, QNode};
use rig_reach::{BflIndex, Reachability};
use rig_sim::{prefilter, SimContext};

/// The JM engine. Holds the per-graph BFL index (like GM, JM needs a
/// reachability index for reachability edges).
pub struct Jm<'g> {
    graph: &'g DataGraph,
    bfl: BflIndex,
    /// Apply the [11, 63] node pre-filter before materializing relations
    /// (the paper applies it to both JM and TM).
    pub use_prefilter: bool,
}

impl<'g> Jm<'g> {
    pub fn new(graph: &'g DataGraph) -> Self {
        Jm { graph, bfl: BflIndex::new(graph), use_prefilter: true }
    }

    /// Number of left-deep plans the DP enumerates for an `m`-edge query —
    /// the statistic behind the paper's "2,384,971 query plans" remark.
    pub fn plans_enumerated(m: usize) -> u64 {
        // subset DP touches every (subset, next-edge) pair
        if m >= 63 {
            return u64::MAX;
        }
        (1u64 << m) * m as u64
    }

    fn edge_relation(
        &self,
        q: &PatternQuery,
        cand: &[rig_bitset::Bitset],
        eid: EdgeId,
        budget: &Budget,
    ) -> Result<Vec<(NodeId, NodeId)>, RunStatus> {
        let e = q.edge(eid);
        let mut out = Vec::new();
        let cap = budget.max_intermediate.unwrap_or(u64::MAX);
        match e.kind {
            EdgeKind::Direct => {
                for u in cand[e.from as usize].iter() {
                    for &v in self.graph.out_neighbors(u) {
                        if cand[e.to as usize].contains(v) {
                            out.push((u, v));
                            if out.len() as u64 > cap {
                                return Err(RunStatus::MemoryExceeded);
                            }
                        }
                    }
                }
            }
            EdgeKind::Reachability => {
                for u in cand[e.from as usize].iter() {
                    for v in cand[e.to as usize].iter() {
                        if self.bfl.reaches(u, v) {
                            out.push((u, v));
                            if out.len() as u64 > cap {
                                return Err(RunStatus::MemoryExceeded);
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Left-deep plan: the order in which edge relations are joined.
fn plan_order(q: &PatternQuery, sizes: &[u64]) -> Vec<EdgeId> {
    let m = q.num_edges();
    if m == 0 {
        return Vec::new();
    }
    if m <= 12 {
        dp_plan(q, sizes)
    } else {
        greedy_plan(q, sizes)
    }
}

fn edge_nodes(q: &PatternQuery, e: EdgeId) -> (QNode, QNode) {
    let pe = q.edge(e);
    (pe.from, pe.to)
}

fn greedy_plan(q: &PatternQuery, sizes: &[u64]) -> Vec<EdgeId> {
    let m = q.num_edges();
    let mut used = vec![false; m];
    let mut bound: Vec<bool> = vec![false; q.num_nodes()];
    let first = (0..m).min_by_key(|&e| sizes[e]).unwrap() as EdgeId;
    let mut order = vec![first];
    used[first as usize] = true;
    let (f, t) = edge_nodes(q, first);
    bound[f as usize] = true;
    bound[t as usize] = true;
    while order.len() < m {
        let next = (0..m as EdgeId)
            .filter(|&e| !used[e as usize])
            .min_by_key(|&e| {
                let (f, t) = edge_nodes(q, e);
                let connected = bound[f as usize] || bound[t as usize];
                (!connected, sizes[e as usize], e)
            })
            .unwrap();
        used[next as usize] = true;
        let (f, t) = edge_nodes(q, next);
        bound[f as usize] = true;
        bound[t as usize] = true;
        order.push(next);
    }
    order
}

/// Exhaustive left-deep DP over edge subsets, minimizing the running
/// product of relation sizes scaled by shared-variable selectivities.
#[allow(clippy::needless_range_loop)] // `e` doubles as bitmask position
fn dp_plan(q: &PatternQuery, sizes: &[u64]) -> Vec<EdgeId> {
    let m = q.num_edges();
    let full = (1u32 << m) - 1;
    let size = 1usize << m;
    let mut cost = vec![f64::INFINITY; size];
    let mut pred = vec![(0u32, 0 as EdgeId); size];
    for e in 0..m {
        cost[1 << e] = sizes[e] as f64;
    }
    for mask in 1..=full {
        if cost[mask as usize].is_infinite() {
            continue;
        }
        // query nodes bound by this subset
        let mut bound = vec![false; q.num_nodes()];
        for e in 0..m {
            if mask & (1 << e) != 0 {
                let (f, t) = edge_nodes(q, e as EdgeId);
                bound[f as usize] = true;
                bound[t as usize] = true;
            }
        }
        for e in 0..m {
            let bit = 1u32 << e;
            if mask & bit != 0 {
                continue;
            }
            let (f, t) = edge_nodes(q, e as EdgeId);
            let connected = bound[f as usize] || bound[t as usize];
            // disconnected extension allowed only if no connected one exists
            if !connected {
                let any_connected = (0..m).any(|e2| {
                    let b2 = 1u32 << e2;
                    if mask & b2 != 0 {
                        return false;
                    }
                    let (f2, t2) = edge_nodes(q, e2 as EdgeId);
                    bound[f2 as usize] || bound[t2 as usize]
                });
                if any_connected {
                    continue;
                }
            }
            // crude selectivity: shared variable caps growth
            let extension = if connected { (sizes[e] as f64).sqrt() } else { sizes[e] as f64 };
            let c = cost[mask as usize] * extension.max(1.0);
            let nm = (mask | bit) as usize;
            if c < cost[nm] {
                cost[nm] = c;
                pred[nm] = (mask, e as EdgeId);
            }
        }
    }
    let mut order = Vec::with_capacity(m);
    let mut mask = full;
    while mask.count_ones() > 1 {
        let (prev, e) = pred[mask as usize];
        order.push(e);
        mask = prev;
    }
    order.push(mask.trailing_zeros() as EdgeId);
    order.reverse();
    order
}

impl Engine for Jm<'_> {
    fn name(&self) -> &'static str {
        "JM"
    }

    fn evaluate(&self, query: &PatternQuery, budget: &Budget) -> RunReport {
        let start = Instant::now();
        let mut deadline = Deadline::new(budget.timeout.map(|t| start + t));

        // node pre-filtering [11, 63]
        let ctx = SimContext::new(self.graph, query, &self.bfl);
        let cand = if self.use_prefilter { prefilter(&ctx) } else { ctx.match_sets() };

        // materialize edge relations
        let mut relations: Vec<Vec<(NodeId, NodeId)>> = Vec::with_capacity(query.num_edges());
        let mut intermediate_total = 0u64;
        for eid in 0..query.num_edges() as EdgeId {
            match self.edge_relation(query, &cand, eid, budget) {
                Ok(r) => {
                    intermediate_total += r.len() as u64;
                    relations.push(r);
                }
                Err(status) => {
                    return failure_report("JM", status, start.elapsed(), intermediate_total)
                }
            }
            if deadline.charge() {
                return failure_report(
                    "JM",
                    RunStatus::Timeout,
                    start.elapsed(),
                    intermediate_total,
                );
            }
        }
        let matching_time = start.elapsed();

        // plan + execute
        let sizes: Vec<u64> = relations.iter().map(|r| r.len() as u64).collect();
        let order = plan_order(query, &sizes);
        let cap = budget.max_intermediate.unwrap_or(u64::MAX);

        // intermediate schema: which query nodes are bound, tuple layout
        let mut schema: Vec<QNode> = Vec::new();
        let mut tuples: Vec<Vec<NodeId>> = Vec::new();
        for (step, &eid) in order.iter().enumerate() {
            if deadline.charge() {
                return failure_report(
                    "JM",
                    RunStatus::Timeout,
                    start.elapsed(),
                    intermediate_total,
                );
            }
            let (f, t) = edge_nodes(query, eid);
            let rel = &relations[eid as usize];
            if step == 0 {
                schema = vec![f, t];
                tuples = rel.iter().map(|&(u, v)| vec![u, v]).collect();
            } else {
                let fpos = schema.iter().position(|&x| x == f);
                let tpos = schema.iter().position(|&x| x == t);
                let mut next: Vec<Vec<NodeId>> = Vec::new();
                match (fpos, tpos) {
                    (Some(fp), Some(tp)) => {
                        // both bound: semi-join filter
                        let set: rig_graph::FxHashSet<(NodeId, NodeId)> =
                            rel.iter().copied().collect();
                        next =
                            tuples.drain(..).filter(|tu| set.contains(&(tu[fp], tu[tp]))).collect();
                    }
                    (Some(fp), None) => {
                        // hash rel on its from column
                        let mut index: FxHashMap<NodeId, Vec<NodeId>> = FxHashMap::default();
                        for &(u, v) in rel {
                            index.entry(u).or_default().push(v);
                        }
                        schema.push(t);
                        for tu in tuples.drain(..) {
                            if let Some(vs) = index.get(&tu[fp]) {
                                for &v in vs {
                                    let mut nt = tu.clone();
                                    nt.push(v);
                                    next.push(nt);
                                }
                            }
                            if next.len() as u64 > cap {
                                return failure_report(
                                    "JM",
                                    RunStatus::MemoryExceeded,
                                    start.elapsed(),
                                    intermediate_total + next.len() as u64,
                                );
                            }
                        }
                    }
                    (None, Some(tp)) => {
                        let mut index: FxHashMap<NodeId, Vec<NodeId>> = FxHashMap::default();
                        for &(u, v) in rel {
                            index.entry(v).or_default().push(u);
                        }
                        schema.push(f);
                        for tu in tuples.drain(..) {
                            if let Some(us) = index.get(&tu[tp]) {
                                for &u in us {
                                    let mut nt = tu.clone();
                                    nt.push(u);
                                    next.push(nt);
                                }
                            }
                            if next.len() as u64 > cap {
                                return failure_report(
                                    "JM",
                                    RunStatus::MemoryExceeded,
                                    start.elapsed(),
                                    intermediate_total + next.len() as u64,
                                );
                            }
                        }
                    }
                    (None, None) => {
                        // Cartesian product (disconnected query component)
                        schema.push(f);
                        schema.push(t);
                        for tu in tuples.drain(..) {
                            for &(u, v) in rel {
                                let mut nt = tu.clone();
                                nt.push(u);
                                nt.push(v);
                                next.push(nt);
                                if next.len() as u64 > cap {
                                    return failure_report(
                                        "JM",
                                        RunStatus::MemoryExceeded,
                                        start.elapsed(),
                                        intermediate_total + next.len() as u64,
                                    );
                                }
                            }
                        }
                    }
                }
                tuples = next;
            }
            intermediate_total += tuples.len() as u64;
            if tuples.is_empty() {
                break;
            }
        }

        let mut count = tuples.len() as u64;
        if let Some(limit) = budget.match_limit {
            count = count.min(limit);
        }
        let total = start.elapsed();
        RunReport {
            engine: "JM".to_string(),
            status: RunStatus::Completed,
            occurrences: count,
            total_time: total,
            matching_time,
            enumeration_time: total.saturating_sub(matching_time),
            intermediate_tuples: intermediate_total,
            aux_size: sizes.iter().sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rig_datasets::examples::{fig2_graph, fig4_g2};
    use rig_query::fig2_query;

    #[test]
    fn jm_matches_gm_on_fig2() {
        let g = fig2_graph();
        let jm = Jm::new(&g);
        let r = jm.evaluate(&fig2_query(), &Budget::unlimited());
        assert_eq!(r.status, RunStatus::Completed);
        assert_eq!(r.occurrences, 2);
        // JM materialized intermediates; GM would have none
        assert!(r.intermediate_tuples > 0);
    }

    #[test]
    fn jm_empty_answer() {
        let g = fig4_g2();
        let jm = Jm::new(&g);
        let r = jm.evaluate(&fig2_query(), &Budget::unlimited());
        assert_eq!(r.occurrences, 0);
    }

    #[test]
    fn jm_without_prefilter_same_count() {
        let g = fig2_graph();
        let mut jm = Jm::new(&g);
        jm.use_prefilter = false;
        let r = jm.evaluate(&fig2_query(), &Budget::unlimited());
        assert_eq!(r.occurrences, 2);
    }

    #[test]
    fn jm_oom_on_tiny_budget() {
        let g = fig2_graph();
        let jm = Jm::new(&g);
        let budget = Budget { max_intermediate: Some(1), ..Budget::unlimited() };
        let r = jm.evaluate(&fig2_query(), &budget);
        assert_eq!(r.status, RunStatus::MemoryExceeded);
    }

    #[test]
    fn plan_count_grows_exponentially() {
        assert!(Jm::plans_enumerated(24) > 2_000_000);
        assert!(Jm::plans_enumerated(4) < 100);
    }

    /// Randomized: JM count equals GM count (both exact homomorphism
    /// counts) on small instances.
    #[test]
    fn jm_equals_gm_randomized() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use rig_graph::GraphBuilder;
        use rig_query::EdgeKind;
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut b = GraphBuilder::new();
            for _ in 0..15 {
                b.add_node(rng.gen_range(0..3));
            }
            for _ in 0..30 {
                let u = rng.gen_range(0..15) as NodeId;
                let v = rng.gen_range(0..15) as NodeId;
                if u != v {
                    b.add_edge(u, v);
                }
            }
            let g = b.build();
            let mut q = PatternQuery::new((0..3).map(|_| rng.gen_range(0..3)).collect());
            q.add_edge(0, 1, EdgeKind::Direct);
            q.add_edge(1, 2, EdgeKind::Reachability);
            if rng.gen_bool(0.5) {
                q.add_edge(0, 2, EdgeKind::Reachability);
            }
            let jm = Jm::new(&g);
            let gm = crate::GmEngine::new(g.clone());
            let rj = jm.evaluate(&q, &Budget::unlimited());
            let rg = gm.evaluate(&q, &Budget::unlimited());
            assert_eq!(rj.occurrences, rg.occurrences, "seed={seed}");
        }
    }
}
