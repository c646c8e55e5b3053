//! A worst-case-optimal join matcher over the *raw* data graph (no RIG).
//!
//! This is the enumeration core shared by the GraphflowDB and EmptyHeaded
//! analogues: node-at-a-time extension with adjacency-list intersections,
//! like MJoin, but (a) candidates are raw label inverted lists rather than
//! simulation-refined sets, and (b) only **direct** edges are supported —
//! matching the paper's observation that these engines cannot evaluate
//! reachability edges without a materialized transitive closure (§7.5).

use std::time::{Duration, Instant};

use crate::Budget;
use rig_bitset::Bitset;
use rig_core::RunStatus;
use rig_graph::{DataGraph, Deadline, NodeId};
use rig_query::{EdgeKind, PatternQuery, QNode};

/// Result of a raw-graph WCOJ run.
#[derive(Debug, Clone)]
pub struct WcojOutcome {
    pub count: u64,
    pub status: RunStatus,
    pub elapsed: Duration,
    pub steps: u64,
}

/// Counts homomorphisms of a direct-edge-only query by WCOJ over the data
/// graph. Returns `RunStatus::Failed` if the query has reachability edges.
pub fn wcoj_count(g: &DataGraph, query: &PatternQuery, budget: &Budget) -> WcojOutcome {
    let start = Instant::now();
    if query.edges().iter().any(|e| e.kind == EdgeKind::Reachability) {
        return WcojOutcome {
            count: 0,
            status: RunStatus::Failed,
            elapsed: start.elapsed(),
            steps: 0,
        };
    }
    let n = query.num_nodes();
    if n == 0 {
        return WcojOutcome {
            count: 0,
            status: RunStatus::Completed,
            elapsed: start.elapsed(),
            steps: 0,
        };
    }
    // greedy connected order on inverted-list sizes
    let order = raw_order(g, query);
    let mut pos_of = vec![usize::MAX; n];
    for (i, &q) in order.iter().enumerate() {
        pos_of[q as usize] = i;
    }
    // constraints per step: (bound position, bound_is_source)
    let mut constraints: Vec<Vec<(usize, bool)>> = vec![Vec::new(); n];
    for e in query.edges() {
        let pf = pos_of[e.from as usize];
        let pt = pos_of[e.to as usize];
        if pf < pt {
            constraints[pt].push((pf, true));
        } else {
            constraints[pf].push((pt, false));
        }
    }
    let mut st = State {
        g,
        query,
        order: &order,
        constraints: &constraints,
        deadline: Deadline::new(budget.timeout.map(|t| start + t)),
        limit: budget.match_limit.unwrap_or(u64::MAX),
        count: 0,
        steps: 0,
        timed_out: false,
    };
    let mut tuple = vec![0 as NodeId; n];
    st.recurse(0, &mut tuple);
    WcojOutcome {
        count: st.count,
        status: if st.timed_out { RunStatus::Timeout } else { RunStatus::Completed },
        elapsed: start.elapsed(),
        steps: st.steps,
    }
}

fn raw_order(g: &DataGraph, query: &PatternQuery) -> Vec<QNode> {
    let n = query.num_nodes();
    let card = |q: QNode| g.nodes_with_label(query.label(q)).len();
    let mut order = Vec::with_capacity(n);
    let mut used = vec![false; n];
    let start = (0..n as QNode).min_by_key(|&q| (card(q), q)).unwrap();
    order.push(start);
    used[start as usize] = true;
    while order.len() < n {
        let next = (0..n as QNode)
            .filter(|&q| !used[q as usize])
            .min_by_key(|&q| {
                let connected = query.neighbors(q).any(|(nb, _, _)| used[nb as usize]);
                (!connected, card(q), q)
            })
            .unwrap();
        order.push(next);
        used[next as usize] = true;
    }
    order
}

struct State<'a> {
    g: &'a DataGraph,
    query: &'a PatternQuery,
    order: &'a [QNode],
    constraints: &'a [Vec<(usize, bool)>],
    deadline: Deadline,
    limit: u64,
    count: u64,
    steps: u64,
    timed_out: bool,
}

impl State<'_> {
    fn recurse(&mut self, i: usize, tuple: &mut [NodeId]) -> bool {
        if i == self.order.len() {
            self.count += 1;
            return self.count < self.limit;
        }
        self.steps += 1;
        if self.deadline.charge() {
            self.timed_out = true;
            return false;
        }
        let q = self.order[i];
        let label = self.query.label(q);
        let base = self.g.label_bitset(label);
        let cons = &self.constraints[i];
        if cons.is_empty() {
            for v in base.iter() {
                tuple[i] = v;
                if !self.recurse(i + 1, tuple) {
                    return false;
                }
            }
            return true;
        }
        // adjacency bitmaps of bound neighbors, intersected with the label set
        let mut sets: Vec<Bitset> = Vec::with_capacity(cons.len());
        for &(pos, bound_is_source) in cons {
            let b = tuple[pos];
            let adj =
                if bound_is_source { self.g.out_neighbors(b) } else { self.g.in_neighbors(b) };
            sets.push(Bitset::from_sorted_dedup(adj));
        }
        let refs: Vec<&Bitset> = std::iter::once(base).chain(sets.iter()).collect();
        let cand = Bitset::multi_and(&refs);
        for v in cand.iter() {
            tuple[i] = v;
            if !self.recurse(i + 1, tuple) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rig_datasets::examples::fig2_graph;
    use rig_query::{EdgeKind, PatternQuery};

    #[test]
    fn counts_direct_triangle() {
        let g = fig2_graph();
        // A -> B, A -> C direct only (drop the reachability edge)
        let mut q = PatternQuery::new(vec![0, 1, 2]);
        q.add_edge(0, 1, EdgeKind::Direct);
        q.add_edge(0, 2, EdgeKind::Direct);
        let r = wcoj_count(&g, &q, &Budget::unlimited());
        assert_eq!(r.status, RunStatus::Completed);
        // a1->{b0,c0}, a2->{b2,c2}: 2 matches
        assert_eq!(r.count, 2);
    }

    #[test]
    fn rejects_reachability_edges() {
        let g = fig2_graph();
        let q = rig_query::fig2_query();
        let r = wcoj_count(&g, &q, &Budget::unlimited());
        assert_eq!(r.status, RunStatus::Failed);
    }

    #[test]
    fn limit_stops_early() {
        let g = fig2_graph();
        let mut q = PatternQuery::new(vec![0, 1]);
        q.add_edge(0, 1, EdgeKind::Direct);
        let r = wcoj_count(&g, &q, &Budget::with_limit(1));
        assert_eq!(r.count, 1);
    }
}
