//! TM — the tree-based approach (§1, §7.1; DagStackD \[11\] / \[59\] style).
//!
//! Extract a spanning tree of the query, evaluate the tree pattern (we use
//! the \[59\]-style machinery: tree double simulation + answer-graph
//! enumeration, which the paper says outperforms older tree algorithms),
//! then check every tree occurrence against the non-tree edges. When the
//! tree has vastly more occurrences than the full query, almost all of
//! that work is wasted — TM's defining weakness (it times out on dense
//! graphs and combo patterns).

use std::time::Instant;

use crate::{failure_report, Budget, Engine};
use rig_core::{RunReport, RunStatus};
use rig_graph::DataGraph;
use rig_index::{build_rig, RigOptions};
use rig_mjoin::{enumerate_sink, EnumOptions, FnSink, SearchOrder};
use rig_query::{EdgeId, EdgeKind, PatternQuery, QNode};
use rig_reach::{BflIndex, Reachability};
use rig_sim::SimContext;

/// The TM engine.
pub struct Tm<'g> {
    graph: &'g DataGraph,
    bfl: BflIndex,
}

impl<'g> Tm<'g> {
    pub fn new(graph: &'g DataGraph) -> Self {
        Tm { graph, bfl: BflIndex::new(graph) }
    }

    /// Spanning tree edge ids (BFS over the undirected pattern from node
    /// 0); the complement is the non-tree edge set checked per tuple.
    pub fn spanning_tree(query: &PatternQuery) -> (Vec<EdgeId>, Vec<EdgeId>) {
        let n = query.num_nodes();
        let mut visited = vec![false; n];
        let mut tree = Vec::new();
        let mut stack: Vec<QNode> = vec![0];
        visited[0] = true;
        while let Some(q) = stack.pop() {
            for (nb, eid, _) in query.neighbors(q) {
                if !visited[nb as usize] {
                    visited[nb as usize] = true;
                    tree.push(eid);
                    stack.push(nb);
                }
            }
        }
        let tree_set: std::collections::HashSet<EdgeId> = tree.iter().copied().collect();
        let non_tree = (0..query.num_edges() as EdgeId).filter(|e| !tree_set.contains(e)).collect();
        (tree, non_tree)
    }
}

impl Engine for Tm<'_> {
    fn name(&self) -> &'static str {
        "TM"
    }

    fn evaluate(&self, query: &PatternQuery, budget: &Budget) -> RunReport {
        let start = Instant::now();
        let deadline = budget.timeout.map(|t| start + t);
        let (tree_edges, non_tree) = Self::spanning_tree(query);
        let tree_query = query.with_edges(&tree_edges);

        // [59]-style tree evaluation: double simulation on the tree query
        // plus an answer graph (a RIG restricted to tree edges).
        let mut ctx = SimContext::new(self.graph, &tree_query, &self.bfl);
        ctx.deadline = deadline;
        let rig = build_rig(&ctx, &RigOptions::default());
        let matching_time = start.elapsed();
        if rig.stats.timed_out {
            return failure_report("TM", RunStatus::Timeout, matching_time, 0);
        }
        if rig.is_empty() {
            let total = start.elapsed();
            return RunReport {
                engine: "TM".into(),
                status: RunStatus::Completed,
                occurrences: 0,
                total_time: total,
                matching_time,
                enumeration_time: total.saturating_sub(matching_time),
                intermediate_tuples: 0,
                aux_size: rig.stats.size(),
            };
        }

        // enumerate tree occurrences, filtering each against non-tree edges
        let opts = EnumOptions { order: SearchOrder::Jo, limit: None, deadline, injective: false };
        let mut count = 0u64;
        let mut tree_tuples = 0u64;
        let mut exceeded = false;
        let cap = budget.max_intermediate.unwrap_or(u64::MAX);
        let limit = budget.match_limit.unwrap_or(u64::MAX);
        let g = self.graph;
        let bfl = &self.bfl;
        let mut sink = FnSink(|t: &[_]| {
            tree_tuples += 1;
            if tree_tuples > cap {
                exceeded = true;
                return false;
            }
            let ok = non_tree.iter().all(|&eid| {
                let e = query.edge(eid);
                let (u, v) = (t[e.from as usize], t[e.to as usize]);
                match e.kind {
                    EdgeKind::Direct => g.has_edge(u, v),
                    EdgeKind::Reachability => bfl.reaches(u, v),
                }
            });
            if ok {
                count += 1;
            }
            count < limit
        });
        let result = enumerate_sink(&tree_query, &rig, &opts, &mut sink);
        let total = start.elapsed();
        let status = if exceeded {
            RunStatus::MemoryExceeded
        } else if result.timed_out {
            RunStatus::Timeout
        } else {
            RunStatus::Completed
        };
        if !status.is_solved() {
            return failure_report("TM", status, total, tree_tuples);
        }
        RunReport {
            engine: "TM".into(),
            status,
            occurrences: count,
            total_time: total,
            matching_time,
            enumeration_time: total.saturating_sub(matching_time),
            intermediate_tuples: tree_tuples,
            aux_size: rig.stats.size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rig_datasets::examples::{fig2_graph, fig4_g2};
    use rig_query::fig2_query;

    #[test]
    fn spanning_tree_splits_edges() {
        let q = fig2_query();
        let (tree, non_tree) = Tm::spanning_tree(&q);
        assert_eq!(tree.len(), 2); // n-1 edges
        assert_eq!(non_tree.len(), 1);
        let tq = q.with_edges(&tree);
        assert!(tq.is_connected());
        assert_eq!(tq.cycle_rank(), 0);
    }

    #[test]
    fn tm_matches_gm_on_fig2() {
        let g = fig2_graph();
        let tm = Tm::new(&g);
        let r = tm.evaluate(&fig2_query(), &Budget::unlimited());
        assert_eq!(r.status, RunStatus::Completed);
        assert_eq!(r.occurrences, 2);
        // tree tuples examined ≥ answers (the wasted work TM suffers from)
        assert!(r.intermediate_tuples >= r.occurrences);
    }

    #[test]
    fn tm_empty_answer() {
        let g = fig4_g2();
        let tm = Tm::new(&g);
        let r = tm.evaluate(&fig2_query(), &Budget::unlimited());
        assert_eq!(r.occurrences, 0);
    }

    #[test]
    fn tm_equals_gm_randomized() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use rig_graph::{GraphBuilder, NodeId};
        use rig_query::EdgeKind;
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed + 100);
            let mut b = GraphBuilder::new();
            for _ in 0..15 {
                b.add_node(rng.gen_range(0..3));
            }
            for _ in 0..35 {
                let u = rng.gen_range(0..15) as NodeId;
                let v = rng.gen_range(0..15) as NodeId;
                if u != v {
                    b.add_edge(u, v);
                }
            }
            let g = b.build();
            let mut q = PatternQuery::new((0..4).map(|_| rng.gen_range(0..3)).collect());
            q.add_edge(0, 1, EdgeKind::Direct);
            q.add_edge(1, 2, EdgeKind::Reachability);
            q.add_edge(2, 3, EdgeKind::Direct);
            if rng.gen_bool(0.6) {
                q.add_edge(0, 3, EdgeKind::Reachability);
            }
            let tm = Tm::new(&g);
            let gm = crate::GmEngine::new(g.clone());
            let rt = tm.evaluate(&q, &Budget::unlimited());
            let rg = gm.evaluate(&q, &Budget::unlimited());
            assert_eq!(rt.occurrences, rg.occurrences, "seed={seed}");
        }
    }
}
