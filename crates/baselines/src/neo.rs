//! Neo4j analogue (§7.5, Tables 5/6 and Fig. 18).
//!
//! Architecture being modeled: tuple-at-a-time binary expansion in
//! *syntactic* edge order (Cypher without a cost-based graph-pattern
//! optimizer), no reachability index — descendant steps expand paths with
//! an on-line DFS (the APOC `subgraphNodes` pattern the paper uses to
//! express reachability edges). Strengths and weaknesses follow: it can
//! evaluate reachability edges directly (unlike GF/EH), but every join is
//! unoptimized and intermediate results are materialized.

use std::time::Instant;

use crate::{failure_report, Budget, Engine};
use rig_core::{RunReport, RunStatus};
use rig_graph::{DataGraph, Deadline, NodeId};
use rig_query::{EdgeKind, PatternQuery, QNode};

/// The Neo4j-like engine.
pub struct NeoLike<'g> {
    graph: &'g DataGraph,
}

impl<'g> NeoLike<'g> {
    pub fn new(graph: &'g DataGraph) -> Self {
        NeoLike { graph }
    }

    /// On-line reachability: DFS from `u` (no index).
    fn dfs_reaches(&self, u: NodeId, v: NodeId) -> bool {
        let mut seen = vec![false; self.graph.num_nodes()];
        let mut stack: Vec<NodeId> = self.graph.out_neighbors(u).to_vec();
        while let Some(x) = stack.pop() {
            if x == v {
                return true;
            }
            if !seen[x as usize] {
                seen[x as usize] = true;
                stack.extend_from_slice(self.graph.out_neighbors(x));
            }
        }
        false
    }

    /// All label-matching nodes reachable from `u` (APOC-style expansion).
    fn dfs_descendants_with_label(&self, u: NodeId, label: u32) -> Vec<NodeId> {
        let mut seen = vec![false; self.graph.num_nodes()];
        let mut out = Vec::new();
        let mut stack: Vec<NodeId> = self.graph.out_neighbors(u).to_vec();
        while let Some(x) = stack.pop() {
            if seen[x as usize] {
                continue;
            }
            seen[x as usize] = true;
            if self.graph.label(x) == label {
                out.push(x);
            }
            stack.extend_from_slice(self.graph.out_neighbors(x));
        }
        out
    }

    fn dfs_ancestors_with_label(&self, v: NodeId, label: u32) -> Vec<NodeId> {
        let mut seen = vec![false; self.graph.num_nodes()];
        let mut out = Vec::new();
        let mut stack: Vec<NodeId> = self.graph.in_neighbors(v).to_vec();
        while let Some(x) = stack.pop() {
            if seen[x as usize] {
                continue;
            }
            seen[x as usize] = true;
            if self.graph.label(x) == label {
                out.push(x);
            }
            stack.extend_from_slice(self.graph.in_neighbors(x));
        }
        out
    }
}

impl Engine for NeoLike<'_> {
    fn name(&self) -> &'static str {
        "Neo4j"
    }

    fn evaluate(&self, query: &PatternQuery, budget: &Budget) -> RunReport {
        let start = Instant::now();
        let mut deadline = Deadline::new(budget.timeout.map(|t| start + t));
        let cap = budget.max_intermediate.unwrap_or(u64::MAX);
        let g = self.graph;

        // syntactic edge order, seeded from the first edge
        let mut schema: Vec<QNode> = Vec::new();
        let mut tuples: Vec<Vec<NodeId>> = Vec::new();
        let mut intermediate = 0u64;
        for (step, e) in query.edges().iter().enumerate() {
            if deadline.charge() {
                return failure_report("Neo4j", RunStatus::Timeout, start.elapsed(), intermediate);
            }
            let lf = query.label(e.from);
            let lt = query.label(e.to);
            if step == 0 {
                schema = vec![e.from, e.to];
                match e.kind {
                    EdgeKind::Direct => {
                        for u in g.nodes_with_label(lf) {
                            for &v in g.out_neighbors(*u) {
                                if g.label(v) == lt {
                                    tuples.push(vec![*u, v]);
                                }
                            }
                        }
                    }
                    EdgeKind::Reachability => {
                        for u in g.nodes_with_label(lf) {
                            for v in self.dfs_descendants_with_label(*u, lt) {
                                tuples.push(vec![*u, v]);
                            }
                            if tuples.len() as u64 > cap {
                                return failure_report(
                                    "Neo4j",
                                    RunStatus::MemoryExceeded,
                                    start.elapsed(),
                                    intermediate + tuples.len() as u64,
                                );
                            }
                        }
                    }
                }
            } else {
                let fpos = schema.iter().position(|&x| x == e.from);
                let tpos = schema.iter().position(|&x| x == e.to);
                let mut next: Vec<Vec<NodeId>> = Vec::new();
                for tu in &tuples {
                    if deadline.charge() {
                        return failure_report(
                            "Neo4j",
                            RunStatus::Timeout,
                            start.elapsed(),
                            intermediate,
                        );
                    }
                    match (fpos, tpos) {
                        (Some(fp), Some(tp)) => {
                            let ok = match e.kind {
                                EdgeKind::Direct => g.has_edge(tu[fp], tu[tp]),
                                EdgeKind::Reachability => self.dfs_reaches(tu[fp], tu[tp]),
                            };
                            if ok {
                                next.push(tu.clone());
                            }
                        }
                        (Some(fp), None) => {
                            let exts: Vec<NodeId> = match e.kind {
                                EdgeKind::Direct => g
                                    .out_neighbors(tu[fp])
                                    .iter()
                                    .copied()
                                    .filter(|&v| g.label(v) == lt)
                                    .collect(),
                                EdgeKind::Reachability => {
                                    self.dfs_descendants_with_label(tu[fp], lt)
                                }
                            };
                            for v in exts {
                                let mut nt = tu.clone();
                                nt.push(v);
                                next.push(nt);
                            }
                        }
                        (None, Some(tp)) => {
                            let exts: Vec<NodeId> = match e.kind {
                                EdgeKind::Direct => g
                                    .in_neighbors(tu[tp])
                                    .iter()
                                    .copied()
                                    .filter(|&u| g.label(u) == lf)
                                    .collect(),
                                EdgeKind::Reachability => self.dfs_ancestors_with_label(tu[tp], lf),
                            };
                            for u in exts {
                                let mut nt = tu.clone();
                                nt.push(u);
                                next.push(nt);
                            }
                        }
                        (None, None) => {
                            // disconnected pattern: Cartesian with the edge
                            // relation (rare; queries are connected)
                            for u in g.nodes_with_label(lf) {
                                for &v in g.out_neighbors(*u) {
                                    if g.label(v) == lt {
                                        let mut nt = tu.clone();
                                        nt.push(*u);
                                        nt.push(v);
                                        next.push(nt);
                                    }
                                }
                            }
                        }
                    }
                    if next.len() as u64 > cap {
                        return failure_report(
                            "Neo4j",
                            RunStatus::MemoryExceeded,
                            start.elapsed(),
                            intermediate + next.len() as u64,
                        );
                    }
                }
                if fpos.is_none() && tpos.is_none() {
                    schema.push(e.from);
                    schema.push(e.to);
                } else if fpos.is_none() {
                    schema.push(e.from);
                } else if tpos.is_none() {
                    schema.push(e.to);
                }
                tuples = next;
            }
            intermediate += tuples.len() as u64;
            if tuples.is_empty() {
                break;
            }
        }

        let mut count = tuples.len() as u64;
        // isolated query nodes (no incident edges) — not produced by our
        // workloads; multiply by their label cardinality to stay exact
        for qn in 0..query.num_nodes() as QNode {
            if !schema.contains(&qn) && query.degree(qn) == 0 {
                count *= g.nodes_with_label(query.label(qn)).len() as u64;
            }
        }
        if let Some(limit) = budget.match_limit {
            count = count.min(limit);
        }
        let total = start.elapsed();
        RunReport {
            engine: "Neo4j".into(),
            status: RunStatus::Completed,
            occurrences: count,
            total_time: total,
            matching_time: std::time::Duration::ZERO,
            enumeration_time: total,
            intermediate_tuples: intermediate,
            aux_size: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rig_datasets::examples::{fig2_graph, fig4_g2};
    use rig_query::fig2_query;

    #[test]
    fn neo_matches_gm_on_fig2() {
        let g = fig2_graph();
        let neo = NeoLike::new(&g);
        let r = neo.evaluate(&fig2_query(), &Budget::unlimited());
        assert_eq!(r.status, RunStatus::Completed);
        assert_eq!(r.occurrences, 2);
    }

    #[test]
    fn neo_empty_answer() {
        let g = fig4_g2();
        let neo = NeoLike::new(&g);
        let r = neo.evaluate(&fig2_query(), &Budget::unlimited());
        assert_eq!(r.occurrences, 0);
    }

    #[test]
    fn neo_oom_on_tiny_budget() {
        let g = fig2_graph();
        let neo = NeoLike::new(&g);
        let budget = Budget { max_intermediate: Some(1), ..Budget::unlimited() };
        let r = neo.evaluate(&fig2_query(), &budget);
        assert_eq!(r.status, RunStatus::MemoryExceeded);
    }

    #[test]
    fn neo_equals_gm_randomized() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use rig_graph::GraphBuilder;
        use rig_query::EdgeKind;
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed + 500);
            let mut b = GraphBuilder::new();
            for _ in 0..12 {
                b.add_node(rng.gen_range(0..3));
            }
            for _ in 0..25 {
                let u = rng.gen_range(0..12) as NodeId;
                let v = rng.gen_range(0..12) as NodeId;
                if u != v {
                    b.add_edge(u, v);
                }
            }
            let g = b.build();
            let mut q = PatternQuery::new((0..3).map(|_| rng.gen_range(0..3)).collect());
            q.add_edge(0, 1, EdgeKind::Reachability);
            q.add_edge(1, 2, EdgeKind::Direct);
            let neo = NeoLike::new(&g);
            let gm = crate::GmEngine::new(g.clone());
            assert_eq!(
                neo.evaluate(&q, &Budget::unlimited()).occurrences,
                gm.evaluate(&q, &Budget::unlimited()).occurrences,
                "seed={seed}"
            );
        }
    }
}
