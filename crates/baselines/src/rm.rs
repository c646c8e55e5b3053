//! RapidMatch analogue (§7.5, Fig. 17).
//!
//! RapidMatch is a *tree-based* WCOJ engine: it filters candidates along a
//! (nucleus-)decomposition of the query, then enumerates with multiway
//! intersections and a density-driven static order. The analogue keeps
//! that architecture: spanning-tree-restricted candidate filtering (no
//! full double simulation — RM's filter reasons only over the tree), full
//! RIG expansion over the filtered candidates, and RI-style topology-only
//! ordering for enumeration.

use std::time::Instant;

use crate::{failure_report, Budget, Engine};
use rig_core::{RunReport, RunStatus};
use rig_graph::DataGraph;
use rig_index::{build_rig_from_candidates, RigOptions};
use rig_mjoin::{enumerate_sink, CountSink, EnumOptions, SearchOrder};
use rig_query::{EdgeKind, PatternQuery};
use rig_reach::BflIndex;
use rig_sim::{double_simulation, SimContext, SimOptions};

/// The RapidMatch-like engine (direct-edge queries only, like RM itself).
pub struct RmLike<'g> {
    graph: &'g DataGraph,
    bfl: BflIndex,
}

impl<'g> RmLike<'g> {
    pub fn new(graph: &'g DataGraph) -> Self {
        RmLike { graph, bfl: BflIndex::new(graph) }
    }
}

impl Engine for RmLike<'_> {
    fn name(&self) -> &'static str {
        "RM"
    }

    fn evaluate(&self, query: &PatternQuery, budget: &Budget) -> RunReport {
        let start = Instant::now();
        let deadline = budget.timeout.map(|t| start + t);
        if query.edges().iter().any(|e| e.kind == EdgeKind::Reachability) {
            // RM evaluates subgraph (edge-to-edge) queries only.
            return failure_report("RM", RunStatus::Failed, start.elapsed(), 0);
        }
        // tree-restricted filtering
        let (tree_edges, _) = crate::Tm::spanning_tree(query);
        let tree_query = query.with_edges(&tree_edges);
        let mut tree_ctx = SimContext::new(self.graph, &tree_query, &self.bfl);
        tree_ctx.deadline = deadline;
        let filtered = double_simulation(&tree_ctx, &SimOptions::paper_default());

        // expansion over the full query, directly from the tree-filtered
        // candidate sets (FB of the tree query sandwiches os ⊆ fb ⊆ ms, so
        // the RIG stays lossless for the full query)
        let mut ctx = SimContext::new(self.graph, query, &self.bfl);
        ctx.deadline = deadline;
        let rig = build_rig_from_candidates(&ctx, &self.bfl, &RigOptions::default(), filtered.fb);
        let matching_time = start.elapsed();
        if rig.stats.timed_out {
            return failure_report("RM", RunStatus::Timeout, matching_time, 0);
        }
        if rig.is_empty() {
            let total = start.elapsed();
            return RunReport {
                engine: "RM".into(),
                status: RunStatus::Completed,
                occurrences: 0,
                total_time: total,
                matching_time,
                enumeration_time: total.saturating_sub(matching_time),
                intermediate_tuples: 0,
                aux_size: rig.stats.size(),
            };
        }
        let opts = EnumOptions {
            order: SearchOrder::Ri,
            limit: budget.match_limit,
            deadline,
            injective: false,
        };
        let result = enumerate_sink(query, &rig, &opts, &mut CountSink::default());
        let total = start.elapsed();
        RunReport {
            engine: "RM".into(),
            status: if result.timed_out { RunStatus::Timeout } else { RunStatus::Completed },
            occurrences: result.count,
            total_time: total,
            matching_time,
            enumeration_time: total.saturating_sub(matching_time),
            intermediate_tuples: 0,
            aux_size: rig.stats.size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rig_datasets::examples::fig2_graph;
    use rig_query::{EdgeKind, PatternQuery};

    #[test]
    fn rm_counts_direct_queries() {
        let g = fig2_graph();
        let rm = RmLike::new(&g);
        let mut q = PatternQuery::new(vec![0, 1, 2]);
        q.add_edge(0, 1, EdgeKind::Direct);
        q.add_edge(0, 2, EdgeKind::Direct);
        let r = rm.evaluate(&q, &Budget::unlimited());
        assert_eq!(r.status, RunStatus::Completed);
        assert_eq!(r.occurrences, 2);
    }

    #[test]
    fn rm_rejects_reachability() {
        let g = fig2_graph();
        let rm = RmLike::new(&g);
        let r = rm.evaluate(&rig_query::fig2_query(), &Budget::unlimited());
        assert_eq!(r.status, RunStatus::Failed);
    }

    #[test]
    fn rm_equals_gm_on_random_direct_queries() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use rig_graph::{GraphBuilder, NodeId};
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed + 900);
            let mut b = GraphBuilder::new();
            for _ in 0..14 {
                b.add_node(rng.gen_range(0..3));
            }
            for _ in 0..30 {
                let u = rng.gen_range(0..14) as NodeId;
                let v = rng.gen_range(0..14) as NodeId;
                if u != v {
                    b.add_edge(u, v);
                }
            }
            let g = b.build();
            let mut q = PatternQuery::new((0..3).map(|_| rng.gen_range(0..3)).collect());
            q.add_edge(0, 1, EdgeKind::Direct);
            q.add_edge(1, 2, EdgeKind::Direct);
            if rng.gen_bool(0.5) {
                q.add_edge(0, 2, EdgeKind::Direct);
            }
            let rm = RmLike::new(&g);
            let gm = crate::GmEngine::new(g.clone());
            assert_eq!(
                rm.evaluate(&q, &Budget::unlimited()).occurrences,
                gm.evaluate(&q, &Budget::unlimited()).occurrences,
                "seed={seed}"
            );
        }
    }
}
