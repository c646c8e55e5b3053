//! Materialized transitive closure.
//!
//! One descendant bitmap per condensation component, computed in reverse
//! topological order. Exact, O(1) queries, but Θ(V²/64) memory in the worst
//! case — this is the index the GF-analogue is forced to build for
//! D-queries (§7.5, Fig. 18), and the ground truth for our property tests.

use std::time::Instant;

use crate::scc::Condensation;
use crate::Reachability;
use rig_bitset::Bitset;
use rig_graph::{DataGraph, GraphBuilder, NodeId};

/// Fully materialized transitive closure of a data graph.
pub struct TransitiveClosure {
    cond: Condensation,
    /// `desc[c]` = components reachable from `c` (excluding `c` itself).
    desc: Vec<Bitset>,
    /// Members of each component, ascending node id.
    members: Vec<Vec<NodeId>>,
    build_secs: f64,
}

impl TransitiveClosure {
    /// Builds the closure for `g`.
    pub fn new(g: &DataGraph) -> Self {
        let start = Instant::now();
        let cond = Condensation::new(g);
        let n = cond.count;
        let mut desc: Vec<Bitset> = vec![Bitset::new(); n];
        for &c in cond.topo.iter().rev() {
            let mut d = Bitset::new();
            for &child in &cond.dag_fwd[c as usize] {
                d.insert(child);
                d.or_assign(&desc[child as usize]);
            }
            desc[c as usize] = d;
        }
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for v in 0..g.num_nodes() as NodeId {
            members[cond.component(v) as usize].push(v);
        }
        let build_secs = start.elapsed().as_secs_f64();
        TransitiveClosure { cond, desc, members, build_secs }
    }

    /// The underlying condensation.
    pub fn condensation(&self) -> &Condensation {
        &self.cond
    }

    /// All nodes reachable from `u` with a non-empty path, as a bitmap.
    pub fn descendants_of(&self, u: NodeId) -> Bitset {
        let cu = self.cond.component(u);
        let mut out = Bitset::new();
        if self.cond.nontrivial[cu as usize] {
            for &m in &self.members[cu as usize] {
                out.insert(m);
            }
        }
        for c in self.desc[cu as usize].iter() {
            for &m in &self.members[c as usize] {
                out.insert(m);
            }
        }
        out
    }

    /// Total number of reachable node pairs `(u, v)` with `u ≺ v` — the
    /// size of the materialized closure graph.
    pub fn pair_count(&self) -> u64 {
        let mut total = 0u64;
        for c in 0..self.cond.count {
            let size = self.members[c].len() as u64;
            let mut reach_nodes = 0u64;
            for d in self.desc[c].iter() {
                reach_nodes += self.members[d as usize].len() as u64;
            }
            if self.cond.nontrivial[c] {
                reach_nodes += size; // members reach each other and themselves
            }
            total += size * reach_nodes;
        }
        total
    }

    /// Materializes the closure as a data graph (edge `u -> v` iff `u ≺ v`).
    /// This is what an edge-to-edge-only engine must evaluate D-queries on
    /// (§7.5); expect quadratic blow-up.
    pub fn to_graph(&self, g: &DataGraph) -> DataGraph {
        let mut b = GraphBuilder::with_capacity(g.num_nodes(), 0);
        for v in 0..g.num_nodes() as NodeId {
            b.add_node(g.label(v));
        }
        for u in 0..g.num_nodes() as NodeId {
            for v in self.descendants_of(u).iter() {
                b.add_edge(u, v);
            }
        }
        b.build()
    }
}

impl Reachability for TransitiveClosure {
    fn reaches(&self, u: NodeId, v: NodeId) -> bool {
        let cu = self.cond.component(u);
        let cv = self.cond.component(v);
        if cu == cv {
            return self.cond.nontrivial[cu as usize];
        }
        self.desc[cu as usize].contains(cv)
    }

    fn build_seconds(&self) -> f64 {
        self.build_secs
    }

    fn name(&self) -> &'static str {
        "TC"
    }

    fn condensation(&self) -> Option<&Condensation> {
        Some(&self.cond)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{naive_reaches, random_graph};

    #[test]
    fn matches_naive_on_random_graphs() {
        for seed in 0..8u64 {
            let g = random_graph(60, 150, seed);
            let tc = TransitiveClosure::new(&g);
            for u in 0..60u32 {
                for v in 0..60u32 {
                    assert_eq!(
                        tc.reaches(u, v),
                        naive_reaches(&g, u, v),
                        "seed={seed} u={u} v={v}"
                    );
                }
            }
        }
    }

    #[test]
    fn descendants_and_pair_count_agree() {
        for seed in 0..4u64 {
            let g = random_graph(40, 90, seed);
            let tc = TransitiveClosure::new(&g);
            let mut pairs = 0u64;
            for u in 0..40u32 {
                let d = tc.descendants_of(u);
                for v in 0..40u32 {
                    assert_eq!(d.contains(v), tc.reaches(u, v), "u={u} v={v}");
                }
                pairs += d.len();
            }
            assert_eq!(pairs, tc.pair_count(), "seed={seed}");
        }
    }

    #[test]
    fn closure_graph_has_edge_iff_reachable() {
        let g = random_graph(30, 60, 11);
        let tc = TransitiveClosure::new(&g);
        let cg = tc.to_graph(&g);
        for u in 0..30u32 {
            for v in 0..30u32 {
                assert_eq!(cg.has_edge(u, v), tc.reaches(u, v));
            }
        }
        assert_eq!(cg.num_edges() as u64, tc.pair_count());
    }
}
