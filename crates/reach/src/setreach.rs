//! Batched set reachability: descendants / ancestors of a *set* of nodes
//! in one multi-source sweep.
//!
//! The double-simulation select phase (§4.2) repeatedly asks, for a
//! reachability query edge `(qi, qj)`: *which candidate nodes of `qi` reach
//! at least one candidate of `qj`?* That is exactly membership in
//! `ancestors_of_set(G, FB(qj))` — far cheaper than per-pair probes when
//! candidate sets are large.
//!
//! Two sweeps answer it:
//!
//! * [`Condensation::descendants_of_set`] / [`Condensation::ancestors_of_set`]
//!   sweep the condensation DAG, in O(|C| + |E_C| + |sources|) for `|C|`
//!   components. Selection uses them whenever the oracle exposes a
//!   condensation ([`crate::Reachability::condensation`]) and the graph
//!   view is clean, so the condensation describes it.
//! * [`descendants_of_set`] / [`ancestors_of_set`] sweep the data graph in
//!   O(|V| + |E|). They read any [`GraphView`], so they are the fallback
//!   for a dirty snapshot, which has no condensation.

use crate::scc::DagAdjacency;
use crate::Condensation;
use rig_bitset::Bitset;
use rig_graph::{GraphView, NodeId};

/// All nodes `v` such that some `s ∈ sources` has a non-empty path `s ⇝ v`.
/// (A source is included only if it is reachable *from* a source, e.g. on a
/// cycle or downstream of another source.)
pub fn descendants_of_set<'a>(g: impl Into<GraphView<'a>>, sources: &Bitset) -> Bitset {
    sweep(g.into(), sources, Direction::Forward)
}

/// All nodes `v` such that `v` has a non-empty path to some `s ∈ sources`.
pub fn ancestors_of_set<'a>(g: impl Into<GraphView<'a>>, sources: &Bitset) -> Bitset {
    sweep(g.into(), sources, Direction::Backward)
}

enum Direction {
    Forward,
    Backward,
}

fn sweep(g: GraphView<'_>, sources: &Bitset, dir: Direction) -> Bitset {
    let n = g.num_nodes();
    let mut seen = vec![false; n];
    let mut frontier: Vec<NodeId> = Vec::new();
    // Seed with the one-step neighbors of every source, so that membership
    // certifies a path of length >= 1.
    for s in sources.iter() {
        let neigh = match dir {
            Direction::Forward => g.out_neighbors(s),
            Direction::Backward => g.in_neighbors(s),
        };
        for &x in neigh {
            if !seen[x as usize] {
                seen[x as usize] = true;
                frontier.push(x);
            }
        }
    }
    let mut head = 0;
    while head < frontier.len() {
        let v = frontier[head];
        head += 1;
        let neigh = match dir {
            Direction::Forward => g.out_neighbors(v),
            Direction::Backward => g.in_neighbors(v),
        };
        for &x in neigh {
            if !seen[x as usize] {
                seen[x as usize] = true;
                frontier.push(x);
            }
        }
    }
    frontier.sort_unstable();
    Bitset::from_sorted_dedup(&frontier)
}

/// A node set produced by a condensation sweep, held as one flag per
/// component of the [`Condensation`] it was swept on.
pub struct ComponentSet<'a> {
    cond: &'a Condensation,
    member: Vec<bool>,
}

impl ComponentSet<'_> {
    /// True iff node `v` is in the set.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.member[self.cond.component(v) as usize]
    }
}

impl Condensation {
    /// [`descendants_of_set`] of the graph this condensation was built
    /// from, swept over the condensation DAG instead of the data graph.
    pub fn descendants_of_set(&self, sources: &Bitset) -> ComponentSet<'_> {
        self.sweep(sources, &self.dag_fwd)
    }

    /// [`ancestors_of_set`] of the graph this condensation was built from,
    /// swept over the condensation DAG instead of the data graph.
    pub fn ancestors_of_set(&self, sources: &Bitset) -> ComponentSet<'_> {
        self.sweep(sources, &self.dag_bwd)
    }

    /// Marks every component reached from a source's component by a
    /// non-empty DAG path, plus every cyclic source component (its members
    /// reach each other, themselves included). A trivial source component
    /// is marked only if another source reaches it: its sole member has no
    /// non-empty path back to itself.
    fn sweep(&self, sources: &Bitset, dag: &DagAdjacency) -> ComponentSet<'_> {
        let mut member = vec![false; self.count];
        let mut frontier: Vec<u32> = Vec::new();
        for s in sources.iter() {
            let c = self.component(s) as usize;
            // A cyclic component is marked on first sight, so it is queued
            // once; a trivial one holds a single node, so it is seen once.
            if !member[c] {
                member[c] = self.nontrivial[c];
                frontier.push(c as u32);
            }
        }
        // A trivial seed reached later is queued a second time; its
        // children are already marked by then, so the rescan is cheap.
        let mut head = 0;
        while head < frontier.len() {
            let c = frontier[head] as usize;
            head += 1;
            for &d in &dag[c] {
                if !member[d as usize] {
                    member[d as usize] = true;
                    frontier.push(d);
                }
            }
        }
        ComponentSet { cond: self, member }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{naive_reaches, random_graph};

    #[test]
    fn matches_per_node_reachability() {
        for seed in 0..6u64 {
            let g = random_graph(50, 110, seed);
            let sources = Bitset::from_slice(&[0, 7, 23]);
            let desc = descendants_of_set(&g, &sources);
            let anc = ancestors_of_set(&g, &sources);
            for v in 0..50u32 {
                let expect_desc = sources.iter().any(|s| naive_reaches(&g, s, v));
                let expect_anc = sources.iter().any(|s| naive_reaches(&g, v, s));
                assert_eq!(desc.contains(v), expect_desc, "seed={seed} v={v} desc");
                assert_eq!(anc.contains(v), expect_anc, "seed={seed} v={v} anc");
            }
        }
    }

    #[test]
    fn empty_sources_empty_result() {
        let g = random_graph(10, 20, 0);
        assert!(descendants_of_set(&g, &Bitset::new()).is_empty());
        assert!(ancestors_of_set(&g, &Bitset::new()).is_empty());
    }

    #[test]
    fn source_on_cycle_is_its_own_descendant() {
        use rig_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        for _ in 0..2 {
            b.add_node(0);
        }
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        let g = b.build();
        let d = descendants_of_set(&g, &Bitset::from_slice(&[0]));
        assert!(d.contains(0));
        assert!(d.contains(1));
    }
}
