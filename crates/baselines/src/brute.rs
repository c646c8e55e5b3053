//! Brute-force reference enumerator: naive backtracking directly over the
//! raw data graph — **no RIG, no simulation pruning, no search-order
//! statistics** — so it shares no code (and no bugs) with the engine under
//! test. It is the ground-truth oracle for every answer test: the
//! correctness matrix in `tests/matrix.rs` compares tuples and counts
//! against [`brute_force_tuples`], and the harnesses check
//! counts against [`brute_force_count`].
//!
//! Semantics match the engine exactly:
//! * tuples are homomorphisms (or isomorphism-style embeddings with
//!   `injective = true`);
//! * a `Direct` query edge requires a data edge;
//! * a `Reachability` query edge requires a **non-empty** path (the
//!   [`rig_reach::Reachability`] contract — a node reaches itself only
//!   through a cycle), checked here by plain on-line DFS.
//!
//! The only concession to practicality: candidates for a node with an
//! already-bound `Direct`-edge neighbor are drawn from that neighbor's
//! adjacency list instead of the label's full candidate list (adjacency
//! lists are sorted + deduplicated, so counts are unaffected). This keeps
//! the oracle usable on the dense benchmark templates while remaining
//! RIG-free.

use rig_graph::{DataGraph, NodeId};
use rig_query::{EdgeKind, PatternQuery, QNode};

/// On-line DFS reachability with a reusable visited stamp (no index).
struct DfsReach {
    stamp: Vec<u32>,
    epoch: u32,
    stack: Vec<NodeId>,
}

impl DfsReach {
    fn new(n: usize) -> DfsReach {
        DfsReach { stamp: vec![0; n], epoch: 0, stack: Vec::new() }
    }

    /// Non-empty path from `u` to `v`?
    fn reaches(&mut self, g: &DataGraph, u: NodeId, v: NodeId) -> bool {
        self.epoch += 1;
        self.stack.clear();
        for &w in g.out_neighbors(u) {
            if w == v {
                return true;
            }
            if self.stamp[w as usize] != self.epoch {
                self.stamp[w as usize] = self.epoch;
                self.stack.push(w);
            }
        }
        while let Some(x) = self.stack.pop() {
            for &w in g.out_neighbors(x) {
                if w == v {
                    return true;
                }
                if self.stamp[w as usize] != self.epoch {
                    self.stamp[w as usize] = self.epoch;
                    self.stack.push(w);
                }
            }
        }
        false
    }
}

/// A constraint of the node at step `i` against an earlier-bound node.
#[derive(Clone, Copy)]
struct Constraint {
    /// Index into the binding order of the other (already bound) endpoint.
    other: usize,
    kind: EdgeKind,
    /// True when the bound endpoint is the edge source.
    other_is_source: bool,
}

/// Counts the occurrences of `q` in `g` by naive backtracking. Exact and
/// unbudgeted — size inputs accordingly (tests and in-harness bench
/// verification only).
pub fn brute_force_count(g: &DataGraph, q: &PatternQuery, injective: bool) -> u64 {
    let mut count = 0u64;
    brute_force_visit(g, q, injective, &mut |_| count += 1);
    count
}

/// Every occurrence of `q` in `g` (tuples indexed by query node id),
/// sorted. Exact and unbudgeted, like [`brute_force_count`].
pub fn brute_force_tuples(g: &DataGraph, q: &PatternQuery, injective: bool) -> Vec<Vec<NodeId>> {
    let mut out = Vec::new();
    brute_force_visit(g, q, injective, &mut |t| out.push(t.to_vec()));
    out.sort_unstable();
    out
}

/// Calls `visit` with every occurrence of `q` in `g`, indexed by query
/// node id, in no particular order.
fn brute_force_visit(
    g: &DataGraph,
    q: &PatternQuery,
    injective: bool,
    visit: &mut dyn FnMut(&[NodeId]),
) {
    let n = q.num_nodes();
    if n == 0 {
        return;
    }
    // Binding order: start at the node with the fewest label candidates,
    // then greedily extend with a connected node (preferring one reachable
    // through a Direct edge from a bound node, so its candidates come from
    // an adjacency list).
    let cand_count = |qi: usize| {
        let l = q.label(qi as QNode);
        if (l as usize) < g.num_labels() {
            g.nodes_with_label(l).len()
        } else {
            0
        }
    };
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let start = (0..n).min_by_key(|&i| cand_count(i)).unwrap();
    order.push(start);
    placed[start] = true;
    while order.len() < n {
        let mut best: Option<(usize, usize, usize)> = None; // (direct?0:1, cands, node)
        for i in 0..n {
            if placed[i] {
                continue;
            }
            let mut connected = false;
            let mut direct = false;
            for (v, _, _) in q.neighbors(i as QNode) {
                if placed[v as usize] {
                    connected = true;
                }
            }
            for pe in q.edges() {
                let (f, t) = (pe.from as usize, pe.to as usize);
                if pe.kind == EdgeKind::Direct && ((f == i && placed[t]) || (t == i && placed[f])) {
                    direct = true;
                }
            }
            if !connected {
                continue;
            }
            let key = (if direct { 0 } else { 1 }, cand_count(i), i);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        let next = match best {
            Some((_, _, i)) => i,
            // disconnected query: fall back to the smallest remaining
            None => (0..n).filter(|&i| !placed[i]).min_by_key(|&i| cand_count(i)).unwrap(),
        };
        order.push(next);
        placed[next] = true;
    }
    let pos_of = {
        let mut p = vec![0usize; n];
        for (i, &qi) in order.iter().enumerate() {
            p[qi] = i;
        }
        p
    };
    // Per step: all constraints against earlier steps, plus (optionally)
    // the Direct-edge generator to draw candidates from.
    let mut cons: Vec<Vec<Constraint>> = vec![Vec::new(); n];
    let mut generator: Vec<Option<Constraint>> = vec![None; n];
    for pe in q.edges() {
        let (pf, pt) = (pos_of[pe.from as usize], pos_of[pe.to as usize]);
        let (late, other, other_is_source) = if pf < pt { (pt, pf, true) } else { (pf, pt, false) };
        let c = Constraint { other, kind: pe.kind, other_is_source };
        if pe.kind == EdgeKind::Direct && generator[late].is_none() {
            generator[late] = Some(c);
        } else {
            cons[late].push(c);
        }
    }

    let mut search = Search {
        g,
        q,
        order: &order,
        cons: &cons,
        generator: &generator,
        injective,
        reach: DfsReach::new(g.num_nodes()),
        binding: vec![0 as NodeId; n],
        tuple: vec![0 as NodeId; n],
        visit,
    };
    search.rec(0);
}

/// The backtracking state: bindings by binding-order position, and the
/// same bindings by query node id for `visit`.
struct Search<'a> {
    g: &'a DataGraph,
    q: &'a PatternQuery,
    order: &'a [usize],
    cons: &'a [Vec<Constraint>],
    generator: &'a [Option<Constraint>],
    injective: bool,
    reach: DfsReach,
    binding: Vec<NodeId>,
    tuple: Vec<NodeId>,
    visit: &'a mut dyn FnMut(&[NodeId]),
}

impl Search<'_> {
    fn rec(&mut self, depth: usize) {
        if depth == self.order.len() {
            for (&qi, &v) in self.order.iter().zip(&self.binding) {
                self.tuple[qi] = v;
            }
            (self.visit)(&self.tuple);
            return;
        }
        let g = self.g;
        let qi = self.order[depth];
        let label = self.q.label(qi as QNode);
        match self.generator[depth] {
            Some(gen) => {
                let b = self.binding[gen.other];
                let list = if gen.other_is_source { g.out_neighbors(b) } else { g.in_neighbors(b) };
                for &v in list {
                    self.try_candidate(depth, label, v);
                }
            }
            None => {
                if (label as usize) >= g.num_labels() {
                    return;
                }
                for &v in g.nodes_with_label(label) {
                    self.try_candidate(depth, label, v);
                }
            }
        }
    }

    fn try_candidate(&mut self, depth: usize, label: u32, v: NodeId) {
        let g = self.g;
        if !g.is_live(v) || g.label(v) != label {
            return;
        }
        if self.injective && self.binding[..depth].contains(&v) {
            return;
        }
        for c in &self.cons[depth] {
            let b = self.binding[c.other];
            let (src, dst) = if c.other_is_source { (b, v) } else { (v, b) };
            let ok = match c.kind {
                EdgeKind::Direct => g.has_edge(src, dst),
                EdgeKind::Reachability => self.reach.reaches(g, src, dst),
            };
            if !ok {
                return;
            }
        }
        self.binding[depth] = v;
        self.rec(depth + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rig_graph::GraphBuilder;

    fn diamond() -> DataGraph {
        // 0 -> {1, 2} -> 3, labels A B B C
        let mut b = GraphBuilder::new();
        b.add_node(0);
        b.add_node(1);
        b.add_node(1);
        b.add_node(2);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 3);
        b.add_edge(2, 3);
        b.build()
    }

    #[test]
    fn direct_chain_counts() {
        let g = diamond();
        let mut q = PatternQuery::new(vec![0, 1, 2]);
        q.add_edge(0, 1, EdgeKind::Direct);
        q.add_edge(1, 2, EdgeKind::Direct);
        assert_eq!(brute_force_count(&g, &q, false), 2);
        assert_eq!(brute_force_count(&g, &q, true), 2);
        // tuples are indexed by query node, whatever the binding order
        assert_eq!(brute_force_tuples(&g, &q, false), [[0, 1, 3], [0, 2, 3]]);
    }

    #[test]
    fn reachability_is_nonreflexive_without_cycles() {
        let g = diamond();
        let mut q = PatternQuery::new(vec![0, 2]);
        q.add_edge(0, 1, EdgeKind::Reachability);
        assert_eq!(brute_force_count(&g, &q, false), 1); // only 0 => 3

        // homomorphic square over the two B-nodes
        let mut q = PatternQuery::new(vec![1, 1]);
        q.add_edge(0, 1, EdgeKind::Reachability);
        assert_eq!(brute_force_count(&g, &q, false), 0, "no B reaches a B");
    }

    #[test]
    fn injectivity_prunes_repeats() {
        let mut b = GraphBuilder::new();
        b.add_node(0);
        b.add_node(0);
        b.add_edge(0, 1);
        b.add_edge(1, 0); // 2-cycle, single label
        let g = b.build();
        let mut q = PatternQuery::new(vec![0, 0]);
        q.add_edge(0, 1, EdgeKind::Reachability);
        // homomorphic: every ordered pair incl. self-pairs through the cycle
        assert_eq!(brute_force_count(&g, &q, false), 4);
        assert_eq!(brute_force_count(&g, &q, true), 2);
    }
}
