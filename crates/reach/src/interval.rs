//! DFS interval labels on the condensation DAG (§4.5 of the paper).
//!
//! Every DAG node gets `(begin, end)` from one depth-first traversal:
//! `begin` is the discovery time, `end` the largest discovery time in the
//! node's DFS subtree. Two facts drive the pruning:
//!
//! * **negative cut**: if `u.end < v.begin` then `u` cannot reach `v`
//!   (nodes discovered after `u`'s subtree closes are unreachable from `u`);
//! * **positive hit**: if `u.begin < v.begin ≤ u.end` then `v` is a DFS-tree
//!   descendant of `u` and hence reachable through tree edges.
//!
//! BFL's probes use both to answer most pairs without a DFS. The paper
//! also orders RIG expansion's candidates by `begin` to stop early (§4.5);
//! expansion here sweeps the condensation instead
//! ([`Condensation::reach_runs`]), so it needs no order.

use crate::scc::Condensation;

/// Interval labels for the components of a [`Condensation`].
pub struct IntervalLabels {
    /// `begin[c]`, `end[c]` for component `c`.
    pub begin: Vec<u32>,
    pub end: Vec<u32>,
}

impl IntervalLabels {
    /// Runs one DFS over the condensation DAG (roots = in-degree-0
    /// components, in topological order for determinism).
    pub fn new(cond: &Condensation) -> Self {
        let n = cond.count;
        let mut begin = vec![u32::MAX; n];
        let mut end = vec![0u32; n];
        let mut clock = 0u32;
        let mut stack: Vec<(u32, usize)> = Vec::new();
        // Visit roots in topo order so every component is covered.
        for &root in &cond.topo {
            if begin[root as usize] != u32::MAX {
                continue;
            }
            begin[root as usize] = clock;
            end[root as usize] = clock;
            clock += 1;
            stack.push((root, 0));
            while let Some(&mut (c, ref mut ci)) = stack.last_mut() {
                let children = &cond.dag_fwd[c as usize];
                if *ci < children.len() {
                    let d = children[*ci];
                    *ci += 1;
                    if begin[d as usize] == u32::MAX {
                        begin[d as usize] = clock;
                        end[d as usize] = clock;
                        clock += 1;
                        stack.push((d, 0));
                    }
                } else {
                    stack.pop();
                    if let Some(&(p, _)) = stack.last() {
                        let e = end[c as usize];
                        if e > end[p as usize] {
                            end[p as usize] = e;
                        }
                    }
                }
            }
        }
        IntervalLabels { begin, end }
    }

    /// These labels grown by `added` components with no DAG edges,
    /// numbered after the existing ones. The DFS clock ends at the
    /// component count, so component `c` of the new ones gets the next
    /// clock value, `begin = end = c`: later than every existing interval,
    /// so nothing reaches it and it reaches nothing.
    pub fn with_singletons(&self, added: usize) -> IntervalLabels {
        let first = self.begin.len() as u32;
        let new = first..first + added as u32;
        let mut begin = Vec::with_capacity(self.begin.len() + added);
        begin.extend_from_slice(&self.begin);
        begin.extend(new.clone());
        let mut end = Vec::with_capacity(self.end.len() + added);
        end.extend_from_slice(&self.end);
        end.extend(new);
        IntervalLabels { begin, end }
    }

    /// Negative cut at the component level.
    #[inline]
    pub fn cannot_reach(&self, cu: u32, cv: u32) -> bool {
        self.end[cu as usize] < self.begin[cv as usize]
    }

    /// Positive hit: `cv` is a DFS-tree descendant of `cu`.
    #[inline]
    pub fn tree_descendant(&self, cu: u32, cv: u32) -> bool {
        self.begin[cu as usize] < self.begin[cv as usize]
            && self.begin[cv as usize] <= self.end[cu as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{naive_reaches, random_graph};
    use rig_graph::GraphBuilder;

    fn labels(edges: &[(u32, u32)], n: u32) -> (Condensation, IntervalLabels) {
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_node(0);
        }
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        let g = b.build();
        let c = Condensation::new(&g);
        let l = IntervalLabels::new(&c);
        (c, l)
    }

    #[test]
    fn chain_intervals_nest() {
        let (c, l) = labels(&[(0, 1), (1, 2)], 3);
        let (c0, c1, c2) = (c.component(0), c.component(1), c.component(2));
        assert!(l.tree_descendant(c0, c1));
        assert!(l.tree_descendant(c0, c2));
        assert!(l.tree_descendant(c1, c2));
        assert!(!l.tree_descendant(c2, c0));
        assert!(l.cannot_reach(c2, c0) || l.begin[c0 as usize] < l.begin[c2 as usize]);
    }

    #[test]
    fn negative_cut_is_sound_on_random_graphs() {
        for seed in 0..5u64 {
            let g = random_graph(60, 120, seed);
            let c = Condensation::new(&g);
            let l = IntervalLabels::new(&c);
            for u in 0..60u32 {
                for v in 0..60u32 {
                    let cu = c.component(u);
                    let cv = c.component(v);
                    if cu != cv && l.cannot_reach(cu, cv) {
                        assert!(
                            !naive_reaches(&g, u, v),
                            "seed={seed} u={u} v={v}: negative cut unsound"
                        );
                    }
                    if l.tree_descendant(cu, cv) {
                        assert!(
                            naive_reaches(&g, u, v),
                            "seed={seed} u={u} v={v}: positive hit unsound"
                        );
                    }
                }
            }
        }
    }
}
