//! Tarjan SCC condensation (iterative, no recursion, one pass over the
//! edges).
//!
//! All reachability indexes work on the condensation DAG: two nodes in the
//! same SCC reach each other (with a non-empty path iff the SCC has an edge,
//! i.e. size > 1 or a self-loop).
//!
//! [`Condensation::new`] reads each node's out-row once, as one slice,
//! during the DFS itself. An edge `v -> w` is a DAG edge exactly when
//! `w`'s component has closed once the DFS is done with the edge: at once
//! for an edge to a visited node, on return for a tree edge. Every other
//! edge stays inside `v`'s component. The DAG edges are stacked as the DFS
//! meets them, so when a component closes, its own edges are the top of
//! the stack: they become its DAG row (components close in id order), and
//! no second pass over the edges is needed.

use rig_graph::{GraphView, NodeId};

/// Unassigned component, or undiscovered node.
const NONE: u32 = u32::MAX;

/// The SCC condensation of a data graph.
#[derive(Clone)]
pub struct Condensation {
    /// `comp[v]` = component id of node `v`; component ids are dense.
    pub comp: Vec<u32>,
    /// Number of components.
    pub count: usize,
    /// Condensation DAG forward adjacency (sorted, deduplicated).
    pub(crate) dag_fwd: DagAdjacency,
    /// Condensation DAG backward adjacency (sorted, deduplicated).
    pub(crate) dag_bwd: DagAdjacency,
    /// Component ids in topological order (sources first).
    pub topo: Vec<u32>,
    /// `nontrivial[c]` = true iff component `c` contains a cycle
    /// (size > 1, or a single node with a self-loop).
    pub nontrivial: Vec<bool>,
}

/// One DFS frame: a node and the part of its out-row not scanned yet.
struct Frame<'a> {
    v: NodeId,
    row: std::slice::Iter<'a, NodeId>,
    /// Tarjan stack height when `v` was discovered: if `v` roots a
    /// component, its members are the stack above this mark.
    members: usize,
    /// DAG-edge stack height when `v` was discovered: if `v` roots a
    /// component, its DAG edges are the stack above this mark.
    edges: usize,
    self_loop: bool,
}

impl Condensation {
    /// Computes the condensation of `g`, a base graph or a snapshot.
    pub fn new<'a>(g: impl Into<GraphView<'a>>) -> Self {
        let g = g.into();
        let n = g.num_nodes();
        // a node is on the Tarjan stack iff it is discovered and `comp`
        // is still NONE
        let mut comp = vec![NONE; n];
        let mut index = vec![NONE; n]; // discovery index
        let mut lowlink = vec![0u32; n];
        let mut stack: Vec<NodeId> = Vec::new();
        // target components of the DAG edges of nodes still on the stack
        let mut pending: Vec<u32> = Vec::new();
        let mut fwd_offsets = vec![0usize];
        let mut fwd_targets: Vec<u32> = Vec::new();
        let mut nontrivial: Vec<bool> = Vec::new();
        let mut next_index = 0u32;
        let mut call: Vec<Frame> = Vec::new();
        for root in 0..n as NodeId {
            if index[root as usize] != NONE {
                continue;
            }
            let mut found = Some(root);
            loop {
                if let Some(v) = found.take() {
                    index[v as usize] = next_index;
                    lowlink[v as usize] = next_index;
                    next_index += 1;
                    call.push(Frame {
                        v,
                        row: g.out_neighbors(v).iter(),
                        members: stack.len(),
                        edges: pending.len(),
                        self_loop: false,
                    });
                    stack.push(v);
                }
                let Some(frame) = call.last_mut() else { break };
                let v = frame.v;
                if let Some(&w) = frame.row.next() {
                    if index[w as usize] == NONE {
                        found = Some(w);
                    } else if comp[w as usize] == NONE {
                        // on the stack: same component as `v`
                        lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                        frame.self_loop |= w == v;
                    } else {
                        pending.push(comp[w as usize]);
                    }
                    continue;
                }
                let (first_member, first_edge, self_loop) =
                    (frame.members, frame.edges, frame.self_loop);
                call.pop();
                if lowlink[v as usize] == index[v as usize] {
                    let c = nontrivial.len() as u32;
                    let members = &stack[first_member..];
                    for &w in members {
                        comp[w as usize] = c;
                    }
                    nontrivial.push(members.len() > 1 || self_loop);
                    stack.truncate(first_member);
                    let row = &mut pending[first_edge..];
                    row.sort_unstable();
                    let mut last = NONE;
                    for &d in row.iter() {
                        if d != last {
                            fwd_targets.push(d);
                            last = d;
                        }
                    }
                    fwd_offsets.push(fwd_targets.len());
                    pending.truncate(first_edge);
                }
                if let Some(parent) = call.last() {
                    let p = parent.v as usize;
                    if comp[v as usize] == NONE {
                        lowlink[p] = lowlink[p].min(lowlink[v as usize]);
                    } else {
                        pending.push(comp[v as usize]);
                    }
                }
            }
        }

        let count = nontrivial.len();
        let dag_fwd = DagAdjacency { offsets: fwd_offsets, targets: fwd_targets };
        let dag_bwd = dag_fwd.transpose();

        // Kahn topological order on the condensation.
        let mut indeg: Vec<u32> = (0..count).map(|c| dag_bwd[c].len() as u32).collect();
        let mut topo = Vec::with_capacity(count);
        let mut queue: Vec<u32> = (0..count as u32).filter(|&c| indeg[c as usize] == 0).collect();
        while let Some(c) = queue.pop() {
            topo.push(c);
            for &d in &dag_fwd[c as usize] {
                indeg[d as usize] -= 1;
                if indeg[d as usize] == 0 {
                    queue.push(d);
                }
            }
        }
        debug_assert_eq!(topo.len(), count, "condensation must be acyclic");

        Condensation { comp, count, dag_fwd, dag_bwd, topo, nontrivial }
    }

    /// This condensation grown by `added` nodes, numbered after the
    /// existing ones, each a trivial singleton component with no DAG
    /// edges. Component ids, the DAG and the topological order of the
    /// existing nodes are kept.
    pub fn with_singletons(&self, added: usize) -> Condensation {
        let first = self.count as u32;
        let new = first..first + added as u32;
        let mut comp = Vec::with_capacity(self.comp.len() + added);
        comp.extend_from_slice(&self.comp);
        comp.extend(new.clone());
        let count = self.count + added;
        let dag_fwd = self.dag_fwd.with_empty_rows(added);
        let dag_bwd = self.dag_bwd.with_empty_rows(added);
        let mut topo = Vec::with_capacity(count);
        topo.extend_from_slice(&self.topo);
        topo.extend(new);
        let mut nontrivial = self.nontrivial.clone();
        nontrivial.resize(count, false);
        Condensation { comp, count, dag_fwd, dag_bwd, topo, nontrivial }
    }

    /// Component of node `v`.
    #[inline]
    pub fn component(&self, v: NodeId) -> u32 {
        self.comp[v as usize]
    }
}

/// One direction of the condensation DAG in CSR form: the neighbours of
/// component `c` are `dag[c as usize]`, sorted and deduplicated.
#[derive(Clone)]
pub(crate) struct DagAdjacency {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl DagAdjacency {
    /// The reverse adjacency. Rows are filled in ascending source order,
    /// so each comes out sorted, and deduplicated because this one is.
    fn transpose(&self) -> Self {
        let count = self.offsets.len() - 1;
        let mut offsets = vec![0usize; count + 1];
        for &d in &self.targets {
            offsets[d as usize + 1] += 1;
        }
        for c in 0..count {
            offsets[c + 1] += offsets[c];
        }
        let mut cursor = offsets[..count].to_vec();
        let mut targets = vec![0u32; self.targets.len()];
        for c in 0..count {
            for &d in &self[c] {
                targets[cursor[d as usize]] = c as u32;
                cursor[d as usize] += 1;
            }
        }
        DagAdjacency { offsets, targets }
    }

    /// This adjacency with `added` empty rows appended.
    fn with_empty_rows(&self, added: usize) -> Self {
        let mut offsets = Vec::with_capacity(self.offsets.len() + added);
        offsets.extend_from_slice(&self.offsets);
        offsets.resize(self.offsets.len() + added, self.targets.len());
        DagAdjacency { offsets, targets: self.targets.clone() }
    }
}

impl std::ops::Index<usize> for DagAdjacency {
    type Output = [u32];

    #[inline]
    fn index(&self, c: usize) -> &[u32] {
        &self.targets[self.offsets[c]..self.offsets[c + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rig_graph::GraphBuilder;

    fn graph(edges: &[(u32, u32)], n: u32) -> rig_graph::DataGraph {
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_node(0);
        }
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// The two-pass Tarjan this module used before the one-pass kernel:
    /// a DFS that re-reads `out_neighbors(v)` for every edge it scans and
    /// keeps an `on_stack` array, then a second pass over every edge for
    /// the DAG edges and self-loops. Kept as the oracle of
    /// [`Condensation::new`].
    fn two_pass<'a>(g: impl Into<GraphView<'a>>) -> Condensation {
        let g = g.into();
        let n = g.num_nodes();
        let mut comp = vec![u32::MAX; n];
        let mut index = vec![u32::MAX; n];
        let mut lowlink = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<NodeId> = Vec::new();
        let mut next_index = 0u32;
        let mut comp_count = 0u32;
        let mut call: Vec<(NodeId, usize)> = Vec::new();
        for root in 0..n as NodeId {
            if index[root as usize] != u32::MAX {
                continue;
            }
            call.push((root, 0));
            index[root as usize] = next_index;
            lowlink[root as usize] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root as usize] = true;
            while let Some(&mut (v, ref mut ci)) = call.last_mut() {
                let out = g.out_neighbors(v);
                if *ci < out.len() {
                    let w = out[*ci];
                    *ci += 1;
                    if index[w as usize] == u32::MAX {
                        index[w as usize] = next_index;
                        lowlink[w as usize] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w as usize] = true;
                        call.push((w, 0));
                    } else if on_stack[w as usize] {
                        lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                    }
                } else {
                    call.pop();
                    if let Some(&mut (p, _)) = call.last_mut() {
                        lowlink[p as usize] = lowlink[p as usize].min(lowlink[v as usize]);
                    }
                    if lowlink[v as usize] == index[v as usize] {
                        while let Some(w) = stack.pop() {
                            on_stack[w as usize] = false;
                            comp[w as usize] = comp_count;
                            if w == v {
                                break;
                            }
                        }
                        comp_count += 1;
                    }
                }
            }
        }
        let count = comp_count as usize;
        let mut comp_size = vec![0u32; count];
        for &c in &comp {
            comp_size[c as usize] += 1;
        }
        let mut nontrivial: Vec<bool> = comp_size.iter().map(|&s| s > 1).collect();
        let mut dag_edges: Vec<(u32, u32)> = Vec::new();
        for u in 0..n as NodeId {
            for &v in g.out_neighbors(u) {
                let (cu, cv) = (comp[u as usize], comp[v as usize]);
                if cu != cv {
                    dag_edges.push((cu, cv));
                } else if u == v {
                    nontrivial[cu as usize] = true;
                }
            }
        }
        let dag_fwd = from_edges(count, dag_edges.iter().copied());
        let dag_bwd = from_edges(count, dag_edges.iter().map(|&(u, v)| (v, u)));
        let mut indeg: Vec<u32> = (0..count).map(|c| dag_bwd[c].len() as u32).collect();
        let mut topo = Vec::with_capacity(count);
        let mut queue: Vec<u32> = (0..count as u32).filter(|&c| indeg[c as usize] == 0).collect();
        while let Some(c) = queue.pop() {
            topo.push(c);
            for &d in &dag_fwd[c as usize] {
                indeg[d as usize] -= 1;
                if indeg[d as usize] == 0 {
                    queue.push(d);
                }
            }
        }
        Condensation { comp, count, dag_fwd, dag_bwd, topo, nontrivial }
    }

    /// The rows of `count` components holding the `(from, to)` edges,
    /// each row sorted and deduplicated.
    fn from_edges(count: usize, edges: impl Iterator<Item = (u32, u32)>) -> DagAdjacency {
        let mut rows = vec![Vec::new(); count];
        for (u, v) in edges {
            rows[u as usize].push(v);
        }
        let mut offsets = vec![0];
        let mut targets = Vec::new();
        for mut row in rows {
            row.sort_unstable();
            row.dedup();
            targets.extend(row);
            offsets.push(targets.len());
        }
        DagAdjacency { offsets, targets }
    }

    fn assert_same(got: &Condensation, want: &Condensation, what: &str) {
        assert_eq!(got.count, want.count, "{what}: count");
        assert_eq!(got.comp, want.comp, "{what}: comp");
        assert_eq!(got.topo, want.topo, "{what}: topo");
        assert_eq!(got.nontrivial, want.nontrivial, "{what}: nontrivial");
        for (dir, g, w) in
            [("fwd", &got.dag_fwd, &want.dag_fwd), ("bwd", &got.dag_bwd, &want.dag_bwd)]
        {
            assert_eq!(g.offsets, w.offsets, "{what}: dag_{dir} offsets");
            assert_eq!(g.targets, w.targets, "{what}: dag_{dir} rows");
        }
    }

    /// xorshift64* step, so the cases need no RNG crate.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// The three SCC regimes of the workspace's correctness matrix, on `n`
    /// nodes (a multiple of 3): a Hamiltonian cycle plus chords (one giant
    /// SCC); 3-cycles joined from earlier to later groups (small SCCs);
    /// edges from lower to higher ids only (a DAG).
    fn regimes(seed: u64, n: u32) -> [(&'static str, rig_graph::DataGraph); 3] {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut random = |keep: &dyn Fn(u32, u32) -> bool, extra: u32| {
            let mut edges = Vec::new();
            for _ in 0..extra {
                let u = (next(&mut state) % n as u64) as u32;
                let v = (next(&mut state) % n as u64) as u32;
                if keep(u, v) {
                    edges.push((u, v));
                }
            }
            edges
        };
        let mut giant: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        giant.extend(random(&|u, v| u != v, 3 * n));
        let mut small: Vec<(u32, u32)> =
            (0..n).step_by(3).flat_map(|g| [(g, g + 1), (g + 1, g + 2), (g + 2, g)]).collect();
        small.extend(random(&|u, v| u / 3 < v / 3, 6 * n));
        let dag = random(&|u, v| u < v, 10 * n);
        [("giant SCC", graph(&giant, n)), ("small SCCs", graph(&small, n)), ("DAG", graph(&dag, n))]
    }

    #[test]
    fn one_pass_kernel_equals_the_two_pass_oracle_on_the_regimes() {
        for seed in 0..6 {
            for n in [3, 30, 300] {
                for (name, g) in regimes(seed, n) {
                    let what = format!("{name}, seed {seed}, n {n}");
                    assert_same(&Condensation::new(&g), &two_pass(&g), &what);
                }
            }
        }
    }

    #[test]
    fn one_pass_kernel_equals_the_oracle_with_self_loops_and_isolated_nodes() {
        for seed in 0..6 {
            for (name, g) in regimes(seed, 60) {
                let mut state = seed + 1;
                let mut edges: Vec<(u32, u32)> =
                    (0..60).flat_map(|u| g.out_neighbors(u).iter().map(move |&v| (u, v))).collect();
                // self-loops on random nodes, trivial or inside a cycle
                edges.extend((0..8).map(|_| (next(&mut state) % 60) as u32).map(|v| (v, v)));
                // 20 more ids: isolated, or with a self-loop only
                edges.extend([(63, 63), (71, 71), (79, 79)]);
                let h = graph(&edges, 80);
                let what = format!("{name} with loops, seed {seed}");
                let c = Condensation::new(&h);
                assert_same(&c, &two_pass(&h), &what);
                assert!(c.nontrivial[c.component(63) as usize], "{what}");
                assert!(!c.nontrivial[c.component(64) as usize], "{what}");
            }
        }
        let lone = graph(&[], 5);
        assert_same(&Condensation::new(&lone), &two_pass(&lone), "isolated nodes only");
        let empty = graph(&[], 0);
        assert_same(&Condensation::new(&empty), &two_pass(&empty), "empty graph");
    }

    #[test]
    fn one_pass_kernel_on_a_dirty_snapshot_equals_its_materialization() {
        use rig_graph::{CommitImpact, DeltaOverlay, LabelSpec, MutationOp, Snapshot};
        use std::sync::Arc;
        for seed in 0..4 {
            for (name, g) in regimes(seed, 90) {
                let mut d = DeltaOverlay::new(Arc::new(g));
                let mut state = seed + 7;
                let mut impact = CommitImpact::default();
                for i in 0..150 {
                    let op = if i % 25 == 0 {
                        Some(MutationOp::AddNode(LabelSpec::Id(0)))
                    } else {
                        d.random_mutation(&mut state, 1)
                    };
                    if let Some(op) = op {
                        let _ = d.apply(&op, &mut impact);
                    }
                }
                let snap = Snapshot::new(Arc::new(d), 1);
                assert!(snap.is_dirty());
                let what = format!("dirty {name}, seed {seed}");
                let c = Condensation::new(&snap);
                assert_same(&c, &two_pass(&snap), &what);
                assert_same(&c, &Condensation::new(&snap.materialize()), &what);
            }
        }
    }

    #[test]
    fn acyclic_graph_has_singleton_components() {
        let g = graph(&[(0, 1), (1, 2), (0, 2)], 3);
        let c = Condensation::new(&g);
        assert_eq!(c.count, 3);
        assert!(c.nontrivial.iter().all(|&b| !b));
        // topo order respects edges
        let pos: Vec<usize> =
            (0..3).map(|v| c.topo.iter().position(|&x| x == c.comp[v]).unwrap()).collect();
        assert!(pos[0] < pos[1] && pos[1] < pos[2]);
    }

    #[test]
    fn cycle_collapses() {
        let g = graph(&[(0, 1), (1, 2), (2, 0), (2, 3)], 4);
        let c = Condensation::new(&g);
        assert_eq!(c.count, 2);
        assert_eq!(c.component(0), c.component(1));
        assert_eq!(c.component(1), c.component(2));
        assert_ne!(c.component(0), c.component(3));
        assert!(c.nontrivial[c.component(0) as usize]);
        assert!(!c.nontrivial[c.component(3) as usize]);
        let c0 = c.component(0) as usize;
        assert_eq!(c.dag_fwd[c0], vec![c.component(3)]);
    }

    #[test]
    fn self_loop_is_nontrivial() {
        let g = graph(&[(0, 0), (0, 1)], 2);
        let c = Condensation::new(&g);
        assert_eq!(c.count, 2);
        assert!(c.nontrivial[c.component(0) as usize]);
        assert!(!c.nontrivial[c.component(1) as usize]);
    }

    #[test]
    fn two_disjoint_cycles() {
        let g = graph(&[(0, 1), (1, 0), (2, 3), (3, 2)], 4);
        let c = Condensation::new(&g);
        assert_eq!(c.count, 2);
        assert_eq!(c.component(0), c.component(1));
        assert_eq!(c.component(2), c.component(3));
        assert_ne!(c.component(0), c.component(2));
    }

    #[test]
    fn singletons_extend_without_renumbering() {
        let g = graph(&[(0, 1), (1, 0), (1, 2)], 3);
        let c = Condensation::new(&g);
        let e = c.with_singletons(2);
        assert_eq!(e.count, c.count + 2);
        assert_eq!(&e.comp[..3], &c.comp[..]);
        assert_eq!(&e.comp[3..], &[2, 3]);
        for k in 0..2 {
            assert_eq!(&e.dag_fwd[k], &c.dag_fwd[k]);
            assert_eq!(&e.dag_bwd[k], &c.dag_bwd[k]);
        }
        assert!((2..4).all(|k| e.dag_fwd[k].is_empty() && e.dag_bwd[k].is_empty()));
        assert_eq!(&e.topo[..2], &c.topo[..]);
        assert_eq!(&e.topo[2..], &[2, 3]);
        assert_eq!(&e.nontrivial[..], &[c.nontrivial[0], c.nontrivial[1], false, false]);
    }

    #[test]
    fn deep_chain_no_stack_overflow() {
        // 200k-node chain: the iterative Tarjan must not recurse.
        let n = 200_000u32;
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = graph(&edges, n);
        let c = Condensation::new(&g);
        assert_eq!(c.count, n as usize);
    }
}
