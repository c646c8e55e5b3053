//! Tarjan SCC condensation (iterative, no recursion).
//!
//! All reachability indexes work on the condensation DAG: two nodes in the
//! same SCC reach each other (with a non-empty path iff the SCC has an edge,
//! i.e. size > 1 or a self-loop).

use rig_graph::{GraphView, NodeId};

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

impl Condensation {
    /// Computes the condensation of `g`, a base graph or a snapshot.
    pub fn new<'a>(g: impl Into<GraphView<'a>>) -> Self {
        let g = g.into();
        let n = g.num_nodes();
        let mut comp = vec![u32::MAX; n];
        let mut index = vec![u32::MAX; n]; // discovery index
        let mut lowlink = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<NodeId> = Vec::new();
        let mut next_index = 0u32;
        let mut comp_count = 0u32;

        // Explicit DFS state: (node, next-child-position).
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
        let edges = (0..n as NodeId).flat_map(|u| g.out_neighbors(u).iter().map(move |&v| (u, v)));
        for (u, v) in edges {
            let cu = comp[u as usize];
            let cv = comp[v as usize];
            if cu == cv {
                // self-loop or intra-SCC edge: single-node SCCs with a
                // self-loop are cyclic.
                if u == v {
                    nontrivial[cu as usize] = true;
                }
            } else {
                dag_edges.push((cu, cv));
            }
        }
        let dag_fwd = DagAdjacency::from_edges(count, dag_edges.iter().copied());
        let dag_bwd = DagAdjacency::from_edges(count, dag_edges.iter().map(|&(u, v)| (v, u)));

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
    /// The rows of `count` components holding the `(from, to)` edges,
    /// each row sorted and deduplicated.
    fn from_edges(count: usize, edges: impl Iterator<Item = (u32, u32)> + Clone) -> Self {
        let mut offsets = vec![0usize; count + 1];
        for (u, _) in edges.clone() {
            offsets[u as usize + 1] += 1;
        }
        for c in 0..count {
            offsets[c + 1] += offsets[c];
        }
        let mut cursor = offsets[..count].to_vec();
        let mut targets = vec![0u32; offsets[count]];
        for (u, v) in edges {
            targets[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
        }
        // sort each row, then compact away the duplicates in place
        let mut kept = 0;
        for c in 0..count {
            let (lo, hi) = (offsets[c], offsets[c + 1]);
            targets[lo..hi].sort_unstable();
            let row_start = kept;
            for i in lo..hi {
                if kept == row_start || targets[kept - 1] != targets[i] {
                    targets[kept] = targets[i];
                    kept += 1;
                }
            }
            offsets[c] = row_start;
        }
        offsets[count] = kept;
        targets.truncate(kept);
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
