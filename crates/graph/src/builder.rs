//! Mutable construction of [`DataGraph`]s.

use rig_bitset::Bitset;

use crate::{DataGraph, FxHashMap, Label, NodeId};

/// Accumulates nodes and edges, then freezes into an immutable CSR graph.
///
/// Edges are kept as one flat list in the order they are added.
/// Duplicate edges and self-loops are allowed on input; duplicates are
/// removed at [`GraphBuilder::build`] time (the paper's data model has
/// simple directed graphs), which sorts the list into CSR rows by
/// counting sort.
///
/// The builder also maintains the graph's **label-name dictionary**: label
/// ids can be interned from names ([`GraphBuilder::intern_label`] /
/// [`GraphBuilder::add_named_node`]), and the frozen [`DataGraph`] resolves
/// names back to ids (`DataGraph::label_id`) — the lookup HPQL queries use
/// for `(var:LabelName)` references.
#[derive(Default)]
pub struct GraphBuilder {
    labels: Vec<Label>,
    label_names: Vec<String>,
    name_to_label: FxHashMap<String, Label>,
    next_label: Label,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes internal vectors.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        GraphBuilder {
            labels: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            ..Default::default()
        }
    }

    /// Adds a node with the given label; returns its id.
    pub fn add_node(&mut self, label: Label) -> NodeId {
        let id = self.labels.len() as NodeId;
        self.labels.push(label);
        self.next_label = self.next_label.max(label + 1);
        id
    }

    /// Interns `name` in the label dictionary: returns its existing label
    /// id, or assigns the next free one. Assigned ids come after every
    /// numerically-added label seen so far, so named and numeric labels can
    /// mix without colliding.
    pub fn intern_label(&mut self, name: &str) -> Label {
        if let Some(&l) = self.name_to_label.get(name) {
            return l;
        }
        let l = self.next_label;
        self.next_label += 1;
        self.set_label_name(l, name);
        l
    }

    /// Adds a node labeled by *name* (interned on first use); returns its
    /// node id.
    pub fn add_named_node(&mut self, label_name: &str) -> NodeId {
        let l = self.intern_label(label_name);
        self.add_node(l)
    }

    /// Records `name` for label id `label` (first writer wins; later
    /// different names for the same id are ignored).
    pub fn set_label_name(&mut self, label: Label, name: &str) {
        // a named label claims its id even with no nodes yet, so
        // intern_label never hands the same id to a different name
        self.next_label = self.next_label.max(label + 1);
        let idx = label as usize;
        if self.label_names.len() <= idx {
            self.label_names.resize(idx + 1, String::new());
        }
        if self.label_names[idx].is_empty() && !name.is_empty() {
            self.label_names[idx] = name.to_string();
            self.name_to_label.entry(name.to_string()).or_insert(label);
        }
    }

    /// Adds a node and records a human-readable name for its label.
    pub fn add_node_with_name(&mut self, label: Label, name: &str) -> NodeId {
        let id = self.add_node(label);
        self.set_label_name(label, name);
        id
    }

    /// Adds `count` nodes all labeled `label`; returns the first new id.
    pub fn add_nodes(&mut self, label: Label, count: usize) -> NodeId {
        let first = self.labels.len() as NodeId;
        for _ in 0..count {
            self.add_node(label);
        }
        first
    }

    /// Adds a directed edge `u -> v`. Both endpoints must already exist.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        debug_assert!((u as usize) < self.labels.len(), "unknown source {u}");
        debug_assert!((v as usize) < self.labels.len(), "unknown target {v}");
        self.edges.push((u, v));
    }

    /// Adds every edge of `edges`, taking the list over when the builder
    /// holds none yet (so a caller's list is not copied). Every endpoint
    /// must already exist.
    pub(crate) fn add_edges(&mut self, edges: Vec<(NodeId, NodeId)>) {
        if self.edges.is_empty() {
            self.edges = edges;
        } else {
            self.edges.extend_from_slice(&edges);
        }
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Freezes into an immutable [`DataGraph`]: sorts the edges into
    /// CSR rows and drops duplicates.
    pub fn build(self) -> DataGraph {
        let (offsets, targets) = csr_rows(self.labels.len(), self.edges);
        DataGraph::from_csr(self.labels, offsets, targets, self.label_names, Bitset::new())
    }
}

/// The forward CSR of `edges` over `n` rows, each row sorted and without
/// duplicates. Counting sort: count each row's edges, prefix-sum the
/// counts into row ends, and scatter each target to the end of its row,
/// moving that end down; the ends are then the row starts. Each row is
/// then sorted, and the deduplicated rows are compacted to the front.
/// Edges already in CSR order (strictly increasing pairs, as
/// [`crate::to_text`] writes them) need neither scatter nor sort.
fn csr_rows(n: usize, edges: Vec<(NodeId, NodeId)>) -> (Vec<u64>, Vec<NodeId>) {
    let mut offsets = vec![0u64; n + 1];
    for &(u, _) in &edges {
        offsets[u as usize] += 1;
    }
    let mut end = 0;
    for o in &mut offsets[..n] {
        end += *o;
        *o = end;
    }
    offsets[n] = end;
    if edges.windows(2).all(|w| w[0] < w[1]) {
        offsets.copy_within(..n, 1);
        offsets[0] = 0;
        return (offsets, edges.iter().map(|&(_, v)| v).collect());
    }
    let mut targets = vec![0 as NodeId; edges.len()];
    for &(u, v) in &edges {
        let at = &mut offsets[u as usize];
        *at -= 1;
        targets[*at as usize] = v;
    }
    drop(edges);
    let mut kept = 0;
    for u in 0..n {
        let (start, end) = (offsets[u] as usize, offsets[u + 1] as usize);
        targets[start..end].sort_unstable();
        offsets[u] = kept as u64;
        for i in start..end {
            if i == start || targets[i] != targets[i - 1] {
                targets[kept] = targets[i];
                kept += 1;
            }
        }
    }
    offsets[n] = kept as u64;
    targets.truncate(kept);
    (offsets, targets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_sort() {
        let mut b = GraphBuilder::new();
        let x = b.add_node(0);
        let y = b.add_node(1);
        let z = b.add_node(1);
        b.add_edge(x, z);
        b.add_edge(x, y);
        b.add_edge(x, y); // duplicate
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_neighbors(x), &[y, z]);
    }

    #[test]
    fn add_nodes_bulk() {
        let mut b = GraphBuilder::new();
        let first = b.add_nodes(3, 5);
        assert_eq!(first, 0);
        assert_eq!(b.node_count(), 5);
        let g = b.build();
        assert_eq!(g.num_labels(), 4); // labels 0..=3 exist as id space
        assert_eq!(g.nodes_with_label(3).len(), 5);
        assert_eq!(g.nodes_with_label(0).len(), 0);
    }

    #[test]
    fn label_interning() {
        let mut b = GraphBuilder::new();
        let x = b.add_named_node("Author");
        let y = b.add_named_node("Paper");
        let z = b.add_named_node("Author");
        b.add_edge(x, y);
        b.add_edge(y, z);
        let g = b.build();
        assert_eq!(g.label(x), g.label(z));
        assert_ne!(g.label(x), g.label(y));
        assert_eq!(g.label_id("Author"), Some(g.label(x)));
        assert_eq!(g.label_id("Paper"), Some(g.label(y)));
        assert_eq!(g.label_id("Ghost"), None);
        assert_eq!(g.label_name(g.label(y)), "Paper");
        assert!(g.has_label_names());
    }

    #[test]
    fn named_label_without_nodes_survives_and_claims_its_id() {
        // the dictionary entry must survive build() even with no nodes
        let mut b = GraphBuilder::new();
        b.set_label_name(2, "Retracted");
        b.add_node(0);
        b.add_node(1);
        let g = b.build();
        assert_eq!(g.num_labels(), 3);
        assert_eq!(g.label_id("Retracted"), Some(2));
        assert!(g.nodes_with_label(2).is_empty());
        // and a named-but-empty id is never re-handed to a different name
        let mut b = GraphBuilder::new();
        b.set_label_name(0, "X");
        let y = b.add_named_node("Y");
        let y2 = b.add_named_node("Y");
        let g = b.build();
        assert_eq!(g.label(y), 1, "id 0 belongs to X");
        assert_eq!(g.label(y), g.label(y2));
        assert_eq!(g.label_id("X"), Some(0));
        assert_eq!(g.label_id("Y"), Some(1));
    }

    #[test]
    fn named_and_numeric_labels_mix() {
        let mut b = GraphBuilder::new();
        b.add_node(5); // numeric labels reserve 0..=5
        let named = b.add_named_node("Extra");
        let g = b.build();
        assert_eq!(g.label(named), 6, "interned name must not collide with numeric labels");
        assert_eq!(g.label_id("Extra"), Some(6));
        // first name recorded for an id wins
        let mut b = GraphBuilder::new();
        b.add_node_with_name(0, "First");
        b.add_node_with_name(0, "Second");
        let g = b.build();
        assert_eq!(g.label_name(0), "First");
        assert_eq!(g.label_id("Second"), None);
    }

    #[test]
    fn counting_sort_equals_sorting_each_row() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for _ in 0..200 {
            let n = next(40) as usize;
            let m = if n == 0 { 0 } else { next(5 * n as u64) as usize };
            // self-loops, duplicates and any order; high ids leave the
            // last rows empty
            let edges: Vec<(NodeId, NodeId)> =
                (0..m).map(|_| (next(n as u64) as NodeId, next(n as u64) as NodeId)).collect();
            let mut rows = vec![std::collections::BTreeSet::new(); n];
            for &(u, v) in &edges {
                rows[u as usize].insert(v);
            }
            let mut want = (vec![0u64], Vec::new());
            for row in &rows {
                want.1.extend(row.iter().copied());
                want.0.push(want.1.len() as u64);
            }
            assert_eq!(csr_rows(n, edges.clone()), want, "{edges:?}");
            // the same list sorted and deduplicated takes the no-scatter path
            let mut sorted = edges;
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(csr_rows(n, sorted), want);
        }
    }

    #[test]
    fn self_loop_kept() {
        let mut b = GraphBuilder::new();
        let x = b.add_node(0);
        b.add_edge(x, x);
        let g = b.build();
        assert!(g.has_edge(x, x));
    }
}
