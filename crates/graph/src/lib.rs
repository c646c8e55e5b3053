//! Directed, node-labeled data graphs (§2 of the paper).
//!
//! The data graph is stored in compressed sparse row (CSR) form in both
//! directions, with sorted neighbor slices so that `has_edge` is a binary
//! search and adjacency slices convert to [`rig_bitset::Bitset`] without a
//! sort. Per-label *inverted lists* (`I_a` in the paper) are precomputed at
//! build time, both as sorted vectors and as bitmaps, because every stage of
//! the pipeline (match sets, simulation, RIG construction) starts from them.

mod builder;
mod deadline;
pub mod delta;
mod hash;
mod io;
mod segment;
mod stats;
mod view;

pub use builder::GraphBuilder;
pub use deadline::Deadline;
pub use delta::{
    parse_mutations, CommitImpact, DeltaOverlay, LabelSpec, MutationOp, MutationStream, Snapshot,
};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use io::{parse_text, push_decimal, to_text, ParseError};
pub use segment::{crc32, decode_segment, encode_segment, SegmentError, SEGMENT_MAGIC};
pub use stats::{GraphStats, LabelPairCounts};
pub use view::GraphView;

use std::sync::Arc;

use rig_bitset::Bitset;

/// Node identifier: dense index into the graph's node arrays.
pub type NodeId = u32;

/// Node label identifier: dense index into the graph's label table.
pub type Label = u32;

/// An immutable directed node-labeled data graph.
///
/// Construct via [`GraphBuilder`] or [`parse_text`]. Node ids are dense
/// `0..num_nodes`; labels are dense `0..num_labels`.
///
/// Each large part sits behind an `Arc`: the CSR of each direction, the
/// node labels, each label's inverted list with its bitmap, the label
/// dictionary and the tombstones. A clone shares them all, and a
/// compaction ([`DeltaOverlay::materialize`]) shares every part its delta
/// left alone, so adding a few nodes copies no adjacency.
///
/// ```
/// use rig_graph::GraphBuilder;
/// let mut b = GraphBuilder::new();
/// let x = b.add_node(0);
/// let y = b.add_node(1);
/// b.add_edge(x, y);
/// let g = b.build();
/// assert!(g.has_edge(x, y));
/// assert_eq!(g.out_neighbors(x), &[y]);
/// assert_eq!(g.nodes_with_label(1), &[y]);
/// ```
#[derive(Clone)]
pub struct DataGraph {
    /// `labels[v]` is the label of node `v`; its length is `|V|`.
    labels: Arc<Vec<Label>>,
    /// Forward adjacency (`adjf`).
    fwd: Arc<Csr>,
    /// Backward adjacency (`adjb`).
    bwd: Arc<Csr>,
    /// `inverted[l]`: the nodes labeled `l`, as a sorted list and a bitmap.
    inverted: Vec<Arc<Members>>,
    /// Label names and their reverse dictionary.
    names: Arc<Names>,
    /// Tombstoned node ids: slots that keep their label but are excluded
    /// from every inverted list and carry no edges. Produced by delta
    /// compaction ([`delta::DeltaOverlay::materialize`]) so node ids stay
    /// stable across node removals; empty for ordinary graphs.
    dead: Arc<Bitset>,
}

/// One direction of the adjacency in CSR form: row `v` is
/// `targets[offsets[v]..offsets[v + 1]]`, sorted and without duplicates.
/// Rows past the last stored one are empty, so a graph that only gained
/// nodes can keep its base's CSR.
struct Csr {
    offsets: Vec<u64>,
    targets: Vec<NodeId>,
}

impl Csr {
    #[inline]
    fn row(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        match self.offsets.get(v + 1) {
            Some(&hi) => &self.targets[self.offsets[v] as usize..hi as usize],
            None => &[],
        }
    }
}

/// The live nodes of one label: the inverted list `I_l` (sorted) and the
/// same set as a bitmap.
#[derive(Default)]
struct Members {
    list: Vec<NodeId>,
    bits: Bitset,
}

impl Members {
    /// These members without `lost` and with `gained` appended; every
    /// gained id must be larger than every member's, so the list stays
    /// sorted.
    fn changed(&self, gained: &[NodeId], lost: &[NodeId]) -> Members {
        let mut bits = self.bits.clone();
        let mut list = Vec::with_capacity(self.list.len() + gained.len());
        if lost.is_empty() {
            list.extend_from_slice(&self.list);
        } else {
            for &v in lost {
                bits.remove(v);
            }
            list.extend(self.list.iter().filter(|&&v| bits.contains(v)));
        }
        list.extend_from_slice(gained);
        for &v in gained {
            bits.insert(v);
        }
        Members { list, bits }
    }
}

/// The label dictionary: a name per label id (empty = unnamed) and the
/// reverse map, in which the first id carrying a name wins.
struct Names {
    names: Vec<String>,
    ids: FxHashMap<String, Label>,
}

impl Names {
    fn new(names: Vec<String>) -> Names {
        let mut ids = FxHashMap::default();
        for (l, name) in names.iter().enumerate() {
            if !name.is_empty() {
                ids.entry(name.clone()).or_insert(l as Label);
            }
        }
        Names { names, ids }
    }
}

impl DataGraph {
    /// Number of nodes `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.fwd.targets.len()
    }

    /// Number of distinct labels `|L|`.
    #[inline]
    pub fn num_labels(&self) -> usize {
        self.inverted.len()
    }

    /// True iff `v` is not tombstoned. Ordinary (builder/parser-produced)
    /// graphs have no tombstones, so this is `true` for every node.
    #[inline]
    pub fn is_live(&self, v: NodeId) -> bool {
        self.dead.is_empty() || !self.dead.contains(v)
    }

    /// Number of live nodes (`num_nodes` minus tombstones).
    pub fn num_live_nodes(&self) -> usize {
        self.num_nodes() - self.dead.len() as usize
    }

    /// The tombstoned node ids.
    pub fn tombstones(&self) -> &Bitset {
        &self.dead
    }

    /// Average out-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes() as f64
        }
    }

    /// Label of node `v`.
    #[inline]
    pub fn label(&self, v: NodeId) -> Label {
        self.labels[v as usize]
    }

    /// All node labels, indexed by node id.
    #[inline]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Human-readable name of `label`, if one was supplied at build time.
    pub fn label_name(&self, label: Label) -> &str {
        self.names.names.get(label as usize).map_or("", String::as_str)
    }

    /// All label names, indexed by label id (empty string = unnamed).
    pub fn label_names(&self) -> &[String] {
        &self.names.names
    }

    /// Resolves a label name back to its id through the label-name
    /// dictionary (O(1) hash lookup).
    pub fn label_id(&self, name: &str) -> Option<Label> {
        self.names.ids.get(name).copied()
    }

    /// True iff any label carries a name (i.e. the graph was built with a
    /// label dictionary).
    pub fn has_label_names(&self) -> bool {
        !self.names.ids.is_empty()
    }

    /// Sorted out-neighbors of `v` (the forward adjacency list `adjf`).
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.fwd.row(v)
    }

    /// Sorted in-neighbors of `v` (the backward adjacency list `adjb`).
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.bwd.row(v)
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_neighbors(v).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_neighbors(v).len()
    }

    /// True iff the edge `(u, v)` exists (binary search on CSR slice).
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Sorted inverted list `I_label`: all nodes labeled `label`.
    #[inline]
    pub fn nodes_with_label(&self, label: Label) -> &[NodeId] {
        self.inverted.get(label as usize).map_or(&[], |m| &m.list)
    }

    /// The inverted list of `label` as a bitmap (the match set `ms(q)` of a
    /// query node labeled `label`).
    pub fn label_bitset(&self, label: Label) -> &Bitset {
        &self.inverted[label as usize].bits
    }

    /// Iterator over all edges `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.num_nodes() as NodeId)
            .flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Returns a copy of the graph with labels reassigned by `f`. Used by
    /// the Fig. 10 / Fig. 18 varying-label experiments.
    pub fn relabel(&self, f: impl Fn(NodeId, Label) -> Label) -> DataGraph {
        let mut b = GraphBuilder::new();
        for v in 0..self.num_nodes() as NodeId {
            b.add_node(f(v, self.label(v)));
        }
        for (u, v) in self.edges() {
            b.add_edge(u, v);
        }
        b.build().with_tombstones(Bitset::clone(&self.dead))
    }

    /// Summary statistics.
    pub fn stats(&self) -> GraphStats {
        GraphStats::of(self)
    }

    /// The one constructor: a forward CSR whose rows are strictly sorted,
    /// the node labels, the label-name dictionary and the tombstones.
    /// Derives the backward CSR (a counting-sort transpose), the inverted
    /// lists and their bitmaps. Dead slots keep their label (so the label
    /// space is stable) but are excluded from the inverted lists, and must
    /// carry no edges.
    pub(crate) fn from_csr(
        labels: Vec<Label>,
        fwd_offsets: Vec<u64>,
        fwd_targets: Vec<NodeId>,
        label_names: Vec<String>,
        dead: Bitset,
    ) -> Self {
        let n = labels.len();
        debug_assert_eq!(fwd_offsets.len(), n + 1, "one offset per row plus one");
        debug_assert!(
            dead.iter().all(|v| (v as usize) < n
                && fwd_offsets[v as usize] == fwd_offsets[v as usize + 1]),
            "tombstones must be in range and edge-free"
        );
        let mut bwd_offsets = vec![0u64; n + 1];
        for &t in &fwd_targets {
            bwd_offsets[t as usize + 1] += 1;
        }
        for i in 0..n {
            bwd_offsets[i + 1] += bwd_offsets[i];
        }
        let mut cursor = bwd_offsets[..n].to_vec();
        let mut bwd_targets = vec![0 as NodeId; fwd_targets.len()];
        for (u, row) in fwd_offsets.windows(2).enumerate() {
            for &v in &fwd_targets[row[0] as usize..row[1] as usize] {
                bwd_targets[cursor[v as usize] as usize] = u as NodeId;
                cursor[v as usize] += 1;
            }
        }
        // in-neighbor slices must be sorted: sources are visited in
        // ascending order, so each slice is already sorted.
        // The label space covers named-but-unpopulated labels too (their
        // inverted lists stay empty): a dictionary entry like `l 2 X` on a
        // graph whose nodes only use labels 0..2 must survive, so that
        // `(v:X)` queries validate and produce the (empty) answer instead
        // of an unknown-label error.
        let num_labels =
            labels.iter().map(|&l| l as usize + 1).max().unwrap_or(0).max(label_names.len());
        let mut inverted: Vec<Vec<NodeId>> = vec![Vec::new(); num_labels];
        for (v, &l) in labels.iter().enumerate() {
            if dead.is_empty() || !dead.contains(v as NodeId) {
                inverted[l as usize].push(v as NodeId);
            }
        }
        let inverted = inverted
            .into_iter()
            .map(|list| Arc::new(Members { bits: Bitset::from_sorted_dedup(&list), list }))
            .collect();
        let mut names = label_names;
        names.resize(num_labels, String::new());
        DataGraph {
            labels: Arc::new(labels),
            fwd: Arc::new(Csr { offsets: fwd_offsets, targets: fwd_targets }),
            bwd: Arc::new(Csr { offsets: bwd_offsets, targets: bwd_targets }),
            inverted,
            names: Arc::new(Names::new(names)),
            dead: Arc::new(dead),
        }
    }

    /// Returns this graph with `dead` tombstoned: the slots keep their
    /// labels but leave every inverted list. All tombstones must be
    /// edge-free — [`parse_text`] enforces this for `x` lines.
    pub(crate) fn with_tombstones(mut self, dead: Bitset) -> DataGraph {
        let mut lost = vec![Vec::new(); self.num_labels()];
        for v in dead.iter() {
            lost[self.label(v) as usize].push(v);
        }
        for (members, lost) in self.inverted.iter_mut().zip(&lost) {
            if !lost.is_empty() {
                *members = Arc::new(members.changed(&[], lost));
            }
        }
        self.dead = Arc::new(dead);
        self
    }
}

impl std::fmt::Debug for DataGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.dead.is_empty() {
            write!(
                f,
                "DataGraph(|V|={}, |E|={}, |L|={})",
                self.num_nodes(),
                self.num_edges(),
                self.num_labels()
            )
        } else {
            write!(
                f,
                "DataGraph(|V|={} ({} live), |E|={}, |L|={})",
                self.num_nodes(),
                self.num_live_nodes(),
                self.num_edges(),
                self.num_labels()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The data graph G of Fig. 2(b): labels a, b, c with subscripts.
    /// Edges chosen to satisfy the paper's example answer:
    /// os(A) = {a1, a2}, os((A,B)) = {(a1,b0), (a2,b2)}.
    pub fn fig2_graph() -> DataGraph {
        // nodes: a0 a1 a2 b0 b1 b2 b3 c0 c1 c2
        let mut b = GraphBuilder::new();
        let a = 0;
        let bb = 1;
        let c = 2;
        let a0 = b.add_node_with_name(a, "a");
        let a1 = b.add_node_with_name(a, "a");
        let a2 = b.add_node_with_name(a, "a");
        let b0 = b.add_node_with_name(bb, "b");
        let b1 = b.add_node_with_name(bb, "b");
        let b2 = b.add_node_with_name(bb, "b");
        let b3 = b.add_node_with_name(bb, "b");
        let c0 = b.add_node_with_name(c, "c");
        let c1 = b.add_node_with_name(c, "c");
        let c2 = b.add_node_with_name(c, "c");
        // a1 -> b0, a1 -> c0 direct; b0 reaches c0 and c1
        b.add_edge(a1, b0);
        b.add_edge(a1, c0);
        b.add_edge(b0, c1);
        b.add_edge(c1, c0);
        // a2 -> b2, a2 -> c2 direct; b2 reaches c2 (and c0, c1 via c2? no)
        b.add_edge(a2, b2);
        b.add_edge(a2, c2);
        b.add_edge(b2, c2);
        b.add_edge(b2, c1);
        // extra structure so the match sets differ from occurrence sets
        b.add_edge(a0, b1);
        b.add_edge(b1, c0);
        b.add_edge(b3, a0);
        b.build()
    }

    #[test]
    fn csr_basics() {
        let g = fig2_graph();
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.num_edges(), 11);
        assert_eq!(g.num_labels(), 3);
        assert_eq!(g.label(0), 0);
        assert_eq!(g.label(3), 1);
        assert!(g.has_edge(1, 3)); // a1 -> b0
        assert!(!g.has_edge(3, 1));
        assert_eq!(g.nodes_with_label(0), &[0, 1, 2]);
        assert_eq!(g.nodes_with_label(1), &[3, 4, 5, 6]);
        assert_eq!(g.out_neighbors(1), &[3, 7]); // a1 -> {b0, c0}
        assert_eq!(g.in_neighbors(7), &[1, 4, 8]); // c0 <- {a1, b1, c1}
    }

    #[test]
    fn bidirectional_consistency() {
        let g = fig2_graph();
        for (u, v) in g.edges() {
            assert!(g.in_neighbors(v).contains(&u));
        }
        let fwd_total: usize = (0..g.num_nodes() as NodeId).map(|v| g.out_degree(v)).sum();
        let bwd_total: usize = (0..g.num_nodes() as NodeId).map(|v| g.in_degree(v)).sum();
        assert_eq!(fwd_total, bwd_total);
        assert_eq!(fwd_total, g.num_edges());
    }

    #[test]
    fn in_neighbors_sorted() {
        let g = fig2_graph();
        for v in 0..g.num_nodes() as NodeId {
            let ins = g.in_neighbors(v);
            assert!(ins.windows(2).all(|w| w[0] < w[1]), "node {v}: {ins:?}");
        }
    }

    #[test]
    fn label_bitsets_match_lists() {
        let g = fig2_graph();
        for l in 0..g.num_labels() as Label {
            assert_eq!(g.label_bitset(l).to_vec(), g.nodes_with_label(l));
        }
    }

    #[test]
    fn relabel_collapses_labels() {
        let g = fig2_graph();
        let r = g.relabel(|_, _| 0);
        assert_eq!(r.num_labels(), 1);
        assert_eq!(r.num_edges(), g.num_edges());
        assert_eq!(r.nodes_with_label(0).len(), g.num_nodes());
    }

    #[test]
    fn avg_degree() {
        let g = fig2_graph();
        assert!((g.avg_degree() - 1.1).abs() < 1e-9);
    }
}
