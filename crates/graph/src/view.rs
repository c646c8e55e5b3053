//! A borrowed, copyable view over either graph representation.
//!
//! Every read-only pipeline stage (simulation, pre-filtering, RIG
//! expansion, set-reachability sweeps) takes a [`GraphView`] instead of
//! `&DataGraph`, so the same code runs against a frozen base CSR *or* a
//! delta [`Snapshot`] without generics or dynamic dispatch in the hot
//! loops — each accessor is one match on a two-variant enum, and both
//! arms return the same borrowed slices/bitmaps the CSR path always did.

use rig_bitset::Bitset;

use crate::delta::Snapshot;
use crate::{DataGraph, Label, NodeId};

/// A borrowed graph: the immutable base CSR, or a delta snapshot.
#[derive(Clone, Copy)]
pub enum GraphView<'a> {
    Base(&'a DataGraph),
    Snapshot(&'a Snapshot),
}

impl<'a> From<&'a DataGraph> for GraphView<'a> {
    fn from(g: &'a DataGraph) -> Self {
        GraphView::Base(g)
    }
}

impl<'a> From<&'a std::sync::Arc<DataGraph>> for GraphView<'a> {
    fn from(g: &'a std::sync::Arc<DataGraph>) -> Self {
        GraphView::Base(g)
    }
}

impl<'a> From<&'a Snapshot> for GraphView<'a> {
    fn from(s: &'a Snapshot) -> Self {
        GraphView::Snapshot(s)
    }
}

impl<'a> From<&'a std::sync::Arc<Snapshot>> for GraphView<'a> {
    fn from(s: &'a std::sync::Arc<Snapshot>) -> Self {
        GraphView::Snapshot(s)
    }
}

impl<'a> GraphView<'a> {
    /// Number of node-id slots `|V|` (including tombstones).
    #[inline]
    pub fn num_nodes(self) -> usize {
        match self {
            GraphView::Base(g) => g.num_nodes(),
            GraphView::Snapshot(s) => s.num_nodes(),
        }
    }

    /// Number of edges `|E|`.
    #[inline]
    pub fn num_edges(self) -> usize {
        match self {
            GraphView::Base(g) => g.num_edges(),
            GraphView::Snapshot(s) => s.num_edges(),
        }
    }

    /// Number of labels `|L|`.
    #[inline]
    pub fn num_labels(self) -> usize {
        match self {
            GraphView::Base(g) => g.num_labels(),
            GraphView::Snapshot(s) => s.num_labels(),
        }
    }

    /// Label of node `v`.
    #[inline]
    pub fn label(self, v: NodeId) -> Label {
        match self {
            GraphView::Base(g) => g.label(v),
            GraphView::Snapshot(s) => s.label(v),
        }
    }

    /// True iff `v` is a live (non-tombstoned) node.
    #[inline]
    pub fn is_live(self, v: NodeId) -> bool {
        match self {
            GraphView::Base(g) => g.is_live(v),
            GraphView::Snapshot(s) => s.is_live(v),
        }
    }

    /// Sorted out-neighbors of `v`.
    #[inline]
    pub fn out_neighbors(self, v: NodeId) -> &'a [NodeId] {
        match self {
            GraphView::Base(g) => g.out_neighbors(v),
            GraphView::Snapshot(s) => s.out_neighbors(v),
        }
    }

    /// Sorted in-neighbors of `v`.
    #[inline]
    pub fn in_neighbors(self, v: NodeId) -> &'a [NodeId] {
        match self {
            GraphView::Base(g) => g.in_neighbors(v),
            GraphView::Snapshot(s) => s.in_neighbors(v),
        }
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(self, v: NodeId) -> usize {
        self.out_neighbors(v).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(self, v: NodeId) -> usize {
        self.in_neighbors(v).len()
    }

    /// True iff the edge `(u, v)` exists.
    #[inline]
    pub fn has_edge(self, u: NodeId, v: NodeId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Sorted inverted list `I_label` (live nodes only).
    #[inline]
    pub fn nodes_with_label(self, label: Label) -> &'a [NodeId] {
        match self {
            GraphView::Base(g) => g.nodes_with_label(label),
            GraphView::Snapshot(s) => s.nodes_with_label(label),
        }
    }

    /// The inverted list of `label` as a bitmap.
    #[inline]
    pub fn label_bitset(self, label: Label) -> &'a Bitset {
        match self {
            GraphView::Base(g) => g.label_bitset(label),
            GraphView::Snapshot(s) => s.label_bitset(label),
        }
    }

    /// Resolves a label name to its id, if named.
    pub fn label_id(self, name: &str) -> Option<Label> {
        match self {
            GraphView::Base(g) => g.label_id(name),
            GraphView::Snapshot(s) => s.label_id(name),
        }
    }

    /// Human-readable name of `label` ("" = unnamed).
    pub fn label_name(self, label: Label) -> &'a str {
        match self {
            GraphView::Base(g) => g.label_name(label),
            GraphView::Snapshot(s) => s.label_name(label),
        }
    }

    /// True when this view carries uncompacted mutations: an index built
    /// on the base (its BFL labels, its condensation) then no longer
    /// describes the view, so a build computes the view's own condensation
    /// instead of borrowing the index's.
    #[inline]
    pub fn is_dirty(self) -> bool {
        match self {
            GraphView::Base(_) => false,
            GraphView::Snapshot(s) => s.is_dirty(),
        }
    }
}

impl std::fmt::Debug for GraphView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphView::Base(g) => write!(f, "{g:?}"),
            GraphView::Snapshot(s) => write!(f, "{s:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{CommitImpact, DeltaOverlay, MutationOp};
    use crate::GraphBuilder;
    use std::sync::Arc;

    #[test]
    fn base_and_snapshot_views_agree_when_clean() {
        let mut b = GraphBuilder::new();
        let x = b.add_node_with_name(0, "A");
        let y = b.add_node_with_name(1, "B");
        b.add_edge(x, y);
        let g = Arc::new(b.build());
        let snap = Snapshot::clean(Arc::clone(&g));
        let bv = GraphView::from(&*g);
        let sv = GraphView::from(&snap);
        assert_eq!(bv.num_nodes(), sv.num_nodes());
        assert_eq!(bv.out_neighbors(0), sv.out_neighbors(0));
        assert_eq!(bv.nodes_with_label(1), sv.nodes_with_label(1));
        assert_eq!(bv.label_id("B"), sv.label_id("B"));
        assert!(!bv.is_dirty() && !sv.is_dirty());
    }

    #[test]
    fn dirty_snapshot_view_reads_through_the_overlay() {
        let mut b = GraphBuilder::new();
        let x = b.add_node(0);
        let y = b.add_node(1);
        b.add_edge(x, y);
        let g = Arc::new(b.build());
        let mut d = DeltaOverlay::new(g);
        let mut im = CommitImpact::default();
        d.apply(&MutationOp::RemoveEdge(0, 1), &mut im).unwrap();
        let snap = Snapshot::new(Arc::new(d), 1);
        let v = GraphView::from(&snap);
        assert!(v.is_dirty());
        assert!(!v.has_edge(0, 1));
        assert_eq!(v.num_edges(), 0);
    }
}
