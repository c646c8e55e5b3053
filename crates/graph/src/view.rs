//! A borrowed, copyable view of the one graph every read stage reads.
//!
//! Every read-only pipeline stage (simulation, pre-filtering, RIG
//! expansion, set-reachability sweeps) takes a [`GraphView`]: a
//! `&DataGraph` it derefs to, plus whether that graph is a dirty
//! [`Snapshot`]'s materialization. A dirty snapshot is read through the
//! merge it caches on first use ([`Snapshot::graph`]), so the hot loops
//! see one CSR representation whatever the caller holds.

use std::ops::Deref;
use std::sync::Arc;

use crate::delta::Snapshot;
use crate::DataGraph;

/// A borrowed graph, and whether it carries uncompacted mutations.
#[derive(Clone, Copy)]
pub struct GraphView<'a> {
    graph: &'a DataGraph,
    dirty: bool,
}

impl<'a> From<&'a DataGraph> for GraphView<'a> {
    fn from(graph: &'a DataGraph) -> Self {
        GraphView { graph, dirty: false }
    }
}

impl<'a> From<&'a Arc<DataGraph>> for GraphView<'a> {
    fn from(graph: &'a Arc<DataGraph>) -> Self {
        GraphView { graph, dirty: false }
    }
}

impl<'a> From<&'a Snapshot> for GraphView<'a> {
    fn from(s: &'a Snapshot) -> Self {
        GraphView { graph: s.graph(), dirty: s.is_dirty() }
    }
}

impl<'a> From<&'a Arc<Snapshot>> for GraphView<'a> {
    fn from(s: &'a Arc<Snapshot>) -> Self {
        GraphView::from(&**s)
    }
}

impl<'a> GraphView<'a> {
    /// The graph, borrowed for the view's whole lifetime.
    #[inline]
    pub fn graph(self) -> &'a DataGraph {
        self.graph
    }

    /// True when this view carries uncompacted mutations: an index built
    /// on the base (its BFL labels, its condensation) then no longer
    /// describes the view, so a build computes the view's own condensation
    /// instead of borrowing the index's.
    #[inline]
    pub fn is_dirty(self) -> bool {
        self.dirty
    }
}

impl Deref for GraphView<'_> {
    type Target = DataGraph;

    #[inline]
    fn deref(&self) -> &DataGraph {
        self.graph
    }
}

impl std::fmt::Debug for GraphView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}{}", self.graph, if self.dirty { " (dirty)" } else { "" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{CommitImpact, DeltaOverlay, MutationOp};
    use crate::GraphBuilder;

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
        assert!(std::ptr::eq(bv.graph(), sv.graph()), "a clean snapshot reads its base");
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
        assert!(std::ptr::eq(v.graph(), GraphView::from(&snap).graph()), "one merge per snapshot");
    }
}
