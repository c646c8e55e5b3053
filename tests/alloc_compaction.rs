//! Allocation guard for compaction: a node-only commit that compacts
//! must copy nothing proportional to the graph's adjacency. A counting
//! global allocator (own test binary) counts the bytes each thread asks
//! for, so the bounds are byte counts and do not depend on timing.

mod testkit;

use std::sync::Arc;

use rigmatch::core::CompactionPolicy;
use rigmatch::graph::{CommitImpact, DataGraph, DeltaOverlay, Label, LabelSpec, MutationOp};
use rigmatch::Session;
use testkit::bytes_during;

#[global_allocator]
static GLOBAL: testkit::CountingAlloc = testkit::CountingAlloc;

/// The `ep` stand-in at scale 0.05 (3 800 nodes, about 25 000 edges).
fn ep() -> DataGraph {
    rigmatch::datasets::spec("ep").expect("ep is in the catalog").generate(0.05, 42)
}

/// The bytes of both CSR directions: 8 per row plus one for the offsets
/// and 4 per edge for the targets.
fn adjacency_bytes(g: &DataGraph) -> u64 {
    2 * (8 * (g.num_nodes() as u64 + 1) + 4 * g.num_edges() as u64)
}

/// Adding 16 nodes copies the node labels and the one label list that
/// grew, not the adjacency: the merge itself, and the whole commit with
/// its compaction (the reachability index's extension included), each
/// stay under a quarter of the adjacency's bytes.
#[test]
fn a_node_only_commit_and_compaction_allocate_under_a_quarter_of_the_adjacency() {
    let g = ep();
    let bound = adjacency_bytes(&g) / 4;
    let mut delta = DeltaOverlay::new(Arc::new(g.clone()));
    for _ in 0..16 {
        delta.apply(&MutationOp::AddNode(LabelSpec::Id(0)), &mut CommitImpact::default()).unwrap();
    }
    let (merged, bytes) = bytes_during(|| delta.materialize());
    assert_eq!(merged.num_nodes(), g.num_nodes() + 16);
    assert!(bytes < bound, "materialize allocated {bytes} bytes, bound {bound}");

    let session = Session::new(g).with_compaction(CompactionPolicy { min_ops: 1, ratio: 0.0 });
    let fresh = session.graph().num_labels() as Label;
    let write = || {
        let mut txn = session.begin();
        for _ in 0..16 {
            txn.add_node(fresh);
        }
        session.commit(txn).unwrap()
    };
    // the first write grows the label space; the measured one reuses it
    assert!(write().compacted);
    let extensions = session.store_stats().index_extensions;
    let (summary, bytes) = bytes_during(write);
    assert!(summary.compacted);
    assert_eq!(session.store_stats().index_extensions, extensions + 1, "index rebuilt");
    assert!(bytes < bound, "the commit allocated {bytes} bytes, bound {bound}");
}
