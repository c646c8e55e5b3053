//! Delta-aware reachability: BFL answers on the base segment, overlay
//! traversal for everything the delta could have changed.
//!
//! The BFL index describes the **base** graph only — committed mutations
//! invalidate neither its Bloom labels nor its interval labels, so a
//! dirty [`Snapshot`] needs an oracle that layers correction on top:
//!
//! * **insert-only deltas** keep every base path alive, so a positive BFL
//!   answer between live base nodes stands;
//! * **delete-only deltas** add no paths, so a negative BFL answer stands;
//! * anything the cuts cannot certify falls back to a BFS over the
//!   overlay adjacency (patched regions read the delta, untouched regions
//!   read the base CSR) with per-call scratch, mirroring the paper's
//!   position that the reachability scheme is pluggable (§7.1).
//!
//! A rebase folds the delta into a fresh base with a BFL index of its
//! own, at which point queries return to pure O(1)-ish index probes.

use crate::{BflIndex, Reachability};
use rig_graph::{NodeId, Snapshot};

/// Reachability over one [`Snapshot`]: `base` must be the BFL index of
/// `snap.base()`.
pub struct SnapshotReach<'a> {
    snap: &'a Snapshot,
    base: &'a BflIndex,
}

impl<'a> SnapshotReach<'a> {
    pub fn new(snap: &'a Snapshot, base: &'a BflIndex) -> Self {
        SnapshotReach { snap, base }
    }

    /// BFS over the overlay adjacency from `u`, looking for `v` along
    /// paths of length >= 1. The visited set is a per-thread
    /// epoch-stamped buffer (O(1) amortized reset, no O(|V|) per-probe
    /// allocation — simulation can issue thousands of these).
    fn overlay_bfs(&self, u: NodeId, v: NodeId) -> bool {
        let n = self.snap.num_nodes();
        crate::scratch::with_overlay_scratch(n, |seen, epoch| {
            let mut frontier: Vec<NodeId> = Vec::new();
            for &x in self.snap.out_neighbors(u) {
                if x == v {
                    return true;
                }
                if seen.visit(x as usize, epoch) {
                    frontier.push(x);
                }
            }
            let mut head = 0;
            while head < frontier.len() {
                let w = frontier[head];
                head += 1;
                for &x in self.snap.out_neighbors(w) {
                    if x == v {
                        return true;
                    }
                    if seen.visit(x as usize, epoch) {
                        frontier.push(x);
                    }
                }
            }
            false
        })
    }
}

impl Reachability for SnapshotReach<'_> {
    fn reaches(&self, u: NodeId, v: NodeId) -> bool {
        let snap = self.snap;
        if !snap.is_dirty() {
            return self.base.reaches(u, v);
        }
        // Tombstoned endpoints have no edges in the overlay.
        if !snap.is_live(u) || !snap.is_live(v) {
            return false;
        }
        let delta = snap.delta();
        let base_n = snap.base().num_nodes() as NodeId;
        let base_endpoints = u < base_n && v < base_n;
        let insert_only = delta.edges_removed() == 0 && delta.nodes_removed() == 0;
        let delete_only = delta.edges_added() == 0;
        if base_endpoints {
            if delete_only && !self.base.reaches(u, v) {
                // the delta added no edges: overlay paths ⊆ base paths
                return false;
            }
            if insert_only && self.base.reaches(u, v) {
                // the delta removed nothing: base paths survive verbatim
                return true;
            }
        } else if delete_only {
            // an added node with no added edges is isolated
            return false;
        }
        self.overlay_bfs(u, v)
    }

    fn build_seconds(&self) -> f64 {
        self.base.build_seconds()
    }

    fn name(&self) -> &'static str {
        "BFL+delta"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_graph;
    use rig_graph::{CommitImpact, DeltaOverlay, LabelSpec, MutationOp};
    use std::sync::Arc;

    /// Ground truth on the overlay's rows.
    fn naive(snap: &Snapshot, u: NodeId, v: NodeId) -> bool {
        let g: &DeltaOverlay = snap;
        let mut seen = vec![false; g.num_nodes()];
        let mut stack: Vec<NodeId> = g.out_neighbors(u).to_vec();
        while let Some(x) = stack.pop() {
            if x == v {
                return true;
            }
            if !seen[x as usize] {
                seen[x as usize] = true;
                stack.extend_from_slice(g.out_neighbors(x));
            }
        }
        false
    }

    fn check_all(snap: &Snapshot, bfl: &BflIndex) {
        let r = SnapshotReach::new(snap, bfl);
        let n = snap.num_nodes() as NodeId;
        for u in 0..n {
            for v in 0..n {
                assert_eq!(r.reaches(u, v), naive(snap, u, v), "u={u} v={v}");
            }
        }
    }

    fn mutated_snapshot(seed: u64, ops: &[MutationOp]) -> (Snapshot, BflIndex) {
        let base = Arc::new(random_graph(30, 70, seed));
        let bfl = BflIndex::new(&base);
        let mut d = DeltaOverlay::new(base);
        let mut im = CommitImpact::default();
        for op in ops {
            d.apply(op, &mut im).unwrap();
        }
        (Snapshot::new(Arc::new(d), 1), bfl)
    }

    #[test]
    fn clean_snapshot_delegates_to_bfl() {
        let base = Arc::new(random_graph(20, 50, 1));
        let bfl = BflIndex::new(&base);
        let snap = Snapshot::clean(Arc::clone(&base));
        let r = SnapshotReach::new(&snap, &bfl);
        for u in 0..20u32 {
            for v in 0..20u32 {
                assert_eq!(r.reaches(u, v), bfl.reaches(u, v));
            }
        }
        assert_eq!(r.name(), "BFL+delta");
    }

    #[test]
    fn insert_only_deltas() {
        for seed in 0..4u64 {
            let (snap, bfl) = mutated_snapshot(
                seed,
                &[
                    MutationOp::AddNode(LabelSpec::Id(0)), // id 30
                    MutationOp::AddEdge(30, 3),
                    MutationOp::AddEdge(7, 30),
                    MutationOp::AddEdge(1, 2),
                ],
            );
            check_all(&snap, &bfl);
        }
    }

    #[test]
    fn delete_only_deltas() {
        for seed in 0..4u64 {
            let base = Arc::new(random_graph(30, 70, seed));
            let bfl = BflIndex::new(&base);
            let mut d = DeltaOverlay::new(Arc::clone(&base));
            let mut im = CommitImpact::default();
            // drop the first few edges that exist
            let mut dropped = 0;
            'outer: for u in 0..30u32 {
                for &v in base.out_neighbors(u) {
                    d.apply(&MutationOp::RemoveEdge(u, v), &mut im).unwrap();
                    dropped += 1;
                    if dropped == 5 {
                        break 'outer;
                    }
                }
            }
            d.apply(&MutationOp::RemoveNode(15), &mut im).unwrap();
            let snap = Snapshot::new(Arc::new(d), 1);
            check_all(&snap, &bfl);
        }
    }

    #[test]
    fn mixed_deltas() {
        for seed in 0..4u64 {
            let base = Arc::new(random_graph(25, 60, seed));
            let bfl = BflIndex::new(&base);
            let mut d = DeltaOverlay::new(Arc::clone(&base));
            let mut im = CommitImpact::default();
            d.apply(&MutationOp::AddNode(LabelSpec::Id(0)), &mut im).unwrap(); // 25
            d.apply(&MutationOp::AddEdge(25, 0), &mut im).unwrap();
            d.apply(&MutationOp::AddEdge(4, 25), &mut im).unwrap();
            d.apply(&MutationOp::RemoveNode(9), &mut im).unwrap();
            if base.has_edge(0, 1) {
                d.apply(&MutationOp::RemoveEdge(0, 1), &mut im).unwrap();
            }
            d.apply(&MutationOp::AddEdge(2, 3), &mut im).unwrap();
            let snap = Snapshot::new(Arc::new(d), 1);
            check_all(&snap, &bfl);
        }
    }
}
