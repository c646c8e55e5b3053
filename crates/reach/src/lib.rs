//! Reachability substrate (§2, §6 and §7.5 of the paper).
//!
//! Checking `u ≺ v` (node reachability, Def. 2.2) is the core primitive
//! behind reachability query edges. The paper uses **BFL** (Bloom Filter
//! Labeling, Su et al., TKDE 2017) and notes that any indexing scheme can be
//! plugged in. We provide:
//!
//! * [`scc`] — Tarjan strongly-connected-component condensation, shared by
//!   every index (reachability is an SCC-level property). One iterative
//!   DFS reads each edge once and yields the components, the condensation
//!   DAG's rows and the cyclic flags together;
//! * [`interval`] — DFS interval labels on the condensation, giving BFL
//!   O(1) *negative* cuts (`u.end < v.begin ⇒ u ⊀ v`) and O(1) *positive*
//!   hits for tree descendants;
//! * [`bfl`] — the BFL index: Bloom-filter in/out labels + interval labels
//!   + pruned DFS fallback;
//! * [`tc`] — materialized transitive closure (bitmap per component). Exact
//!   and fast but memory-hungry; this is what the GF baseline has to build
//!   for D-queries in §7.5 (Fig. 18), and what property tests use as ground
//!   truth;
//! * [`setreach`] — reachability a set at a time over the condensation
//!   DAG: the descendants and ancestors of a node set (node selection) and
//!   the targets each source reaches (RIG expansion).

pub mod bfl;
pub mod interval;
pub mod overlay;
pub mod scc;
mod scratch;
pub mod setreach;
pub mod tc;

pub use bfl::BflIndex;
pub use interval::IntervalLabels;
pub use overlay::SnapshotReach;
pub use scc::Condensation;
pub use setreach::{ComponentSet, GroupedRuns};
pub use tc::TransitiveClosure;

use rig_graph::NodeId;

/// A node-reachability oracle: `reaches(u, v)` answers `u ≺ v` (is there a
/// path of length ≥ 1 from `u` to `v`?).
///
/// Note the paper's Def. 2.2 defines `u ≺ v` as "there exists a path from u
/// to v"; following the convention used by its example RIGs, a node reaches
/// itself only when it lies on a cycle (a non-empty path exists).
///
/// ```
/// use rig_graph::GraphBuilder;
/// use rig_reach::{BflIndex, Reachability};
/// let mut b = GraphBuilder::new();
/// let (x, y, z) = (b.add_node(0), b.add_node(0), b.add_node(0));
/// b.add_edge(x, y);
/// b.add_edge(y, z);
/// let g = b.build();
/// let idx = BflIndex::new(&g);
/// assert!(idx.reaches(x, z));
/// assert!(!idx.reaches(z, x));
/// assert!(!idx.reaches(x, x)); // no cycle through x
/// ```
pub trait Reachability {
    /// True iff there is a non-empty path from `u` to `v`.
    fn reaches(&self, u: NodeId, v: NodeId) -> bool;

    /// Index construction time, for the Fig. 18(a) build-time comparison.
    fn build_seconds(&self) -> f64;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// The SCC condensation this oracle answers from, when it has one.
    /// It describes the graph the oracle was built on, so it must not be
    /// used for a view that differs from that graph (a dirty snapshot).
    fn condensation(&self) -> Option<&Condensation> {
        None
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rig_graph::{DataGraph, GraphBuilder, NodeId};

    /// Random graph for cross-checking indexes against naive DFS.
    pub fn random_graph(n: usize, m: usize, seed: u64) -> DataGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_node(0);
        }
        for _ in 0..m {
            let u = rng.gen_range(0..n) as NodeId;
            let v = rng.gen_range(0..n) as NodeId;
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Ground truth: DFS from u, path length >= 1.
    pub fn naive_reaches(g: &DataGraph, u: NodeId, v: NodeId) -> bool {
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
}
