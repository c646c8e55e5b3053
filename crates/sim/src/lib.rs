//! Double simulation (§4.2–§4.4 of the paper).
//!
//! The *double simulation* `FB` of query `Q` by graph `G` is the largest
//! relation `S ⊆ V_Q × V_G` such that `(q, v) ∈ S` implies: labels match,
//! every outgoing query edge of `q` can be followed from `v` into `S`
//! (forward condition), and every incoming query edge of `q` can be
//! followed backward from `v` into `S` (backward condition). Direct query
//! edges follow data edges; reachability query edges follow paths.
//!
//! `FB(q)` always sandwiches the occurrence set: `os(q) ⊆ FB(q) ⊆ ms(q)`,
//! so pruning a node out of `FB` can never lose an answer. Three
//! algorithms compute it:
//!
//! * [`SimAlgorithm::Basic`] — `FBSimBas` (Alg. 1): iterate forward and
//!   backward prunes over edges in arbitrary order until fixpoint;
//! * [`SimAlgorithm::Dag`] — `FBSimDag` (Alg. 2): visit nodes in reverse
//!   topological order (forward conditions) then topological order
//!   (backward conditions); converges in fewer passes on dags;
//! * [`SimAlgorithm::DagDelta`] — `FBSim` (Alg. 3, "Dag+Δ"): decompose a
//!   cyclic pattern into a spanning dag plus back edges, alternate
//!   `FBSimDag` on the dag part with `FBSimBas` on the back edges.
//!
//! Orthogonal knobs reproduce the §7.4 ablations: the direct-edge check
//! implementation ([`DirectCheckMode`]: `binSearch` / `bitIter` / `bitBat`,
//! Fig. 12a), change-flag pass skipping (`DagMap`, Fig. 12b) and the N-pass
//! approximation of §4.5. The reachability-edge check has one
//! implementation: one multi-source sweep per (edge, direction) over the
//! context's condensation ([`Condensation::ancestors_of_set`]) that keeps
//! the candidates in the ancestor/descendant set of the other side's
//! candidates.

mod algorithms;
mod checks;
mod prefilter;

pub use algorithms::{double_simulation, double_simulation_seeded};
pub use checks::{backward_prune_edge, forward_prune_edge};
pub use prefilter::prefilter;

use std::borrow::Cow;
use std::time::Instant;

use rig_bitset::Bitset;
use rig_graph::GraphView;
use rig_query::PatternQuery;
use rig_reach::{Condensation, Reachability};

/// Everything a simulation pass needs to look at.
///
/// The graph is a [`GraphView`]: a base CSR, or a dirty
/// [`rig_graph::Snapshot`]'s cached materialization. Either way the
/// simulation code reads one `DataGraph`; the view only remembers whether
/// it is dirty.
///
/// Every reachability question of selection and RIG expansion is answered
/// from one [`Condensation`] of the view, resolved once by
/// [`SimContext::new`]; no check probes an oracle pair by pair.
pub struct SimContext<'a> {
    pub graph: GraphView<'a>,
    pub query: &'a PatternQuery,
    /// The build's wall-clock deadline, charged per selection edge check
    /// and per expansion unit (see [`rig_graph::Deadline`]). Selection
    /// stops at it with a sound superset of `FB`; expansion aborts.
    /// [`SimContext::new`] leaves it `None`.
    pub deadline: Option<Instant>,
    cond: Cow<'a, Condensation>,
}

impl<'a> SimContext<'a> {
    /// Borrows `reach`'s condensation when the view is clean and `reach`
    /// has one; otherwise computes the view's own, in O(|V| + |E|). A
    /// dirty view has changed since any index was built, so its
    /// condensation is always its own, even when `reach` is the base's
    /// index.
    pub fn new(
        graph: impl Into<GraphView<'a>>,
        query: &'a PatternQuery,
        reach: &'a (dyn Reachability + Sync),
    ) -> Self {
        let graph = graph.into();
        let cond = match reach.condensation() {
            Some(cond) if !graph.is_dirty() => Cow::Borrowed(cond),
            _ => Cow::Owned(Condensation::new(graph)),
        };
        SimContext { graph, query, deadline: None, cond }
    }

    /// The condensation of `graph`.
    pub fn condensation(&self) -> &Condensation {
        &self.cond
    }

    /// The match sets `ms(q)` — label inverted lists — for every query node.
    pub fn match_sets(&self) -> Vec<Bitset> {
        self.query
            .labels()
            .iter()
            .map(|&l| {
                if (l as usize) < self.graph.num_labels() {
                    self.graph.label_bitset(l).clone()
                } else {
                    Bitset::new()
                }
            })
            .collect()
    }
}

/// Which fixpoint algorithm computes `FB` (§4.3–§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimAlgorithm {
    /// `FBSimBas` — arbitrary edge order ("Gra" in Fig. 12b).
    Basic,
    /// `FBSimDag` — topological node order ("Dag"); falls back to
    /// [`SimAlgorithm::DagDelta`] automatically on cyclic patterns.
    Dag,
    /// `FBSim` — Dag + back-edge delta (Alg. 3).
    DagDelta,
}

/// Implementation of the direct-edge connectivity check (§4.5, Fig. 12a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectCheckMode {
    /// Per candidate pair, binary search in the adjacency list.
    BinSearch,
    /// Per candidate node, bitmap AND of its adjacency list with the
    /// candidate set of the other endpoint.
    BitIter,
    /// One batch per (edge, direction): mark every neighbor of one side's
    /// candidates in a dense `|V|`-bit bitmap, then keep the other side's
    /// candidates whose bit is set ("bitBat"). No sort, no per-candidate
    /// bitset.
    BitBat,
}

/// Tuning options for [`double_simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    pub algorithm: SimAlgorithm,
    pub direct_mode: DirectCheckMode,
    /// Stop after this many passes even if not yet stable (the §4.5
    /// approximation; the paper fixes N = 3 in its evaluation). `None`
    /// runs to fixpoint.
    pub max_passes: Option<usize>,
    /// Skip re-checking query nodes whose neighborhood did not change in
    /// the previous pass (the "DagMap" optimization of Fig. 12b).
    pub change_flags: bool,
    /// Record per-step prune events (used to reproduce Figs. 4 and 5).
    pub trace: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            algorithm: SimAlgorithm::DagDelta,
            direct_mode: DirectCheckMode::BitBat,
            max_passes: None,
            change_flags: true,
            trace: false,
        }
    }
}

impl SimOptions {
    /// The paper's evaluation configuration: Dag+Δ with batch checks and a
    /// 3-pass cap (§4.5).
    pub fn paper_default() -> Self {
        SimOptions { max_passes: Some(3), ..Default::default() }
    }

    /// Exact fixpoint — what correctness proofs and ground-truth tests use.
    pub fn exact() -> Self {
        SimOptions::default()
    }
}

/// One recorded prune event: pass number, step (odd = forward, even =
/// backward, following Fig. 4), query node, nodes pruned at that step.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    pub pass: usize,
    pub step: usize,
    pub qnode: rig_query::QNode,
    pub pruned: Vec<rig_graph::NodeId>,
}

/// Result of a double-simulation computation.
#[derive(Debug)]
pub struct SimResult {
    /// `fb[q]` = FB(q) for each query node.
    pub fb: Vec<Bitset>,
    /// Number of completed passes.
    pub passes: usize,
    /// Total nodes pruned from all candidate sets.
    pub pruned: u64,
    /// Trace events, when [`SimOptions::trace`] was set.
    pub trace: Vec<TraceEvent>,
}

impl SimResult {
    /// Total candidate count across query nodes.
    pub fn total_candidates(&self) -> u64 {
        self.fb.iter().map(|s| s.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rig_graph::GraphBuilder;
    use rig_query::{fig2_query, EdgeKind, PatternQuery};
    use rig_reach::BflIndex;

    /// The running-example data graph (Fig. 2(b) reconstruction): see
    /// rig-datasets for the canonical copy. Node ids:
    /// a0=0 a1=1 a2=2 b0=3 b1=4 b2=5 b3=6 c0=7 c1=8 c2=9.
    pub fn fig2_graph() -> rig_graph::DataGraph {
        let mut b = GraphBuilder::new();
        for _ in 0..3 {
            b.add_node(0); // a
        }
        for _ in 0..4 {
            b.add_node(1); // b
        }
        for _ in 0..3 {
            b.add_node(2); // c
        }
        b.add_edge(1, 3); // a1 -> b0
        b.add_edge(1, 7); // a1 -> c0
        b.add_edge(3, 8); // b0 -> c1
        b.add_edge(8, 7); // c1 -> c0
        b.add_edge(2, 5); // a2 -> b2
        b.add_edge(2, 9); // a2 -> c2
        b.add_edge(5, 9); // b2 -> c2
        b.add_edge(5, 8); // b2 -> c1
        b.add_edge(0, 4); // a0 -> b1
        b.add_edge(4, 7); // b1 -> c0
        b.add_edge(6, 0); // b3 -> a0
        b.build()
    }

    fn all_option_combos() -> Vec<SimOptions> {
        let mut out = Vec::new();
        for algorithm in [SimAlgorithm::Basic, SimAlgorithm::Dag, SimAlgorithm::DagDelta] {
            for direct_mode in
                [DirectCheckMode::BinSearch, DirectCheckMode::BitIter, DirectCheckMode::BitBat]
            {
                for change_flags in [false, true] {
                    out.push(SimOptions {
                        algorithm,
                        direct_mode,
                        max_passes: None,
                        change_flags,
                        ..Default::default()
                    });
                }
            }
        }
        out
    }

    /// Ground truth for the Fig. 2 example, worked out by hand (see the
    /// homomorphism analysis in the test below): FB(A) = {a1, a2},
    /// FB(B) = {b0, b2}, FB(C) = {c0, c2}.
    #[test]
    fn fig2_double_sim_all_configurations_agree() {
        let g = fig2_graph();
        let q = fig2_query();
        let reach = BflIndex::new(&g);
        for opts in all_option_combos() {
            let ctx = SimContext::new(&g, &q, &reach);
            let r = double_simulation(&ctx, &opts);
            assert_eq!(r.fb[0].to_vec(), vec![1, 2], "{opts:?} FB(A)");
            assert_eq!(r.fb[1].to_vec(), vec![3, 5], "{opts:?} FB(B)");
            assert_eq!(r.fb[2].to_vec(), vec![7, 9], "{opts:?} FB(C)");
            assert!(r.fb.iter().all(|s| !s.is_empty()));
        }
    }

    /// Forward-only and backward-only simulations on the same example
    /// (Table 1 shape: F and B are strictly larger than FB).
    #[test]
    fn fb_is_contained_in_match_sets_and_nonempty_here() {
        let g = fig2_graph();
        let q = fig2_query();
        let reach = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &reach);
        let ms = ctx.match_sets();
        let r = double_simulation(&ctx, &SimOptions::exact());
        for (i, fb) in r.fb.iter().enumerate() {
            assert!(fb.is_subset(&ms[i]), "FB({i}) ⊄ ms({i})");
            assert!(fb.len() < ms[i].len(), "FB({i}) should prune something");
        }
    }

    /// Empty-answer early termination (the Fig. 4 scenario): if the query
    /// cannot match, every FB set drains to empty.
    #[test]
    fn empty_answer_drains_all_sets() {
        // graph with a and b only: A->B->C query cannot match.
        let mut b = GraphBuilder::new();
        let a0 = b.add_node(0);
        let b0 = b.add_node(1);
        b.add_node(2); // c node exists but disconnected
        b.add_edge(a0, b0);
        let g = b.build();
        let mut q = PatternQuery::new(vec![0, 1, 2]);
        q.add_edge(0, 1, EdgeKind::Direct);
        q.add_edge(1, 2, EdgeKind::Reachability);
        let reach = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &reach);
        for opts in all_option_combos() {
            let r = double_simulation(&ctx, &opts);
            assert!(r.fb.iter().all(|s| s.is_empty()), "{opts:?}");
        }
    }

    /// A cyclic (directed) pattern exercises the Dag+Δ path.
    #[test]
    fn cyclic_pattern_all_algorithms_agree() {
        // data: 2-cycle x<->y with labels 0,1 plus noise
        let mut b = GraphBuilder::new();
        let x = b.add_node(0);
        let y = b.add_node(1);
        let z = b.add_node(0); // no cycle
        b.add_edge(x, y);
        b.add_edge(y, x);
        b.add_edge(z, y);
        let g = b.build();
        let mut q = PatternQuery::new(vec![0, 1]);
        q.add_edge(0, 1, EdgeKind::Direct);
        q.add_edge(1, 0, EdgeKind::Reachability);
        let reach = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &reach);
        for opts in all_option_combos() {
            let r = double_simulation(&ctx, &opts);
            assert_eq!(r.fb[0].to_vec(), vec![x], "{opts:?}");
            assert_eq!(r.fb[1].to_vec(), vec![y], "{opts:?}");
        }
    }

    /// The N-pass cap yields a superset of the exact fixpoint (§4.5: the
    /// approximation keeps soundness, it only prunes less).
    #[test]
    fn pass_cap_is_sound_overapproximation() {
        let g = fig2_graph();
        let q = fig2_query();
        let reach = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &reach);
        let exact = double_simulation(&ctx, &SimOptions::exact());
        for cap in 1..=4usize {
            let approx = double_simulation(
                &ctx,
                &SimOptions { max_passes: Some(cap), ..SimOptions::default() },
            );
            for i in 0..q.num_nodes() {
                assert!(exact.fb[i].is_subset(&approx.fb[i]), "cap={cap} node {i}: exact ⊄ approx");
            }
        }
    }

    /// Fig. 5's claim: FBSimDag needs no more steps than FBSimBas.
    #[test]
    fn dag_converges_in_no_more_passes_than_basic() {
        let g = fig2_graph();
        let q = fig2_query();
        let reach = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &reach);
        let bas = double_simulation(
            &ctx,
            &SimOptions { algorithm: SimAlgorithm::Basic, ..SimOptions::exact() },
        );
        let dag = double_simulation(
            &ctx,
            &SimOptions { algorithm: SimAlgorithm::Dag, ..SimOptions::exact() },
        );
        assert!(dag.passes <= bas.passes, "dag={} bas={}", dag.passes, bas.passes);
    }

    #[test]
    fn trace_records_pruning() {
        let g = fig2_graph();
        let q = fig2_query();
        let reach = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &reach);
        let r = double_simulation(&ctx, &SimOptions { trace: true, ..SimOptions::exact() });
        let total_traced: usize = r.trace.iter().map(|e| e.pruned.len()).sum();
        assert_eq!(total_traced as u64, r.pruned);
        assert!(r.pruned > 0);
    }
}
