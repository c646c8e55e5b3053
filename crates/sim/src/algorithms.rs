//! The three FB fixpoint algorithms (Algs. 1–3 of the paper).

use crate::checks::{backward_prune_edge, forward_prune_edge};
use crate::{SimAlgorithm, SimContext, SimOptions, SimResult, TraceEvent};
use rig_bitset::Bitset;
use rig_graph::Deadline;
use rig_query::{EdgeId, QNode};

/// Computes the double simulation `FB` of `ctx.query` by `ctx.graph`.
pub fn double_simulation(ctx: &SimContext<'_>, opts: &SimOptions) -> SimResult {
    run_from(Runner::new(ctx, opts))
}

/// Like [`double_simulation`], but the fixpoint starts from `seed` instead
/// of the raw match sets. `seed[q]` must sandwich `FB(q) ⊆ seed[q] ⊆ ms(q)`
/// — e.g. the pre-filter output — so the largest simulation contained in
/// the seed is still `FB` and no answer can be lost. Starting from the
/// pre-pruned relation lets the prefilter's work carry into the fixpoint
/// instead of being thrown away and re-derived; pass counts in the result
/// reflect the passes actually run on the seeded relation.
pub fn double_simulation_seeded(
    ctx: &SimContext<'_>,
    opts: &SimOptions,
    seed: Vec<Bitset>,
) -> SimResult {
    assert_eq!(seed.len(), ctx.query.num_nodes(), "one seed set per query node");
    run_from(Runner::with_start(ctx, opts, seed))
}

fn run_from(mut runner: Runner<'_, '_>) -> SimResult {
    let ctx = runner.ctx;
    match runner.opts.algorithm {
        SimAlgorithm::Basic => runner.run_basic(),
        SimAlgorithm::Dag | SimAlgorithm::DagDelta => {
            if ctx.query.is_dag() {
                let all: Vec<EdgeId> = (0..ctx.query.num_edges() as EdgeId).collect();
                runner.run_dag(&all)
            } else {
                // Dag on a cyclic pattern falls back to Dag+Δ (Alg. 3).
                runner.run_dag_delta()
            }
        }
    }
    runner.finish()
}

struct Runner<'c, 'a> {
    ctx: &'c SimContext<'a>,
    opts: SimOptions,
    fb: Vec<Bitset>,
    /// Monotonic per-query-node change counters (for change-flag skipping).
    ver: Vec<u64>,
    passes: usize,
    step: usize,
    pruned: u64,
    trace: Vec<TraceEvent>,
    /// Charged per edge check: past it, checks are skipped and the pass
    /// loops end, leaving a superset of `FB`.
    deadline: Deadline,
}

impl<'c, 'a> Runner<'c, 'a> {
    fn new(ctx: &'c SimContext<'a>, opts: &SimOptions) -> Self {
        let fb = ctx.match_sets();
        Self::with_start(ctx, opts, fb)
    }

    fn with_start(ctx: &'c SimContext<'a>, opts: &SimOptions, fb: Vec<Bitset>) -> Self {
        let n = ctx.query.num_nodes();
        Runner {
            ctx,
            opts: *opts,
            fb,
            ver: vec![0; n],
            passes: 0,
            step: 0,
            pruned: 0,
            trace: Vec::new(),
            deadline: Deadline::new(ctx.deadline),
        }
    }

    fn finish(self) -> SimResult {
        SimResult { fb: self.fb, passes: self.passes, pruned: self.pruned, trace: self.trace }
    }

    fn record(&mut self, qnode: QNode, removed: Vec<rig_graph::NodeId>) -> bool {
        if removed.is_empty() {
            return false;
        }
        self.ver[qnode as usize] += 1;
        self.pruned += removed.len() as u64;
        if self.opts.trace {
            self.trace.push(TraceEvent {
                pass: self.passes,
                step: self.step,
                qnode,
                pruned: removed,
            });
        }
        true
    }

    fn fwd(&mut self, eid: EdgeId) -> bool {
        if self.deadline.charge() {
            return false;
        }
        let q = self.ctx.query.edge(eid).from;
        let removed = forward_prune_edge(self.ctx, &mut self.fb, eid, &self.opts);
        self.record(q, removed)
    }

    fn bwd(&mut self, eid: EdgeId) -> bool {
        if self.deadline.charge() {
            return false;
        }
        let q = self.ctx.query.edge(eid).to;
        let removed = backward_prune_edge(self.ctx, &mut self.fb, eid, &self.opts);
        self.record(q, removed)
    }

    fn cap_reached(&mut self) -> bool {
        self.opts.max_passes.is_some_and(|cap| self.passes >= cap) || self.deadline.charge()
    }

    /// Sum of change counters of the nodes adjacent to `q` through the
    /// given edges — the "inputs" of `q`'s forward or backward condition.
    fn input_version(&self, edges: &[EdgeId], take_from: bool) -> u64 {
        edges
            .iter()
            .map(|&e| {
                let pe = self.ctx.query.edge(e);
                let other = if take_from { pe.from } else { pe.to };
                self.ver[other as usize]
            })
            .sum()
    }

    // --------------------------------------------------------------
    // Alg. 1: FBSimBas — arbitrary edge order until fixpoint.
    // --------------------------------------------------------------
    fn run_basic(&mut self) {
        loop {
            let mut changed = false;
            self.step += 1; // forwardPrune
            for eid in 0..self.ctx.query.num_edges() as EdgeId {
                changed |= self.fwd(eid);
            }
            self.step += 1; // backwardPrune
            for eid in 0..self.ctx.query.num_edges() as EdgeId {
                changed |= self.bwd(eid);
            }
            self.passes += 1;
            if !changed || self.cap_reached() {
                return;
            }
        }
    }

    // --------------------------------------------------------------
    // Alg. 2: FBSimDag — reverse-topological forward sweep, then
    // topological backward sweep, restricted to `edges` (the spanning dag
    // in the Dag+Δ case). `change_flags` enables the DagMap skipping.
    // --------------------------------------------------------------
    fn run_dag(&mut self, edges: &[EdgeId]) {
        let in_set: std::collections::HashSet<EdgeId> = edges.iter().copied().collect();
        let sub = self.ctx.query.with_edges(edges);
        // callers pass an acyclic subset; were it ever cyclic, the basic
        // algorithm over every edge is still a sound simulation
        let Some(topo) = sub.topological_order() else {
            return self.run_basic();
        };
        let nq = self.ctx.query.num_nodes();
        // last-seen input versions for the change-flag optimization
        let mut seen_fwd = vec![u64::MAX; nq];
        let mut seen_bwd = vec![u64::MAX; nq];
        // restrict out/in edge lists to the dag subset, keeping original ids
        let out_edges: Vec<Vec<EdgeId>> = (0..nq)
            .map(|q| {
                self.ctx
                    .query
                    .out_edges(q as QNode)
                    .iter()
                    .copied()
                    .filter(|e| in_set.contains(e))
                    .collect()
            })
            .collect();
        let in_edges: Vec<Vec<EdgeId>> = (0..nq)
            .map(|q| {
                self.ctx
                    .query
                    .in_edges(q as QNode)
                    .iter()
                    .copied()
                    .filter(|e| in_set.contains(e))
                    .collect()
            })
            .collect();

        loop {
            let mut changed = false;
            // forwardSim: reverse topological order
            self.step += 1;
            for &q in topo.iter().rev() {
                let oe = &out_edges[q as usize];
                if oe.is_empty() {
                    continue; // sink: trivially forward-simulates
                }
                if self.opts.change_flags {
                    let v = self.input_version(oe, false).wrapping_add(self.ver[q as usize]);
                    if seen_fwd[q as usize] == v {
                        continue;
                    }
                }
                for &eid in oe {
                    changed |= self.fwd(eid);
                }
                if self.opts.change_flags {
                    seen_fwd[q as usize] =
                        self.input_version(oe, false).wrapping_add(self.ver[q as usize]);
                }
            }
            // backwardSim: topological order
            self.step += 1;
            for &q in topo.iter() {
                let ie = &in_edges[q as usize];
                if ie.is_empty() {
                    continue; // source: trivially backward-simulates
                }
                if self.opts.change_flags {
                    let v = self.input_version(ie, true).wrapping_add(self.ver[q as usize]);
                    if seen_bwd[q as usize] == v {
                        continue;
                    }
                }
                for &eid in ie {
                    changed |= self.bwd(eid);
                }
                if self.opts.change_flags {
                    seen_bwd[q as usize] =
                        self.input_version(ie, true).wrapping_add(self.ver[q as usize]);
                }
            }
            self.passes += 1;
            if !changed || self.cap_reached() {
                return;
            }
        }
    }

    // --------------------------------------------------------------
    // Alg. 3: FBSim (Dag+Δ) — alternate dag sweeps with back-edge sweeps.
    // --------------------------------------------------------------
    fn run_dag_delta(&mut self) {
        let (dag_edges, back_edges) = self.ctx.query.dag_decomposition();
        loop {
            let before = self.pruned;
            // one FBSimDag round on the spanning dag (its own fixpoint,
            // bounded by the remaining pass budget)
            self.run_dag(&dag_edges);
            if self.cap_reached() {
                return;
            }
            // one FBSimBas sweep on the back edges
            self.step += 1;
            for &eid in &back_edges {
                self.fwd(eid);
            }
            self.step += 1;
            for &eid in &back_edges {
                self.bwd(eid);
            }
            self.passes += 1;
            if self.pruned == before || self.cap_reached() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DirectCheckMode;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rig_graph::{DataGraph, GraphBuilder, NodeId};
    use rig_query::{EdgeKind, PatternQuery};
    use rig_reach::BflIndex;

    /// Naive reference: pairwise fixpoint straight from Def. 1.
    fn naive_fb(g: &DataGraph, q: &PatternQuery) -> Vec<Vec<NodeId>> {
        let reach = BflIndex::new(g);
        use rig_reach::Reachability;
        let mut s: Vec<Vec<NodeId>> = q
            .labels()
            .iter()
            .map(|&l| (0..g.num_nodes() as NodeId).filter(|&v| g.label(v) == l).collect())
            .collect();
        let matches = |e: rig_query::PatternEdge, u: NodeId, v: NodeId| match e.kind {
            EdgeKind::Direct => g.has_edge(u, v),
            EdgeKind::Reachability => reach.reaches(u, v),
        };
        loop {
            let mut changed = false;
            for &e in q.edges() {
                let (qi, qj) = (e.from as usize, e.to as usize);
                let heads = s[qj].clone();
                let before = s[qi].len();
                s[qi].retain(|&u| heads.iter().any(|&v| matches(e, u, v)));
                changed |= s[qi].len() != before;
                let tails = s[qi].clone();
                let before = s[qj].len();
                s[qj].retain(|&v| tails.iter().any(|&u| matches(e, u, v)));
                changed |= s[qj].len() != before;
            }
            if !changed {
                return s;
            }
        }
    }

    fn random_labeled_graph(n: usize, m: usize, labels: u32, seed: u64) -> DataGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_node(rng.gen_range(0..labels));
        }
        for _ in 0..m {
            let u = rng.gen_range(0..n) as NodeId;
            let v = rng.gen_range(0..n) as NodeId;
            if u != v {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    fn random_pattern(labels: u32, seed: u64) -> PatternQuery {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD);
        let n = rng.gen_range(2..6usize);
        let mut q = PatternQuery::new((0..n).map(|_| rng.gen_range(0..labels)).collect());
        // spanning chain for connectivity, then random extra edges
        for i in 1..n as u32 {
            let kind = if rng.gen_bool(0.5) { EdgeKind::Direct } else { EdgeKind::Reachability };
            q.add_edge(i - 1, i, kind);
        }
        for _ in 0..rng.gen_range(0..4usize) {
            let a = rng.gen_range(0..n) as u32;
            let b = rng.gen_range(0..n) as u32;
            if a != b {
                let kind =
                    if rng.gen_bool(0.5) { EdgeKind::Direct } else { EdgeKind::Reachability };
                q.ensure_edge(a, b, kind);
            }
        }
        q
    }

    /// All algorithm/check-mode combinations must equal the naive pairwise
    /// fixpoint on random (graph, pattern) instances — including cyclic
    /// patterns, where Dag falls back to Dag+Δ.
    #[test]
    #[allow(clippy::needless_range_loop)]
    fn randomized_equivalence_with_naive_fixpoint() {
        for seed in 0..20u64 {
            let g = random_labeled_graph(30, 70, 3, seed);
            let q = random_pattern(3, seed);
            let expect = naive_fb(&g, &q);
            let reach = BflIndex::new(&g);
            let ctx = SimContext::new(&g, &q, &reach);
            for algorithm in [SimAlgorithm::Basic, SimAlgorithm::Dag, SimAlgorithm::DagDelta] {
                for direct_mode in [DirectCheckMode::BitBat, DirectCheckMode::BinSearch] {
                    for change_flags in [false, true] {
                        let opts = SimOptions {
                            algorithm,
                            direct_mode,
                            max_passes: None,
                            change_flags,
                            ..Default::default()
                        };
                        let r = double_simulation(&ctx, &opts);
                        for i in 0..q.num_nodes() {
                            assert_eq!(
                                r.fb[i].to_vec(),
                                expect[i],
                                "seed={seed} node={i} {opts:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The seeded fixpoint started from the prefilter output equals the
    /// unseeded fixpoint: the largest simulation contained in any sandwich
    /// `FB ⊆ seed ⊆ ms` is FB itself.
    #[test]
    fn seeded_from_prefilter_equals_unseeded_fixpoint() {
        use crate::{double_simulation_seeded, prefilter};
        for seed in 0..12u64 {
            let g = random_labeled_graph(25, 60, 3, seed);
            let q = random_pattern(3, seed);
            let reach = BflIndex::new(&g);
            let ctx = SimContext::new(&g, &q, &reach);
            let opts = SimOptions::exact();
            let plain = double_simulation(&ctx, &opts);
            let pf = prefilter(&ctx);
            let seeded = double_simulation_seeded(&ctx, &opts, pf);
            for i in 0..q.num_nodes() {
                assert_eq!(plain.fb[i].to_vec(), seeded.fb[i].to_vec(), "seed={seed} node={i}");
            }
            assert!(seeded.passes >= 1);
        }
    }

    /// With a pass cap the seeded run stays a sound overapproximation of FB.
    #[test]
    fn seeded_with_cap_is_sound() {
        use crate::{double_simulation_seeded, prefilter};
        for seed in 0..8u64 {
            let g = random_labeled_graph(25, 60, 3, seed);
            let q = random_pattern(3, seed);
            let reach = BflIndex::new(&g);
            let ctx = SimContext::new(&g, &q, &reach);
            let exact = double_simulation(&ctx, &SimOptions::exact());
            let pf = prefilter(&ctx);
            let capped = double_simulation_seeded(&ctx, &SimOptions::paper_default(), pf);
            for i in 0..q.num_nodes() {
                assert!(exact.fb[i].is_subset(&capped.fb[i]), "seed={seed} node={i}");
            }
        }
    }

    /// FB must contain every occurrence column (os(q) ⊆ FB(q)): brute-force
    /// homomorphisms on tiny instances and check containment.
    #[test]
    #[allow(clippy::needless_range_loop)]
    fn fb_contains_all_occurrences() {
        for seed in 0..10u64 {
            let g = random_labeled_graph(14, 30, 2, seed);
            let q = random_pattern(2, seed);
            let reach = BflIndex::new(&g);
            use rig_reach::Reachability;
            // brute force all assignments
            let n = q.num_nodes();
            let mut occs: Vec<Vec<NodeId>> = vec![Vec::new(); n];
            let mut assign = vec![0 as NodeId; n];
            let gv = g.num_nodes() as NodeId;
            let mut stack = vec![0 as NodeId];
            'outer: loop {
                let depth = stack.len() - 1;
                let v = *stack.last().unwrap();
                if v >= gv {
                    stack.pop();
                    if let Some(top) = stack.last_mut() {
                        *top += 1;
                        continue;
                    }
                    break;
                }
                assign[depth] = v;
                let ok_label = g.label(v) == q.label(depth as u32);
                let ok_edges = ok_label
                    && q.edges().iter().all(|e| {
                        let (f, t) = (e.from as usize, e.to as usize);
                        if f > depth || t > depth {
                            return true;
                        }
                        match e.kind {
                            EdgeKind::Direct => g.has_edge(assign[f], assign[t]),
                            EdgeKind::Reachability => reach.reaches(assign[f], assign[t]),
                        }
                    });
                if ok_edges {
                    if depth + 1 == n {
                        for (i, &x) in assign.iter().enumerate() {
                            occs[i].push(x);
                        }
                        *stack.last_mut().unwrap() += 1;
                    } else {
                        stack.push(0);
                    }
                    continue 'outer;
                }
                *stack.last_mut().unwrap() += 1;
            }
            let ctx = SimContext::new(&g, &q, &reach);
            let r = double_simulation(&ctx, &SimOptions::exact());
            for i in 0..n {
                for &v in &occs[i] {
                    assert!(
                        r.fb[i].contains(v),
                        "seed={seed}: occurrence node {v} missing from FB({i})"
                    );
                }
            }
        }
    }
}
