//! Agreement between the CSR RIG's reachability expansion (one sweep over
//! the condensation per query edge, one run per source SCC) and the
//! reference RIG's per-source DFS, which reads no index; invariants of the
//! RIG adjacency structure; a build that never probes the oracle pair by
//! pair; and one whose oracle has no condensation.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rig_graph::{DataGraph, GraphBuilder, NodeId};
use rig_index::reference::{build_reference_rig, RefRig};
use rig_index::{build_rig, Rig, RigOptions, SelectMode};
use rig_query::{EdgeKind, PatternQuery};
use rig_reach::{BflIndex, Condensation, Reachability};
use rig_sim::SimContext;

fn setup_strategy() -> impl Strategy<Value = (rig_graph::DataGraph, PatternQuery)> {
    (
        prop::collection::vec(0u32..3, 4..25),
        prop::collection::vec((0u32..25, 0u32..25), 5..60),
        prop::collection::vec(prop::bool::ANY, 3),
    )
        .prop_map(|(labels, edges, kinds)| {
            let n = labels.len() as u32;
            let mut b = GraphBuilder::new();
            for l in labels {
                b.add_node(l);
            }
            for (u, v) in edges {
                let (u, v) = (u % n, v % n);
                if u != v {
                    b.add_edge(u, v);
                }
            }
            let g = b.build();
            let mut q = PatternQuery::new(vec![0, 1, 2]);
            let kind = |b: bool| if b { EdgeKind::Direct } else { EdgeKind::Reachability };
            q.add_edge(0, 1, kind(kinds[0]));
            q.add_edge(1, 2, kind(kinds[1]));
            q.add_edge(0, 2, kind(kinds[2]));
            (g, q)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn expansion_modes_agree((g, q) in setup_strategy()) {
        let bfl = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &bfl);
        let opts = RigOptions::exact();
        let rig = build_rig(&ctx, &opts);
        assert_matches_reference(&q, &build_reference_rig(&ctx, &opts), &rig, "exact")?;
    }

    /// The same agreement under every selection mode. Exact (fixpoint)
    /// simulation makes the CSR build's seeded selection and the
    /// reference's intersect-after selection converge to the same FB
    /// relation.
    #[test]
    fn structures_agree((g, q) in setup_strategy()) {
        let bfl = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &bfl);
        for select in [
            SelectMode::MatchSets,
            SelectMode::PrefilterOnly,
            SelectMode::SimOnly,
            SelectMode::PrefilterThenSim,
        ] {
            let opts = RigOptions { select, ..RigOptions::exact() };
            let (base, rig) = (build_reference_rig(&ctx, &opts), build_rig(&ctx, &opts));
            assert_matches_reference(&q, &base, &rig, &format!("{select:?}"))?;
        }
    }

    /// Forward and backward RIG adjacency must mirror each other exactly.
    #[test]
    fn forward_backward_adjacency_mirror((g, q) in setup_strategy()) {
        let bfl = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &bfl);
        let rig = build_rig(&ctx, &RigOptions::exact());
        for eid in 0..q.num_edges() as u32 {
            let e = q.edge(eid);
            for u in rig.cos(e.from as usize).iter() {
                if let Some(succ) = rig.successors(eid, u) {
                    for v in succ.iter() {
                        let pred = rig.predecessors(eid, v);
                        prop_assert!(
                            pred.is_some_and(|p| p.contains(u)),
                            "edge {}: ({}, {}) missing backward", eid, u, v
                        );
                    }
                }
            }
            for v in rig.cos(e.to as usize).iter() {
                if let Some(pred) = rig.predecessors(eid, v) {
                    for u in pred.iter() {
                        let succ = rig.successors(eid, u);
                        prop_assert!(
                            succ.is_some_and(|s| s.contains(v)),
                            "edge {}: ({}, {}) missing forward", eid, u, v
                        );
                    }
                }
            }
        }
    }

    /// RIG edges only connect candidate nodes (k-partiteness, Def. 4.1).
    #[test]
    fn rig_edges_stay_within_candidate_sets((g, q) in setup_strategy()) {
        let bfl = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &bfl);
        let rig = build_rig(&ctx, &RigOptions::exact());
        for eid in 0..q.num_edges() as u32 {
            let e = q.edge(eid);
            for u in rig.cos(e.from as usize).iter() {
                if let Some(succ) = rig.successors(eid, u) {
                    prop_assert!(succ.is_subset(&rig.cos(e.to as usize)));
                }
            }
        }
    }
}

/// A labelled graph built from blocks of 1–4 consecutive nodes: with
/// `cyclic` set each block of two or more is closed into a cycle (many
/// small SCCs), otherwise the graph is a DAG. Random edges run only from a
/// lower block to a higher one.
fn blocks_strategy(cyclic: bool) -> impl Strategy<Value = (DataGraph, PatternQuery)> {
    (
        prop::collection::vec((1u32..5, 0u32..3), 2..12),
        prop::collection::vec((0u32..48, 0u32..48), 0..60),
        prop::collection::vec(prop::bool::ANY, 2),
    )
        .prop_map(move |(blocks, edges, kinds)| {
            let mut b = GraphBuilder::new();
            let mut block_of = Vec::new();
            let mut start = 0u32;
            for (i, &(size, label)) in blocks.iter().enumerate() {
                for k in 0..size {
                    b.add_node((label + k / 2) % 3);
                    block_of.push(i);
                }
                if cyclic && size > 1 {
                    for k in 0..size {
                        b.add_edge(start + k, start + (k + 1) % size);
                    }
                }
                start += size;
            }
            let n = start;
            for (u, v) in edges {
                let (u, v) = (u % n, v % n);
                if block_of[u as usize] < block_of[v as usize] {
                    b.add_edge(u, v);
                }
            }
            let mut q = PatternQuery::new(vec![0, 1, 2]);
            let kind = |b: bool| if b { EdgeKind::Direct } else { EdgeKind::Reachability };
            q.add_edge(0, 1, kind(kinds[0]));
            q.add_edge(1, 2, EdgeKind::Reachability);
            q.add_edge(0, 2, kind(kinds[1]));
            (b.build(), q)
        })
}

/// The CSR `rig` has the candidate sets, edge counts and per-node
/// successor and predecessor sets of the per-source reference `base`.
fn assert_matches_reference(
    q: &PatternQuery,
    base: &RefRig,
    rig: &Rig,
    what: &str,
) -> Result<(), TestCaseError> {
    for i in 0..q.num_nodes() {
        prop_assert_eq!(base.cos[i].to_vec(), rig.cos(i).to_vec(), "{} cos({})", what, i);
    }
    prop_assert_eq!(base.stats.edge_count, rig.stats.edge_count, "{}", what);
    for eid in 0..q.num_edges() as u32 {
        let (p, t) = rig.edge_endpoints(eid);
        prop_assert_eq!(base.edge_cardinality(eid), rig.edge_cardinality(eid), "{}", what);
        for u in rig.cos(p).iter() {
            prop_assert_eq!(
                base.successors(eid, u).map(|s| s.to_vec()),
                rig.successors(eid, u).map(|s| s.to_vec()),
                "{} edge {} source {}",
                what,
                eid,
                u
            );
        }
        for v in rig.cos(t).iter() {
            prop_assert_eq!(
                base.predecessors(eid, v).map(|s| s.to_vec()),
                rig.predecessors(eid, v).map(|s| s.to_vec()),
                "{} edge {} target {}",
                what,
                eid,
                v
            );
        }
    }
    Ok(())
}

fn assert_shared_runs_match_per_source(
    g: &DataGraph,
    q: &PatternQuery,
) -> Result<(), TestCaseError> {
    let bfl = BflIndex::new(g);
    let ctx = SimContext::new(g, q, &bfl);
    // Raw match sets keep the candidate sets large, so many sources share
    // a component; exact simulation is the configuration reads use.
    for select in [SelectMode::MatchSets, SelectMode::PrefilterThenSim] {
        let opts = RigOptions { select, ..RigOptions::exact() };
        let base = build_reference_rig(&ctx, &opts);
        let shared = build_rig(&ctx, &opts);
        assert_matches_reference(q, &base, &shared, &format!("{select:?}"))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn shared_runs_match_per_source_runs_on_small_sccs((g, q) in blocks_strategy(true)) {
        assert_shared_runs_match_per_source(&g, &q)?;
    }

    #[test]
    fn shared_runs_match_per_source_runs_on_dags((g, q) in blocks_strategy(false)) {
        assert_shared_runs_match_per_source(&g, &q)?;
    }
}

fn query(labels: Vec<u32>, edges: &[(u32, u32, EdgeKind)]) -> PatternQuery {
    let mut q = PatternQuery::new(labels);
    for &(from, to, kind) in edges {
        q.add_edge(from, to, kind);
    }
    q
}

/// Queries with reachability edges between labels 0 and 1, including one
/// whose source and target query nodes share a label, so one data node is
/// a candidate on both ends.
fn hybrid_queries() -> Vec<PatternQuery> {
    use EdgeKind::{Direct, Reachability as Reach};
    vec![
        query(vec![0, 1], &[(0, 1, Reach)]),
        query(vec![0, 0], &[(0, 1, Reach)]),
        query(vec![0, 1, 0], &[(0, 1, Direct), (1, 2, Reach)]),
        query(vec![0, 1, 1], &[(0, 1, Reach), (1, 2, Reach), (0, 2, Direct)]),
    ]
}

/// `n` nodes with random labels 0/1 and `m` random edges; with `dag` set
/// every edge runs from the lower id to the higher.
fn random_graph(n: usize, m: usize, dag: bool, seed: u64) -> DataGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    for _ in 0..n {
        b.add_node(rng.gen_range(0..2));
    }
    for _ in 0..m {
        let (u, v) = (rng.gen_range(0..n) as NodeId, rng.gen_range(0..n) as NodeId);
        if u != v {
            b.add_edge(if dag { u.min(v) } else { u }, if dag { u.max(v) } else { v });
        }
    }
    b.build()
}

/// Rings of four nodes labelled 0, 1, 0, 1 (so each SCC holds both a
/// source and a target), joined by random edges from lower rings to
/// higher ones.
fn small_scc_graph(rings: u32, m: usize, seed: u64) -> DataGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    for v in 0..4 * rings {
        b.add_node(v % 2);
    }
    for r in 0..rings {
        for k in 0..4 {
            b.add_edge(4 * r + k, 4 * r + (k + 1) % 4);
        }
    }
    for _ in 0..m {
        let (u, v) = (rng.gen_range(0..4 * rings), rng.gen_range(0..4 * rings));
        if u / 4 < v / 4 {
            b.add_edge(u, v);
        }
    }
    b.build()
}

fn assert_hybrid_queries_match_reference(g: &DataGraph) -> Result<(), TestCaseError> {
    hybrid_queries().iter().try_for_each(|q| assert_shared_runs_match_per_source(g, q))
}

/// A DAG whose candidate sets run to hundreds of nodes per side.
#[test]
fn dag_with_large_candidate_sets_matches_reference() {
    let g = random_graph(800, 2400, true, 5);
    let bfl = BflIndex::new(&g);
    let q = &hybrid_queries()[0];
    let rig = build_rig(&SimContext::new(&g, q, &bfl), &RigOptions::exact());
    assert!(rig.candidates(0).len() > 200 && rig.candidates(1).len() > 200);
    assert_hybrid_queries_match_reference(&g).unwrap();
}

/// Nontrivial SCCs that each hold both a source and a target candidate.
#[test]
fn sccs_holding_sources_and_targets_match_reference() {
    assert_hybrid_queries_match_reference(&small_scc_graph(60, 150, 3)).unwrap();
}

/// `A ⇝ A` over the chain 0 -> 1 -> 2 -> 3 with a self-loop on 3: nodes
/// 0–2 are trivial components and both sources and targets, so none
/// reaches itself; node 3 lies on a cycle and does.
#[test]
fn source_and_target_on_one_trivial_component() {
    let mut b = GraphBuilder::new();
    for _ in 0..4 {
        b.add_node(0);
    }
    for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 3)] {
        b.add_edge(u, v);
    }
    let g = b.build();
    let q = &hybrid_queries()[1];
    let bfl = BflIndex::new(&g);
    let rig = build_rig(&SimContext::new(&g, q, &bfl), &RigOptions::exact());
    let succ = |u| rig.successors(0, u).map(|s| s.to_vec());
    assert_eq!(succ(0), Some(vec![1, 2, 3]));
    assert_eq!(succ(1), Some(vec![2, 3]));
    assert_eq!(succ(2), Some(vec![3]));
    assert_eq!(succ(3), Some(vec![3]));
    assert_shared_runs_match_per_source(&g, q).unwrap();
}

/// A BFL index that counts its pair probes and forwards its condensation.
struct CountingOracle {
    bfl: BflIndex,
    probes: AtomicUsize,
}

impl Reachability for CountingOracle {
    fn reaches(&self, u: NodeId, v: NodeId) -> bool {
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.bfl.reaches(u, v)
    }

    fn build_seconds(&self) -> f64 {
        self.bfl.build_seconds()
    }

    fn name(&self) -> &'static str {
        "counting BFL"
    }

    fn condensation(&self) -> Option<&Condensation> {
        Some(self.bfl.condensation())
    }
}

/// Selection and expansion answer reachability by condensation sweeps
/// alone: building RIGs for hybrid queries probes no pair, on one giant
/// SCC, on small SCCs and on a DAG.
#[test]
fn rig_builds_probe_no_pairs() {
    let graphs = [
        ("giant SCC", random_graph(400, 2000, false, 1)),
        ("small SCCs", small_scc_graph(100, 300, 2)),
        ("DAG", random_graph(400, 1200, true, 3)),
    ];
    for (shape, g) in &graphs {
        let oracle = CountingOracle { bfl: BflIndex::new(g), probes: AtomicUsize::new(0) };
        for q in hybrid_queries() {
            for opts in [RigOptions::default(), RigOptions::exact()] {
                let rig = build_rig(&SimContext::new(g, &q, &oracle), &opts);
                assert!(rig.stats.edge_count > 0, "{shape}: an empty RIG tests nothing");
            }
        }
        assert_eq!(oracle.probes.load(Ordering::Relaxed), 0, "{shape}: pair probes");
    }
}

/// A BFL index that hides its condensation, so a context built on it
/// computes the graph's own.
struct NoCondensation(BflIndex);

impl Reachability for NoCondensation {
    fn reaches(&self, u: NodeId, v: NodeId) -> bool {
        self.0.reaches(u, v)
    }

    fn build_seconds(&self) -> f64 {
        self.0.build_seconds()
    }

    fn name(&self) -> &'static str {
        "BFL without a condensation"
    }
}

/// `got` and `want` have the same candidates and, per edge and direction,
/// the same stored runs: as many, read by the same locals, with the same
/// contents.
fn assert_same_runs(q: &PatternQuery, got: &Rig, want: &Rig, what: &str) {
    for i in 0..q.num_nodes() {
        assert_eq!(got.candidates(i), want.candidates(i), "{what}: cos({i})");
    }
    for eid in 0..q.num_edges() as u32 {
        let (p, t) = want.edge_endpoints(eid);
        for (fwd, side) in [(true, p), (false, t)] {
            assert_eq!(got.num_runs(eid, fwd), want.num_runs(eid, fwd), "{what}: edge {eid}");
            for l in 0..want.candidates(side).len() as u32 {
                let run = |r: &Rig| {
                    let adj =
                        if fwd { r.successors_local(eid, l) } else { r.predecessors_local(eid, l) };
                    (r.run_id(eid, l, fwd), adj.list.to_vec())
                };
                assert_eq!(run(got), run(want), "{what}: edge {eid} local {l} (fwd={fwd})");
            }
        }
    }
    assert_eq!(got.heap_bytes(), want.heap_bytes(), "{what}: heap bytes");
}

/// An oracle without a condensation yields, on a clean graph, the RIG the
/// BFL index yields, run for run: the context computes the same
/// condensation itself.
#[test]
fn oracle_without_condensation_builds_the_same_runs() {
    let graphs = [
        ("giant SCC", random_graph(400, 2000, false, 1)),
        ("small SCCs", small_scc_graph(100, 300, 2)),
    ];
    for (shape, g) in &graphs {
        let bfl = BflIndex::new(g);
        let hidden = NoCondensation(BflIndex::new(g));
        for (qi, q) in hybrid_queries().iter().enumerate() {
            let opts = RigOptions::exact();
            let want = build_rig(&SimContext::new(g, q, &bfl), &opts);
            let got = build_rig(&SimContext::new(g, q, &hidden), &opts);
            assert!(want.stats.edge_count > 0, "{shape}: an empty RIG tests nothing");
            assert_same_runs(q, &got, &want, &format!("{shape} query {qi}"));
        }
    }
}
