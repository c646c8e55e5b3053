//! Factorized-answer differential suite: on random labeled graphs, the
//! counting DP, the (sequential and parallel) tuple-enumeration engine and
//! the RIG-free brute-force oracle must report the **same count** for
//! every query — across every `SelectMode`, Direct/Reachability/mixed edge
//! kinds, injective on/off, thread counts {1, 2, 8}, tree and cyclic query
//! shapes, and on both clean base graphs and dirty delta-overlay
//! snapshots.
//!
//! The DP path is additionally cross-checked at the engine level: its lazy
//! pull-iterator must expand exactly the enumeration engine's match set,
//! and its per-variable cardinalities must equal the distinct binding
//! counts of the enumerated answers.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rigmatch::baselines::brute_force_count;
use rigmatch::core::factorized::Factorization;
use rigmatch::core::{GmConfig, Session};
use rigmatch::graph::{CommitImpact, DeltaOverlay, GraphBuilder, NodeId};
use rigmatch::query::{EdgeKind, PatternQuery};
use rigmatch::reach::BflIndex;
use rigmatch::rig::{build_rig, RigOptions, SelectMode};
use rigmatch::sim::SimContext;

const NUM_LABELS: u32 = 3;
const THREADS: [usize; 3] = [1, 2, 8];

fn random_base(nodes: usize, edges: usize, seed: u64) -> rigmatch::graph::DataGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    for l in 0..NUM_LABELS {
        b.add_node(l); // one guaranteed node per label
    }
    for _ in NUM_LABELS as usize..nodes {
        b.add_node(rng.gen_range(0..NUM_LABELS));
    }
    for _ in 0..edges {
        let u = rng.gen_range(0..nodes) as NodeId;
        let v = rng.gen_range(0..nodes) as NodeId;
        if u != v {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Tree shapes (2-chain, 3-chain, out-star) and cyclic shapes (triangle,
/// 4-cycle, diamond-with-chord), each in Direct, Reachability and mixed
/// edge-kind flavors.
fn workload() -> Vec<PatternQuery> {
    let mut out = Vec::new();
    let kinds = [
        [EdgeKind::Direct; 4],
        [EdgeKind::Reachability; 4],
        [EdgeKind::Direct, EdgeKind::Reachability, EdgeKind::Direct, EdgeKind::Reachability],
    ];
    for ks in kinds {
        // 2-chain (tree)
        let mut q = PatternQuery::new(vec![0, 1]);
        q.add_edge(0, 1, ks[0]);
        out.push(q);
        // 3-chain (tree)
        let mut q = PatternQuery::new(vec![0, 1, 2]);
        q.add_edge(0, 1, ks[0]);
        q.add_edge(1, 2, ks[1]);
        out.push(q);
        // out-star (tree)
        let mut q = PatternQuery::new(vec![1, 0, 2]);
        q.add_edge(0, 1, ks[0]);
        q.add_edge(0, 2, ks[1]);
        out.push(q);
        // triangle (cyclic)
        let mut q = PatternQuery::new(vec![0, 1, 2]);
        q.add_edge(0, 1, ks[0]);
        q.add_edge(1, 2, ks[1]);
        q.add_edge(0, 2, ks[2]);
        out.push(q);
        // 4-cycle (cyclic)
        let mut q = PatternQuery::new(vec![0, 1, 2, 0]);
        q.add_edge(0, 1, ks[0]);
        q.add_edge(1, 2, ks[1]);
        q.add_edge(3, 2, ks[2]);
        q.add_edge(0, 3, ks[3]);
        out.push(q);
        // diamond with chord (cyclic, rank 2)
        let mut q = PatternQuery::new(vec![0, 1, 1, 2]);
        q.add_edge(0, 1, ks[0]);
        q.add_edge(0, 2, ks[1]);
        q.add_edge(1, 3, ks[2]);
        q.add_edge(2, 3, ks[3]);
        q.add_edge(0, 3, EdgeKind::Reachability);
        out.push(q);
    }
    out
}

/// The tri-modal agreement check for one session snapshot: for every
/// workload query, DP count == enumerated count (all thread counts) ==
/// brute force, for both homomorphic and injective matching, with the
/// `counted_via_factorization` witness set exactly on the DP path.
fn check_session(session: &Session, g: &rigmatch::graph::DataGraph, ctx_label: &str) {
    for (qi, q) in workload().iter().enumerate() {
        let brute = brute_force_count(g, q, false);
        let brute_inj = brute_force_count(g, q, true);
        let p = session.prepare(q).expect("workload validates");

        // DP path (default count: no limit/timeout, not injective)
        let dp = p.run().count();
        assert_eq!(dp.result.count, brute, "{ctx_label}: DP vs brute, query {qi}");
        let empty = p.run().explain().empty_answer;
        assert_eq!(
            dp.metrics.counted_via_factorization, !empty,
            "{ctx_label}: witness flag, query {qi}"
        );

        for &t in &THREADS {
            // forced enumeration path
            let en = p.run().force_enumerate().threads(t).count();
            assert!(!en.metrics.counted_via_factorization);
            assert_eq!(en.result.count, brute, "{ctx_label}: enum vs brute, query {qi} t={t}");
            // injective runs are DP-ineligible and must agree with the
            // injective oracle
            let inj = p.run().injective(true).threads(t).count();
            assert!(!inj.metrics.counted_via_factorization);
            assert_eq!(
                inj.result.count, brute_inj,
                "{ctx_label}: injective vs brute, query {qi} t={t}"
            );
        }
    }
}

/// Clean-base check plus the engine-level lazy-iterator cross-check.
fn check_clean(select: SelectMode, seed: u64) {
    let cfg = GmConfig { rig: RigOptions { select, ..RigOptions::exact() }, ..GmConfig::default() };
    let g = random_base(20, 50, seed);
    let session = Session::with_config(g.clone(), cfg);
    check_session(&session, &g, &format!("clean select={select:?} seed={seed}"));

    // Engine-level: lazy expansion produces exactly the enumerated match
    // set, and var cardinalities equal the distinct enumerated bindings.
    let opts = RigOptions { select, ..RigOptions::exact() };
    let bfl = BflIndex::new(&g);
    for (qi, q) in workload().iter().enumerate() {
        let ctx = SimContext::new(&g, q, &bfl);
        let rig = build_rig(&ctx, &bfl, &opts);
        if rig.is_empty() {
            continue;
        }
        let (mut expect, _) = rigmatch::mjoin::collect(q, &rig, &Default::default(), usize::MAX);
        expect.sort();
        let mut f = Factorization::new(q, &rig);
        let mut got: Vec<_> = f.tuples().collect();
        got.sort();
        assert_eq!(got, expect, "lazy iterator, query {qi} seed={seed}");
        assert_eq!(f.count().total, Some(expect.len() as u128));
        assert_eq!(f.exists(), !expect.is_empty());
        let cards = f.var_cardinalities();
        for qn in 0..q.num_nodes() {
            let mut vals: Vec<_> = expect.iter().map(|t| t[qn]).collect();
            vals.sort_unstable();
            vals.dedup();
            assert_eq!(cards[qn], vals.len() as u64, "cardinality var {qn} query {qi}");
        }
    }
}

/// Dirty-snapshot check: random committed mutation batches (the shared
/// `DeltaOverlay::random_mutation` workload generator), then the tri-modal agreement
/// against a brute force over the materialized snapshot.
fn check_dirty(select: SelectMode, seed: u64, commits: usize, ops_per_commit: usize) {
    let cfg = GmConfig { rig: RigOptions { select, ..RigOptions::exact() }, ..GmConfig::default() };
    let mut gen_state = seed ^ 0xFAC7;
    let base = random_base(20, 45, seed);
    let session = Session::with_config(base, cfg);
    for step in 0..commits {
        let mut scratch: DeltaOverlay = (**session.graph().delta()).clone();
        let mut txn = session.begin();
        for _ in 0..ops_per_commit {
            if let Some(op) = scratch.random_mutation(&mut gen_state, NUM_LABELS) {
                let mut impact = CommitImpact::default();
                if scratch.apply(&op, &mut impact).is_ok() {
                    txn.push(op);
                }
            }
        }
        session.commit(txn).expect("scratch-validated ops commit cleanly");
        let materialized = session.graph().materialize();
        check_session(
            &session,
            &materialized,
            &format!("dirty select={select:?} seed={seed} step={step}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Refined (prefilter + simulation) RIGs: DP == enumerate == brute on
    /// clean bases, plus the engine-level iterator cross-check.
    #[test]
    fn refined_clean_agrees(seed in 0u64..1_000_000) {
        check_clean(SelectMode::PrefilterThenSim, seed);
    }

    /// Simulation-only ablation.
    #[test]
    fn sim_only_clean_agrees(seed in 0u64..1_000_000) {
        check_clean(SelectMode::SimOnly, seed);
    }

    /// Prefilter-only ablation.
    #[test]
    fn prefilter_only_clean_agrees(seed in 0u64..1_000_000) {
        check_clean(SelectMode::PrefilterOnly, seed);
    }

    /// Raw match-set RIGs (largest valid RIG — most conditioning work).
    #[test]
    fn match_sets_clean_agrees(seed in 0u64..1_000_000) {
        check_clean(SelectMode::MatchSets, seed);
    }

    /// Dirty snapshots under the refined mode: the DP runs against the
    /// delta-overlay RIG and must agree with a brute force over the
    /// materialized snapshot.
    #[test]
    fn refined_dirty_agrees(seed in 0u64..1_000_000) {
        check_dirty(SelectMode::PrefilterThenSim, seed, 2, 6);
    }

    /// Dirty snapshots under match-set RIGs.
    #[test]
    fn match_sets_dirty_agrees(seed in 0u64..1_000_000) {
        check_dirty(SelectMode::MatchSets, seed, 2, 6);
    }
}

/// Deterministic spot check: the DP handles an overflow-scale count by
/// falling back to enumeration only when the total exceeds u64 — here we
/// just assert a dense homomorphic pattern's DP count fits and agrees.
#[test]
fn dense_homomorphic_pattern_agrees() {
    let mut b = GraphBuilder::new();
    for _ in 0..30 {
        b.add_node(0);
    }
    for u in 0..30u32 {
        for v in 0..30u32 {
            if u != v && (u + v) % 3 == 0 {
                b.add_edge(u, v);
            }
        }
    }
    let g = b.build();
    let mut q = PatternQuery::new(vec![0, 0, 0, 0]);
    q.add_edge(0, 1, EdgeKind::Direct);
    q.add_edge(1, 2, EdgeKind::Direct);
    q.add_edge(2, 3, EdgeKind::Direct);
    let brute = brute_force_count(&g, &q, false);
    let session = Session::new(g);
    let p = session.prepare(&q).unwrap();
    let dp = p.run().count();
    assert!(dp.metrics.counted_via_factorization);
    assert_eq!(dp.result.count, brute);
    assert!(brute > 10_000, "pattern should be dense (got {brute})");
}
