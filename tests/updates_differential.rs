//! Update-vs-rebuild differential suite: random interleavings of node/edge
//! inserts, deletes and compactions, executed through the delta overlay,
//! must produce **byte-identical match sets** to a from-scratch rebuild
//! (fresh CSR base + fresh BFL on the materialized snapshot), across every
//! `SelectMode`, both `EdgeKind`s, and thread counts {1, 2, 8}.
//!
//! On top of match-set equality, every checked snapshot also exercises the
//! `count()` terminal — which auto-routes to the factorized counting DP on
//! dirty snapshots — asserting it agrees with the match-set size and with
//! the RIG-free brute-force oracle over the materialized snapshot.
//!
//! Mutations are generated *at runtime* against the live snapshot (ids and
//! edges depend on earlier commits) by the shared
//! `DeltaOverlay::random_mutation` workload generator, driven by a
//! proptest-supplied seed so every
//! failure replays deterministically.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rigmatch::core::{CompactionPolicy, GmConfig, Session};
use rigmatch::graph::{CommitImpact, DeltaOverlay, GraphBuilder, NodeId};
use rigmatch::query::{EdgeKind, PatternQuery};
use rigmatch::rig::{RigOptions, SelectMode};

const NUM_LABELS: u32 = 3;
const THREADS: [usize; 3] = [1, 2, 8];

/// A random labeled base graph with every label populated (so the fixed
/// query workload always validates).
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

/// The query workload: 2-chains and a triangle-ish 3-pattern in direct,
/// reachability and mixed flavors.
fn workload() -> Vec<PatternQuery> {
    let mut out = Vec::new();
    for kind in [EdgeKind::Direct, EdgeKind::Reachability] {
        let mut q = PatternQuery::new(vec![0, 1]);
        q.add_edge(0, 1, kind);
        out.push(q);
        let mut q = PatternQuery::new(vec![0, 1, 2]);
        q.add_edge(0, 1, kind);
        q.add_edge(1, 2, kind);
        out.push(q);
    }
    // mixed: direct into reachability with a closing reachability chord
    let mut q = PatternQuery::new(vec![0, 1, 2]);
    q.add_edge(0, 1, EdgeKind::Direct);
    q.add_edge(1, 2, EdgeKind::Reachability);
    q.add_edge(0, 2, EdgeKind::Reachability);
    out.push(q);
    out
}

/// Sorted match set of `q` on `session` at `threads` workers.
fn matches(session: &Session, q: &PatternQuery, threads: usize) -> Vec<Vec<NodeId>> {
    let p = session.prepare(q).expect("workload validates");
    let (mut tuples, outcome) = p.run().threads(threads).collect_all();
    assert!(!outcome.result.timed_out && !outcome.result.limit_hit);
    tuples.sort();
    tuples
}

/// The heart of the suite: drive `commits` random transactions through
/// `session`, and after every commit compare the overlay's match sets
/// against a from-scratch rebuild of the materialized snapshot — for every
/// workload query, at every thread count.
fn drive_and_check(select: SelectMode, seed: u64, commits: usize, ops_per_commit: usize) {
    let cfg = GmConfig { rig: RigOptions { select, ..RigOptions::exact() }, ..GmConfig::default() };
    let mut gen_state = seed ^ 0xD1FF;
    let base = random_base(24, 60, seed);
    let session = Session::with_config(base, cfg).with_compaction(CompactionPolicy::disabled());
    let queries = workload();
    for step in 0..commits {
        // Stage ops on the txn while mirroring them on a scratch overlay:
        // the scratch validates each op against the graph *as mutated so
        // far in this txn* (an earlier staged remove may have killed an
        // endpoint), so the commit below is guaranteed to apply cleanly.
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
        let summary = session.commit(txn).expect("scratch-validated ops commit cleanly");
        // occasionally fold the delta into a fresh base mid-stream
        if step % 3 == 2 {
            session.compact();
            assert_eq!(session.graph().delta().ops(), 0);
        }
        let materialized = session.graph().materialize();
        let rebuilt = Session::with_config(materialized.clone(), cfg);
        for (qi, q) in queries.iter().enumerate() {
            let expect = matches(&rebuilt, q, 1);
            for &t in &THREADS {
                let got = matches(&session, q, t);
                assert_eq!(
                    got, expect,
                    "select={select:?} seed={seed} step={step} (v{}) query={qi} threads={t}",
                    summary.version
                );
            }
            // the count() terminal rides the factorized DP on the dirty
            // snapshot — it must agree with the match set and the oracle
            let brute = rigmatch::baselines::brute_force_count(&materialized, q, false);
            assert_eq!(brute, expect.len() as u64, "oracle vs rebuild, query {qi}");
            let p = session.prepare(q).expect("workload validates");
            let o = p.run().count();
            assert_eq!(
                o.result.count, brute,
                "select={select:?} seed={seed} step={step} query={qi}: DP count on dirty snapshot"
            );
            let empty = p.run().explain().empty_answer;
            assert_eq!(o.metrics.counted_via_factorization, !empty, "witness flag, query {qi}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Refined (prefilter + simulation) RIGs over the overlay equal a
    /// from-scratch rebuild after arbitrary committed mutation sequences.
    #[test]
    fn refined_select_matches_rebuild(seed in 0u64..1_000_000) {
        drive_and_check(SelectMode::PrefilterThenSim, seed, 3, 6);
    }

    /// Same property for the simulation-only ablation.
    #[test]
    fn sim_only_matches_rebuild(seed in 0u64..1_000_000) {
        drive_and_check(SelectMode::SimOnly, seed, 3, 6);
    }

    /// Same property for the prefilter-only ablation.
    #[test]
    fn prefilter_only_matches_rebuild(seed in 0u64..1_000_000) {
        drive_and_check(SelectMode::PrefilterOnly, seed, 3, 6);
    }

    /// Same property for raw match-set RIGs (the largest valid RIG).
    #[test]
    fn match_sets_matches_rebuild(seed in 0u64..1_000_000) {
        drive_and_check(SelectMode::MatchSets, seed, 2, 6);
    }
}

/// Deterministic end-to-end scenario: interleaved inserts/deletes with an
/// automatic compaction in the middle, checked against rebuilds at every
/// commit — the documented example of `docs/updates.md`.
#[test]
fn scripted_interleaving_with_auto_compaction() {
    let base = random_base(20, 45, 7);
    let session = Session::new(base).with_compaction(CompactionPolicy { min_ops: 8, ratio: 0.0 });
    let queries = workload();
    let script =
        ["a v 0\na e 20 0\na e 1 20\n", "d e 1 20\nd v 0\n", "a v 2\na e 20 21\ncommit\nd v 20\n"];
    for text in script {
        for ops in rigmatch::graph::parse_mutations(text).unwrap() {
            session.apply(&ops).unwrap();
            let rebuilt = Session::new(session.graph().materialize());
            for q in &queries {
                assert_eq!(matches(&session, q, 1), matches(&rebuilt, q, 1));
                assert_eq!(matches(&session, q, 8), matches(&rebuilt, q, 1));
            }
        }
    }
    assert!(session.store_stats().compactions >= 1, "threshold must have tripped");
}

/// The acceptance-criteria cache test at the integration level: a commit
/// touching label X invalidates plans reading X and leaves plans over
/// disjoint labels cached, witnessed by `CacheStats` hit counters.
#[test]
fn commit_invalidation_is_label_aware() {
    let mut b = GraphBuilder::new();
    let a0 = b.add_named_node("A");
    let b0 = b.add_named_node("B");
    let x0 = b.add_named_node("X");
    let y0 = b.add_named_node("Y");
    b.add_edge(a0, b0);
    b.add_edge(x0, y0);
    let session = Session::new(b.build());

    let ab = session.prepare("MATCH (a:A)->(b:B)").unwrap();
    let xy = session.prepare("MATCH (x:X)->(y:Y)").unwrap();
    ab.run().count();
    xy.run().count();
    let baseline = session.cache_stats();
    assert_eq!(baseline.entries, 2);

    // commit touching X and Y only
    let mut txn = session.begin();
    let x1 = txn.add_named_node("X");
    txn.add_edge(x1, y0);
    let summary = session.commit(txn).unwrap();
    assert_eq!(summary.plans_invalidated, 1, "only the X,Y plan reads touched labels");
    assert_eq!(summary.plans_retained, 1);

    let o = ab.run().count();
    assert!(o.metrics.rig_from_cache, "A,B plan must still be cached");
    assert_eq!(session.cache_stats().hits, baseline.hits + 1);
    let o = xy.run().count();
    assert!(!o.metrics.rig_from_cache, "X,Y plan must have been invalidated");
    assert_eq!(o.result.count, 2, "and its rebuild sees the new edge");
    assert_eq!(session.cache_stats().invalidated, 1);
}
