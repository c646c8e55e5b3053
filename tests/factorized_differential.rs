//! The factorized count on small random graphs: the counting DP, MJoin
//! enumeration and the oracle must agree for every query of the testkit's
//! flavoured workload (trees and cyclic shapes in direct, reachability and
//! mixed edge kinds), injective or not, under every `SelectMode`, on clean
//! bases and on dirty delta-overlay snapshots. Each query goes through the
//! matrix's check, which runs the DP count twice, so the second run reuses
//! the DP's scratch.

mod testkit;

use proptest::prelude::*;
use rigmatch::baselines::brute_force_count;
use rigmatch::core::Session;
use rigmatch::graph::GraphBuilder;
use rigmatch::query::PatternQuery;
use rigmatch::rig::SelectMode;
use testkit::{check, flavoured_queries, open_store, query, random_graph, Dims, Store, D};

const LABELS: u32 = 3;

/// Every flavoured query on a fresh `store` over a random base graph.
fn check_all(select: SelectMode, store: Store, seed: u64) {
    let dims = Dims { select, store, ..Dims::clean() };
    for (qi, q) in flavoured_queries().iter().enumerate() {
        let base = random_graph(20, 50, LABELS, seed);
        let session = open_store(store, base, dims.config(), seed, LABELS);
        check(&session, q, &dims, &format!("seed {seed} query {qi}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Refined (prefilter + simulation) RIGs on clean bases.
    #[test]
    fn refined_clean_agrees(seed in 0u64..1_000_000) {
        check_all(SelectMode::PrefilterThenSim, Store::Clean, seed);
    }

    /// Simulation-only ablation.
    #[test]
    fn sim_only_clean_agrees(seed in 0u64..1_000_000) {
        check_all(SelectMode::SimOnly, Store::Clean, seed);
    }

    /// Prefilter-only ablation.
    #[test]
    fn prefilter_only_clean_agrees(seed in 0u64..1_000_000) {
        check_all(SelectMode::PrefilterOnly, Store::Clean, seed);
    }

    /// Raw match-set RIGs (largest valid RIG — most conditioning work).
    #[test]
    fn match_sets_clean_agrees(seed in 0u64..1_000_000) {
        check_all(SelectMode::MatchSets, Store::Clean, seed);
    }

    /// Dirty snapshots under the refined mode: the DP runs over a RIG of
    /// the delta overlay, then over the session's rebased base.
    #[test]
    fn refined_dirty_agrees(seed in 0u64..1_000_000) {
        check_all(SelectMode::PrefilterThenSim, Store::Dirty, seed);
    }

    /// Dirty snapshots under match-set RIGs.
    #[test]
    fn match_sets_dirty_agrees(seed in 0u64..1_000_000) {
        check_all(SelectMode::MatchSets, Store::Dirty, seed);
    }
}

/// A dense homomorphic pattern: the DP's count fits and agrees with the
/// oracle's.
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
    let q: PatternQuery = query(&[0; 4], &[(0, 1), (1, 2), (2, 3)], &[D; 3]);
    let brute = brute_force_count(&g, &q, false);
    let session = Session::new(g);
    let p = session.prepare(&q).unwrap();
    let dp = p.run().count();
    assert!(dp.metrics.counted_via_factorization);
    assert_eq!(dp.result.count, brute);
    assert!(brute > 10_000, "pattern should be dense (got {brute})");
}
