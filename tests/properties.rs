//! Property-based tests (proptest) for the core invariants:
//!
//! * the simulation sandwich `os(q) ⊆ FB(q) ⊆ ms(q)` (§4.2);
//! * RIG losslessness (Prop. 4.1);
//! * MJoin == brute-force homomorphism count;
//! * the AGM / worst-case-optimality bound of Thm. 5.2 for integral edge
//!   covers;
//! * transitive reduction preserves answers (§3, query equivalence).

mod testkit;

use proptest::prelude::*;
use rigmatch::core::{GmConfig, Session};
use rigmatch::graph::{DataGraph, GraphBuilder};
use rigmatch::query::{transitive_reduction, EdgeKind, PatternQuery};
use rigmatch::reach::BflIndex;
use testkit::{check, oracle, Dims, SELECT_MODES};

const NUM_LABELS: u32 = 3;

/// Strategy: a random labeled graph with up to 12 nodes / 24 edges.
fn graph_strategy() -> impl Strategy<Value = DataGraph> {
    (
        prop::collection::vec(0..NUM_LABELS, 3..12),
        prop::collection::vec((0..12u32, 0..12u32), 0..24),
    )
        .prop_map(|(labels, edges)| {
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
            b.build()
        })
}

/// Strategy: a connected pattern of 2–4 nodes with mixed edge kinds.
fn query_strategy() -> impl Strategy<Value = PatternQuery> {
    (
        prop::collection::vec(0..NUM_LABELS, 2..5),
        prop::collection::vec((0..5u32, 0..5u32, prop::bool::ANY), 0..4),
        prop::collection::vec(prop::bool::ANY, 4),
    )
        .prop_map(|(labels, extra, chain_kinds)| {
            let n = labels.len() as u32;
            let mut q = PatternQuery::new(labels);
            for i in 1..n {
                let kind = if chain_kinds[(i as usize - 1) % 4] {
                    EdgeKind::Direct
                } else {
                    EdgeKind::Reachability
                };
                q.add_edge(i - 1, i, kind);
            }
            for (a, b, dir) in extra {
                let (a, b) = (a % n, b % n);
                if a != b {
                    let kind = if dir { EdgeKind::Direct } else { EdgeKind::Reachability };
                    q.ensure_edge(a, b, kind);
                }
            }
            q
        })
}

/// Runs the matrix's check for `q` on a clean session over `g` under
/// `dims`; a query whose labels fall outside the graph's label space is
/// rejected by `prepare` instead, and its answer must be empty.
fn check_random(g: &DataGraph, q: &PatternQuery, dims: &Dims) {
    if q.labels().iter().any(|&l| l as usize >= g.num_labels()) {
        assert!(oracle(g, q, false).is_empty(), "a rejected query had answers");
        assert!(Session::new(g.clone()).prepare(q).is_err());
        return;
    }
    let session = Session::with_config(g.clone(), dims.config());
    check(&session, q, dims, "random graph");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every engine's answer equals the oracle's, under dimensions
    /// sampled from `seed`.
    #[test]
    fn gm_equals_brute_force(g in graph_strategy(), q in query_strategy(), seed in 0u64..1000) {
        check_random(&g, &q, &Dims { store: testkit::Store::Clean, ..Dims::sample(seed) });
    }

    /// The simulation sandwich: every occurrence column is inside FB, and
    /// FB is inside the match set.
    #[test]
    fn simulation_sandwich(g in graph_strategy(), q in query_strategy()) {
        use rigmatch::sim::{double_simulation, SimContext, SimOptions};
        let truth = oracle(&g, &q, false);
        let bfl = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &bfl);
        let ms = ctx.match_sets();
        let fb = double_simulation(&ctx, &SimOptions::exact()).fb;
        for i in 0..q.num_nodes() {
            prop_assert!(fb[i].is_subset(&ms[i]));
            for t in &truth {
                prop_assert!(fb[i].contains(t[i]), "occurrence outside FB");
            }
        }
    }

    /// Prop. 4.1: the refined RIG contains the image of every
    /// homomorphism edge.
    #[test]
    fn rig_lossless(g in graph_strategy(), q in query_strategy()) {
        use rigmatch::rig::{build_rig, RigOptions};
        use rigmatch::sim::SimContext;
        let truth = oracle(&g, &q, false);
        let bfl = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &bfl);
        let rig = build_rig(&ctx, &RigOptions::exact());
        for t in &truth {
            for (eid, e) in q.edges().iter().enumerate() {
                let u = t[e.from as usize];
                let v = t[e.to as usize];
                let succ = rig.successors(eid as u32, u);
                prop_assert!(
                    succ.is_some_and(|s| s.contains(v)),
                    "edge {} image ({}, {}) missing from RIG", eid, u, v
                );
            }
        }
    }

    /// Thm. 5.2's bound instantiated with integral edge covers: the output
    /// size never exceeds the product of RIG edge-relation sizes over any
    /// edge subset covering all query nodes.
    #[test]
    fn agm_bound_integral_covers(g in graph_strategy(), q in query_strategy()) {
        use rigmatch::rig::{build_rig, RigOptions};
        use rigmatch::sim::SimContext;
        let bfl = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &bfl);
        let rig = build_rig(&ctx, &RigOptions::exact());
        let session = Session::with_config(g.clone(), GmConfig::exact());
        // out-of-label-space queries are rejected by prepare; their answer
        // is empty and trivially satisfies every bound
        let count = match session.prepare(&q) {
            Ok(p) => p.run().count().result.count,
            Err(_) => 0,
        };
        let m = q.num_edges();
        // enumerate all edge subsets (m ≤ ~7 here); those covering all
        // nodes give valid integral covers
        let mut best: Option<u64> = None;
        for mask in 1u32..(1 << m) {
            let mut covered = vec![false; q.num_nodes()];
            let mut product: u64 = 1;
            for (eid, e) in q.edges().iter().enumerate() {
                if mask & (1 << eid) != 0 {
                    covered[e.from as usize] = true;
                    covered[e.to as usize] = true;
                    product = product.saturating_mul(rig.edge_cardinality(eid as u32));
                }
            }
            if covered.iter().all(|&c| c) {
                best = Some(best.map_or(product, |b: u64| b.min(product)));
            }
        }
        if let Some(bound) = best {
            prop_assert!(count <= bound, "count {} exceeds AGM bound {}", count, bound);
        }
    }

    /// §3: transitive reduction yields an equivalent query.
    #[test]
    fn reduction_preserves_answers(g in graph_strategy(), q in query_strategy()) {
        let r = transitive_reduction(&q);
        prop_assert!(r.num_edges() <= q.num_edges());
        let a = oracle(&g, &q, false);
        let b = oracle(&g, &r, false);
        prop_assert_eq!(a, b, "reduction changed the answer");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Prop. 4.1, end to end: a RIG is lossless under *every* node-selection
    /// mode, so every engine's answer over each variant's RIG equals the
    /// oracle's.
    #[test]
    fn mjoin_over_rig_counts_equal_brute_force_all_select_modes(
        g in graph_strategy(),
        q in query_strategy(),
    ) {
        for select in SELECT_MODES {
            check_random(&g, &q, &Dims { select, ..Dims::clean() });
        }
    }
}
