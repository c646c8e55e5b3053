//! Property-based tests (proptest) for the core invariants:
//!
//! * the simulation sandwich `os(q) ⊆ FB(q) ⊆ ms(q)` (§4.2);
//! * RIG losslessness (Prop. 4.1);
//! * MJoin == brute-force homomorphism count;
//! * the AGM / worst-case-optimality bound of Thm. 5.2 for integral edge
//!   covers;
//! * transitive reduction preserves answers (§3, query equivalence).

use proptest::prelude::*;
use rigmatch::core::{GmConfig, Session};
use rigmatch::graph::{DataGraph, GraphBuilder, NodeId};
use rigmatch::query::{transitive_reduction, EdgeKind, PatternQuery};
use rigmatch::reach::{BflIndex, Reachability};

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

/// Brute-force homomorphism enumeration (ground truth).
fn brute_force(g: &DataGraph, q: &PatternQuery) -> Vec<Vec<NodeId>> {
    let bfl = BflIndex::new(g);
    let n = q.num_nodes();
    let mut out = Vec::new();
    let mut assign = vec![0 as NodeId; n];
    fn rec(
        d: usize,
        g: &DataGraph,
        q: &PatternQuery,
        bfl: &BflIndex,
        assign: &mut Vec<NodeId>,
        out: &mut Vec<Vec<NodeId>>,
    ) {
        if d == q.num_nodes() {
            out.push(assign.clone());
            return;
        }
        for v in 0..g.num_nodes() as NodeId {
            if g.label(v) != q.label(d as u32) {
                continue;
            }
            assign[d] = v;
            let ok = q.edges().iter().all(|e| {
                let (f, t) = (e.from as usize, e.to as usize);
                if f > d || t > d {
                    return true;
                }
                match e.kind {
                    EdgeKind::Direct => g.has_edge(assign[f], assign[t]),
                    EdgeKind::Reachability => bfl.reaches(assign[f], assign[t]),
                }
            });
            if ok {
                rec(d + 1, g, q, bfl, assign, out);
            }
        }
    }
    rec(0, g, q, &bfl, &mut assign, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// MJoin's answer equals brute force, and FB sandwiches os/ms.
    #[test]
    fn gm_equals_brute_force(g in graph_strategy(), q in query_strategy()) {
        let truth = brute_force(&g, &q);
        let session = Session::with_config(g.clone(), GmConfig::exact());
        match session.prepare(&q) {
            // random labels can fall outside the random graph's label
            // space; prepare rejects those, whose answer is empty
            Err(_) => prop_assert!(truth.is_empty(), "rejected query had answers"),
            Ok(prepared) => {
                let (mut tuples, outcome) = prepared.run().collect_all();
                prop_assert_eq!(outcome.result.count as usize, truth.len());
                let mut expect = truth.clone();
                expect.sort();
                tuples.sort();
                prop_assert_eq!(tuples, expect);
            }
        }
    }

    /// The simulation sandwich: every occurrence column is inside FB, and
    /// FB is inside the match set.
    #[test]
    fn simulation_sandwich(g in graph_strategy(), q in query_strategy()) {
        use rigmatch::sim::{double_simulation, SimContext, SimOptions};
        let truth = brute_force(&g, &q);
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
        let truth = brute_force(&g, &q);
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
        let a = brute_force(&g, &q).len();
        let b = brute_force(&g, &r).len();
        prop_assert_eq!(a, b, "reduction changed the answer");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Prop. 4.1, end to end: a RIG is lossless under *every* node-selection
    /// mode, so MJoin's occurrence count over each variant's RIG equals the
    /// naive brute-force homomorphism count.
    #[test]
    fn mjoin_over_rig_counts_equal_brute_force_all_select_modes(
        g in graph_strategy(),
        q in query_strategy(),
    ) {
        use rigmatch::mjoin::{count, EnumOptions};
        use rigmatch::rig::{build_rig, RigOptions, SelectMode};
        use rigmatch::sim::SimContext;

        let truth = brute_force(&g, &q).len() as u64;
        let bfl = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &bfl);
        for mode in [
            SelectMode::PrefilterThenSim,
            SelectMode::SimOnly,
            SelectMode::PrefilterOnly,
            SelectMode::MatchSets,
        ] {
            let rig = build_rig(&ctx, &RigOptions { select: mode, ..RigOptions::exact() });
            let res = count(&q, &rig, &EnumOptions::default());
            prop_assert_eq!(res.count, truth, "select mode {:?}", mode);
            prop_assert!(!res.timed_out);
            prop_assert!(!res.limit_hit);
        }
    }
}
