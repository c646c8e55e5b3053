//! Differential testing: the CSR RIG + allocation-free MJoin engine must be
//! observationally identical to the pre-CSR reference implementation
//! (hashmap-of-bitsets RIG + materializing multi_and engine) — identical
//! candidate sets, adjacency in both directions, edge cardinalities and
//! enumeration counts — across all `SelectMode` × `EdgeKind` combinations
//! on random graphs.

use proptest::prelude::*;
use rig_graph::GraphBuilder;
use rig_index::reference::build_reference_rig;
use rig_index::{build_rig, RigOptions, SelectMode};
use rig_mjoin::reference::ref_count;
use rig_mjoin::{count, EnumOptions, SearchOrder};
use rig_query::{EdgeKind, PatternQuery};
use rig_reach::BflIndex;
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
            // triangle pattern exercising every EdgeKind combination
            let mut q = PatternQuery::new(vec![0, 1, 2]);
            let kind = |b: bool| if b { EdgeKind::Direct } else { EdgeKind::Reachability };
            q.add_edge(0, 1, kind(kinds[0]));
            q.add_edge(1, 2, kind(kinds[1]));
            q.add_edge(0, 2, kind(kinds[2]));
            (g, q)
        })
}

const ALL_SELECT_MODES: [SelectMode; 4] = [
    SelectMode::MatchSets,
    SelectMode::PrefilterOnly,
    SelectMode::SimOnly,
    SelectMode::PrefilterThenSim,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Structural agreement: cos / successors / predecessors /
    /// edge_cardinality identical between CSR and reference.
    ///
    /// Exact (fixpoint) simulation is used so that the seeded selection of
    /// the CSR build and the intersect-after selection of the reference
    /// build provably converge to the same FB relation.
    #[test]
    fn structures_agree((g, q) in setup_strategy()) {
        let bfl = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &bfl);
        for select in ALL_SELECT_MODES {
            let opts = RigOptions { select, ..RigOptions::exact() };
            let csr = build_rig(&ctx, &opts);
            let reference = build_reference_rig(&ctx, &opts);
            for i in 0..q.num_nodes() {
                prop_assert_eq!(
                    csr.cos(i).to_vec(),
                    reference.cos[i].to_vec(),
                    "{:?}: cos({}) differs", select, i
                );
            }
            for eid in 0..q.num_edges() as u32 {
                prop_assert_eq!(
                    csr.edge_cardinality(eid),
                    reference.edge_cardinality(eid),
                    "{:?}: |cos(e{})| differs", select, eid
                );
                let (p, t) = csr.edge_endpoints(eid);
                for u in csr.cos(p).iter() {
                    prop_assert_eq!(
                        csr.successors(eid, u).map(|s| s.to_vec()),
                        reference.successors(eid, u).map(|s| s.to_vec()),
                        "{:?}: successors(e{}, {}) differ", select, eid, u
                    );
                }
                for v in csr.cos(t).iter() {
                    prop_assert_eq!(
                        csr.predecessors(eid, v).map(|s| s.to_vec()),
                        reference.predecessors(eid, v).map(|s| s.to_vec()),
                        "{:?}: predecessors(e{}, {}) differ", select, eid, v
                    );
                }
            }
        }
    }

    /// Behavioral agreement: MJoin counts identical across engines, search
    /// orders, selection modes and injectivity.
    #[test]
    fn mjoin_counts_agree((g, q) in setup_strategy()) {
        let bfl = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &bfl);
        for select in ALL_SELECT_MODES {
            let opts = RigOptions { select, ..RigOptions::exact() };
            let csr = build_rig(&ctx, &opts);
            let reference = build_reference_rig(&ctx, &opts);
            for order in [SearchOrder::Jo, SearchOrder::Ri] {
                for injective in [false, true] {
                    let eo = EnumOptions { order, injective, ..Default::default() };
                    let a = count(&q, &csr, &eo);
                    let b = ref_count(&q, &reference, &eo);
                    prop_assert_eq!(
                        a.count, b.count,
                        "{:?} {:?} injective={}", select, order, injective
                    );
                }
            }
        }
    }
}
