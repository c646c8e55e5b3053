//! Randomized agreement between the CSR RIG's reachability expansion
//! (per-pair BFL probes with the interval cut, one run per SCC) and the
//! reference RIG's per-source DFS, which uses neither the index nor the
//! cut; and invariants of the RIG adjacency structure.

use proptest::prelude::*;
use rig_graph::{DataGraph, GraphBuilder};
use rig_index::reference::{build_reference_rig, RefRig};
use rig_index::{build_rig, Rig, RigOptions, SelectMode};
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
        let rig = build_rig(&ctx, &bfl, &opts);
        assert_matches_reference(&q, &build_reference_rig(&ctx, &opts), &rig, "exact")?;
    }

    /// Forward and backward RIG adjacency must mirror each other exactly.
    #[test]
    fn forward_backward_adjacency_mirror((g, q) in setup_strategy()) {
        let bfl = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &bfl);
        let rig = build_rig(&ctx, &bfl, &RigOptions::exact());
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
        let rig = build_rig(&ctx, &bfl, &RigOptions::exact());
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
        let shared = build_rig(&ctx, &bfl, &opts);
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
