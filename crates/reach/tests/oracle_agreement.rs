//! Property tests: BFL and the materialized transitive closure must agree
//! with each other (and hence with ground truth) on arbitrary graphs,
//! including dense, cyclic and disconnected ones.

use proptest::prelude::*;
use rig_bitset::Bitset;
use rig_graph::{DataGraph, GraphBuilder, NodeId};
use rig_reach::{BflIndex, Condensation, IntervalLabels, Reachability, TransitiveClosure};

fn graph_strategy() -> impl Strategy<Value = rig_graph::DataGraph> {
    (2usize..40, prop::collection::vec((0u32..40, 0u32..40), 0..120)).prop_map(|(n, edges)| {
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_node(0);
        }
        for (u, v) in edges {
            let (u, v) = (u % n as u32, v % n as u32);
            b.add_edge(u, v); // self-loops allowed: cyclic SCC of size 1
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn bfl_equals_transitive_closure(g in graph_strategy()) {
        let bfl = BflIndex::new(&g);
        let tc = TransitiveClosure::new(&g);
        for u in 0..g.num_nodes() as NodeId {
            for v in 0..g.num_nodes() as NodeId {
                prop_assert_eq!(
                    bfl.reaches(u, v),
                    tc.reaches(u, v),
                    "u={} v={}", u, v
                );
            }
        }
    }

    #[test]
    fn set_reachability_equals_pointwise(g in graph_strategy(), seeds in prop::collection::vec(0u32..40, 1..5)) {
        let tc = TransitiveClosure::new(&g);
        let sources: rig_bitset::Bitset =
            seeds.iter().map(|&s| s % g.num_nodes() as u32).collect();
        let cond = Condensation::new(&g);
        let desc = cond.descendants_of_set(&sources);
        let anc = cond.ancestors_of_set(&sources);
        for v in 0..g.num_nodes() as NodeId {
            let expect_desc = sources.iter().any(|s| tc.reaches(s, v));
            let expect_anc = sources.iter().any(|s| tc.reaches(v, s));
            prop_assert_eq!(desc.contains(v), expect_desc, "desc v={}", v);
            prop_assert_eq!(anc.contains(v), expect_anc, "anc v={}", v);
        }
    }

    #[test]
    fn descendant_bitmaps_consistent(g in graph_strategy()) {
        let tc = TransitiveClosure::new(&g);
        for u in 0..g.num_nodes() as NodeId {
            let d = tc.descendants_of(u);
            for v in 0..g.num_nodes() as NodeId {
                prop_assert_eq!(d.contains(v), tc.reaches(u, v));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Differential tests against the remaining oracles: random *DAGs* (the
// strategy above freely generates cycles), and the DFS-interval index on the
// SCC condensation, whose negative cut and positive hit must both be sound
// with respect to the materialized transitive closure.
// ---------------------------------------------------------------------------

fn dag_strategy() -> impl Strategy<Value = rig_graph::DataGraph> {
    (2usize..40, prop::collection::vec((0u32..40, 0u32..40), 0..120)).prop_map(|(n, edges)| {
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_node(0);
        }
        for (u, v) in edges {
            let (u, v) = (u % n as u32, v % n as u32);
            // only forward edges in node order -> guaranteed acyclic
            if u < v {
                b.add_edge(u, v);
            }
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn bfl_equals_transitive_closure_on_dags(g in dag_strategy()) {
        let bfl = BflIndex::new(&g);
        let tc = TransitiveClosure::new(&g);
        for u in 0..g.num_nodes() as NodeId {
            // on a DAG no node lies on a cycle, so nothing reaches itself
            prop_assert!(!bfl.reaches(u, u));
            for v in 0..g.num_nodes() as NodeId {
                prop_assert_eq!(bfl.reaches(u, v), tc.reaches(u, v), "u={} v={}", u, v);
            }
        }
    }

    /// The DFS-interval labels on the condensation are a sound oracle: the
    /// negative cut never discards a reachable pair and the positive hit
    /// never invents one (checked on cyclic inputs, SCC-condensed).
    #[test]
    fn interval_oracle_sound_wrt_transitive_closure(g in graph_strategy()) {
        let bfl = BflIndex::new(&g);
        let tc = TransitiveClosure::new(&g);
        let cond = bfl.condensation();
        let intervals = IntervalLabels::new(cond);
        for u in 0..g.num_nodes() as NodeId {
            for v in 0..g.num_nodes() as NodeId {
                let (cu, cv) = (cond.component(u), cond.component(v));
                if cu == cv {
                    // intra-SCC pairs bypass the interval index entirely:
                    // reachable iff the component actually contains a cycle
                    let expect = cond.nontrivial[cu as usize];
                    prop_assert_eq!(tc.reaches(u, v), expect, "intra-SCC u={} v={}", u, v);
                    continue;
                }
                if intervals.cannot_reach(cu, cv) {
                    prop_assert!(!tc.reaches(u, v), "negative cut lied: u={} v={}", u, v);
                }
                if intervals.tree_descendant(cu, cv) {
                    prop_assert!(tc.reaches(u, v), "positive hit lied: u={} v={}", u, v);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The condensation sweeps that node selection uses must keep exactly the
// nodes that pointwise reachability probes certify: on arbitrary graphs, on DAGs
// (every component trivial) and on graphs of many small SCCs with self-loop
// singletons and, in half the cases, one giant SCC.
// ---------------------------------------------------------------------------

/// Blocks of 1–4 consecutive nodes, each block of two or more closed into a
/// cycle and some singletons given a self-loop; random edges run only from
/// a lower block to a higher one, so every block is its own SCC. With
/// `giant` set, a ring over the first half of the nodes merges their blocks
/// into one giant SCC.
fn scc_strategy() -> impl Strategy<Value = DataGraph> {
    (
        prop::collection::vec((1u32..5, prop::bool::ANY), 2..20),
        prop::collection::vec((0u32..80, 0u32..80), 0..80),
        prop::bool::ANY,
    )
        .prop_map(|(blocks, edges, giant)| {
            let mut b = GraphBuilder::new();
            let mut block_of = Vec::new();
            let mut start = 0u32;
            for (i, &(size, self_loop)) in blocks.iter().enumerate() {
                for _ in 0..size {
                    b.add_node(0);
                    block_of.push(i);
                }
                if size > 1 {
                    for k in 0..size {
                        b.add_edge(start + k, start + (k + 1) % size);
                    }
                } else if self_loop {
                    b.add_edge(start, start);
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
            let half = n / 2;
            if giant && half > 1 {
                for k in 0..half {
                    b.add_edge(k, (k + 1) % half);
                }
            }
            b.build()
        })
}

/// Source sets drawn from `seeds` (reduced modulo |V|), plus every single
/// node as its own source set.
fn source_sets(g: &DataGraph, seeds: &[Vec<u32>]) -> Vec<Bitset> {
    let n = g.num_nodes() as u32;
    let mut sets: Vec<Bitset> = seeds.iter().map(|s| s.iter().map(|&v| v % n).collect()).collect();
    sets.extend((0..n).map(|v| Bitset::from_slice(&[v])));
    sets
}

/// The condensation sweeps from each source set hold exactly the nodes
/// that pointwise BFL probes say a source reaches (descendants) or that
/// reach a source (ancestors).
fn assert_sweeps_agree(g: &DataGraph, seeds: &[Vec<u32>]) -> Result<(), TestCaseError> {
    let bfl = BflIndex::new(g);
    let cond = bfl.condensation();
    for sources in source_sets(g, seeds) {
        let desc = cond.descendants_of_set(&sources);
        let anc = cond.ancestors_of_set(&sources);
        for v in 0..g.num_nodes() as NodeId {
            let (in_desc, in_anc) = (desc.contains(v), anc.contains(v));
            let expect_desc = sources.iter().any(|s| bfl.reaches(s, v));
            let expect_anc = sources.iter().any(|s| bfl.reaches(v, s));
            prop_assert_eq!(in_desc, expect_desc, "desc v={} of {:?}", v, sources);
            prop_assert_eq!(in_anc, expect_anc, "anc v={} of {:?}", v, sources);
        }
    }
    Ok(())
}

fn seeds_strategy() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0u32..80, 0..12), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn condensation_sweep_equals_pointwise_bfl(g in graph_strategy(), seeds in seeds_strategy()) {
        assert_sweeps_agree(&g, &seeds)?;
    }

    #[test]
    fn condensation_sweep_equals_pointwise_bfl_on_dags(
        g in dag_strategy(),
        seeds in seeds_strategy(),
    ) {
        assert_sweeps_agree(&g, &seeds)?;
    }

    #[test]
    fn condensation_sweep_equals_pointwise_bfl_on_small_sccs(
        g in scc_strategy(),
        seeds in seeds_strategy(),
    ) {
        assert_sweeps_agree(&g, &seeds)?;
    }
}

/// The corner cases by hand: a trivial seed on a chain is not its own
/// descendant, a self-loop singleton is, and every member of a giant SCC
/// seeded by one member is.
#[test]
fn condensation_sweep_corner_cases() {
    // 0 -> 1 -> 2, 2 -> 2 (self-loop), 3 <-> 4 <-> 5 (one SCC), 2 -> 3
    let mut b = GraphBuilder::new();
    for _ in 0..6 {
        b.add_node(0);
    }
    for (u, v) in [(0, 1), (1, 2), (2, 2), (3, 4), (4, 5), (5, 3), (2, 3)] {
        b.add_edge(u, v);
    }
    let g = b.build();
    let bfl = BflIndex::new(&g);
    let cond = bfl.condensation();
    let members = |set: &rig_reach::ComponentSet<'_>| {
        (0..6).filter(|&v| set.contains(v)).collect::<Vec<NodeId>>()
    };
    let d = cond.descendants_of_set(&Bitset::from_slice(&[0]));
    assert_eq!(members(&d), vec![1, 2, 3, 4, 5]);
    let d = cond.descendants_of_set(&Bitset::from_slice(&[2]));
    assert_eq!(members(&d), vec![2, 3, 4, 5]);
    let d = cond.descendants_of_set(&Bitset::from_slice(&[0, 1]));
    assert_eq!(members(&d), vec![1, 2, 3, 4, 5]);
    let a = cond.ancestors_of_set(&Bitset::from_slice(&[4]));
    assert_eq!(members(&a), vec![0, 1, 2, 3, 4, 5]);
    let a = cond.ancestors_of_set(&Bitset::from_slice(&[1]));
    assert_eq!(members(&a), vec![0]);
    assert_eq!(members(&cond.descendants_of_set(&Bitset::new())), Vec::<NodeId>::new());
}
