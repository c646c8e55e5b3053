//! Cross-engine differential matrix: on random graphs × random query
//! templates, the sequential CSR engine (`count`), the morsel-driven
//! parallel engine (`par_enumerate`, threads ∈ {2, 3, 8} by default) and the
//! pre-CSR reference implementation (`reference::ref_count`) must agree on
//! the occurrence count, across **all** `SelectMode` × `EdgeKind`
//! combinations and both data-driven search orders.
//!
//! The parallel thread counts are overridable via `RIGMATCH_THREADS`
//! (comma-separated, e.g. `RIGMATCH_THREADS=1,2,8`) so CI can sweep the
//! suite per thread count without recompiling.

use proptest::prelude::*;
use rig_graph::GraphBuilder;
use rig_index::reference::build_reference_rig;
use rig_index::{build_rig, RigOptions, SelectMode};
use rig_mjoin::reference::ref_count;
use rig_mjoin::{count, par_enumerate, CountSink, EnumOptions, ParOptions, SearchOrder};
use rig_query::{EdgeKind, PatternQuery};
use rig_reach::BflIndex;
use rig_sim::SimContext;

/// Thread counts under test: `RIGMATCH_THREADS` (comma list) or {2, 3, 8}.
#[allow(clippy::panic, reason = "a malformed RIGMATCH_THREADS must fail the test run loudly")]
fn thread_counts() -> Vec<usize> {
    match std::env::var("RIGMATCH_THREADS") {
        Ok(v) => v
            .split(',')
            .map(|p| p.trim().parse().unwrap_or_else(|_| panic!("bad RIGMATCH_THREADS part {p:?}")))
            .collect(),
        Err(_) => vec![2, 3, 8],
    }
}

/// Query templates: index picks the shape, `kinds` picks Direct vs
/// Reachability per edge — between them every EdgeKind combination on
/// every shape is reachable.
fn template_query(shape: usize, kinds: &[bool]) -> PatternQuery {
    let kind = |b: bool| if b { EdgeKind::Direct } else { EdgeKind::Reachability };
    match shape % 4 {
        // 3-path
        0 => {
            let mut q = PatternQuery::new(vec![0, 1, 2]);
            q.add_edge(0, 1, kind(kinds[0]));
            q.add_edge(1, 2, kind(kinds[1]));
            q
        }
        // triangle
        1 => {
            let mut q = PatternQuery::new(vec![0, 1, 2]);
            q.add_edge(0, 1, kind(kinds[0]));
            q.add_edge(1, 2, kind(kinds[1]));
            q.add_edge(0, 2, kind(kinds[2]));
            q
        }
        // star (center 0 out to three leaves)
        2 => {
            let mut q = PatternQuery::new(vec![0, 1, 2, 0]);
            q.add_edge(0, 1, kind(kinds[0]));
            q.add_edge(0, 2, kind(kinds[1]));
            q.add_edge(0, 3, kind(kinds[2]));
            q
        }
        // 4-cycle (diamond orientation, stays a DAG pattern)
        _ => {
            let mut q = PatternQuery::new(vec![0, 1, 2, 1]);
            q.add_edge(0, 1, kind(kinds[0]));
            q.add_edge(0, 3, kind(kinds[1]));
            q.add_edge(1, 2, kind(kinds[2]));
            q.add_edge(3, 2, kind(kinds[3]));
            q
        }
    }
}

fn setup_strategy() -> impl Strategy<Value = (rig_graph::DataGraph, PatternQuery)> {
    (
        prop::collection::vec(0u32..3, 6..28),
        prop::collection::vec((0u32..28, 0u32..28), 8..70),
        0usize..4,
        prop::collection::vec(prop::bool::ANY, 4),
    )
        .prop_map(|(labels, edges, shape, kinds)| {
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
            (b.build(), template_query(shape, &kinds))
        })
}

const ALL_SELECT_MODES: [SelectMode; 4] = [
    SelectMode::MatchSets,
    SelectMode::PrefilterOnly,
    SelectMode::SimOnly,
    SelectMode::PrefilterThenSim,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The agreement matrix: sequential == parallel (every thread count,
    /// two morsel sizes) == reference, for every selection mode and both
    /// data-driven orders.
    #[test]
    fn seq_par_reference_counts_agree((g, q) in setup_strategy()) {
        let bfl = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &bfl);
        let threads = thread_counts();
        for select in ALL_SELECT_MODES {
            let opts = RigOptions { select, ..RigOptions::exact() };
            let csr = build_rig(&ctx, &opts);
            let reference = build_reference_rig(&ctx, &opts);
            for order in [SearchOrder::Jo, SearchOrder::Ri] {
                let eo = EnumOptions { order, ..Default::default() };
                let seq = count(&q, &csr, &eo);
                let rf = ref_count(&q, &reference, &eo);
                prop_assert_eq!(
                    seq.count, rf.count,
                    "{:?} {:?}: sequential vs reference", select, order
                );
                prop_assert!(!seq.timed_out && !seq.limit_hit);
                for &t in &threads {
                    for morsel in [1usize, 64] {
                        let par_opts = ParOptions { threads: t, morsel };
                        let (sinks, par) =
                            par_enumerate(&q, &csr, &eo, &par_opts, |_| CountSink::default());
                        prop_assert_eq!(sinks.iter().map(|s| s.count).sum::<u64>(), par.count);
                        prop_assert_eq!(
                            par.count, seq.count,
                            "{:?} {:?} threads={} morsel={}", select, order, t, morsel
                        );
                        prop_assert!(!par.timed_out && !par.limit_hit);
                    }
                }
            }
        }
    }
}
