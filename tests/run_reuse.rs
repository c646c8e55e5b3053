//! MJoin over shared and per-source adjacency runs.
//!
//! A reachability RIG edge stores one run per source SCC, so the bindings
//! of one search step often hand a later step the *same* operand runs, and
//! the engine reuses that step's intersection instead of recomputing it.
//! The last search step emits its candidates in place instead of recursing.
//! The named cases pin both paths on the testkit's HQ6- and HQ8-shaped
//! diamonds, whose closing node intersects two runs below a varying
//! earlier step.

mod testkit;

use rigmatch::core::Session;
use rigmatch::graph::NodeId;
use rigmatch::mjoin::{EnumOptions, SearchOrder};
use rigmatch::query::{EdgeKind, PatternQuery};
use rigmatch::rig::{Rig, RigOptions};
use testkit::{check, diamond_shapes, graph, oracle, rig, sequential, Dims, Regime};

const ORDERS: [SearchOrder; 2] = [SearchOrder::Jo, SearchOrder::Ri];

/// The all-reachability HQ6 diamond on `regime`.
fn hq6(regime: Regime, seed: u64) -> (rigmatch::graph::DataGraph, PatternQuery, Rig) {
    let shape = diamond_shapes().swap_remove(0);
    let g = graph(regime, seed, shape.n, shape.labels);
    let rig = rig(&g, &shape.q, &RigOptions::default());
    (g, shape.q, rig)
}

/// True iff two sources of some reachability edge share one stored run.
fn shares_runs(q: &PatternQuery, rig: &Rig) -> bool {
    q.edges().iter().enumerate().any(|(eid, e)| {
        let n_src = rig.cos_len(e.from) as u32;
        e.kind == EdgeKind::Reachability
            && (1..n_src).any(|u| {
                let (a, b) =
                    (rig.successors_local(eid as u32, u - 1), rig.successors_local(eid as u32, u));
                !a.is_empty() && a.list.as_ptr() == b.list.as_ptr()
            })
    })
}

#[test]
fn regimes_have_the_intended_run_structure() {
    for seed in 0..3 {
        let (_, q, giant) = hq6(Regime::GiantScc, seed);
        assert!(shares_runs(&q, &giant), "seed {seed}");
        let (_, q, dag) = hq6(Regime::Dag, seed);
        assert!(!shares_runs(&q, &dag), "seed {seed}");
    }
}

/// The diamonds in every regime under Jo and Ri, through the matrix's
/// check on a clean store.
#[test]
fn tuples_equal_the_oracle_in_every_regime() {
    for (r, regime) in testkit::REGIMES.into_iter().enumerate() {
        for (s, shape) in diamond_shapes().into_iter().enumerate() {
            for order in ORDERS {
                let g = graph(regime, (r + s) as u64 % 3, shape.n, shape.labels);
                let dims = Dims { order, ..Dims::clean() };
                let session = Session::with_config(g, dims.config());
                let what = format!("{regime:?} {}", shape.name);
                assert!(check(&session, &shape.q, &dims, &what).answers, "{what}: vacuous");
            }
        }
    }
}

#[test]
fn limit_running_out_in_the_last_step_is_exact() {
    let (g, q, rig) = hq6(Regime::GiantScc, 1);
    let all = oracle(&g, &q, false);
    // in one SCC every reachability edge holds, so each last-step loop of
    // this all-reachability diamond has one candidate per data node of the
    // last query node's label: limits 1, 2 and 5 stop inside the first one
    let class = |l: u32| (0..g.num_nodes()).filter(|&v| g.label(v as NodeId) == l).count();
    assert!((0..2).all(|l| class(l) > 5));
    assert!(all.len() > 100);
    for order in ORDERS {
        for limit in [1u64, 2, 5, 100, all.len() as u64 - 1] {
            let opts = EnumOptions { order, limit: Some(limit), ..Default::default() };
            let (tuples, r) = sequential(&q, &rig, &opts);
            let ctx = format!("{order:?} limit {limit}");
            assert_eq!(r.count, limit, "{ctx}");
            assert!(r.limit_hit, "{ctx}");
            assert_eq!(tuples.len() as u64, limit, "{ctx}");
            assert!(tuples.windows(2).all(|w| w[0] != w[1]), "duplicate tuple, {ctx}");
            assert!(tuples.iter().all(|t| all.binary_search(t).is_ok()), "{ctx}");
        }
    }
}

#[test]
fn injective_drops_a_last_step_candidate_bound_earlier() {
    // HQ6 all-reachability: query nodes 0 and 3 share a label, and in one
    // SCC node 3 can map to the data node bound to node 0. The RI order
    // binds node 0 first and node 3 last (and the JO order binds node 3
    // after at least one of its neighbours).
    for regime in testkit::REGIMES {
        let (g, q, rig) = hq6(regime, 1);
        let homo = oracle(&g, &q, false);
        let iso = oracle(&g, &q, true);
        if regime == Regime::GiantScc {
            assert!(homo.iter().any(|t| t[0] == t[3]), "the drop is exercised");
            assert!(iso.len() < homo.len());
        }
        for order in ORDERS {
            let opts = EnumOptions { order, injective: true, ..Default::default() };
            let ctx = format!("{regime:?} {order:?}");
            assert_eq!(sequential(&q, &rig, &opts).0, iso, "{ctx}");
        }
    }
}
