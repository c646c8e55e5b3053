//! MJoin's suffix memo: below the plan's memo split, the search replays the
//! search it recorded while the runs that search reads from earlier
//! positions repeat, instead of searching it again.
//!
//! The named cases run the HQ0- and HQ13-shaped memo queries of the
//! testkit (a leaf bound before a branch that never reads it; reachability
//! edges into a suffix of shared runs) on the giant SCC, where inputs
//! repeat, under Jo, Ri and Bj. Limits, deadlines, sink stops and
//! injectivity must behave as without the memo.

mod testkit;

use std::time::Instant;

use rigmatch::graph::{GraphBuilder, NodeId};
use rigmatch::mjoin::{enumerate_sink, EnumOptions, FirstKSink, Plan, SearchOrder};
use rigmatch::rig::RigOptions;
use testkit::{
    check, graph, memo_free_steps, memo_shapes, oracle, query, rig, sequential, Dims, Regime,
    Shape, D, ORDERS, R, REGIMES,
};

/// A memo shape's giant-SCC graph and RIG.
fn giant(shape: &Shape) -> (rigmatch::graph::DataGraph, rigmatch::rig::Rig) {
    let g = graph(Regime::GiantScc, 1, shape.n, shape.labels);
    let rig = rig(&g, &shape.q, &RigOptions::default());
    (g, rig)
}

/// On the giant SCC every case has a memo split under Jo. The all-direct
/// HQ0 reads no shared run, so its split sits right after leaf node 1,
/// which no later step reads.
#[test]
fn memo_splits_follow_leaves_and_shared_runs() {
    for shape in memo_shapes() {
        let (_, rig) = giant(&shape);
        for order in ORDERS {
            let plan = Plan::new(&shape.q, &rig, &EnumOptions { order, ..Default::default() });
            let split = plan.memo_split();
            let ctx = format!("{} {order:?}: split {split:?} of {:?}", shape.name, plan.order);
            assert!(split.is_some() || order != SearchOrder::Jo, "{ctx}");
            if let Some(s) = split {
                assert!(s >= 1 && s + 2 <= plan.order.len(), "{ctx}");
                if shape.name == "HQ0 direct" {
                    assert_eq!(plan.order[s - 1], 1, "{ctx}");
                }
            }
        }
    }
}

/// The memo shapes in every regime through the matrix's check on a clean
/// store, each shape meeting every order across the regimes.
#[test]
fn tuples_equal_the_oracle_and_the_reference() {
    for (r, regime) in REGIMES.into_iter().enumerate() {
        for (s, shape) in memo_shapes().into_iter().enumerate() {
            let g = graph(regime, 1 + (r + s) as u64 % 2, shape.n, shape.labels);
            let dims = Dims { order: ORDERS[(r + s) % 3], ..Dims::clean() };
            let session = rigmatch::core::Session::with_config(g, dims.config());
            let what = format!("{regime:?} {}", shape.name);
            assert!(check(&session, &shape.q, &dims, &what).answers, "{what}: vacuous");
        }
    }
}

/// On the giant SCC the suffix's inputs repeat, so MJoin replays much of
/// the search: where the plan has a memo split, its steps fall to at most
/// two thirds of a memo-free search's in the same order; where it has
/// none, both count the same steps.
#[test]
fn replay_cuts_steps_on_the_giant_scc() {
    for shape in memo_shapes() {
        let (_, rig) = giant(&shape);
        for order in ORDERS {
            let opts = EnumOptions { order, ..Default::default() };
            let plan = Plan::new(&shape.q, &rig, &opts);
            let steps = testkit::count(&shape.q, &rig, &opts).steps;
            let free = memo_free_steps(&shape.q, &rig, &plan.order, u64::MAX);
            let ctx = format!("{} {order:?}: {steps} steps, memo-free {free}", shape.name);
            if plan.memo_split().is_some() {
                assert!(steps * 3 <= free * 2, "{ctx}");
            } else {
                assert_eq!(steps, free, "{ctx}");
            }
        }
    }
}

#[test]
fn limits_stopping_inside_a_replay_are_exact() {
    for shape in memo_shapes() {
        let (g, rig) = giant(&shape);
        let all = oracle(&g, &shape.q, false);
        let len = all.len() as u64;
        assert!(len > 50, "{}: {len} tuples", shape.name);
        for order in ORDERS {
            for limit in [1, 7, len / 3, len / 2, len - 1] {
                let opts = EnumOptions { order, limit: Some(limit), ..Default::default() };
                let (tuples, r) = sequential(&shape.q, &rig, &opts);
                let ctx = format!("{} {order:?} limit {limit}", shape.name);
                assert_eq!(r.count, limit, "{ctx}");
                assert!(r.limit_hit, "{ctx}");
                assert_eq!(tuples.len() as u64, limit, "{ctx}");
                assert!(tuples.windows(2).all(|w| w[0] != w[1]), "duplicate tuple, {ctx}");
                assert!(tuples.iter().all(|t| all.binary_search(t).is_ok()), "{ctx}");
            }
        }
    }
}

/// The first stop check reads the clock, so a run that replays notices a
/// past deadline at once.
#[test]
fn a_past_deadline_times_out() {
    for shape in memo_shapes() {
        let (_, rig) = giant(&shape);
        for order in ORDERS {
            let opts = EnumOptions { order, deadline: Some(Instant::now()), ..Default::default() };
            if Plan::new(&shape.q, &rig, &opts).memo_split().is_none() {
                continue;
            }
            let ctx = format!("{} {order:?}", shape.name);
            assert!(testkit::count(&shape.q, &rig, &opts).timed_out, "{ctx}");
        }
    }
}

#[test]
fn a_sink_stopping_mid_replay_stops_the_run() {
    for shape in memo_shapes() {
        let (g, rig) = giant(&shape);
        let all = oracle(&g, &shape.q, false);
        for order in ORDERS {
            let k = all.len() / 2;
            let mut sink = FirstKSink::new(k);
            let opts = EnumOptions { order, ..Default::default() };
            let r = enumerate_sink(&shape.q, &rig, &opts, &mut sink);
            let ctx = format!("{} {order:?}", shape.name);
            assert_eq!(r.count as usize, k, "{ctx}");
            assert!(!r.limit_hit && !r.timed_out, "{ctx}");
            assert!(sink.tuples.iter().all(|t| all.binary_search(t).is_ok()), "{ctx}");
        }
    }
}

/// Injective runs get no memo split; their answers are the oracle's.
#[test]
fn injective_answers_do_not_change() {
    for regime in REGIMES {
        for shape in memo_shapes() {
            let g = graph(regime, 1, shape.n, shape.labels);
            let iso = oracle(&g, &shape.q, true);
            let rig = rig(&g, &shape.q, &RigOptions::default());
            for order in ORDERS {
                let opts = EnumOptions { order, injective: true, ..Default::default() };
                let ctx = format!("{regime:?} {} {order:?}", shape.name);
                assert_eq!(Plan::new(&shape.q, &rig, &opts).memo_split(), None, "{ctx}");
                let (tuples, r) = sequential(&shape.q, &rig, &opts);
                assert_eq!(tuples, iso, "{ctx}");
                assert_eq!(r.count as usize, iso.len(), "{ctx}");
            }
        }
    }
}

/// A suffix of three steps whose recordings outgrow the memo's Σ|cos|
/// reservation: a reachability edge into a chain of direct edges, on a
/// complete one-label graph. Such a recording is dropped and the suffix is
/// searched again; the answer is still exact.
#[test]
fn an_overflowing_recording_is_not_replayed() {
    let m = 8;
    let mut b = GraphBuilder::new();
    for _ in 0..m {
        b.add_node(0);
    }
    for u in 0..m as NodeId {
        for v in 0..m as NodeId {
            if u != v {
                b.add_edge(u, v);
            }
        }
    }
    let g = b.build();
    let q = query(&[0; 4], &[(0, 1), (1, 2), (2, 3)], &[R, D, D]);
    let rig = rig(&g, &q, &RigOptions::default());
    let expect = oracle(&g, &q, false);
    // Jo's split leaves the three steps below the root, whose m·(m-1)
    // last-step calls outgrow Σ|cos| = 4m
    assert_eq!(Plan::new(&q, &rig, &EnumOptions::default()).memo_split(), Some(1));
    for order in ORDERS {
        let opts = EnumOptions { order, ..Default::default() };
        let plan = Plan::new(&q, &rig, &opts);
        let (tuples, _) = sequential(&q, &rig, &opts);
        assert_eq!(tuples, expect, "{order:?}, split {:?} of {:?}", plan.memo_split(), plan.order);
    }
}
