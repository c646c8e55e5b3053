//! MJoin's suffix memo: below the plan's memo split, a worker replays the
//! search it recorded while the runs that search reads from earlier
//! positions repeat, instead of searching it again.
//!
//! The differential checks run on three graph regimes: one giant SCC
//! (every reachability run shared, so inputs repeat), many small SCCs, and
//! a DAG (one run per source). The queries are HQ0-shaped (a leaf bound
//! before a branch that never reads it) and HQ13-shaped (reachability edges
//! into the suffix, whose runs are shared per SCC), under Jo, Ri and Bj.
//! Every answer must equal a brute-force oracle and the reference engine,
//! and limits, deadlines, sink stops, two workers and injectivity must
//! behave as without the memo.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rig_graph::{DataGraph, GraphBuilder, NodeId};
use rig_index::reference::build_reference_rig;
use rig_index::{build_rig, Rig, RigOptions};
use rig_mjoin::reference::ref_enumerate;
use rig_mjoin::{
    collect, count, enumerate_sink, par_enumerate, CollectSink, EnumOptions, EnumResult,
    FirstKSink, ParOptions, Plan, SearchOrder,
};
use rig_query::{EdgeKind, PatternQuery};
use rig_reach::{BflIndex, Reachability};
use rig_sim::SimContext;

const ORDERS: [SearchOrder; 3] = [SearchOrder::Jo, SearchOrder::Ri, SearchOrder::Bj];
const D: EdgeKind = EdgeKind::Direct;
const R: EdgeKind = EdgeKind::Reachability;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Regime {
    /// A Hamiltonian cycle plus chords: every node in one SCC.
    GiantScc,
    /// Cycles of three consecutive nodes, joined by edges from earlier to
    /// later groups only.
    SmallSccs,
    /// Edges from lower to higher ids only: every SCC is one node.
    Dag,
}

const REGIMES: [Regime; 3] = [Regime::GiantScc, Regime::SmallSccs, Regime::Dag];

/// A graph of `n` nodes (a multiple of 3) over `labels` labels.
fn graph(regime: Regime, seed: u64, n: usize, labels: u32) -> DataGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    // labels cycle with the id, so every label class spans the whole
    // id range (the DAG's topological order)
    for i in 0..n {
        b.add_node(i as u32 % labels);
    }
    let node = |i: usize| i as NodeId;
    match regime {
        Regime::GiantScc => (0..n).for_each(|i| b.add_edge(node(i), node((i + 1) % n))),
        Regime::SmallSccs => (0..n).step_by(3).for_each(|g| {
            b.add_edge(node(g), node(g + 1));
            b.add_edge(node(g + 1), node(g + 2));
            b.add_edge(node(g + 2), node(g));
        }),
        Regime::Dag => {}
    }
    // the acyclic regimes need more edges for non-trivial answers
    let extra = match regime {
        Regime::GiantScc => 3 * n,
        Regime::SmallSccs => 6 * n,
        Regime::Dag => 10 * n,
    };
    for _ in 0..extra {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let keep = match regime {
            Regime::GiantScc => u != v,
            Regime::SmallSccs => u / 3 < v / 3,
            Regime::Dag => u < v,
        };
        if keep {
            b.add_edge(node(u), node(v));
        }
    }
    b.build()
}

fn query(labels: &[u32], edges: &[(u32, u32)], kinds: &[EdgeKind]) -> PatternQuery {
    let mut q = PatternQuery::new(labels.to_vec());
    for (&(from, to), &kind) in edges.iter().zip(kinds) {
        q.add_edge(from, to, kind);
    }
    q
}

const HQ0: [(u32, u32); 3] = [(0, 1), (0, 2), (2, 3)];
const HQ13: [(u32, u32); 10] =
    [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 6), (5, 6), (2, 6)];

/// One test case: a query and the graph size it is run at (the oracle is
/// exhaustive, so the 7-node HQ13 runs on a smaller graph).
struct Case {
    name: &'static str,
    q: PatternQuery,
    n: usize,
    labels: u32,
}

fn cases() -> Vec<Case> {
    vec![
        // direct edges store one run per source: the split qualifies only
        // through a leaf no later step reads
        Case { name: "HQ0 direct", q: query(&[0, 1, 1, 0], &HQ0, &[D; 3]), n: 30, labels: 2 },
        Case { name: "HQ0 hybrid", q: query(&[0, 1, 1, 0], &HQ0, &[D, R, R]), n: 30, labels: 2 },
        Case {
            name: "HQ13 hybrid",
            q: query(&[0, 1, 2, 0, 1, 2, 0], &HQ13, &[R, R, D, R, R, R, R, R, D, R]),
            n: 18,
            labels: 3,
        },
    ]
}

fn ctx_rig(g: &DataGraph, q: &PatternQuery) -> Rig {
    let bfl = BflIndex::new(g);
    let ctx = SimContext::new(g, q, &bfl);
    build_rig(&ctx, &bfl, &RigOptions::default())
}

/// Every occurrence by exhaustive search over the data graph, sorted.
fn oracle(g: &DataGraph, q: &PatternQuery, injective: bool) -> Vec<Vec<NodeId>> {
    fn rec(
        g: &DataGraph,
        q: &PatternQuery,
        bfl: &BflIndex,
        assign: &mut Vec<NodeId>,
        out: &mut Vec<Vec<NodeId>>,
    ) {
        let d = assign.len();
        if d == q.num_nodes() {
            out.push(assign.clone());
            return;
        }
        for v in 0..g.num_nodes() as NodeId {
            if g.label(v) != q.label(d as u32) {
                continue;
            }
            assign.push(v);
            let ok = q.edges().iter().all(|e| {
                let (f, t) = (e.from as usize, e.to as usize);
                f > d
                    || t > d
                    || match e.kind {
                        EdgeKind::Direct => g.has_edge(assign[f], assign[t]),
                        EdgeKind::Reachability => bfl.reaches(assign[f], assign[t]),
                    }
            });
            if ok {
                rec(g, q, bfl, assign, out);
            }
            assign.pop();
        }
    }
    let bfl = BflIndex::new(g);
    let mut out = Vec::new();
    rec(g, q, &bfl, &mut Vec::new(), &mut out);
    if injective {
        out.retain(|t| (1..t.len()).all(|i| !t[..i].contains(&t[i])));
    }
    out.sort_unstable();
    out
}

/// The reference (pre-CSR, memo-free) engine's sorted tuples and result.
fn reference(g: &DataGraph, q: &PatternQuery, opts: &EnumOptions) -> (Vec<Vec<NodeId>>, u64) {
    let bfl = BflIndex::new(g);
    let ctx = SimContext::new(g, q, &bfl);
    let rig = build_reference_rig(&ctx, &RigOptions::default());
    let mut tuples = Vec::new();
    let r = ref_enumerate(q, &rig, opts, |t| {
        tuples.push(t.to_vec());
        true
    });
    tuples.sort_unstable();
    (tuples, r.steps)
}

fn sequential(q: &PatternQuery, rig: &Rig, opts: &EnumOptions) -> (Vec<Vec<NodeId>>, EnumResult) {
    let (mut tuples, r) = collect(q, rig, opts, usize::MAX);
    tuples.sort_unstable();
    (tuples, r)
}

/// Two workers claiming one root position at a time, so each worker's
/// memo carries over between morsels.
fn parallel(q: &PatternQuery, rig: &Rig, opts: &EnumOptions) -> (Vec<Vec<NodeId>>, EnumResult) {
    let par = ParOptions { threads: 2, morsel: 1 };
    let (sinks, r) = par_enumerate(q, rig, opts, &par, |_| CollectSink::default());
    let mut tuples: Vec<_> = sinks.into_iter().flat_map(|s| s.tuples).collect();
    tuples.sort_unstable();
    (tuples, r)
}

/// On the giant SCC every case has a memo split under Jo. The all-direct
/// HQ0 reads no shared run, so its split sits right after leaf node 1,
/// which no later step reads.
#[test]
fn memo_splits_follow_leaves_and_shared_runs() {
    for case in cases() {
        let g = graph(Regime::GiantScc, 1, case.n, case.labels);
        let rig = ctx_rig(&g, &case.q);
        for order in ORDERS {
            let plan = Plan::new(&case.q, &rig, &EnumOptions { order, ..Default::default() });
            let split = plan.memo_split();
            let ctx = format!("{} {order:?}: split {split:?} of {:?}", case.name, plan.order);
            assert!(split.is_some() || order != SearchOrder::Jo, "{ctx}");
            if let Some(s) = split {
                assert!(s >= 1 && s + 2 <= plan.order.len(), "{ctx}");
                if case.name == "HQ0 direct" {
                    assert_eq!(plan.order[s - 1], 1, "{ctx}");
                }
            }
        }
    }
}

#[test]
fn tuples_equal_the_oracle_and_the_reference() {
    for regime in REGIMES {
        for seed in 1..3 {
            for case in cases() {
                let g = graph(regime, seed, case.n, case.labels);
                let expect = oracle(&g, &case.q, false);
                assert!(!expect.is_empty(), "{regime:?} seed {seed} {}: vacuous", case.name);
                let rig = ctx_rig(&g, &case.q);
                for order in ORDERS {
                    let opts = EnumOptions { order, ..Default::default() };
                    let ctx = format!("{regime:?} seed {seed} {} {order:?}", case.name);
                    let (seq, r) = sequential(&case.q, &rig, &opts);
                    assert_eq!(seq, expect, "sequential, {ctx}");
                    assert_eq!(r.count as usize, expect.len(), "{ctx}");
                    assert!(!r.limit_hit && !r.timed_out, "{ctx}");
                    assert_eq!(reference(&g, &case.q, &opts).0, expect, "reference, {ctx}");
                    assert_eq!(parallel(&case.q, &rig, &opts).0, expect, "2 threads, {ctx}");
                }
            }
        }
    }
}

/// On the giant SCC the suffix's inputs repeat, so MJoin replays much of
/// the search: where the plan has a memo split, its steps fall to at most
/// two thirds of the memo-free reference engine's; where it has none, both
/// engines count the same steps.
#[test]
fn replay_cuts_steps_on_the_giant_scc() {
    for case in cases() {
        let g = graph(Regime::GiantScc, 1, case.n, case.labels);
        let rig = ctx_rig(&g, &case.q);
        // the reference engine orders Bj as Jo
        for order in [SearchOrder::Jo, SearchOrder::Ri] {
            let opts = EnumOptions { order, ..Default::default() };
            let r = count(&case.q, &rig, &opts);
            let (_, ref_steps) = reference(&g, &case.q, &opts);
            let ctx =
                format!("{} {order:?}: {} steps, the reference {ref_steps}", case.name, r.steps);
            if Plan::new(&case.q, &rig, &opts).memo_split().is_some() {
                assert!(r.steps * 3 <= ref_steps * 2, "{ctx}");
            } else {
                assert_eq!(r.steps, ref_steps, "{ctx}");
            }
        }
    }
}

#[test]
fn limits_stopping_inside_a_replay_are_exact() {
    for case in cases() {
        let g = graph(Regime::GiantScc, 1, case.n, case.labels);
        let all = oracle(&g, &case.q, false);
        let rig = ctx_rig(&g, &case.q);
        let len = all.len() as u64;
        assert!(len > 50, "{}: {len} tuples", case.name);
        for order in ORDERS {
            for limit in [1, 7, len / 3, len / 2, len - 1] {
                let opts = EnumOptions { order, limit: Some(limit), ..Default::default() };
                for (engine, (tuples, r)) in [
                    ("sequential", sequential(&case.q, &rig, &opts)),
                    ("2 threads", parallel(&case.q, &rig, &opts)),
                ] {
                    let ctx = format!("{engine} {} {order:?} limit {limit}", case.name);
                    assert_eq!(r.count, limit, "{ctx}");
                    assert!(r.limit_hit, "{ctx}");
                    assert_eq!(tuples.len() as u64, limit, "{ctx}");
                    assert!(tuples.windows(2).all(|w| w[0] != w[1]), "duplicate tuple, {ctx}");
                    assert!(tuples.iter().all(|t| all.binary_search(t).is_ok()), "{ctx}");
                }
            }
        }
    }
}

/// A replay polls the deadline, so a run that replays notices a past
/// deadline even when it takes fewer steps than the periodic poll's
/// interval; parallel workers check it before claiming work.
#[test]
fn a_past_deadline_times_out() {
    for case in cases() {
        let g = graph(Regime::GiantScc, 1, case.n, case.labels);
        let rig = ctx_rig(&g, &case.q);
        for order in ORDERS {
            let opts = EnumOptions { order, timeout: Some(Duration::ZERO), ..Default::default() };
            if Plan::new(&case.q, &rig, &opts).memo_split().is_none() {
                continue;
            }
            let ctx = format!("{} {order:?}", case.name);
            let r = count(&case.q, &rig, &opts);
            assert!(r.timed_out, "sequential, {ctx}");
            assert!(parallel(&case.q, &rig, &opts).1.timed_out, "2 threads, {ctx}");
        }
    }
}

#[test]
fn a_sink_stopping_mid_replay_stops_the_run() {
    for case in cases() {
        let g = graph(Regime::GiantScc, 1, case.n, case.labels);
        let all = oracle(&g, &case.q, false);
        let rig = ctx_rig(&g, &case.q);
        for order in ORDERS {
            let k = all.len() / 2;
            let mut sink = FirstKSink::new(k);
            let r = enumerate_sink(
                &case.q,
                &rig,
                &EnumOptions { order, ..Default::default() },
                &mut sink,
            );
            let ctx = format!("{} {order:?}", case.name);
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
        for case in cases() {
            let g = graph(regime, 1, case.n, case.labels);
            let iso = oracle(&g, &case.q, true);
            let rig = ctx_rig(&g, &case.q);
            for order in ORDERS {
                let opts = EnumOptions { order, injective: true, ..Default::default() };
                let ctx = format!("{regime:?} {} {order:?}", case.name);
                assert_eq!(Plan::new(&case.q, &rig, &opts).memo_split(), None, "{ctx}");
                let (tuples, r) = sequential(&case.q, &rig, &opts);
                assert_eq!(tuples, iso, "{ctx}");
                assert_eq!(r.count as usize, iso.len(), "{ctx}");
                assert_eq!(parallel(&case.q, &rig, &opts).0, iso, "2 threads, {ctx}");
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
    let rig = ctx_rig(&g, &q);
    let expect = oracle(&g, &q, false);
    // Jo's split leaves the three steps below the root, whose m·(m-1)
    // last-step calls outgrow Σ|cos| = 4m
    assert_eq!(Plan::new(&q, &rig, &EnumOptions::default()).memo_split(), Some(1));
    for order in ORDERS {
        let opts = EnumOptions { order, ..Default::default() };
        let plan = Plan::new(&q, &rig, &opts);
        let (tuples, _) = sequential(&q, &rig, &opts);
        assert_eq!(tuples, expect, "{order:?}, split {:?} of {:?}", plan.memo_split(), plan.order);
        assert_eq!(parallel(&q, &rig, &opts).0, expect, "2 threads, {order:?}");
    }
}
