//! MJoin over shared and per-source adjacency runs.
//!
//! A reachability RIG edge stores one run per source SCC, so the bindings
//! of one search step often hand a later step the *same* operand runs, and
//! the engine reuses that step's intersection instead of recomputing it.
//! The last search step emits its candidates in place instead of recursing.
//! These tests pin both paths against a brute-force oracle on three graph
//! regimes: one giant SCC (shared runs), many small SCCs, and a DAG (one
//! run per source). The queries are HQ6- and HQ8-shaped diamonds, whose
//! closing node intersects two runs below a varying earlier step.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rig_graph::{DataGraph, GraphBuilder, NodeId};
use rig_index::{build_rig, Rig, RigOptions};
use rig_mjoin::{collect, par_enumerate, CollectSink, EnumOptions, ParOptions, SearchOrder};
use rig_query::{EdgeKind, PatternQuery};
use rig_reach::{BflIndex, Reachability};
use rig_sim::SimContext;

const N: usize = 24;
const LABELS: u32 = 2;
const ORDERS: [SearchOrder; 2] = [SearchOrder::Jo, SearchOrder::Ri];

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

fn graph(regime: Regime, seed: u64) -> DataGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    for _ in 0..N {
        b.add_node(rng.gen_range(0..LABELS));
    }
    let node = |i: usize| i as NodeId;
    match regime {
        Regime::GiantScc => {
            for i in 0..N {
                b.add_edge(node(i), node((i + 1) % N));
            }
        }
        Regime::SmallSccs => {
            for g in (0..N).step_by(3) {
                b.add_edge(node(g), node(g + 1));
                b.add_edge(node(g + 1), node(g + 2));
                b.add_edge(node(g + 2), node(g));
            }
        }
        Regime::Dag => {}
    }
    // the acyclic regimes need more edges for non-trivial diamond answers
    let extra = match regime {
        Regime::GiantScc => 40,
        Regime::SmallSccs => 100,
        Regime::Dag => 160,
    };
    for _ in 0..extra {
        let u = rng.gen_range(0..N);
        let v = rng.gen_range(0..N);
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

const HQ6: [(u32, u32); 4] = [(0, 1), (0, 2), (1, 3), (2, 3)];
const HQ8: [(u32, u32); 7] = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)];
const D: EdgeKind = EdgeKind::Direct;
const R: EdgeKind = EdgeKind::Reachability;

/// HQ6 with only reachability edges, HQ6 hybrid, and HQ8 hybrid. Two
/// labels, so the closing node of each diamond shares its source's label.
fn queries() -> Vec<PatternQuery> {
    vec![
        query(&[0, 1, 1, 0], &HQ6, &[R; 4]),
        query(&[0, 1, 1, 0], &HQ6, &[D, R, R, D]),
        query(&[0, 1, 1, 0, 1, 0], &HQ8, &[D, R, D, R, D, R, R]),
    ]
}

fn rig_of(g: &DataGraph, q: &PatternQuery) -> Rig {
    let bfl = BflIndex::new(g);
    let ctx = SimContext::new(g, q, &bfl);
    build_rig(&ctx, &RigOptions::default())
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

fn sequential(q: &PatternQuery, rig: &Rig, opts: &EnumOptions) -> (Vec<Vec<NodeId>>, u64, bool) {
    let (mut tuples, r) = collect(q, rig, opts, usize::MAX);
    tuples.sort_unstable();
    (tuples, r.count, r.limit_hit)
}

/// Two workers claiming one root position at a time, so each worker's
/// per-depth scratch carries over between morsels.
fn parallel(q: &PatternQuery, rig: &Rig, opts: &EnumOptions) -> (Vec<Vec<NodeId>>, u64, bool) {
    let par = ParOptions { threads: 2, morsel: 1 };
    let (sinks, r) = par_enumerate(q, rig, opts, &par, |_| CollectSink::default());
    let mut tuples: Vec<_> = sinks.into_iter().flat_map(|s| s.tuples).collect();
    tuples.sort_unstable();
    (tuples, r.count, r.limit_hit)
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
    let q = &queries()[0];
    for seed in 0..3 {
        assert!(shares_runs(q, &rig_of(&graph(Regime::GiantScc, seed), q)), "seed {seed}");
        assert!(!shares_runs(q, &rig_of(&graph(Regime::Dag, seed), q)), "seed {seed}");
    }
}

#[test]
fn tuples_equal_the_oracle_in_every_regime() {
    for regime in REGIMES {
        for seed in 0..3 {
            let g = graph(regime, seed);
            for (k, q) in queries().iter().enumerate() {
                let expect = oracle(&g, q, false);
                assert!(!expect.is_empty(), "{regime:?} seed {seed} query {k}: vacuous");
                let rig = rig_of(&g, q);
                for order in ORDERS {
                    let opts = EnumOptions { order, ..Default::default() };
                    let ctx = format!("{regime:?} seed {seed} query {k} {order:?}");
                    let (seq, count, _) = sequential(q, &rig, &opts);
                    assert_eq!(seq, expect, "sequential, {ctx}");
                    assert_eq!(count as usize, expect.len(), "{ctx}");
                    assert_eq!(parallel(q, &rig, &opts).0, expect, "2 threads, {ctx}");
                }
            }
        }
    }
}

#[test]
fn limit_running_out_in_the_last_step_is_exact() {
    let g = graph(Regime::GiantScc, 1);
    let q = &queries()[0];
    let all = oracle(&g, q, false);
    let rig = rig_of(&g, q);
    // in one SCC every reachability edge holds, so each last-step loop of
    // this all-reachability diamond has one candidate per data node of the
    // last query node's label: limits 1, 2 and 5 stop inside the first one
    let class = |l: u32| (0..N).filter(|&v| g.label(v as NodeId) == l).count();
    assert!((0..LABELS).all(|l| class(l) > 5));
    assert!(all.len() > 100);
    for order in ORDERS {
        for limit in [1u64, 2, 5, 100, all.len() as u64 - 1] {
            let opts = EnumOptions { order, limit: Some(limit), ..Default::default() };
            for (engine, (tuples, count, limit_hit)) in [
                ("sequential", sequential(q, &rig, &opts)),
                ("2 threads", parallel(q, &rig, &opts)),
            ] {
                let ctx = format!("{engine} {order:?} limit {limit}");
                assert_eq!(count, limit, "{ctx}");
                assert!(limit_hit, "{ctx}");
                assert_eq!(tuples.len() as u64, limit, "{ctx}");
                assert!(tuples.windows(2).all(|w| w[0] != w[1]), "duplicate tuple, {ctx}");
                assert!(tuples.iter().all(|t| all.binary_search(t).is_ok()), "{ctx}");
            }
        }
    }
}

#[test]
fn injective_drops_a_last_step_candidate_bound_earlier() {
    // HQ6 all-reachability: query nodes 0 and 3 share a label, and in one
    // SCC node 3 can map to the data node bound to node 0. The RI order
    // binds node 0 first and node 3 last (and the JO order binds node 3
    // after at least one of its neighbours).
    let q = &queries()[0];
    for regime in REGIMES {
        let g = graph(regime, 1);
        let homo = oracle(&g, q, false);
        let iso = oracle(&g, q, true);
        if regime == Regime::GiantScc {
            assert!(homo.iter().any(|t| t[0] == t[3]), "the drop is exercised");
            assert!(iso.len() < homo.len());
        }
        let rig = rig_of(&g, q);
        for order in ORDERS {
            let opts = EnumOptions { order, injective: true, ..Default::default() };
            let ctx = format!("{regime:?} {order:?}");
            assert_eq!(sequential(q, &rig, &opts).0, iso, "sequential, {ctx}");
            assert_eq!(parallel(q, &rig, &opts).0, iso, "2 threads, {ctx}");
        }
    }
}
