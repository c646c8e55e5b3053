//! The factorized DP over shared and per-source adjacency runs.
//!
//! A reachability RIG edge stores one run per source SCC, and the DP sums
//! each stored run once per pass instead of once per source that reads it.
//! These tests hold `Factorization::count()` and `var_cardinalities()`
//! against a brute-force oracle on three graph regimes: one giant SCC
//! (shared runs), many small SCCs, and a DAG (one run per source). The
//! queries cover tree shapes, whose DP is the dense pass alone, and cyclic
//! shapes, which condition on a vertex cover and re-run the sparse pass per
//! binding.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rig_graph::{DataGraph, GraphBuilder, NodeId};
use rig_index::{build_rig, Rig, RigOptions};
use rig_mjoin::Factorization;
use rig_query::{EdgeKind, PatternQuery};
use rig_reach::{BflIndex, Reachability};
use rig_sim::SimContext;

const N: usize = 24;
const LABELS: u32 = 2;

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

const D: EdgeKind = EdgeKind::Direct;
const R: EdgeKind = EdgeKind::Reachability;

fn query(labels: &[u32], edges: &[(u32, u32, EdgeKind)]) -> PatternQuery {
    let mut q = PatternQuery::new(labels.to_vec());
    for &(from, to, kind) in edges {
        q.add_edge(from, to, kind);
    }
    q
}

/// A reachability chain, an out-tree and an in-tree (whose child links
/// read predecessor runs).
fn tree_queries() -> Vec<PatternQuery> {
    vec![
        query(&[0, 1, 0], &[(0, 1, R), (1, 2, R)]),
        query(&[0, 1, 1, 0], &[(0, 1, D), (0, 2, R), (2, 3, R)]),
        query(&[0, 1, 0, 1], &[(1, 0, R), (2, 0, R), (3, 2, D)]),
    ]
}

/// The all-reachability diamond (see [`diamond_conditions_on_node_2`]), a
/// hybrid diamond, an HQ8-shaped double diamond and a reachability
/// triangle.
fn cyclic_queries() -> Vec<PatternQuery> {
    vec![
        query(&[0, 1, 1, 0], &[(0, 1, R), (0, 2, R), (1, 3, R), (2, 3, R)]),
        query(&[0, 1, 1, 0], &[(0, 1, D), (0, 2, R), (1, 3, R), (2, 3, D)]),
        query(
            &[0, 1, 1, 0, 1, 0],
            &[(0, 1, D), (0, 2, R), (1, 3, D), (2, 3, R), (3, 4, D), (3, 5, R), (4, 5, R)],
        ),
        query(&[0, 1, 0], &[(0, 1, R), (1, 2, R), (0, 2, R)]),
    ]
}

fn rig_of(g: &DataGraph, q: &PatternQuery) -> Rig {
    let bfl = BflIndex::new(g);
    let ctx = SimContext::new(g, q, &bfl);
    build_rig(&ctx, &RigOptions::default())
}

/// Occurrence count and per-variable distinct-binding counts by exhaustive
/// search over the data graph.
fn oracle(g: &DataGraph, q: &PatternQuery) -> (u128, Vec<u64>) {
    struct Search<'a> {
        g: &'a DataGraph,
        q: &'a PatternQuery,
        bfl: BflIndex,
        assign: Vec<NodeId>,
        count: u128,
        seen: Vec<Vec<bool>>,
    }
    impl Search<'_> {
        fn rec(&mut self) {
            let d = self.assign.len();
            if d == self.q.num_nodes() {
                self.count += 1;
                for (qn, &v) in self.assign.iter().enumerate() {
                    self.seen[qn][v as usize] = true;
                }
                return;
            }
            for v in 0..self.g.num_nodes() as NodeId {
                if self.g.label(v) != self.q.label(d as u32) {
                    continue;
                }
                self.assign.push(v);
                let a = &self.assign;
                let ok = self.q.edges().iter().all(|e| {
                    let (f, t) = (e.from as usize, e.to as usize);
                    f > d
                        || t > d
                        || match e.kind {
                            EdgeKind::Direct => self.g.has_edge(a[f], a[t]),
                            EdgeKind::Reachability => self.bfl.reaches(a[f], a[t]),
                        }
                });
                if ok {
                    self.rec();
                }
                self.assign.pop();
            }
        }
    }
    let mut s = Search {
        g,
        q,
        bfl: BflIndex::new(g),
        assign: Vec::new(),
        count: 0,
        seen: vec![vec![false; g.num_nodes()]; q.num_nodes()],
    };
    s.rec();
    let cards = s.seen.iter().map(|vs| vs.iter().filter(|&&b| b).count() as u64).collect();
    (s.count, cards)
}

/// For every reachability edge and direction: (stored runs, sources).
fn run_counts(q: &PatternQuery, rig: &Rig) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (eid, e) in q.edges().iter().enumerate() {
        if e.kind != EdgeKind::Reachability {
            continue;
        }
        for (fwd, src) in [(true, e.from), (false, e.to)] {
            out.push((rig.num_runs(eid as u32, fwd), rig.cos_len(src) as usize));
        }
    }
    out
}

#[test]
fn regimes_have_the_intended_run_structure() {
    for q in tree_queries().iter().chain(&cyclic_queries()) {
        for seed in 0..3 {
            let giant = rig_of(&graph(Regime::GiantScc, seed), q);
            for (runs, sources) in run_counts(q, &giant) {
                assert!(runs < sources, "giant SCC seed {seed}: {runs} runs, {sources} sources");
            }
            let dag = rig_of(&graph(Regime::Dag, seed), q);
            for (runs, sources) in run_counts(q, &dag) {
                assert_eq!(runs, sources, "DAG seed {seed}");
            }
        }
    }
}

/// Pins the factorization the diamond gets: node 2 is conditioned, and the
/// free forest is the chain 0 → 1 → 3. Node 3 carries a check anchored at
/// node 2, which makes node 1 S-dependent, and node 1's child link is the
/// reachability edge 1 ⇝ 3 — one shared run per SCC in the giant SCC.
#[test]
fn diamond_conditions_on_node_2() {
    let q = &cyclic_queries()[0];
    let rig = rig_of(&graph(Regime::GiantScc, 0), q);
    let f = Factorization::new(q, &rig);
    assert_eq!(f.shape().conditioned, [2]);
    assert_eq!(f.order(), [2, 0, 1, 3]);
    let (runs, sources) = (rig.num_runs(2, true), rig.cos_len(1) as usize);
    assert!(runs < sources, "edge 1 ⇝ 3 has {runs} runs for {sources} sources");
}

#[test]
fn count_and_cardinalities_equal_the_oracle_in_every_regime() {
    for regime in REGIMES {
        for seed in 0..3 {
            let g = graph(regime, seed);
            for (k, q) in tree_queries().iter().chain(&cyclic_queries()).enumerate() {
                let ctx = format!("{regime:?} seed {seed} query {k}");
                let (count, cards) = oracle(&g, q);
                assert!(count > 0, "{ctx}: vacuous");
                let rig = rig_of(&g, q);
                let mut f = Factorization::new(q, &rig);
                assert_eq!(f.is_tree(), k < tree_queries().len(), "{ctx}");
                // twice each, so the second call reuses the memo scratch
                for _ in 0..2 {
                    let dp = f.count();
                    assert!(!dp.timed_out, "{ctx}");
                    assert_eq!(dp.total, Some(count), "{ctx}");
                    assert_eq!(f.var_cardinalities().as_deref(), Some(&cards[..]), "{ctx}");
                }
            }
        }
    }
}

#[test]
fn a_past_deadline_trips_both_aggregates() {
    let g = graph(Regime::GiantScc, 1);
    for q in cyclic_queries() {
        let rig = rig_of(&g, &q);
        let mut f = Factorization::new(&q, &rig);
        let expect = f.count().total;
        assert!(expect.is_some_and(|t| t > 0));
        f.set_deadline(Some(std::time::Instant::now()));
        let dp = f.count();
        assert!(dp.timed_out);
        assert_eq!(dp.total, None);
        assert_eq!(f.var_cardinalities(), None);
        f.set_deadline(None);
        assert_eq!(f.count().total, expect);
        assert!(f.var_cardinalities().is_some());
    }
}
