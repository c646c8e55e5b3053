//! One deadline per run holds in every stage. Each case gives
//! `Run::timeout` 50 ms on an input where its stage alone, without a
//! deadline, takes more than a second in a debug build, and the run must
//! come back `timed_out` within 100 ms of the deadline:
//!
//! * selection — double simulation to fixpoint on a long alternating
//!   path, which prunes a few nodes from each end per pass;
//! * reachability expansion — one reachability edge over a random
//!   40 000-node DAG, whose condensation sweep ORs rows of about 16 000
//!   target bits over 40 000 trivial components;
//! * MJoin — a five-node reachability chain over a dense one-label graph;
//! * the DP's count — `factorized_summary` of a cyclic query conditioned
//!   on two independent nodes, 250 000 bindings;
//! * the DP's cardinalities — `factorized_summary` of a triangle with a
//!   long free chain: the count re-expands only the triangle per binding
//!   and finishes in milliseconds, the cardinalities mark the whole chain.
//!
//! The DP cases start from a cached RIG, so the deadline falls in the DP.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rig_core::{GmConfig, Run, Session};
use rig_graph::{DataGraph, GraphBuilder, NodeId};
use rig_index::RigOptions;
use rig_query::{EdgeKind, PatternQuery};

const DEADLINE: Duration = Duration::from_millis(50);
const SLACK: Duration = Duration::from_millis(100);

struct Case {
    stage: &'static str,
    session: Session,
    query: PatternQuery,
    /// Build and cache the RIG before the timed run.
    warm: bool,
    /// Runs the terminal the stage is reached through; true when the run
    /// reports `timed_out`.
    terminal: fn(Run<'_, '_>) -> bool,
}

fn count(run: Run<'_, '_>) -> bool {
    run.count().result.timed_out
}

fn factorized(run: Run<'_, '_>) -> bool {
    let summary = run.factorized_summary();
    assert!(summary.count.is_none() || !summary.timed_out, "a truncated summary has no count");
    summary.timed_out
}

/// [`factorized`], checking that the count's loop visited all 300
/// bindings, so the deadline struck in the cardinalities.
fn cardinalities(run: Run<'_, '_>) -> bool {
    let summary = run.factorized_summary();
    assert_eq!(summary.assignments, 300, "the count finished before the deadline");
    summary.timed_out
}

fn query(labels: Vec<u32>, edges: &[(u32, u32, EdgeKind)]) -> PatternQuery {
    let mut q = PatternQuery::new(labels);
    for &(from, to, kind) in edges {
        q.add_edge(from, to, kind);
    }
    q
}

/// A path of `n` nodes labeled A, B, A, B, … and the directed 2-cycle
/// A -> B -> A, simulated to fixpoint: no node matches, but each pass
/// prunes only the few nodes at the path's two ends.
fn selection() -> Case {
    let n = 12_000;
    let mut b = GraphBuilder::new();
    for i in 0..n {
        b.add_node((i % 2) as u32);
    }
    for i in 1..n {
        b.add_edge((i - 1) as NodeId, i as NodeId);
    }
    let config = GmConfig { rig: RigOptions::exact(), ..GmConfig::default() };
    Case {
        stage: "selection",
        session: Session::with_config(b.build(), config),
        query: query(vec![0, 1], &[(0, 1, EdgeKind::Direct), (1, 0, EdgeKind::Direct)]),
        warm: false,
        terminal: count,
    }
}

/// Edges from lower to higher ids only, so every SCC is one node.
fn random_dag(n: usize, m: usize, labels: u32, seed: u64) -> DataGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    for _ in 0..n {
        b.add_node(rng.gen_range(0..labels));
    }
    for _ in 0..m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            b.add_edge(u.min(v) as NodeId, u.max(v) as NodeId);
        }
    }
    b.build()
}

fn reachability_expansion() -> Case {
    Case {
        stage: "reachability expansion",
        session: Session::new(random_dag(40_000, 160_000, 2, 7)),
        query: query(vec![0, 1], &[(0, 1, EdgeKind::Reachability)]),
        warm: false,
        terminal: count,
    }
}

/// One label, `n` nodes, `10 n` random edges: one giant SCC.
fn dense_graph(n: usize) -> DataGraph {
    let mut rng = StdRng::seed_from_u64(99);
    let mut b = GraphBuilder::new();
    for _ in 0..n {
        b.add_node(0);
    }
    for _ in 0..10 * n {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v {
            b.add_edge(u as NodeId, v as NodeId);
        }
    }
    b.build()
}

fn mjoin() -> Case {
    let chain: Vec<_> = (1..5).map(|i| (i - 1, i, EdgeKind::Reachability)).collect();
    Case {
        stage: "MJoin",
        session: Session::new(dense_graph(300)),
        query: query(vec![0; 5], &chain),
        warm: false,
        terminal: count,
    }
}

/// Two directed triangles joined by one edge: each triangle's extra edge
/// conditions one node, and the two are independent, so the DP visits
/// every pair of their candidates, 500 × 500 bindings.
fn dp_count() -> Case {
    let edges = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 3)];
    Case {
        stage: "DP count",
        session: Session::new(dense_graph(500)),
        query: query(vec![0; 6], &edges.map(|(f, t)| (f, t, EdgeKind::Direct))),
        warm: true,
        terminal: factorized,
    }
}

/// The triangle 0 -> 1 -> 2 -> 0, conditioned on one node (300
/// bindings), with a free chain of 60 nodes hanging off node 0. The count
/// reads the chain's sums from its memo; the cardinalities walk it again
/// for every binding.
fn dp_cardinalities() -> Case {
    let mut edges = vec![(0, 1, EdgeKind::Direct), (1, 2, EdgeKind::Direct)];
    edges.push((2, 0, EdgeKind::Direct));
    edges.extend((2..62).map(|i| (if i == 2 { 0 } else { i }, i + 1, EdgeKind::Direct)));
    Case {
        stage: "DP cardinalities",
        session: Session::new(dense_graph(300)),
        query: query(vec![0; 63], &edges),
        warm: true,
        terminal: cardinalities,
    }
}

#[test]
fn every_stage_stops_within_the_slack_of_the_deadline() {
    let cases = [selection(), reachability_expansion(), mjoin(), dp_count(), dp_cardinalities()];
    for case in cases {
        let prepared = case.session.prepare(&case.query).unwrap();
        if case.warm {
            assert!(!prepared.run().explain().rig_from_cache);
        }
        let run = prepared.run();
        let run = if case.warm { run } else { run.no_cache() };
        let start = Instant::now();
        let timed_out = (case.terminal)(run.timeout(DEADLINE));
        let elapsed = start.elapsed();
        assert!(timed_out, "{}: not timed out after {elapsed:?}", case.stage);
        assert!(elapsed < DEADLINE + SLACK, "{}: returned after {elapsed:?}", case.stage);
    }
}
