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
//! * MJoin — a five-node reachability chain over a dense one-label graph.
//!
//! Every case runs `count()`. A timed run never reaches the factorized
//! DP: `count()` sends it to MJoin, which the MJoin case covers.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rig_core::{GmConfig, Session};
use rig_graph::{DataGraph, GraphBuilder, NodeId};
use rig_index::RigOptions;
use rig_query::{EdgeKind, PatternQuery};

const DEADLINE: Duration = Duration::from_millis(50);
const SLACK: Duration = Duration::from_millis(100);

struct Case {
    stage: &'static str,
    session: Session,
    query: PatternQuery,
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
    }
}

#[test]
fn every_stage_stops_within_the_slack_of_the_deadline() {
    for case in [selection(), reachability_expansion(), mjoin()] {
        let prepared = case.session.prepare(&case.query).unwrap();
        let start = Instant::now();
        let timed_out = prepared.run().no_cache().timeout(DEADLINE).count().result.timed_out;
        let elapsed = start.elapsed();
        assert!(timed_out, "{}: not timed out after {elapsed:?}", case.stage);
        assert!(elapsed < DEADLINE + SLACK, "{}: returned after {elapsed:?}", case.stage);
    }
}
