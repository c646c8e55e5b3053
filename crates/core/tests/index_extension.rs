//! A session's rebase extends its BFL index, instead of rebuilding it,
//! when the delta adds only nodes and edges the index already implies.
//! After every commit the session's index must answer exactly as a fresh
//! `BflIndex::new` over the same materialized graph: for every node pair,
//! for both condensation set sweeps, and for the per-SCC run sharing of a
//! RIG built over it. Answers are compared, never component numbers,
//! which differ between the two.
//!
//! The scripts run on three graph regimes (one giant SCC, many small
//! SCCs, a DAG): `MutationStream` transactions (mostly rebuilds),
//! node-only commits and implied-edge commits (always extensions), each
//! rebased by a compaction after every commit or by a read.

// the helpers below run only under #[test]s, outside the test-fn scope
// clippy's allow-unwrap-in-tests covers
#![allow(clippy::unwrap_used)]

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rig_bitset::Bitset;
use rig_core::{CompactionPolicy, Session};
use rig_graph::{DataGraph, GraphBuilder, MutationOp, MutationStream, NodeId};
use rig_index::{build_rig, Rig, RigOptions};
use rig_query::{EdgeKind, PatternQuery};
use rig_reach::{BflIndex, Reachability};
use rig_sim::SimContext;

const N: usize = 36;
const LABELS: u32 = 3;
const COMMITS: usize = 12;

const EVERY_COMMIT: CompactionPolicy = CompactionPolicy { min_ops: 1, ratio: 0.0 };

#[derive(Debug, Clone, Copy)]
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
        Regime::GiantScc => (0..N).for_each(|i| b.add_edge(node(i), node((i + 1) % N))),
        Regime::SmallSccs => {
            for g in (0..N).step_by(3) {
                b.add_edge(node(g), node(g + 1));
                b.add_edge(node(g + 1), node(g + 2));
                b.add_edge(node(g + 2), node(g));
            }
        }
        Regime::Dag => {}
    }
    for _ in 0..2 * N {
        let (u, v) = (rng.gen_range(0..N), rng.gen_range(0..N));
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

/// How a script's commits reach a clean base.
#[derive(Debug, Clone, Copy)]
enum Rebase {
    /// Every commit compacts.
    Compaction,
    /// Nothing compacts; an analysis after each commit rebases.
    Read,
}

fn session(g: DataGraph, rebase: Rebase) -> Session {
    let policy = match rebase {
        Rebase::Compaction => EVERY_COMMIT,
        Rebase::Read => CompactionPolicy::disabled(),
    };
    Session::new(g).with_compaction(policy)
}

/// Commits `ops`, rebases the result, and checks the session's index
/// against a fresh one over the same graph.
fn commit_and_check(session: &Session, ops: &[MutationOp], rebase: Rebase, what: &str) {
    let summary = session.apply(ops).unwrap();
    if let Rebase::Read = rebase {
        assert!(!summary.compacted);
        session.analyze("MATCH (a:0)=>(b:1)");
    }
    let snapshot = session.graph();
    assert!(!snapshot.is_dirty(), "{what}: the commit was rebased");
    assert_same_answers(snapshot.base(), &session.bfl(), what);
}

/// Every answer `got` gives over `g` equals that of a fresh index.
fn assert_same_answers(g: &DataGraph, got: &BflIndex, what: &str) {
    let want = BflIndex::new(g);
    let n = g.num_nodes() as NodeId;
    for u in 0..n {
        for v in 0..n {
            assert_eq!(got.reaches(u, v), want.reaches(u, v), "{what}: reach {u} -> {v}");
        }
    }
    let mut rng = StdRng::seed_from_u64(u64::from(n));
    for _ in 0..6 {
        let sources: Bitset = (0..rng.gen_range(1..4)).map(|_| rng.gen_range(0..n)).collect();
        let (gc, wc) = (got.condensation(), want.condensation());
        let (gd, wd) = (gc.descendants_of_set(&sources), wc.descendants_of_set(&sources));
        let (ga, wa) = (gc.ancestors_of_set(&sources), wc.ancestors_of_set(&sources));
        for v in 0..n {
            assert_eq!(gd.contains(v), wd.contains(v), "{what}: descendants of {sources:?}");
            assert_eq!(ga.contains(v), wa.contains(v), "{what}: ancestors of {sources:?}");
        }
    }
    for q in queries() {
        let rig = |bfl: &BflIndex| build_rig(&SimContext::new(g, &q, bfl), &RigOptions::exact());
        assert_same_runs(&q, &rig(got), &rig(&want), what);
    }
}

/// Two reachability-heavy shapes: a path and a triangle with a direct edge.
fn queries() -> Vec<PatternQuery> {
    let mut path = PatternQuery::new(vec![0, 1]);
    path.add_edge(0, 1, EdgeKind::Reachability);
    let mut tri = PatternQuery::new(vec![0, 1, 2]);
    tri.add_edge(0, 1, EdgeKind::Reachability);
    tri.add_edge(1, 2, EdgeKind::Reachability);
    tri.add_edge(0, 2, EdgeKind::Direct);
    vec![path, tri]
}

/// Same candidates, same runs, and the same sources (targets) sharing one
/// successor (predecessor) run.
fn assert_same_runs(q: &PatternQuery, got: &Rig, want: &Rig, what: &str) {
    assert_eq!(got.stats.edge_count, want.stats.edge_count, "{what}: RIG size");
    for eid in 0..q.num_edges() as u32 {
        let (p, t) = want.edge_endpoints(eid);
        assert_eq!(got.candidates(p), want.candidates(p), "{what}: cos({p})");
        assert_eq!(got.candidates(t), want.candidates(t), "{what}: cos({t})");
        let succ = |r: &Rig, u| successors(r, eid, u).to_vec();
        let pred = |r: &Rig, v| predecessors(r, eid, v).to_vec();
        let sources = want.candidates(p).len() as u32;
        let targets = want.candidates(t).len() as u32;
        for u in 0..sources {
            assert_eq!(succ(got, u), succ(want, u), "{what}: edge {eid} source {u}");
        }
        for v in 0..targets {
            assert_eq!(pred(got, v), pred(want, v), "{what}: edge {eid} target {v}");
        }
        let shared = |r: &Rig| sharing(sources, |u| successors(r, eid, u));
        assert_eq!(shared(got), shared(want), "{what}: edge {eid} source runs shared");
        let shared = |r: &Rig| sharing(targets, |v| predecessors(r, eid, v));
        assert_eq!(shared(got), shared(want), "{what}: edge {eid} target runs shared");
    }
}

fn successors(r: &Rig, eid: u32, u: u32) -> &[u32] {
    r.successors_local(eid, u).list
}

fn predecessors(r: &Rig, eid: u32, v: u32) -> &[u32] {
    r.predecessors_local(eid, v).list
}

/// For each of `count` local ids, the first id whose run is the very
/// same stored slice (empty runs are not compared: any two coincide).
fn sharing<'a>(count: u32, run: impl Fn(u32) -> &'a [u32]) -> Vec<Option<u32>> {
    let key = |i| {
        let list = run(i);
        (!list.is_empty()).then_some((list.as_ptr(), list.len()))
    };
    (0..count).map(|i| key(i).and_then(|k| (0..=i).find(|&j| key(j) == Some(k)))).collect()
}

#[test]
fn mutation_streams_match_a_fresh_index() {
    let mut extensions = 0;
    for regime in REGIMES {
        for seed in 0..3u64 {
            for rebase in [Rebase::Compaction, Rebase::Read] {
                let g = graph(regime, seed);
                let session = session(g.clone(), rebase);
                let mut stream = MutationStream::new(Arc::new(g), seed + 1);
                for c in 0..COMMITS {
                    let ops = stream.next_txn(4);
                    let what = format!("{regime:?} seed {seed} {rebase:?} commit {c}");
                    commit_and_check(&session, &ops, rebase, &what);
                }
                let stats = session.store_stats();
                assert_eq!(stats.rebases, COMMITS as u64);
                assert!(stats.index_extensions <= stats.rebases);
                extensions += stats.index_extensions;
            }
        }
    }
    // the streams mix removals in, yet some commits still extend
    assert!(extensions > 0);
}

/// Node-only commits always extend: on a session that compacts every
/// commit, `index_extensions` counts exactly those commits.
#[test]
fn node_only_commits_extend_the_index() {
    for regime in REGIMES {
        for rebase in [Rebase::Compaction, Rebase::Read] {
            let session = session(graph(regime, 7), rebase);
            let mut rng = StdRng::seed_from_u64(7);
            let mut added = 0;
            for c in 0..COMMITS {
                let ops: Vec<MutationOp> = (0..rng.gen_range(1..4))
                    .map(|_| {
                        MutationOp::AddNode(rig_graph::LabelSpec::Id(rng.gen_range(0..LABELS)))
                    })
                    .collect();
                added += ops.len();
                commit_and_check(&session, &ops, rebase, &format!("{regime:?} {rebase:?} {c}"));
            }
            let stats = session.store_stats();
            assert_eq!((stats.rebases, stats.index_extensions), (COMMITS as u64, COMMITS as u64));
            assert_eq!(stats.base_nodes, N + added);
        }
    }
}

/// Edges the index already implies (inside an SCC, or a shortcut past a
/// path), with or without a node beside them, extend the index; an edge
/// that opens a new path rebuilds it.
#[test]
fn implied_edges_extend_the_index_and_new_paths_rebuild_it() {
    for regime in REGIMES {
        for rebase in [Rebase::Compaction, Rebase::Read] {
            let session = session(graph(regime, 11), rebase);
            let mut rng = StdRng::seed_from_u64(11);
            let mut extended = 0;
            for c in 0..COMMITS {
                let (g, bfl) = (session.graph(), session.bfl());
                let n = g.num_nodes() as NodeId;
                let implied: Vec<(NodeId, NodeId)> = (0..n)
                    .flat_map(|u| (0..n).map(move |v| (u, v)))
                    .filter(|&(u, v)| bfl.reaches(u, v) && !g.has_edge(u, v))
                    .collect();
                let mut ops: Vec<MutationOp> = (0..3.min(implied.len()))
                    .map(|_| {
                        let (u, v) = implied[rng.gen_range(0..implied.len())];
                        MutationOp::AddEdge(u, v)
                    })
                    .collect();
                if c % 2 == 1 {
                    ops.push(MutationOp::AddNode(rig_graph::LabelSpec::Id(0)));
                }
                // every fourth commit also opens a path the graph lacks
                let fresh = (c % 4 == 3)
                    .then(|| {
                        (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).find(|&(u, v)| {
                            u != v && !bfl.reaches(u, v) && g.is_live(u) && g.is_live(v)
                        })
                    })
                    .flatten();
                if let Some((u, v)) = fresh {
                    ops.push(MutationOp::AddEdge(u, v));
                }
                if ops.is_empty() {
                    continue;
                }
                extended += u64::from(fresh.is_none());
                commit_and_check(&session, &ops, rebase, &format!("{regime:?} {rebase:?} {c}"));
                assert_eq!(session.store_stats().index_extensions, extended, "{regime:?} {c}");
            }
            assert!(extended > 0, "{regime:?}: no commit extended the index");
        }
    }
}
