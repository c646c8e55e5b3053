//! Differential for the dirty-view build: selection and expansion over an
//! uncompacted [`Snapshot`] (given a delta-aware [`SnapshotReach`], which
//! has no condensation, so the context computes the snapshot's own) must
//! select the same candidates and produce the same RIG, run for run, as
//! the indexed build over the snapshot's materialization with a fresh BFL.
//!
//! The deltas come from [`MutationStream`] seeds over three graph shapes:
//! one giant SCC, many small SCCs and a DAG.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rig_graph::{DataGraph, GraphBuilder, MutationStream, Snapshot};
use rig_index::{build_rig_from_candidates, Rig, RigOptions};
use rig_query::{EdgeKind, PatternQuery};
use rig_reach::{BflIndex, SnapshotReach};
use rig_sim::{double_simulation_seeded, prefilter, SimContext};

const N: u32 = 60;
const LABELS: u32 = 3;

/// `N` nodes in blocks of `block` consecutive ids, each block closed into
/// a cycle, plus random edges from a lower block to a higher one. With
/// `block == N` the whole graph is one SCC; with `block == 1` it is a DAG.
fn blocks_graph(block: u32, seed: u64) -> DataGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    for _ in 0..N {
        b.add_node(rng.gen_range(0..LABELS));
    }
    for start in (0..N).step_by(block as usize) {
        let size = block.min(N - start);
        if size > 1 {
            for k in 0..size {
                b.add_edge(start + k, start + (k + 1) % size);
            }
        }
    }
    for _ in 0..2 * N {
        let (u, v) = (rng.gen_range(0..N), rng.gen_range(0..N));
        if u / block < v / block || (block == N && u != v) {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Hybrid patterns: a chain, a triangle with one direct edge and a
/// reachability cycle.
fn queries() -> Vec<PatternQuery> {
    let mut chain = PatternQuery::new(vec![0, 1, 2]);
    chain.add_edge(0, 1, EdgeKind::Direct);
    chain.add_edge(1, 2, EdgeKind::Reachability);
    let mut triangle = PatternQuery::new(vec![0, 1, 2]);
    triangle.add_edge(0, 1, EdgeKind::Reachability);
    triangle.add_edge(1, 2, EdgeKind::Reachability);
    triangle.add_edge(0, 2, EdgeKind::Direct);
    let mut cycle = PatternQuery::new(vec![1, 2]);
    cycle.add_edge(0, 1, EdgeKind::Reachability);
    cycle.add_edge(1, 0, EdgeKind::Reachability);
    vec![chain, triangle, cycle]
}

/// Selection (prefilter, then the seeded simulation) and expansion from
/// its candidates, as the benchmark's layer replay runs them.
fn select_and_build(ctx: &SimContext<'_>, bfl: &BflIndex) -> Rig {
    let opts = RigOptions::default();
    let fb = double_simulation_seeded(ctx, &opts.sim, prefilter(ctx)).fb;
    build_rig_from_candidates(ctx, bfl, &opts, fb)
}

/// Equal candidate sets, equal per-source successor sets and the same run
/// layout: as many stored runs per edge and direction, and as many bytes.
fn assert_same_rig(q: &PatternQuery, dirty: &Rig, clean: &Rig, what: &str) {
    assert!(!dirty.stats.timed_out && !clean.stats.timed_out, "{what}");
    for i in 0..q.num_nodes() {
        assert_eq!(dirty.candidates(i), clean.candidates(i), "{what}: cos({i})");
    }
    assert_eq!(dirty.stats.edge_count, clean.stats.edge_count, "{what}");
    assert_eq!(dirty.heap_bytes(), clean.heap_bytes(), "{what}: heap bytes");
    for eid in 0..q.num_edges() as u32 {
        for fwd in [true, false] {
            let runs = (dirty.num_runs(eid, fwd), clean.num_runs(eid, fwd));
            assert_eq!(runs.0, runs.1, "{what}: edge {eid} runs (fwd={fwd})");
        }
        let (p, _) = clean.edge_endpoints(eid);
        for &u in clean.candidates(p) {
            assert_eq!(
                dirty.successors(eid, u).map(|s| s.to_vec()),
                clean.successors(eid, u).map(|s| s.to_vec()),
                "{what}: edge {eid} source {u}"
            );
        }
    }
}

fn dirty_build_matches_materialized(shape: &str, block: u32) {
    let mut nonempty = 0;
    for seed in 0..6u64 {
        let base = Arc::new(blocks_graph(block, seed));
        let base_bfl = BflIndex::new(&base);
        let mut stream = MutationStream::new(Arc::clone(&base), seed + 1);
        for txn in 1..=4u64 {
            stream.next_txn(8);
            let snap = Snapshot::new(Arc::new(stream.mirror().clone()), txn);
            assert!(snap.is_dirty());
            let reach = SnapshotReach::new(&snap, &base_bfl);
            let mat = snap.materialize();
            let mat_bfl = BflIndex::new(&mat);
            for (qi, q) in queries().iter().enumerate() {
                let what = format!("{shape} seed={seed} txn={txn} query={qi}");
                let dirty = select_and_build(&SimContext::new(&snap, q, &reach), &base_bfl);
                let clean = select_and_build(&SimContext::new(&mat, q, &mat_bfl), &mat_bfl);
                assert_same_rig(q, &dirty, &clean, &what);
                nonempty += usize::from(!clean.is_empty());
            }
        }
    }
    // Empty RIGs compare trivially, so a good share must have answers (on
    // a DAG the reachability cycle has none until a mutation closes one).
    assert!(nonempty >= 18, "{shape}: only {nonempty} of 72 RIGs are non-empty");
}

#[test]
fn dirty_build_matches_materialized_on_one_giant_scc() {
    dirty_build_matches_materialized("giant SCC", N);
}

#[test]
fn dirty_build_matches_materialized_on_small_sccs() {
    dirty_build_matches_materialized("small SCCs", 4);
}

#[test]
fn dirty_build_matches_materialized_on_a_dag() {
    dirty_build_matches_materialized("DAG", 1);
}
