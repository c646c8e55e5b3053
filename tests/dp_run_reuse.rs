//! The factorized DP over shared and per-source adjacency runs.
//!
//! A reachability RIG edge stores one run per source SCC, and the DP sums
//! each stored run once per pass instead of once per source that reads it.
//! The named cases hold `Factorization::count()` against the oracle on
//! the testkit's tree shapes, whose DP is the dense pass alone, and its
//! cyclic shapes, which condition on a vertex cover and re-run the sparse
//! pass per binding.

mod testkit;

use rigmatch::core::factorized::Factorization;
use rigmatch::core::Session;
use rigmatch::query::{EdgeKind, PatternQuery};
use rigmatch::rig::{Rig, RigOptions};
use testkit::{check, cyclic_shapes, diamond_shapes, graph, rig, tree_shapes, Dims, Regime, Shape};

/// The tree shapes first, then the cyclic ones: the diamonds and the
/// triangles.
fn shapes() -> (Vec<Shape>, Vec<Shape>) {
    let mut cyclic = diamond_shapes();
    cyclic.extend(cyclic_shapes());
    (tree_shapes(), cyclic)
}

fn rig_of(shape: &Shape, regime: Regime, seed: u64) -> Rig {
    rig(&graph(regime, seed, shape.n, shape.labels), &shape.q, &RigOptions::default())
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
    let (trees, cyclic) = shapes();
    for shape in trees.iter().chain(&cyclic) {
        for seed in 0..3 {
            let giant = rig_of(shape, Regime::GiantScc, seed);
            for (runs, sources) in run_counts(&shape.q, &giant) {
                assert!(
                    runs < sources,
                    "{} seed {seed}: {runs} runs, {sources} sources",
                    shape.name
                );
            }
            let dag = rig_of(shape, Regime::Dag, seed);
            for (runs, sources) in run_counts(&shape.q, &dag) {
                assert_eq!(runs, sources, "{} DAG seed {seed}", shape.name);
            }
        }
    }
}

/// Pins the factorization the all-reachability diamond gets: node 2 is
/// conditioned, and the free forest is the chain 0 → 1 → 3. Node 3
/// carries a check anchored at node 2, which makes node 1 S-dependent,
/// and node 1's child link is the reachability edge 1 ⇝ 3 — one shared
/// run per SCC in the giant SCC.
#[test]
fn diamond_conditions_on_node_2() {
    let shape = &diamond_shapes()[0];
    let rig = rig_of(shape, Regime::GiantScc, 0);
    let f = Factorization::new(&shape.q, &rig);
    assert_eq!(f.shape().conditioned, [2]);
    assert_eq!(f.order(), [2, 0, 1, 3]);
    let (runs, sources) = (rig.num_runs(2, true), rig.cos_len(1) as usize);
    assert!(runs < sources, "edge 1 ⇝ 3 has {runs} runs for {sources} sources");
}

/// Every tree and cyclic shape in every regime, through the matrix's
/// check on a clean store: the DP count, run twice to reuse the memo
/// scratch, equals the oracle.
#[test]
fn count_and_cardinalities_equal_the_oracle_in_every_regime() {
    let (trees, cyclic) = shapes();
    for (r, regime) in testkit::REGIMES.into_iter().enumerate() {
        for (k, shape) in trees.iter().chain(&cyclic).enumerate() {
            let g = graph(regime, (r + k) as u64 % 3, shape.n, shape.labels);
            let what = format!("{regime:?} {}", shape.name);
            let rig = rig(&g, &shape.q, &RigOptions::default());
            let tree = Factorization::new(&shape.q, &rig).is_tree();
            assert_eq!(tree, k < trees.len(), "{what}");
            let session = Session::new(g);
            assert!(check(&session, &shape.q, &Dims::clean(), &what).answers, "{what}: vacuous");
        }
    }
}
