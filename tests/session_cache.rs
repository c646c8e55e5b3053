//! Session plan-cache differential tests: a run served from the cached
//! RIG must produce the byte-identical answer of a cold run, across every
//! SelectMode × EdgeKind flavor; the cache must invalidate on a graph
//! epoch bump; and a query expressed as HPQL text must produce the same
//! match set as the same query built programmatically, with the cache-hit
//! counters proving the reuse.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rigmatch::core::{GmConfig, Session};
use rigmatch::graph::{DataGraph, GraphBuilder, NodeId};
use rigmatch::query::{EdgeKind, Flavor, PatternQuery};
use rigmatch::rig::{RigOptions, SelectMode};

/// A deterministic random graph with named labels A/B/C.
fn random_graph(nodes: usize, edges: usize, seed: u64) -> DataGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    let names = ["A", "B", "C"];
    for _ in 0..nodes {
        b.add_named_node(names[rng.gen_range(0..names.len())]);
    }
    for _ in 0..edges {
        let u = rng.gen_range(0..nodes) as NodeId;
        let v = rng.gen_range(0..nodes) as NodeId;
        if u != v {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// A fixed 4-node query shape (triangle + tail) in the given flavor.
fn shaped_query(flavor: Flavor) -> PatternQuery {
    let kind = |i: usize| match flavor {
        Flavor::C => EdgeKind::Direct,
        Flavor::D => EdgeKind::Reachability,
        Flavor::H => {
            if i.is_multiple_of(2) {
                EdgeKind::Direct
            } else {
                EdgeKind::Reachability
            }
        }
    };
    let mut q = PatternQuery::new(vec![0, 1, 2, 1]);
    q.add_edge(0, 1, kind(0));
    q.add_edge(1, 2, kind(1));
    q.add_edge(0, 2, kind(2));
    q.add_edge(2, 3, kind(3));
    q
}

#[test]
fn cached_run_is_byte_identical_to_cold_across_modes_and_kinds() {
    let g = random_graph(60, 150, 7);
    for select in [
        SelectMode::PrefilterThenSim,
        SelectMode::SimOnly,
        SelectMode::PrefilterOnly,
        SelectMode::MatchSets,
    ] {
        let cfg =
            GmConfig { rig: RigOptions { select, ..RigOptions::default() }, ..Default::default() };
        let session = Session::with_config(g.clone(), cfg);
        for flavor in [Flavor::C, Flavor::H, Flavor::D] {
            let p = session.prepare(shaped_query(flavor)).unwrap();
            let (cold_tuples, cold) = p.run().collect_all();
            assert!(!cold.metrics.rig_from_cache, "{select:?}/{flavor:?}");
            let (warm_tuples, warm) = p.run().collect_all();
            assert!(warm.metrics.rig_from_cache, "{select:?}/{flavor:?}");
            assert_eq!(cold_tuples, warm_tuples, "{select:?}/{flavor:?}");
            assert_eq!(cold.result.count, warm.result.count, "{select:?}/{flavor:?}");
            // the cached RIG is the same object: identical shape stats
            assert_eq!(
                (cold.metrics.rig_stats.node_count, cold.metrics.rig_stats.edge_count),
                (warm.metrics.rig_stats.node_count, warm.metrics.rig_stats.edge_count),
            );
        }
        let stats = session.cache_stats();
        assert_eq!(stats.misses, 3, "{select:?}: one build per flavor");
        assert_eq!(stats.hits, 3, "{select:?}: one hit per flavor");
    }
}

#[test]
fn parallel_and_sequential_share_the_cached_plan() {
    let g = random_graph(80, 220, 11);
    let session = Session::new(g);
    let p = session.prepare(shaped_query(Flavor::H)).unwrap();
    let (mut seq, _) = p.run().collect_all();
    seq.sort();
    for threads in [2usize, 4] {
        let (par, outcome) = p.run().threads(threads).collect_all();
        assert!(outcome.metrics.rig_from_cache, "threads={threads}");
        assert_eq!(par, seq, "threads={threads} (parallel collect is sorted)");
    }
    assert_eq!(session.cache_stats().misses, 1);
}

#[test]
fn epoch_bump_invalidates_the_cache() {
    let g = random_graph(60, 150, 13);
    let mut session = Session::new(g.clone());
    let count_before;
    {
        let p = session.prepare(shaped_query(Flavor::H)).unwrap();
        count_before = p.run().count().result.count;
        assert!(p.run().count().metrics.rig_from_cache);
    }
    assert_eq!(session.cache_stats().hits, 1);

    // identical graph content, new epoch: must rebuild, same answer
    session.replace_graph(g.clone()).unwrap();
    assert_eq!(session.epoch(), 1);
    assert_eq!(session.cache_stats().entries, 0);
    {
        let p = session.prepare(shaped_query(Flavor::H)).unwrap();
        let o = p.run().count();
        assert!(!o.metrics.rig_from_cache, "epoch bump must force a rebuild");
        assert_eq!(o.result.count, count_before);
    }

    // genuinely different graph: the fresh plan serves the new answer
    session.replace_graph(random_graph(60, 150, 14)).unwrap();
    let p = session.prepare(shaped_query(Flavor::H)).unwrap();
    let o = p.run().count();
    assert!(!o.metrics.rig_from_cache);
}

/// The Session API's headline check: one query written as HPQL text and once
/// via the builder API produce identical match sets through `Session`,
/// and the second execution reuses the cached RIG with a measurable skip
/// of the build phase (witnessed by the metrics flag + hit counter).
#[test]
fn hpql_and_builder_produce_identical_match_sets_and_share_the_plan() {
    let g = random_graph(100, 300, 5);
    let session = Session::new(g);

    let text = session.prepare("MATCH (x:A)->(y:B)=>(z:C), (x)=>(z)").unwrap();
    let mut q = PatternQuery::new(vec![
        session.graph().label_id("A").unwrap(),
        session.graph().label_id("B").unwrap(),
        session.graph().label_id("C").unwrap(),
    ]);
    q.add_edge(0, 1, EdgeKind::Direct);
    q.add_edge(1, 2, EdgeKind::Reachability);
    q.add_edge(0, 2, EdgeKind::Reachability);
    let built = session.prepare(q).unwrap();

    let (mut t1, cold) = text.run().collect_all();
    let (mut t2, warm) = built.run().collect_all();
    t1.sort();
    t2.sort();
    assert_eq!(t1, t2, "HPQL and builder answers must coincide");
    // the builder run reused the RIG the HPQL run built
    assert!(!cold.metrics.rig_from_cache);
    assert!(warm.metrics.rig_from_cache);
    let stats = session.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1), "{stats:?}");
}
