//! Quickstart: evaluate the paper's running example (Fig. 2) end to end —
//! the Session API with an HPQL text query, then a peek under the hood at
//! the double simulation and the RIG, and finally the plan cache at work.
//!
//! Run with: `cargo run --example quickstart`

use rigmatch::core::Session;
use rigmatch::datasets::examples::fig2_graph;
use rigmatch::reach::BflIndex;
use rigmatch::rig::{build_rig, RigOptions};
use rigmatch::sim::{double_simulation, SimContext, SimOptions};

fn main() {
    // The Fig. 2 data graph: three 'a' nodes, four 'b', three 'c' (the
    // builder records label names, so HPQL can say (x:a) instead of (x:0)).
    let g = fig2_graph();
    println!("data graph: {:?}", g);

    // The Fig. 2 query as HPQL: A -> B (direct), B => C (path), A -> C
    // (direct). One session owns the graph (a clone here, so the example
    // can keep peeking at `g` below), its reachability index and the
    // plan cache.
    let session = Session::new(g.clone());
    let prepared = session.prepare("MATCH (x:a)->(y:b)=>(z:c), (x)->(z)").expect("valid HPQL");
    println!("query: {}", prepared.to_hpql());

    // --- the answer, via the fluent run builder ---
    let (tuples, outcome) = prepared.run().collect(100);
    println!("answer ({} occurrences):", outcome.result.count);
    for t in &tuples {
        println!("  x={} y={} z={}", t[0], t[1], t[2]);
    }
    assert_eq!(outcome.result.count, 2);

    // --- under the hood, phase 1a: double simulation (§4.2) ---
    let q = prepared.reduced();
    let bfl = BflIndex::new(&g);
    let ctx = SimContext::new(&g, q, &bfl);
    let sim = double_simulation(&ctx, &SimOptions::exact());
    for (i, fb) in sim.fb.iter().enumerate() {
        println!("FB({}) = {:?}", ["A", "B", "C"][i], fb);
    }

    // --- phase 1b: the runtime index graph (Alg. 4) ---
    // The BFL index's condensation (through `ctx`) serves both phases:
    // the B => C edge expands by one sweep over it, not by pair probes.
    let rig = build_rig(&ctx, &RigOptions::exact());
    println!(
        "RIG: {} candidate nodes, {} candidate edges ({}% of |G|)",
        rig.stats.node_count,
        rig.stats.edge_count,
        (100.0 * rig.size_ratio(&g)).round()
    );

    // --- the plan cache: the second run skips the RIG build entirely ---
    let warm = prepared.run().count();
    assert!(warm.metrics.rig_from_cache);
    let stats = session.cache_stats();
    println!(
        "plan cache: {} hit(s) / {} miss(es); warm run total {:.3} ms \
         (matching {:.3} ms, enumeration {:.3} ms)",
        stats.hits,
        stats.misses,
        warm.metrics.total_time.as_secs_f64() * 1e3,
        warm.metrics.matching_time().as_secs_f64() * 1e3,
        warm.metrics.enumeration_time.as_secs_f64() * 1e3,
    );
}
