//! The Fig. 1(e) scenario: detecting a money-laundering shape — an
//! individual moving funds through direct transfers and *chains* of
//! transfers between legal and illegal accounts, ending back at an account
//! controlled by the same individual.
//!
//! The pattern is cyclic in the undirected sense and hybrid: the "layering"
//! steps are reachability edges (arbitrarily long transfer chains), the
//! "placement" and "integration" steps are direct transfers. It is written
//! as HPQL and executed through the `Session` run builder, streaming into
//! a first-k sink.
//!
//! Run with: `cargo run --example money_laundering`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rigmatch::core::Session;
use rigmatch::prelude::*;

fn build_transfers(people: usize, accounts: usize, transfers: usize, seed: u64) -> DataGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    let persons: Vec<NodeId> = (0..people).map(|_| b.add_named_node("Person")).collect();
    let accts: Vec<NodeId> = (0..accounts)
        .map(|_| b.add_named_node(if rng.gen_bool(0.7) { "Legal" } else { "Illegal" }))
        .collect();
    // ownership: person -> account (direct)
    for &a in &accts {
        let owner = persons[rng.gen_range(0..persons.len())];
        b.add_edge(owner, a);
    }
    // transfers: account -> account
    for _ in 0..transfers {
        let x = accts[rng.gen_range(0..accts.len())];
        let y = accts[rng.gen_range(0..accts.len())];
        if x != y {
            b.add_edge(x, y);
        }
    }
    b.build()
}

fn main() {
    let session = Session::new(build_transfers(50, 400, 1200, 7));
    println!("transfer graph: {:?}", session.graph());

    // Pattern:
    //   person -> legal account     (direct: owns/controls)
    //   person -> legal2 account    (direct: owns/controls)
    //   legal  => illegal           (reachability: layered transfers)
    //   illegal => legal2           (reachability: chain back to own account)
    let prepared = session
        .prepare("MATCH (p:Person)->(src:Legal)=>(mid:Illegal)=>(dst:Legal), (p)->(dst)")
        .expect("valid HPQL");
    let q = prepared.query();
    println!("pattern class: {:?}, {} reachability edges", q.class(), q.reachability_edge_count());

    // Streaming into a first-k sink: nothing beyond the 5 reported
    // structures is ever materialized, and the search stops as soon as
    // enough are found.
    let mut sink = FirstKSink::new(5);
    let outcome = prepared.run().stream(&mut sink);
    println!(
        "showing {} suspicious round-trip structures ({:.3} ms)",
        sink.tuples.len(),
        outcome.metrics.total_time.as_secs_f64() * 1e3
    );
    for t in &sink.tuples {
        println!("  person {} : legal {} => illegal {} => legal {}", t[0], t[1], t[2], t[3]);
    }

    // Show the RIG compression: candidate space vs raw label space.
    let snapshot = session.graph();
    let raw: u64 =
        q.labels().iter().map(|&l| snapshot.graph().nodes_with_label(l).len() as u64).sum();
    println!(
        "RIG kept {} candidate nodes out of {} label-matched nodes",
        outcome.metrics.rig_stats.node_count, raw
    );
}
