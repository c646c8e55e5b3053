//! Budget enforcement: timeouts fire on explosive enumerations; limits are
//! exact; steps accounting is sane.

use std::time::{Duration, Instant};

use rig_graph::{GraphBuilder, NodeId};
use rig_index::{build_rig, RigOptions};
use rig_mjoin::{count, par_enumerate, CountSink, EnumOptions, ParOptions};
use rig_query::{EdgeKind, PatternQuery};
use rig_reach::BflIndex;
use rig_sim::SimContext;

/// One-label dense random graph: every k-chain reachability query has an
/// astronomically large answer.
fn explosive_setup() -> (rig_graph::DataGraph, PatternQuery) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(99);
    let n = 300usize;
    let mut b = GraphBuilder::new();
    for _ in 0..n {
        b.add_node(0);
    }
    for _ in 0..3000 {
        let u = rng.gen_range(0..n) as NodeId;
        let v = rng.gen_range(0..n) as NodeId;
        if u != v {
            b.add_edge(u, v);
        }
    }
    let g = b.build();
    let mut q = PatternQuery::new(vec![0; 5]);
    for i in 1..5u32 {
        q.add_edge(i - 1, i, EdgeKind::Reachability);
    }
    (g, q)
}

/// A 50 ms deadline stops the explosive enumeration, sequential and on
/// two `par_enumerate` workers, within 100 ms of passing.
#[test]
fn timeout_interrupts_explosive_enumeration() {
    let (g, q) = explosive_setup();
    let bfl = BflIndex::new(&g);
    let ctx = SimContext::new(&g, &q, &bfl);
    let rig = build_rig(&ctx, &RigOptions::default());
    for threads in [1, 2] {
        let deadline = Instant::now() + Duration::from_millis(50);
        let opts = EnumOptions { deadline: Some(deadline), ..Default::default() };
        let par = ParOptions::with_threads(threads);
        let (sinks, r) = par_enumerate(&q, &rig, &opts, &par, |_| CountSink::default());
        let late = Instant::now().saturating_duration_since(deadline);
        assert!(r.timed_out, "{threads} thread(s): must hit the wall-clock budget");
        assert!(
            late < Duration::from_millis(100),
            "{threads} thread(s): {late:?} past the deadline"
        );
        assert!(r.count > 0, "partial results are still produced");
        assert_eq!(sinks.iter().map(|s| s.count).sum::<u64>(), r.count);
    }
}

#[test]
fn limit_is_exact_on_large_answers() {
    let (g, q) = explosive_setup();
    let bfl = BflIndex::new(&g);
    let ctx = SimContext::new(&g, &q, &bfl);
    let rig = build_rig(&ctx, &RigOptions::default());
    for limit in [1u64, 17, 1000] {
        let r = count(&q, &rig, &EnumOptions { limit: Some(limit), ..Default::default() });
        assert_eq!(r.count, limit);
        assert!(r.limit_hit);
        assert!(!r.timed_out);
    }
}

#[test]
fn steps_bounded_by_answer_plus_backtracks() {
    let (g, q) = explosive_setup();
    let bfl = BflIndex::new(&g);
    let ctx = SimContext::new(&g, &q, &bfl);
    let rig = build_rig(&ctx, &RigOptions::default());
    let r = count(&q, &rig, &EnumOptions { limit: Some(5_000), ..Default::default() });
    // every answer takes at most |V(Q)| recursion steps on this workload
    assert!(r.steps <= r.count * q.num_nodes() as u64 + q.num_nodes() as u64 * 5_000);
}
