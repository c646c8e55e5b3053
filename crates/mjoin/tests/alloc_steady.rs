//! Allocation regression test: steady-state MJoin enumeration must perform
//! **zero heap allocations per recursion step**. A counting global
//! allocator (own test binary, so the counter sees every allocation in the
//! process) snapshots the allocation count at the first emitted tuple
//! (after which all per-depth scratch is warm) and asserts it never moves
//! again for the remainder of the enumeration.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rig_graph::{GraphBuilder, NodeId};
use rig_index::{build_rig, RigOptions};
use rig_mjoin::{enumerate, EnumOptions};
use rig_query::{EdgeKind, PatternQuery};
use rig_reach::BflIndex;
use rig_sim::SimContext;

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Dense one-label graph + a 4-node pattern with a skipping constraint, so
/// the enumeration has an astronomically large answer, exercises both the
/// single-operand and the multiway-intersection paths, and emits plenty of
/// tuples for the steady-state window.
fn workload() -> (rig_graph::DataGraph, PatternQuery) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(7);
    let n = 200usize;
    let mut b = GraphBuilder::new();
    for _ in 0..n {
        b.add_node(0);
    }
    for _ in 0..1500 {
        let u = rng.gen_range(0..n) as NodeId;
        let v = rng.gen_range(0..n) as NodeId;
        if u != v {
            b.add_edge(u, v);
        }
    }
    let g = b.build();
    let mut q = PatternQuery::new(vec![0; 4]);
    q.add_edge(0, 1, EdgeKind::Reachability);
    q.add_edge(1, 2, EdgeKind::Direct);
    q.add_edge(2, 3, EdgeKind::Reachability);
    q.add_edge(0, 2, EdgeKind::Reachability); // second operand at step of node 2
    (g, q)
}

#[test]
fn zero_allocations_per_steady_state_step() {
    let (g, q) = workload();
    let bfl = BflIndex::new(&g);
    let ctx = SimContext::new(&g, &q, &bfl);
    let rig = build_rig(&ctx, &bfl, &RigOptions::default());
    assert!(!rig.is_empty(), "workload must have matches");

    let opts = EnumOptions { limit: Some(100_000), ..Default::default() };
    let mut at_first_visit: Option<u64> = None;
    let mut at_last_visit: u64 = 0;
    let mut visits: u64 = 0;
    let r = enumerate(&q, &rig, &opts, |_| {
        let now = ALLOC_CALLS.load(Ordering::Relaxed);
        if at_first_visit.is_none() {
            at_first_visit = Some(now);
        }
        at_last_visit = now;
        visits += 1;
        true
    });
    assert!(visits >= 10_000, "need a meaningful steady-state window, got {visits} tuples");
    assert_eq!(r.count, visits);
    let first = at_first_visit.expect("at least one tuple");
    assert_eq!(
        at_last_visit,
        first,
        "MJoin allocated {} time(s) during steady-state enumeration ({} tuples)",
        at_last_visit - first,
        visits
    );
}
