//! Allocation regression test: steady-state MJoin enumeration must perform
//! **zero heap allocations per recursion step**. A counting global
//! allocator (own test binary) counts the allocations of each thread; a
//! test snapshots its own thread's count at the first emitted tuple (after
//! which all per-depth scratch is warm) and asserts it never moves again
//! for the remainder of the sequential enumeration, which runs on that
//! thread. Counting per thread keeps the test harness's own allocations
//! on other threads out of the window. The second workload's plan has a
//! memo split, so its window also covers suffix recordings and replays.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rig_graph::{GraphBuilder, NodeId};
use rig_index::reference::build_reference_rig;
use rig_index::{build_rig, RigOptions};
use rig_mjoin::reference::ref_count;
use rig_mjoin::{enumerate, EnumOptions, EnumResult, Plan};
use rig_query::{EdgeKind, PatternQuery};
use rig_reach::BflIndex;
use rig_sim::SimContext;

struct CountingAlloc;

thread_local! {
    /// Allocation calls made by this thread. A const-initialized `Cell`
    /// needs no lazy set-up and no destructor, so the allocator can touch
    /// it without allocating.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_call() {
    // a thread being torn down may have lost its slot: skip the count
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

/// Allocation calls made so far by the calling thread.
fn alloc_calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Dense one-label random graph (one giant SCC).
fn dense_graph() -> rig_graph::DataGraph {
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
    b.build()
}

/// A 4-node pattern with a skipping constraint, so the enumeration has an
/// astronomically large answer, exercises both the single-operand and the
/// multiway-intersection paths, and emits plenty of tuples for the
/// steady-state window.
fn chain_query() -> PatternQuery {
    let mut q = PatternQuery::new(vec![0; 4]);
    q.add_edge(0, 1, EdgeKind::Reachability);
    q.add_edge(1, 2, EdgeKind::Direct);
    q.add_edge(2, 3, EdgeKind::Reachability);
    q.add_edge(0, 2, EdgeKind::Reachability); // second operand at step of node 2
    q
}

/// HQ0-shaped: a direct leaf beside a reachability branch. The branch
/// reads only shared runs, so the suffix below the leaf replays.
fn star_query() -> PatternQuery {
    let mut q = PatternQuery::new(vec![0; 4]);
    q.add_edge(0, 1, EdgeKind::Direct);
    q.add_edge(0, 2, EdgeKind::Reachability);
    q.add_edge(2, 3, EdgeKind::Reachability);
    q
}

/// Enumerates 100k matches of `q` and asserts the allocation count did not
/// move between the first and the last emitted tuple.
fn assert_steady(g: &rig_graph::DataGraph, q: &PatternQuery) -> EnumResult {
    let bfl = BflIndex::new(g);
    let ctx = SimContext::new(g, q, &bfl);
    let rig = build_rig(&ctx, &bfl, &RigOptions::default());
    assert!(!rig.is_empty(), "workload must have matches");

    let opts = EnumOptions { limit: Some(100_000), ..Default::default() };
    let mut at_first_visit: Option<u64> = None;
    let mut at_last_visit: u64 = 0;
    let mut visits: u64 = 0;
    let r = enumerate(q, &rig, &opts, |_| {
        let now = alloc_calls();
        if at_first_visit.is_none() {
            at_first_visit = Some(now);
        }
        at_last_visit = now;
        visits += 1;
        true
    });
    assert!(visits >= 10_000, "need a meaningful steady-state window, got {visits} tuples");
    assert_eq!(r.count, visits);
    // set at the first of the (at least 10 000) tuples
    let first = at_first_visit.unwrap_or(u64::MAX);
    assert_eq!(
        at_last_visit,
        first,
        "MJoin allocated {} time(s) during steady-state enumeration ({} tuples)",
        at_last_visit - first,
        visits
    );
    r
}

#[test]
fn zero_allocations_per_steady_state_step() {
    assert_steady(&dense_graph(), &chain_query());
}

/// The memo records before the first tuple and replays after it: the
/// replays keep the steps far below the memo-free reference engine's under
/// the same limit, and still allocate nothing.
#[test]
fn zero_allocations_while_replaying_a_suffix() {
    let (g, q) = (dense_graph(), star_query());
    let bfl = BflIndex::new(&g);
    let ctx = SimContext::new(&g, &q, &bfl);
    let rig = build_rig(&ctx, &bfl, &RigOptions::default());
    assert!(Plan::new(&q, &rig, &EnumOptions::default()).memo_split().is_some());
    let r = assert_steady(&g, &q);
    let opts = EnumOptions { limit: Some(100_000), ..Default::default() };
    let reference = ref_count(&q, &build_reference_rig(&ctx, &RigOptions::default()), &opts);
    assert_eq!(reference.count, r.count);
    assert!(r.steps * 4 < reference.steps, "{} steps, the reference {}", r.steps, reference.steps);
}
