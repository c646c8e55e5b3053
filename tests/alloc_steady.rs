//! Allocation regression test: steady-state MJoin enumeration must perform
//! **zero heap allocations per recursion step**. A counting global
//! allocator (own test binary) counts the allocations of each thread; a
//! test snapshots its own thread's count at the first emitted tuple (after
//! which all per-depth scratch is warm) and asserts it never moves again
//! for the remainder of the enumeration, which runs on that thread. Counting per thread keeps the test harness's own allocations
//! on other threads out of the window. The second workload's plan has a
//! memo split, so its window also covers suffix recordings and replays;
//! the third formats every tuple into batched writes through a
//! `WriteSink`.

mod testkit;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rigmatch::graph::{DataGraph, NodeId};
use rigmatch::mjoin::{
    enumerate_sink, CountSink, EnumOptions, EnumResult, Plan, ResultSink, TupleFormat, WriteSink,
};
use rigmatch::query::PatternQuery;
use rigmatch::rig::{Rig, RigOptions};
use testkit::{memo_free_steps, query, D, R};

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
fn dense_graph() -> DataGraph {
    testkit::explosive_graph(7, 200, 1500)
}

/// A 4-node pattern with a skipping constraint, so the enumeration has an
/// astronomically large answer, exercises both the single-operand and the
/// multiway-intersection paths, and emits plenty of tuples for the
/// steady-state window.
fn chain_query() -> PatternQuery {
    // the edge 0 ⇝ 2 is a second operand at node 2's step
    query(&[0; 4], &[(0, 1), (1, 2), (2, 3), (0, 2)], &[R, D, R, R])
}

/// HQ0-shaped: a direct leaf beside a reachability branch. The branch
/// reads only shared runs, so the suffix below the leaf replays.
fn star_query() -> PatternQuery {
    query(&[0; 4], &testkit::HQ0, &[D, R, R])
}

fn rig_of(g: &DataGraph, q: &PatternQuery) -> Rig {
    testkit::rig(g, q, &RigOptions::default())
}

/// Passes tuples on to `inner` and samples the thread's allocation count
/// after every push.
struct Probe<S> {
    inner: S,
    at_first_visit: Option<u64>,
    at_last_visit: u64,
    visits: u64,
}

impl<S: ResultSink> ResultSink for Probe<S> {
    fn push(&mut self, tuple: &[NodeId]) -> bool {
        let more = self.inner.push(tuple);
        let now = alloc_calls();
        self.at_first_visit.get_or_insert(now);
        self.at_last_visit = now;
        self.visits += 1;
        more
    }
}

/// Enumerates 100k matches of `q` into `sink` and asserts the allocation
/// count did not move between the first and the last emitted tuple.
fn assert_steady(g: &DataGraph, q: &PatternQuery, sink: impl ResultSink) -> EnumResult {
    let rig = rig_of(g, q);
    assert!(!rig.is_empty(), "workload must have matches");

    let opts = EnumOptions { limit: Some(100_000), ..Default::default() };
    let mut probe = Probe { inner: sink, at_first_visit: None, at_last_visit: 0, visits: 0 };
    let r = enumerate_sink(q, &rig, &opts, &mut probe);
    let visits = probe.visits;
    assert!(visits >= 10_000, "need a meaningful steady-state window, got {visits} tuples");
    assert_eq!(r.count, visits);
    // set at the first of the (at least 10 000) tuples
    let first = probe.at_first_visit.unwrap_or(u64::MAX);
    assert_eq!(
        probe.at_last_visit,
        first,
        "MJoin allocated {} time(s) during steady-state enumeration ({} tuples)",
        probe.at_last_visit - first,
        visits
    );
    r
}

#[test]
fn zero_allocations_per_steady_state_step() {
    assert_steady(&dense_graph(), &chain_query(), CountSink::default());
}

/// Formatting tuples into batched writes allocates nothing per tuple
/// either: the sink's buffer is sized for a full batch up front.
#[test]
fn zero_allocations_while_streaming_through_a_write_sink() {
    let q = chain_query();
    let sink = WriteSink::new(std::io::sink(), q.num_nodes(), 256, TupleFormat::NDJSON);
    assert_steady(&dense_graph(), &q, sink);
}

/// The memo records before the first tuple and replays after it: the
/// replays keep the steps far below a memo-free search's in the same order
/// under the same limit, and still allocate nothing.
#[test]
fn zero_allocations_while_replaying_a_suffix() {
    let (g, q) = (dense_graph(), star_query());
    let rig = rig_of(&g, &q);
    let plan = Plan::new(&q, &rig, &EnumOptions::default());
    assert!(plan.memo_split().is_some());
    let r = assert_steady(&g, &q, CountSink::default());
    let free = memo_free_steps(&q, &rig, &plan.order, r.count);
    assert!(r.steps * 4 < free, "{} steps, memo-free {free}", r.steps);
}
