//! Allocation regression test for the factorized counting DP: after one
//! warm-up pass, repeated `count()` calls on a prebuilt
//! [`rig_mjoin::Factorization`] must perform **zero heap allocations** —
//! the DP runs entirely in the scratch buffers sized at construction time.
//! Same counting-global-allocator harness as `alloc_steady.rs` (own test
//! binary so the counter sees every allocation in the process).
//!
//! The dense graph's reachability edges share runs, so the window also
//! covers the DP's per-run memo.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rig_graph::{GraphBuilder, NodeId};
use rig_index::{build_rig, RigOptions};
use rig_mjoin::Factorization;
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

/// Dense one-label graph so every query below has a large answer count
/// (and, being mostly one SCC, reachability runs shared between sources).
fn dense_graph() -> rig_graph::DataGraph {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(11);
    let n = 150usize;
    let mut b = GraphBuilder::new();
    for _ in 0..n {
        b.add_node(0);
    }
    for _ in 0..1200 {
        let u = rng.gen_range(0..n) as NodeId;
        let v = rng.gen_range(0..n) as NodeId;
        if u != v {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// A tree query (pure DP, no conditioning) and a cyclic query (non-empty
/// conditioning set, so the per-S-binding re-expansion loop runs too).
fn queries() -> Vec<PatternQuery> {
    let mut tree = PatternQuery::new(vec![0; 4]);
    tree.add_edge(0, 1, EdgeKind::Direct);
    tree.add_edge(1, 2, EdgeKind::Reachability);
    tree.add_edge(1, 3, EdgeKind::Direct);
    let mut cyc = PatternQuery::new(vec![0; 4]);
    cyc.add_edge(0, 1, EdgeKind::Direct);
    cyc.add_edge(1, 2, EdgeKind::Direct);
    cyc.add_edge(2, 3, EdgeKind::Reachability);
    cyc.add_edge(0, 3, EdgeKind::Reachability); // closes the cycle
    vec![tree, cyc]
}

#[test]
fn repeated_dp_counts_do_not_allocate() {
    let g = dense_graph();
    let bfl = BflIndex::new(&g);
    for (qi, q) in queries().iter().enumerate() {
        let ctx = SimContext::new(&g, q, &bfl);
        let rig = build_rig(&ctx, &bfl, &RigOptions::default());
        assert!(!rig.is_empty(), "workload query {qi} must have matches");
        let shared = q.edges().iter().enumerate().any(|(eid, e)| {
            rig.num_runs(eid as u32, true) < rig.cos_len(e.from) as usize
                || rig.num_runs(eid as u32, false) < rig.cos_len(e.to) as usize
        });
        assert!(shared, "query {qi}: some RIG edge must share a run");

        let mut f = Factorization::new(q, &rig);
        if qi == 1 {
            assert!(!f.is_tree(), "cyclic query must exercise conditioning");
        }
        // warm-up: first pass may lazily touch nothing, but keep the
        // steady-state window strictly after it regardless
        let warm = f.count();
        let expect = warm.total.expect("counts fit in u128 here");
        assert!(expect > 0);

        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        for _ in 0..50 {
            let c = f.count();
            assert_eq!(c.total, Some(expect));
        }
        let after = ALLOC_CALLS.load(Ordering::Relaxed);
        assert_eq!(
            after,
            before,
            "query {qi}: DP count path allocated {} time(s) across 50 steady-state runs",
            after - before
        );
    }
}
