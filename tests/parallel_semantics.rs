//! Semantics of the morsel-driven parallel engine: deterministic match
//! sets, exact limits, prompt timeouts, and total `EnumResult` merging.

mod testkit;

use std::time::{Duration, Instant};

use rigmatch::graph::{DataGraph, NodeId};
use rigmatch::mjoin::{
    enumerate_sink, par_enumerate, CollectSink, CountSink, EnumOptions, EnumResult, ParOptions,
};
use rigmatch::query::{EdgeKind, PatternQuery};
use rigmatch::rig::{Rig, RigOptions};
use testkit::{count, explosive_graph, query, random_graph, reach_chain, sequential, D, R};

fn build(g: &DataGraph, q: &PatternQuery) -> Rig {
    testkit::rig(g, q, &RigOptions::exact())
}

/// Counts through `par_enumerate` with one `CountSink` per worker; the
/// sinks must agree with the merged result.
fn par_total(q: &PatternQuery, rig: &Rig, opts: &EnumOptions, par: &ParOptions) -> EnumResult {
    let (sinks, r) = par_enumerate(q, rig, opts, par, |_| CountSink::default());
    assert_eq!(r.count, sinks.iter().map(|s| s.count).sum::<u64>());
    r
}

/// Mixed-label random graph with a hybrid 3-node pattern — a mid-size
/// answer set with skewed per-root work.
fn mixed_setup(seed: u64) -> (DataGraph, PatternQuery) {
    let q = query(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)], &[D, R, R]);
    (random_graph(150, 600, 3, seed), q)
}

/// One-label dense graph whose 5-chain reachability query has an
/// astronomically large answer — the budget-stress workload.
fn explosive_setup() -> (DataGraph, PatternQuery) {
    (explosive_graph(99, 300, 3000), reach_chain(5))
}

/// Determinism: with a sorting (collect-then-sort) sink, the match set is
/// byte-identical for every thread count and every morsel size — including
/// morsel size 1 and a morsel larger than the whole root candidate range.
#[test]
fn sorted_match_sets_are_invariant_to_threads_and_morsels() {
    let (g, q) = mixed_setup(11);
    let rig = build(&g, &q);
    let opts = EnumOptions::default();
    let (expect, seq) = sequential(&q, &rig, &opts);
    assert!(seq.count > 50, "workload too small to be meaningful: {}", seq.count);
    let huge = rig.candidates(0).len() + 7; // > |candidates| of every node
    for threads in [1usize, 2, 3, 8] {
        for morsel in [1usize, 5, 64, huge] {
            let (tuples, r) = testkit::parallel(&q, &rig, &opts, ParOptions { threads, morsel });
            assert_eq!(tuples, expect, "match set differs at threads={threads} morsel={morsel}");
            assert_eq!(r.count, seq.count);
            assert!(!r.timed_out && !r.limit_hit);
        }
    }
}

/// With `limit = k`, sequential and parallel runs both produce exactly `k`
/// matches and set `limit_hit` — the shared reservation counter caps
/// emission across workers with no sequential fallback.
#[test]
fn limit_is_exact_and_flagged_in_both_engines() {
    let (g, q) = explosive_setup();
    let rig = build(&g, &q);
    for k in [1u64, 17, 1000] {
        let opts = EnumOptions { limit: Some(k), ..Default::default() };
        let seq = count(&q, &rig, &opts);
        assert_eq!(seq.count, k);
        assert!(seq.limit_hit && !seq.timed_out);
        for threads in [2usize, 8] {
            let (sinks, par) =
                par_enumerate(&q, &rig, &opts, &ParOptions { threads, morsel: 4 }, |_| {
                    CollectSink::default()
                });
            assert_eq!(par.count, k, "threads={threads} k={k}");
            assert!(par.limit_hit, "threads={threads} k={k}: limit_hit dropped");
            assert!(!par.timed_out);
            let emitted: usize = sinks.iter().map(|s| s.tuples.len()).sum();
            assert_eq!(emitted as u64, k, "sinks saw a different number of tuples");
        }
    }
}

/// A zero wall-clock budget terminates every worker promptly: no worker
/// claims a morsel, the run reports `timed_out`, and the whole call stays
/// far under the explosive workload's natural runtime.
#[test]
fn zero_budget_timeout_terminates_workers_promptly() {
    let (g, q) = explosive_setup();
    let rig = build(&g, &q);
    let start = Instant::now();
    let opts = EnumOptions { deadline: Some(start), ..Default::default() };
    let r = par_total(&q, &rig, &opts, &ParOptions::with_threads(8));
    let elapsed = start.elapsed();
    assert!(r.timed_out, "zero budget must time out");
    assert_eq!(r.count, 0, "no matches can be produced on an expired budget");
    assert!(elapsed < Duration::from_secs(5), "workers did not stop promptly: {elapsed:?}");
}

/// A small nonzero budget interrupts a parallel explosive enumeration and
/// the flag survives the merge.
#[test]
fn parallel_timeout_interrupts_explosive_enumeration() {
    let (g, q) = explosive_setup();
    let rig = build(&g, &q);
    let start = Instant::now();
    let opts =
        EnumOptions { deadline: Some(start + Duration::from_millis(50)), ..Default::default() };
    let r = par_total(&q, &rig, &opts, &ParOptions::with_threads(4));
    assert!(r.timed_out, "must hit the wall-clock budget");
    assert!(start.elapsed() < Duration::from_secs(10));
    assert!(r.count > 0, "partial results are still produced");
}

/// Regression for the pre-morsel merge bug: the static-partition driver
/// OR'd `timed_out` across workers but silently dropped `limit_hit`.
/// `EnumResult::merge` must keep both flags, in every combination.
#[test]
fn merge_keeps_both_budget_flags() {
    for (lh_a, lh_b) in [(false, true), (true, false), (true, true), (false, false)] {
        for (to_a, to_b) in [(false, true), (true, false), (false, false)] {
            let mut a =
                EnumResult { count: 2, timed_out: to_a, limit_hit: lh_a, order: vec![0], steps: 5 };
            let b =
                EnumResult { count: 3, timed_out: to_b, limit_hit: lh_b, order: vec![0], steps: 6 };
            a.merge(&b);
            assert_eq!(a.count, 5);
            assert_eq!(a.steps, 11);
            assert_eq!(a.limit_hit, lh_a || lh_b, "limit_hit must OR across workers");
            assert_eq!(a.timed_out, to_a || to_b, "timed_out must OR across workers");
        }
    }
}

/// A parallel count with a limit reports `limit_hit` end to end (the observable
/// symptom of the old dropped-flag bug, now exercised through the real
/// parallel path instead of a fallback).
#[test]
fn par_count_reports_limit_hit() {
    let (g, q) = mixed_setup(4);
    let rig = build(&g, &q);
    let full = count(&q, &rig, &EnumOptions::default());
    assert!(full.count >= 4, "need a few matches");
    let k = full.count / 2;
    let opts = EnumOptions { limit: Some(k), ..Default::default() };
    let r = par_total(&q, &rig, &opts, &ParOptions { threads: 3, morsel: 2 });
    assert_eq!(r.count, k);
    assert!(r.limit_hit, "limit_hit lost in the parallel merge");
}

/// Degenerate shapes: more threads than root candidates, and an empty RIG.
#[test]
fn degenerate_shapes_are_safe() {
    let (g, q) = mixed_setup(7);
    let rig = build(&g, &q);
    let seq = count(&q, &rig, &EnumOptions::default());
    let wide = par_total(&q, &rig, &EnumOptions::default(), &ParOptions { threads: 64, morsel: 1 });
    assert_eq!(wide.count, seq.count);

    // empty RIG: label 7 never occurs
    let mut q2 = PatternQuery::new(vec![7, 1]);
    q2.add_edge(0, 1, EdgeKind::Direct);
    let rig2 = build(&g, &q2);
    let r = par_total(&q2, &rig2, &EnumOptions::default(), &ParOptions::with_threads(4));
    assert_eq!(r.count, 0);
    assert!(!r.timed_out && !r.limit_hit);
}

/// One thread runs the sequential engine inline: `par_enumerate` builds
/// exactly one sink on the calling thread, every push happens there, and
/// the tuple sequence is `enumerate_sink`'s, in the same order.
#[test]
fn single_thread_runs_inline_in_sequential_order() {
    struct ThreadCheckSink {
        owner: std::thread::ThreadId,
        tuples: Vec<Vec<NodeId>>,
    }
    impl rigmatch::mjoin::ResultSink for ThreadCheckSink {
        fn push(&mut self, tuple: &[NodeId]) -> bool {
            assert_eq!(std::thread::current().id(), self.owner, "push left the calling thread");
            self.tuples.push(tuple.to_vec());
            true
        }
    }

    let (g, q) = mixed_setup(5);
    let rig = build(&g, &q);
    let caller = std::thread::current().id();
    for opts in [EnumOptions::default(), EnumOptions { limit: Some(7), ..Default::default() }] {
        let mut expect = CollectSink::default();
        let seq = enumerate_sink(&q, &rig, &opts, &mut expect);
        assert!(expect.tuples.len() > 5, "workload too small: {}", expect.tuples.len());
        for morsel in [1usize, 64] {
            let (sinks, r) =
                par_enumerate(&q, &rig, &opts, &ParOptions { threads: 1, morsel }, |w| {
                    assert_eq!(w, 0);
                    assert_eq!(
                        std::thread::current().id(),
                        caller,
                        "sink built off the calling thread"
                    );
                    ThreadCheckSink { owner: caller, tuples: Vec::new() }
                });
            assert_eq!(sinks.len(), 1, "one thread must mean one sink");
            assert_eq!(
                sinks[0].tuples, expect.tuples,
                "tuple sequence differs from enumerate_sink"
            );
            assert_eq!((r.count, r.limit_hit, r.steps), (seq.count, seq.limit_hit, seq.steps));
        }
    }
}
