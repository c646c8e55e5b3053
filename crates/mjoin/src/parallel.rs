//! Morsel-driven parallel MJoin (§6 future work: "exploit [bitmap
//! chunking] to design a parallel graph pattern evaluation algorithm that
//! works with multiple threads").
//!
//! Strategy (see `docs/parallel.md` for the full protocol): the candidate
//! array of the *first* search-order node is a single shared work queue.
//! Workers claim fixed-size **morsels** `[lo, lo + morsel)` of that range
//! with one `fetch_add` on an atomic cursor and run the ordinary
//! allocation-free backtracking search under each claimed root binding.
//! There is no static partitioning and therefore no slice imbalance: a
//! worker that lands on cheap roots simply claims more morsels
//! (work-stealing degenerates to cursor contention). The RIG is immutable
//! and shared by reference; each worker owns its per-depth scratch and its
//! [`ResultSink`], so the emit path takes no locks.
//!
//! Unlike the earlier static-partition driver, `limit` and `deadline` are
//! honored **under parallelism**: matches are reserved on a shared atomic
//! counter (exactly `limit` matches are emitted across all workers, and
//! `limit_hit` survives the merge); every worker charges the one deadline,
//! and the first to see it pass raises a shared stop flag that terminates
//! every worker within one recursion step.
//!
//! [`par_enumerate`] is the only driver. With one thread it runs the
//! sequential engine inline on the calling thread, so callers choose
//! between sequential and parallel execution by the thread count alone.

use std::sync::atomic::Ordering;

use crate::sink::ResultSink;
use crate::{enumerate_sink, EnumOptions, EnumResult, Plan, SharedState, Worker};
use rig_index::Rig;
use rig_query::PatternQuery;

/// Default morsel size: big enough to amortize a cache-hot `fetch_add`,
/// small enough to balance skewed root bindings.
pub const DEFAULT_MORSEL: usize = 64;

/// Parallel-execution options.
#[derive(Debug, Clone, Copy)]
pub struct ParOptions {
    /// Worker threads. `0` and `1` both mean one worker.
    pub threads: usize,
    /// Root-range positions claimed per cursor bump (clamped to >= 1).
    pub morsel: usize,
}

impl ParOptions {
    /// `threads` workers with the default morsel size.
    pub fn with_threads(threads: usize) -> Self {
        ParOptions { threads, morsel: DEFAULT_MORSEL }
    }
}

/// Enumerates with `par.threads` workers, streaming matches into
/// **per-worker sinks** (`make_sink(worker_index)` builds one sink per
/// worker; no locking on the emit path). Returns the sinks — in
/// worker-index order — plus the merged [`EnumResult`].
///
/// `threads <= 1` builds one sink and runs one worker inline on the
/// calling thread, exactly like [`enumerate_sink`]: no thread is spawned
/// and no shared budget state is paid for. With more threads, which
/// worker sees which match is scheduling-dependent, but without a `limit`
/// the *multiset* of matches across all sinks is exactly the sequential
/// answer, for every thread count and morsel size.
pub fn par_enumerate<S, F>(
    query: &PatternQuery,
    rig: &Rig,
    opts: &EnumOptions,
    par: &ParOptions,
    make_sink: F,
) -> (Vec<S>, EnumResult)
where
    S: ResultSink + Send,
    F: Fn(usize) -> S + Sync,
{
    if par.threads <= 1 {
        let mut sink = make_sink(0);
        let result = enumerate_sink(query, rig, opts, &mut sink);
        return (vec![sink], result);
    }
    let threads = par.threads;
    let morsel = par.morsel.max(1);
    let plan = Plan::new(query, rig, opts);
    let mut merged = EnumResult::empty(plan.order.clone());
    if rig.is_empty() || query.num_nodes() == 0 {
        let sinks = (0..threads)
            .map(|w| {
                let mut s = make_sink(w);
                s.finish();
                s
            })
            .collect();
        return (sinks, merged);
    }

    let shared = SharedState::new();
    let (plan_ref, shared_ref, make_sink_ref) = (&plan, &shared, &make_sink);
    let worker_outputs: Vec<(S, EnumResult)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                scope.spawn(move || {
                    let mut sink = make_sink_ref(w);
                    let mut worker = Worker::new(rig, opts, plan_ref, Some(shared_ref));
                    worker.run_morsels(&mut sink, morsel);
                    (sink, worker.result)
                })
            })
            .collect();
        // a worker's panic is re-raised on the calling thread unchanged
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    });

    let mut sinks = Vec::with_capacity(threads);
    for (sink, r) in worker_outputs {
        merged.merge(&r);
        sinks.push(sink);
    }
    merged.timed_out |= shared.timed_out.load(Ordering::Relaxed);
    merged.limit_hit |= shared.limit_hit.load(Ordering::Relaxed);
    (sinks, merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{collect, count};
    use crate::{CollectSink, CountSink, EnumOptions};
    use rig_graph::GraphBuilder;
    use rig_index::{build_rig, RigOptions};
    use rig_query::{EdgeKind, PatternQuery};
    use rig_reach::BflIndex;
    use rig_sim::SimContext;

    fn random_setup(seed: u64) -> (rig_graph::DataGraph, PatternQuery) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 120;
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_node(rng.gen_range(0..3));
        }
        for _ in 0..400 {
            let u = rng.gen_range(0..n) as u32;
            let v = rng.gen_range(0..n) as u32;
            if u != v {
                b.add_edge(u, v);
            }
        }
        let g = b.build();
        let mut q = PatternQuery::new(vec![0, 1, 2]);
        q.add_edge(0, 1, EdgeKind::Direct);
        q.add_edge(1, 2, EdgeKind::Reachability);
        (g, q)
    }

    fn rig_of(g: &rig_graph::DataGraph, q: &PatternQuery) -> Rig {
        let bfl = BflIndex::new(g);
        let ctx = SimContext::new(g, q, &bfl);
        build_rig(&ctx, &RigOptions::exact())
    }

    #[test]
    fn parallel_count_equals_sequential() {
        for seed in 0..5u64 {
            let (g, q) = random_setup(seed);
            let rig = rig_of(&g, &q);
            let seq = count(&q, &rig, &EnumOptions::default());
            for threads in [2usize, 4, 8] {
                let par = ParOptions::with_threads(threads);
                let (sinks, r) = par_enumerate(&q, &rig, &EnumOptions::default(), &par, |_| {
                    CountSink::default()
                });
                assert_eq!(r.count, seq.count, "seed={seed} threads={threads}");
                assert_eq!(sinks.iter().map(|s| s.count).sum::<u64>(), seq.count);
                assert!(!r.timed_out && !r.limit_hit);
            }
        }
    }

    /// Limits no longer force a sequential fallback: the shared reservation
    /// counter caps emission at exactly `limit` across workers and the
    /// merged result reports `limit_hit`.
    #[test]
    fn limit_honored_under_parallelism() {
        let (g, q) = random_setup(0);
        let rig = rig_of(&g, &q);
        let opts = EnumOptions { limit: Some(3), ..Default::default() };
        let (sinks, r) = par_enumerate(&q, &rig, &opts, &ParOptions::with_threads(4), |_| {
            CollectSink::default()
        });
        assert_eq!(r.count, 3);
        assert!(r.limit_hit);
        // the emitted tuples themselves are also capped at the limit
        assert_eq!(sinks.iter().map(|s| s.tuples.len()).sum::<usize>(), 3);
    }

    #[test]
    fn single_thread_is_sequential() {
        let (g, q) = random_setup(1);
        let rig = rig_of(&g, &q);
        let par = ParOptions::with_threads(1);
        let (sinks, a) =
            par_enumerate(&q, &rig, &EnumOptions::default(), &par, |_| CountSink::default());
        let b = count(&q, &rig, &EnumOptions::default());
        assert_eq!(a.count, b.count);
        assert_eq!(sinks.len(), 1);
    }

    #[test]
    fn sorted_collection_matches_sequential_answer() {
        let (g, q) = random_setup(2);
        let rig = rig_of(&g, &q);
        let (mut seq, _) = collect(&q, &rig, &EnumOptions::default(), usize::MAX);
        seq.sort_unstable();
        let (sinks, r) = par_enumerate(
            &q,
            &rig,
            &EnumOptions::default(),
            &ParOptions { threads: 3, morsel: 2 },
            |_| CollectSink::default(),
        );
        let mut par: Vec<_> = sinks.into_iter().flat_map(|s| s.tuples).collect();
        par.sort_unstable();
        assert_eq!(par, seq);
        assert_eq!(r.count as usize, seq.len());
    }

    /// A sink that asks to stop stops every worker (cooperative early
    /// termination without setting `limit_hit`).
    #[test]
    fn sink_stop_propagates_to_all_workers() {
        let (g, q) = random_setup(3);
        let rig = rig_of(&g, &q);
        let seq = count(&q, &rig, &EnumOptions::default());
        assert!(seq.count > 8, "workload must be non-trivial");
        let (sinks, r) = par_enumerate(
            &q,
            &rig,
            &EnumOptions::default(),
            &ParOptions { threads: 4, morsel: 1 },
            |_| crate::FirstKSink::new(2),
        );
        let kept: usize = sinks.iter().map(|s| s.tuples.len()).sum();
        assert!(kept >= 2, "at least one worker filled its sink");
        assert!(r.count < seq.count, "early stop must prune the run");
        assert!(!r.limit_hit, "sink stop is not a limit");
    }
}
