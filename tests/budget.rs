//! Budget enforcement on an explosive workload: timeouts fire, limits are
//! exact, and step accounting is sane.

mod testkit;

use std::time::{Duration, Instant};

use rigmatch::mjoin::{par_enumerate, CountSink, EnumOptions, ParOptions};
use rigmatch::rig::{Rig, RigOptions};
use testkit::{explosive_graph, reach_chain, rig};

/// A one-label dense random graph and a 5-chain reachability query, whose
/// answer is astronomically large.
fn explosive() -> (rigmatch::query::PatternQuery, Rig) {
    let q = reach_chain(5);
    let rig = rig(&explosive_graph(99, 300, 3000), &q, &RigOptions::default());
    (q, rig)
}

/// A 50 ms deadline stops the explosive enumeration, sequential and on
/// two `par_enumerate` workers, within 100 ms of passing.
#[test]
fn timeout_interrupts_explosive_enumeration() {
    let (q, rig) = explosive();
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
    let (q, rig) = explosive();
    for limit in [1u64, 17, 1000] {
        let r = testkit::count(&q, &rig, &EnumOptions { limit: Some(limit), ..Default::default() });
        assert_eq!(r.count, limit);
        assert!(r.limit_hit);
        assert!(!r.timed_out);
    }
}

#[test]
fn steps_bounded_by_answer_plus_backtracks() {
    let (q, rig) = explosive();
    let r = testkit::count(&q, &rig, &EnumOptions { limit: Some(5_000), ..Default::default() });
    // every answer takes at most |V(Q)| recursion steps on this workload
    assert!(r.steps <= r.count * q.num_nodes() as u64 + q.num_nodes() as u64 * 5_000);
}
