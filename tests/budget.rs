//! Budget enforcement on an explosive workload: timeouts fire, limits are
//! exact, and step accounting is sane.

mod testkit;

use std::time::{Duration, Instant};

use rigmatch::mjoin::EnumOptions;
use rigmatch::rig::{Rig, RigOptions};
use testkit::{explosive_graph, reach_chain, rig, sequential};

/// A one-label dense random graph and a 5-chain reachability query, whose
/// answer is astronomically large.
fn explosive() -> (rigmatch::query::PatternQuery, Rig) {
    let q = reach_chain(5);
    let rig = rig(&explosive_graph(99, 300, 3000), &q, &RigOptions::default());
    (q, rig)
}

/// A 50 ms deadline stops the explosive enumeration within 100 ms of
/// passing.
#[test]
fn timeout_interrupts_explosive_enumeration() {
    let (q, rig) = explosive();
    let deadline = Instant::now() + Duration::from_millis(50);
    let opts = EnumOptions { deadline: Some(deadline), ..Default::default() };
    let r = testkit::count(&q, &rig, &opts);
    let late = Instant::now().saturating_duration_since(deadline);
    assert!(r.timed_out, "must hit the wall-clock budget");
    assert!(late < Duration::from_millis(100), "{late:?} past the deadline");
    assert!(r.count > 0, "partial results are still produced");
}

/// A zero wall-clock budget stops the run at its first stop check: it
/// reports `timed_out` with no match, far under the explosive workload's
/// natural runtime.
#[test]
fn zero_budget_times_out_before_any_match() {
    let (q, rig) = explosive();
    let start = Instant::now();
    let r = testkit::count(&q, &rig, &EnumOptions { deadline: Some(start), ..Default::default() });
    let elapsed = start.elapsed();
    assert!(r.timed_out, "zero budget must time out");
    assert_eq!(r.count, 0, "no matches can be produced on an expired budget");
    assert!(elapsed < Duration::from_secs(5), "the run did not stop promptly: {elapsed:?}");
}

/// A limit below the answer size emits exactly that many tuples and
/// reports `limit_hit`.
#[test]
fn limit_is_exact_on_large_answers() {
    let (q, rig) = explosive();
    for limit in [1u64, 17, 1000] {
        let (tuples, r) =
            sequential(&q, &rig, &EnumOptions { limit: Some(limit), ..Default::default() });
        assert_eq!(r.count, limit);
        assert_eq!(tuples.len() as u64, limit, "the sink saw a different number of tuples");
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
