//! Transitive closure and transitive reduction of pattern queries (§3).
//!
//! A reachability edge `(x, y)` is *transitive* (hence redundant) when some
//! other simple directed path from `x` to `y` exists in the query: every
//! edge on such a path implies at least reachability, so the composed
//! constraint `h(x) ≺ h(y)` already holds. Evaluating reachability edges is
//! the expensive operation, so queries are reduced before evaluation
//! (Fig. 15 quantifies the payoff).

use crate::{EdgeId, EdgeKind, PatternQuery};

/// Returns the transitive closure of `q`: a query with a reachability edge
/// `(x, y)` for every pair with `x ⇝ y` in `q` (rules IR1/IR2 of §3 run to
/// fixpoint). Direct edges are preserved as-is.
pub fn transitive_closure(q: &PatternQuery) -> PatternQuery {
    let mut out = q.clone();
    let n = q.num_nodes() as u32;
    for x in 0..n {
        for y in 0..n {
            if x != y && q.reaches(x, y) {
                out.ensure_edge(x, y, EdgeKind::Reachability);
            }
        }
    }
    out
}

/// Computes a transitive reduction of `q` (Def. 3.1): repeatedly removes
/// reachability edges that are implied by another directed path. Direct
/// edges are never removed — they express a strictly stronger constraint.
///
/// For acyclic queries the result is the unique minimal equivalent query;
/// for cyclic queries it is *a* minimal one (greedy order: descending edge
/// id, which keeps the earliest-added of two mutually redundant edges).
///
/// ```
/// use rig_query::{PatternQuery, EdgeKind, transitive_reduction};
/// let mut q = PatternQuery::new(vec![0, 1, 2]);
/// q.add_edge(0, 1, EdgeKind::Reachability);
/// q.add_edge(1, 2, EdgeKind::Reachability);
/// q.add_edge(0, 2, EdgeKind::Reachability); // implied by the path 0⇝1⇝2
/// assert_eq!(transitive_reduction(&q).num_edges(), 2);
/// ```
pub fn transitive_reduction(q: &PatternQuery) -> PatternQuery {
    let mut out = q.clone();
    loop {
        let mut removed = false;
        // scan descending so removals don't shift the ids we're about to test
        for id in (0..out.num_edges() as EdgeId).rev() {
            let e = out.edge(id);
            if e.kind != EdgeKind::Reachability {
                continue;
            }
            if out.reaches_avoiding(e.from, e.to, Some(id)) {
                out.remove_edge(id);
                removed = true;
            }
        }
        if !removed {
            return out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeKind, PatternQuery};

    /// Fig. 3(a): A => B => C plus transitive A => C.
    fn fig3_query() -> PatternQuery {
        let mut q = PatternQuery::new(vec![0, 1, 2]);
        q.add_edge(0, 1, EdgeKind::Reachability);
        q.add_edge(1, 2, EdgeKind::Reachability);
        q.add_edge(0, 2, EdgeKind::Reachability);
        q
    }

    #[test]
    fn fig3_reduction_removes_transitive_edge() {
        let q = fig3_query();
        let r = transitive_reduction(&q);
        assert_eq!(r.num_edges(), 2);
        assert!(r.edges().iter().all(|e| !(e.from == 0 && e.to == 2)));
    }

    #[test]
    fn closure_adds_all_reachable_pairs() {
        let mut q = PatternQuery::new(vec![0, 1, 2]);
        q.add_edge(0, 1, EdgeKind::Direct);
        q.add_edge(1, 2, EdgeKind::Direct);
        let c = transitive_closure(&q);
        // direct edges kept + reachability (0,1),(1,2),(0,2)
        assert_eq!(c.num_edges(), 5);
        assert!(c
            .edges()
            .iter()
            .any(|e| e.from == 0 && e.to == 2 && e.kind == EdgeKind::Reachability));
    }

    #[test]
    fn reduction_of_closure_restores_minimal_form() {
        let mut q = PatternQuery::new(vec![0, 1, 2, 3]);
        q.add_edge(0, 1, EdgeKind::Reachability);
        q.add_edge(1, 2, EdgeKind::Reachability);
        q.add_edge(2, 3, EdgeKind::Reachability);
        let c = transitive_closure(&q);
        assert_eq!(c.num_edges(), 6); // all ordered pairs on the chain
        let r = transitive_reduction(&c);
        assert_eq!(r.num_edges(), 3);
    }

    #[test]
    fn direct_edges_never_removed() {
        // A -> B -> C with also a *direct* edge A -> C: the direct edge is
        // not implied by the path (a path does not certify adjacency).
        let mut q = PatternQuery::new(vec![0, 1, 2]);
        q.add_edge(0, 1, EdgeKind::Direct);
        q.add_edge(1, 2, EdgeKind::Direct);
        q.add_edge(0, 2, EdgeKind::Direct);
        let r = transitive_reduction(&q);
        assert_eq!(r.num_edges(), 3);
    }

    #[test]
    fn parallel_direct_makes_reachability_redundant() {
        let mut q = PatternQuery::new(vec![0, 1]);
        q.add_edge(0, 1, EdgeKind::Direct);
        q.add_edge(0, 1, EdgeKind::Reachability);
        let r = transitive_reduction(&q);
        assert_eq!(r.num_edges(), 1);
        assert_eq!(r.edge(0).kind, EdgeKind::Direct);
    }

    #[test]
    fn cyclic_query_reduces_without_losing_connectivity() {
        // 3-cycle of reachability edges plus one chord; the chord is
        // redundant (the cycle provides the alternate path).
        let mut q = PatternQuery::new(vec![0, 0, 0]);
        q.add_edge(0, 1, EdgeKind::Reachability);
        q.add_edge(1, 2, EdgeKind::Reachability);
        q.add_edge(2, 0, EdgeKind::Reachability);
        q.add_edge(0, 2, EdgeKind::Reachability); // chord
        let r = transitive_reduction(&q);
        assert_eq!(r.num_edges(), 3);
        for x in 0..3u32 {
            for y in 0..3u32 {
                if x != y {
                    assert!(r.reaches(x, y));
                }
            }
        }
    }

    #[test]
    fn redundant_count() {
        let q = fig3_query();
        assert_eq!(q.num_edges() - transitive_reduction(&q).num_edges(), 1);
    }

    #[test]
    fn reduction_idempotent() {
        let q = fig3_query();
        let r1 = transitive_reduction(&q);
        let r2 = transitive_reduction(&r1);
        assert_eq!(r1, r2);
    }
}
