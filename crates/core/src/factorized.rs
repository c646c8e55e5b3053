//! Session-level surface of the factorized counting DP.
//!
//! The engine lives in [`rig_mjoin::factorized`]: a [`Factorization`]
//! compiles one query against its pruned RIG into a DP-countable answer
//! representation (see `docs/factorized.md`). It answers the unbudgeted
//! count; every tuple comes from MJoin. This module adds the *policy*
//! layer the [`Session`](crate::Session) API uses:
//!
//! * [`dp_eligible`] — the eligibility rule deciding when
//!   [`Run::count`](crate::session::Run::count) auto-routes to the DP;
//! * [`strategy`] — the human-readable DP-vs-enumerate choice reported by
//!   [`Explain`](crate::Explain) and the CLI;
//! * [`dp_count_result`] — the DP wrapped in the engine's [`EnumResult`]
//!   shape (with overflow falling back to `None` so the caller can
//!   enumerate instead).

pub use rig_mjoin::factorized::{
    DpCount, Factorization, FactorizationShape, DP_CONDITIONING_LIMIT,
};

use rig_index::Rig;
use rig_mjoin::{EnumOptions, EnumResult};
use rig_query::PatternQuery;

/// Eligibility rule for auto-routing `count()` to the factorized DP.
///
/// * `injective` — the DP counts homomorphisms; injectivity constraints
///   cut across the factorization's independence structure, so injective
///   runs always enumerate.
/// * `limit` / `deadline` — budgeted runs keep the enumeration engine's
///   exact truncation semantics (`limit_hit` / `timed_out` witness where
///   the budget struck), which a total-count DP cannot reproduce.
pub fn dp_eligible(opts: &EnumOptions) -> bool {
    !opts.injective && opts.limit.is_none() && opts.deadline.is_none()
}

/// The DP-vs-enumerate routing decision, as reported by `explain` and the
/// CLI. `eligible` mirrors [`dp_eligible`] for the run's options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountStrategy {
    /// Would `count()` use the DP under these options?
    pub eligible: bool,
    /// Human-readable decision, e.g. `"factorized DP (tree)"` or
    /// `"enumerate (injective)"`.
    pub describe: String,
}

/// Computes the routing decision for `query` under `opts`.
pub fn strategy(query: &PatternQuery, opts: &EnumOptions) -> CountStrategy {
    let eligible = dp_eligible(opts);
    let shape = FactorizationShape::analyze(query);
    let shape_desc = if shape.is_tree() {
        "tree".to_string()
    } else {
        format!(
            "cyclic, {} edge(s) re-expanded over {} var(s)",
            shape.extra_edges.len(),
            shape.conditioned.len()
        )
    };
    let describe = if eligible {
        let guard =
            if shape.is_tree() { "" } else { "; enumerates if conditioning fan-out is large" };
        format!("factorized DP ({shape_desc}{guard})")
    } else if opts.injective {
        "enumerate (injective)".into()
    } else {
        "enumerate (limit/timeout budget set)".into()
    };
    CountStrategy { eligible, describe }
}

/// Runs the counting DP and wraps it as an [`EnumResult`] (steps = number
/// of conditioning bindings re-expanded). Returns `None` when the cyclic
/// cost guard trips ([`DP_CONDITIONING_LIMIT`]) or the exact count
/// overflows `u64` — either way the caller falls back to enumeration,
/// which preserves semantics.
pub fn dp_count_result(query: &PatternQuery, rig: &Rig) -> Option<EnumResult> {
    let mut f = Factorization::new(query, rig);
    if !f.is_tree() && f.estimated_work() > DP_CONDITIONING_LIMIT {
        return None;
    }
    let dp = f.count();
    let count = u64::try_from(dp.total?).ok()?;
    Some(EnumResult {
        count,
        timed_out: false,
        limit_hit: false,
        order: f.order().to_vec(),
        steps: dp.assignments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rig_query::EdgeKind;
    use std::time::Instant;

    fn chain() -> PatternQuery {
        let mut q = PatternQuery::new(vec![0, 1]);
        q.add_edge(0, 1, EdgeKind::Direct);
        q
    }

    #[test]
    fn eligibility_rules() {
        let q = chain();
        let base = EnumOptions::default();
        assert!(strategy(&q, &base).eligible);
        assert!(!strategy(&q, &base.with_limit(5)).eligible);
        let budgeted = EnumOptions { deadline: Some(Instant::now()), ..base };
        assert!(!strategy(&q, &budgeted).eligible);
        let inj = EnumOptions { injective: true, ..base };
        assert!(!strategy(&q, &inj).eligible);
        assert_eq!(dp_eligible(&base), strategy(&q, &base).eligible);
    }

    #[test]
    fn strategy_describes_shape() {
        assert!(strategy(&chain(), &EnumOptions::default()).describe.contains("tree"));
        let mut t = PatternQuery::new(vec![0, 1, 2]);
        t.add_edge(0, 1, EdgeKind::Direct);
        t.add_edge(1, 2, EdgeKind::Direct);
        t.add_edge(0, 2, EdgeKind::Direct);
        assert!(strategy(&t, &EnumOptions::default()).describe.contains("cyclic"));
    }
}
