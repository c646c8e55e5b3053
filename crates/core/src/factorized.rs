//! Session-level surface of the factorized answer subsystem.
//!
//! The engine lives in [`rig_mjoin::factorized`]: a [`Factorization`]
//! compiles one query against its pruned RIG into a DP-countable answer
//! representation (see `docs/factorized.md`). It answers counts and
//! per-variable cardinalities; every tuple comes from MJoin.
//! This module adds the *policy* layer the [`Session`](crate::Session)
//! API uses:
//!
//! * [`dp_eligible`] — the eligibility rule deciding when
//!   [`Run::count`](crate::session::Run::count) auto-routes to the DP;
//! * [`strategy`] — the human-readable DP-vs-enumerate choice reported by
//!   [`Explain`](crate::Explain) and the CLI;
//! * [`dp_count_result`] — the DP wrapped in the engine's [`EnumResult`]
//!   shape (with overflow falling back to `None` so the caller can
//!   enumerate instead);
//! * [`FactorizedSummary`] — the answer-graph summary printed by the
//!   CLI's `--factorized` output mode.

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

/// Per-variable slice of the answer-graph summary.
#[derive(Debug, Clone)]
pub struct VarSummary {
    /// Variable name (HPQL name when known, `v<i>` otherwise).
    pub name: String,
    /// RIG candidate-set cardinality `|cos(q)|`.
    pub candidates: u64,
    /// Distinct bindings of this variable across the full answer set.
    pub distinct: u64,
}

/// The answer-graph summary printed by the CLI's `--factorized` mode:
/// shape, conditioning, exact count and per-variable cardinalities —
/// all computed without materializing a single tuple.
#[derive(Debug, Clone)]
pub struct FactorizedSummary {
    /// The (reduced) query, pretty-printed as HPQL.
    pub hpql: String,
    /// True for tree-shaped queries (single DP pass).
    pub tree: bool,
    /// Cyclic edges requiring conditional re-expansion.
    pub extra_edges: usize,
    /// Names of the conditioned variables.
    pub conditioned: Vec<String>,
    /// Conditioning bindings the DP expanded over.
    pub assignments: u64,
    /// Exact occurrence count. `None` when the count overflowed u128
    /// (effectively astronomically large) or the deadline truncated the
    /// DP's count or cardinalities (`timed_out` distinguishes the two).
    pub count: Option<u128>,
    /// Per-variable candidate/distinct cardinalities.
    pub vars: Vec<VarSummary>,
    /// True when the RIG came from the session plan cache.
    pub rig_from_cache: bool,
    /// True when the run's timeout expired during the RIG build or one of
    /// the DP's conditioning loops (count or cardinalities): `count` is
    /// `None` and the cardinalities are unreliable.
    pub timed_out: bool,
}

impl std::fmt::Display for FactorizedSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "query:       {}", self.hpql)?;
        if self.tree {
            writeln!(f, "shape:       tree (pure DP, no re-expansion)")?;
        } else {
            writeln!(
                f,
                "shape:       cyclic ({} extra edge(s); conditioned on [{}], {} binding(s))",
                self.extra_edges,
                self.conditioned.join(", "),
                self.assignments,
            )?;
        }
        match self.count {
            Some(c) => writeln!(f, "count:       {c}")?,
            None if self.timed_out => writeln!(f, "count:       (timed out)")?,
            None => writeln!(f, "count:       > u128 (overflow)")?,
        }
        writeln!(f, "rig:         {}", if self.rig_from_cache { "cached" } else { "built" })?;
        writeln!(f, "variables:   name  candidates  distinct")?;
        for v in &self.vars {
            writeln!(f, "             {:<5} {:>10}  {:>8}", v.name, v.candidates, v.distinct)?;
        }
        Ok(())
    }
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
