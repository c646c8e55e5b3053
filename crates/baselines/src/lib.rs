//! Baseline matchers and engine analogues for the §7 experiments.
//!
//! * [`Jm`] — the join-based approach: one binary hash join per query
//!   edge, left-deep plan from dynamic programming (R-Join style \[12\]),
//!   with explicit intermediate-result materialization. Its failure mode
//!   is memory blow-up, modeled as a deterministic intermediate-tuple
//!   budget (Tables 3 and 5's "OM" cells).
//! * [`Tm`] — the tree-based approach: evaluate a spanning tree of the
//!   query (\[59\]-style tree matching), then filter each tree occurrence
//!   against the non-tree edges. Its failure mode is timeout when tree
//!   occurrences vastly outnumber query occurrences.
//! * [`GfLike`] / [`EhLike`] — worst-case-optimal-join engine analogues of
//!   GraphflowDB and EmptyHeaded: direct-edge-only WCOJ over the raw data
//!   graph, preceded by an expensive per-graph precomputation (GF's
//!   catalog, EH's relation tries). For D-queries they must run on a
//!   materialized transitive closure (§7.5).
//! * [`NeoLike`] — a Neo4j analogue: tuple-at-a-time binary joins in
//!   syntactic edge order, no statistics, reachability via unindexed
//!   on-line DFS (the APOC expansion pattern).
//! * [`RmLike`] — a RapidMatch analogue: tree-decomposition filtering plus
//!   WCOJ-style enumeration with a topology-driven order.
//! * [`GmEngine`] — adapter putting GM behind the same [`Engine`] trait so
//!   harnesses can iterate engines uniformly.
//! * [`brute_force_count`] — the ground-truth oracle: naive backtracking
//!   over the raw graph with on-line DFS reachability, sharing no code
//!   with the engine; every counting test verifies against it.
//!
//! These analogues reproduce the *architectural* properties the paper
//! attributes to each system, on identical inputs.

pub mod brute;
mod gf;
mod jm;
mod neo;
mod rm;
mod tm;
mod wcoj;

pub use brute::brute_force_count;
pub use gf::{Catalog, EhLike, GfLike};
pub use jm::Jm;
pub use neo::NeoLike;
pub use rm::RmLike;
pub use tm::Tm;
pub use wcoj::wcoj_count;

use std::sync::Arc;
use std::time::Duration;

use rig_core::{GmConfig, RunReport, RunStatus, Session};
use rig_graph::DataGraph;
use rig_query::PatternQuery;

/// Resource budget for one evaluation, mirroring the paper's experimental
/// protocol (10-minute timeout, 16 GB heap, 10^7-match cap).
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Wall-clock limit; `None` = unlimited.
    pub timeout: Option<Duration>,
    /// Maximum intermediate tuples an engine may materialize before the
    /// run is declared out-of-memory.
    pub max_intermediate: Option<u64>,
    /// Stop after this many matches (the paper uses 10^7).
    pub match_limit: Option<u64>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            timeout: Some(Duration::from_secs(600)),
            max_intermediate: Some(5_000_000),
            match_limit: Some(10_000_000),
        }
    }
}

impl Budget {
    /// Unlimited budget (tests use this to compare exact counts).
    pub fn unlimited() -> Self {
        Budget { timeout: None, max_intermediate: None, match_limit: None }
    }

    /// Budget with only a match cap.
    pub fn with_limit(limit: u64) -> Self {
        Budget { match_limit: Some(limit), ..Budget::unlimited() }
    }
}

/// A pattern matching engine bound to one data graph.
pub trait Engine {
    /// Engine name as printed in the tables.
    fn name(&self) -> &'static str;

    /// Evaluates one query under the given budget.
    fn evaluate(&self, query: &PatternQuery, budget: &Budget) -> RunReport;

    /// One-time per-graph preparation cost (index/catalog/closure build).
    fn setup_time(&self) -> Duration {
        Duration::ZERO
    }
}

/// GM behind the [`Engine`] trait. With `threads > 1` the enumeration
/// stage runs the morsel-driven parallel engine (counting sinks — no
/// materialization), still honoring the budget's limit and timeout.
///
/// Owns a [`Session`] (the application entry point), so harness runs
/// exercise the same code path — including the plan cache — users do.
/// Constructors take `impl Into<Arc<DataGraph>>`: harnesses that share
/// one graph across several engines pass `Arc::clone(&g)` (or clone the
/// graph) explicitly.
pub struct GmEngine {
    session: Session,
    name: &'static str,
    threads: usize,
}

impl GmEngine {
    pub fn new(graph: impl Into<Arc<DataGraph>>) -> Self {
        GmEngine { session: Session::new(graph), name: "GM", threads: 1 }
    }

    pub fn with_config(
        graph: impl Into<Arc<DataGraph>>,
        config: GmConfig,
        name: &'static str,
    ) -> Self {
        GmEngine { session: Session::with_config(graph, config), name, threads: 1 }
    }

    /// GM with `threads` morsel-driven enumeration workers.
    pub fn with_threads(graph: impl Into<Arc<DataGraph>>, threads: usize) -> Self {
        GmEngine { session: Session::new(graph), name: "GM-par", threads }
    }

    pub fn session(&self) -> &Session {
        &self.session
    }
}

impl Engine for GmEngine {
    fn name(&self) -> &'static str {
        self.name
    }

    fn evaluate(&self, query: &PatternQuery, budget: &Budget) -> RunReport {
        // An unpreparable query (validation failure) is the paper's "FA"
        // outcome for this engine, not a harness crash: report it and let
        // the sweep continue with the other engines.
        let prepared = match self.session.prepare(query) {
            Ok(p) => p,
            Err(_) => return failure_report(self.name, RunStatus::Failed, Duration::ZERO, 0),
        };
        let mut run = prepared.run().threads(self.threads);
        if let Some(l) = budget.match_limit {
            run = run.limit(l);
        }
        if let Some(d) = budget.timeout {
            run = run.timeout(d);
        }
        run.count().report(self.name)
    }

    fn setup_time(&self) -> Duration {
        self.session.index_build_time()
    }
}

/// Shared helper: stamp a report as timed out with the elapsed budget (the
/// paper records stopped queries at the full 10 minutes).
pub(crate) fn failure_report(
    engine: &str,
    status: RunStatus,
    elapsed: Duration,
    intermediate: u64,
) -> RunReport {
    RunReport {
        engine: engine.to_string(),
        status,
        occurrences: 0,
        total_time: elapsed,
        matching_time: elapsed,
        enumeration_time: Duration::ZERO,
        intermediate_tuples: intermediate,
        aux_size: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rig_datasets::examples::fig2_graph;
    use rig_query::fig2_query;

    #[test]
    fn gm_engine_adapter() {
        let e = GmEngine::new(fig2_graph());
        assert_eq!(e.name(), "GM");
        let r = e.evaluate(&fig2_query(), &Budget::default());
        assert_eq!(r.status, RunStatus::Completed);
        assert_eq!(r.occurrences, 2);
        // repeated harness evaluations hit the session plan cache
        e.evaluate(&fig2_query(), &Budget::default());
        assert_eq!(e.session().cache_stats().hits, 1);
    }

    #[test]
    fn unpreparable_query_reports_fa_instead_of_panicking() {
        let e = GmEngine::new(fig2_graph());
        // label 99 is outside fig2's label space: prepare fails validation
        let mut q = PatternQuery::new(vec![0, 99]);
        q.add_edge(0, 1, rig_query::EdgeKind::Direct);
        let r = e.evaluate(&q, &Budget::default());
        assert_eq!(r.status, RunStatus::Failed);
        assert_eq!(r.status.code(), "FA");
        assert_eq!(r.occurrences, 0);
    }

    #[test]
    fn budget_limit_respected() {
        let e = GmEngine::new(fig2_graph());
        let r = e.evaluate(&fig2_query(), &Budget::with_limit(1));
        assert_eq!(r.occurrences, 1);
    }

    #[test]
    fn parallel_gm_engine_agrees_and_honors_limit() {
        let par = GmEngine::with_threads(fig2_graph(), 4);
        assert_eq!(par.name(), "GM-par");
        assert_eq!(par.evaluate(&fig2_query(), &Budget::default()).occurrences, 2);
        assert_eq!(par.evaluate(&fig2_query(), &Budget::with_limit(1)).occurrences, 1);
    }
}
