//! GM — the end-to-end RIG-based hybrid graph pattern matcher (the paper's
//! primary contribution, integrating §3–§6).
//!
//! The pipeline behind every [`Session`] execution:
//!
//! 1. **transitive reduction** of the query (§3) — drop redundant
//!    reachability edges;
//! 2. **node selection** — pre-filter + double simulation (§4.2–§4.4);
//! 3. **node expansion** — build the refined RIG (§4.5); an empty RIG
//!    short-circuits to an empty answer;
//! 4. **search ordering** — JO / RI / BJ over RIG statistics (§5.2);
//! 5. **enumeration** — MJoin multiway intersections (§5.1).
//!
//! Every §7.4 ablation is a [`GmConfig`] knob, so the experiment harnesses
//! run the same code paths the library's users do.
//!
//! The application API is the [`Session`] (see [`session`]): it owns the
//! versioned graph store (base CSR + delta overlay) and its reachability
//! index, accepts queries as HPQL text or
//! [`PatternQuery`](rig_query::PatternQuery) values, caches built RIGs
//! across executions, and takes live mutations through
//! [`GraphTxn`] / [`Session::commit`] with label-aware plan invalidation.

mod error;
pub mod factorized;
mod plan_cache;
mod report;
mod run;
pub mod session;
mod store;

pub use error::{Error, ErrorKind};
pub use report::{RunReport, RunStatus};
pub use session::{
    validate_pattern, CacheStats, CommitSummary, CompactionPolicy, Explain, GraphTxn, IntoPattern,
    LintMode, Prepared, Run, Session, StoreStats,
};

// the static-analysis surface (see `rig_analyze`): front ends render
// `Report`s returned by `Session::analyze` / carried by `Error::Analysis`
pub use rig_analyze::{Analyzer, Code, Diagnostic, Report, Severity};

use std::time::Duration;

use rig_index::{RigOptions, RigStats};
use rig_mjoin::{EnumOptions, EnumResult};

/// Full GM configuration. `Default` is the paper's evaluation setup.
#[derive(Debug, Clone, Copy, Default)]
pub struct GmConfig {
    /// Apply §3 transitive reduction before evaluation (`false` = GM-NR).
    pub skip_reduction: bool,
    /// RIG construction options (selection mode, simulation tuning,
    /// expansion mode).
    pub rig: RigOptions,
    /// Enumeration options (search order, limit, deadline, injectivity).
    pub enumeration: EnumOptions,
}

impl GmConfig {
    /// Exact-simulation configuration (no pass cap); used by tests.
    pub fn exact() -> Self {
        GmConfig { rig: RigOptions::exact(), ..Default::default() }
    }
}

/// Phase timings and sizes for one query evaluation.
#[derive(Debug, Clone)]
pub struct GmMetrics {
    /// Query transitive-reduction time.
    pub reduction_time: Duration,
    /// Node selection + expansion (the paper's "matching time" includes
    /// this plus ordering).
    pub rig_stats: RigStats,
    /// Result enumeration time (includes search-order computation, which
    /// is part of MJoin).
    pub enumeration_time: Duration,
    /// End-to-end evaluation time (excludes reachability-index build,
    /// which is per-graph, reported by [`Session::index_build_time`]).
    pub total_time: Duration,
    /// Reachability edges removed by the reduction.
    pub edges_reduced: usize,
    /// True when the RIG was served from a [`Session`] plan cache: the
    /// selection + expansion phases were skipped and `rig_stats` carries
    /// the timings recorded when the plan was originally built.
    pub rig_from_cache: bool,
    /// True when a [`Run::count`](session::Run::count) was answered by the
    /// factorized DP (see [`factorized`]) instead of tuple enumeration.
    pub counted_via_factorization: bool,
}

impl GmMetrics {
    /// "Matching time" in the paper's Metrics paragraph: everything before
    /// enumeration starts.
    pub fn matching_time(&self) -> Duration {
        self.total_time.saturating_sub(self.enumeration_time)
    }
}

/// Result of one query evaluation.
#[derive(Debug)]
pub struct QueryOutcome {
    pub result: EnumResult,
    pub metrics: GmMetrics,
}

impl QueryOutcome {
    /// Errs with [`Error::Budget`] when the match limit or timeout
    /// truncated the answer; otherwise passes the outcome through. The
    /// strict form behind `Run::try_count` and the CLI's `--strict` flag.
    pub fn require_complete(self) -> Result<QueryOutcome, Error> {
        if self.result.timed_out || self.result.limit_hit {
            Err(Error::Budget {
                timed_out: self.result.timed_out,
                limit_hit: self.result.limit_hit,
            })
        } else {
            Ok(self)
        }
    }

    /// Converts to the engine-neutral report used by the harnesses.
    pub fn report(&self, engine: &str) -> RunReport {
        RunReport {
            engine: engine.to_string(),
            status: if self.result.timed_out { RunStatus::Timeout } else { RunStatus::Completed },
            occurrences: self.result.count,
            total_time: self.metrics.total_time,
            matching_time: self.metrics.matching_time(),
            enumeration_time: self.metrics.enumeration_time,
            intermediate_tuples: 0, // MJoin materializes none (§5.1)
            aux_size: self.metrics.rig_stats.size(),
        }
    }
}

// re-export the pieces users need to drive the matcher without digging
// through sub-crates
pub use rig_index::{RigOptions as RigBuildOptions, SelectMode};
pub use rig_mjoin::{
    CollectSink, CountSink, EnumOptions as EnumerationOptions, FirstKSink, FnSink, ResultSink,
    SearchOrder, TupleFormat, WriteSink,
};
pub use rig_sim::{DirectCheckMode, SimAlgorithm, SimOptions};
pub use rig_storage::{
    Durability, FsBackend, MemBackend, RecoveryReport, StorageBackend, StorageError, StoreOptions,
};

#[cfg(test)]
mod tests {
    use super::*;
    use rig_graph::DataGraph;
    use rig_mjoin::EnumOptions;
    use rig_query::{fig2_query, EdgeKind, PatternQuery};

    fn fig2_graph() -> DataGraph {
        use rig_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        for _ in 0..3 {
            b.add_node(0);
        }
        for _ in 0..4 {
            b.add_node(1);
        }
        for _ in 0..3 {
            b.add_node(2);
        }
        b.add_edge(1, 3);
        b.add_edge(1, 7);
        b.add_edge(3, 8);
        b.add_edge(8, 7);
        b.add_edge(2, 5);
        b.add_edge(2, 9);
        b.add_edge(5, 9);
        b.add_edge(5, 8);
        b.add_edge(0, 4);
        b.add_edge(4, 7);
        b.add_edge(6, 0);
        b.build()
    }

    /// Counts `query` on `graph` through a fresh session with `cfg`.
    fn count_once(graph: &DataGraph, query: &PatternQuery, cfg: GmConfig) -> QueryOutcome {
        Session::with_config(graph.clone(), cfg).prepare(query).unwrap().run().count()
    }

    #[test]
    fn end_to_end_fig2() {
        let session = Session::with_config(fig2_graph(), GmConfig::exact());
        let p = session.prepare(fig2_query()).unwrap();
        let (tuples, outcome) = p.run().collect(10);
        let mut sorted = tuples;
        sorted.sort();
        assert_eq!(sorted, vec![vec![1, 3, 7], vec![2, 5, 9]]);
        assert_eq!(outcome.result.count, 2);
        let report = outcome.report("GM");
        assert_eq!(report.status, RunStatus::Completed);
        assert_eq!(report.occurrences, 2);
        assert_eq!(report.intermediate_tuples, 0);
    }

    #[test]
    fn reduction_removes_redundant_reachability_edge() {
        // add redundant A => C on top of A -> B => C
        let mut q = PatternQuery::new(vec![0, 1, 2]);
        q.add_edge(0, 1, EdgeKind::Direct);
        q.add_edge(1, 2, EdgeKind::Reachability);
        q.add_edge(0, 2, EdgeKind::Reachability); // redundant
        let g = fig2_graph();
        let with = count_once(&g, &q, GmConfig::exact());
        assert_eq!(with.metrics.edges_reduced, 1);
        let without = count_once(&g, &q, GmConfig { skip_reduction: true, ..GmConfig::exact() });
        assert_eq!(without.metrics.edges_reduced, 0);
        // identical answers either way (equivalence of the reduction)
        assert_eq!(with.result.count, without.result.count);
    }

    #[test]
    fn limit_and_timeout_paths() {
        let cfg = GmConfig {
            enumeration: EnumOptions { limit: Some(1), ..Default::default() },
            ..GmConfig::exact()
        };
        let o = count_once(&fig2_graph(), &fig2_query(), cfg);
        assert_eq!(o.result.count, 1);
        assert!(o.result.limit_hit);
    }

    #[test]
    fn empty_answer_short_circuits() {
        // label 2 -> label 0 direct edge never occurs
        let mut q = PatternQuery::new(vec![2, 0]);
        q.add_edge(0, 1, EdgeKind::Direct);
        let o = count_once(&fig2_graph(), &q, GmConfig::exact());
        assert_eq!(o.result.count, 0);
        assert_eq!(o.metrics.rig_stats.node_count, 0);
    }

    #[test]
    fn three_pass_default_equals_exact_count() {
        // the §4.5 approximation changes the RIG, never the answer
        let g = fig2_graph();
        let exact = count_once(&g, &fig2_query(), GmConfig::exact());
        let capped = count_once(&g, &fig2_query(), GmConfig::default());
        assert_eq!(exact.result.count, capped.result.count);
    }

    #[test]
    fn all_search_orders_agree_end_to_end() {
        let session = Session::with_config(fig2_graph(), GmConfig::exact());
        let p = session.prepare(fig2_query()).unwrap();
        for order in [SearchOrder::Jo, SearchOrder::Ri, SearchOrder::Bj] {
            assert_eq!(p.run().order(order).count().result.count, 2, "{order:?}");
        }
    }
}
