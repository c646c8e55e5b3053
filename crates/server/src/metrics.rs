//! Server-side counters and the Prometheus text exposition for
//! `GET /metrics`.
//!
//! [`ServerMetrics`] holds the counters the worker pool maintains
//! (requests per endpoint, admission rejections, client disconnects,
//! streamed tuples, conflict retries…). The render combines them with the
//! session's own [`CacheStats`]/[`StoreStats`] and the per-query
//! [`rig_core::GmMetrics`] aggregates, so one scrape sees the whole
//! serving stack.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use rig_core::{CacheStats, Session, StoreStats};

/// Cumulative serving counters. All relaxed atomics — these are
/// monotonic observability counters, not synchronization.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// `POST /query` requests accepted by a worker.
    pub queries: AtomicU64,
    /// `POST /update` requests accepted by a worker.
    pub updates: AtomicU64,
    /// `GET /healthz` + `GET /metrics` + everything else.
    pub other_requests: AtomicU64,
    /// Connections turned away with 503 by admission control.
    pub rejected: AtomicU64,
    /// Responses with a 4xx/5xx status written by a worker.
    pub error_responses: AtomicU64,
    /// Streaming clients that vanished mid-response (write failed); the
    /// enumeration was stopped and the worker freed.
    pub client_disconnects: AtomicU64,
    /// Result tuples written to NDJSON streams.
    pub tuples_streamed: AtomicU64,
    /// Query runs truncated by their wall-clock budget.
    pub queries_timed_out: AtomicU64,
    /// `count()` runs answered by the factorized DP instead of
    /// enumeration.
    pub queries_via_dp: AtomicU64,
    /// Queries refused 422 by `?lint=strict` static analysis.
    pub lint_rejections: AtomicU64,
    /// Optimistic-commit conflicts retried by `/update` (each retry
    /// counts once; the request still succeeds unless retries exhaust).
    pub conflict_retries: AtomicU64,
    /// Mutation commits applied through `/update`.
    pub commits_applied: AtomicU64,
    /// Total query evaluation time, microseconds (sum over requests).
    pub query_micros: AtomicU64,
    /// Workers currently evaluating a request (gauge).
    pub busy_workers: AtomicU64,
}

impl ServerMetrics {
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"));
}

/// A counter in seconds with one sample per `stage` label.
fn stage_seconds(out: &mut String, name: &str, help: &str, stages: &[(&str, Duration)]) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
    for (stage, time) in stages {
        out.push_str(&format!("{name}{{stage=\"{stage}\"}} {}\n", time.as_secs_f64()));
    }
}

fn gauge(out: &mut String, name: &str, help: &str, value: u64) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"));
}

/// Renders the full Prometheus text page: server counters plus the
/// session's cache and store statistics.
pub fn render(metrics: &ServerMetrics, session: &Session) -> String {
    let m = metrics;
    let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
    let mut out = String::with_capacity(4096);

    counter(&mut out, "rigmatch_queries_total", "POST /query requests handled", load(&m.queries));
    counter(&mut out, "rigmatch_updates_total", "POST /update requests handled", load(&m.updates));
    counter(
        &mut out,
        "rigmatch_other_requests_total",
        "requests to the remaining endpoints",
        load(&m.other_requests),
    );
    counter(
        &mut out,
        "rigmatch_rejected_total",
        "connections answered 503 by admission control",
        load(&m.rejected),
    );
    counter(
        &mut out,
        "rigmatch_error_responses_total",
        "4xx/5xx responses written by workers",
        load(&m.error_responses),
    );
    counter(
        &mut out,
        "rigmatch_client_disconnects_total",
        "streaming clients that vanished mid-response",
        load(&m.client_disconnects),
    );
    counter(
        &mut out,
        "rigmatch_tuples_streamed_total",
        "result tuples written to NDJSON streams",
        load(&m.tuples_streamed),
    );
    counter(
        &mut out,
        "rigmatch_queries_timed_out_total",
        "query runs truncated by their budget",
        load(&m.queries_timed_out),
    );
    counter(
        &mut out,
        "rigmatch_queries_via_dp_total",
        "counts answered by the factorized DP",
        load(&m.queries_via_dp),
    );
    counter(
        &mut out,
        "rigmatch_lint_rejections_total",
        "queries refused 422 by ?lint=strict static analysis",
        load(&m.lint_rejections),
    );
    counter(
        &mut out,
        "rigmatch_conflict_retries_total",
        "optimistic-commit conflicts retried by /update",
        load(&m.conflict_retries),
    );
    counter(
        &mut out,
        "rigmatch_commits_applied_total",
        "mutation commits applied through /update",
        load(&m.commits_applied),
    );
    counter(
        &mut out,
        "rigmatch_query_micros_total",
        "total query evaluation time in microseconds",
        load(&m.query_micros),
    );
    gauge(
        &mut out,
        "rigmatch_busy_workers",
        "workers currently evaluating a request",
        load(&m.busy_workers),
    );

    let c: CacheStats = session.cache_stats();
    counter(&mut out, "rigmatch_plan_cache_hits_total", "plan cache hits", c.hits);
    counter(&mut out, "rigmatch_plan_cache_misses_total", "plan cache misses", c.misses);
    counter(&mut out, "rigmatch_plan_cache_evictions_total", "LRU evictions", c.evictions);
    counter(
        &mut out,
        "rigmatch_plan_cache_invalidated_total",
        "plans dropped by commit invalidation",
        c.invalidated,
    );
    gauge(&mut out, "rigmatch_plan_cache_entries", "plans resident", c.entries as u64);

    let s: StoreStats = session.store_stats();
    gauge(&mut out, "rigmatch_store_version", "monotone store version", s.version);
    counter(&mut out, "rigmatch_store_commits_total", "commits since open", s.commits);
    counter(&mut out, "rigmatch_store_compactions_total", "LSM compactions run", s.compactions);
    counter(
        &mut out,
        "rigmatch_store_rebases_total",
        "dirty snapshots rebased in memory for reads, analyses or compactions",
        s.rebases,
    );
    counter(
        &mut out,
        "rigmatch_store_index_extensions_total",
        "rebases that extended the reachability index instead of rebuilding it",
        s.index_extensions,
    );
    stage_seconds(
        &mut out,
        "rigmatch_store_rebase_seconds_total",
        "time rebases spent materializing the delta and indexing the result",
        &[("materialize", s.rebase_materialize_time), ("index", s.rebase_index_time)],
    );
    gauge(&mut out, "rigmatch_store_delta_ops", "mutations resident in the overlay", s.delta_ops);
    gauge(&mut out, "rigmatch_graph_live_nodes", "live nodes in the snapshot", s.live_nodes as u64);
    gauge(&mut out, "rigmatch_graph_edges", "edges in the snapshot", s.edges as u64);
    counter(
        &mut out,
        "rigmatch_wal_flush_failures_total",
        "WAL flushes that failed or found a poisoned store",
        s.wal_flush_failures,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rig_graph::GraphBuilder;

    #[test]
    fn render_is_well_formed_prometheus_text() {
        let mut b = GraphBuilder::new();
        b.add_node(0);
        b.add_node(0);
        b.add_edge(0, 1);
        let session = Session::new(b.build());
        let m = ServerMetrics::default();
        ServerMetrics::bump(&m.queries);
        ServerMetrics::add(&m.tuples_streamed, 42);
        let page = render(&m, &session);
        assert!(page.contains("rigmatch_queries_total 1\n"));
        assert!(page.contains("rigmatch_tuples_streamed_total 42\n"));
        assert!(page.contains("rigmatch_graph_edges 1\n"));
        assert!(page.contains("rigmatch_wal_flush_failures_total 0\n"));
        assert!(page.contains("rigmatch_store_rebases_total 0\n"));
        assert!(page.contains("rigmatch_store_index_extensions_total 0\n"));
        let rebase_seconds = |page: &str, stage: &str| -> f64 {
            let name = format!("rigmatch_store_rebase_seconds_total{{stage=\"{stage}\"}} ");
            let line = page.lines().find_map(|l| l.strip_prefix(&name));
            line.unwrap_or_else(|| panic!("no {stage} rebase time in {page}")).parse().unwrap()
        };
        assert_eq!(rebase_seconds(&page, "materialize"), 0.0);
        assert_eq!(rebase_seconds(&page, "index"), 0.0);
        // a node-only commit, folded away, extends the index
        let mut txn = session.begin();
        txn.add_node(1);
        session.commit(txn).unwrap();
        assert!(session.compact());
        let page = render(&m, &session);
        assert!(page.contains("rigmatch_store_rebases_total 1\n"));
        assert!(page.contains("rigmatch_store_index_extensions_total 1\n"));
        let stats = session.store_stats();
        for (stage, time) in
            [("materialize", stats.rebase_materialize_time), ("index", stats.rebase_index_time)]
        {
            assert!(time > Duration::ZERO, "{stage} took no time");
            assert_eq!(rebase_seconds(&page, stage), time.as_secs_f64(), "{stage}");
        }
        // every non-comment line is `name value`, or `name{stage="..."}
        // seconds` for the rebase stages
        for line in page.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.split(' ');
            let name = parts.next().unwrap();
            assert!(name.starts_with("rigmatch_"), "{line}");
            let value = parts.next().unwrap();
            if name.starts_with("rigmatch_store_rebase_seconds_total{stage=\"") {
                assert!(name.ends_with("\"}"), "{line}");
                assert!(value.parse::<f64>().is_ok(), "{line}");
            } else {
                assert!(value.parse::<u64>().is_ok(), "{line}");
            }
            assert!(parts.next().is_none(), "{line}");
        }
    }
}
