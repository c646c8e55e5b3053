//! Query execution: [`Prepared`] queries, the [`Run`] builder and its
//! [`Explain`] plan description.
//!
//! [`Session::prepare`] produces a [`Prepared`]; every execution goes
//! through [`Prepared::run`]. The session (see [`crate::session`]) owns
//! the graph store and the plan cache; this module owns what one run does
//! with the RIG it gets back.
//!
//! Tuples come from MJoin only. `count()` answers from the factorized DP
//! when it is eligible; otherwise it, `collect()` and `par_stream()` drive
//! MJoin through [`rig_mjoin::par_enumerate`], so [`Run::threads`] is the
//! one switch between sequential (one worker, inline on the calling
//! thread) and parallel execution. [`Run::stream`] feeds one `&mut` sink
//! and therefore always runs a single worker.

use std::time::{Duration, Instant};

use rig_graph::{Label, NodeId};
use rig_index::{Rig, RigStats};
use rig_mjoin::{
    CollectSink, CountSink, EnumOptions, EnumResult, ParOptions, Plan, ResultSink, SearchOrder,
};
use rig_query::{hpql, PatternQuery, QNode};

use crate::session::Session;
use crate::{Error, GmMetrics, QueryOutcome};

/// A parsed, validated, reduced and canonicalized query, bound to its
/// [`Session`]. Create with [`Session::prepare`]; execute with
/// [`Prepared::run`]. Runs always execute against the session's newest
/// snapshot; only the query's resolved label names are captured at
/// prepare time (the label space never shrinks, so validation stays
/// good, and nothing of the prepare-time snapshot is pinned).
pub struct Prepared<'s> {
    pub(crate) session: &'s Session,
    /// `(label, name)` pairs for the query's named labels, for HPQL
    /// rendering.
    pub(crate) label_names: Vec<(Label, String)>,
    pub(crate) original: PatternQuery,
    /// The query the engine runs: transitively reduced + canonical edge
    /// order. Node ids match `original` (they index occurrence tuples).
    pub(crate) exec: PatternQuery,
    pub(crate) vars: Option<Vec<String>>,
    pub(crate) edges_reduced: usize,
    pub(crate) reduction_time: Duration,
}

impl<'s> Prepared<'s> {
    /// The session this plan belongs to.
    pub fn session(&self) -> &'s Session {
        self.session
    }

    /// The query as given (before reduction).
    pub fn query(&self) -> &PatternQuery {
        &self.original
    }

    /// The reduced, canonical query the engine executes.
    pub fn reduced(&self) -> &PatternQuery {
        &self.exec
    }

    /// Variable names (parallel to pattern node ids / occurrence-tuple
    /// positions) when the query came from HPQL text.
    pub fn vars(&self) -> Option<&[String]> {
        self.vars.as_deref()
    }

    /// Reachability edges removed by §3 transitive reduction.
    pub fn edges_reduced(&self) -> usize {
        self.edges_reduced
    }

    /// Pretty-prints the *reduced* query as HPQL (label names resolved
    /// through the graph's dictionary where present).
    pub fn to_hpql(&self) -> String {
        self.render(&self.exec)
    }

    /// Pretty-prints the query *as given* as HPQL.
    pub fn original_hpql(&self) -> String {
        self.render(&self.original)
    }

    fn render(&self, q: &PatternQuery) -> String {
        hpql::to_hpql(q, self.vars.as_deref(), |l| {
            self.label_names
                .binary_search_by_key(&l, |&(label, _)| label)
                .ok()
                .map(|i| self.label_names[i].1.clone())
        })
    }

    /// Starts building an execution of this plan.
    pub fn run(&self) -> Run<'_, 's> {
        Run {
            prepared: self,
            opts: self.session.config().enumeration,
            threads: 1,
            use_cache: true,
            force_enumerate: false,
        }
    }
}

impl std::fmt::Debug for Prepared<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prepared")
            .field("hpql", &self.to_hpql())
            .field("edges_reduced", &self.edges_reduced)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// run builder
// ---------------------------------------------------------------------------

/// Fluent execution builder:
/// `prepared.run().limit(10).timeout(d).threads(4).count()`.
///
/// Defaults come from the session's `GmConfig::enumeration`; every knob
/// here overrides per run. Terminal methods: [`Run::count`],
/// [`Run::collect`], [`Run::collect_all`], [`Run::stream`],
/// [`Run::par_stream`], [`Run::explain`].
#[must_use = "a Run does nothing until a terminal method (count/collect/stream/explain) is called"]
pub struct Run<'a, 's> {
    prepared: &'a Prepared<'s>,
    opts: EnumOptions,
    threads: usize,
    use_cache: bool,
    force_enumerate: bool,
}

impl<'a, 's> Run<'a, 's> {
    /// Stop after `k` occurrences (exact under parallelism; the run
    /// reports `limit_hit`).
    pub fn limit(mut self, k: u64) -> Self {
        self.opts.limit = Some(k);
        self
    }

    /// Wall-clock budget for the enumeration phase.
    pub fn timeout(mut self, d: Duration) -> Self {
        self.opts.timeout = Some(d);
        self
    }

    /// Search-order strategy (§5.2).
    pub fn order(mut self, order: SearchOrder) -> Self {
        self.opts.order = order;
        self
    }

    /// Enforce injectivity (isomorphism-style matching).
    pub fn injective(mut self, injective: bool) -> Self {
        self.opts.injective = injective;
        self
    }

    /// MJoin workers for the enumerating terminals (`count`'s
    /// enumeration, `collect`, `par_stream`). `1`, the default, runs one
    /// worker inline on the calling thread; more use the morsel-driven
    /// parallel engine.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Bypass the plan cache for this run (the RIG is rebuilt and not
    /// stored) — benchmarking cold paths, mostly.
    pub fn no_cache(mut self) -> Self {
        self.use_cache = false;
        self
    }

    /// Escape hatch: never answer [`Run::count`] with the factorized DP,
    /// always enumerate tuples (differential testing, benchmarking the
    /// enumeration path).
    pub fn force_enumerate(mut self) -> Self {
        self.force_enumerate = true;
        self
    }

    fn execute(
        self,
        engine: impl FnOnce(&PatternQuery, &Rig, &EnumOptions) -> EnumResult,
    ) -> QueryOutcome {
        let total_start = Instant::now();
        // One wall-clock budget for the whole run: the RIG build consumes
        // it first, enumeration gets what remains.
        let deadline = self.opts.timeout.and_then(|d| total_start.checked_add(d));
        let (rig, from_cache) =
            self.prepared.session.rig_for(self.prepared, self.use_cache, deadline);
        let enum_start = Instant::now();
        let result = if rig.stats.timed_out {
            // the build deadline expired: a timeout, never an empty answer
            EnumResult { timed_out: true, ..EnumResult::empty(Vec::new()) }
        } else if rig.is_empty() {
            EnumResult::empty(Vec::new())
        } else {
            let mut opts = self.opts;
            if let Some(d) = deadline {
                opts.timeout = Some(d.saturating_duration_since(Instant::now()));
            }
            engine(&self.prepared.exec, &rig, &opts)
        };
        let enumeration_time = enum_start.elapsed();
        let metrics = GmMetrics {
            reduction_time: self.prepared.reduction_time,
            rig_stats: rig.stats.clone(),
            enumeration_time,
            total_time: total_start.elapsed(),
            edges_reduced: self.prepared.edges_reduced,
            rig_from_cache: from_cache,
            counted_via_factorization: false,
        };
        QueryOutcome { result, metrics }
    }

    /// Counts the occurrences.
    ///
    /// Eligible plans (no injectivity, no limit/timeout budget — see
    /// [`crate::factorized::dp_eligible`]) are answered by the factorized
    /// counting DP over the pruned RIG without enumerating a single tuple,
    /// witnessed by [`GmMetrics::counted_via_factorization`]. The
    /// [`Run::force_enumerate`] escape hatch and any budget knob fall back
    /// to the (possibly parallel) MJoin enumeration engine.
    pub fn count(self) -> QueryOutcome {
        let par = ParOptions::with_threads(self.threads);
        let force_enumerate = self.force_enumerate;
        let mut via_dp = false;
        let mut outcome = self.execute(|q, rig, opts| {
            if !force_enumerate && crate::factorized::dp_eligible(opts) {
                if let Some(r) = crate::factorized::dp_count_result(q, rig) {
                    via_dp = true;
                    return r;
                }
            }
            rig_mjoin::par_enumerate(q, rig, opts, &par, |_| CountSink::default()).1
        });
        outcome.metrics.counted_via_factorization = via_dp;
        outcome
    }

    /// Like [`Run::count`] but errs with [`Error::Budget`] when the limit
    /// or timeout truncated the answer.
    pub fn try_count(self) -> Result<QueryOutcome, Error> {
        self.count().require_complete()
    }

    /// Collects up to `max` occurrence tuples (indexed by pattern node
    /// id). Parallel runs return the tuples sorted (deterministic across
    /// schedules); sequential runs return enumeration order.
    pub fn collect(mut self, max: usize) -> (Vec<Vec<NodeId>>, QueryOutcome) {
        // cap enumeration at `max` unless a tighter limit is already set
        if self.opts.limit.is_none_or(|l| l > max as u64) {
            self.opts.limit = Some(max as u64);
        }
        self.collect_all()
    }

    /// Collects every occurrence tuple (honors an explicit
    /// [`Run::limit`]), in the same order as [`Run::collect`].
    pub fn collect_all(self) -> (Vec<Vec<NodeId>>, QueryOutcome) {
        let parallel = self.threads > 1;
        let (sinks, outcome) = self.par_stream(|_| CollectSink::default());
        let mut tuples: Vec<Vec<NodeId>> = sinks.into_iter().flat_map(|s| s.tuples).collect();
        if parallel {
            tuples.sort_unstable();
        }
        (tuples, outcome)
    }

    /// Streams every occurrence into `sink` on the calling thread
    /// (ignores [`Run::threads`] — parallel streaming needs per-worker
    /// sinks, see [`Run::par_stream`]).
    pub fn stream<S: ResultSink>(self, sink: &mut S) -> QueryOutcome {
        let mut ran = false;
        let outcome = self.execute(|q, rig, opts| {
            ran = true;
            rig_mjoin::enumerate_sink(q, rig, opts, sink)
        });
        if !ran {
            // empty-RIG short circuit: the sink contract (finish exactly
            // once per run) must still hold
            sink.finish();
        }
        outcome
    }

    /// Streams through [`rig_mjoin::par_enumerate`] with [`Run::threads`]
    /// workers: `make_sink(worker)` builds one sink per worker; returns
    /// the sinks (all finished) with the outcome. With one thread this is
    /// [`Run::stream`]: one sink, built and fed on the calling thread.
    pub fn par_stream<S, F>(self, make_sink: F) -> (Vec<S>, QueryOutcome)
    where
        S: ResultSink + Send,
        F: Fn(usize) -> S + Sync,
    {
        let par = ParOptions::with_threads(self.threads);
        let mut sinks = Vec::new();
        let outcome = self.execute(|q, rig, opts| {
            let (s, r) = rig_mjoin::par_enumerate(q, rig, opts, &par, &make_sink);
            sinks = s;
            r
        });
        if sinks.is_empty() {
            // empty-RIG short circuit: hand back one finished sink per
            // worker so callers can merge uniformly
            sinks = (0..par.threads.max(1))
                .map(|w| {
                    let mut s = make_sink(w);
                    s.finish();
                    s
                })
                .collect();
        }
        (sinks, outcome)
    }

    /// Explains the plan without enumerating: the reduced query, whether
    /// its RIG came from the cache, the RIG statistics and the search
    /// order MJoin would use.
    pub fn explain(self) -> Explain {
        let prepared = self.prepared;
        let (rig, from_cache) = prepared.session.rig_for(prepared, self.use_cache, None);
        let (order, memo_split) = if rig.is_empty() {
            (Vec::new(), None)
        } else {
            let plan = Plan::new(&prepared.exec, &rig, &self.opts);
            let split = plan.memo_split();
            (plan.order, split)
        };
        let count_strategy =
            crate::factorized::strategy(&prepared.exec, &self.opts, self.force_enumerate);
        Explain {
            hpql: prepared.original_hpql(),
            reduced_hpql: prepared.to_hpql(),
            edges_reduced: prepared.edges_reduced,
            rig_stats: rig.stats.clone(),
            rig_from_cache: from_cache,
            empty_answer: rig.is_empty(),
            order_kind: self.opts.order,
            order,
            memo_split,
            vars: prepared.vars.clone(),
            count_strategy,
        }
    }

    /// Builds the factorized answer-graph summary (the CLI's
    /// `--factorized` output mode): shape, exact DP count and
    /// per-variable distinct-binding cardinalities, computed without
    /// materializing any tuple. Ignores [`Run::threads`] and the limit
    /// knob — this terminal always runs the DP. A [`Run::timeout`] *is*
    /// honored: it caps the RIG build and the DP's conditioning loops for
    /// the count and the cardinalities, and a summary truncated in any of
    /// them reports `timed_out` with `count: None`.
    pub fn factorized_summary(self) -> crate::factorized::FactorizedSummary {
        use crate::factorized::{FactorizedSummary, VarSummary};
        let prepared = self.prepared;
        let deadline = self.opts.timeout.and_then(|d| Instant::now().checked_add(d));
        let (rig, from_cache) = prepared.session.rig_for(prepared, self.use_cache, deadline);
        let q = &prepared.exec;
        let name_of = |i: usize| match prepared.vars.as_deref() {
            Some(v) => v[i].clone(),
            None => format!("v{i}"),
        };
        if rig.is_empty() {
            let timed_out = rig.stats.timed_out;
            let shape = crate::factorized::FactorizationShape::analyze(q);
            return FactorizedSummary {
                hpql: prepared.to_hpql(),
                tree: shape.is_tree(),
                extra_edges: shape.extra_edges.len(),
                conditioned: Vec::new(),
                assignments: 0,
                count: if timed_out { None } else { Some(0) },
                vars: (0..q.num_nodes())
                    .map(|i| VarSummary { name: name_of(i), candidates: 0, distinct: 0 })
                    .collect(),
                rig_from_cache: from_cache,
                timed_out,
            };
        }
        let mut f = crate::factorized::Factorization::new(q, &rig);
        f.set_deadline(deadline);
        let dp = f.count();
        // cardinalities re-run the conditioning loop under the same
        // deadline; a summary truncated in either loop reports no count
        let cards = if dp.timed_out { None } else { f.var_cardinalities() };
        let timed_out = cards.is_none();
        let cards = cards.unwrap_or_else(|| vec![0; q.num_nodes()]);
        FactorizedSummary {
            hpql: prepared.to_hpql(),
            tree: f.is_tree(),
            extra_edges: f.shape().extra_edges.len(),
            conditioned: f.shape().conditioned.iter().map(|&c| name_of(c as usize)).collect(),
            assignments: dp.assignments,
            count: if timed_out { None } else { dp.total },
            vars: (0..q.num_nodes())
                .map(|i| VarSummary {
                    name: name_of(i),
                    candidates: rig.cos_len(i as QNode),
                    distinct: cards[i],
                })
                .collect(),
            rig_from_cache: from_cache,
            timed_out,
        }
    }
}

/// Plan description produced by [`Run::explain`] (and the CLI's `explain`
/// mode).
#[derive(Debug, Clone)]
pub struct Explain {
    /// The query as given, pretty-printed as HPQL.
    pub hpql: String,
    /// The transitively reduced, canonical query the engine executes.
    pub reduced_hpql: String,
    /// Reachability edges removed by the reduction.
    pub edges_reduced: usize,
    /// Statistics of the (possibly cached) RIG.
    pub rig_stats: RigStats,
    /// True when the RIG came from the session's plan cache.
    pub rig_from_cache: bool,
    /// True when some candidate set is empty — the answer is empty and
    /// enumeration would be skipped entirely.
    pub empty_answer: bool,
    /// Search-order strategy that would drive MJoin.
    pub order_kind: SearchOrder,
    /// The concrete node order (empty when `empty_answer`).
    pub order: Vec<QNode>,
    /// MJoin's memo split: the search position from which it replays the
    /// suffix `order[split..]` while the runs that suffix reads repeat
    /// (`None`: the search never replays).
    pub memo_split: Option<usize>,
    /// Variable names, when the query came from HPQL.
    pub vars: Option<Vec<String>>,
    /// How [`Run::count`] would answer under this run's options:
    /// factorized DP eligibility and the human-readable choice.
    pub count_strategy: crate::factorized::CountStrategy,
}

impl std::fmt::Display for Explain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "query:    {}", self.hpql)?;
        writeln!(f, "reduced:  {} ({} edge(s) removed)", self.reduced_hpql, self.edges_reduced)?;
        writeln!(
            f,
            "RIG:      {} nodes / {} edges ({}, {} sim passes, {} pruned)",
            self.rig_stats.node_count,
            self.rig_stats.edge_count,
            if self.rig_from_cache { "cached" } else { "built" },
            self.rig_stats.sim_passes,
            self.rig_stats.pruned,
        )?;
        if self.empty_answer {
            writeln!(f, "order:    — (empty candidate set: answer is empty)")?;
        } else {
            let names: Vec<String> = self
                .order
                .iter()
                .map(|&q| match &self.vars {
                    Some(v) => v[q as usize].clone(),
                    None => format!("v{q}"),
                })
                .collect();
            writeln!(f, "order:    {:?} [{}]", self.order_kind, names.join(" → "))?;
            match self.memo_split {
                Some(s) => writeln!(
                    f,
                    "memo:     split at position {s}: replays [{}] while its input runs repeat",
                    names.get(s..).unwrap_or_default().join(" → ")
                )?,
                None => writeln!(f, "memo:     none")?,
            }
        }
        writeln!(f, "count:    {}", self.count_strategy.describe)?;
        Ok(())
    }
}
