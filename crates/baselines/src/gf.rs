//! GraphflowDB and EmptyHeaded analogues (§7.5, Figs. 16/18, Table 5).
//!
//! **GF-like**: WCOJ over the raw graph, but queries can only run after a
//! per-graph *catalog* is built (GF samples subgraph cardinalities to cost
//! its plans). Catalog construction is the scalability bottleneck the
//! paper demonstrates: it enumerates label-annotated 2-paths — already
//! super-linear — and its memory blows up on large many-label graphs. We
//! reproduce the paper's observed failures with a deterministic memory
//! model (see [`Catalog::BUILD_OOM_EDGES`]): construction
//! reports OM when `|E| ≥ 400k ∧ |L| ≥ 20` or `|L| ≥ 100`, exactly the
//! em/ep/hp pattern of Fig. 16(a).
//!
//! **EH-like**: the same WCOJ core, but every query pays an expensive
//! precomputation step (EmptyHeaded re-builds its relation tries per
//! query); `EH-probe` excludes that step, as Table 5 does.

use std::time::{Duration, Instant};

use crate::wcoj::wcoj_count;
use crate::{failure_report, Budget, Engine};
use rig_core::{RunReport, RunStatus};
use rig_graph::{DataGraph, FxHashMap, Label, NodeId};
use rig_query::PatternQuery;

/// GF's per-graph statistics catalog.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Distinct (label, label, label) 2-path entries.
    pub entries: usize,
    /// Total label-annotated 2-paths counted.
    pub two_paths: u64,
    pub build_time: Duration,
}

impl Catalog {
    /// Edge-count threshold of the deterministic OOM model.
    pub const BUILD_OOM_EDGES: usize = 400_000;
    /// Label-count thresholds of the deterministic OOM model.
    pub const BUILD_OOM_LABELS: usize = 20;
    pub const BUILD_OOM_LABELS_ALONE: usize = 100;

    /// Builds the catalog, or reports the deterministic OOM.
    pub fn build(g: &DataGraph) -> Result<Catalog, RunStatus> {
        if (g.num_edges() >= Self::BUILD_OOM_EDGES && g.num_labels() >= Self::BUILD_OOM_LABELS)
            || g.num_labels() >= Self::BUILD_OOM_LABELS_ALONE
        {
            return Err(RunStatus::MemoryExceeded);
        }
        let start = Instant::now();
        let mut counts: FxHashMap<(Label, Label, Label), u64> = FxHashMap::default();
        let mut two_paths = 0u64;
        for v in 0..g.num_nodes() as NodeId {
            let lv = g.label(v);
            for &u in g.in_neighbors(v) {
                let lu = g.label(u);
                for &w in g.out_neighbors(v) {
                    *counts.entry((lu, lv, g.label(w))).or_insert(0) += 1;
                    two_paths += 1;
                }
            }
        }
        Ok(Catalog { entries: counts.len(), two_paths, build_time: start.elapsed() })
    }
}

/// The GraphflowDB analogue.
pub struct GfLike<'g> {
    graph: &'g DataGraph,
    catalog: Result<Catalog, RunStatus>,
}

impl<'g> GfLike<'g> {
    /// Loads the graph and builds the catalog (may "OOM" — queries will
    /// then all fail, as in Fig. 16).
    pub fn new(graph: &'g DataGraph) -> Self {
        GfLike { graph, catalog: Catalog::build(graph) }
    }

    pub fn catalog(&self) -> &Result<Catalog, RunStatus> {
        &self.catalog
    }
}

impl Engine for GfLike<'_> {
    fn name(&self) -> &'static str {
        "GF"
    }

    fn evaluate(&self, query: &PatternQuery, budget: &Budget) -> RunReport {
        let start = Instant::now();
        if let Err(status) = &self.catalog {
            return failure_report("GF", *status, start.elapsed(), 0);
        }
        let out = wcoj_count(self.graph, query, budget);
        RunReport {
            engine: "GF".into(),
            status: out.status,
            occurrences: out.count,
            total_time: out.elapsed,
            matching_time: Duration::ZERO,
            enumeration_time: out.elapsed,
            intermediate_tuples: 0,
            aux_size: self.catalog.as_ref().map(|c| c.entries as u64).unwrap_or(0),
        }
    }

    fn setup_time(&self) -> Duration {
        self.catalog.as_ref().map(|c| c.build_time).unwrap_or(Duration::ZERO)
    }
}

/// The EmptyHeaded analogue.
pub struct EhLike<'g> {
    graph: &'g DataGraph,
    /// Include the per-query precomputation step in reported times
    /// (`true` = the paper's "EH" rows, `false` = "EH-probe").
    pub include_precomputation: bool,
}

impl<'g> EhLike<'g> {
    pub fn new(graph: &'g DataGraph) -> Self {
        EhLike { graph, include_precomputation: true }
    }

    pub fn probe_only(graph: &'g DataGraph) -> Self {
        EhLike { graph, include_precomputation: false }
    }

    /// EH's per-query precomputation: materialize and sort the per-label
    /// relation tries the compiled plan will scan.
    fn precompute(&self, query: &PatternQuery) -> Duration {
        let start = Instant::now();
        let mut tries: FxHashMap<(Label, Label), Vec<(NodeId, NodeId)>> = FxHashMap::default();
        let wanted: std::collections::HashSet<(Label, Label)> =
            query.edges().iter().map(|e| (query.label(e.from), query.label(e.to))).collect();
        for (u, v) in self.graph.edges() {
            let key = (self.graph.label(u), self.graph.label(v));
            if wanted.contains(&key) {
                tries.entry(key).or_default().push((u, v));
            }
        }
        // both attribute orders, as EH builds one trie per order
        for rel in tries.values_mut() {
            rel.sort_unstable();
            let mut rev: Vec<(NodeId, NodeId)> = rel.iter().map(|&(u, v)| (v, u)).collect();
            rev.sort_unstable();
            std::hint::black_box(&rev);
        }
        start.elapsed()
    }
}

impl Engine for EhLike<'_> {
    fn name(&self) -> &'static str {
        if self.include_precomputation {
            "EH"
        } else {
            "EH-probe"
        }
    }

    fn evaluate(&self, query: &PatternQuery, budget: &Budget) -> RunReport {
        let pre = self.precompute(query);
        let out = wcoj_count(self.graph, query, budget);
        let total = if self.include_precomputation { out.elapsed + pre } else { out.elapsed };
        RunReport {
            engine: self.name().into(),
            status: out.status,
            occurrences: out.count,
            total_time: total,
            matching_time: if self.include_precomputation { pre } else { Duration::ZERO },
            enumeration_time: out.elapsed,
            intermediate_tuples: 0,
            aux_size: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rig_datasets::examples::fig2_graph;
    use rig_query::{EdgeKind, PatternQuery};

    fn direct_query() -> PatternQuery {
        let mut q = PatternQuery::new(vec![0, 1, 2]);
        q.add_edge(0, 1, EdgeKind::Direct);
        q.add_edge(0, 2, EdgeKind::Direct);
        q
    }

    #[test]
    fn catalog_builds_on_small_graphs() {
        let g = fig2_graph();
        let c = Catalog::build(&g).unwrap();
        assert!(c.two_paths > 0);
        assert!(c.entries > 0);
    }

    #[test]
    fn catalog_oom_model() {
        use rig_datasets::spec;
        // em at full scale trips |E| >= 400k && |L| >= 20
        let em = spec("em").unwrap();
        assert!(em.edges >= Catalog::BUILD_OOM_EDGES && em.labels >= Catalog::BUILD_OOM_LABELS);
        // hp trips |L| >= 100
        let hp = spec("hp").unwrap();
        assert!(hp.labels >= Catalog::BUILD_OOM_LABELS_ALONE);
        // am/bs/go/yt/hu do not trip
        for name in ["am", "bs", "go", "yt", "hu"] {
            let s = spec(name).unwrap();
            let oom = (s.edges >= Catalog::BUILD_OOM_EDGES
                && s.labels >= Catalog::BUILD_OOM_LABELS)
                || s.labels >= Catalog::BUILD_OOM_LABELS_ALONE;
            assert!(!oom, "{name} should build its catalog");
        }
    }

    #[test]
    fn gf_counts_direct_queries() {
        let g = fig2_graph();
        let gf = GfLike::new(&g);
        assert!(gf.catalog().is_ok());
        let r = gf.evaluate(&direct_query(), &Budget::unlimited());
        assert_eq!(r.status, RunStatus::Completed);
        assert_eq!(r.occurrences, 2);
    }

    #[test]
    fn gf_fails_on_reachability() {
        let g = fig2_graph();
        let gf = GfLike::new(&g);
        let r = gf.evaluate(&rig_query::fig2_query(), &Budget::unlimited());
        assert_eq!(r.status, RunStatus::Failed);
    }

    #[test]
    fn eh_total_includes_precomputation() {
        let g = fig2_graph();
        let eh = EhLike::new(&g);
        let probe = EhLike::probe_only(&g);
        let q = direct_query();
        let re = eh.evaluate(&q, &Budget::unlimited());
        let rp = probe.evaluate(&q, &Budget::unlimited());
        assert_eq!(re.occurrences, rp.occurrences);
        assert!(re.total_time >= rp.enumeration_time);
        assert_eq!(eh.name(), "EH");
        assert_eq!(probe.name(), "EH-probe");
    }
}
