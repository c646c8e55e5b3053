//! `rig_analyze` — static analysis of hybrid pattern queries.
//!
//! A multi-pass analyzer that inspects a parsed [`HpqlQuery`] /
//! [`PatternQuery`] against a [`DataGraph`]'s cheap statistics and
//! produces typed, span-carrying [`Diagnostic`]s — **without ever
//! executing the query**. Four pass families:
//!
//! 1. **Name resolution** (`A…`): unknown label names with did-you-mean
//!    suggestions (edit distance over the graph's label dictionary,
//!    shared with `Session::prepare` via [`rig_query::closest_label`]),
//!    and numeric label ids outside the graph's label space.
//! 2. **Emptiness proofs** (`E1…`): a label with an empty inverted list;
//!    a `Direct` edge between a label pair with zero co-occurring edges
//!    (the [`LabelPairCounts`] matrix); a
//!    `Reachability` edge refuted by one sweep of the graph's
//!    condensation from every node of the source label, which reaches no
//!    node of the target label. Every `E1…` finding is a *proof*: the
//!    engine must count zero (asserted by the soundness proptests).
//! 3. **Redundancy lints** (`R2…`): reachability edges the engine's own
//!    transitive reduction removes (witnessed by diffing against
//!    [`rig_query::transitive_reduction`], not recomputed), reachability
//!    constraints duplicated by a parallel direct edge, and variables
//!    constrained but never connected to the rest of the pattern.
//! 4. **Cost warnings** (`C3…`): per-edge cardinality estimates and the
//!    predicted RIG size from the label statistics, the factorized-DP
//!    conditioning width for cyclic queries (mirroring
//!    `Factorization::estimated_work` with inverted-list upper bounds),
//!    and a warning when the count path will route to worst-case
//!    enumeration.
//!
//! The output [`Report`] renders rustc-style caret diagnostics
//! ([`Report::render`]) and the `analysis` JSON schema
//! ([`Report::to_json`]) that `rigmatch check --format json` emits; the
//! schema's invariants are asserted in `tests/analysis_soundness.rs`. See
//! `docs/analysis.md` for the lint-code table.

mod diag;

pub use diag::{json_escape, Code, Diagnostic, Report, Severity};
pub use rig_query::Span;

use rig_graph::{DataGraph, Label, LabelPairCounts};
use rig_mjoin::factorized::{FactorizationShape, DP_CONDITIONING_LIMIT};
use rig_query::hpql::LabelSpec;
use rig_query::{
    closest_label, parse_hpql, transitive_reduction, EdgeKind, HpqlError, HpqlQuery, PatternQuery,
};
use rig_reach::Condensation;

/// The analyzer: a data graph, optional precomputed statistics and its
/// optional SCC condensation. All borrowed — building one is free;
/// the expensive inputs ([`LabelPairCounts`], a condensation) are supplied
/// by the caller so they can be cached across queries (the session layer
/// caches both per store version).
pub struct Analyzer<'a> {
    graph: &'a DataGraph,
    cond: Option<&'a Condensation>,
    pairs: Option<&'a LabelPairCounts>,
}

impl<'a> Analyzer<'a> {
    pub fn new(graph: &'a DataGraph) -> Analyzer<'a> {
        Analyzer { graph, cond: None, pairs: None }
    }

    /// Supplies the condensation of the analyzed graph for the `E103`
    /// refutation pass, which sweeps it — refutations become emptiness
    /// *proofs*. Without one, the pass is skipped.
    pub fn with_condensation(mut self, cond: &'a Condensation) -> Analyzer<'a> {
        self.cond = Some(cond);
        self
    }

    /// Supplies a precomputed label-pair matrix (otherwise one is built
    /// per [`Analyzer::analyze_text`] call, an `O(|V| + |E|)` scan).
    pub fn with_pair_counts(mut self, pairs: &'a LabelPairCounts) -> Analyzer<'a> {
        self.pairs = Some(pairs);
        self
    }

    /// Analyzes HPQL text. Parse failures come back as a `P001`
    /// diagnostic (span-carrying) rather than an `Err`, so `check` can
    /// render them the same way.
    pub fn analyze_text(&self, text: &str) -> Report {
        let mut report = Report { source: Some(text.to_string()), diagnostics: Vec::new() };
        let ast = match parse_hpql(text) {
            Ok(ast) => ast,
            Err(e) => {
                report.diagnostics.push(parse_diagnostic(&e));
                return report;
            }
        };
        self.analyze_ast_into(&ast, &mut report);
        report
    }

    /// Analyzes a parsed AST (spans available, labels not yet resolved).
    pub fn analyze_ast(&self, ast: &HpqlQuery, source: Option<&str>) -> Report {
        let mut report = Report { source: source.map(str::to_string), diagnostics: Vec::new() };
        self.analyze_ast_into(ast, &mut report);
        report
    }

    /// Analyzes an already-resolved pattern (no source spans — legacy
    /// query files, programmatic patterns). The resolution pass reduces
    /// to the label-space check; the other passes run in full.
    pub fn analyze_pattern(&self, q: &PatternQuery, vars: Option<&[String]>) -> Report {
        let mut report = Report::default();
        let n = q.num_nodes();
        let ctx = Ctx {
            q: q.clone(),
            vars: (0..n)
                .map(|i| match vars.and_then(|v| v.get(i)) {
                    Some(name) => name.clone(),
                    None => format!("v{i}"),
                })
                .collect(),
            node_spans: vec![None; n],
            label_spans: vec![None; n],
            edge_spans: vec![None; q.num_edges()],
        };
        self.resolution_pass_pattern(&ctx, &mut report);
        if !report.has_errors() {
            self.structural_passes(&ctx, &mut report);
        }
        report
    }

    fn analyze_ast_into(&self, ast: &HpqlQuery, report: &mut Report) {
        // pass 1: name resolution over the AST, with suggestions
        let dictionary: Vec<&str> = (0..self.graph.num_labels() as Label)
            .map(|l| self.graph.label_name(l))
            .filter(|n| !n.is_empty())
            .collect();
        let mut labels: Vec<Option<Label>> = Vec::with_capacity(ast.num_nodes());
        for (i, spec) in ast.labels().iter().enumerate() {
            match spec {
                LabelSpec::Name(name) => match self.graph.label_id(name) {
                    Some(l) => labels.push(Some(l)),
                    None => {
                        let mut d = Diagnostic::new(
                            Code::UnknownLabel,
                            Severity::Error,
                            format!(
                                "unknown label name '{name}' (variable '{}'): \
                                 not in the graph's label dictionary",
                                ast.vars()[i]
                            ),
                        )
                        .with_span(ast.label_span(i));
                        if let Some(s) = closest_label(name, dictionary.iter().copied()) {
                            d = d.with_suggestion(s);
                        }
                        report.diagnostics.push(d);
                        labels.push(None);
                    }
                },
                LabelSpec::Id(id) => {
                    if (*id as usize) >= self.graph.num_labels() {
                        report.diagnostics.push(
                            Diagnostic::new(
                                Code::LabelOutOfRange,
                                Severity::Error,
                                format!(
                                    "label id {id} (variable '{}') is outside the graph's \
                                     label space of {} labels",
                                    ast.vars()[i],
                                    self.graph.num_labels()
                                ),
                            )
                            .with_span(ast.label_span(i)),
                        );
                        labels.push(None);
                    } else {
                        labels.push(Some(*id));
                    }
                }
            }
        }
        let Some(labels) = labels.into_iter().collect::<Option<Vec<Label>>>() else {
            return; // unresolved labels: the later passes have nothing sound to say
        };
        let mut q = PatternQuery::new(labels);
        for &(f, t, kind) in ast.edges() {
            if q.try_add_edge(f, t, kind).is_err() {
                // the parser already rejects duplicates and self-loops;
                // a malformed hand-built AST is not analyzable further
                return;
            }
        }
        let n = ast.num_nodes();
        let ctx = Ctx {
            q,
            vars: ast.vars().to_vec(),
            node_spans: (0..n).map(|i| Some(ast.node_span(i))).collect(),
            label_spans: (0..n).map(|i| Some(ast.label_span(i))).collect(),
            edge_spans: (0..ast.edges().len()).map(|e| Some(ast.edge_span(e))).collect(),
        };
        self.structural_passes(&ctx, report);
    }

    /// Pass 1 for span-less patterns: the label-space check only.
    fn resolution_pass_pattern(&self, ctx: &Ctx, report: &mut Report) {
        for i in 0..ctx.q.num_nodes() {
            let l = ctx.q.label(i as u32);
            if (l as usize) >= self.graph.num_labels() {
                report.diagnostics.push(Diagnostic::new(
                    Code::LabelOutOfRange,
                    Severity::Error,
                    format!(
                        "label id {l} (variable '{}') is outside the graph's label space \
                         of {} labels",
                        ctx.vars[i],
                        self.graph.num_labels()
                    ),
                ));
            }
        }
    }

    /// Passes 2–4 over a resolved pattern.
    fn structural_passes(&self, ctx: &Ctx, report: &mut Report) {
        let owned_pairs;
        let pairs = match self.pairs {
            Some(p) => p,
            None => {
                owned_pairs = LabelPairCounts::of(self.graph);
                &owned_pairs
            }
        };
        self.emptiness_pass(ctx, pairs, report);
        self.redundancy_pass(ctx, report);
        self.cost_pass(ctx, pairs, report);
    }

    // -- pass 2: emptiness proofs ---------------------------------------

    fn emptiness_pass(&self, ctx: &Ctx, pairs: &LabelPairCounts, report: &mut Report) {
        let q = &ctx.q;
        // E101: empty inverted list
        for i in 0..q.num_nodes() {
            let l = q.label(i as u32);
            if self.graph.nodes_with_label(l).is_empty() {
                report.diagnostics.push(
                    Diagnostic::new(
                        Code::EmptyLabel,
                        Severity::Error,
                        format!(
                            "label {} has no nodes in the graph: variable '{}' can never \
                             bind, the answer is provably empty",
                            ctx.label_display(self.graph, i),
                            ctx.vars[i]
                        ),
                    )
                    .maybe_span(ctx.label_spans[i]),
                );
            }
        }
        for e in 0..q.num_edges() {
            let pe = q.edge(e as u32);
            let (lf, lt) = (q.label(pe.from), q.label(pe.to));
            match pe.kind {
                // E102: zero co-occurring edges for the label pair
                EdgeKind::Direct => {
                    if pairs.count(lf, lt) == 0 {
                        report.diagnostics.push(
                            Diagnostic::new(
                                Code::NoLabelPairEdges,
                                Severity::Error,
                                format!(
                                    "no {} → {} edges exist in the graph: direct edge \
                                     ({})->({}) can never match, the answer is provably empty",
                                    ctx.label_display(self.graph, pe.from as usize),
                                    ctx.label_display(self.graph, pe.to as usize),
                                    ctx.vars[pe.from as usize],
                                    ctx.vars[pe.to as usize]
                                ),
                            )
                            .maybe_span(ctx.edge_spans[e]),
                        );
                    }
                }
                // E103: the descendants of every source-label node, in one
                // condensation sweep, hold no target-label node
                EdgeKind::Reachability => {
                    let Some(cond) = self.cond else { continue };
                    let from = self.graph.nodes_with_label(lf);
                    let to = self.graph.nodes_with_label(lt);
                    if from.is_empty() || to.is_empty() {
                        continue; // E101 already proves emptiness
                    }
                    let reached = cond.descendants_of_set(self.graph.label_bitset(lf));
                    if !to.iter().any(|&v| reached.contains(v)) {
                        report.diagnostics.push(
                            Diagnostic::new(
                                Code::UnreachablePair,
                                Severity::Error,
                                format!(
                                    "no {} node reaches any {} node (all {} candidate pairs \
                                     refuted): reachability edge ({})=>({}) can never match, \
                                     the answer is provably empty",
                                    ctx.label_display(self.graph, pe.from as usize),
                                    ctx.label_display(self.graph, pe.to as usize),
                                    from.len() as u64 * to.len() as u64,
                                    ctx.vars[pe.from as usize],
                                    ctx.vars[pe.to as usize]
                                ),
                            )
                            .maybe_span(ctx.edge_spans[e]),
                        );
                    }
                }
            }
        }
    }

    // -- pass 3: redundancy lints ---------------------------------------

    fn redundancy_pass(&self, ctx: &Ctx, report: &mut Report) {
        let q = &ctx.q;
        // witness the engine's transitive reduction: any edge of q that
        // is absent from the reduced pattern is planned away
        let reduced = transitive_reduction(q);
        if reduced.num_edges() < q.num_edges() {
            let mut kept = vec![false; q.num_edges()];
            for e in 0..reduced.num_edges() {
                let re = reduced.edge(e as u32);
                if let Some(slot) = (0..q.num_edges()).find(|&i| {
                    !kept[i] && {
                        let qe = q.edge(i as u32);
                        (qe.from, qe.to, qe.kind) == (re.from, re.to, re.kind)
                    }
                }) {
                    kept[slot] = true;
                }
            }
            for (e, kept) in kept.iter().enumerate() {
                if *kept {
                    continue;
                }
                let pe = q.edge(e as u32);
                let (f, t) = (pe.from as usize, pe.to as usize);
                let parallel_direct = (0..q.num_edges()).any(|i| {
                    let qe = q.edge(i as u32);
                    (qe.from, qe.to, qe.kind) == (pe.from, pe.to, EdgeKind::Direct) && i != e
                });
                let d = if parallel_direct {
                    Diagnostic::new(
                        Code::SubsumedReachEdge,
                        Severity::Warning,
                        format!(
                            "reachability edge ({})=>({}) duplicates the direct edge \
                             ({})->({}): every edge is a path, the constraint is redundant",
                            ctx.vars[f], ctx.vars[t], ctx.vars[f], ctx.vars[t]
                        ),
                    )
                } else {
                    Diagnostic::new(
                        Code::RedundantReachEdge,
                        Severity::Warning,
                        format!(
                            "reachability edge ({})=>({}) is implied by the rest of the \
                             pattern; transitive reduction removes it before planning",
                            ctx.vars[f], ctx.vars[t]
                        ),
                    )
                };
                report.diagnostics.push(d.maybe_span(ctx.edge_spans[e]));
            }
        }
        // R203: constrained but never connected
        if q.num_nodes() > 1 && !q.is_connected() {
            // report one representative per stray component: every node
            // unreachable (undirected) from node 0
            let mut seen = vec![false; q.num_nodes()];
            let mut stack = vec![0u32];
            seen[0] = true;
            while let Some(u) = stack.pop() {
                for (v, _, _) in q.neighbors(u) {
                    if !seen[v as usize] {
                        seen[v as usize] = true;
                        stack.push(v);
                    }
                }
            }
            for (i, seen) in seen.iter().enumerate() {
                if !seen {
                    report.diagnostics.push(
                        Diagnostic::new(
                            Code::Disconnected,
                            Severity::Error,
                            format!(
                                "variable '{}' is constrained but never connected to the \
                                 rest of the pattern; the engine rejects disconnected queries",
                                ctx.vars[i]
                            ),
                        )
                        .maybe_span(ctx.node_spans[i]),
                    );
                }
            }
        }
    }

    // -- pass 4: cost warnings ------------------------------------------

    fn cost_pass(&self, ctx: &Ctx, pairs: &LabelPairCounts, report: &mut Report) {
        let q = &ctx.q;
        let inv = |i: usize| self.graph.nodes_with_label(q.label(i as u32)).len() as u64;
        // predicted RIG size: one candidate array per variable, each at
        // most the label's inverted list
        let rig_size: u64 = (0..q.num_nodes()).map(inv).sum();
        let mut edge_ests: Vec<String> = Vec::with_capacity(q.num_edges());
        for e in 0..q.num_edges() {
            let pe = q.edge(e as u32);
            let (f, t) = (pe.from as usize, pe.to as usize);
            match pe.kind {
                EdgeKind::Direct => edge_ests.push(format!(
                    "({})->({}) ≈ {}",
                    ctx.vars[f],
                    ctx.vars[t],
                    pairs.count(q.label(pe.from), q.label(pe.to))
                )),
                EdgeKind::Reachability => edge_ests.push(format!(
                    "({})=>({}) ≤ {}",
                    ctx.vars[f],
                    ctx.vars[t],
                    inv(f).saturating_mul(inv(t))
                )),
            }
        }
        report.diagnostics.push(Diagnostic::new(
            Code::CostEstimate,
            Severity::Note,
            format!(
                "predicted RIG size ≤ {rig_size} candidates; per-edge cardinality \
                 estimates: {}",
                if edge_ests.is_empty() {
                    "none (edge-free pattern)".into()
                } else {
                    edge_ests.join(", ")
                }
            ),
        ));
        // factorized-DP conditioning width (static mirror of
        // Factorization::estimated_work, with inverted lists standing in
        // for the pruned candidate arrays)
        let shape = FactorizationShape::analyze(q);
        if shape.is_tree() {
            return; // tree queries always take the linear DP
        }
        let mut width = 1u64;
        for &c in &shape.conditioned {
            width = width.saturating_mul(inv(c as usize).max(1));
        }
        let cond_vars: Vec<&str> =
            shape.conditioned.iter().map(|&c| ctx.vars[c as usize].as_str()).collect();
        if width > DP_CONDITIONING_LIMIT {
            report.diagnostics.push(Diagnostic::new(
                Code::EnumerationRouting,
                Severity::Warning,
                format!(
                    "cyclic pattern conditions on {{{}}} with predicted width {width} \
                     (limit {DP_CONDITIONING_LIMIT}): counting will route to worst-case \
                     enumeration",
                    cond_vars.join(", "),
                ),
            ));
        } else {
            report.diagnostics.push(Diagnostic::new(
                Code::ConditioningWidth,
                Severity::Note,
                format!(
                    "cyclic pattern: factorized DP conditions on {{{}}}, predicted \
                     width ≤ {width}",
                    cond_vars.join(", ")
                ),
            ));
        }
    }
}

/// Resolved pattern plus presentation context (variable names and
/// optional source spans, parallel to pattern node/edge ids).
struct Ctx {
    q: PatternQuery,
    vars: Vec<String>,
    node_spans: Vec<Option<Span>>,
    label_spans: Vec<Option<Span>>,
    edge_spans: Vec<Option<Span>>,
}

impl Ctx {
    /// `'Name'` when the label is named, `id N` otherwise.
    fn label_display(&self, graph: &DataGraph, node: usize) -> String {
        let l = self.q.label(node as u32);
        let name = graph.label_name(l);
        if name.is_empty() {
            format!("label id {l}")
        } else {
            format!("'{name}'")
        }
    }
}

fn parse_diagnostic(e: &HpqlError) -> Diagnostic {
    Diagnostic::new(Code::Parse, Severity::Error, e.message.clone()).with_span(e.span())
}

trait MaybeSpan {
    fn maybe_span(self, span: Option<Span>) -> Self;
}

impl MaybeSpan for Diagnostic {
    fn maybe_span(mut self, span: Option<Span>) -> Diagnostic {
        self.span = span;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rig_graph::{DataGraph, GraphBuilder};

    /// Author(0) -> Paper(1) -> Paper(2) -> Cited(3); label 'Ghost' (id 4)
    /// has no nodes; no edge ever enters an Author node.
    fn graph() -> DataGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_node_with_name(0, "Author");
        let p1 = b.add_node_with_name(1, "Paper");
        let p2 = b.add_node_with_name(1, "Paper");
        let c = b.add_node_with_name(2, "Cited");
        b.set_label_name(3, "Ghost");
        b.add_edge(a, p1);
        b.add_edge(p1, p2);
        b.add_edge(p2, c);
        b.build()
    }

    fn analyze(text: &str) -> Report {
        let g = graph();
        let cond = Condensation::new(&g);
        Analyzer::new(&g).with_condensation(&cond).analyze_text(text)
    }

    #[test]
    fn clean_query_yields_only_cost_notes() {
        let r = analyze("MATCH (a:Author)->(p:Paper)=>(c:Cited)");
        assert!(!r.has_errors(), "{:?}", r.diagnostics);
        assert!(!r.proven_empty());
        assert!(r.diagnostics.iter().any(|d| d.code == Code::CostEstimate));
    }

    #[test]
    fn unknown_label_gets_a_suggestion() {
        let r = analyze("MATCH (a:Autor)->(p:Paper)");
        let d = &r.diagnostics[0];
        assert_eq!(d.code, Code::UnknownLabel);
        assert_eq!(d.suggestion.as_deref(), Some("Author"));
        assert!(d.span.is_some());
        assert!(r.has_errors() && !r.proven_empty());
    }

    #[test]
    fn empty_label_is_proven_empty() {
        let r = analyze("MATCH (a:Author)->(g:Ghost)");
        assert!(r.proven_empty());
        assert!(r.diagnostics.iter().any(|d| d.code == Code::EmptyLabel));
    }

    #[test]
    fn zero_pair_count_refutes_direct_edges() {
        let r = analyze("MATCH (p:Paper)->(a:Author)");
        assert!(r.proven_empty(), "{:?}", r.diagnostics);
        assert!(r.diagnostics.iter().any(|d| d.code == Code::NoLabelPairEdges));
    }

    #[test]
    fn bfl_refutes_impossible_reachability() {
        // nothing reaches an Author node
        let r = analyze("MATCH (c:Cited)=>(a:Author)");
        assert!(r.proven_empty(), "{:?}", r.diagnostics);
        assert!(r.diagnostics.iter().any(|d| d.code == Code::UnreachablePair));
        // without an oracle the pass stays silent
        let g = graph();
        let r = Analyzer::new(&g).analyze_text("MATCH (c:Cited)=>(a:Author)");
        assert!(!r.proven_empty());
    }

    /// 70 × 70 = 4 900 candidate pairs, with edges only from Paper to
    /// Author: every pair is refuted, however many there are.
    #[test]
    fn wide_label_pairs_are_refuted_too() {
        let mut b = GraphBuilder::new();
        let authors: Vec<_> = (0..70).map(|_| b.add_node_with_name(0, "Author")).collect();
        let papers: Vec<_> = (0..70).map(|_| b.add_node_with_name(1, "Paper")).collect();
        for (i, &p) in papers.iter().enumerate() {
            b.add_edge(p, authors[i]);
            b.add_edge(p, authors[(i + 1) % 70]);
        }
        let g = b.build();
        let cond = Condensation::new(&g);
        let analyzer = Analyzer::new(&g).with_condensation(&cond);
        let r = analyzer.analyze_text("MATCH (a:Author)=>(p:Paper)");
        let d = r.diagnostics.iter().find(|d| d.code == Code::UnreachablePair);
        assert!(d.is_some_and(|d| d.message.contains("all 4900 candidate pairs")), "{r:?}");
        assert!(r.proven_empty());
        assert!(!analyzer.analyze_text("MATCH (p:Paper)=>(a:Author)").proven_empty());
    }

    #[test]
    fn redundant_and_subsumed_reach_edges_warn() {
        let r = analyze("MATCH (a:Author)->(p:Paper)=>(c:Cited), (a)=>(c)");
        assert!(
            r.diagnostics.iter().any(|d| d.code == Code::RedundantReachEdge),
            "{:?}",
            r.diagnostics
        );
        let r = analyze("MATCH (a:Author)->(p:Paper), (a)=>(p)");
        assert!(
            r.diagnostics.iter().any(|d| d.code == Code::SubsumedReachEdge),
            "{:?}",
            r.diagnostics
        );
    }

    #[test]
    fn disconnected_variables_error() {
        let r = analyze("MATCH (a:Author)->(p:Paper), (x:Cited)->(y:Cited)");
        // x→y is a separate component (and Cited→Cited has no edges, so
        // the emptiness pass fires too); the R203 must name a stray var
        let d = r.diagnostics.iter().find(|d| d.code == Code::Disconnected).unwrap();
        assert!(d.message.contains("'x'") || d.message.contains("'y'"), "{}", d.message);
    }

    #[test]
    fn cyclic_queries_report_conditioning() {
        let r = analyze("MATCH (a:Author)->(p:Paper)=>(c:Cited), (a)->(c)");
        assert!(
            r.diagnostics
                .iter()
                .any(|d| matches!(d.code, Code::ConditioningWidth | Code::EnumerationRouting)),
            "{:?}",
            r.diagnostics
        );
    }

    #[test]
    fn enumeration_routing_warns_past_the_limit() {
        // the predicted width is the conditioned variable's label count,
        // so one label with more than DP_CONDITIONING_LIMIT nodes puts a
        // triangle over it past the limit
        let mut b = GraphBuilder::new();
        let hubs: Vec<_> =
            (0..=DP_CONDITIONING_LIMIT).map(|_| b.add_node_with_name(0, "Hub")).collect();
        b.add_edge(hubs[0], hubs[1]);
        b.add_edge(hubs[1], hubs[2]);
        b.add_edge(hubs[0], hubs[2]);
        let g = b.build();
        let r = Analyzer::new(&g).analyze_text("MATCH (a:Hub)->(b:Hub)->(c:Hub), (a)->(c)");
        assert!(r.diagnostics.iter().any(|d| d.code == Code::EnumerationRouting));
    }

    #[test]
    fn pattern_analysis_works_without_spans() {
        let g = graph();
        // Paper -> Author: provably empty
        let mut q = PatternQuery::new(vec![1, 0]);
        q.try_add_edge(0, 1, EdgeKind::Direct).unwrap();
        let r = Analyzer::new(&g).analyze_pattern(&q, None);
        assert!(r.proven_empty(), "{:?}", r.diagnostics);
        assert!(r.diagnostics.iter().all(|d| d.span.is_none()));
        // out-of-range label id
        let q = PatternQuery::new(vec![9]);
        let r = Analyzer::new(&g).analyze_pattern(&q, None);
        assert!(r.diagnostics.iter().any(|d| d.code == Code::LabelOutOfRange));
    }

    #[test]
    fn parse_failures_become_p001() {
        let r = analyze("MATCH (a:Author");
        assert!(r.is_parse_failure() && r.has_errors());
        assert!(r.diagnostics[0].span.is_some());
    }
}
