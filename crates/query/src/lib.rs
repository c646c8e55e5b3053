//! Hybrid graph pattern queries (§2–§3 of the paper).
//!
//! A pattern query is a small connected directed graph whose nodes carry
//! labels and whose edges are either **direct** (edge-to-edge mapping) or
//! **reachability** (edge-to-path mapping). A pattern mixing both kinds is
//! a *hybrid* pattern. This crate provides:
//!
//! * the [`PatternQuery`] type with adjacency accessors used by every later
//!   stage;
//! * query **transitive closure / reduction** (§3) — dropping reachability
//!   edges implied by other paths before evaluation;
//! * the 20 reconstructed **Fig. 7 templates** and their C/H/D flavors;
//! * **random query extraction** from a data graph with a non-empty-answer
//!   guarantee (used by the hp/yt/hu workloads of §7);
//! * **HPQL**, the textual hybrid-pattern language
//!   (`MATCH (a:Author)->(p:Paper)=>(q:Paper)`), in [`hpql`].

pub mod generator;
pub mod hpql;
pub mod reduction;
pub mod templates;

pub use generator::{random_query, GeneratorConfig};
pub use hpql::{closest_label, parse_hpql, to_hpql, HpqlError, HpqlQuery, HpqlResolved, Span};
pub use reduction::{transitive_closure, transitive_reduction};
pub use templates::{template, template_count, Flavor, TemplateId};

use rig_graph::Label;

/// Query node identifier (dense `0..num_nodes`).
pub type QNode = u32;

/// Query edge identifier (dense index into [`PatternQuery::edges`]).
pub type EdgeId = u32;

/// The two structural relationships a pattern edge can denote (Def. 2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Edge-to-edge: `(h(p), h(q))` must be an edge of the data graph.
    Direct,
    /// Edge-to-path: `h(p) ≺ h(q)` must hold in the data graph.
    Reachability,
}

/// A directed pattern edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PatternEdge {
    pub from: QNode,
    pub to: QNode,
    pub kind: EdgeKind,
}

/// Structural error from pattern construction
/// ([`PatternQuery::try_add_edge`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternError {
    /// An edge endpoint is not a node of the pattern.
    NodeOutOfRange { node: QNode, num_nodes: usize },
    /// `from == to`: self-loop constraints are not expressible in the
    /// paper's model (Def. 2.1 patterns are simple).
    SelfLoop { node: QNode },
    /// The exact `(from, to, kind)` triple is already present.
    DuplicateEdge { edge: PatternEdge },
}

impl std::fmt::Display for PatternError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatternError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "edge endpoint {node} out of range (pattern has {num_nodes} node(s))")
            }
            PatternError::SelfLoop { node } => {
                write!(f, "self-loop on pattern node {node} is not expressible")
            }
            PatternError::DuplicateEdge { edge } => write!(
                f,
                "duplicate {} edge ({}, {})",
                match edge.kind {
                    EdgeKind::Direct => "direct",
                    EdgeKind::Reachability => "reachability",
                },
                edge.from,
                edge.to
            ),
        }
    }
}

impl std::error::Error for PatternError {}

/// Structural class used to group workloads in §7.1.
///
/// Precedence follows the paper: complete → `Clique`; more than two
/// independent undirected cycles → `Combo`; at least one → `Cyclic`;
/// otherwise `Acyclic` (undirected tree).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryClass {
    Acyclic,
    Cyclic,
    Clique,
    Combo,
}

/// A hybrid graph pattern query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternQuery {
    labels: Vec<Label>,
    edges: Vec<PatternEdge>,
    out_adj: Vec<Vec<EdgeId>>,
    in_adj: Vec<Vec<EdgeId>>,
}

impl PatternQuery {
    /// Creates a query with the given node labels and no edges.
    pub fn new(labels: Vec<Label>) -> Self {
        let n = labels.len();
        PatternQuery {
            labels,
            edges: Vec::new(),
            out_adj: vec![Vec::new(); n],
            in_adj: vec![Vec::new(); n],
        }
    }

    /// Adds an edge, rejecting malformed input with a [`PatternError`]:
    /// out-of-range endpoints, self-loops, and duplicate `(from, to, kind)`
    /// triples (which earlier versions silently ignored). A direct and a
    /// reachability edge between the same endpoints are distinct
    /// constraints and both accepted.
    pub fn try_add_edge(
        &mut self,
        from: QNode,
        to: QNode,
        kind: EdgeKind,
    ) -> Result<EdgeId, PatternError> {
        let n = self.labels.len();
        for node in [from, to] {
            if node as usize >= n {
                return Err(PatternError::NodeOutOfRange { node, num_nodes: n });
            }
        }
        if from == to {
            return Err(PatternError::SelfLoop { node: from });
        }
        let e = PatternEdge { from, to, kind };
        if self.edges.contains(&e) {
            return Err(PatternError::DuplicateEdge { edge: e });
        }
        let id = self.edges.len() as EdgeId;
        self.edges.push(e);
        self.out_adj[from as usize].push(id);
        self.in_adj[to as usize].push(id);
        Ok(id)
    }

    /// Adds an edge; panics on what [`PatternQuery::try_add_edge`] rejects
    /// (the infallible convenience for hand-built patterns whose shape is
    /// statically known — parsers and generators use `try_add_edge` /
    /// [`PatternQuery::ensure_edge`] instead).
    #[track_caller]
    #[allow(clippy::panic, reason = "infallible by contract; try_add_edge is the fallible form")]
    pub fn add_edge(&mut self, from: QNode, to: QNode, kind: EdgeKind) -> EdgeId {
        match self.try_add_edge(from, to, kind) {
            Ok(id) => id,
            Err(e) => panic!("add_edge: {e}"),
        }
    }

    /// Adds the edge if absent, returning the id of the (new or existing)
    /// edge. The dedup behavior `add_edge` used to have, for callers that
    /// build patterns from sources with legitimate repeats (transitive
    /// closure, random extraction, kind-collapsing rewrites).
    #[track_caller]
    pub fn ensure_edge(&mut self, from: QNode, to: QNode, kind: EdgeKind) -> EdgeId {
        let e = PatternEdge { from, to, kind };
        if let Some(pos) = self.edges.iter().position(|&x| x == e) {
            return pos as EdgeId;
        }
        self.add_edge(from, to, kind)
    }

    /// Removes edge `id`, renumbering subsequent edge ids.
    pub fn remove_edge(&mut self, id: EdgeId) {
        self.edges.remove(id as usize);
        self.rebuild_adj();
    }

    fn rebuild_adj(&mut self) {
        for adj in self.out_adj.iter_mut().chain(self.in_adj.iter_mut()) {
            adj.clear();
        }
        for (i, e) in self.edges.iter().enumerate() {
            self.out_adj[e.from as usize].push(i as EdgeId);
            self.in_adj[e.to as usize].push(i as EdgeId);
        }
    }

    /// Number of pattern nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.labels.len()
    }

    /// Number of pattern edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Label of node `q`.
    #[inline]
    pub fn label(&self, q: QNode) -> Label {
        self.labels[q as usize]
    }

    /// All node labels.
    #[inline]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// All edges.
    #[inline]
    pub fn edges(&self) -> &[PatternEdge] {
        &self.edges
    }

    /// Edge by id.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> PatternEdge {
        self.edges[id as usize]
    }

    /// Ids of edges leaving `q`.
    #[inline]
    pub fn out_edges(&self, q: QNode) -> &[EdgeId] {
        &self.out_adj[q as usize]
    }

    /// Ids of edges entering `q`.
    #[inline]
    pub fn in_edges(&self, q: QNode) -> &[EdgeId] {
        &self.in_adj[q as usize]
    }

    /// Neighbors of `q` in the *undirected* sense together with the edge id
    /// and direction (`true` = outgoing).
    pub fn neighbors(&self, q: QNode) -> impl Iterator<Item = (QNode, EdgeId, bool)> + '_ {
        let out =
            self.out_adj[q as usize].iter().map(move |&e| (self.edges[e as usize].to, e, true));
        let inn =
            self.in_adj[q as usize].iter().map(move |&e| (self.edges[e as usize].from, e, false));
        out.chain(inn)
    }

    /// Undirected degree of `q`.
    pub fn degree(&self, q: QNode) -> usize {
        self.out_adj[q as usize].len() + self.in_adj[q as usize].len()
    }

    /// True iff every pair of nodes is connected by an undirected path.
    pub fn is_connected(&self) -> bool {
        if self.num_nodes() == 0 {
            return true;
        }
        let mut seen = vec![false; self.num_nodes()];
        let mut stack = vec![0 as QNode];
        seen[0] = true;
        let mut count = 1;
        while let Some(q) = stack.pop() {
            for (nb, _, _) in self.neighbors(q) {
                if !seen[nb as usize] {
                    seen[nb as usize] = true;
                    count += 1;
                    stack.push(nb);
                }
            }
        }
        count == self.num_nodes()
    }

    /// Topological order of the pattern nodes, or `None` if the pattern has
    /// a directed cycle.
    pub fn topological_order(&self) -> Option<Vec<QNode>> {
        let n = self.num_nodes();
        let mut indeg: Vec<usize> = (0..n).map(|q| self.in_adj[q].len()).collect();
        let mut queue: Vec<QNode> = (0..n as QNode).filter(|&q| indeg[q as usize] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(q) = queue.pop() {
            order.push(q);
            for &e in &self.out_adj[q as usize] {
                let t = self.edges[e as usize].to as usize;
                indeg[t] -= 1;
                if indeg[t] == 0 {
                    queue.push(t as QNode);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// True iff the pattern has no directed cycle.
    pub fn is_dag(&self) -> bool {
        self.topological_order().is_some()
    }

    /// Splits the edges into a spanning DAG and a set of *back edges* whose
    /// removal breaks all directed cycles (the Dag+Δ decomposition used by
    /// `FBSim`, §4.4). Returns `(dag_edge_ids, back_edge_ids)`.
    pub fn dag_decomposition(&self) -> (Vec<EdgeId>, Vec<EdgeId>) {
        // Iterative DFS over the directed pattern; an edge to a node on the
        // current DFS stack is a back edge.
        let n = self.num_nodes();
        #[derive(Clone, Copy, PartialEq)]
        enum State {
            White,
            Gray,
            Black,
        }
        let mut state = vec![State::White; n];
        let mut back: Vec<EdgeId> = Vec::new();
        let mut stack: Vec<(QNode, usize)> = Vec::new();
        for root in 0..n as QNode {
            if state[root as usize] != State::White {
                continue;
            }
            state[root as usize] = State::Gray;
            stack.push((root, 0));
            while let Some(&mut (q, ref mut ci)) = stack.last_mut() {
                let out = &self.out_adj[q as usize];
                if *ci < out.len() {
                    let eid = out[*ci];
                    *ci += 1;
                    let t = self.edges[eid as usize].to;
                    match state[t as usize] {
                        State::White => {
                            state[t as usize] = State::Gray;
                            stack.push((t, 0));
                        }
                        State::Gray => back.push(eid),
                        State::Black => {}
                    }
                } else {
                    state[q as usize] = State::Black;
                    stack.pop();
                }
            }
        }
        let back_set: std::collections::HashSet<EdgeId> = back.iter().copied().collect();
        let dag: Vec<EdgeId> =
            (0..self.edges.len() as EdgeId).filter(|e| !back_set.contains(e)).collect();
        (dag, back)
    }

    /// Returns a copy with only the given edges (node set unchanged).
    pub fn with_edges(&self, keep: &[EdgeId]) -> PatternQuery {
        let mut q = PatternQuery::new(self.labels.clone());
        for &e in keep {
            let pe = self.edges[e as usize];
            q.add_edge(pe.from, pe.to, pe.kind);
        }
        q
    }

    /// The canonical form of this pattern: same nodes and labels, edges
    /// sorted by `(from, to, kind)` so that two patterns with the same
    /// constraints compare equal regardless of edge insertion order. Node
    /// numbering is preserved — it is part of the query's meaning
    /// (occurrence tuples are indexed by it). Used as the plan-cache key by
    /// `rigmatch`'s `Session` and by the HPQL round-trip tests.
    pub fn canonical(&self) -> PatternQuery {
        let mut edges = self.edges.clone();
        edges.sort_unstable_by_key(|e| (e.from, e.to, e.kind == EdgeKind::Reachability));
        let mut q = PatternQuery::new(self.labels.clone());
        for e in edges {
            q.add_edge(e.from, e.to, e.kind);
        }
        q
    }

    /// Number of independent undirected cycles (`|E| - |V| + components`).
    pub fn cycle_rank(&self) -> usize {
        // count undirected components
        let n = self.num_nodes();
        let mut seen = vec![false; n];
        let mut comps = 0;
        for s in 0..n as QNode {
            if seen[s as usize] {
                continue;
            }
            comps += 1;
            let mut stack = vec![s];
            seen[s as usize] = true;
            while let Some(q) = stack.pop() {
                for (nb, _, _) in self.neighbors(q) {
                    if !seen[nb as usize] {
                        seen[nb as usize] = true;
                        stack.push(nb);
                    }
                }
            }
        }
        // parallel (from,to) pairs in both kinds count once for structure
        let mut undirected: std::collections::HashSet<(QNode, QNode)> =
            std::collections::HashSet::new();
        for e in &self.edges {
            let (a, b) = if e.from < e.to { (e.from, e.to) } else { (e.to, e.from) };
            undirected.insert((a, b));
        }
        undirected.len() + comps - n
    }

    /// True iff the undirected structure is complete.
    pub fn is_clique(&self) -> bool {
        let n = self.num_nodes();
        if n < 2 {
            return false;
        }
        let mut undirected: std::collections::HashSet<(QNode, QNode)> =
            std::collections::HashSet::new();
        for e in &self.edges {
            let (a, b) = if e.from < e.to { (e.from, e.to) } else { (e.to, e.from) };
            undirected.insert((a, b));
        }
        undirected.len() == n * (n - 1) / 2
    }

    /// Structural class (§7.1 grouping).
    pub fn class(&self) -> QueryClass {
        if self.is_clique() {
            QueryClass::Clique
        } else {
            match self.cycle_rank() {
                0 => QueryClass::Acyclic,
                1 | 2 => QueryClass::Cyclic,
                _ => QueryClass::Combo,
            }
        }
    }

    /// Count of reachability edges.
    pub fn reachability_edge_count(&self) -> usize {
        self.edges.iter().filter(|e| e.kind == EdgeKind::Reachability).count()
    }

    /// True iff `v` is reachable from `u` through pattern edges of any kind
    /// (used by §3 reduction).
    pub fn reaches(&self, u: QNode, v: QNode) -> bool {
        self.reaches_avoiding(u, v, None)
    }

    /// Like [`PatternQuery::reaches`] but ignoring edge `skip`.
    pub fn reaches_avoiding(&self, u: QNode, v: QNode, skip: Option<EdgeId>) -> bool {
        let mut seen = vec![false; self.num_nodes()];
        let mut stack = vec![u];
        seen[u as usize] = true;
        while let Some(q) = stack.pop() {
            for &eid in &self.out_adj[q as usize] {
                if Some(eid) == skip {
                    continue;
                }
                let t = self.edges[eid as usize].to;
                if t == v {
                    return true;
                }
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    stack.push(t);
                }
            }
        }
        false
    }
}

/// Builds the Fig. 2(a) example query: `A -> B` (direct), `A -> C`
/// (direct), `B => C` (reachability), labels A=0, B=1, C=2.
pub fn fig2_query() -> PatternQuery {
    let mut q = PatternQuery::new(vec![0, 1, 2]);
    q.add_edge(0, 1, EdgeKind::Direct);
    q.add_edge(0, 2, EdgeKind::Direct);
    q.add_edge(1, 2, EdgeKind::Reachability);
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_query_shape() {
        let q = fig2_query();
        assert_eq!(q.num_nodes(), 3);
        assert_eq!(q.num_edges(), 3);
        assert_eq!(q.reachability_edge_count(), 1);
        assert!(q.is_connected());
        assert!(q.is_dag());
        assert_eq!(q.class(), QueryClass::Clique); // triangle is complete
    }

    #[test]
    fn duplicate_edges_rejected() {
        let mut q = PatternQuery::new(vec![0, 1]);
        let e1 = q.try_add_edge(0, 1, EdgeKind::Direct).unwrap();
        let dup = q.try_add_edge(0, 1, EdgeKind::Direct);
        assert!(matches!(dup, Err(PatternError::DuplicateEdge { .. })), "{dup:?}");
        assert_eq!(q.num_edges(), 1);
        // ensure_edge keeps the old dedup semantics
        assert_eq!(q.ensure_edge(0, 1, EdgeKind::Direct), e1);
        assert_eq!(q.num_edges(), 1);
        // parallel edge of a different kind is a distinct constraint
        q.add_edge(0, 1, EdgeKind::Reachability);
        assert_eq!(q.num_edges(), 2);
    }

    #[test]
    fn try_add_edge_errors() {
        let mut q = PatternQuery::new(vec![0, 1]);
        assert!(matches!(
            q.try_add_edge(0, 7, EdgeKind::Direct),
            Err(PatternError::NodeOutOfRange { node: 7, num_nodes: 2 })
        ));
        assert!(matches!(
            q.try_add_edge(1, 1, EdgeKind::Direct),
            Err(PatternError::SelfLoop { node: 1 })
        ));
        // errors leave the pattern untouched
        assert_eq!(q.num_edges(), 0);
        for err in [
            PatternError::NodeOutOfRange { node: 7, num_nodes: 2 },
            PatternError::SelfLoop { node: 1 },
            PatternError::DuplicateEdge {
                edge: PatternEdge { from: 0, to: 1, kind: EdgeKind::Direct },
            },
        ] {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn canonical_sorts_edges_but_keeps_nodes() {
        let mut a = PatternQuery::new(vec![0, 1, 2]);
        a.add_edge(1, 2, EdgeKind::Reachability);
        a.add_edge(0, 1, EdgeKind::Direct);
        a.add_edge(0, 2, EdgeKind::Direct);
        let mut b = PatternQuery::new(vec![0, 1, 2]);
        b.add_edge(0, 1, EdgeKind::Direct);
        b.add_edge(0, 2, EdgeKind::Direct);
        b.add_edge(1, 2, EdgeKind::Reachability);
        assert_ne!(a, b); // edge order differs
        assert_eq!(a.canonical(), b.canonical());
        // a parallel pair sorts Direct before Reachability
        let mut c = PatternQuery::new(vec![0, 1]);
        c.add_edge(0, 1, EdgeKind::Reachability);
        c.add_edge(0, 1, EdgeKind::Direct);
        assert_eq!(c.canonical().edge(0).kind, EdgeKind::Direct);
    }

    #[test]
    fn classes() {
        // path = acyclic
        let mut p = PatternQuery::new(vec![0, 0, 0]);
        p.add_edge(0, 1, EdgeKind::Direct);
        p.add_edge(1, 2, EdgeKind::Direct);
        assert_eq!(p.class(), QueryClass::Acyclic);
        // diamond = 1 cycle
        let mut d = PatternQuery::new(vec![0; 4]);
        d.add_edge(0, 1, EdgeKind::Direct);
        d.add_edge(0, 2, EdgeKind::Direct);
        d.add_edge(1, 3, EdgeKind::Direct);
        d.add_edge(2, 3, EdgeKind::Direct);
        assert_eq!(d.class(), QueryClass::Cyclic);
        // 4-clique
        let mut k = PatternQuery::new(vec![0; 4]);
        for i in 0..4u32 {
            for j in (i + 1)..4u32 {
                k.add_edge(i, j, EdgeKind::Direct);
            }
        }
        assert_eq!(k.class(), QueryClass::Clique);
        // combo: 4-cycle graph with two chords = 3 independent cycles
        let mut c = PatternQuery::new(vec![0; 5]);
        c.add_edge(0, 1, EdgeKind::Direct);
        c.add_edge(1, 2, EdgeKind::Direct);
        c.add_edge(2, 3, EdgeKind::Direct);
        c.add_edge(3, 4, EdgeKind::Direct);
        c.add_edge(0, 4, EdgeKind::Direct);
        c.add_edge(0, 2, EdgeKind::Direct);
        c.add_edge(0, 3, EdgeKind::Direct);
        assert_eq!(c.cycle_rank(), 3);
        assert_eq!(c.class(), QueryClass::Combo);
    }

    #[test]
    fn topological_order_and_cycles() {
        let q = fig2_query();
        let topo = q.topological_order().unwrap();
        let pos: Vec<usize> = (0..3).map(|v| topo.iter().position(|&x| x == v).unwrap()).collect();
        assert!(pos[0] < pos[1] && pos[0] < pos[2] && pos[1] < pos[2]);

        let mut cyc = PatternQuery::new(vec![0, 0]);
        cyc.add_edge(0, 1, EdgeKind::Direct);
        cyc.add_edge(1, 0, EdgeKind::Direct);
        assert!(cyc.topological_order().is_none());
        assert!(!cyc.is_dag());
    }

    #[test]
    fn dag_decomposition_breaks_cycles() {
        let mut q = PatternQuery::new(vec![0; 4]);
        q.add_edge(0, 1, EdgeKind::Direct);
        q.add_edge(1, 2, EdgeKind::Reachability);
        q.add_edge(2, 0, EdgeKind::Direct); // back edge
        q.add_edge(2, 3, EdgeKind::Direct);
        let (dag, back) = q.dag_decomposition();
        assert_eq!(dag.len() + back.len(), q.num_edges());
        assert!(!back.is_empty());
        let dag_query = q.with_edges(&dag);
        assert!(dag_query.is_dag());
    }

    #[test]
    fn dag_decomposition_of_dag_is_identity() {
        let q = fig2_query();
        let (dag, back) = q.dag_decomposition();
        assert_eq!(dag.len(), 3);
        assert!(back.is_empty());
    }

    #[test]
    fn reaches_avoiding() {
        let q = fig2_query();
        assert!(q.reaches(0, 2));
        // removing the direct edge A->C still leaves A->B=>C
        assert!(q.reaches_avoiding(0, 2, Some(1)));
        // removing A->B cuts A from B
        assert!(!q.reaches_avoiding(0, 1, Some(0)));
    }

    #[test]
    fn degree_and_neighbors() {
        let q = fig2_query();
        assert_eq!(q.degree(0), 2);
        assert_eq!(q.degree(2), 2);
        let nbs: Vec<QNode> = q.neighbors(1).map(|(n, _, _)| n).collect();
        assert!(nbs.contains(&0) && nbs.contains(&2));
    }

    #[test]
    #[should_panic]
    fn self_loop_panics() {
        let mut q = PatternQuery::new(vec![0]);
        q.add_edge(0, 0, EdgeKind::Direct);
    }
}
