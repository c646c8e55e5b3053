//! Factorized answers over the pruned RIG: DP counting and pushed-down
//! aggregates.
//!
//! The fully pruned RIG is a near-factorized representation of the answer
//! set: per query node a candidate array, per query edge a bipartite
//! adjacency between candidate arrays. Whenever the query is **tree
//! shaped** (undirected cycle rank 0), the answer set is *exactly* the set
//! of tuples consistent with every RIG edge, and its cardinality can be
//! computed by a bottom-up dynamic program over subtree counts — linear in
//! the stored adjacency runs plus the candidates, with no tuple
//! materialization. A reachability edge stores one run per source SCC, and
//! every DP loop sums or scans such a shared run once per pass, memoized
//! by its run index ([`Rig::run_id`]), not once per candidate reading it.
//!
//! Cyclic queries are handled by **conditional re-expansion**: a BFS
//! spanning tree of the query is computed, the non-tree ("cyclic") edges
//! are covered by a small conditioning set of query nodes, and the DP runs
//! once per consistent binding of the conditioning set. Fixing the
//! conditioned nodes turns every cyclic edge into either an O(1)
//! membership probe (both endpoints conditioned) or a unary filter on a
//! free node's candidates (one endpoint conditioned); the residual
//! constraint graph over the free nodes is a forest, so the tree DP
//! applies per binding and the grand total is the sum over bindings.
//!
//! Two aggregates share the machinery:
//! * [`Factorization::count`] — the exact occurrence count, pushed down
//!   into the DP, never touching a tuple;
//! * [`Factorization::var_cardinalities`] — per-variable distinct-binding
//!   counts via a top-down participation pass after each binding's DP.
//!
//! Both run the same conditioning loop: one dense pass over the free
//! forest, then per support-filtered conditioning binding one sparse pass
//! over the binding-dependent positions, with the deadline probed between
//! bindings.
//!
//! Tuples are never produced here: every answer tuple comes from the MJoin
//! engine ([`crate::enumerate_sink`], [`crate::par_enumerate`]).
//!
//! Counting arithmetic is u128 with saturation + an overflow flag:
//! zero/non-zero decisions (pruning) stay correct under saturation, while
//! [`DpCount::total`] reports `None` when the exact value would have
//! overflowed, letting callers fall back to enumeration.
//!
//! All scratch (count arrays, run memos, cursors, bindings) is allocated in
//! [`Factorization::new`]; the counting entry points are **allocation-free
//! in steady state** (see `tests/alloc_factorized.rs`).

use rig_index::{AdjRun, Rig};
use rig_query::{EdgeId, PatternQuery, QNode};

/// Conditioning cost guard: when a cyclic query's estimated re-expansion
/// work ([`Factorization::estimated_work`] — conditioning bindings times
/// per-binding width) exceeds this, per-binding re-expansion loses to the
/// enumeration engine's interleaved search and `count()` routes there
/// instead. The static analyzer predicts the same routing from label
/// counts.
pub const DP_CONDITIONING_LIMIT: u64 = 1 << 18;

/// Query-only shape analysis: a BFS spanning forest, the leftover cyclic
/// edges, and a greedy vertex cover of those edges (the conditioning set).
/// Deterministic in the query alone, so `explain` can report the shape
/// without building a RIG.
#[derive(Debug, Clone)]
pub struct FactorizationShape {
    /// Edges of the BFS spanning forest.
    pub tree_edges: Vec<EdgeId>,
    /// Non-tree ("cyclic") edges — empty iff the query is tree shaped.
    pub extra_edges: Vec<EdgeId>,
    /// Conditioning set: a greedy vertex cover of `extra_edges`. The DP
    /// re-expands once per consistent binding of these nodes.
    pub conditioned: Vec<QNode>,
}

impl FactorizationShape {
    /// Analyzes `query` (connected or not; a spanning forest is used).
    pub fn analyze(query: &PatternQuery) -> FactorizationShape {
        let n = query.num_nodes();
        let m = query.num_edges();
        let mut visited = vec![false; n];
        let mut in_tree = vec![false; m];
        let mut tree_edges = Vec::new();
        let mut queue = Vec::with_capacity(n);
        for start in 0..n {
            if visited[start] {
                continue;
            }
            visited[start] = true;
            queue.clear();
            queue.push(start as QNode);
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head];
                head += 1;
                for (v, e, _) in query.neighbors(u) {
                    if !visited[v as usize] {
                        visited[v as usize] = true;
                        in_tree[e as usize] = true;
                        tree_edges.push(e);
                        queue.push(v);
                    }
                }
            }
        }
        let extra_edges: Vec<EdgeId> = (0..m as EdgeId).filter(|&e| !in_tree[e as usize]).collect();

        // Greedy vertex cover of the cyclic edges: repeatedly take the
        // node covering the most still-uncovered edges (ties: smaller id).
        let mut covered = vec![false; extra_edges.len()];
        let mut conditioned = Vec::new();
        let mut is_cond = vec![false; n];
        loop {
            let mut best: Option<(usize, usize)> = None; // (coverage, node)
            for (q, &cond) in is_cond.iter().enumerate() {
                if cond {
                    continue;
                }
                let c = extra_edges
                    .iter()
                    .enumerate()
                    .filter(|&(i, &e)| {
                        let pe = query.edge(e);
                        !covered[i] && (pe.from as usize == q || pe.to as usize == q)
                    })
                    .count();
                if c > 0 && best.is_none_or(|(bc, _)| c > bc) {
                    best = Some((c, q));
                }
            }
            let Some((_, q)) = best else { break };
            is_cond[q] = true;
            conditioned.push(q as QNode);
            for (i, &e) in extra_edges.iter().enumerate() {
                let pe = query.edge(e);
                if pe.from as usize == q || pe.to as usize == q {
                    covered[i] = true;
                }
            }
        }
        FactorizationShape { tree_edges, extra_edges, conditioned }
    }

    /// True iff the query is tree shaped (pure DP, no re-expansion).
    pub fn is_tree(&self) -> bool {
        self.extra_edges.is_empty()
    }
}

/// One binary constraint anchored at an already-decided position: the
/// candidate under test must lie in the adjacency run of edge `eid`
/// expanded from position `pos`'s binding (`fwd` picks the direction the
/// run is read in — `true` expands successors, i.e. the anchor is the
/// edge's source).
///
/// The same struct encodes forest parent/child links, where the anchor of
/// a *child* link is the current node itself (see [`Factorization`]).
/// `shared` is set when some anchors of the link share one stored run, so
/// that a sum over a run is worth memoizing (see [`RunMemo`]).
#[derive(Debug, Clone, Copy)]
struct Check {
    eid: EdgeId,
    pos: usize,
    fwd: bool,
    shared: bool,
}

impl Check {
    fn new(rig: &Rig, eid: EdgeId, pos: usize, fwd: bool) -> Check {
        let (from, to) = rig.edge_endpoints(eid);
        let anchors = rig.candidates(if fwd { from } else { to }).len();
        Check { eid, pos, fwd, shared: rig.num_runs(eid, fwd) < anchors }
    }
}

/// Per-position memo over stored run ids: on a link that shares runs
/// (every source of one SCC reads the same reachability run), a DP sum
/// over a run is computed once per (pass, position) and looked up for
/// every later anchor reading the same run. An entry is valid when its
/// stamp equals `now`; [`RunMemo::renew`] invalidates all entries in O(1).
struct RunMemo {
    stamp: Vec<u32>,
    val: Vec<u128>,
    now: u32,
}

impl RunMemo {
    fn new(runs: usize) -> RunMemo {
        RunMemo { stamp: vec![0; runs], val: vec![0; runs], now: 0 }
    }

    /// Takes a fresh epoch, resetting the stamps on wraparound so a stale
    /// stamp can never collide with a live epoch.
    fn renew(&mut self) {
        if self.now == u32::MAX {
            self.now = 0;
            self.stamp.fill(0);
        }
        self.now += 1;
    }

    /// `f` of the run `link` reads from `anchor`: memoized by run id in
    /// this epoch when the link shares runs, computed directly otherwise.
    #[inline]
    fn run(
        &mut self,
        rig: &Rig,
        link: &Check,
        anchor: u32,
        f: impl FnOnce(&[u32]) -> u128,
    ) -> u128 {
        if !link.shared {
            return f(run_from(rig, link.eid, anchor, link.fwd).list);
        }
        let r = rig.run_id(link.eid, anchor, link.fwd) as usize;
        if self.stamp[r] != self.now {
            self.val[r] = f(run_from(rig, link.eid, anchor, link.fwd).list);
            self.stamp[r] = self.now;
        }
        self.val[r]
    }
}

/// Exact DP count. `total` is `None` when u128 arithmetic saturated —
/// callers should fall back to plain enumeration (which could never reach
/// such a count anyway) — or when the deadline expired (`timed_out` set;
/// a partial sum must never be mistaken for the answer). `assignments` is
/// the number of conditioning-set bindings the DP re-expanded over (1 for
/// tree-shaped queries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpCount {
    pub total: Option<u128>,
    pub assignments: u64,
    pub timed_out: bool,
}

#[inline]
fn sat_add(a: u128, b: u128, of: &mut bool) -> u128 {
    a.checked_add(b).unwrap_or_else(|| {
        *of = true;
        u128::MAX
    })
}

#[inline]
fn sat_mul(a: u128, b: u128, of: &mut bool) -> u128 {
    a.checked_mul(b).unwrap_or_else(|| {
        *of = true;
        u128::MAX
    })
}

/// Saturating sum of `counts` over the local ids in `list`.
#[inline]
fn sum_over(list: &[u32], counts: &[u128], of: &mut bool) -> u128 {
    let mut s = 0u128;
    for &c in list {
        s = sat_add(s, counts[c as usize], of);
    }
    s
}

#[inline]
fn run_from(rig: &Rig, eid: EdgeId, anchor: u32, fwd: bool) -> AdjRun<'_> {
    if fwd {
        rig.successors_local(eid, anchor)
    } else {
        rig.predecessors_local(eid, anchor)
    }
}

/// A compiled factorization of one query's answer set over one RIG.
///
/// Construction chooses a binding order — the conditioning set first, then
/// the free nodes in forest BFS order (parents before children) — and
/// classifies every query edge into exactly one role:
/// * both endpoints conditioned → membership probe during conditioning
///   enumeration (attached to the later position);
/// * one endpoint conditioned → unary filter on the free endpoint's
///   candidates, folded into its DP counts;
/// * both endpoints free → a forest parent/child link driving the DP.
///
/// Local ids are used throughout.
pub struct Factorization<'q, 'r> {
    query: &'q PatternQuery,
    rig: &'r Rig,
    shape: FactorizationShape,
    /// Binding order: position → query node.
    order: Vec<QNode>,
    /// Number of leading conditioned positions.
    s_len: usize,
    /// Per position: constraints against earlier positions (conditioned
    /// zone: all edges to earlier conditioned nodes; free zone: unary
    /// filters anchored at conditioned bindings).
    checks: Vec<Vec<Check>>,
    /// Free zone: the forest tree edge up to the parent position.
    parent: Vec<Option<Check>>,
    /// Free zone: forest tree edges down to child positions (anchor =
    /// self).
    children: Vec<Vec<Check>>,
    /// Free-zone component root positions.
    roots: Vec<usize>,
    /// DP scratch: per free position, one u128 per candidate.
    counts: Vec<Vec<u128>>,
    /// Free zone: position's count depends on the conditioning binding
    /// (an own S-anchored check, or any descendant's). Positions without
    /// this flag keep one binding-independent count for the whole run.
    s_dep: Vec<bool>,
    /// Sparse-DP scratch: per free S-dependent position, the epoch at
    /// which each candidate's count was last computed (stale = zero).
    stamp: Vec<Vec<u32>>,
    /// Sparse-DP scratch: candidates computed *nonzero* this epoch, in
    /// discovery order (capacity reserved up front — no steady-state
    /// growth).
    stamped: Vec<Vec<u32>>,
    epoch: u32,
    /// Per free position: run sums over its shared links (the parent link
    /// and its S-anchored checks), sized to their largest stored-run
    /// count; empty when no such link shares runs. A binding-independent
    /// position's entries stay valid from the dense pass through every
    /// sparse pass of one conditioning loop.
    memo: Vec<RunMemo>,
    /// Conditioned zone: per S position, a binding-independent candidate
    /// filter (`false` = provably contributes to no answer, skipped by
    /// the conditioning enumeration). All-true until
    /// [`Self::compute_support`] tightens it.
    s_support: Vec<Vec<bool>>,
    support_ready: bool,
    binding: Vec<u32>,
    cursors: Vec<usize>,
    started: bool,
    done: bool,
    /// Wall-clock cutoff for the aggregate conditioning loops (see
    /// [`Self::set_deadline`]).
    deadline: Option<std::time::Instant>,
}

impl<'q, 'r> Factorization<'q, 'r> {
    /// Compiles the factorization (all scratch allocated here; the
    /// aggregate entry points are steady-state allocation-free).
    pub fn new(query: &'q PatternQuery, rig: &'r Rig) -> Factorization<'q, 'r> {
        assert_eq!(rig.num_query_nodes(), query.num_nodes(), "RIG/query shape mismatch");
        assert_eq!(rig.num_query_edges(), query.num_edges(), "RIG/query shape mismatch");
        let n = query.num_nodes();
        let shape = FactorizationShape::analyze(query);
        let mut is_cond = vec![false; n];
        for &q in &shape.conditioned {
            is_cond[q as usize] = true;
        }
        let mut in_tree = vec![false; query.num_edges()];
        for &e in &shape.tree_edges {
            in_tree[e as usize] = true;
        }

        // Binding order. Conditioned zone: smallest candidate set first,
        // then prefer nodes adjacent to an already-placed conditioned node
        // (their runs drive the conditioning enumeration).
        let mut order: Vec<QNode> = Vec::with_capacity(n);
        let mut placed = vec![false; n];
        {
            let mut remaining = shape.conditioned.clone();
            remaining.sort_by_key(|&q| rig.cos_len(q));
            while !remaining.is_empty() {
                let idx = remaining
                    .iter()
                    .position(|&q| query.neighbors(q).any(|(v, _, _)| placed[v as usize]))
                    .unwrap_or(0);
                let q = remaining.remove(idx);
                placed[q as usize] = true;
                order.push(q);
            }
        }
        let s_len = order.len();

        // Free zone: BFS forest over the spanning-tree edges restricted to
        // free nodes; parents precede children in `order`.
        let mut pos_of = vec![usize::MAX; n];
        for (p, &q) in order.iter().enumerate() {
            pos_of[q as usize] = p;
        }
        let mut parent: Vec<Option<Check>> = vec![None; n];
        let mut children: Vec<Vec<Check>> = vec![Vec::new(); n];
        let mut roots = Vec::new();
        for root in 0..n {
            if placed[root] || is_cond[root] {
                continue;
            }
            placed[root] = true;
            pos_of[root] = order.len();
            roots.push(order.len());
            order.push(root as QNode);
            let mut head = pos_of[root];
            while head < order.len() {
                let u = order[head];
                let upos = head;
                head += 1;
                for (v, e, out) in query.neighbors(u) {
                    let vi = v as usize;
                    if in_tree[e as usize] && !is_cond[vi] && !placed[vi] {
                        placed[vi] = true;
                        pos_of[vi] = order.len();
                        parent[order.len()] = Some(Check::new(rig, e, upos, out));
                        children[upos].push(Check::new(rig, e, order.len(), out));
                        order.push(v);
                    }
                }
            }
        }
        debug_assert_eq!(order.len(), n);

        // Classify every query edge not already encoded as a forest link.
        let mut checks: Vec<Vec<Check>> = vec![Vec::new(); n];
        for (ei, pe) in query.edges().iter().enumerate() {
            let (pf, pt) = (pos_of[pe.from as usize], pos_of[pe.to as usize]);
            if pf < s_len || pt < s_len {
                // at least one conditioned endpoint: probe at the later
                // position, anchored at the earlier one
                let (late, early, fwd) = if pf < pt { (pt, pf, true) } else { (pf, pt, false) };
                checks[late].push(Check::new(rig, ei as EdgeId, early, fwd));
            } else {
                // both free: must be a forest parent/child link
                debug_assert!(
                    parent[pf.max(pt)].is_some_and(|c| c.eid == ei as EdgeId)
                        || parent[pf.min(pt)].is_some_and(|c| c.eid == ei as EdgeId),
                    "free-free edge not covered by the forest"
                );
            }
        }

        let counts: Vec<Vec<u128>> =
            order
                .iter()
                .enumerate()
                .map(|(p, &q)| {
                    if p < s_len {
                        Vec::new()
                    } else {
                        vec![0u128; rig.candidates(q as usize).len()]
                    }
                })
                .collect();

        // Conditioning dependence propagates from S-checked positions up
        // to their forest ancestors (children sit at later positions).
        let mut s_dep = vec![false; n];
        for pos in (s_len..n).rev() {
            s_dep[pos] = !checks[pos].is_empty() || children[pos].iter().any(|ch| s_dep[ch.pos]);
        }
        let stamp: Vec<Vec<u32>> = (0..n)
            .map(|p| if p >= s_len && s_dep[p] { vec![0u32; counts[p].len()] } else { Vec::new() })
            .collect();
        let stamped: Vec<Vec<u32>> = (0..n)
            .map(|p| {
                if p >= s_len && s_dep[p] {
                    Vec::with_capacity(counts[p].len())
                } else {
                    Vec::new()
                }
            })
            .collect();
        let memo: Vec<RunMemo> = (0..n)
            .map(|p| {
                let links = parent[p].iter().chain(if p >= s_len { &checks[p][..] } else { &[] });
                let runs = links.filter(|l| l.shared).map(|l| rig.num_runs(l.eid, l.fwd)).max();
                RunMemo::new(runs.unwrap_or(0))
            })
            .collect();
        let s_support: Vec<Vec<bool>> = (0..n)
            .map(|p| {
                if p < s_len {
                    vec![true; rig.candidates(order[p] as usize).len()]
                } else {
                    Vec::new()
                }
            })
            .collect();

        Factorization {
            query,
            rig,
            shape,
            order,
            s_len,
            checks,
            parent,
            children,
            roots,
            counts,
            s_dep,
            stamp,
            stamped,
            epoch: 0,
            memo,
            s_support,
            support_ready: false,
            binding: vec![0; n],
            cursors: vec![0; n],
            started: false,
            done: false,
            deadline: None,
        }
    }

    /// The binding order (conditioned nodes first, then the free forest).
    pub fn order(&self) -> &[QNode] {
        &self.order
    }

    /// The query this factorization was compiled from.
    pub fn query(&self) -> &PatternQuery {
        self.query
    }

    /// The query-only shape analysis this factorization compiled from.
    pub fn shape(&self) -> &FactorizationShape {
        &self.shape
    }

    /// True iff the query is tree shaped (single DP pass, no conditioning).
    pub fn is_tree(&self) -> bool {
        self.shape.is_tree()
    }

    /// Upper bound on the number of conditioning bindings the aggregate
    /// entry points may expand: the product of the conditioned
    /// candidate-set sizes (saturating). `1` for tree queries. Callers
    /// use this as a cost estimate to route between the DP and plain
    /// enumeration.
    pub fn conditioning_estimate(&self) -> u64 {
        let mut est = 1u64;
        for pos in 0..self.s_len {
            est = est.saturating_mul(self.cand_len(pos) as u64);
        }
        est
    }

    /// Crude cost model for the aggregate entry points: estimated
    /// conditioning bindings times the expected per-binding re-expansion
    /// width (one plus the mean generator-run length of every S-anchored
    /// free position). `1` for tree queries. Callers compare this against
    /// [`DP_CONDITIONING_LIMIT`] to route between the DP and plain
    /// enumeration.
    pub fn estimated_work(&self) -> u64 {
        let mut width = 1u64;
        for pos in self.s_len..self.order.len() {
            if let Some(first) = self.checks[pos].first() {
                let anchors = self.cand_len(first.pos).max(1) as u64;
                width = width.saturating_add(self.rig.edge_cardinality(first.eid) / anchors);
            }
        }
        self.conditioning_estimate().saturating_mul(width)
    }

    /// Rewinds the conditioning-binding enumeration.
    fn reset(&mut self) {
        self.started = false;
        self.done = false;
    }

    #[inline]
    fn cand_len(&self, pos: usize) -> usize {
        self.rig.candidates(self.order[pos] as usize).len()
    }

    /// Bottom-up subtree-count DP over the free forest **ignoring the
    /// S-anchored checks**, run once per aggregate call. For
    /// binding-independent positions this *is* their final count (no
    /// checks anywhere in their subtree) — for a tree query, every
    /// position; for binding-dependent positions it is an upper-bound
    /// "potential" — zero potential means zero under every conditioning
    /// binding, which [`Self::compute_support`] exploits to prune
    /// conditioning candidates up front. Saturating arithmetic; `of` is
    /// raised on overflow (zero/non-zero stays exact).
    fn potential_forest_dp(&mut self, of: &mut bool) {
        let n = self.order.len();
        let rig = self.rig;
        for pos in (self.s_len..n).rev() {
            let (head, tail) = self.counts.split_at_mut(pos + 1);
            let memo_tail = &mut self.memo[pos + 1..];
            let children = &self.children[pos];
            for ch in children {
                memo_tail[ch.pos - pos - 1].renew();
            }
            for (c, slot) in head[pos].iter_mut().enumerate() {
                let mut acc = 1u128;
                for ch in children {
                    let child_counts = &tail[ch.pos - pos - 1];
                    let s = memo_tail[ch.pos - pos - 1]
                        .run(rig, ch, c as u32, |list| sum_over(list, child_counts, of));
                    if s == 0 {
                        acc = 0;
                        break;
                    }
                    acc = sat_mul(acc, s, of);
                }
                *slot = acc;
            }
        }
    }

    /// Tightens the conditioning-candidate filter from the potentials of
    /// [`Self::potential_forest_dp`] (which must have just run): a
    /// conditioning candidate anchoring a free-zone check whose run holds
    /// no candidate with positive potential can never contribute, so the
    /// conditioning enumeration skips it. Binding-independent, hence
    /// computed once per factorization. A shared check run is scanned once,
    /// its verdict memoized by run id.
    fn compute_support(&mut self) {
        let n = self.order.len();
        for p in self.s_len..n {
            let memo = &mut self.memo[p];
            let potential = &self.counts[p];
            for ch in &self.checks[p] {
                memo.renew();
                for (x, live) in self.s_support[ch.pos].iter_mut().enumerate() {
                    if *live {
                        let any = memo.run(self.rig, ch, x as u32, |list| {
                            list.iter().any(|&c| potential[c as usize] > 0).into()
                        });
                        *live = any > 0;
                    }
                }
            }
        }
        self.support_ready = true;
    }

    /// Bumps the sparse-DP epoch, resetting the stamps on wraparound so a
    /// stale stamp can never collide with a live epoch.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.epoch = 0;
            for s in &mut self.stamp {
                s.fill(0);
            }
        }
        self.epoch += 1;
        self.epoch
    }

    /// Sparse per-conditioning-binding DP pass: recomputes only the
    /// binding-dependent positions, and within them only the candidates
    /// that can be nonzero under the current binding — drawn from the
    /// position's own S-anchored run when it has one, else from the
    /// reverse runs of a dependent child's nonzero candidates (everything
    /// else is zero by the product rule). Cost is proportional to the
    /// *live* part of the answer graph for this binding, not the RIG.
    /// Sums over a dependent child's shared runs are memoized per pass:
    /// the child's stamps and counts are fixed while this position is
    /// evaluated. A binding-independent child's memo carries over from the
    /// dense pass. Returns the product of the dependent component totals
    /// times `base_factor` (the precomputed product of independent
    /// component totals — see [`Self::base_factor`]).
    fn sparse_pass(&mut self, base_factor: u128, of: &mut bool) -> u128 {
        let e = self.next_epoch();
        let n = self.order.len();
        let rig = self.rig;
        for pos in (self.s_len..n).rev() {
            if !self.s_dep[pos] {
                continue;
            }
            let (c_head, c_tail) = self.counts.split_at_mut(pos + 1);
            let (s_head, s_tail) = self.stamp.split_at_mut(pos + 1);
            let (f_head, f_tail) = self.stamped.split_at_mut(pos + 1);
            let cur = &mut c_head[pos];
            let cur_stamp = &mut s_head[pos];
            let cur_stamped = &mut f_head[pos];
            cur_stamped.clear();
            let memo_tail = &mut self.memo[pos + 1..];
            let children = &self.children[pos];
            let s_dep = &self.s_dep;
            for ch in children.iter().filter(|ch| s_dep[ch.pos]) {
                memo_tail[ch.pos - pos - 1].renew();
            }
            // product of child-subtree sums for one candidate, reading
            // dependent children through this epoch's stamps
            let mut eval = |cand: u32, of: &mut bool| {
                let mut acc = 1u128;
                for ch in children {
                    let child_counts = &c_tail[ch.pos - pos - 1];
                    let memo = &mut memo_tail[ch.pos - pos - 1];
                    let s = if s_dep[ch.pos] {
                        let child_stamp = &s_tail[ch.pos - pos - 1];
                        memo.run(rig, ch, cand, |list| {
                            let mut s = 0u128;
                            for &c2 in list {
                                if child_stamp[c2 as usize] == e {
                                    s = sat_add(s, child_counts[c2 as usize], of);
                                }
                            }
                            s
                        })
                    } else {
                        memo.run(rig, ch, cand, |list| sum_over(list, child_counts, of))
                    };
                    if s == 0 {
                        return 0;
                    }
                    acc = sat_mul(acc, s, of);
                }
                acc
            };
            if let Some((first, rest)) = self.checks[pos].split_first() {
                // generator: this position's own S-anchored run
                let run = run_from(rig, first.eid, self.binding[first.pos], first.fwd);
                'cand: for &cand in run.list {
                    if cur_stamp[cand as usize] == e {
                        continue; // duplicate-free runs make this moot, but stay safe
                    }
                    cur_stamp[cand as usize] = e;
                    cur[cand as usize] = 0;
                    for ch in rest {
                        if !run_from(rig, ch.eid, self.binding[ch.pos], ch.fwd).contains(cand) {
                            continue 'cand;
                        }
                    }
                    let acc = eval(cand, of);
                    if acc > 0 {
                        cur[cand as usize] = acc;
                        cur_stamped.push(cand);
                    }
                }
                if cur_stamped.is_empty() {
                    // this subtree's sum is zero, which zeroes every
                    // ancestor factor and therefore the whole product
                    return 0;
                }
            } else {
                // frontier: parents of a dependent child's nonzero
                // candidates (any other candidate has a zero child factor).
                // `s_dep` marks a position without own checks only if it
                // has a dependent child; without one nothing would be live.
                let Some(ch) = self.children[pos].iter().find(|ch| self.s_dep[ch.pos]) else {
                    return 0;
                };
                let child_stamped = &f_tail[ch.pos - pos - 1];
                for &c2 in child_stamped {
                    let rrun = run_from(rig, ch.eid, c2, !ch.fwd);
                    for &cand in rrun.list {
                        if cur_stamp[cand as usize] == e {
                            continue;
                        }
                        cur_stamp[cand as usize] = e;
                        let acc = eval(cand, of);
                        cur[cand as usize] = acc;
                        if acc > 0 {
                            cur_stamped.push(cand);
                        }
                    }
                }
                if cur_stamped.is_empty() {
                    return 0;
                }
            }
        }
        let mut total = base_factor;
        for &r in &self.roots {
            if !self.s_dep[r] {
                continue;
            }
            let mut s = 0u128;
            for &cand in &self.stamped[r] {
                s = sat_add(s, self.counts[r][cand as usize], of);
            }
            if s == 0 {
                return 0;
            }
            total = sat_mul(total, s, of);
        }
        total
    }

    /// Product of the binding-independent component totals (after
    /// [`Self::potential_forest_dp`]); a zero here zeroes every
    /// conditioning binding's contribution at once. For a tree query this
    /// is the count.
    fn base_factor(&self, of: &mut bool) -> u128 {
        let mut total = 1u128;
        for &r in &self.roots {
            if self.s_dep[r] {
                continue;
            }
            let mut s = 0u128;
            for &v in &self.counts[r] {
                s = sat_add(s, v, of);
            }
            if s == 0 {
                return 0;
            }
            total = sat_mul(total, s, of);
        }
        total
    }

    /// Next candidate at conditioned position `pos`, advancing its cursor:
    /// a generator/probe intersection over the position's checks, pruned
    /// by the support filter.
    fn next_at(&mut self, pos: usize) -> Option<u32> {
        let clen = self.cand_len(pos);
        let use_gen = !self.checks[pos].is_empty();
        loop {
            let k = self.cursors[pos];
            self.cursors[pos] += 1;
            let cand = if use_gen {
                let g = self.checks[pos][0];
                let run = run_from(self.rig, g.eid, self.binding[g.pos], g.fwd);
                if k >= run.len() {
                    return None;
                }
                run.list[k]
            } else {
                if k >= clen {
                    return None;
                }
                k as u32
            };
            if !self.s_support[pos][cand as usize] {
                continue;
            }
            let rest = &self.checks[pos][if use_gen { 1 } else { 0 }..];
            if rest
                .iter()
                .all(|ch| run_from(self.rig, ch.eid, self.binding[ch.pos], ch.fwd).contains(cand))
            {
                return Some(cand);
            }
        }
    }

    /// Advances to the next consistent conditioning-set binding (positions
    /// `0..s_len`). Requires `s_len > 0`.
    fn next_s_assignment(&mut self) -> bool {
        let s = self.s_len;
        let mut pos;
        if !self.started {
            self.started = true;
            self.cursors[0] = 0;
            pos = 0;
        } else {
            if self.done {
                return false;
            }
            pos = s - 1;
        }
        loop {
            match self.next_at(pos) {
                Some(local) => {
                    self.binding[pos] = local;
                    pos += 1;
                    if pos == s {
                        return true;
                    }
                    self.cursors[pos] = 0;
                }
                None => {
                    if pos == 0 {
                        self.done = true;
                        return false;
                    }
                    pos -= 1;
                }
            }
        }
    }

    /// Sets a wall-clock cutoff for the conditioning loop of
    /// [`Self::count`] and [`Self::var_cardinalities`]. Past the deadline
    /// the count aborts with `timed_out` set and `total: None`, and the
    /// cardinalities return `None` — a partial result is never reported
    /// as the answer. MJoin enumeration is unaffected (it takes its own
    /// budget through `EnumOptions`).
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
    }

    /// True when the configured deadline has passed; probed every few
    /// conditioning assignments, so one clock read amortizes over many
    /// sparse passes.
    #[inline]
    fn past_deadline(&self, assignments: u64) -> bool {
        self.deadline
            .is_some_and(|d| assignments.is_multiple_of(16) && std::time::Instant::now() >= d)
    }

    /// The conditioning loop both aggregates share: the dense potential
    /// pass, then — for a cyclic query — one sparse pass per
    /// support-filtered conditioning binding, probing the deadline between
    /// bindings. `visit` runs after every binding whose count is positive
    /// (once for a tree query), while the DP scratch holds that binding's
    /// counts.
    fn condition(&mut self, mut visit: impl FnMut(&Self)) -> DpCount {
        if self.rig.is_empty() || self.order.is_empty() {
            return DpCount { total: Some(0), assignments: 0, timed_out: false };
        }
        let mut of = false;
        self.potential_forest_dp(&mut of);
        let base = self.base_factor(&mut of);
        let (mut grand, mut assignments, mut timed_out) = (0u128, 0u64, false);
        if self.s_len == 0 {
            (grand, assignments) = (base, 1);
            if base > 0 {
                visit(self);
            }
        } else if base > 0 {
            if !self.support_ready {
                self.compute_support();
            }
            self.reset();
            while self.next_s_assignment() {
                if self.past_deadline(assignments) {
                    timed_out = true;
                    break;
                }
                assignments += 1;
                let t = self.sparse_pass(base, &mut of);
                if t > 0 {
                    grand = sat_add(grand, t, &mut of);
                    visit(self);
                }
            }
        }
        DpCount { total: if of || timed_out { None } else { Some(grand) }, assignments, timed_out }
    }

    /// Exact occurrence count by DP — no tuple is ever materialized.
    pub fn count(&mut self) -> DpCount {
        self.condition(|_| {})
    }

    /// Per-variable distinct-binding cardinality: for each query node, the
    /// number of its RIG candidates that occur in at least one answer.
    /// Computed by a top-down participation pass per conditioning binding
    /// — still no tuple materialization. `None` when the deadline expired
    /// before every binding was visited.
    pub fn var_cardinalities(&mut self) -> Option<Vec<u64>> {
        let n = self.order.len();
        let mut part: Vec<Vec<bool>> = (0..n).map(|p| vec![false; self.cand_len(p)]).collect();
        let mut above: Vec<Vec<bool>> = (0..n).map(|p| vec![false; self.cand_len(p)]).collect();
        let mut seen: Vec<RunMemo> =
            self.memo.iter().map(|m| RunMemo::new(m.stamp.len())).collect();
        let dp = self.condition(|f| f.mark_participation(&mut part, &mut above, &mut seen));
        if dp.timed_out {
            return None;
        }
        let mut out = vec![0u64; n];
        for (pos, p) in part.iter().enumerate() {
            out[self.order[pos] as usize] = p.iter().filter(|&&b| b).count() as u64;
        }
        Some(out)
    }

    /// True iff free position `pos`'s candidate `c` has a positive count
    /// under the current binding. A binding-dependent position's count is
    /// live only when the current sparse pass stamped it.
    #[inline]
    fn positive(&self, pos: usize, c: usize) -> bool {
        self.counts[pos][c] > 0 && (!self.s_dep[pos] || self.stamp[pos][c] == self.epoch)
    }

    /// Marks, for the current (positive-total) conditioning binding, every
    /// candidate that participates in some answer: conditioned bindings
    /// directly, free candidates via a parents-first reachability pass
    /// over positive DP counts. Marking is idempotent, so a shared parent
    /// run is marked once per position (`seen` memoizes run ids).
    fn mark_participation(
        &self,
        part: &mut [Vec<bool>],
        above: &mut [Vec<bool>],
        seen: &mut [RunMemo],
    ) {
        let n = self.order.len();
        for pos in 0..self.s_len {
            part[pos][self.binding[pos] as usize] = true;
        }
        for pos in self.s_len..n {
            match self.parent[pos] {
                None => {
                    for (c, a) in above[pos].iter_mut().enumerate() {
                        *a = self.positive(pos, c);
                    }
                }
                Some(p) => {
                    for a in above[pos].iter_mut() {
                        *a = false;
                    }
                    let (pa, rest) = above.split_at_mut(pos);
                    let cur = &mut rest[0];
                    seen[pos].renew();
                    for (cp, &ok) in pa[p.pos].iter().enumerate() {
                        if !ok {
                            continue;
                        }
                        seen[pos].run(self.rig, &p, cp as u32, |list| {
                            for &c2 in list {
                                if self.positive(pos, c2 as usize) {
                                    cur[c2 as usize] = true;
                                }
                            }
                            0
                        });
                    }
                }
            }
            for (c, &a) in above[pos].iter().enumerate() {
                if a {
                    part[pos][c] = true;
                }
            }
        }
    }
}

impl std::fmt::Debug for Factorization<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Factorization")
            .field("order", &self.order)
            .field("conditioned", &self.shape.conditioned)
            .field("extra_edges", &self.shape.extra_edges)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{collect, count, EnumOptions};
    use rig_graph::GraphBuilder;
    use rig_index::{build_rig, RigOptions};
    use rig_query::EdgeKind;
    use rig_reach::BflIndex;
    use rig_sim::SimContext;

    fn rig_for(g: &rig_graph::DataGraph, q: &PatternQuery) -> Rig {
        let bfl = BflIndex::new(g);
        let ctx = SimContext::new(g, q, &bfl);
        build_rig(&ctx, &bfl, &RigOptions::default())
    }

    /// The Fig. 2(b)-style fixture used by the session tests: 3 As, 4 Bs,
    /// 3 Cs with a couple of A→B→C occurrences.
    fn fig2() -> rig_graph::DataGraph {
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
        for (u, v) in
            [(1, 3), (1, 7), (3, 8), (8, 7), (2, 5), (2, 9), (5, 9), (5, 8), (0, 4), (4, 7), (6, 0)]
        {
            b.add_edge(u, v);
        }
        b.build()
    }

    #[test]
    fn shape_analysis_tree_and_cyclic() {
        let mut q = PatternQuery::new(vec![0, 1, 2]);
        q.add_edge(0, 1, EdgeKind::Direct);
        q.add_edge(1, 2, EdgeKind::Direct);
        let s = FactorizationShape::analyze(&q);
        assert!(s.is_tree());
        assert!(s.conditioned.is_empty());

        q.add_edge(0, 2, EdgeKind::Direct); // triangle
        let s = FactorizationShape::analyze(&q);
        assert_eq!(s.extra_edges.len(), 1);
        assert_eq!(s.conditioned.len(), 1);
    }

    #[test]
    fn fig2_count_matches_mjoin() {
        let g = fig2();
        let q = rig_query::fig2_query();
        let rig = rig_for(&g, &q);
        let mjoin = count(&q, &rig, &EnumOptions::default());
        let mut f = Factorization::new(&q, &rig);
        let dp = f.count();
        assert_eq!(dp.total, Some(mjoin.count as u128));
    }

    #[test]
    fn tree_query_count_matches_collect() {
        let g = fig2();
        let mut q = PatternQuery::new(vec![0, 1, 2]);
        q.add_edge(0, 1, EdgeKind::Direct);
        q.add_edge(1, 2, EdgeKind::Reachability);
        let rig = rig_for(&g, &q);
        let (expect, _) = collect(&q, &rig, &EnumOptions::default(), usize::MAX);
        let mut f = Factorization::new(&q, &rig);
        assert!(f.is_tree());
        assert_eq!(f.count().total, Some(expect.len() as u128));
    }

    #[test]
    fn cyclic_query_count_matches_collect() {
        let mut b = GraphBuilder::new();
        for _ in 0..6 {
            b.add_node(0);
        }
        for (u, v) in [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (1, 4), (4, 5), (2, 5)] {
            b.add_edge(u, v);
        }
        let g = b.build();
        let mut q = PatternQuery::new(vec![0, 0, 0]);
        q.add_edge(0, 1, EdgeKind::Direct);
        q.add_edge(1, 2, EdgeKind::Direct);
        q.add_edge(0, 2, EdgeKind::Reachability); // cyclic chord
        let rig = rig_for(&g, &q);
        let (expect, _) = collect(&q, &rig, &EnumOptions::default(), usize::MAX);
        let mut f = Factorization::new(&q, &rig);
        assert!(!f.is_tree());
        assert_eq!(f.count().total, Some(expect.len() as u128));
    }

    /// The cardinalities run the count's conditioning loop, deadline
    /// included: a deadline that expires after the count truncates them,
    /// and the truncation is reported rather than partial cardinalities.
    #[test]
    fn cardinalities_honor_the_deadline() {
        let mut b = GraphBuilder::new();
        for _ in 0..6 {
            b.add_node(0);
        }
        for (u, v) in [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (1, 4), (4, 5), (2, 5)] {
            b.add_edge(u, v);
        }
        let g = b.build();
        let mut q = PatternQuery::new(vec![0, 0, 0]);
        q.add_edge(0, 1, EdgeKind::Direct);
        q.add_edge(1, 2, EdgeKind::Direct);
        q.add_edge(0, 2, EdgeKind::Reachability);
        let rig = rig_for(&g, &q);
        let mut f = Factorization::new(&q, &rig);
        assert!(!f.is_tree());
        let dp = f.count();
        assert!(!dp.timed_out && dp.total.is_some_and(|t| t > 0));
        f.set_deadline(Some(std::time::Instant::now()));
        assert_eq!(f.var_cardinalities(), None);
        assert!(f.count().timed_out);
        f.set_deadline(None);
        assert!(f.var_cardinalities().is_some());
    }

    #[test]
    fn var_cardinalities_match_enumeration() {
        let g = fig2();
        let q = rig_query::fig2_query();
        let rig = rig_for(&g, &q);
        let (tuples, _) = collect(&q, &rig, &EnumOptions::default(), usize::MAX);
        let mut f = Factorization::new(&q, &rig);
        let cards = f.var_cardinalities().expect("no deadline");
        for qn in 0..q.num_nodes() {
            let mut vals: Vec<_> = tuples.iter().map(|t| t[qn]).collect();
            vals.sort_unstable();
            vals.dedup();
            assert_eq!(cards[qn], vals.len() as u64, "var {qn}");
        }
    }
}
