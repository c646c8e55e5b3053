//! The Runtime Index Graph (RIG) and `BuildRIG` (§4 of the paper).
//!
//! A RIG of query `Q` over graph `G` is a k-partite graph with one
//! independent node set `cos(q)` per query node (`os(q) ⊆ cos(q) ⊆ ms(q)`)
//! and, per query edge `(p, q)`, a set of edges from `cos(p)` to `cos(q)`
//! sandwiched the same way (Def. 4.1). It losslessly summarizes every
//! homomorphism from `Q` to `G` (Prop. 4.1) and is the search space MJoin
//! enumerates over.
//!
//! [`build_rig`] implements Alg. 4: a **node selection** phase (double
//! simulation seeded from the cheaper pre-filter, or either alone for the
//! GM-S / GM-F ablations of Fig. 13) and a **node expansion** phase that
//! materializes RIG adjacency — direct query edges via `adjf(v) ∩ cos(q)`
//! intersections, reachability edges via one condensation sweep per query
//! edge (not the paper's per-pair BFL probes, `docs/rig-layout.md`).
//!
//! ## Storage layout
//!
//! Candidates and adjacency live in a **CSR layout over dense
//! candidate-local ids** (see `docs/rig-layout.md`): each `cos(q)` keeps a
//! sorted id array (`local id` = index into it, the rank dictionary), and
//! each query edge stores one offset array plus a concatenated arena of
//! sorted local-id runs per direction. A reachability edge stores one run
//! per SCC rather than per node (sources in one SCC have the same
//! successors, targets in one SCC the same predecessors), with a map from
//! each node to its run. Long runs additionally materialize a local-id
//! bitmap row for O(1) membership probes. The backward direction is derived
//! from the forward one by a counting-sort transpose. MJoin's multiway
//! intersections operate directly on these runs ([`AdjRun`]) without
//! allocating.
//!
//! The previous hashmap-of-bitsets representation survives as
//! [`reference::RefRig`] — the differential-testing and benchmark baseline.

pub mod reference;

use std::time::{Duration, Instant};

use rig_bitset::Bitset;
use rig_graph::{Deadline, NodeId};
use rig_query::{EdgeId, EdgeKind};
use rig_reach::{BflIndex, GroupedRuns};
use rig_sim::{double_simulation, double_simulation_seeded, prefilter, SimContext, SimOptions};

/// Node-selection strategy (which Fig. 13 variant to build).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectMode {
    /// GM: pre-filter, then double simulation seeded from its output.
    PrefilterThenSim,
    /// GM-S: double simulation only.
    SimOnly,
    /// GM-F: pre-filter only (no simulation).
    PrefilterOnly,
    /// Match RIG: raw label match sets (the largest valid RIG, Fig. 2(d)).
    MatchSets,
}

/// Options for [`build_rig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RigOptions {
    pub select: SelectMode,
    pub sim: SimOptions,
}

impl Default for RigOptions {
    fn default() -> Self {
        RigOptions { select: SelectMode::PrefilterThenSim, sim: SimOptions::paper_default() }
    }
}

impl RigOptions {
    /// Exact-simulation configuration (fixpoint, no pass cap).
    pub fn exact() -> Self {
        RigOptions { sim: SimOptions::exact(), ..Default::default() }
    }
}

/// Phase timings and sizes reported by Fig. 13.
#[derive(Debug, Clone, Default)]
pub struct RigStats {
    pub select_time: Duration,
    pub expand_time: Duration,
    /// Σ |cos(q)| over query nodes.
    pub node_count: u64,
    /// Σ |cos(e)| over query edges.
    pub edge_count: u64,
    /// Simulation passes run during selection.
    pub sim_passes: usize,
    /// Data nodes pruned out of the match sets during selection (pre-filter
    /// prunes plus simulation prunes).
    pub pruned: u64,
    /// The construction deadline ([`SimContext::deadline`]) expired during
    /// expansion: the RIG is an empty shell and must be reported as a
    /// timeout, not an empty answer.
    pub timed_out: bool,
}

impl RigStats {
    /// Total RIG size (nodes + edges), the numerator of the Fig. 13(a) ratio.
    pub fn size(&self) -> u64 {
        self.node_count + self.edge_count
    }
}

/// Runs at least this long also materialize a dense bitmap row.
const DENSE_MIN_RUN: usize = 64;
const NO_DENSE: u32 = u32::MAX;

/// One adjacency run of the RIG: the (sorted) local-id neighbor list of one
/// candidate across one query edge, plus an optional dense bitmap over the
/// target side's local-id space for O(1) probes. Copyable view — the MJoin
/// hot loop passes these around by value without touching the heap.
#[derive(Debug, Clone, Copy)]
pub struct AdjRun<'a> {
    /// Sorted local ids of the neighbors on the target side.
    pub list: &'a [u32],
    dense: Option<&'a [u64]>,
}

impl<'a> AdjRun<'a> {
    /// Empty run (used for out-of-range sources).
    pub const EMPTY: AdjRun<'static> = AdjRun { list: &[], dense: None };

    #[inline]
    pub fn len(&self) -> usize {
        self.list.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Membership probe: O(1) against the dense row when present, binary
    /// search in the sorted run otherwise.
    #[inline]
    pub fn contains(&self, local: u32) -> bool {
        match self.dense {
            Some(words) => (words[(local >> 6) as usize] >> (local & 63)) & 1 == 1,
            None => self.list.binary_search(&local).is_ok(),
        }
    }

    /// Monotone membership probe for ascending query sequences: `cursor`
    /// persists between calls and the sparse path gallops forward from it
    /// (exponential search), so probing a whole ascending driver run costs
    /// O(len) total instead of O(len · log len).
    #[inline]
    pub fn contains_from(&self, cursor: &mut usize, local: u32) -> bool {
        if let Some(words) = self.dense {
            return (words[(local >> 6) as usize] >> (local & 63)) & 1 == 1;
        }
        let list = self.list;
        let mut lo = *cursor;
        if lo >= list.len() {
            return false;
        }
        if list[lo] >= local {
            return list[lo] == local;
        }
        // gallop: find a bound with list[lo + bound] >= local
        let mut bound = 1usize;
        while lo + bound < list.len() && list[lo + bound] < local {
            bound <<= 1;
        }
        lo += bound >> 1; // last position known to be < local
        let hi = (*cursor + bound + 1).min(list.len());
        match list[lo..hi].binary_search(&local) {
            Ok(p) => {
                *cursor = lo + p;
                true
            }
            Err(p) => {
                *cursor = lo + p;
                false
            }
        }
    }
}

/// One direction of one query edge's adjacency in CSR form over local ids.
///
/// Sources with the same neighbour set can share one stored run: on a
/// reachability edge, every source in one SCC has the same successors and
/// every target in one SCC the same predecessors. `run_of` maps each
/// source to its run; when it is empty, run `s` belongs to source `s`.
#[derive(Debug, Default, Clone)]
struct CsrDir {
    /// `offsets[r]..offsets[r + 1]` delimits run `r` in `targets`.
    offsets: Vec<u32>,
    /// Concatenated sorted local-id runs.
    targets: Vec<u32>,
    /// Run index of each source; empty = the identity map.
    run_of: Vec<u32>,
    /// Logical adjacency entries: Σ over sources of their run's length.
    entries: u64,
    /// Per-run dense row index ([`NO_DENSE`] = sparse only); empty when
    /// no run qualified for a bitmap.
    dense_idx: Vec<u32>,
    /// Bitmap arena, `words_per_row` words per dense row.
    dense_words: Vec<u64>,
    words_per_row: usize,
}

impl CsrDir {
    /// `run_of` is empty when each source has a run of its own.
    fn new(offsets: Vec<u32>, targets: Vec<u32>, run_of: Vec<u32>, n_targets: usize) -> CsrDir {
        let entries = if run_of.is_empty() {
            targets.len() as u64
        } else {
            run_of.iter().map(|&r| (offsets[r as usize + 1] - offsets[r as usize]) as u64).sum()
        };
        let mut dir = CsrDir {
            offsets,
            targets,
            run_of,
            entries,
            dense_idx: Vec::new(),
            dense_words: Vec::new(),
            words_per_row: n_targets.div_ceil(64),
        };
        dir.build_dense_rows();
        dir
    }

    fn n_runs(&self) -> usize {
        self.offsets.len() - 1
    }

    fn n_sources(&self) -> usize {
        if self.run_of.is_empty() {
            self.n_runs()
        } else {
            self.run_of.len()
        }
    }

    #[inline]
    fn run_index(&self, s: usize) -> usize {
        if self.run_of.is_empty() {
            s
        } else {
            self.run_of[s] as usize
        }
    }

    #[inline]
    fn run_bounds(&self, r: usize) -> (usize, usize) {
        (self.offsets[r] as usize, self.offsets[r + 1] as usize)
    }

    /// A run qualifies for a dense row when it is long enough to amortize
    /// the bitmap and no sparser than two targets per word (so the bitmap
    /// costs at most half the run's own footprint).
    fn build_dense_rows(&mut self) {
        let wpr = self.words_per_row;
        if wpr == 0 {
            return;
        }
        let qualifies = |len: usize| len >= DENSE_MIN_RUN && len >= 2 * wpr;
        let mut rows = 0u32;
        for r in 0..self.n_runs() {
            let (lo, hi) = self.run_bounds(r);
            if qualifies(hi - lo) {
                rows += 1;
            }
        }
        if rows == 0 {
            return;
        }
        self.dense_idx = vec![NO_DENSE; self.n_runs()];
        self.dense_words = vec![0u64; rows as usize * wpr];
        let mut next = 0u32;
        for r in 0..self.n_runs() {
            let (lo, hi) = self.run_bounds(r);
            if !qualifies(hi - lo) {
                continue;
            }
            self.dense_idx[r] = next;
            let row = &mut self.dense_words[next as usize * wpr..][..wpr];
            for &t in &self.targets[lo..hi] {
                row[(t >> 6) as usize] |= 1 << (t & 63);
            }
            next += 1;
        }
    }

    #[inline]
    fn run(&self, s: u32) -> AdjRun<'_> {
        let r = self.run_index(s as usize);
        let (lo, hi) = self.run_bounds(r);
        let dense = match self.dense_idx.get(r) {
            Some(&ix) if ix != NO_DENSE => {
                Some(&self.dense_words[ix as usize * self.words_per_row..][..self.words_per_row])
            }
            _ => None,
        };
        AdjRun { list: &self.targets[lo..hi], dense }
    }

    /// Counting-sort transpose into the opposite direction, with one
    /// predecessor run per target group: `target_group[t]` is the group of
    /// target `t` (groups numbered in order of first appearance; empty =
    /// one group per target), and targets in one group must have the same
    /// sources. `n_targets` is the size of the target side. Because
    /// sources are scanned in ascending order, every transposed run comes
    /// out sorted without any comparison sort.
    fn transpose(&self, n_targets: usize, target_group: Vec<u32>) -> CsrDir {
        // The groups each forward run holds, as a CSR over runs: the run
        // itself when every target is its own group, else the runs
        // filtered to each group's first target.
        let grouped: (Vec<u32>, Vec<u32>);
        let (group_off, group_list, n_groups) = if target_group.is_empty() {
            (&self.offsets, &self.targets, n_targets)
        } else {
            let mut first = vec![false; n_targets];
            let mut n_groups = 0;
            for (t, &g) in target_group.iter().enumerate() {
                if g as usize == n_groups {
                    first[t] = true;
                    n_groups += 1;
                }
            }
            let mut off = Vec::with_capacity(self.n_runs() + 1);
            off.push(0u32);
            let mut list = Vec::new();
            for r in 0..self.n_runs() {
                let (lo, hi) = self.run_bounds(r);
                list.extend(
                    self.targets[lo..hi]
                        .iter()
                        .filter(|&&t| first[t as usize])
                        .map(|&t| target_group[t as usize]),
                );
                off.push(list.len() as u32);
            }
            grouped = (off, list);
            (&grouped.0, &grouped.1, n_groups)
        };
        let groups_of_run =
            |r: usize| &group_list[group_off[r] as usize..group_off[r + 1] as usize];

        let mut sources_per_run = vec![0usize; self.n_runs()];
        for s in 0..self.n_sources() {
            sources_per_run[self.run_index(s)] += 1;
        }
        let mut counts = vec![0usize; n_groups + 1];
        for (r, &m) in sources_per_run.iter().enumerate() {
            for &g in groups_of_run(r) {
                counts[g as usize + 1] += m;
            }
        }
        let mut offsets = Vec::with_capacity(n_groups + 1);
        let mut total = 0usize;
        for c in counts {
            total += c;
            push_offset(&mut offsets, total);
        }
        let mut cursor: Vec<u32> = offsets[..n_groups].to_vec();
        let mut out = vec![0u32; total];
        for s in 0..self.n_sources() {
            for &g in groups_of_run(self.run_index(s)) {
                out[cursor[g as usize] as usize] = s as u32;
                cursor[g as usize] += 1;
            }
        }
        CsrDir::new(offsets, out, target_group, self.n_sources())
    }

    fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * 4
            + self.targets.capacity() * 4
            + self.run_of.capacity() * 4
            + self.dense_idx.capacity() * 4
            + self.dense_words.capacity() * 8
    }
}

/// A materialized runtime index graph in CSR form.
pub struct Rig {
    /// Sorted candidate arrays per query node; local id = index. The sole
    /// stored representation of `cos(q)` — bitmap views are derived on
    /// demand by [`Rig::cos`].
    ids: Vec<Vec<NodeId>>,
    /// Per query edge: successor CSR, indexed by `from`-side local ids.
    fwd: Vec<CsrDir>,
    /// Per query edge: predecessor CSR (counting-sort transpose of `fwd`).
    bwd: Vec<CsrDir>,
    /// Per query edge: (from, to) query-node indexes.
    edge_nodes: Vec<(usize, usize)>,
    pub stats: RigStats,
}

impl Rig {
    /// Candidate occurrence set of query node `q`, materialized as a
    /// bitmap. Diagnostic / test accessor — production paths use the
    /// sorted [`Rig::candidates`] array, so the bitmap is not kept
    /// resident.
    pub fn cos(&self, q: usize) -> Bitset {
        Bitset::from_sorted_dedup(&self.ids[q])
    }

    /// Sorted candidate id array of query node `q`; the index of a node in
    /// this slice is its **local id**.
    #[inline]
    pub fn candidates(&self, q: usize) -> &[NodeId] {
        &self.ids[q]
    }

    /// Rank lookup: the local id of data node `v` within `cos(q)`.
    #[inline]
    pub fn local_of(&self, q: usize, v: NodeId) -> Option<u32> {
        self.ids[q].binary_search(&v).ok().map(|i| i as u32)
    }

    /// Successor run of local id `u_local` across query edge `eid`, in the
    /// target side's local-id space.
    #[inline]
    pub fn successors_local(&self, eid: EdgeId, u_local: u32) -> AdjRun<'_> {
        self.fwd[eid as usize].run(u_local)
    }

    /// Predecessor run of local id `v_local` across query edge `eid`, in
    /// the source side's local-id space.
    #[inline]
    pub fn predecessors_local(&self, eid: EdgeId, v_local: u32) -> AdjRun<'_> {
        self.bwd[eid as usize].run(v_local)
    }

    /// Index of the stored run that local id `local` reads across query
    /// edge `eid` (`fwd`: its successor run, else its predecessor run).
    /// Sources that share a run get the same index; on an edge with one
    /// run per source (direct edges, reachability over a DAG) the index is
    /// `local` itself. Indexes lie in `0..num_runs(eid, fwd)`.
    #[inline]
    pub fn run_id(&self, eid: EdgeId, local: u32, fwd: bool) -> u32 {
        self.dir(eid, fwd).run_index(local as usize) as u32
    }

    /// Number of stored runs of query edge `eid` in one direction. Less
    /// than the source side's candidate count iff some sources share a
    /// run.
    pub fn num_runs(&self, eid: EdgeId, fwd: bool) -> usize {
        self.dir(eid, fwd).n_runs()
    }

    #[inline]
    fn dir(&self, eid: EdgeId, fwd: bool) -> &CsrDir {
        if fwd {
            &self.fwd[eid as usize]
        } else {
            &self.bwd[eid as usize]
        }
    }

    /// Query-node endpoints `(from, to)` of query edge `eid`.
    #[inline]
    pub fn edge_endpoints(&self, eid: EdgeId) -> (usize, usize) {
        self.edge_nodes[eid as usize]
    }

    /// Successors of `u` across query edge `eid`, materialized as a bitmap
    /// of data-node ids (`None` if `u` is not a candidate or has none).
    /// Diagnostic / test accessor — the hot path uses
    /// [`Rig::successors_local`].
    pub fn successors(&self, eid: EdgeId, u: NodeId) -> Option<Bitset> {
        let (p, q) = self.edge_nodes[eid as usize];
        let run = self.fwd[eid as usize].run(self.local_of(p, u)?);
        self.materialize(q, run)
    }

    /// Predecessors of `v` across query edge `eid` (see [`Rig::successors`]).
    pub fn predecessors(&self, eid: EdgeId, v: NodeId) -> Option<Bitset> {
        let (p, q) = self.edge_nodes[eid as usize];
        let run = self.bwd[eid as usize].run(self.local_of(q, v)?);
        self.materialize(p, run)
    }

    fn materialize(&self, side: usize, run: AdjRun<'_>) -> Option<Bitset> {
        if run.is_empty() {
            return None;
        }
        let ids = &self.ids[side];
        let globals: Vec<NodeId> = run.list.iter().map(|&l| ids[l as usize]).collect();
        Some(Bitset::from_sorted_dedup(&globals))
    }

    /// True iff some candidate set is empty — the query answer is empty and
    /// enumeration can be skipped entirely.
    pub fn is_empty(&self) -> bool {
        self.ids.iter().any(|c| c.is_empty())
    }

    /// Number of query nodes this RIG indexes (one candidate array each).
    pub fn num_query_nodes(&self) -> usize {
        self.ids.len()
    }

    /// Number of query edges this RIG indexes (one CSR pair each).
    pub fn num_query_edges(&self) -> usize {
        self.fwd.len()
    }

    /// Candidate set cardinality of query node `q` (the statistic the JO
    /// search order greedily minimizes, §5.2).
    pub fn cos_len(&self, q: rig_query::QNode) -> u64 {
        self.ids[q as usize].len() as u64
    }

    /// Total RIG edge cardinality `|cos(e)|` across query edge `eid` (the
    /// `|R_j|` statistic of Thm. 5.1 and the BJ cost model). O(1) on the
    /// CSR layout.
    pub fn edge_cardinality(&self, eid: EdgeId) -> u64 {
        self.fwd[eid as usize].entries
    }

    /// RIG size / data graph size, as reported in Fig. 13(a).
    pub fn size_ratio(&self, g: &rig_graph::DataGraph) -> f64 {
        self.stats.size() as f64 / (g.num_nodes() + g.num_edges()) as f64
    }

    /// Approximate heap footprint (bytes), for memory accounting.
    pub fn heap_bytes(&self) -> usize {
        let ids: usize = self.ids.iter().map(|v| v.capacity() * 4).sum();
        let adj: usize =
            self.fwd.iter().chain(self.bwd.iter()).map(|d| d.heap_bytes()).sum::<usize>();
        ids + adj + self.edge_nodes.capacity() * std::mem::size_of::<(usize, usize)>()
    }
}

/// Builds a RIG for `ctx.query` on `ctx.graph` (Alg. 4).
///
/// Reachability edges expand by one sweep over [`SimContext::condensation`]
/// per query edge.
///
/// Both phases charge [`SimContext::deadline`] per unit of work; past it
/// the build returns an empty-shaped RIG with [`RigStats::timed_out`] set,
/// which callers must report as a timeout, never as an empty answer.
pub fn build_rig(ctx: &SimContext<'_>, opts: &RigOptions) -> Rig {
    // ---- node selection phase ----
    let select_start = Instant::now();
    let mut sim_passes = 0;
    let mut pruned = 0;
    let cos: Vec<Bitset> = match opts.select {
        SelectMode::MatchSets => ctx.match_sets(),
        SelectMode::PrefilterOnly => {
            let ms_total = match_set_total(ctx);
            let pf = prefilter(ctx);
            pruned = ms_total - total_len(&pf);
            pf
        }
        SelectMode::SimOnly => {
            let r = double_simulation(ctx, &opts.sim);
            sim_passes = r.passes;
            pruned = r.pruned;
            r.fb
        }
        SelectMode::PrefilterThenSim => {
            // The pre-filter is a cheap first pass; the simulation fixpoint
            // then *starts* from its output (rather than re-deriving its
            // prunes from the raw match sets), which preserves FB because
            // the prefilter output still sandwiches it.
            let ms_total = match_set_total(ctx);
            let pf = prefilter(ctx);
            let pf_pruned = ms_total - total_len(&pf);
            let r = double_simulation_seeded(ctx, &opts.sim, pf);
            sim_passes = r.passes;
            pruned = pf_pruned + r.pruned;
            r.fb
        }
    };
    let select_time = select_start.elapsed();
    let stats = RigStats { select_time, sim_passes, pruned, ..Default::default() };
    finish_rig(ctx, cos, stats)
}

/// Builds a RIG whose candidate sets are supplied by the caller (each must
/// sandwich `os(q) ⊆ cos[q] ⊆ ms(q)`), skipping the selection phase. Used
/// by engines with their own filtering front end (e.g. the RapidMatch
/// analogue's tree-restricted filter). Expansion reads neither an index
/// nor options, so `_bfl` and `_opts` are unused.
pub fn build_rig_from_candidates(
    ctx: &SimContext<'_>,
    _bfl: &BflIndex,
    _opts: &RigOptions,
    cos: Vec<Bitset>,
) -> Rig {
    assert_eq!(cos.len(), ctx.query.num_nodes(), "one candidate set per query node");
    finish_rig(ctx, cos, RigStats::default())
}

fn total_len(sets: &[Bitset]) -> u64 {
    sets.iter().map(|s| s.len()).sum()
}

fn match_set_total(ctx: &SimContext<'_>) -> u64 {
    ctx.query
        .labels()
        .iter()
        .map(|&l| {
            if (l as usize) < ctx.graph.num_labels() {
                ctx.graph.label_bitset(l).len()
            } else {
                0
            }
        })
        .sum()
}

/// Shared tail of RIG construction: the node expansion phase (§4.5) on a
/// fixed candidate selection.
fn finish_rig(ctx: &SimContext<'_>, cos: Vec<Bitset>, stats: RigStats) -> Rig {
    let nq = ctx.query.num_nodes();
    let ne = ctx.query.num_edges();
    let edge_nodes: Vec<(usize, usize)> = (0..ne)
        .map(|eid| {
            let e = ctx.query.edge(eid as EdgeId);
            (e.from as usize, e.to as usize)
        })
        .collect();

    // Empty candidate set => empty answer; skip expansion (§4.3).
    if cos.iter().any(|c| c.is_empty()) {
        return empty_shaped(nq, ne, edge_nodes, stats);
    }

    // The selection bitsets are decoded into the sorted candidate arrays
    // (the rank dictionaries) and dropped — the RIG keeps one candidate
    // representation, not two.
    let ids: Vec<Vec<NodeId>> = cos.iter().map(|c| c.to_vec()).collect();
    drop(cos);
    let mut rig =
        Rig { ids, fwd: Vec::with_capacity(ne), bwd: Vec::with_capacity(ne), edge_nodes, stats };

    // ---- node expansion phase ----
    let expand_start = Instant::now();
    match expand_all(ctx, &rig.ids, &rig.edge_nodes) {
        Some(blocks) => {
            for (fwd, bwd) in blocks {
                rig.fwd.push(fwd);
                rig.bwd.push(bwd);
            }
        }
        None => {
            // Deadline expired mid-expansion. A partial RIG is unusable
            // (enumeration needs every edge block), so hand back the empty
            // shell flagged as timed out.
            let mut stats = rig.stats;
            stats.expand_time = expand_start.elapsed();
            stats.timed_out = true;
            return empty_shaped(nq, ne, rig.edge_nodes, stats);
        }
    }
    rig.stats.expand_time = expand_start.elapsed();
    rig.stats.node_count = rig.ids.iter().map(|c| c.len() as u64).sum();
    rig.stats.edge_count = rig.fwd.iter().map(|d| d.entries).sum();
    rig
}

/// A RIG with the right per-node/per-edge shape but no candidates: what
/// both the empty-answer short-circuit and the deadline abort return.
fn empty_shaped(nq: usize, ne: usize, edge_nodes: Vec<(usize, usize)>, stats: RigStats) -> Rig {
    let mut rig = Rig {
        ids: vec![Vec::new(); nq],
        fwd: Vec::with_capacity(ne),
        bwd: Vec::with_capacity(ne),
        edge_nodes,
        stats,
    };
    for _ in 0..ne {
        rig.fwd.push(CsrDir::new(vec![0], Vec::new(), Vec::new(), 0));
        rig.bwd.push(CsrDir::new(vec![0], Vec::new(), Vec::new(), 0));
    }
    rig.stats.node_count = 0;
    rig.stats.edge_count = 0;
    rig
}

/// Expands every query edge into its (forward, backward) CSR block pair,
/// in edge-id order. Returns `None` when the context's deadline expired
/// mid-build.
fn expand_all(
    ctx: &SimContext<'_>,
    ids: &[Vec<NodeId>],
    edge_nodes: &[(usize, usize)],
) -> Option<Vec<(CsrDir, CsrDir)>> {
    let build_one = |(eid, &(p, q)): (usize, &(usize, usize))| {
        let x = expand_edge(ctx, ids, eid as EdgeId, p, q)?;
        let fwd = CsrDir::new(x.offsets, x.targets, x.run_of, ids[q].len());
        let bwd = fwd.transpose(ids[q].len(), x.target_group);
        Some((fwd, bwd))
    };
    edge_nodes.iter().enumerate().map(build_one).collect()
}

/// Expands one query edge into forward CSR runs (local target ids):
/// direct edges by adjacency intersection, reachability edges by one sweep
/// over [`SimContext::condensation`].
fn expand_edge(
    ctx: &SimContext<'_>,
    ids: &[Vec<NodeId>],
    eid: EdgeId,
    p: usize,
    q: usize,
) -> Option<GroupedRuns> {
    let dl = Deadline::new(ctx.deadline);
    match ctx.query.edge(eid).kind {
        EdgeKind::Direct => expand_direct(ctx, ids, p, q, dl),
        EdgeKind::Reachability => ctx.condensation().reach_runs(&ids[p], &ids[q], dl),
    }
}

/// Appends the next CSR offset, refusing to wrap: a single query edge is
/// limited to `u32::MAX` RIG adjacency entries (the data graph uses u64
/// offsets, so a pathological edge could exceed that — fail loudly rather
/// than corrupt run bounds).
#[inline]
fn push_offset(offsets: &mut Vec<u32>, targets_len: usize) {
    assert!(
        u32::try_from(targets_len).is_ok(),
        "query-edge adjacency exceeds u32::MAX entries ({targets_len}); CSR offsets would wrap"
    );
    offsets.push(targets_len as u32);
}

/// Direct-edge expansion: `adjf(u) ∩ cos(q)` per source, written straight
/// into the CSR arena as local ids (§4.5) — no per-source bitmaps, no
/// hash maps.
fn expand_direct(
    ctx: &SimContext<'_>,
    ids: &[Vec<NodeId>],
    p: usize,
    q: usize,
    mut dl: Deadline,
) -> Option<GroupedRuns> {
    let (src, tgt) = (&ids[p], &ids[q]);
    let mut offsets = Vec::with_capacity(src.len() + 1);
    offsets.push(0u32);
    let mut targets = Vec::new();
    for &u in src {
        if dl.charge() {
            return None;
        }
        intersect_to_locals(ctx.graph.out_neighbors(u), tgt, &mut targets);
        push_offset(&mut offsets, targets.len());
    }
    Some(GroupedRuns { offsets, targets, run_of: Vec::new(), target_group: Vec::new() })
}

/// Intersects two sorted id lists, emitting the *positions in `tgt`* (local
/// ids) of the common values. Gallops when the sizes are lopsided.
fn intersect_to_locals(nbrs: &[NodeId], tgt: &[NodeId], out: &mut Vec<u32>) {
    if nbrs.is_empty() || tgt.is_empty() {
        return;
    }
    if nbrs.len() * 16 < tgt.len() {
        for &v in nbrs {
            if let Ok(j) = tgt.binary_search(&v) {
                out.push(j as u32);
            }
        }
    } else if tgt.len() * 16 < nbrs.len() {
        for (j, t) in tgt.iter().enumerate() {
            if nbrs.binary_search(t).is_ok() {
                out.push(j as u32);
            }
        }
    } else {
        let (mut i, mut j) = (0, 0);
        while i < nbrs.len() && j < tgt.len() {
            match nbrs[i].cmp(&tgt[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(j as u32);
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rig_graph::{DataGraph, GraphBuilder};
    use rig_query::{fig2_query, EdgeKind, PatternQuery};

    /// Fig. 2(b) reconstruction (same node ids as rig-sim's tests).
    fn fig2_graph() -> DataGraph {
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

    fn build(g: &DataGraph, q: &PatternQuery, opts: &RigOptions) -> Rig {
        let bfl = BflIndex::new(g);
        let ctx = SimContext::new(g, q, &bfl);
        build_rig(&ctx, opts)
    }

    /// The refined RIG on the running example: candidate sets equal the FB
    /// sets; the reachability edge (B,C) keeps one redundant edge
    /// (b2 -> c0), the analogue of the paper's red dashed edge in Fig. 2(e).
    #[test]
    fn fig2_refined_rig() {
        let g = fig2_graph();
        let q = fig2_query();
        let rig = build(&g, &q, &RigOptions::exact());
        assert_eq!(rig.cos(0).to_vec(), vec![1, 2]); // {a1, a2}
        assert_eq!(rig.cos(1).to_vec(), vec![3, 5]); // {b0, b2}
        assert_eq!(rig.cos(2).to_vec(), vec![7, 9]); // {c0, c2}
                                                     // edge (A,B) direct
        assert_eq!(rig.successors(0, 1).unwrap().to_vec(), vec![3]);
        assert_eq!(rig.successors(0, 2).unwrap().to_vec(), vec![5]);
        // edge (A,C) direct
        assert_eq!(rig.successors(1, 1).unwrap().to_vec(), vec![7]);
        assert_eq!(rig.successors(1, 2).unwrap().to_vec(), vec![9]);
        // edge (B,C) reachability: b0 => {c0}; b2 => {c0 (redundant!), c2}
        assert_eq!(rig.successors(2, 3).unwrap().to_vec(), vec![7]);
        assert_eq!(rig.successors(2, 5).unwrap().to_vec(), vec![7, 9]);
        // backward adjacency mirrors forward
        assert_eq!(rig.predecessors(2, 7).unwrap().to_vec(), vec![3, 5]);
        assert_eq!(rig.predecessors(2, 9).unwrap().to_vec(), vec![5]);
        // stats
        assert_eq!(rig.stats.node_count, 6);
        assert_eq!(rig.stats.edge_count, 7);
        assert!(!rig.is_empty());
        assert!(rig.size_ratio(&g) > 0.0);
    }

    /// The CSR local-id dictionary round-trips and the local runs mirror
    /// the materialized accessors.
    #[test]
    fn local_id_dictionary_and_runs() {
        let g = fig2_graph();
        let q = fig2_query();
        let rig = build(&g, &q, &RigOptions::exact());
        assert_eq!(rig.candidates(1), &[3, 5]);
        assert_eq!(rig.local_of(1, 5), Some(1));
        assert_eq!(rig.local_of(1, 4), None);
        // edge (B,C): local run of b2 (local 1) = {c0, c2} = locals {0, 1}
        let run = rig.successors_local(2, 1);
        assert_eq!(run.list, &[0, 1]);
        assert!(run.contains(0) && run.contains(1) && !run.contains(2));
        let mut cursor = 0;
        assert!(run.contains_from(&mut cursor, 0));
        assert!(run.contains_from(&mut cursor, 1));
        assert!(!run.contains_from(&mut cursor, 7));
        // backward run of c0 (local 0) = {b0, b2} = locals {0, 1}
        assert_eq!(rig.predecessors_local(2, 0).list, &[0, 1]);
        assert_eq!(rig.edge_endpoints(2), (1, 2));
        assert_eq!(rig.edge_cardinality(2), 3);
        assert!(rig.heap_bytes() > 0);
    }

    /// Every select mode's RIG contains the refined RIG (supersets shrink
    /// monotonically).
    #[test]
    fn variants_are_supersets_of_refined_rig() {
        let g = fig2_graph();
        let q = fig2_query();
        let refined = build(&g, &q, &RigOptions::exact());
        for select in [SelectMode::MatchSets, SelectMode::PrefilterOnly, SelectMode::SimOnly] {
            let opts = RigOptions { select, ..RigOptions::exact() };
            let r = build(&g, &q, &opts);
            for i in 0..q.num_nodes() {
                assert!(
                    refined.cos(i).is_subset(&r.cos(i)),
                    "{select:?}: refined cos({i}) ⊄ variant"
                );
            }
            assert!(r.stats.size() >= refined.stats.size(), "{select:?}");
        }
    }

    #[test]
    fn empty_rig_early_exit() {
        // no c-labeled node reachable: answer empty
        let mut b = GraphBuilder::new();
        let a0 = b.add_node(0);
        let b0 = b.add_node(1);
        b.add_node(2); // isolated c
        b.add_edge(a0, b0);
        let g = b.build();
        let mut q = PatternQuery::new(vec![0, 1, 2]);
        q.add_edge(0, 1, EdgeKind::Direct);
        q.add_edge(1, 2, EdgeKind::Reachability);
        let rig = build(&g, &q, &RigOptions::exact());
        assert!(rig.is_empty());
        assert_eq!(rig.stats.node_count, 0);
        assert_eq!(rig.stats.edge_count, 0);
    }

    #[test]
    fn match_rig_is_largest() {
        let g = fig2_graph();
        let q = fig2_query();
        let m = build(&g, &q, &RigOptions { select: SelectMode::MatchSets, ..RigOptions::exact() });
        // match sets: 3 a's + 4 b's + 3 c's
        assert_eq!(m.stats.node_count, 10);
        // (A,B) matches: a1->b0, a2->b2, a0->b1 = 3 edges
        assert_eq!(m.edge_cardinality(0), 3);
    }

    #[test]
    fn paper_default_three_pass_cap_still_sound() {
        let g = fig2_graph();
        let q = fig2_query();
        let capped = build(&g, &q, &RigOptions::default());
        let exact = build(&g, &q, &RigOptions::exact());
        for i in 0..q.num_nodes() {
            assert!(exact.cos(i).is_subset(&capped.cos(i)));
        }
    }

    /// `build_rig_from_candidates` on the FB sets equals the refined RIG.
    #[test]
    fn candidates_entry_point_matches_full_build() {
        let g = fig2_graph();
        let q = fig2_query();
        let bfl = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &bfl);
        let full = build_rig(&ctx, &RigOptions::exact());
        let fb = rig_sim::double_simulation(&ctx, &SimOptions::exact()).fb;
        let seeded = build_rig_from_candidates(&ctx, &bfl, &RigOptions::exact(), fb);
        for i in 0..q.num_nodes() {
            assert_eq!(full.cos(i).to_vec(), seeded.cos(i).to_vec());
        }
        assert_eq!(full.stats.edge_count, seeded.stats.edge_count);
    }

    /// `A ⇝ B` over one SCC holding `n` a-nodes and `m` b-nodes in a ring.
    fn one_scc_rig(n: u32, m: u32) -> Rig {
        let mut b = GraphBuilder::new();
        for i in 0..n + m {
            b.add_node(u32::from(i >= n));
        }
        for i in 0..n + m {
            b.add_edge(i, (i + 1) % (n + m));
        }
        let g = b.build();
        let mut q = PatternQuery::new(vec![0, 1]);
        q.add_edge(0, 1, EdgeKind::Reachability);
        build(&g, &q, &RigOptions { select: SelectMode::MatchSets, ..RigOptions::exact() })
    }

    /// Sources in one SCC share one stored run, and so do targets: the
    /// arena grows with N + M while the logical size is N × M.
    #[test]
    fn one_scc_stores_one_run_per_direction() {
        for (n, m) in [(3u32, 5u32), (200, 300)] {
            let rig = one_scc_rig(n, m);
            assert_eq!((rig.fwd[0].n_runs(), rig.fwd[0].n_sources()), (1, n as usize));
            assert_eq!((rig.bwd[0].n_runs(), rig.bwd[0].n_sources()), (1, m as usize));
            assert_eq!((rig.num_runs(0, true), rig.num_runs(0, false)), (1, 1));
            assert!((0..n).all(|u| rig.run_id(0, u, true) == 0));
            assert!((0..m).all(|v| rig.run_id(0, v, false) == 0));
            assert_eq!(rig.fwd[0].targets.len(), m as usize);
            assert_eq!(rig.bwd[0].targets.len(), n as usize);
            assert_eq!(rig.edge_cardinality(0), u64::from(n * m));
            assert_eq!(rig.stats.edge_count, u64::from(n * m));
            assert_eq!(rig.successors_local(0, n - 1).len(), m as usize);
            assert_eq!(rig.predecessors_local(0, m - 1).len(), n as usize);
            let bound = 32 * (n + m) as usize + 1024;
            assert!(rig.heap_bytes() < bound, "{} bytes for N={n} M={m}", rig.heap_bytes());
        }
    }

    /// On a DAG every component is trivial, so every source and every
    /// target keeps its own run (and no run map is stored).
    #[test]
    fn dag_keeps_one_run_per_source() {
        // a_i -> a_{i+1} and a_i -> b_i: a_i reaches b_i..b_{k-1}
        let k = 6;
        let mut b = GraphBuilder::new();
        for _ in 0..k {
            b.add_node(0);
        }
        for _ in 0..k {
            b.add_node(1);
        }
        for i in 0..k {
            if i + 1 < k {
                b.add_edge(i, i + 1);
            }
            b.add_edge(i, k + i);
        }
        let g = b.build();
        let mut q = PatternQuery::new(vec![0, 1]);
        q.add_edge(0, 1, EdgeKind::Reachability);
        let rig = build(&g, &q, &RigOptions::exact());
        for dir in [&rig.fwd[0], &rig.bwd[0]] {
            assert!(dir.run_of.is_empty());
            assert_eq!(dir.n_runs(), k as usize);
        }
        for fwd in [true, false] {
            assert_eq!(rig.num_runs(0, fwd), k as usize);
            assert!((0..k).all(|l| rig.run_id(0, l, fwd) == l));
        }
        assert_eq!(rig.successors_local(0, 2).list, &[2, 3, 4, 5]);
        assert_eq!(rig.predecessors_local(0, 2).list, &[0, 1, 2]);
        assert_eq!(rig.edge_cardinality(0), 21);
    }

    /// Dense bitmap rows kick in on long runs and agree with the sparse
    /// list.
    #[test]
    fn dense_rows_agree_with_sparse_runs() {
        // one a-node pointing at many b-nodes
        let mut b = GraphBuilder::new();
        let a0 = b.add_node(0);
        let mut bs = Vec::new();
        for _ in 0..500 {
            bs.push(b.add_node(1));
        }
        for &x in &bs {
            b.add_edge(a0, x);
        }
        let g = b.build();
        let mut q = PatternQuery::new(vec![0, 1]);
        q.add_edge(0, 1, EdgeKind::Direct);
        let rig = build(&g, &q, &RigOptions::exact());
        let run = rig.successors_local(0, 0);
        assert_eq!(run.len(), 500);
        assert!(run.dense.is_some(), "long run must carry a dense row");
        for l in 0..500u32 {
            assert!(run.contains(l));
            let mut cur = 0;
            assert!(run.contains_from(&mut cur, l));
        }
        assert!(!run.contains(500));
    }
}
