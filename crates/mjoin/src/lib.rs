//! MJoin — multiway-intersection answer enumeration (§5 of the paper).
//!
//! MJoin joins *one query node at a time* instead of one query edge at a
//! time: at search step `i` it intersects the candidate set `cos(q_i)` with
//! the RIG adjacency lists of every already-bound neighbor of `q_i`
//! (Alg. 5, lines 3–7), then iterates the surviving nodes. Because only
//! distinct join-key values are ever enumerated, no intermediate tuples are
//! materialized, giving the worst-case-optimal runtime of Thm. 5.2 and the
//! `O(n · MaxCos)` space bound of Thm. 5.1.
//!
//! The engine runs over the RIG's **CSR layout in candidate-local id
//! space** (see `rig_index`): every adjacency operand at step `i` is a
//! sorted slice of `cos(q_i)`-local ids, so the base candidate set never
//! needs to be intersected in (it is the full local range) and the
//! unconstrained root iterates `0..|cos(q_0)|` without cloning anything.
//! Multiway intersections pick the smallest operand as the driver and
//! probe the rest with galloping cursors (or O(1) dense-bitmap tests),
//! writing survivors into a per-depth scratch buffer that is reused across
//! steps — steady-state enumeration performs **zero heap allocations per
//! recursion step** (asserted by the `alloc_steady` test). A depth
//! recomputes its intersection only when its operand runs change: runs are
//! compared by address and length, and a reachability edge stores one run
//! per source SCC, so consecutive bindings often hand a step the same
//! runs. The last search step emits each full binding in place, and the
//! output tuple is kept in query-node order as nodes are bound, so an
//! emitted tuple costs one sink call (see `docs/rig-layout.md`).
//!
//! Whole search suffixes repeat for the same reason. [`Plan::new`] picks
//! a *memo split*: the deepest search position, at least two steps from
//! the end, below which the suffix reads from the position just before it
//! only shared runs (or nothing, when that position is a leaf). Each
//! worker records the suffix below the split once per distinct set of
//! input runs — per last-step call, the bindings of the suffix's other
//! nodes and the last step's candidates — and replays it, one counted
//! step, while the runs repeat. The recording lives in three arrays
//! reserved at Σᵢ|cos(q_i)| entries, so the Thm. 5.1 space bound and the
//! zero-allocation hot loop both still hold.
//!
//! The search order is pluggable (§5.2): [`SearchOrder::Jo`] (greedy on RIG
//! candidate cardinalities), [`SearchOrder::Ri`] (topology-only), and
//! [`SearchOrder::Bj`] (dynamic-programming optimal left-deep order, which
//! does not scale past ~16 nodes — Table 4 quantifies all three).
//!
//! An *injective* mode turns homomorphism enumeration into isomorphism-style
//! enumeration (the ISO comparison of Fig. 9).
//!
//! Results stream through a [`ResultSink`] (see [`sink`]) rather than being
//! materialized. The same engine core powers the **morsel-driven parallel**
//! entry point [`par_enumerate`] (see [`parallel`] and `docs/parallel.md`):
//! workers pull fixed-size morsels of the root candidate range off a shared
//! atomic cursor and share the `limit`/timeout budget through atomics, so
//! parallel runs honor both without falling back to the sequential engine.
//! With one thread, [`par_enumerate`] runs a single worker inline, exactly
//! like [`enumerate_sink`].
//!
//! This engine is the only producer of answer tuples. The [`factorized`]
//! DP answers counts and per-variable cardinalities over the same RIG but
//! never emits a tuple.

pub mod factorized;
pub(crate) mod order;
pub mod parallel;
pub mod reference;
pub mod sink;

pub use factorized::{DpCount, Factorization, FactorizationShape};
pub use order::{compute_order, edge_cardinality, is_connected_order, SearchOrder};
pub use parallel::{par_enumerate, ParOptions};
pub use sink::{BatchSink, CollectSink, CountSink, FirstKSink, FnSink, ResultSink};

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rig_graph::NodeId;
use rig_index::{AdjRun, Rig};
use rig_query::{PatternQuery, QNode};

/// Options for [`enumerate`].
#[derive(Debug, Clone, Copy)]
pub struct EnumOptions {
    pub order: SearchOrder,
    /// Stop after this many occurrences (the paper caps at 10^7).
    pub limit: Option<u64>,
    /// Wall-clock budget (the paper stops queries at 10 minutes).
    pub timeout: Option<Duration>,
    /// Enforce injectivity (isomorphism-style matching).
    pub injective: bool,
}

impl Default for EnumOptions {
    fn default() -> Self {
        EnumOptions { order: SearchOrder::Jo, limit: None, timeout: None, injective: false }
    }
}

impl EnumOptions {
    /// Same options stopping after `limit` occurrences.
    pub fn with_limit(self, limit: u64) -> Self {
        EnumOptions { limit: Some(limit), ..self }
    }

    /// Same options with a wall-clock budget.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        EnumOptions { timeout: Some(timeout), ..self }
    }
}

/// Outcome of an enumeration run.
#[derive(Debug, Clone)]
pub struct EnumResult {
    /// Occurrences produced (capped by `limit`).
    pub count: u64,
    /// True if the wall-clock budget expired before completion.
    pub timed_out: bool,
    /// True if the occurrence limit stopped the run.
    pub limit_hit: bool,
    /// The search order used.
    pub order: Vec<QNode>,
    /// Recursion steps taken (search-tree nodes visited). A replay of a
    /// recorded search suffix counts as one step.
    pub steps: u64,
}

impl EnumResult {
    /// An empty result carrying only the search order.
    pub fn empty(order: Vec<QNode>) -> EnumResult {
        EnumResult { count: 0, timed_out: false, limit_hit: false, order, steps: 0 }
    }

    /// Totals `other` into `self`: counts and steps add, **both** budget
    /// flags OR (a limit or timeout that stopped any worker stopped the
    /// run). This is the only correct way to combine per-worker results —
    /// dropping `limit_hit` here was a real bug in the pre-morsel
    /// partitioned driver.
    pub fn merge(&mut self, other: &EnumResult) {
        self.count += other.count;
        self.steps += other.steps;
        self.timed_out |= other.timed_out;
        self.limit_hit |= other.limit_hit;
    }
}

/// Enumerates the answer of `query` over the RIG, invoking `visit` with
/// each occurrence tuple **indexed by query node id** (not search
/// position). Returning `false` from `visit` stops the enumeration.
pub fn enumerate(
    query: &PatternQuery,
    rig: &Rig,
    opts: &EnumOptions,
    visit: impl FnMut(&[NodeId]) -> bool,
) -> EnumResult {
    enumerate_sink(query, rig, opts, &mut FnSink(visit))
}

/// Like [`enumerate`], but streams occurrences into a [`ResultSink`]
/// (`sink.finish()` is called when the run ends).
pub fn enumerate_sink<S: ResultSink>(
    query: &PatternQuery,
    rig: &Rig,
    opts: &EnumOptions,
    sink: &mut S,
) -> EnumResult {
    let plan = Plan::new(query, rig, opts);
    if rig.is_empty() || query.num_nodes() == 0 {
        sink.finish();
        return EnumResult::empty(plan.order);
    }
    let mut worker = Worker::new(rig, opts, &plan, None);
    worker.recurse(0, sink);
    sink.finish();
    worker.result
}

/// Counts occurrences (no per-tuple callback overhead beyond counting).
pub fn count(query: &PatternQuery, rig: &Rig, opts: &EnumOptions) -> EnumResult {
    enumerate(query, rig, opts, |_| true)
}

/// Collects up to `max` occurrence tuples (indexed by query node).
pub fn collect(
    query: &PatternQuery,
    rig: &Rig,
    opts: &EnumOptions,
    max: usize,
) -> (Vec<Vec<NodeId>>, EnumResult) {
    let mut out = Vec::new();
    let r = enumerate(query, rig, opts, |t| {
        if out.len() < max {
            out.push(t.to_vec());
        }
        out.len() < max
    });
    (out, r)
}

/// The query-shaped, RIG-independent-of-binding part of an enumeration:
/// the search order plus, per search step, the edges connecting that step
/// to earlier-bound query nodes, and the suffix memo's split. Computed once
/// and shared (read-only) by every worker of a parallel run.
pub struct Plan {
    /// The search order: position `i` binds query node `order[i]`.
    pub order: Vec<QNode>,
    /// Per step `i`: `(edge id, bound search position, bound_is_source)`.
    constraints: Vec<Vec<(u32, usize, bool)>>,
    /// See [`Plan::memo_split`].
    memo_split: Option<usize>,
    /// The constraints of the steps from the memo split on that read a
    /// position before it: the runs that key the memo.
    memo_inputs: Vec<(u32, usize, bool)>,
}

impl Plan {
    /// Orders `query` over `rig` with `opts.order` and picks the memo
    /// split. Injective runs get none: their candidates also depend on the
    /// nodes bound earlier, which the memo's key does not capture.
    pub fn new(query: &PatternQuery, rig: &Rig, opts: &EnumOptions) -> Plan {
        let order = compute_order(query, rig, opts.order);
        let n = order.len();
        let mut pos_of = vec![usize::MAX; n];
        for (i, &q) in order.iter().enumerate() {
            pos_of[q as usize] = i;
        }
        let mut constraints: Vec<Vec<(u32, usize, bool)>> = vec![Vec::new(); n];
        for (eid, e) in query.edges().iter().enumerate() {
            let pf = pos_of[e.from as usize];
            let pt = pos_of[e.to as usize];
            if pf < pt {
                // `from` bound first: at step pt, follow successors of t[pf]
                constraints[pt].push((eid as u32, pf, true));
            } else {
                // `to` bound first: at step pf, follow predecessors of t[pt]
                constraints[pf].push((eid as u32, pt, false));
            }
        }
        // The deepest split whose suffix (the steps from it to the last)
        // has at least two steps and reads, from the position just before
        // it, only shared runs (fewer stored runs than sources): within one
        // binding of the earlier positions, the suffix's input runs then
        // repeat.
        let shared = |&(eid, pos, fwd): &(u32, usize, bool)| {
            (rig.num_runs(eid, fwd) as u64) < rig.cos_len(order[pos])
        };
        let inputs = |s: usize| constraints[s..].iter().flatten().filter(move |c| c.1 < s);
        let deepest = if opts.injective { 0 } else { n.saturating_sub(2) };
        let memo_split = (1..=deepest).rev().find(|&s| inputs(s).all(|c| c.1 + 1 < s || shared(c)));
        let memo_inputs = memo_split.map_or(Vec::new(), |s| inputs(s).copied().collect());
        Plan { order, constraints, memo_split, memo_inputs }
    }

    /// The memo split `s`: while the runs the search steps from `s` on read
    /// from positions before `s` repeat, MJoin replays the suffix it
    /// recorded instead of searching it again. `None` when no split
    /// qualifies; the suffix is the query nodes `order[s..]`.
    pub fn memo_split(&self) -> Option<usize> {
        self.memo_split
    }
}

/// Budget and work-distribution state shared by all workers of one
/// parallel run. Everything is lock-free: morsel claims and match
/// reservations are single `fetch_add`s, termination is a flag every
/// worker polls once per recursion step.
pub(crate) struct SharedState {
    /// Next unclaimed root-candidate position (the morsel cursor).
    /// Work-stealing degenerates to contention on this one counter: a fast
    /// worker simply claims more morsels than a slow one.
    pub(crate) cursor: AtomicUsize,
    /// Set on any terminal condition (limit reached, timeout, sink stop);
    /// all workers observe it within one recursion step.
    pub(crate) stop: AtomicBool,
    /// Match reservations when a limit is set: a worker may emit the n-th
    /// match iff `n <= limit`, so exactly `limit` matches are emitted
    /// across all workers.
    emitted: AtomicU64,
    pub(crate) timed_out: AtomicBool,
    pub(crate) limit_hit: AtomicBool,
    /// One deadline for the whole run (same wall clock for every worker).
    deadline: Option<Instant>,
}

impl SharedState {
    pub(crate) fn new(opts: &EnumOptions) -> SharedState {
        SharedState {
            cursor: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            emitted: AtomicU64::new(0),
            timed_out: AtomicBool::new(false),
            limit_hit: AtomicBool::new(false),
            deadline: opts.timeout.map(|t| Instant::now() + t),
        }
    }
}

/// Identity of one operand run: its address and length. Two runs with the
/// same key are the same slice of the RIG, so they have the same contents.
type RunKey = (*const u32, usize);

fn run_key(run: &AdjRun<'_>) -> RunKey {
    (run.list.as_ptr(), run.list.len())
}

/// Reusable per-depth scratch (allocated once per worker).
struct Step<'r> {
    /// Query node bound at this depth.
    q: usize,
    /// `cos(q)`: local id `k` is data node `cos[k]`.
    cos: &'r [NodeId],
    /// Operand runs gathered for the current binding of earlier nodes, in
    /// constraint order until [`Worker::intersect_into`] moves the driver
    /// to the front.
    ops: Vec<AdjRun<'r>>,
    /// Keys of the operand runs whose intersection `buf` holds, in
    /// constraint order (empty until the first intersection). When the next
    /// binding gathers runs with the same keys, `buf` is reused as is.
    buf_key: Vec<RunKey>,
    /// Galloping cursors, parallel to `ops`.
    cursors: Vec<usize>,
    /// Materialized intersection (local ids); capacity = `|cos(q)|`.
    buf: Vec<u32>,
}

impl Step<'_> {
    /// True iff `buf` already holds the intersection of the runs in `ops`:
    /// they are, operand for operand, the runs it was computed from.
    fn buf_is_current(&self) -> bool {
        self.buf_key.len() == self.ops.len()
            && self.ops.iter().zip(&self.buf_key).all(|(run, key)| run_key(run) == *key)
    }
}

/// The last step's candidates in one recorded call of the suffix memo.
#[derive(Clone, Copy)]
enum Cands<'r> {
    /// The full local range `0..|cos(q)|` (an unconstrained step).
    Full,
    /// One operand's RIG run, borrowed.
    Run(&'r [u32]),
    /// An intersection copied into `SuffixMemo::arena[start..end]`.
    Arena(usize, usize),
}

/// Where a [`SuffixMemo`]'s recording stands.
#[derive(Default, Clone, Copy, PartialEq)]
enum MemoState {
    /// Nothing replayable: never recorded, or the recording was dropped.
    #[default]
    Empty,
    /// The search below the split is being recorded.
    Recording,
    /// The recording is complete and belongs to `key`.
    Complete,
}

/// A worker's record of the search below the memo split, kept for the
/// last input runs it was searched under. Each recorded call of the last
/// step stores the bindings of the suffix's other positions and the last
/// step's candidates; replaying them emits exactly what searching again
/// would, in the same order, because every operand of the suffix is either
/// an input run (in the key) or read from a recorded binding.
#[derive(Default)]
struct SuffixMemo<'r> {
    /// Entries each array may hold: Σ|cos(q_i)|, reserved once.
    cap: usize,
    /// Keys of the input runs gathered at the split's latest visit.
    probe: Vec<RunKey>,
    /// Keys of the input runs the recording was made under.
    key: Vec<RunKey>,
    state: MemoState,
    /// Data nodes bound at the positions between the split and the last
    /// step, one group per recorded call.
    binds: Vec<NodeId>,
    /// The last step's candidates, one per recorded call.
    cands: Vec<Cands<'r>>,
    /// Intersections copied from the last step's buffer.
    arena: Vec<u32>,
    /// The arena span that holds the last step's current buffer, if this
    /// recording copied it since it was last recomputed.
    buf_span: Option<(usize, usize)>,
}

/// One enumeration worker: all per-run mutable state (per-depth scratch,
/// tuple buffers, budget counters). Sequential enumeration is a single
/// worker driven from the root; parallel enumeration is `threads` workers
/// pulling root morsels off a [`SharedState`] cursor, each reusing its own
/// scratch across morsels (zero steady-state allocations per step, same as
/// the sequential hot loop).
pub(crate) struct Worker<'a, 'r> {
    rig: &'r Rig,
    opts: &'a EnumOptions,
    plan: &'a Plan,
    steps: Vec<Step<'r>>,
    /// Local id bound at each search position (read by later constraints).
    tuple_local: Vec<u32>,
    /// The occurrence in query-node order, written as each node is bound
    /// and handed to the sink as is.
    out_tuple: Vec<NodeId>,
    deadline: Option<Instant>,
    check_counter: u32,
    shared: Option<&'a SharedState>,
    memo: SuffixMemo<'r>,
    pub(crate) result: EnumResult,
}

impl<'a, 'r> Worker<'a, 'r> {
    pub(crate) fn new(
        rig: &'r Rig,
        opts: &'a EnumOptions,
        plan: &'a Plan,
        shared: Option<&'a SharedState>,
    ) -> Worker<'a, 'r> {
        let n = plan.order.len();
        // Every buffer is sized for the worst case up front (|cos(q_i)|
        // bounds any intersection at step i — the Thm. 5.1 space bound), so
        // steady-state recursion never reallocates.
        let steps: Vec<Step<'r>> = plan
            .order
            .iter()
            .enumerate()
            .map(|(i, &q)| {
                let cos = rig.candidates(q as usize);
                let n_ops = plan.constraints[i].len();
                Step {
                    q: q as usize,
                    cos,
                    ops: Vec::with_capacity(n_ops),
                    buf_key: Vec::with_capacity(n_ops),
                    cursors: Vec::with_capacity(n_ops),
                    buf: Vec::with_capacity(cos.len()),
                }
            })
            .collect();
        let deadline = match shared {
            Some(sh) => sh.deadline,
            None => opts.timeout.map(|t| Instant::now() + t),
        };
        // The memo's arrays get Σ|cos(q_i)| entries each, so it stays
        // within the Thm. 5.1 space bound and never reallocates.
        let memo = match plan.memo_split {
            Some(_) => {
                let cap = steps.iter().map(|st| st.cos.len()).sum();
                let n_inputs = plan.memo_inputs.len();
                SuffixMemo {
                    cap,
                    probe: Vec::with_capacity(n_inputs),
                    key: Vec::with_capacity(n_inputs),
                    binds: Vec::with_capacity(cap),
                    cands: Vec::with_capacity(cap),
                    arena: Vec::with_capacity(cap),
                    ..SuffixMemo::default()
                }
            }
            None => SuffixMemo::default(),
        };
        Worker {
            rig,
            opts,
            plan,
            steps,
            tuple_local: vec![0; n],
            out_tuple: vec![0; n],
            deadline,
            check_counter: 0,
            shared,
            memo,
            result: EnumResult::empty(plan.order.clone()),
        }
    }

    /// Terminal-condition poll, run once per recursion step.
    fn stopped(&mut self) -> bool {
        if self.result.timed_out || self.result.limit_hit {
            return true;
        }
        if let Some(sh) = self.shared {
            if sh.stop.load(Ordering::Relaxed) {
                return true;
            }
        } else if let Some(limit) = self.opts.limit {
            if self.result.count >= limit {
                self.result.limit_hit = true;
                return true;
            }
        }
        self.check_counter += 1;
        if self.check_counter >= 1024 {
            self.check_counter = 0;
            if self.deadline_expired() {
                return true;
            }
        }
        false
    }

    /// Checks the wall-clock deadline, recording (and broadcasting) the
    /// timeout when it has passed.
    fn deadline_expired(&mut self) -> bool {
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                self.result.timed_out = true;
                if let Some(sh) = self.shared {
                    sh.timed_out.store(true, Ordering::Relaxed);
                    sh.stop.store(true, Ordering::Relaxed);
                }
                return true;
            }
        }
        false
    }

    /// Emits the current full binding (`out_tuple`). Returns `false` when
    /// the enumeration must stop (limit reached or sink asked to stop).
    fn emit<S: ResultSink>(&mut self, sink: &mut S) -> bool {
        let Some(sh) = self.shared else {
            self.result.count += 1;
            let keep = sink.push(&self.out_tuple);
            if let Some(limit) = self.opts.limit {
                if self.result.count >= limit {
                    self.result.limit_hit = true;
                    return false;
                }
            }
            return keep;
        };
        match self.opts.limit {
            None => {
                self.result.count += 1;
                let keep = sink.push(&self.out_tuple);
                if !keep {
                    sh.stop.store(true, Ordering::Relaxed);
                }
                keep
            }
            Some(limit) => {
                // Reserve a slot before emitting: the n-th reservation may
                // be emitted iff n <= limit, so the k workers collectively
                // emit exactly `limit` matches, never more.
                let prev = sh.emitted.fetch_add(1, Ordering::Relaxed);
                if prev >= limit {
                    sh.limit_hit.store(true, Ordering::Relaxed);
                    sh.stop.store(true, Ordering::Relaxed);
                    return false;
                }
                self.result.count += 1;
                let keep = sink.push(&self.out_tuple);
                if prev + 1 == limit {
                    self.result.limit_hit = true;
                    sh.limit_hit.store(true, Ordering::Relaxed);
                    sh.stop.store(true, Ordering::Relaxed);
                    return false;
                }
                if !keep {
                    sh.stop.store(true, Ordering::Relaxed);
                }
                keep
            }
        }
    }

    /// Morsel loop of one parallel worker: claim `[lo, lo + morsel)` root
    /// positions off the shared cursor, run the ordinary backtracking
    /// search under each claimed root binding, repeat until the cursor is
    /// exhausted or the run stops. Load balancing is automatic — cursor
    /// contention *is* the work-stealing protocol. A worker without shared
    /// state owns the whole root range and runs the sequential search.
    pub(crate) fn run_morsels<S: ResultSink>(&mut self, sink: &mut S, morsel: usize) {
        let Some(sh) = self.shared else {
            self.recurse(0, sink);
            sink.finish();
            return;
        };
        debug_assert!(
            self.plan.constraints[0].is_empty(),
            "the first search-order node has no earlier-bound constraints"
        );
        // An already-expired (e.g. zero) budget stops the worker before it
        // claims any work.
        if self.deadline_expired() {
            sink.finish();
            return;
        }
        let (q_root, cos_root) = (self.steps[0].q, self.steps[0].cos);
        let n_root = cos_root.len();
        let morsel = morsel.max(1);
        'claim: while !sh.stop.load(Ordering::Relaxed) {
            let lo = sh.cursor.fetch_add(morsel, Ordering::Relaxed);
            if lo >= n_root {
                break;
            }
            let hi = (lo + morsel).min(n_root);
            self.result.steps += 1; // root-level step, one per claimed morsel
            for (k, &v) in (lo..).zip(&cos_root[lo..hi]) {
                self.tuple_local[0] = k as u32;
                self.out_tuple[q_root] = v;
                if !self.recurse(1, sink) {
                    break 'claim;
                }
            }
        }
        sink.finish();
    }

    /// Returns false when enumeration must stop entirely.
    fn recurse<S: ResultSink>(&mut self, i: usize, sink: &mut S) -> bool {
        if i == self.steps.len() {
            // only a one-node query's morsel root binding gets here; every
            // other full binding is emitted in place by the last step
            return self.emit(sink);
        }
        if self.stopped() {
            return false;
        }
        self.result.steps += 1;
        if self.plan.memo_split == Some(i) {
            return self.search_memoized(i, sink);
        }
        self.search(i, sink)
    }

    /// The run bound position `pos` reads across query edge `eid`.
    fn run(&self, eid: u32, pos: usize, bound_is_source: bool) -> AdjRun<'r> {
        let local = self.tuple_local[pos];
        if bound_is_source {
            self.rig.successors_local(eid, local)
        } else {
            self.rig.predecessors_local(eid, local)
        }
    }

    /// The search step at the memo split: replays the recording when the
    /// suffix's input runs are the ones it was made under, otherwise
    /// searches and records. A recording the search did not finish (a
    /// limit, timeout or sink stop) or that outgrew the arrays is dropped.
    fn search_memoized<S: ResultSink>(&mut self, i: usize, sink: &mut S) -> bool {
        let mut probe = std::mem::take(&mut self.memo.probe);
        probe.clear();
        let inputs = &self.plan.memo_inputs;
        probe.extend(inputs.iter().map(|&(eid, pos, src)| run_key(&self.run(eid, pos, src))));
        let memo = &mut self.memo;
        memo.probe = probe;
        if memo.state == MemoState::Complete && memo.probe == memo.key {
            return self.replay(i, sink);
        }
        std::mem::swap(&mut memo.probe, &mut memo.key);
        memo.binds.clear();
        memo.cands.clear();
        memo.arena.clear();
        memo.buf_span = None;
        memo.state = MemoState::Recording;
        let keep = self.search(i, sink);
        let memo = &mut self.memo;
        memo.state = match memo.state {
            MemoState::Recording if keep => MemoState::Complete,
            _ => MemoState::Empty,
        };
        keep
    }

    /// Emits the recorded suffix below split `s` through the last step's
    /// in-place loop, polling the deadline and the stop conditions once per
    /// recorded call.
    fn replay<S: ResultSink>(&mut self, s: usize, sink: &mut S) -> bool {
        if self.deadline_expired() {
            return false;
        }
        let last = self.steps.len() - 1;
        let memo = std::mem::take(&mut self.memo);
        let mut keep = true;
        let groups = memo.binds.chunks_exact(last - s);
        for (&cands, binds) in memo.cands.iter().zip(groups) {
            if self.stopped() {
                keep = false;
                break;
            }
            for (step, &v) in self.steps[s..last].iter().zip(binds) {
                self.out_tuple[step.q] = v;
            }
            keep = match cands {
                Cands::Full => self.bind_each(last, 0..self.steps[last].cos.len() as u32, sink),
                Cands::Run(list) => self.bind_each(last, list.iter().copied(), sink),
                Cands::Arena(lo, hi) => {
                    self.bind_each(last, memo.arena[lo..hi].iter().copied(), sink)
                }
            };
            if !keep {
                break;
            }
        }
        self.memo = memo;
        keep
    }

    /// Records one call of the last step into the memo: the bindings of
    /// the positions between the split and the last step, and `cands`.
    /// Stops the recording when an array would outgrow its reservation.
    fn record(&mut self, cands: Cands<'r>) {
        let Some(s) = self.plan.memo_split else { return };
        let last = self.steps.len() - 1;
        let memo = &mut self.memo;
        if memo.cands.len() == memo.cap || memo.binds.len() + (last - s) > memo.cap {
            memo.state = MemoState::Empty;
            return;
        }
        memo.binds.extend(self.steps[s..last].iter().map(|step| self.out_tuple[step.q]));
        memo.cands.push(cands);
    }

    /// Records a last-step call whose candidates are its buffer, copying
    /// the buffer into the arena once per recomputation (`fresh`).
    fn record_buf(&mut self, i: usize, fresh: bool) {
        let memo = &mut self.memo;
        let buf = &self.steps[i].buf;
        if fresh {
            memo.buf_span = None;
        }
        let span = match memo.buf_span {
            Some(span) => span,
            None if memo.arena.len() + buf.len() <= memo.cap => {
                let lo = memo.arena.len();
                memo.arena.extend_from_slice(buf);
                let span = (lo, memo.arena.len());
                memo.buf_span = Some(span);
                span
            }
            None => {
                memo.state = MemoState::Empty;
                return;
            }
        };
        self.record(Cands::Arena(span.0, span.1));
    }

    /// Searches step `i`: gathers its operand runs, computes its
    /// candidates and binds each. Returns false when enumeration must stop
    /// entirely.
    fn search<S: ResultSink>(&mut self, i: usize, sink: &mut S) -> bool {
        // Gather the adjacency runs of all bound neighbors (Alg. 5 lines
        // 4-7). All runs live in cos(q_i)-local id space, so cos(q_i)
        // itself never has to join the intersection.
        self.steps[i].ops.clear();
        for &(eid, bound_pos, bound_is_source) in &self.plan.constraints[i] {
            let run = self.run(eid, bound_pos, bound_is_source);
            if run.is_empty() {
                return true; // empty adjacency: dead branch
            }
            self.steps[i].ops.push(run);
        }

        // The candidates: the full local range (unconstrained), the one
        // operand's run in place, or the intersection in `buf`, which is
        // recomputed only when the operand runs differ from the ones it
        // was built from (shared runs make consecutive bindings repeat).
        // A recording memo notes each call of the last step.
        let record = self.memo.state == MemoState::Recording && i + 1 == self.steps.len();
        match self.steps[i].ops.len() {
            0 => {
                if record {
                    self.record(Cands::Full);
                }
                let n_local = self.steps[i].cos.len() as u32;
                self.bind_each(i, 0..n_local, sink)
            }
            1 => {
                let list = self.steps[i].ops[0].list;
                if record {
                    self.record(Cands::Run(list));
                }
                self.bind_each(i, list.iter().copied(), sink)
            }
            _ => {
                let fresh = !self.steps[i].buf_is_current();
                if fresh {
                    self.intersect_into(i);
                }
                if record {
                    self.record_buf(i, fresh);
                }
                // `buf` is lent out while deeper steps run; they only touch
                // their own depths, and `Vec::new` does not allocate
                let buf = std::mem::take(&mut self.steps[i].buf);
                let keep = self.bind_each(i, buf.iter().copied(), sink);
                self.steps[i].buf = buf;
                keep
            }
        }
    }

    /// Binds search position `i` to each candidate local id in turn. The
    /// last position emits each full binding in place; earlier ones
    /// recurse. Returns false when enumeration must stop entirely.
    fn bind_each<S: ResultSink>(
        &mut self,
        i: usize,
        candidates: impl Iterator<Item = u32>,
        sink: &mut S,
    ) -> bool {
        let (q, cos) = (self.steps[i].q, self.steps[i].cos);
        let last = i + 1 == self.steps.len();
        for v_local in candidates {
            let v_global = cos[v_local as usize];
            if self.opts.injective && self.bound_earlier(i, v_global) {
                continue;
            }
            self.out_tuple[q] = v_global;
            let keep = if last {
                self.emit(sink)
            } else {
                self.tuple_local[i] = v_local;
                self.recurse(i + 1, sink)
            };
            if !keep {
                return false;
            }
        }
        true
    }

    /// True iff data node `v` is already bound at a search position before
    /// `i` (the injectivity test).
    fn bound_earlier(&self, i: usize, v: NodeId) -> bool {
        self.plan.order[..i].iter().any(|&p| self.out_tuple[p as usize] == v)
    }

    /// Materializes the multiway intersection of `steps[i].ops` into
    /// `steps[i].buf` (smallest operand drives, the rest are probed with
    /// galloping cursors or dense-bitmap tests) and records the operands'
    /// keys. Allocation-free: the buffer, key and cursor vectors were
    /// pre-sized. Every operand is non-empty.
    fn intersect_into(&mut self, i: usize) {
        let step = &mut self.steps[i];
        step.buf_key.clear();
        step.buf_key.extend(step.ops.iter().map(run_key));
        step.buf.clear();
        // Cheap nonemptiness early exit: disjoint value ranges can never
        // intersect, so skip the probe loop entirely.
        let (mut driver_at, mut lo, mut hi) = (0, 0u32, u32::MAX);
        for (k, run) in step.ops.iter().enumerate() {
            if run.len() < step.ops[driver_at].len() {
                driver_at = k;
            }
            if let (Some(&first), Some(&last)) = (run.list.first(), run.list.last()) {
                lo = lo.max(first);
                hi = hi.min(last);
            }
        }
        if lo > hi {
            return;
        }
        step.ops.swap(0, driver_at);
        let driver = step.ops[0];
        step.cursors.clear();
        step.cursors.resize(step.ops.len(), 0);
        'outer: for &v in driver.list {
            for k in 1..step.ops.len() {
                if !step.ops[k].contains_from(&mut step.cursors[k], v) {
                    continue 'outer;
                }
            }
            step.buf.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rig_graph::{DataGraph, GraphBuilder};
    use rig_index::{build_rig, RigOptions};
    use rig_query::{fig2_query, EdgeKind, PatternQuery};
    use rig_reach::BflIndex;
    use rig_sim::SimContext;

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

    fn rig_for(g: &DataGraph, q: &PatternQuery) -> Rig {
        let bfl = BflIndex::new(g);
        let ctx = SimContext::new(g, q, &bfl);
        build_rig(&ctx, &bfl, &RigOptions::exact())
    }

    /// The running example answer: {(a1,b0,c0), (a2,b2,c2)} — and notably
    /// NOT (a2,b2,c0), whose RIG edge survives double simulation.
    #[test]
    fn fig2_answer_exact() {
        let g = fig2_graph();
        let q = fig2_query();
        let rig = rig_for(&g, &q);
        for order in [SearchOrder::Jo, SearchOrder::Ri, SearchOrder::Bj] {
            let (tuples, r) = collect(&q, &rig, &EnumOptions { order, ..Default::default() }, 100);
            let mut sorted = tuples.clone();
            sorted.sort();
            assert_eq!(sorted, vec![vec![1, 3, 7], vec![2, 5, 9]], "{order:?}");
            assert_eq!(r.count, 2);
            assert!(!r.timed_out && !r.limit_hit);
        }
    }

    #[test]
    fn limit_and_injective() {
        let g = fig2_graph();
        let q = fig2_query();
        let rig = rig_for(&g, &q);
        let r = count(&q, &rig, &EnumOptions { limit: Some(1), ..Default::default() });
        assert_eq!(r.count, 1);
        assert!(r.limit_hit);
        // all answers here are injective anyway
        let ri = count(&q, &rig, &EnumOptions { injective: true, ..Default::default() });
        assert_eq!(ri.count, 2);
    }

    /// Homomorphism vs isomorphism: a pattern with two same-label nodes can
    /// map both to one data node; injective mode must exclude that.
    #[test]
    fn injective_excludes_non_injective_matches() {
        let mut b = GraphBuilder::new();
        let x = b.add_node(0);
        let y = b.add_node(1);
        b.add_edge(x, y);
        let g = b.build();
        // pattern: two A-labeled nodes both with a direct edge to one B node
        let mut q = PatternQuery::new(vec![0, 0, 1]);
        q.add_edge(0, 2, EdgeKind::Direct);
        q.add_edge(1, 2, EdgeKind::Direct);
        let rig = rig_for(&g, &q);
        let homo = count(&q, &rig, &EnumOptions::default());
        assert_eq!(homo.count, 1); // both pattern A's -> x
        let iso = count(&q, &rig, &EnumOptions { injective: true, ..Default::default() });
        assert_eq!(iso.count, 0);
    }

    /// Cross-check MJoin against brute force on random instances.
    #[test]
    fn randomized_equivalence_with_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use rig_reach::Reachability;
        for seed in 0..15u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut b = GraphBuilder::new();
            let n = 12;
            for _ in 0..n {
                b.add_node(rng.gen_range(0..2));
            }
            for _ in 0..26 {
                let u = rng.gen_range(0..n) as NodeId;
                let v = rng.gen_range(0..n) as NodeId;
                if u != v {
                    b.add_edge(u, v);
                }
            }
            let g = b.build();
            let nq = rng.gen_range(2..4usize);
            let mut q = PatternQuery::new((0..nq).map(|_| rng.gen_range(0..2)).collect());
            for i in 1..nq as u32 {
                let kind =
                    if rng.gen_bool(0.5) { EdgeKind::Direct } else { EdgeKind::Reachability };
                q.add_edge(i - 1, i, kind);
            }
            if nq == 3 && rng.gen_bool(0.7) {
                q.add_edge(0, 2, EdgeKind::Reachability);
            }
            // brute force
            let bfl = BflIndex::new(&g);
            let mut expect = 0u64;
            let gv = g.num_nodes() as NodeId;
            let mut assign = vec![0 as NodeId; nq];
            #[allow(clippy::too_many_arguments)]
            fn rec(
                d: usize,
                nq: usize,
                gv: NodeId,
                g: &DataGraph,
                q: &PatternQuery,
                bfl: &BflIndex,
                assign: &mut Vec<NodeId>,
                count: &mut u64,
            ) {
                if d == nq {
                    *count += 1;
                    return;
                }
                for v in 0..gv {
                    if g.label(v) != q.label(d as u32) {
                        continue;
                    }
                    assign[d] = v;
                    let ok = q.edges().iter().all(|e| {
                        let (f, t) = (e.from as usize, e.to as usize);
                        if f > d || t > d {
                            return true;
                        }
                        match e.kind {
                            EdgeKind::Direct => g.has_edge(assign[f], assign[t]),
                            EdgeKind::Reachability => bfl.reaches(assign[f], assign[t]),
                        }
                    });
                    if ok {
                        rec(d + 1, nq, gv, g, q, bfl, assign, count);
                    }
                }
            }
            rec(0, nq, gv, &g, &q, &bfl, &mut assign, &mut expect);
            let rig = rig_for(&g, &q);
            for order in [SearchOrder::Jo, SearchOrder::Ri, SearchOrder::Bj] {
                let r = count_with(&q, &rig, order);
                assert_eq!(r.count, expect, "seed={seed} {order:?}");
            }
        }
    }

    fn count_with(q: &PatternQuery, rig: &Rig, order: SearchOrder) -> EnumResult {
        count(q, rig, &EnumOptions { order, ..Default::default() })
    }

    /// Tuples come out indexed by query node regardless of search order.
    #[test]
    fn tuple_indexing_is_by_query_node() {
        let g = fig2_graph();
        let q = fig2_query();
        let rig = rig_for(&g, &q);
        for order in [SearchOrder::Jo, SearchOrder::Ri] {
            let (tuples, _) = collect(&q, &rig, &EnumOptions { order, ..Default::default() }, 10);
            for t in &tuples {
                assert_eq!(g.label(t[0]), 0, "{order:?}"); // A slot holds an a-node
                assert_eq!(g.label(t[1]), 1);
                assert_eq!(g.label(t[2]), 2);
            }
        }
    }

    #[test]
    fn empty_rig_returns_zero() {
        let mut b = GraphBuilder::new();
        b.add_node(0);
        b.add_node(1);
        let g = b.build(); // no edges
        let mut q = PatternQuery::new(vec![0, 1]);
        q.add_edge(0, 1, EdgeKind::Direct);
        let rig = rig_for(&g, &q);
        let r = count(&q, &rig, &EnumOptions::default());
        assert_eq!(r.count, 0);
        assert_eq!(r.steps, 0);
    }

    /// The sink entry point streams the same answer the closure API does,
    /// and `finish` flushes batch tails.
    #[test]
    fn sink_entry_point_streams_batches() {
        let g = fig2_graph();
        let q = fig2_query();
        let rig = rig_for(&g, &q);
        let mut flat: Vec<NodeId> = Vec::new();
        let mut flushes = 0usize;
        {
            let mut sink = BatchSink::new(q.num_nodes(), 1, |b: &[NodeId], arity| {
                assert_eq!(arity, 3);
                flat.extend_from_slice(b);
                flushes += 1;
            });
            let r = enumerate_sink(&q, &rig, &EnumOptions::default(), &mut sink);
            assert_eq!(r.count, 2);
            assert_eq!(sink.pushed, 2);
        }
        assert_eq!(flushes, 2);
        let mut tuples: Vec<Vec<NodeId>> = flat.chunks(3).map(|c| c.to_vec()).collect();
        tuples.sort();
        assert_eq!(tuples, vec![vec![1, 3, 7], vec![2, 5, 9]]);
    }

    /// EnumResult::merge is total: counts/steps add, both flags OR.
    #[test]
    fn enum_result_merge_is_total() {
        let mut a = EnumResult {
            count: 3,
            timed_out: false,
            limit_hit: true,
            order: vec![0, 1],
            steps: 10,
        };
        let b =
            EnumResult { count: 4, timed_out: true, limit_hit: false, order: vec![0, 1], steps: 7 };
        a.merge(&b);
        assert_eq!(a.count, 7);
        assert_eq!(a.steps, 17);
        assert!(a.timed_out, "timed_out must survive the merge");
        assert!(a.limit_hit, "limit_hit must survive the merge");
    }
}
