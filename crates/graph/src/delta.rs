//! Delta-overlay storage for dynamic data graphs.
//!
//! The immutable CSR [`DataGraph`] is the **base segment**; a
//! [`DeltaOverlay`] layers committed mutations (added/removed nodes and
//! edges, per-label inverted-list patches, label-dictionary growth) on top
//! of it without rebuilding the CSR. A [`Snapshot`] pairs an immutable
//! overlay with a version number: cloning one is O(1) (two `Arc` bumps),
//! so in-flight query runs keep a consistent view of the graph while
//! writers commit further deltas.
//!
//! Overlay reads resolve in one hash probe: a node whose adjacency was
//! never touched by a mutation reads straight from the base CSR slices; a
//! *patched* node reads its full replacement adjacency from the delta.
//! Patches always store complete sorted neighbor lists (not diffs), so
//! every accessor still returns plain `&[NodeId]` slices and the
//! downstream pipeline (simulation, RIG expansion) runs unchanged on
//! either representation.
//!
//! Node ids are **stable for the lifetime of a store**: removing a node
//! tombstones its id (the slot keeps its label but leaves every inverted
//! list and adjacency list), and LSM-style compaction
//! ([`DeltaOverlay::materialize`]) merges the delta into a fresh base
//! *without renumbering*, so match tuples and cached plans remain valid
//! across compactions.

use std::sync::Arc;

use rig_bitset::Bitset;

use crate::io::ParseError;
use crate::{DataGraph, FxHashMap, FxHashSet, Label, NodeId};

// ---------------------------------------------------------------------------
// mutation ops
// ---------------------------------------------------------------------------

/// A label reference in a mutation: a numeric id or a dictionary name
/// (interned on first use, exactly like `GraphBuilder::intern_label`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabelSpec {
    Id(Label),
    Named(String),
}

/// One graph mutation, the unit [`DeltaOverlay::apply`] consumes. A
/// committed transaction is a sequence of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutationOp {
    /// Add a node with the given label; its id is the next free one.
    AddNode(LabelSpec),
    /// Tombstone a node: drops the node and every incident edge. The id is
    /// never reused.
    RemoveNode(NodeId),
    /// Add the directed edge `(u, v)`. Adding an existing edge is a no-op.
    AddEdge(NodeId, NodeId),
    /// Remove the directed edge `(u, v)`; the edge must exist.
    RemoveEdge(NodeId, NodeId),
}

/// What one committed batch of mutations touched — the input to the
/// session's label-aware plan-cache invalidation.
#[derive(Debug, Default, Clone)]
pub struct CommitImpact {
    /// Labels whose membership or incident adjacency changed: labels of
    /// added/removed nodes and labels of both endpoints of every
    /// added/removed edge.
    pub touched: FxHashSet<Label>,
    /// True when the commit added or removed any *edge* (including edges
    /// dropped by a node removal). Edge mutations can change reachability
    /// between nodes of arbitrary labels, so plans with reachability query
    /// edges must be invalidated on any structural commit; pure node
    /// additions/removals of isolated nodes never create or break paths.
    pub structural: bool,
    pub nodes_added: u64,
    pub nodes_removed: u64,
    pub edges_added: u64,
    pub edges_removed: u64,
}

impl CommitImpact {
    /// 64-bit label-set fingerprint (bit `l mod 64` per touched label) for
    /// the cache sweep's cheap pre-check.
    pub fn touched_mask(&self) -> u64 {
        self.touched.iter().fold(0u64, |m, &l| m | 1u64 << (l & 63))
    }

    /// Total mutation operations recorded.
    pub fn ops(&self) -> u64 {
        self.nodes_added + self.nodes_removed + self.edges_added + self.edges_removed
    }
}

// ---------------------------------------------------------------------------
// the overlay
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct InvertedPatch {
    /// Full sorted live membership of the label under the overlay.
    list: Vec<NodeId>,
    /// The same membership as a bitmap.
    bits: Bitset,
}

/// An in-memory delta over an immutable base [`DataGraph`].
///
/// Mutable only while a commit is being applied; once published inside a
/// [`Snapshot`] (behind an `Arc`) it is frozen. Commits clone the current
/// overlay (O(delta), not O(graph)), apply their ops, and publish a new
/// snapshot.
#[derive(Clone)]
pub struct DeltaOverlay {
    base: Arc<DataGraph>,
    /// Labels of added nodes (node `base_nodes + i` has `added_labels[i]`).
    added_labels: Vec<Label>,
    /// Names of labels beyond the base label space (parallel to label ids
    /// `base_labels..`; empty string = unnamed).
    extra_label_names: Vec<String>,
    /// Name -> id additions (base dictionary is consulted first).
    name_to_label: FxHashMap<String, Label>,
    /// Tombstoned node ids (base or added).
    removed: Bitset,
    /// Full replacement forward adjacency for patched nodes (sorted).
    fwd: FxHashMap<NodeId, Vec<NodeId>>,
    /// Full replacement backward adjacency for patched nodes (sorted).
    bwd: FxHashMap<NodeId, Vec<NodeId>>,
    /// Full replacement inverted lists for labels whose membership changed
    /// (and for every label beyond the base label space).
    inverted: FxHashMap<Label, InvertedPatch>,
    /// Net edge count relative to the base.
    edge_net: i64,
    /// Cumulative operation counters (monotone; drive compaction).
    nodes_added: u64,
    nodes_removed: u64,
    edges_added: u64,
    edges_removed: u64,
}

static EMPTY_IDS: [NodeId; 0] = [];

impl DeltaOverlay {
    /// An empty overlay over `base`.
    pub fn new(base: Arc<DataGraph>) -> DeltaOverlay {
        DeltaOverlay {
            base,
            added_labels: Vec::new(),
            extra_label_names: Vec::new(),
            name_to_label: FxHashMap::default(),
            removed: Bitset::new(),
            fwd: FxHashMap::default(),
            bwd: FxHashMap::default(),
            inverted: FxHashMap::default(),
            edge_net: 0,
            nodes_added: 0,
            nodes_removed: 0,
            edges_added: 0,
            edges_removed: 0,
        }
    }

    /// The base segment.
    pub fn base(&self) -> &Arc<DataGraph> {
        &self.base
    }

    /// True when no mutation has ever been applied.
    pub fn is_empty(&self) -> bool {
        self.ops() == 0
    }

    /// Total mutation operations absorbed since the overlay was created
    /// (the LSM fill statistic compaction policies threshold on).
    pub fn ops(&self) -> u64 {
        self.nodes_added + self.nodes_removed + self.edges_added + self.edges_removed
    }

    /// Nodes added since the overlay was created.
    pub fn nodes_added(&self) -> u64 {
        self.nodes_added
    }

    /// Nodes tombstoned since the overlay was created.
    pub fn nodes_removed(&self) -> u64 {
        self.nodes_removed
    }

    /// Edges added since the overlay was created.
    pub fn edges_added(&self) -> u64 {
        self.edges_added
    }

    /// Edges removed since the overlay was created (including edges
    /// dropped implicitly by node removals).
    pub fn edges_removed(&self) -> u64 {
        self.edges_removed
    }

    // -- graph accessors (overlay view) ------------------------------------

    /// Node-id space size (base slots + added nodes; includes tombstones).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.base.num_nodes() + self.added_labels.len()
    }

    /// Live (non-tombstoned) node count.
    pub fn num_live_nodes(&self) -> usize {
        self.base.num_live_nodes() + self.added_labels.len() - self.removed.len() as usize
    }

    /// Edge count under the overlay.
    #[inline]
    pub fn num_edges(&self) -> usize {
        (self.base.num_edges() as i64 + self.edge_net) as usize
    }

    /// Label-space size (base labels + labels grown by the overlay).
    #[inline]
    pub fn num_labels(&self) -> usize {
        self.base.num_labels() + self.extra_label_names.len()
    }

    /// Label of node `v` (tombstoned slots keep their label).
    #[inline]
    pub fn label(&self, v: NodeId) -> Label {
        let base_n = self.base.num_nodes();
        if (v as usize) < base_n {
            self.base.label(v)
        } else {
            self.added_labels[v as usize - base_n]
        }
    }

    /// True iff `v` is a live node under the overlay.
    pub fn is_live(&self, v: NodeId) -> bool {
        (v as usize) < self.num_nodes()
            && !self.removed.contains(v)
            && ((v as usize) >= self.base.num_nodes() || self.base.is_live(v))
    }

    /// Sorted out-neighbors of `v` under the overlay.
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        if let Some(p) = self.fwd.get(&v) {
            return p;
        }
        if (v as usize) < self.base.num_nodes() {
            self.base.out_neighbors(v)
        } else {
            &EMPTY_IDS
        }
    }

    /// Sorted in-neighbors of `v` under the overlay.
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        if let Some(p) = self.bwd.get(&v) {
            return p;
        }
        if (v as usize) < self.base.num_nodes() {
            self.base.in_neighbors(v)
        } else {
            &EMPTY_IDS
        }
    }

    /// True iff the edge `(u, v)` exists under the overlay.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Sorted live inverted list of `label` under the overlay.
    #[inline]
    pub fn nodes_with_label(&self, label: Label) -> &[NodeId] {
        if let Some(p) = self.inverted.get(&label) {
            return &p.list;
        }
        self.base.nodes_with_label(label)
    }

    /// The inverted list of `label` as a bitmap.
    #[inline]
    pub fn label_bitset(&self, label: Label) -> &Bitset {
        if let Some(p) = self.inverted.get(&label) {
            return &p.bits;
        }
        self.base.label_bitset(label)
    }

    /// Resolves a label name (overlay additions first, then the base
    /// dictionary).
    pub fn label_id(&self, name: &str) -> Option<Label> {
        self.name_to_label.get(name).copied().or_else(|| self.base.label_id(name))
    }

    /// Human-readable name of `label`, if any.
    pub fn label_name(&self, label: Label) -> &str {
        let base_l = self.base.num_labels();
        if (label as usize) < base_l {
            self.base.label_name(label)
        } else {
            self.extra_label_names.get(label as usize - base_l).map(|s| s.as_str()).unwrap_or("")
        }
    }

    // -- mutation application ----------------------------------------------

    /// Applies one mutation, recording its effect in `impact`. Returns the
    /// assigned node id for [`MutationOp::AddNode`]. Errors leave the
    /// overlay in a consistent state (the failed op itself is atomic);
    /// transactional all-or-nothing semantics are the caller's job (the
    /// session applies ops to a clone and publishes only on full success).
    pub fn apply(
        &mut self,
        op: &MutationOp,
        impact: &mut CommitImpact,
    ) -> Result<Option<NodeId>, String> {
        match op {
            MutationOp::AddNode(spec) => {
                let label = self.resolve_label(spec);
                self.grow_label_space(label);
                let id = self.num_nodes() as NodeId;
                self.added_labels.push(label);
                let base = &self.base;
                let patch = self.inverted.entry(label).or_insert_with(|| {
                    let list = base.nodes_with_label(label).to_vec();
                    let bits = base_label_bits(base, label);
                    InvertedPatch { list, bits }
                });
                // ids grow monotonically, so pushing keeps the list sorted
                patch.list.push(id);
                patch.bits.insert(id);
                self.nodes_added += 1;
                impact.nodes_added += 1;
                impact.touched.insert(label);
                Ok(Some(id))
            }
            MutationOp::RemoveNode(v) => {
                let v = *v;
                if !self.is_live(v) {
                    return Err(format!("remove node {v}: no such live node"));
                }
                let outs: Vec<NodeId> = self.out_neighbors(v).to_vec();
                let ins: Vec<NodeId> = self.in_neighbors(v).to_vec();
                let mut dropped = 0u64;
                for &w in &outs {
                    dropped += 1;
                    impact.touched.insert(self.label(w));
                    if w != v {
                        let patch = self.bwd_patch(w);
                        if let Ok(i) = patch.binary_search(&v) {
                            patch.remove(i);
                        }
                    }
                }
                for &w in &ins {
                    if w == v {
                        continue; // self-loop already counted above
                    }
                    dropped += 1;
                    impact.touched.insert(self.label(w));
                    let patch = self.fwd_patch(w);
                    if let Ok(i) = patch.binary_search(&v) {
                        patch.remove(i);
                    }
                }
                self.fwd.insert(v, Vec::new());
                self.bwd.insert(v, Vec::new());
                self.removed.insert(v);
                let label = self.label(v);
                let patch = self.inverted_patch(label);
                if let Ok(i) = patch.list.binary_search(&v) {
                    patch.list.remove(i);
                }
                patch.bits.remove(v);
                self.edge_net -= dropped as i64;
                self.edges_removed += dropped;
                self.nodes_removed += 1;
                impact.nodes_removed += 1;
                impact.edges_removed += dropped;
                impact.touched.insert(label);
                if dropped > 0 {
                    impact.structural = true;
                }
                Ok(None)
            }
            MutationOp::AddEdge(u, v) => {
                let (u, v) = (*u, *v);
                if !self.is_live(u) {
                    return Err(format!("add edge ({u},{v}): no such live node {u}"));
                }
                if !self.is_live(v) {
                    return Err(format!("add edge ({u},{v}): no such live node {v}"));
                }
                if self.has_edge(u, v) {
                    return Ok(None); // idempotent, mirrors GraphBuilder dedup
                }
                let fp = self.fwd_patch(u);
                let i = fp.binary_search(&v).unwrap_err();
                fp.insert(i, v);
                let bp = self.bwd_patch(v);
                let i = bp.binary_search(&u).unwrap_err();
                bp.insert(i, u);
                self.edge_net += 1;
                self.edges_added += 1;
                impact.edges_added += 1;
                impact.touched.insert(self.label(u));
                impact.touched.insert(self.label(v));
                impact.structural = true;
                Ok(None)
            }
            MutationOp::RemoveEdge(u, v) => {
                let (u, v) = (*u, *v);
                if !self.has_edge(u, v) {
                    return Err(format!("remove edge ({u},{v}): no such edge"));
                }
                let fp = self.fwd_patch(u);
                if let Ok(i) = fp.binary_search(&v) {
                    fp.remove(i);
                }
                let bp = self.bwd_patch(v);
                if let Ok(i) = bp.binary_search(&u) {
                    bp.remove(i);
                }
                self.edge_net -= 1;
                self.edges_removed += 1;
                impact.edges_removed += 1;
                impact.touched.insert(self.label(u));
                impact.touched.insert(self.label(v));
                impact.structural = true;
                Ok(None)
            }
        }
    }

    fn resolve_label(&mut self, spec: &LabelSpec) -> Label {
        match spec {
            LabelSpec::Id(l) => *l,
            LabelSpec::Named(name) => {
                if let Some(l) = self.label_id(name) {
                    return l;
                }
                let l = self.num_labels() as Label;
                self.grow_label_space(l);
                self.extra_label_names[l as usize - self.base.num_labels()] = name.clone();
                self.name_to_label.insert(name.clone(), l);
                l
            }
        }
    }

    /// Extends the label space so `label` is a valid id; every label beyond
    /// the base space gets an (initially empty) inverted patch so the
    /// bitmap accessor has something to hand out.
    fn grow_label_space(&mut self, label: Label) {
        let base_l = self.base.num_labels();
        while self.num_labels() <= label as usize {
            let l = self.num_labels() as Label;
            debug_assert!(l as usize >= base_l);
            self.extra_label_names.push(String::new());
            self.inverted.insert(l, InvertedPatch { list: Vec::new(), bits: Bitset::new() });
        }
    }

    fn fwd_patch(&mut self, v: NodeId) -> &mut Vec<NodeId> {
        let base = &self.base;
        self.fwd.entry(v).or_insert_with(|| {
            if (v as usize) < base.num_nodes() {
                base.out_neighbors(v).to_vec()
            } else {
                Vec::new()
            }
        })
    }

    fn bwd_patch(&mut self, v: NodeId) -> &mut Vec<NodeId> {
        let base = &self.base;
        self.bwd.entry(v).or_insert_with(|| {
            if (v as usize) < base.num_nodes() {
                base.in_neighbors(v).to_vec()
            } else {
                Vec::new()
            }
        })
    }

    fn inverted_patch(&mut self, label: Label) -> &mut InvertedPatch {
        let base = &self.base;
        self.inverted.entry(label).or_insert_with(|| InvertedPatch {
            list: base.nodes_with_label(label).to_vec(),
            bits: base_label_bits(base, label),
        })
    }

    // -- random mutation workloads -----------------------------------------

    /// Generates one *valid* random mutation against this overlay's
    /// current state, advancing the xorshift64\* `state`. Weighted toward
    /// edge churn (4 add-edge : 3 remove-edge : 2 add-node : 1
    /// remove-node); returns `None` when the drawn kind has no valid
    /// target (e.g. removing an edge from an empty graph).
    ///
    /// This is the single source of the mutation workload shared by the
    /// update-vs-rebuild, factorized and analysis differential suites:
    /// generate against a scratch clone, [`DeltaOverlay::apply`]
    /// there to validate, and stage accepted ops on the real transaction.
    pub fn random_mutation(&self, state: &mut u64, num_labels: Label) -> Option<MutationOp> {
        let n = self.num_nodes() as NodeId;
        if n == 0 {
            return Some(MutationOp::AddNode(LabelSpec::Id(0)));
        }
        let pick_live = |state: &mut u64| {
            (0..32).map(|_| (xorshift(state) % n as u64) as NodeId).find(|&v| self.is_live(v))
        };
        match xorshift(state) % 10 {
            0 | 1 => Some(MutationOp::AddNode(LabelSpec::Id(
                (xorshift(state) % num_labels.max(1) as u64) as Label,
            ))),
            2 => pick_live(state).map(MutationOp::RemoveNode),
            3..=6 => {
                let u = pick_live(state)?;
                let v = pick_live(state)?;
                Some(MutationOp::AddEdge(u, v))
            }
            _ => {
                // remove an edge surviving near a random probe point
                for _ in 0..32 {
                    let u = (xorshift(state) % n as u64) as NodeId;
                    let outs = self.out_neighbors(u);
                    if !outs.is_empty() {
                        let v = outs[(xorshift(state) % outs.len() as u64) as usize];
                        return Some(MutationOp::RemoveEdge(u, v));
                    }
                }
                None
            }
        }
    }

    // -- compaction ---------------------------------------------------------

    /// Merges the overlay into a fresh id-stable base segment: same node
    /// ids (tombstones preserved as label-keeping dead slots), same label
    /// ids, rebuilt CSR + inverted lists. This is both the LSM compaction
    /// step and the differential-test oracle ("rebuild from scratch").
    pub fn materialize(&self) -> DataGraph {
        let n = self.num_nodes();
        let labels: Vec<Label> = (0..n as NodeId).map(|v| self.label(v)).collect();
        let fwd: Vec<Vec<NodeId>> =
            (0..n as NodeId).map(|v| self.out_neighbors(v).to_vec()).collect();
        let mut names: Vec<String> = self.base.label_names().to_vec();
        names.resize(self.base.num_labels(), String::new());
        names.extend(self.extra_label_names.iter().cloned());
        let mut dead = self.base.tombstones().clone();
        for v in self.removed.iter() {
            dead.insert(v);
        }
        DataGraph::from_parts_dead(labels, fwd, names, dead)
    }
}

/// xorshift64* step (Vigna): dependency-free deterministic randomness for
/// [`DeltaOverlay::random_mutation`]. A zero state is nudged to a fixed
/// non-zero seed.
fn xorshift(state: &mut u64) -> u64 {
    if *state == 0 {
        *state = 0x9E37_79B9_7F4A_7C15;
    }
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// A deterministic, self-validating transaction stream over an evolving
/// graph: seeded xorshift64\* drives [`DeltaOverlay::random_mutation`]
/// against an internal mirror overlay, so every generated op is valid at
/// the point it is produced and the whole sequence is a pure function of
/// `(base graph, seed)`.
///
/// This is the shared workload of the durability layer's kill-and-recover
/// differential suite and the crash-recovery proptests: the writer under test and the verifying reference both replay *the
/// same* commit sequence from the same seed, so "the store holding exactly
/// the first `k` transactions" is reproducible anywhere.
pub struct MutationStream {
    mirror: DeltaOverlay,
    state: u64,
    num_labels: Label,
}

impl MutationStream {
    /// A stream over `base` driven by `seed`.
    pub fn new(base: Arc<DataGraph>, seed: u64) -> MutationStream {
        let num_labels = (base.num_labels() as Label).max(1);
        MutationStream { mirror: DeltaOverlay::new(base), state: seed, num_labels }
    }

    /// Generates the next transaction: between 1 and `max_ops` mutations,
    /// each validated against (and applied to) the internal mirror so
    /// later transactions stay valid on the evolving graph.
    pub fn next_txn(&mut self, max_ops: usize) -> Vec<MutationOp> {
        let want = 1 + (xorshift(&mut self.state) % max_ops.max(1) as u64) as usize;
        let mut ops = Vec::with_capacity(want);
        let mut attempts = 0;
        while ops.len() < want && attempts < want * 64 {
            attempts += 1;
            let Some(op) = self.mirror.random_mutation(&mut self.state, self.num_labels) else {
                continue;
            };
            let mut impact = CommitImpact::default();
            if self.mirror.apply(&op, &mut impact).is_ok() && impact.ops() > 0 {
                ops.push(op);
            }
        }
        if ops.is_empty() {
            // degenerate graphs can starve the sampler; an AddNode is
            // always valid and keeps every transaction non-empty
            let op = MutationOp::AddNode(LabelSpec::Id(0));
            let mut impact = CommitImpact::default();
            self.mirror.apply(&op, &mut impact).expect("AddNode is always valid");
            ops.push(op);
        }
        ops
    }

    /// The mirror overlay: the graph state after every transaction
    /// generated so far (the reference a recovered store is compared to).
    pub fn mirror(&self) -> &DeltaOverlay {
        &self.mirror
    }
}

fn base_label_bits(base: &DataGraph, label: Label) -> Bitset {
    if (label as usize) < base.num_labels() {
        base.label_bitset(label).clone()
    } else {
        Bitset::new()
    }
}

impl std::fmt::Debug for DeltaOverlay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DeltaOverlay(+{}n -{}n +{}e -{}e over {:?})",
            self.nodes_added, self.nodes_removed, self.edges_added, self.edges_removed, self.base
        )
    }
}

// ---------------------------------------------------------------------------
// snapshots
// ---------------------------------------------------------------------------

/// An immutable, versioned view of a (possibly mutated) data graph:
/// `Arc<base CSR>` + `Arc<frozen delta>`. Cloning is O(1); every query run
/// executes against exactly one snapshot, so concurrent commits never
/// change the data mid-enumeration.
#[derive(Clone)]
pub struct Snapshot {
    delta: Arc<DeltaOverlay>,
    version: u64,
}

impl Snapshot {
    /// A version-0 snapshot of an unmutated graph.
    pub fn clean(base: impl Into<Arc<DataGraph>>) -> Snapshot {
        Snapshot { delta: Arc::new(DeltaOverlay::new(base.into())), version: 0 }
    }

    /// Wraps a frozen overlay at `version`.
    pub fn new(delta: Arc<DeltaOverlay>, version: u64) -> Snapshot {
        Snapshot { delta, version }
    }

    /// The store version this snapshot was published at.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The base segment.
    pub fn base(&self) -> &Arc<DataGraph> {
        self.delta.base()
    }

    /// The delta overlay.
    pub fn delta(&self) -> &Arc<DeltaOverlay> {
        &self.delta
    }

    /// True when the delta holds any mutation — the signal for the
    /// pipeline to switch reachability work off the base-only BFL index.
    #[inline]
    pub fn is_dirty(&self) -> bool {
        !self.delta.is_empty()
    }

    /// See [`DeltaOverlay::materialize`].
    pub fn materialize(&self) -> DataGraph {
        self.delta.materialize()
    }

    // forwarded accessors
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.delta.num_nodes()
    }
    pub fn num_live_nodes(&self) -> usize {
        self.delta.num_live_nodes()
    }
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.delta.num_edges()
    }
    #[inline]
    pub fn num_labels(&self) -> usize {
        self.delta.num_labels()
    }
    #[inline]
    pub fn label(&self, v: NodeId) -> Label {
        self.delta.label(v)
    }
    pub fn is_live(&self, v: NodeId) -> bool {
        self.delta.is_live(v)
    }
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.delta.out_neighbors(v)
    }
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.delta.in_neighbors(v)
    }
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.delta.has_edge(u, v)
    }
    #[inline]
    pub fn nodes_with_label(&self, label: Label) -> &[NodeId] {
        self.delta.nodes_with_label(label)
    }
    #[inline]
    pub fn label_bitset(&self, label: Label) -> &Bitset {
        self.delta.label_bitset(label)
    }
    pub fn label_id(&self, name: &str) -> Option<Label> {
        self.delta.label_id(name)
    }
    pub fn label_name(&self, label: Label) -> &str {
        self.delta.label_name(label)
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Snapshot(v{}, |V|={} ({} live), |E|={}, |L|={}{})",
            self.version,
            self.num_nodes(),
            self.num_live_nodes(),
            self.num_edges(),
            self.num_labels(),
            if self.is_dirty() { ", dirty" } else { "" }
        )
    }
}

// ---------------------------------------------------------------------------
// mutation scripts (the CLI `--mutations` file format)
// ---------------------------------------------------------------------------

/// Parses a mutation script into commit segments. Line format:
///
/// ```text
/// a v <label-or-name>    # add node (id = next free id)
/// a e <u> <v>            # add edge
/// d v <id>               # delete node (and its incident edges)
/// d e <u> <v>            # delete edge
/// commit                 # commit boundary; EOF implies a final commit
/// # comment
/// ```
///
/// Returns one `Vec<MutationOp>` per commit. A trailing `commit` does not
/// produce an empty segment; an empty script yields no segments.
pub fn parse_mutations(input: &str) -> Result<Vec<Vec<MutationOp>>, ParseError> {
    let err = |line: usize, message: String| ParseError { line, message };
    let mut segments: Vec<Vec<MutationOp>> = Vec::new();
    let mut current: Vec<MutationOp> = Vec::new();
    for (ln, raw) in input.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "commit" {
            if !current.is_empty() {
                segments.push(std::mem::take(&mut current));
            }
            continue;
        }
        let mut parts = line.split_whitespace();
        let op = match (parts.next(), parts.next()) {
            (Some("a"), Some("v")) => {
                let tok = parts.next().ok_or_else(|| err(ln + 1, "a v: missing label".into()))?;
                let spec = match tok.parse::<Label>() {
                    Ok(id) => LabelSpec::Id(id),
                    Err(_) => LabelSpec::Named(tok.to_string()),
                };
                MutationOp::AddNode(spec)
            }
            (Some("d"), Some("v")) => {
                let id: NodeId = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(ln + 1, "d v: bad node id".into()))?;
                MutationOp::RemoveNode(id)
            }
            (Some(a @ ("a" | "d")), Some("e")) => {
                let u: NodeId = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(ln + 1, format!("{a} e: bad edge source")))?;
                let v: NodeId = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(ln + 1, format!("{a} e: bad edge target")))?;
                if a == "a" {
                    MutationOp::AddEdge(u, v)
                } else {
                    MutationOp::RemoveEdge(u, v)
                }
            }
            (Some(tok), _) => return Err(err(ln + 1, format!("unknown mutation record '{tok}'"))),
            (None, _) => continue,
        };
        if parts.next().is_some() {
            return Err(err(ln + 1, "trailing tokens on mutation line".into()));
        }
        current.push(op);
    }
    if !current.is_empty() {
        segments.push(current);
    }
    Ok(segments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn small_base() -> Arc<DataGraph> {
        // 0:A 1:A 2:B 3:C with 0->2, 1->2, 2->3
        let mut b = GraphBuilder::new();
        let a0 = b.add_node_with_name(0, "A");
        let a1 = b.add_node_with_name(0, "A");
        let b0 = b.add_node_with_name(1, "B");
        let c0 = b.add_node_with_name(2, "C");
        b.add_edge(a0, b0);
        b.add_edge(a1, b0);
        b.add_edge(b0, c0);
        Arc::new(b.build())
    }

    fn apply_all(d: &mut DeltaOverlay, ops: &[MutationOp]) -> CommitImpact {
        let mut impact = CommitImpact::default();
        for op in ops {
            d.apply(op, &mut impact).unwrap();
        }
        impact
    }

    #[test]
    fn empty_overlay_mirrors_base() {
        let base = small_base();
        let d = DeltaOverlay::new(Arc::clone(&base));
        assert!(d.is_empty());
        assert_eq!(d.num_nodes(), 4);
        assert_eq!(d.num_edges(), 3);
        assert_eq!(d.num_labels(), 3);
        assert_eq!(d.out_neighbors(0), base.out_neighbors(0));
        assert_eq!(d.nodes_with_label(0), &[0, 1]);
        assert_eq!(d.label_id("B"), Some(1));
    }

    #[test]
    fn add_node_and_edges() {
        let base = small_base();
        let mut d = DeltaOverlay::new(base);
        let mut impact = CommitImpact::default();
        let id = d.apply(&MutationOp::AddNode(LabelSpec::Id(0)), &mut impact).unwrap().unwrap();
        assert_eq!(id, 4);
        d.apply(&MutationOp::AddEdge(4, 2), &mut impact).unwrap();
        assert_eq!(d.num_nodes(), 5);
        assert_eq!(d.num_edges(), 4);
        assert_eq!(d.out_neighbors(4), &[2]);
        assert!(d.in_neighbors(2).contains(&4));
        assert_eq!(d.nodes_with_label(0), &[0, 1, 4]);
        assert_eq!(d.label_bitset(0).to_vec(), vec![0, 1, 4]);
        assert!(impact.structural);
        assert_eq!(impact.nodes_added, 1);
        assert_eq!(impact.edges_added, 1);
        assert!(impact.touched.contains(&0) && impact.touched.contains(&1));
    }

    #[test]
    fn add_edge_is_idempotent_and_checks_endpoints() {
        let base = small_base();
        let mut d = DeltaOverlay::new(base);
        let mut impact = CommitImpact::default();
        d.apply(&MutationOp::AddEdge(0, 2), &mut impact).unwrap(); // exists: no-op
        assert_eq!(impact.edges_added, 0);
        assert_eq!(d.num_edges(), 3);
        assert!(d.apply(&MutationOp::AddEdge(0, 9), &mut impact).is_err());
        assert!(d.apply(&MutationOp::RemoveEdge(0, 3), &mut impact).is_err());
    }

    #[test]
    fn remove_edge_patches_both_sides() {
        let base = small_base();
        let mut d = DeltaOverlay::new(base);
        let impact = apply_all(&mut d, &[MutationOp::RemoveEdge(1, 2)]);
        assert!(!d.has_edge(1, 2));
        assert!(d.has_edge(0, 2));
        assert_eq!(d.in_neighbors(2), &[0]);
        assert_eq!(d.out_neighbors(1), &[] as &[NodeId]);
        assert_eq!(d.num_edges(), 2);
        assert!(impact.structural);
    }

    #[test]
    fn remove_node_tombstones_and_strips_edges() {
        let base = small_base();
        let mut d = DeltaOverlay::new(base);
        let impact = apply_all(&mut d, &[MutationOp::RemoveNode(2)]);
        assert!(!d.is_live(2));
        assert_eq!(d.num_live_nodes(), 3);
        assert_eq!(d.num_nodes(), 4, "ids are stable");
        assert_eq!(d.num_edges(), 0);
        assert_eq!(d.out_neighbors(0), &[] as &[NodeId]);
        assert_eq!(d.out_neighbors(2), &[] as &[NodeId]);
        assert_eq!(d.nodes_with_label(1), &[] as &[NodeId]);
        assert_eq!(impact.edges_removed, 3);
        assert!(impact.structural);
        // removing again fails; edges to it fail
        let mut im = CommitImpact::default();
        assert!(d.apply(&MutationOp::RemoveNode(2), &mut im).is_err());
        assert!(d.apply(&MutationOp::AddEdge(0, 2), &mut im).is_err());
    }

    #[test]
    fn isolated_node_ops_are_not_structural() {
        let base = small_base();
        let mut d = DeltaOverlay::new(base);
        let mut impact = CommitImpact::default();
        let id = d
            .apply(&MutationOp::AddNode(LabelSpec::Named("D".into())), &mut impact)
            .unwrap()
            .unwrap();
        d.apply(&MutationOp::RemoveNode(id), &mut impact).unwrap();
        assert!(!impact.structural, "isolated add/remove cannot change reachability");
        assert_eq!(d.label_id("D"), Some(3));
        assert_eq!(d.num_labels(), 4);
        assert_eq!(d.nodes_with_label(3), &[] as &[NodeId]);
    }

    #[test]
    fn named_label_growth_and_numeric_growth() {
        let base = small_base();
        let mut d = DeltaOverlay::new(base);
        let mut impact = CommitImpact::default();
        let x = d
            .apply(&MutationOp::AddNode(LabelSpec::Named("X".into())), &mut impact)
            .unwrap()
            .unwrap();
        assert_eq!(d.label(x), 3);
        assert_eq!(d.label_name(3), "X");
        // same name -> same id
        let y = d
            .apply(&MutationOp::AddNode(LabelSpec::Named("X".into())), &mut impact)
            .unwrap()
            .unwrap();
        assert_eq!(d.label(y), 3);
        // numeric growth past the end creates intermediate empty labels
        let z = d.apply(&MutationOp::AddNode(LabelSpec::Id(6)), &mut impact).unwrap().unwrap();
        assert_eq!(d.label(z), 6);
        assert_eq!(d.num_labels(), 7);
        assert!(d.nodes_with_label(5).is_empty());
        // existing base name resolves to the base id
        let a = d
            .apply(&MutationOp::AddNode(LabelSpec::Named("A".into())), &mut impact)
            .unwrap()
            .unwrap();
        assert_eq!(d.label(a), 0);
    }

    #[test]
    fn materialize_is_id_stable_and_equivalent() {
        let base = small_base();
        let mut d = DeltaOverlay::new(Arc::clone(&base));
        apply_all(
            &mut d,
            &[
                MutationOp::AddNode(LabelSpec::Id(1)), // id 4
                MutationOp::AddEdge(0, 4),
                MutationOp::RemoveNode(2),
                MutationOp::AddEdge(4, 3),
            ],
        );
        let m = d.materialize();
        assert_eq!(m.num_nodes(), d.num_nodes());
        assert_eq!(m.num_edges(), d.num_edges());
        assert_eq!(m.num_labels(), d.num_labels());
        for v in 0..d.num_nodes() as NodeId {
            assert_eq!(m.label(v), d.label(v), "label({v})");
            assert_eq!(m.out_neighbors(v), d.out_neighbors(v), "adjf({v})");
            assert_eq!(m.in_neighbors(v), d.in_neighbors(v), "adjb({v})");
            assert_eq!(m.is_live(v), d.is_live(v), "live({v})");
        }
        for l in 0..d.num_labels() as Label {
            assert_eq!(m.nodes_with_label(l), d.nodes_with_label(l), "I_{l}");
            assert_eq!(m.label_bitset(l).to_vec(), d.label_bitset(l).to_vec());
        }
        assert_eq!(m.label_id("A"), Some(0));
        // a second-generation overlay over the compacted base still works
        let mut d2 = DeltaOverlay::new(Arc::new(m));
        let mut im = CommitImpact::default();
        assert!(d2.apply(&MutationOp::AddEdge(0, 2), &mut im).is_err(), "2 stays dead");
        d2.apply(&MutationOp::AddEdge(3, 0), &mut im).unwrap();
        assert!(d2.has_edge(3, 0));
    }

    #[test]
    fn snapshot_is_cheap_and_consistent() {
        let base = small_base();
        let snap0 = Snapshot::clean(Arc::clone(&base));
        assert!(!snap0.is_dirty());
        assert_eq!(snap0.version(), 0);
        let mut d = DeltaOverlay::new(base);
        apply_all(&mut d, &[MutationOp::RemoveEdge(0, 2)]);
        let snap1 = Snapshot::new(Arc::new(d), 1);
        // the old snapshot still sees the edge; the new one does not
        assert!(snap0.has_edge(0, 2));
        assert!(!snap1.has_edge(0, 2));
        assert!(snap1.is_dirty());
        let clone = snap1.clone();
        assert_eq!(clone.num_edges(), snap1.num_edges());
    }

    #[test]
    fn parse_mutation_scripts() {
        let script = "\
# add a node and wire it up
a v Author
a e 0 2
commit
d e 1 2
d v 3
commit
a v 7
";
        let segs = parse_mutations(script).unwrap();
        assert_eq!(segs.len(), 3);
        assert_eq!(
            segs[0],
            vec![MutationOp::AddNode(LabelSpec::Named("Author".into())), MutationOp::AddEdge(0, 2)]
        );
        assert_eq!(segs[1], vec![MutationOp::RemoveEdge(1, 2), MutationOp::RemoveNode(3)]);
        assert_eq!(segs[2], vec![MutationOp::AddNode(LabelSpec::Id(7))]);
        assert!(parse_mutations("q 1 2\n").is_err());
        assert!(parse_mutations("a e 1\n").is_err());
        assert!(parse_mutations("a v 1 2\n").is_err());
        assert!(parse_mutations("").unwrap().is_empty());
        assert!(parse_mutations("commit\ncommit\n").unwrap().is_empty());
    }
}
