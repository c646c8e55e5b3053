//! Delta-overlay storage for dynamic data graphs.
//!
//! The immutable CSR [`DataGraph`] is the **base segment**; a
//! [`DeltaOverlay`] is the write buffer on top of it: committed mutations
//! (added/removed nodes and edges, label-dictionary growth) recorded
//! without rebuilding the CSR. A [`Snapshot`] pairs an immutable overlay
//! with a version number: cloning one is O(1), so in-flight query runs
//! keep a consistent view of the graph while writers commit further
//! deltas.
//!
//! The overlay answers what a commit needs to validate and apply its ops:
//! liveness, labels, adjacency rows (a row a mutation touched is stored in
//! full, sorted; any other row reads from the base) and the label
//! dictionary. The query pipeline never reads it: a dirty snapshot is read
//! through its materialization ([`Snapshot::graph`]), which the snapshot
//! merges on first use and keeps, so every stage reads one CSR
//! representation.
//!
//! Node ids are **stable for the lifetime of a store**: removing a node
//! tombstones its id (the slot keeps its label but leaves every inverted
//! list and adjacency list), and LSM-style compaction
//! ([`DeltaOverlay::materialize`]) merges the delta into a fresh base
//! *without renumbering*, so match tuples and cached plans remain valid
//! across compactions.

use std::sync::{Arc, OnceLock};

use rig_bitset::Bitset;

use crate::io::{err, parse_u32, ParseError, Scanner};
use crate::{Csr, DataGraph, FxHashMap, FxHashSet, Label, Members, Names, NodeId};

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
    /// Total mutation operations recorded.
    pub fn ops(&self) -> u64 {
        self.nodes_added + self.nodes_removed + self.edges_added + self.edges_removed
    }
}

// ---------------------------------------------------------------------------
// the overlay
// ---------------------------------------------------------------------------

/// The full replacement rows of one adjacency direction, for the patched
/// nodes only, all in one buffer: `slots` maps a node to its row's place
/// in `arena`.
///
/// A row keeps spare room after its entries, so an insertion shifts in
/// place; a full row moves to the end of the arena with double the room
/// and leaves its old place unused. A clone copies only the live rows,
/// packed, so a commit's clone costs the delta and not the garbage of
/// earlier commits, and dropping an overlay frees two buffers per
/// direction, not one per row.
#[derive(Default)]
struct PatchRows {
    slots: FxHashMap<NodeId, Slot>,
    arena: Vec<NodeId>,
}

#[derive(Clone, Copy)]
struct Slot {
    start: usize,
    len: u32,
    cap: u32,
}

impl Slot {
    fn range(self) -> std::ops::Range<usize> {
        self.start..self.start + self.len as usize
    }
}

/// Room for a row of `len` entries: a few insertions fit before it moves.
fn room(len: usize) -> usize {
    len + len / 4 + 2
}

/// Appends `row` to `arena` with its room and returns its slot.
fn push_row(arena: &mut Vec<NodeId>, row: &[NodeId]) -> Slot {
    let start = arena.len();
    let cap = room(row.len());
    arena.extend_from_slice(row);
    arena.resize(start + cap, 0);
    Slot { start, len: row.len() as u32, cap: cap as u32 }
}

impl PatchRows {
    #[inline]
    fn get(&self, v: NodeId) -> Option<&[NodeId]> {
        self.slots.get(&v).map(|s| &self.arena[s.range()])
    }

    fn iter(&self) -> impl Iterator<Item = (NodeId, &[NodeId])> {
        self.slots.iter().map(|(&v, s)| (v, &self.arena[s.range()]))
    }

    /// `v`'s slot, patched from `base` (its row under the base segment)
    /// on first use, and the arena.
    fn slot(&mut self, v: NodeId, base: &[NodeId]) -> (&mut Slot, &mut Vec<NodeId>) {
        let arena = &mut self.arena;
        (self.slots.entry(v).or_insert_with(|| push_row(arena, base)), arena)
    }

    /// Inserts `w` into `v`'s row, which must not hold it.
    fn insert(&mut self, v: NodeId, w: NodeId, base: &[NodeId]) {
        let (s, arena) = self.slot(v, base);
        if s.len == s.cap {
            let start = arena.len();
            let cap = room(2 * s.len as usize);
            arena.extend_from_within(s.range());
            arena.resize(start + cap, 0);
            (s.start, s.cap) = (start, cap as u32);
        }
        let row = s.range();
        let i = row.start + arena[row.clone()].binary_search(&w).unwrap_or_else(|i| i);
        arena.copy_within(i..row.end, i + 1);
        arena[i] = w;
        s.len += 1;
    }

    /// Removes `w` from `v`'s row, if it holds it.
    fn remove(&mut self, v: NodeId, w: NodeId, base: &[NodeId]) {
        let (s, arena) = self.slot(v, base);
        let row = s.range();
        if let Ok(i) = arena[row.clone()].binary_search(&w) {
            arena.copy_within(row.start + i + 1..row.end, row.start + i);
            s.len -= 1;
        }
    }

    /// Makes `v`'s row empty; a row that is empty under the base (`base`)
    /// and unpatched stays unpatched.
    fn clear(&mut self, v: NodeId, base: &[NodeId]) {
        if !base.is_empty() || self.slots.contains_key(&v) {
            self.slot(v, &[]).0.len = 0;
        }
    }
}

impl Clone for PatchRows {
    fn clone(&self) -> Self {
        let mut slots = self.slots.clone();
        let live: usize = slots.values().map(|s| room(s.len as usize)).sum();
        let mut arena = Vec::with_capacity(live);
        for s in slots.values_mut() {
            *s = push_row(&mut arena, &self.arena[s.range()]);
        }
        PatchRows { slots, arena }
    }
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
    fwd: PatchRows,
    /// Full replacement backward adjacency for patched nodes (sorted).
    bwd: PatchRows,
    /// Net edge count relative to the base.
    edge_net: i64,
    /// Cumulative operation counters (monotone; drive compaction).
    nodes_added: u64,
    nodes_removed: u64,
    edges_added: u64,
    edges_removed: u64,
}

impl DeltaOverlay {
    /// An empty overlay over `base`.
    pub fn new(base: Arc<DataGraph>) -> DeltaOverlay {
        DeltaOverlay {
            base,
            added_labels: Vec::new(),
            extra_label_names: Vec::new(),
            name_to_label: FxHashMap::default(),
            removed: Bitset::new(),
            fwd: PatchRows::default(),
            bwd: PatchRows::default(),
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

    /// The edges present under the overlay but absent from the base, in
    /// ascending `(u, v)` order: the forward patches minus the base rows
    /// they replace.
    pub fn added_edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for (u, row) in self.fwd.iter() {
            let old = self.base.out_neighbors(u);
            let mut j = 0;
            for &v in row {
                while j < old.len() && old[j] < v {
                    j += 1;
                }
                if j == old.len() || old[j] != v {
                    out.push((u, v));
                }
            }
        }
        out.sort_unstable();
        out
    }

    // -- rows, labels and the label dictionary under the overlay ------------

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
        self.fwd.get(v).unwrap_or_else(|| self.base.out_neighbors(v))
    }

    /// Sorted in-neighbors of `v` under the overlay.
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.bwd.get(v).unwrap_or_else(|| self.base.in_neighbors(v))
    }

    /// True iff the edge `(u, v)` exists under the overlay.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
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
                let label = self.resolve_label(spec)?;
                let id = self.num_nodes() as NodeId;
                self.added_labels.push(label);
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
                        self.bwd.remove(w, v, self.base.in_neighbors(w));
                    }
                }
                for &w in &ins {
                    if w == v {
                        continue; // self-loop already counted above
                    }
                    dropped += 1;
                    impact.touched.insert(self.label(w));
                    self.fwd.remove(w, v, self.base.out_neighbors(w));
                }
                self.fwd.clear(v, self.base.out_neighbors(v));
                self.bwd.clear(v, self.base.in_neighbors(v));
                self.removed.insert(v);
                let label = self.label(v);
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
                // the edge is absent (checked above)
                self.fwd.insert(u, v, self.base.out_neighbors(u));
                self.bwd.insert(v, u, self.base.in_neighbors(v));
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
                self.fwd.remove(u, v, self.base.out_neighbors(u));
                self.bwd.remove(v, u, self.base.in_neighbors(v));
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

    /// The label `spec` names. A numeric id must be an existing label or
    /// the next new one (`num_labels()`), so one op grows the label space
    /// by at most one label, as a new name does; a new name or the next
    /// id appends an (unnamed) label to the dictionary.
    fn resolve_label(&mut self, spec: &LabelSpec) -> Result<Label, String> {
        let next = self.num_labels() as Label;
        let (label, name) = match spec {
            LabelSpec::Id(l) if *l > next => {
                return Err(format!("add node: label id {l} is past the next new label, {next}"))
            }
            LabelSpec::Id(l) => (*l, String::new()),
            LabelSpec::Named(name) => match self.label_id(name) {
                Some(l) => (l, String::new()),
                None => {
                    self.name_to_label.insert(name.clone(), next);
                    (next, name.clone())
                }
            },
        };
        if label == next {
            self.extra_label_names.push(name);
        }
        Ok(label)
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
    /// ids. This is both the LSM compaction step and the differential-test
    /// oracle ("rebuild from scratch").
    ///
    /// The result shares every part of the base the delta left alone, and
    /// copies only what it changed:
    ///
    /// - a direction with no patched row keeps the base's CSR (rows of
    ///   added nodes past it read as empty), so a node-only delta copies
    ///   no adjacency. Otherwise that direction is merged: each run of
    ///   unpatched rows is one slice copy, each patched row is taken from
    ///   the overlay;
    /// - the node labels are copied and extended only when nodes were
    ///   added;
    /// - only a label that gained or lost members gets a new inverted list
    ///   and bitmap: the base's with its removed nodes dropped and its
    ///   live added nodes appended, which keeps it sorted because their
    ///   ids come after every base id;
    /// - the label dictionary is kept unless labels were added, and the
    ///   tombstones unless nodes were removed.
    pub fn materialize(&self) -> DataGraph {
        let base = &*self.base;
        let (n, edges) = (self.num_nodes(), self.num_edges());
        let labels = if self.added_labels.is_empty() {
            Arc::clone(&base.labels)
        } else {
            let mut labels = Vec::with_capacity(n);
            labels.extend_from_slice(&base.labels);
            labels.extend_from_slice(&self.added_labels);
            Arc::new(labels)
        };
        let mut gained: Vec<Vec<NodeId>> = vec![Vec::new(); self.num_labels()];
        for (v, &l) in (base.num_nodes() as NodeId..).zip(&self.added_labels) {
            if !self.removed.contains(v) {
                gained[l as usize].push(v);
            }
        }
        let mut lost: Vec<Vec<NodeId>> = vec![Vec::new(); self.num_labels()];
        for v in self.removed.iter().take_while(|&v| (v as usize) < base.num_nodes()) {
            lost[base.label(v) as usize].push(v);
        }
        let inverted = (gained.iter().zip(&lost).enumerate())
            .map(|(l, (gained, lost))| match base.inverted.get(l) {
                Some(old) if gained.is_empty() && lost.is_empty() => Arc::clone(old),
                Some(old) => Arc::new(old.changed(gained, lost)),
                None => Arc::new(Members::default().changed(gained, lost)),
            })
            .collect();
        let names = if self.extra_label_names.is_empty() {
            Arc::clone(&base.names)
        } else {
            let mut names = base.names.names.clone();
            names.extend(self.extra_label_names.iter().cloned());
            Arc::new(Names::new(names))
        };
        let dead = if self.removed.is_empty() {
            Arc::clone(&base.dead)
        } else {
            let mut dead = Bitset::clone(&base.dead);
            dead.or_assign(&self.removed);
            Arc::new(dead)
        };
        DataGraph {
            labels,
            fwd: merge_rows(n, &base.fwd, &self.fwd, edges),
            bwd: merge_rows(n, &base.bwd, &self.bwd, edges),
            inverted,
            names,
            dead,
        }
    }
}

/// One direction of a materialized CSR over `n` rows: `base` itself when
/// `patches` is empty, else the base rows except where `patches` holds a
/// full replacement row, and empty rows for unpatched ids past the base.
/// A table over the ids locates the patched rows, so the walk goes through
/// the ids in order without sorting the patch keys; each run of base rows
/// between two patched ids is one slice copy, its offsets shifted by the
/// difference between its new and old start.
fn merge_rows(n: usize, base: &Arc<Csr>, patches: &PatchRows, edges: usize) -> Arc<Csr> {
    if patches.slots.is_empty() {
        return Arc::clone(base);
    }
    let (base_offsets, base_targets) = (&base.offsets, &base.targets);
    let base_n = base_offsets.len() - 1;
    let mut offsets = Vec::with_capacity(n + 1);
    let mut targets = Vec::with_capacity(edges);
    offsets.push(0u64);
    // `at[v]`: where `v`'s patched row is in `rows`, if it has one
    let mut at = vec![u32::MAX; n];
    let rows: Vec<&[NodeId]> = (patches.iter().enumerate())
        .map(|(i, (v, row))| {
            at[v as usize] = i as u32;
            row
        })
        .collect();
    let patched = (at.iter().enumerate())
        .filter(|&(_, &i)| i != u32::MAX)
        .map(|(v, &i)| (v, rows[i as usize]));
    // rows `..next` are written; the sentinel flushes the tail
    let mut next = 0;
    for (v, row) in patched.chain(std::iter::once((n, &[][..]))) {
        let copy_end = v.min(base_n);
        if next < copy_end {
            let old_start = base_offsets[next];
            let new_start = targets.len() as u64;
            targets.extend_from_slice(
                &base_targets[old_start as usize..base_offsets[copy_end] as usize],
            );
            offsets.extend(
                base_offsets[next + 1..=copy_end].iter().map(|&o| o - old_start + new_start),
            );
        }
        offsets.resize(v + 1, targets.len() as u64);
        if v < n {
            targets.extend_from_slice(row);
            offsets.push(targets.len() as u64);
        }
        next = v + 1;
    }
    Arc::new(Csr { offsets, targets })
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
            if self.mirror.apply(&op, &mut CommitImpact::default()).is_ok() {
                ops.push(op);
            }
        }
        ops
    }

    /// The mirror overlay: the graph state after every transaction
    /// generated so far (the reference a recovered store is compared to).
    pub fn mirror(&self) -> &DeltaOverlay {
        &self.mirror
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
/// `Arc<frozen delta>` over its base CSR. Cloning is O(1); every query
/// run executes against exactly one snapshot, so concurrent commits never
/// change the data mid-enumeration.
///
/// A snapshot derefs to its [`DeltaOverlay`], for what a commit reads:
/// liveness, labels, rows and the label dictionary. Reads go through
/// [`Snapshot::graph`]: the base when the snapshot is clean, and when it
/// is dirty the delta merged into it, once, by whichever reader comes
/// first; every later reader, and the session's rebase, shares that merge.
#[derive(Clone)]
pub struct Snapshot {
    delta: Arc<DeltaOverlay>,
    version: u64,
    merged: OnceLock<Arc<DataGraph>>,
}

impl Snapshot {
    /// A version-0 snapshot of an unmutated graph.
    pub fn clean(base: impl Into<Arc<DataGraph>>) -> Snapshot {
        Snapshot::new(Arc::new(DeltaOverlay::new(base.into())), 0)
    }

    /// Wraps a frozen overlay at `version`.
    pub fn new(delta: Arc<DeltaOverlay>, version: u64) -> Snapshot {
        Snapshot { delta, version, merged: OnceLock::new() }
    }

    /// The store version this snapshot was published at.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The delta overlay.
    pub fn delta(&self) -> &Arc<DeltaOverlay> {
        &self.delta
    }

    /// True when the delta holds any mutation: the graph is then the
    /// delta's materialization, which no index built on the base
    /// describes.
    #[inline]
    pub fn is_dirty(&self) -> bool {
        !self.delta.is_empty()
    }

    /// The graph this snapshot describes: the base when clean, otherwise
    /// [`DeltaOverlay::materialize`], computed on the first call and kept.
    pub fn materialized(&self) -> &Arc<DataGraph> {
        if self.is_dirty() {
            self.merged.get_or_init(|| Arc::new(self.delta.materialize()))
        } else {
            self.delta.base()
        }
    }

    /// [`Snapshot::materialized`], borrowed.
    #[inline]
    pub fn graph(&self) -> &DataGraph {
        self.materialized()
    }
}

impl std::ops::Deref for Snapshot {
    type Target = DeltaOverlay;

    #[inline]
    fn deref(&self) -> &DeltaOverlay {
        &self.delta
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
///
/// The script is read by the graph text's scanner (see [`crate::parse_text`]):
/// records end at `\n`, tokens are separated by ASCII whitespace, and ids
/// are decimal `u32`s that may carry a leading `+`. An `a v` token that is
/// no such number is a label name. Unlike graph text, a record may not
/// carry extra tokens.
pub fn parse_mutations(input: &str) -> Result<Vec<Vec<MutationOp>>, ParseError> {
    let mut segments: Vec<Vec<MutationOp>> = Vec::new();
    let mut current: Vec<MutationOp> = Vec::new();
    let mut s = Scanner::new(input);
    while s.next_record() {
        let ln = s.line();
        let Some(first) = s.token() else { continue };
        if first.starts_with('#') {
            continue;
        }
        let second = s.token();
        let op = match (first, second) {
            ("commit", None) => {
                if !current.is_empty() {
                    segments.push(std::mem::take(&mut current));
                }
                continue;
            }
            ("a", Some("v")) => {
                let tok = s.token().ok_or_else(|| err(ln, "a v: missing label"))?;
                MutationOp::AddNode(match parse_u32(tok) {
                    Some(id) => LabelSpec::Id(id),
                    None => LabelSpec::Named(tok.to_string()),
                })
            }
            ("d", Some("v")) => {
                MutationOp::RemoveNode(s.u32().ok_or_else(|| err(ln, "d v: bad node id"))?)
            }
            (a @ ("a" | "d"), Some("e")) => {
                let u = s.u32().ok_or_else(|| err(ln, format!("{a} e: bad edge source")))?;
                let v = s.u32().ok_or_else(|| err(ln, format!("{a} e: bad edge target")))?;
                if a == "a" {
                    MutationOp::AddEdge(u, v)
                } else {
                    MutationOp::RemoveEdge(u, v)
                }
            }
            (tok, _) => return Err(err(ln, format!("unknown mutation record '{tok}'"))),
        };
        if s.token().is_some() {
            return Err(err(ln, "trailing tokens on mutation line"));
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
        assert_eq!(d.materialize().nodes_with_label(0), &[0, 1]);
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
        let m = d.materialize();
        assert_eq!(m.nodes_with_label(0), &[0, 1, 4]);
        assert_eq!(m.label_bitset(0).to_vec(), vec![0, 1, 4]);
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
        assert_eq!(d.materialize().nodes_with_label(1), &[] as &[NodeId]);
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
        assert_eq!(d.materialize().nodes_with_label(3), &[] as &[NodeId]);
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
        // the next numeric id grows the label space by one unnamed label
        let next = d.num_labels() as Label;
        let z = d.apply(&MutationOp::AddNode(LabelSpec::Id(next)), &mut impact).unwrap().unwrap();
        assert_eq!((d.label(z), d.label_name(4), d.num_labels()), (4, "", 5));
        // an id past the next new label is refused and changes nothing
        for id in [d.num_labels() as Label + 1, Label::MAX] {
            let err = d.apply(&MutationOp::AddNode(LabelSpec::Id(id)), &mut impact).unwrap_err();
            assert!(err.contains(&format!("label id {id}")), "{err}");
            assert_eq!((d.num_nodes(), d.num_labels()), (7, 5));
        }
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
        let oracle = builder_oracle(&d);
        for l in 0..d.num_labels() as Label {
            assert_eq!(m.nodes_with_label(l), oracle.nodes_with_label(l), "I_{l}");
            assert_eq!(m.label_bitset(l).to_vec(), oracle.label_bitset(l).to_vec(), "I_{l} bits");
        }
        assert_eq!(m.label_id("A"), Some(0));
        // a second-generation overlay over the compacted base still works
        let mut d2 = DeltaOverlay::new(Arc::new(m));
        let mut im = CommitImpact::default();
        assert!(d2.apply(&MutationOp::AddEdge(0, 2), &mut im).is_err(), "2 stays dead");
        d2.apply(&MutationOp::AddEdge(3, 0), &mut im).unwrap();
        assert!(d2.has_edge(3, 0));
    }

    /// The overlay's graph rebuilt from its rows through `GraphBuilder`.
    fn builder_oracle(d: &DeltaOverlay) -> DataGraph {
        let n = d.num_nodes() as NodeId;
        let mut b = GraphBuilder::new();
        for v in 0..n {
            b.add_node(d.label(v));
        }
        for l in 0..d.num_labels() as Label {
            b.set_label_name(l, d.label_name(l));
        }
        for v in 0..n {
            for &w in d.out_neighbors(v) {
                b.add_edge(v, w);
            }
        }
        b.build().with_tombstones((0..n).filter(|&v| !d.is_live(v)).collect())
    }

    /// Field by field, rows rather than raw CSR arrays (a graph that only
    /// gained nodes keeps a CSR shorter than its node count), and the
    /// segment bytes.
    fn assert_same_graph(got: &DataGraph, want: &DataGraph, what: &str) {
        assert_eq!(got.labels, want.labels, "{what}: labels");
        for (dir, csr) in [("fwd", &got.fwd), ("bwd", &got.bwd)] {
            assert!(csr.offsets.len() <= got.num_nodes() + 1, "{what}: {dir} rows past |V|");
        }
        let rows = |g: &DataGraph| {
            (0..g.num_nodes() as NodeId)
                .map(|v| (g.out_neighbors(v).to_vec(), g.in_neighbors(v).to_vec()))
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(got), rows(want), "{what}: rows");
        assert_eq!(got.num_edges(), want.num_edges(), "{what}: edge count");
        assert_eq!(got.bwd.targets.len(), got.num_edges(), "{what}: bwd edge count");
        let members = |g: &DataGraph| {
            g.inverted.iter().map(|m| (m.list.clone(), m.bits.to_vec())).collect::<Vec<_>>()
        };
        assert_eq!(members(got), members(want), "{what}: inverted lists and bitmaps");
        assert_eq!(got.names.names, want.names.names, "{what}: label names");
        assert_eq!(got.names.ids, want.names.ids, "{what}: name dictionary");
        assert_eq!(got.dead.to_vec(), want.dead.to_vec(), "{what}: tombstones");
        let bytes = |g: &DataGraph| crate::encode_segment(g, 7);
        assert!(bytes(got) == bytes(want), "{what}: segment bytes");
    }

    /// A random graph of 10 to 59 nodes labeled `A`, `B` and `C`.
    fn random_base(seed: u64) -> Arc<DataGraph> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut b = GraphBuilder::new();
        let n = 10 + (xorshift(&mut state) % 50) as NodeId;
        for v in 0..n {
            b.add_node_with_name(v % 3, ["A", "B", "C"][v as usize % 3]);
        }
        for _ in 0..(xorshift(&mut state) % (3 * n as u64)) {
            let u = (xorshift(&mut state) % n as u64) as NodeId;
            let v = (xorshift(&mut state) % n as u64) as NodeId;
            b.add_edge(u, v);
        }
        Arc::new(b.build())
    }

    /// A random overlay: `ops` random mutations plus named and numeric
    /// label growth, applied over `base`.
    fn random_overlay(base: Arc<DataGraph>, seed: u64, ops: usize) -> DeltaOverlay {
        let mut d = DeltaOverlay::new(base);
        let mut state = seed;
        let mut impact = CommitImpact::default();
        for i in 0..ops {
            let op = match i % 17 {
                5 => MutationOp::AddNode(LabelSpec::Named(format!("L{}", seed % 3 + i as u64 % 2))),
                11 => MutationOp::AddNode(LabelSpec::Id(d.num_labels() as Label)),
                _ => match d.random_mutation(&mut state, 4) {
                    Some(op) => op,
                    None => continue,
                },
            };
            // a random op may be invalid (a duplicate edge is a no-op,
            // an edge to a node removed earlier fails): skip those
            let _ = d.apply(&op, &mut impact);
        }
        d
    }

    #[test]
    fn materialize_equals_a_builder_oracle_on_random_overlays() {
        for seed in 1..=24u64 {
            let base = random_base(seed);
            // two generations, so the second base carries tombstones
            let first = random_overlay(base, seed, 60);
            let m1 = first.materialize();
            assert_same_graph(&m1, &builder_oracle(&first), &format!("seed {seed} gen 1"));
            let second = random_overlay(Arc::new(m1), seed + 100, 60);
            let m2 = second.materialize();
            assert_same_graph(&m2, &builder_oracle(&second), &format!("seed {seed} gen 2"));
            // an empty overlay materializes to its base
            let empty = DeltaOverlay::new(Arc::new(m2));
            assert_same_graph(&empty.materialize(), empty.base(), &format!("seed {seed} empty"));
        }
    }

    /// What one commit of a compaction chain holds.
    #[derive(Clone, Copy, Debug)]
    enum Kind {
        /// Added nodes (new labels among them) and removed isolated ones.
        Nodes,
        /// Added and removed edges.
        Edges,
        /// Any mutation, node removals that drop edges among them.
        Mixed,
    }

    /// Applies `count` random ops of `kind` to `d`; an op that fails
    /// (an edge at a removed node) is skipped.
    fn random_commit(d: &mut DeltaOverlay, kind: Kind, state: &mut u64, count: usize) {
        let mut impact = CommitImpact::default();
        for _ in 0..count {
            let n = d.num_nodes() as u64;
            let pick = |state: &mut u64| (xorshift(state) % n) as NodeId;
            let op = match kind {
                Kind::Nodes => match xorshift(state) % 8 {
                    0 | 1 => match pick(state) {
                        v if d.out_neighbors(v).is_empty() && d.in_neighbors(v).is_empty() => {
                            MutationOp::RemoveNode(v)
                        }
                        _ => continue,
                    },
                    2 => MutationOp::AddNode(LabelSpec::Named(format!("N{}", xorshift(state) % 3))),
                    3 => MutationOp::AddNode(LabelSpec::Id(d.num_labels() as Label)),
                    _ => MutationOp::AddNode(LabelSpec::Id(
                        (xorshift(state) % d.num_labels() as u64) as Label,
                    )),
                },
                Kind::Edges => match (pick(state), pick(state)) {
                    (u, v) if d.has_edge(u, v) => MutationOp::RemoveEdge(u, v),
                    (u, v) => MutationOp::AddEdge(u, v),
                },
                Kind::Mixed => match d.random_mutation(state, d.num_labels() as Label) {
                    Some(op) => op,
                    None => continue,
                },
            };
            let _ = d.apply(&op, &mut impact);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// A chain of compactions, each over the last one's result: every
        /// materialization equals the builder oracle, a node-only one
        /// keeps its base's CSR in both directions, and an edge-only one
        /// keeps every label part. The chain always holds a node-only
        /// compaction over an edge compaction and the other way round.
        #[test]
        fn compaction_chains_share_what_they_leave_alone_and_equal_the_oracle(
            seed in 1u64..1_000_000,
            kinds in proptest::prop::collection::vec(0usize..3, 0..6),
            counts in proptest::prop::collection::vec(1usize..24, 9),
        ) {
            let mut base = random_base(seed);
            let mut state = seed;
            let chain = [Kind::Edges, Kind::Nodes, Kind::Edges, Kind::Mixed].into_iter()
                .chain(kinds.iter().map(|&k| [Kind::Nodes, Kind::Edges, Kind::Mixed][k]));
            for (i, (kind, &count)) in chain.zip(counts.iter().cycle()).enumerate() {
                let mut d = DeltaOverlay::new(Arc::clone(&base));
                random_commit(&mut d, kind, &mut state, count);
                let m = d.materialize();
                let what = format!("seed {seed}, commit {i} ({kind:?})");
                assert_same_graph(&m, &builder_oracle(&d), &what);
                let shared = |a: bool, part: &str| {
                    proptest::prop_assert!(a, "{}: {} copied", what, part);
                    Ok(())
                };
                match kind {
                    Kind::Nodes => {
                        shared(Arc::ptr_eq(&m.fwd, &base.fwd), "fwd CSR")?;
                        shared(Arc::ptr_eq(&m.bwd, &base.bwd), "bwd CSR")?;
                    }
                    Kind::Edges => {
                        shared(Arc::ptr_eq(&m.labels, &base.labels), "labels")?;
                        shared(Arc::ptr_eq(&m.names, &base.names), "names")?;
                        shared(Arc::ptr_eq(&m.dead, &base.dead), "tombstones")?;
                        let lists = m.inverted.iter().zip(&base.inverted);
                        shared(lists.into_iter().all(|(a, b)| Arc::ptr_eq(a, b)), "a label")?;
                    }
                    Kind::Mixed => {}
                }
                base = Arc::new(m);
            }
        }
    }

    #[test]
    fn a_node_only_compaction_copies_only_the_labels_and_the_grown_label() {
        let base = small_base();
        let mut d = DeltaOverlay::new(Arc::clone(&base));
        apply_all(&mut d, &[MutationOp::AddNode(LabelSpec::Id(1)), MutationOp::RemoveNode(4)]);
        apply_all(&mut d, &[MutationOp::AddNode(LabelSpec::Id(2))]);
        let m = d.materialize();
        assert_same_graph(&m, &builder_oracle(&d), "node-only");
        assert!(Arc::ptr_eq(&m.fwd, &base.fwd) && Arc::ptr_eq(&m.bwd, &base.bwd), "CSR copied");
        assert!(Arc::ptr_eq(&m.names, &base.names), "names copied");
        assert!(!Arc::ptr_eq(&m.labels, &base.labels), "labels grew");
        let shared: Vec<bool> =
            m.inverted.iter().zip(&base.inverted).map(|(a, b)| Arc::ptr_eq(a, b)).collect();
        assert_eq!(shared, [true, true, false], "only label 2 gained a member");
        assert_eq!(m.out_neighbors(5), &[] as &[NodeId], "a row past the CSR is empty");
        assert_eq!((m.num_nodes(), m.num_live_nodes(), m.num_edges()), (6, 5, 3));
        // a clone shares every part
        let c = m.clone();
        assert!(Arc::ptr_eq(&c.fwd, &m.fwd) && Arc::ptr_eq(&c.labels, &m.labels));
        assert!(Arc::ptr_eq(&c.inverted[0], &m.inverted[0]) && Arc::ptr_eq(&c.dead, &m.dead));
    }

    /// Every row, both directions, of `d`.
    fn rows(d: &DeltaOverlay) -> Vec<(Vec<NodeId>, Vec<NodeId>)> {
        (0..d.num_nodes() as NodeId)
            .map(|v| (d.out_neighbors(v).to_vec(), d.in_neighbors(v).to_vec()))
            .collect()
    }

    /// Live rows only: a packed arena holds each row and its spare room.
    fn assert_packed(d: &DeltaOverlay, what: &str) {
        for (dir, p) in [("fwd", &d.fwd), ("bwd", &d.bwd)] {
            let live: usize = p.slots.values().map(|s| room(s.len as usize)).sum();
            assert_eq!(p.arena.len(), live, "{what}: {dir} arena carries garbage");
        }
    }

    #[test]
    fn a_commit_on_a_clone_leaves_the_published_overlay_unchanged() {
        let mut b = GraphBuilder::new();
        for v in 0..12 {
            b.add_node(v % 2);
        }
        for v in 0..12 {
            b.add_edge(v, (v + 1) % 12);
            b.add_edge(v, (v + 5) % 12);
        }
        let mut published = DeltaOverlay::new(Arc::new(b.build()));
        apply_all(
            &mut published,
            &[MutationOp::RemoveEdge(0, 1), MutationOp::AddEdge(0, 3), MutationOp::AddEdge(3, 0)],
        );
        let (before, graph, edges) =
            (rows(&published), published.materialize(), published.num_edges());
        // the commit: its ops patch the published rows again, grow them
        // past their room, clear a row and add a node
        let mut next = published.clone();
        assert_packed(&next, "fresh clone");
        let mut ops = vec![MutationOp::AddNode(LabelSpec::Id(1)), MutationOp::RemoveNode(5)];
        ops.extend((1..12).filter(|&w| w != 5).map(|w| MutationOp::AddEdge(0, w)));
        ops.extend((1..12).filter(|&w| w != 5).map(|w| MutationOp::AddEdge(w, 3)));
        ops.extend([MutationOp::RemoveEdge(3, 0), MutationOp::AddEdge(12, 0)]);
        let mut impact = CommitImpact::default();
        for op in &ops {
            let _ = next.apply(op, &mut impact);
        }
        assert!(next.out_neighbors(0).len() > before[0].0.len());
        assert_eq!(rows(&published), before, "published rows");
        assert_eq!(published.num_edges(), edges, "published edge count");
        assert_same_graph(&published.materialize(), &graph, "published materialization");
        assert_same_graph(&next.materialize(), &builder_oracle(&next), "the commit");
    }

    #[test]
    fn rows_repatched_over_a_long_commit_sequence_materialize_equal_to_the_oracle() {
        let mut b = GraphBuilder::new();
        for v in 0..40 {
            b.add_node(v % 3);
        }
        for v in 0..40 {
            b.add_edge(v, (v * 7 + 1) % 40);
        }
        let mut published = DeltaOverlay::new(Arc::new(b.build()));
        let mut state = 0x5EED_u64;
        // a hot set of 4 nodes, so the same rows grow, shrink and move
        // in every commit
        let mut hot = || (xorshift(&mut state) % 4) as NodeId;
        for commit in 0..300 {
            let mut next = published.clone();
            assert_packed(&next, &format!("clone before commit {commit}"));
            let mut impact = CommitImpact::default();
            for k in 0..12u64 {
                let (u, w) = (hot(), (hot() * 11 + k as NodeId) % 40);
                let op = if next.has_edge(u, w) {
                    MutationOp::RemoveEdge(u, w)
                } else {
                    MutationOp::AddEdge(u, w)
                };
                next.apply(&op, &mut impact).unwrap();
                let op = if next.has_edge(w, u) {
                    MutationOp::RemoveEdge(w, u)
                } else {
                    MutationOp::AddEdge(w, u)
                };
                next.apply(&op, &mut impact).unwrap();
            }
            published = next;
            if commit % 25 == 24 {
                let what = format!("commit {commit}");
                assert_same_graph(&published.materialize(), &builder_oracle(&published), &what);
            }
        }
    }

    #[test]
    fn added_edges_are_the_patches_minus_the_base() {
        let base = small_base();
        let mut d = DeltaOverlay::new(base);
        apply_all(
            &mut d,
            &[
                MutationOp::AddNode(LabelSpec::Id(1)), // id 4
                MutationOp::AddEdge(4, 0),
                MutationOp::AddEdge(3, 1),
                MutationOp::AddEdge(0, 3),
                MutationOp::RemoveEdge(0, 2),
                MutationOp::AddEdge(0, 1),
            ],
        );
        assert_eq!(d.added_edges(), vec![(0, 1), (0, 3), (3, 1), (4, 0)]);
        assert!(DeltaOverlay::new(small_base()).added_edges().is_empty());
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
