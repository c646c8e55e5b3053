//! Batched set reachability over the condensation DAG: the descendants
//! or ancestors of a *set* of nodes in one multi-source sweep, and the
//! targets each source reaches.
//!
//! The double-simulation select phase (§4.2) repeatedly asks, for a
//! reachability query edge `(qi, qj)`: *which candidate nodes of `qi` reach
//! at least one candidate of `qj`?* That is exactly membership in the
//! ancestors of `FB(qj)` — far cheaper than per-pair probes when candidate
//! sets are large. [`Condensation::descendants_of_set`] and
//! [`Condensation::ancestors_of_set`] answer it in O(|C| + |E_C| +
//! |sources|) for `|C|` components.
//!
//! RIG expansion asks *which targets does each source reach?*;
//! [`Condensation::reach_runs`] answers it for all pairs in one sweep.

use crate::scc::DagAdjacency;
use crate::Condensation;
use rig_bitset::Bitset;
use rig_graph::{Deadline, NodeId};

/// Bytes of target-bit rows [`Condensation::reach_runs`] holds at once;
/// wider target sets are swept in blocks of 64-bit words.
const ROW_BYTES: usize = 4 << 20;

/// A node set produced by a condensation sweep, held as one flag per
/// component of the [`Condensation`] it was swept on.
pub struct ComponentSet<'a> {
    cond: &'a Condensation,
    member: Vec<bool>,
}

impl ComponentSet<'_> {
    /// True iff node `v` is in the set.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.member[self.cond.component(v) as usize]
    }
}

impl Condensation {
    /// Every node `v` of the graph this condensation was built from such
    /// that some `s ∈ sources` has a non-empty path `s ⇝ v`. A source is in
    /// it only if a source reaches it, e.g. on a cycle or downstream of
    /// another source.
    pub fn descendants_of_set(&self, sources: &Bitset) -> ComponentSet<'_> {
        self.sweep(sources.iter(), &self.dag_fwd)
    }

    /// Every node `v` of the graph this condensation was built from that
    /// has a non-empty path to some `s ∈ sources`.
    pub fn ancestors_of_set(&self, sources: &Bitset) -> ComponentSet<'_> {
        self.sweep(sources.iter(), &self.dag_bwd)
    }

    /// Marks every component reached from a source's component by a
    /// non-empty DAG path, plus every cyclic source component (its members
    /// reach each other, themselves included). A trivial source component
    /// is marked only if another source reaches it: its sole member has no
    /// non-empty path back to itself.
    fn sweep(&self, sources: impl Iterator<Item = NodeId>, dag: &DagAdjacency) -> ComponentSet<'_> {
        let mut member = vec![false; self.count];
        let mut frontier: Vec<u32> = Vec::new();
        for s in sources {
            let c = self.component(s) as usize;
            // A cyclic component is marked on first sight, so it is queued
            // once; a trivial one holds a single node, so it is seen once.
            if !member[c] {
                member[c] = self.nontrivial[c];
                frontier.push(c as u32);
            }
        }
        // A trivial seed reached later is queued a second time; its
        // children are already marked by then, so the rescan is cheap.
        let mut head = 0;
        while head < frontier.len() {
            let c = frontier[head] as usize;
            head += 1;
            for &d in &dag[c] {
                if !member[d as usize] {
                    member[d as usize] = true;
                    frontier.push(d);
                }
            }
        }
        ComponentSet { cond: self, member }
    }

    /// The targets each source reaches by a non-empty path, as indexes
    /// into `targets`, one ascending run per source component. Sources in
    /// one component reach the same targets, so they share its run; runs
    /// are numbered in order of first use. `None` once `dl` trips; it is
    /// charged once per region component per block.
    pub fn reach_runs(
        &self,
        sources: &[NodeId],
        targets: &[NodeId],
        dl: Deadline,
    ) -> Option<GroupedRuns> {
        self.reach_runs_in_blocks(sources, targets, ROW_BYTES, dl)
    }

    /// Numbers the components of `nodes` in order of first appearance:
    /// `(of, first)`, where `of[i]` is the number of `nodes[i]`'s component
    /// (empty when each node has its own) and `first[k]` is the first node
    /// of component number `k`.
    fn number_components(&self, nodes: &[NodeId]) -> (Vec<u32>, Vec<NodeId>) {
        let mut number = vec![u32::MAX; self.count];
        let mut first = Vec::new();
        let mut of: Vec<u32> = nodes
            .iter()
            .map(|&v| {
                let c = self.component(v) as usize;
                if number[c] == u32::MAX {
                    number[c] = first.len() as u32;
                    first.push(v);
                }
                number[c]
            })
            .collect();
        if first.len() == nodes.len() {
            of.clear();
        }
        (of, first)
    }

    /// [`Condensation::reach_runs`] holding at most `row_bytes` of rows
    /// (at least one word per region component).
    ///
    /// The region is every component that descends from a source's
    /// component (or is one) and reaches a target's component (or is
    /// one); nothing outside it lies between a source and a target. Each
    /// region component carries a row of target bits: its own targets,
    /// plus its DAG children's rows, so after a visit in reverse
    /// topological order the row holds every target the component's
    /// members reach or are. A source's run is its component's row, less
    /// the sole member of a trivial component, which never reaches itself.
    fn reach_runs_in_blocks(
        &self,
        sources: &[NodeId],
        targets: &[NodeId],
        row_bytes: usize,
        mut dl: Deadline,
    ) -> Option<GroupedRuns> {
        const NONE: u32 = u32::MAX;
        // A run's first source is the sole member of a trivial component.
        let (run_of, run_src) = self.number_components(sources);
        let (target_group, _) = self.number_components(targets);
        let mut run_of_comp = vec![NONE; self.count];
        for (r, &s) in run_src.iter().enumerate() {
            run_of_comp[self.component(s) as usize] = r as u32;
        }
        let mut down = self.sweep(sources.iter().copied(), &self.dag_fwd).member;
        sources.iter().for_each(|&s| down[self.component(s) as usize] = true);
        let mut up = self.sweep(targets.iter().copied(), &self.dag_bwd).member;
        targets.iter().for_each(|&t| up[self.component(t) as usize] = true);
        // Region components in reverse topological order, so every child's
        // row precedes its parents'; `slot[c]` is `c`'s place in it.
        let order: Vec<u32> = self
            .topo
            .iter()
            .rev()
            .copied()
            .filter(|&c| down[c as usize] && up[c as usize])
            .collect();
        let mut slot = vec![NONE; self.count];
        order.iter().enumerate().for_each(|(i, &c)| slot[c as usize] = i as u32);

        let words = targets.len().div_ceil(64);
        let width = (row_bytes / (8 * order.len().max(1))).clamp(1, words.max(1));
        let mut rows = vec![0u64; order.len() * width];
        let mut runs: Vec<Vec<u32>> = vec![Vec::new(); run_src.len()];
        for first in (0..words).step_by(width) {
            let w = width.min(words - first);
            let base = first * 64;
            let rows = &mut rows[..order.len() * w];
            rows.fill(0);
            for (j, &t) in targets.iter().enumerate().skip(base).take(w * 64) {
                let i = slot[self.component(t) as usize];
                if i != NONE {
                    rows[i as usize * w + (j - base) / 64] |= 1 << (j % 64);
                }
            }
            for (i, &c) in order.iter().enumerate() {
                if dl.charge() {
                    return None;
                }
                let (done, row) = rows.split_at_mut(i * w);
                let row = &mut row[..w];
                for &d in &self.dag_fwd[c as usize] {
                    let j = slot[d as usize] as usize;
                    if j != NONE as usize {
                        row.iter_mut().zip(&done[j * w..][..w]).for_each(|(a, b)| *a |= b);
                    }
                }
                let r = run_of_comp[c as usize] as usize;
                let Some(run) = runs.get_mut(r) else { continue };
                let own = (!self.nontrivial[c as usize]).then_some(run_src[r]);
                for (k, &word) in row.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let j = base + k * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        if Some(targets[j]) != own {
                            run.push(j as u32);
                        }
                    }
                }
            }
        }
        let mut offsets = vec![0u32];
        let mut out = Vec::new();
        for run in runs {
            out.extend(run);
            assert!(u32::try_from(out.len()).is_ok(), "reachability runs exceed u32::MAX ids");
            offsets.push(out.len() as u32);
        }
        Some(GroupedRuns { offsets, targets: out, run_of, target_group })
    }
}

/// Adjacency runs in CSR form: run `r` is `targets[offsets[r]..offsets[r +
/// 1]]`, ascending target indexes. Source `s` reads run `run_of[s]`, and
/// targets with equal `target_group` have the same sources; either map is
/// empty when it is the identity.
pub struct GroupedRuns {
    pub offsets: Vec<u32>,
    pub targets: Vec<u32>,
    pub run_of: Vec<u32>,
    pub target_group: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{naive_reaches, random_graph};

    #[test]
    fn matches_per_node_reachability() {
        for seed in 0..6u64 {
            let g = random_graph(50, 110, seed);
            let c = Condensation::new(&g);
            let sources = Bitset::from_slice(&[0, 7, 23]);
            let desc = c.descendants_of_set(&sources);
            let anc = c.ancestors_of_set(&sources);
            for v in 0..50u32 {
                let expect_desc = sources.iter().any(|s| naive_reaches(&g, s, v));
                let expect_anc = sources.iter().any(|s| naive_reaches(&g, v, s));
                assert_eq!(desc.contains(v), expect_desc, "seed={seed} v={v} desc");
                assert_eq!(anc.contains(v), expect_anc, "seed={seed} v={v} anc");
            }
        }
    }

    #[test]
    fn empty_sources_empty_result() {
        let g = random_graph(10, 20, 0);
        let c = Condensation::new(&g);
        let (desc, anc) =
            (c.descendants_of_set(&Bitset::new()), c.ancestors_of_set(&Bitset::new()));
        assert!((0..10).all(|v| !desc.contains(v) && !anc.contains(v)));
    }

    /// The runs of `reach_runs_in_blocks` with `row_bytes`, one list of
    /// target indexes per source.
    fn runs_per_source(
        c: &Condensation,
        sources: &[NodeId],
        targets: &[NodeId],
        row_bytes: usize,
    ) -> Vec<Vec<u32>> {
        let runs = c.reach_runs_in_blocks(sources, targets, row_bytes, Deadline::new(None));
        let runs = runs.expect("no deadline");
        let run = |i: usize| runs.run_of.get(i).map_or(i, |&r| r as usize);
        let bounds = |r: usize| runs.offsets[r] as usize..runs.offsets[r + 1] as usize;
        (0..sources.len()).map(|i| runs.targets[bounds(run(i))].to_vec()).collect()
    }

    /// One-word blocks and one unblocked pass give the same runs, and both
    /// equal naive reachability, at target counts around word boundaries.
    #[test]
    fn reach_runs_agree_across_block_widths() {
        for seed in 0..4u64 {
            // n/m near 1 leaves many trivial components, some self-loops
            // and a few small cycles.
            let g = random_graph(300, 330, seed);
            let c = Condensation::new(&g);
            let sources: Vec<NodeId> = (0..300).filter(|v| v % 3 == 0).collect();
            for k in [63usize, 64, 65, 129] {
                let targets: Vec<NodeId> = (0..300).filter(|v| v % 2 == 0).take(k).collect();
                let blocked = runs_per_source(&c, &sources, &targets, 0);
                let unblocked = runs_per_source(&c, &sources, &targets, usize::MAX);
                assert_eq!(blocked, unblocked, "seed={seed} k={k}");
                for (i, &u) in sources.iter().enumerate() {
                    let expect: Vec<u32> = (0..k as u32)
                        .filter(|&j| naive_reaches(&g, u, targets[j as usize]))
                        .collect();
                    assert_eq!(blocked[i], expect, "seed={seed} k={k} u={u}");
                }
            }
        }
    }

    #[test]
    fn reach_runs_stop_at_a_past_deadline() {
        let g = random_graph(50, 110, 0);
        let c = Condensation::new(&g);
        let all: Vec<NodeId> = (0..50).collect();
        assert!(c.reach_runs(&all, &all, Deadline::new(Some(std::time::Instant::now()))).is_none());
    }

    #[test]
    fn source_on_cycle_is_its_own_descendant() {
        use rig_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        for _ in 0..2 {
            b.add_node(0);
        }
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        let g = b.build();
        let c = Condensation::new(&g);
        let d = c.descendants_of_set(&Bitset::from_slice(&[0]));
        assert!(d.contains(0));
        assert!(d.contains(1));
    }
}
