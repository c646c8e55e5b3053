//! BFL — Bloom Filter Labeling (Su, Zhu, Wei, Yu: "Reachability Querying:
//! Can It Be Even Faster?", TKDE 2017), the reachability scheme the paper
//! uses for all three matchers (§7.1).
//!
//! Per condensation component we store:
//!
//! * an interval label (from [`crate::interval`]) — O(1) negative cut and
//!   O(1) positive hit for DFS-tree descendants;
//! * a k-bit Bloom filter `Lout` summarizing the hashes of all descendants
//!   and `Lin` summarizing all ancestors — `h(v) ∉ Lout(u)` or
//!   `h(u) ∉ Lin(v)` are O(1) negative cuts;
//! * a guided DFS fallback that prunes with both label kinds.
//!
//! Construction is two linear passes over the condensation DAG (reverse
//! topological for `Lout`, topological for `Lin`), so index build time stays
//! tiny even on large graphs — the property Fig. 18(a) contrasts against
//! transitive-closure and catalog construction.

use std::time::Instant;

use crate::interval::IntervalLabels;
use crate::scc::Condensation;
use crate::Reachability;
use rig_graph::{DataGraph, NodeId};

/// Number of 64-bit words per Bloom filter (256 bits).
const FILTER_WORDS: usize = 4;
const FILTER_BITS: u64 = (FILTER_WORDS * 64) as u64;

type Filter = [u64; FILTER_WORDS];

#[inline]
fn hash_component(c: u32) -> (usize, u64) {
    // Fibonacci hashing into the filter bit space.
    let h = (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - 8);
    let bit = h % FILTER_BITS;
    ((bit >> 6) as usize, 1u64 << (bit & 63))
}

#[inline]
fn filter_contains(f: &Filter, c: u32) -> bool {
    let (w, m) = hash_component(c);
    f[w] & m != 0
}

/// The filter holding only `c`'s own hash.
fn self_filter(c: u32) -> Filter {
    let (w, m) = hash_component(c);
    let mut f = [0u64; FILTER_WORDS];
    f[w] = m;
    f
}

#[inline]
fn filter_or(dst: &mut Filter, src: &Filter) {
    for i in 0..FILTER_WORDS {
        dst[i] |= src[i];
    }
}

/// The BFL reachability index.
///
/// Plain data end to end: the guided-DFS fallback keeps its visited set in
/// a per-thread scratch buffer, so the index is `Sync` and concurrent
/// reads sharing one index (a session's request threads) probe it with
/// zero coordination (no shared scratch lock to convoy on).
pub struct BflIndex {
    cond: Condensation,
    intervals: IntervalLabels,
    lout: Vec<Filter>,
    lin: Vec<Filter>,
    build_secs: f64,
}

impl BflIndex {
    /// Builds the index for `g`.
    pub fn new(g: &DataGraph) -> Self {
        let start = Instant::now();
        let cond = Condensation::new(g);
        let intervals = IntervalLabels::new(&cond);
        let n = cond.count;
        let mut lout: Vec<Filter> = vec![[0; FILTER_WORDS]; n];
        let mut lin: Vec<Filter> = vec![[0; FILTER_WORDS]; n];
        // Lout in reverse topological order: self hash ∪ children's Lout.
        for &c in cond.topo.iter().rev() {
            let mut f = self_filter(c);
            for &d in &cond.dag_fwd[c as usize] {
                filter_or(&mut f, &lout[d as usize]);
            }
            lout[c as usize] = f;
        }
        // Lin in topological order: self hash ∪ parents' Lin.
        for &c in cond.topo.iter() {
            let mut f = self_filter(c);
            for &p in &cond.dag_bwd[c as usize] {
                filter_or(&mut f, &lin[p as usize]);
            }
            lin[c as usize] = f;
        }
        let build_secs = start.elapsed().as_secs_f64();
        BflIndex { cond, intervals, lout, lin, build_secs }
    }

    /// This index grown to `num_nodes` nodes. Each node past the indexed
    /// graph becomes a trivial singleton component with no DAG edges, the
    /// next interval clock value and its self-hash filters; the
    /// components, DAG, intervals and filters of the indexed graph are
    /// reused as they are.
    ///
    /// The result answers exactly for a graph that keeps every node and
    /// edge of the indexed one, whose new nodes carry no edges, and whose
    /// new edges `u -> v` all join nodes the index already reports
    /// `reaches(u, v)` for: such a graph has the same reachability, so the
    /// same components and the same component order. Checking that
    /// precondition is the caller's job. [`Reachability::build_seconds`]
    /// of the result is the time of the extension.
    pub fn extended(&self, num_nodes: usize) -> BflIndex {
        let start = Instant::now();
        let added = num_nodes.saturating_sub(self.cond.comp.len());
        let cond = self.cond.with_singletons(added);
        let intervals = self.intervals.with_singletons(added);
        let new = self.cond.count as u32..cond.count as u32;
        let mut lout = Vec::with_capacity(cond.count);
        lout.extend_from_slice(&self.lout);
        lout.extend(new.clone().map(self_filter));
        let mut lin = Vec::with_capacity(cond.count);
        lin.extend_from_slice(&self.lin);
        lin.extend(new.map(self_filter));
        let build_secs = start.elapsed().as_secs_f64();
        BflIndex { cond, intervals, lout, lin, build_secs }
    }

    /// The underlying condensation (shared with node selection and RIG
    /// expansion).
    pub fn condensation(&self) -> &Condensation {
        &self.cond
    }

    /// Component-level reachability (`cu` can reach `cv` through DAG edges,
    /// `cu != cv`).
    fn comp_reaches(&self, cu: u32, cv: u32) -> bool {
        if cu == cv {
            return true;
        }
        if self.intervals.tree_descendant(cu, cv) {
            return true;
        }
        if self.intervals.cannot_reach(cu, cv) {
            return false;
        }
        if !filter_contains(&self.lout[cu as usize], cv)
            || !filter_contains(&self.lin[cv as usize], cu)
        {
            return false;
        }
        // Guided DFS with interval/Bloom pruning. The visited set is a
        // per-thread epoch-stamped buffer: O(1) amortized reset, no
        // per-probe allocation, and no shared state — concurrent probes
        // never serialize.
        crate::scratch::with_bfl_scratch(self.cond.count, |visited, epoch| {
            let mut stack: Vec<u32> = vec![cu];
            visited.visit(cu as usize, epoch);
            while let Some(c) = stack.pop() {
                for &d in &self.cond.dag_fwd[c as usize] {
                    if d == cv || self.intervals.tree_descendant(d, cv) {
                        return true;
                    }
                    if self.intervals.cannot_reach(d, cv)
                        || !filter_contains(&self.lout[d as usize], cv)
                    {
                        continue;
                    }
                    if visited.visit(d as usize, epoch) {
                        stack.push(d);
                    }
                }
            }
            false
        })
    }
}

impl Reachability for BflIndex {
    fn reaches(&self, u: NodeId, v: NodeId) -> bool {
        let cu = self.cond.component(u);
        let cv = self.cond.component(v);
        if cu == cv {
            // Same SCC: a non-empty path exists iff the SCC is cyclic.
            return self.cond.nontrivial[cu as usize];
        }
        self.comp_reaches(cu, cv)
    }

    fn build_seconds(&self) -> f64 {
        self.build_secs
    }

    fn name(&self) -> &'static str {
        "BFL"
    }

    fn condensation(&self) -> Option<&Condensation> {
        Some(&self.cond)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{naive_reaches, random_graph};

    #[test]
    fn matches_naive_on_random_graphs() {
        for seed in 0..8u64 {
            let g = random_graph(80, 160, seed);
            let idx = BflIndex::new(&g);
            for u in 0..80u32 {
                for v in 0..80u32 {
                    assert_eq!(
                        idx.reaches(u, v),
                        naive_reaches(&g, u, v),
                        "seed={seed} u={u} v={v}"
                    );
                }
            }
        }
    }

    #[test]
    fn self_reachability_requires_cycle() {
        let g = random_graph(5, 0, 0);
        let idx = BflIndex::new(&g);
        for v in 0..5u32 {
            assert!(!idx.reaches(v, v));
        }
    }

    #[test]
    fn cycle_members_reach_themselves() {
        use rig_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        for _ in 0..3 {
            b.add_node(0);
        }
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(1, 2);
        let g = b.build();
        let idx = BflIndex::new(&g);
        assert!(idx.reaches(0, 0));
        assert!(idx.reaches(1, 1));
        assert!(!idx.reaches(2, 2));
        assert!(idx.reaches(0, 2));
        assert!(!idx.reaches(2, 0));
    }

    #[test]
    fn extension_answers_for_isolated_nodes_and_implied_edges() {
        use rig_graph::GraphBuilder;
        for seed in 0..6u64 {
            let g = random_graph(40, 70, seed);
            let idx = BflIndex::new(&g);
            // five isolated nodes, plus a sample of the edges the index
            // already implies (self-loops on cycles included)
            let mut b = GraphBuilder::new();
            for _ in 0..45 {
                b.add_node(0);
            }
            for (u, v) in g.edges() {
                b.add_edge(u, v);
            }
            for u in 0..40u32 {
                for v in 0..40u32 {
                    if (u * 7 + v) % 5 == 0 && idx.reaches(u, v) {
                        b.add_edge(u, v);
                    }
                }
            }
            let h = b.build();
            let ext = idx.extended(45);
            assert_eq!(ext.condensation().count, idx.condensation().count + 5);
            for u in 0..45u32 {
                for v in 0..45u32 {
                    assert_eq!(ext.reaches(u, v), naive_reaches(&h, u, v), "seed={seed} {u}->{v}");
                }
            }
        }
    }

    #[test]
    fn build_time_recorded() {
        let g = random_graph(100, 300, 7);
        let idx = BflIndex::new(&g);
        assert!(idx.build_seconds() >= 0.0);
        assert_eq!(idx.name(), "BFL");
    }

    #[test]
    fn repeated_fallback_probes_stay_correct() {
        // Hammer the guided-DFS fallback path; per-call scratch means no
        // cross-call state to corrupt.
        let g = random_graph(40, 120, 3);
        let idx = BflIndex::new(&g);
        let expect = idx.reaches(0, 39);
        for _ in 0..1000 {
            assert_eq!(idx.reaches(0, 39), expect);
        }
    }

    /// The index is probed from many threads at once (concurrent reads of
    /// one session); answers must match the single-threaded ones.
    #[test]
    fn concurrent_probes_agree() {
        let g = random_graph(60, 150, 11);
        let idx = BflIndex::new(&g);
        let expect: Vec<bool> = (0..60u32)
            .flat_map(|u| (0..60u32).map(move |v| (u, v)))
            .map(|(u, v)| idx.reaches(u, v))
            .collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let got: Vec<bool> = (0..60u32)
                        .flat_map(|u| (0..60u32).map(move |v| (u, v)))
                        .map(|(u, v)| idx.reaches(u, v))
                        .collect();
                    assert_eq!(got, expect);
                });
            }
        });
    }
}
