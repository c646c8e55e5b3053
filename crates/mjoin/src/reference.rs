//! The pre-CSR MJoin engine, kept verbatim as a **reference
//! implementation** over [`rig_index::reference::RefRig`]: per-step hash
//! probes into the adjacency maps, a materialized [`Bitset::multi_and`]
//! per recursion step and a clone of the base candidate set at the
//! unconstrained root.
//!
//! Used only by the differential suites, as the oracle; see
//! `rig_index::reference` for the same story on the index side. `Bj`
//! ordering falls back to `Jo` here — the differential comparisons run on
//! `Jo`/`Ri`, which both engines order identically for identical candidate
//! sets.

use std::time::Instant;

use rig_bitset::Bitset;
use rig_graph::NodeId;
use rig_index::reference::RefRig;
use rig_query::{PatternQuery, QNode};

use crate::{EnumOptions, EnumResult, SearchOrder};

/// Counts occurrences of `query` over the reference RIG with the original
/// (pre-CSR) enumeration loop.
pub fn ref_count(query: &PatternQuery, rig: &RefRig, opts: &EnumOptions) -> EnumResult {
    ref_enumerate(query, rig, opts, |_| true)
}

/// Enumerates occurrences over the reference RIG (tuples indexed by query
/// node id, like [`crate::enumerate`]).
pub fn ref_enumerate(
    query: &PatternQuery,
    rig: &RefRig,
    opts: &EnumOptions,
    mut visit: impl FnMut(&[NodeId]) -> bool,
) -> EnumResult {
    let order = ref_order(query, rig, opts.order);
    let mut result =
        EnumResult { count: 0, timed_out: false, limit_hit: false, order: order.clone(), steps: 0 };
    if rig.is_empty() || query.num_nodes() == 0 {
        return result;
    }
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
            constraints[pt].push((eid as u32, pf, true));
        } else {
            constraints[pf].push((eid as u32, pt, false));
        }
    }
    let mut tuple_by_pos = vec![0 as NodeId; n];
    let mut engine = RefEngine {
        rig,
        opts,
        order: &order,
        constraints: &constraints,
        started: Instant::now(),
        check_counter: 0,
        result: &mut result,
    };
    let mut out_tuple = vec![0 as NodeId; n];
    engine.recurse(0, &mut tuple_by_pos, &mut |tuple_by_pos, eng| {
        for (i, &q) in eng.order.iter().enumerate() {
            out_tuple[q as usize] = tuple_by_pos[i];
        }
        visit(&out_tuple)
    });
    result
}

/// The original greedy / topological orders against RefRig statistics.
fn ref_order(query: &PatternQuery, rig: &RefRig, strategy: SearchOrder) -> Vec<QNode> {
    let n = query.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    match strategy {
        SearchOrder::Jo | SearchOrder::Bj => jo_order(query, rig),
        SearchOrder::Ri => crate::order::ri_order(query),
    }
}

fn jo_order(query: &PatternQuery, rig: &RefRig) -> Vec<QNode> {
    let n = query.num_nodes();
    let mut order: Vec<QNode> = Vec::with_capacity(n);
    let mut used = vec![false; n];
    let start = (0..n as QNode).min_by_key(|&q| (rig.cos_len(q), q)).expect("non-empty query");
    order.push(start);
    used[start as usize] = true;
    while order.len() < n {
        let next = (0..n as QNode)
            .filter(|&q| !used[q as usize])
            .filter(|&q| query.neighbors(q).any(|(nb, _, _)| used[nb as usize]))
            .min_by_key(|&q| (rig.cos_len(q), q));
        let next = match next {
            Some(q) => q,
            None => (0..n as QNode)
                .filter(|&q| !used[q as usize])
                .min_by_key(|&q| (rig.cos_len(q), q))
                .unwrap(),
        };
        order.push(next);
        used[next as usize] = true;
    }
    order
}

struct RefEngine<'a> {
    rig: &'a RefRig,
    opts: &'a EnumOptions,
    order: &'a [QNode],
    constraints: &'a [Vec<(u32, usize, bool)>],
    started: Instant,
    check_counter: u32,
    result: &'a mut EnumResult,
}

impl RefEngine<'_> {
    fn stop(&mut self) -> bool {
        if self.result.timed_out || self.result.limit_hit {
            return true;
        }
        if let Some(limit) = self.opts.limit {
            if self.result.count >= limit {
                self.result.limit_hit = true;
                return true;
            }
        }
        self.check_counter += 1;
        if self.check_counter >= 1024 {
            self.check_counter = 0;
            if let Some(budget) = self.opts.timeout {
                if self.started.elapsed() > budget {
                    self.result.timed_out = true;
                    return true;
                }
            }
        }
        false
    }

    fn recurse(
        &mut self,
        i: usize,
        tuple: &mut [NodeId],
        emit: &mut impl FnMut(&[NodeId], &RefEngine<'_>) -> bool,
    ) -> bool {
        if i == self.order.len() {
            self.result.count += 1;
            let keep = emit(tuple, self);
            if let Some(limit) = self.opts.limit {
                if self.result.count >= limit {
                    self.result.limit_hit = true;
                    return false;
                }
            }
            return keep;
        }
        if self.stop() {
            return false;
        }
        self.result.steps += 1;
        let q = self.order[i];

        // Multi-way intersection of cos(q) with the adjacency lists of all
        // bound neighbors — allocating per step, as the original did.
        let mut operands: Vec<&Bitset> = Vec::with_capacity(self.constraints[i].len());
        for &(eid, bound_pos, bound_is_source) in &self.constraints[i] {
            let bound_node = tuple[bound_pos];
            let adj = if bound_is_source {
                self.rig.successors(eid, bound_node)
            } else {
                self.rig.predecessors(eid, bound_node)
            };
            match adj {
                Some(s) => operands.push(s),
                None => return true, // empty adjacency: dead branch
            }
        }
        let base = &self.rig.cos[q as usize];
        let cos_i = if operands.is_empty() {
            base.clone()
        } else {
            let mut all: Vec<&Bitset> = Vec::with_capacity(operands.len() + 1);
            all.push(base);
            all.extend(operands);
            Bitset::multi_and(&all)
        };
        for v in cos_i.iter() {
            if self.opts.injective && tuple[..i].contains(&v) {
                continue;
            }
            tuple[i] = v;
            if !self.recurse(i + 1, tuple, emit) {
                return false;
            }
        }
        true
    }
}
