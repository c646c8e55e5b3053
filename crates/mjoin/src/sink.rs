//! Streaming result consumption.
//!
//! A [`ResultSink`] receives occurrence tuples as MJoin produces them, so
//! callers consume matches **without materializing the answer set**: a
//! count-only sink keeps a single counter, a first-k sink keeps at most
//! `k` tuples, a batched sink hands out fixed-size blocks to a flush
//! callback. Every enumeration entry point — [`crate::enumerate_sink`],
//! [`crate::count`], [`crate::par_enumerate`] — is built on this trait;
//! the closure-based [`crate::enumerate`] API wraps its visitor in a
//! [`FnSink`].
//!
//! Under [`crate::par_enumerate`] each worker owns a **private** sink (no
//! locks on the emit path); the per-worker sinks are returned to the
//! caller for merging. A sink that returns `false` from [`ResultSink::push`]
//! requests early termination of the whole enumeration (all workers, in
//! the parallel case) — it does *not* set `limit_hit`, which is reserved
//! for the engine-enforced [`crate::EnumOptions::limit`] budget.

use rig_graph::NodeId;

/// A consumer of occurrence tuples (indexed by query node id).
pub trait ResultSink {
    /// Receives one occurrence. Return `false` to stop the enumeration
    /// (globally — in parallel runs every worker stops promptly).
    fn push(&mut self, tuple: &[NodeId]) -> bool;

    /// Called exactly once when the (worker-local) enumeration ends, so
    /// buffering sinks can flush their tail. Default: no-op.
    fn finish(&mut self) {}
}

/// Adapts a `FnMut(&[NodeId]) -> bool` visitor into a sink.
pub struct FnSink<F>(pub F);

impl<F: FnMut(&[NodeId]) -> bool> ResultSink for FnSink<F> {
    #[inline]
    fn push(&mut self, tuple: &[NodeId]) -> bool {
        (self.0)(tuple)
    }
}

/// Count-only sink: O(1) space, no per-tuple work beyond one increment.
#[derive(Debug, Default, Clone)]
pub struct CountSink {
    pub count: u64,
}

impl ResultSink for CountSink {
    #[inline]
    fn push(&mut self, _tuple: &[NodeId]) -> bool {
        self.count += 1;
        true
    }
}

/// Keeps the first `k` tuples it sees and then asks the enumeration to
/// stop. In a parallel run each worker holds its own `FirstKSink`, so up
/// to `threads × k` tuples may be retained before the stop propagates;
/// the caller picks its `k` from the merged sinks.
#[derive(Debug, Clone)]
pub struct FirstKSink {
    k: usize,
    pub tuples: Vec<Vec<NodeId>>,
}

impl FirstKSink {
    pub fn new(k: usize) -> Self {
        FirstKSink { k, tuples: Vec::new() }
    }
}

impl ResultSink for FirstKSink {
    fn push(&mut self, tuple: &[NodeId]) -> bool {
        if self.tuples.len() < self.k {
            self.tuples.push(tuple.to_vec());
        }
        self.tuples.len() < self.k
    }
}

/// Collects every tuple (tests and small answers only — this is the one
/// sink that *does* materialize the answer).
#[derive(Debug, Default, Clone)]
pub struct CollectSink {
    pub tuples: Vec<Vec<NodeId>>,
}

impl ResultSink for CollectSink {
    fn push(&mut self, tuple: &[NodeId]) -> bool {
        self.tuples.push(tuple.to_vec());
        true
    }
}

/// Batches embeddings into a flat `NodeId` buffer and flushes it to a
/// callback every `batch_tuples` occurrences (and once more at the end for
/// the tail). The flush receives `(flat_buffer, arity)`; tuple `i` of the
/// batch is `flat[i * arity..(i + 1) * arity]`. Space is O(batch), not
/// O(answer) — the streaming analogue of collecting.
pub struct BatchSink<F: FnMut(&[NodeId], usize)> {
    arity: usize,
    cap: usize,
    buf: Vec<NodeId>,
    flush: F,
    /// Total tuples pushed through this sink.
    pub pushed: u64,
}

impl<F: FnMut(&[NodeId], usize)> BatchSink<F> {
    /// `arity` = query node count; `batch_tuples` = tuples per flush.
    pub fn new(arity: usize, batch_tuples: usize, flush: F) -> Self {
        let cap = batch_tuples.max(1);
        BatchSink { arity, cap, buf: Vec::with_capacity(cap * arity.max(1)), flush, pushed: 0 }
    }
}

impl<F: FnMut(&[NodeId], usize)> ResultSink for BatchSink<F> {
    fn push(&mut self, tuple: &[NodeId]) -> bool {
        debug_assert_eq!(tuple.len(), self.arity);
        self.buf.extend_from_slice(tuple);
        self.pushed += 1;
        if self.buf.len() >= self.cap * self.arity.max(1) {
            (self.flush)(&self.buf, self.arity);
            self.buf.clear();
        }
        true
    }

    fn finish(&mut self) {
        if !self.buf.is_empty() {
            (self.flush)(&self.buf, self.arity);
            self.buf.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_sink_delegates() {
        let mut seen = 0;
        {
            let mut s = FnSink(|t: &[NodeId]| {
                seen += t.len();
                true
            });
            assert!(s.push(&[1, 2]));
            s.finish();
        }
        assert_eq!(seen, 2);
    }

    #[test]
    fn count_sink_counts() {
        let mut s = CountSink::default();
        for _ in 0..5 {
            assert!(s.push(&[0]));
        }
        assert_eq!(s.count, 5);
    }

    #[test]
    fn first_k_stops_after_k() {
        let mut s = FirstKSink::new(2);
        assert!(s.push(&[1]));
        assert!(!s.push(&[2]));
        assert!(!s.push(&[3]));
        assert_eq!(s.tuples, vec![vec![1], vec![2]]);
    }

    #[test]
    fn batch_sink_flushes_full_batches_and_tail() {
        let mut batches: Vec<(Vec<NodeId>, usize)> = Vec::new();
        {
            let mut s = BatchSink::new(2, 2, |flat: &[NodeId], arity| {
                batches.push((flat.to_vec(), arity));
            });
            for t in [[0, 1], [2, 3], [4, 5]] {
                assert!(s.push(&t));
            }
            s.finish();
            assert_eq!(s.pushed, 3);
        }
        assert_eq!(batches, vec![(vec![0, 1, 2, 3], 2), (vec![4, 5], 2)]);
    }
}
