//! Reusable per-thread visited-set scratch for graph traversals.
//!
//! Traversal fallbacks (the BFL guided DFS, the snapshot-overlay BFS) need
//! a visited set per call. Allocating one per probe costs O(|V|) zeroing
//! before any work; a shared buffer behind a lock serializes concurrent
//! readers. This epoch-stamped buffer in a `thread_local` gives
//! both properties up: O(1) amortized reset (bump the epoch; the array is
//! only re-zeroed on the rare u32 wraparound) and zero cross-thread
//! coordination, so the indexes that use it stay plain-data `Sync`.

use std::cell::RefCell;

/// An epoch-stamped visited set: `stamp[i] == epoch` means visited in the
/// current traversal.
#[derive(Default)]
pub(crate) struct VisitScratch {
    stamp: Vec<u32>,
    epoch: u32,
}

impl VisitScratch {
    /// Starts a new traversal over `n` slots; returns the epoch to stamp
    /// with. Grows (never shrinks) the buffer and handles epoch wrap.
    pub(crate) fn begin(&mut self, n: usize) -> u32 {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }

    /// Marks `i` visited; returns `true` iff it was not yet visited this
    /// traversal.
    #[inline]
    pub(crate) fn visit(&mut self, i: usize, epoch: u32) -> bool {
        if self.stamp[i] == epoch {
            false
        } else {
            self.stamp[i] = epoch;
            true
        }
    }
}

/// Runs `f` with this thread's scratch, initialized for `n` slots.
/// Traversals must not nest within one callback — each user gets its own
/// keyed buffer below to keep the BFL fallback and the overlay BFS from
/// clobbering each other even if one ever calls into the other.
macro_rules! scratch_key {
    ($name:ident) => {
        pub(crate) fn $name<R>(n: usize, f: impl FnOnce(&mut VisitScratch, u32) -> R) -> R {
            thread_local! {
                static SCRATCH: RefCell<VisitScratch> = RefCell::new(VisitScratch::default());
            }
            SCRATCH.with(|s| {
                let mut s = s.borrow_mut();
                let epoch = s.begin(n);
                f(&mut s, epoch)
            })
        }
    };
}

scratch_key!(with_bfl_scratch);
scratch_key!(with_overlay_scratch);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_reset_in_o1_and_survive_wrap() {
        let mut s = VisitScratch::default();
        let e1 = s.begin(4);
        assert!(s.visit(2, e1));
        assert!(!s.visit(2, e1));
        let e2 = s.begin(4);
        assert_ne!(e1, e2);
        assert!(s.visit(2, e2), "new epoch forgets old visits");
        // force wraparound
        s.epoch = u32::MAX;
        let e3 = s.begin(8);
        assert_eq!(e3, 1);
        assert!(s.visit(7, e3));
    }

    #[test]
    fn thread_local_helpers_are_independent() {
        with_bfl_scratch(4, |s, e| {
            assert!(s.visit(0, e));
            with_overlay_scratch(4, |t, f| {
                assert!(t.visit(0, f), "distinct buffers");
            });
            assert!(!s.visit(0, e));
        });
    }
}
