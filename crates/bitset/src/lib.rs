//! Roaring-style compressed bitmaps over `u32` keys.
//!
//! This crate is the set substrate of the rigmatch workspace. The paper
//! ("Evaluating Hybrid Graph Pattern Queries Using Runtime Index Graphs",
//! EDBT 2023, §6) stores candidate occurrence sets and runtime-index-graph
//! adjacency lists as RoaringBitmap instances and implements its multi-way
//! joins as bitmap intersections. We implement the same container design
//! from scratch:
//!
//! * the key space is split into 2^16 *chunks* of 2^16 values each;
//! * a sparse chunk (≤ [`ARRAY_MAX`] values) is a sorted `Vec<u16>`;
//! * a dense chunk is a 1024-word (`u64`) bitmap;
//! * containers convert between the two representations automatically.
//!
//! On top of the containers we provide the aggregation utilities the paper
//! relies on: pairwise intersection, union and difference, **multi-way**
//! intersection ([`Bitset::multi_and`] — the `FastAggregation` analogue),
//! and cardinality / emptiness fast paths used by the join ordering
//! heuristics.
//!
//! The API is deliberately close to a sorted `u32` set so the rest of the
//! workspace can treat it as an opaque set type.

mod container;
mod iter;

pub use container::{Container, ARRAY_MAX, BITMAP_WORDS};
pub use iter::Iter;

/// A compressed bitmap of `u32` values.
///
/// Containers are kept sorted by their 16-bit chunk key; lookup is a binary
/// search over chunk keys followed by an intra-container probe.
///
/// ```
/// use rig_bitset::Bitset;
/// let a = Bitset::from_slice(&[1, 2, 3, 100_000]);
/// let b: Bitset = (2..5u32).collect();
/// assert_eq!(a.and(&b).to_vec(), vec![2, 3]);
/// let mut union = a.clone();
/// union.or_assign(&b);
/// assert_eq!(union.len(), 5); // {1,2,3,4,100000}
/// assert!(a.contains(100_000));
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Bitset {
    /// `(chunk_key, container)` pairs sorted by `chunk_key`.
    pub(crate) chunks: Vec<(u16, Container)>,
}

#[inline]
fn split(value: u32) -> (u16, u16) {
    ((value >> 16) as u16, value as u16)
}

#[inline]
fn join(key: u16, low: u16) -> u32 {
    ((key as u32) << 16) | low as u32
}

impl Bitset {
    /// Creates an empty bitset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a bitset from a slice of values (need not be sorted).
    pub fn from_slice(values: &[u32]) -> Self {
        let mut sorted: Vec<u32> = values.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        Self::from_sorted_dedup(&sorted)
    }

    /// Builds a bitset from already sorted, deduplicated values.
    ///
    /// This is the fast path used when converting CSR adjacency slices.
    pub fn from_sorted_dedup(values: &[u32]) -> Self {
        let mut out = Self::new();
        let mut i = 0;
        while i < values.len() {
            let key = (values[i] >> 16) as u16;
            let mut j = i + 1;
            while j < values.len() && (values[j] >> 16) as u16 == key {
                j += 1;
            }
            let lows: Vec<u16> = values[i..j].iter().map(|&v| v as u16).collect();
            out.chunks.push((key, Container::from_sorted_lows(lows)));
            i = j;
        }
        out
    }

    /// Number of stored values.
    pub fn len(&self) -> u64 {
        self.chunks.iter().map(|(_, c)| c.len() as u64).sum()
    }

    /// True if no value is stored.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Approximate heap footprint in bytes (used by RIG size accounting).
    pub fn heap_bytes(&self) -> usize {
        self.chunks
            .iter()
            .map(|(_, c)| c.heap_bytes() + std::mem::size_of::<(u16, Container)>())
            .sum()
    }

    #[inline]
    fn chunk_index(&self, key: u16) -> Result<usize, usize> {
        self.chunks.binary_search_by_key(&key, |&(k, _)| k)
    }

    /// Inserts `value`; returns true if it was not already present.
    pub fn insert(&mut self, value: u32) -> bool {
        let (key, low) = split(value);
        match self.chunk_index(key) {
            Ok(i) => self.chunks[i].1.insert(low),
            Err(i) => {
                self.chunks.insert(i, (key, Container::singleton(low)));
                true
            }
        }
    }

    /// Removes `value`; returns true if it was present.
    pub fn remove(&mut self, value: u32) -> bool {
        let (key, low) = split(value);
        match self.chunk_index(key) {
            Ok(i) => {
                let removed = self.chunks[i].1.remove(low);
                if removed && self.chunks[i].1.is_empty() {
                    self.chunks.remove(i);
                }
                removed
            }
            Err(_) => false,
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, value: u32) -> bool {
        let (key, low) = split(value);
        match self.chunk_index(key) {
            Ok(i) => self.chunks[i].1.contains(low),
            Err(_) => false,
        }
    }

    /// Smallest stored value.
    pub fn min(&self) -> Option<u32> {
        self.chunks.first().and_then(|(k, c)| c.min().map(|low| join(*k, low)))
    }

    /// Largest stored value.
    pub fn max(&self) -> Option<u32> {
        self.chunks.last().and_then(|(k, c)| c.max().map(|low| join(*k, low)))
    }

    /// Removes all values.
    pub fn clear(&mut self) {
        self.chunks.clear();
    }

    /// Iterator over values in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter::new(self)
    }

    /// Collects all values into a vector (ascending order).
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len() as usize);
        for (k, c) in &self.chunks {
            c.append_values(*k, &mut out);
        }
        out
    }

    // ------------------------------------------------------------------
    // Pairwise set algebra
    // ------------------------------------------------------------------

    /// `self ∩ other` as a new bitset.
    pub fn and(&self, other: &Bitset) -> Bitset {
        let mut out = Bitset::new();
        self.and_into(other, &mut out);
        out
    }

    /// `self ∩ other`, written into `out`. Reuses `out`'s chunk vector
    /// allocation, so a caller intersecting in a loop can hold one scratch
    /// bitset instead of allocating per call (the MJoin scratch-buffer
    /// pattern).
    pub fn and_into(&self, other: &Bitset, out: &mut Bitset) {
        out.chunks.clear();
        let (mut i, mut j) = (0, 0);
        while i < self.chunks.len() && j < other.chunks.len() {
            let (ka, ca) = &self.chunks[i];
            let (kb, cb) = &other.chunks[j];
            match ka.cmp(kb) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let c = ca.and(cb);
                    if !c.is_empty() {
                        out.chunks.push((*ka, c));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
    }

    /// In-place `self ∩= other`: rewrites the chunk vector in place instead
    /// of building a fresh bitset, so repeated narrowing reuses one
    /// allocation.
    pub fn and_assign(&mut self, other: &Bitset) {
        let mut write = 0;
        let mut j = 0;
        for i in 0..self.chunks.len() {
            let key = self.chunks[i].0;
            while j < other.chunks.len() && other.chunks[j].0 < key {
                j += 1;
            }
            if j < other.chunks.len() && other.chunks[j].0 == key {
                let c = self.chunks[i].1.and(&other.chunks[j].1);
                if !c.is_empty() {
                    self.chunks[write] = (key, c);
                    write += 1;
                }
            }
        }
        self.chunks.truncate(write);
    }

    /// In-place `self ∪= other`.
    pub fn or_assign(&mut self, other: &Bitset) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other.clone();
            return;
        }
        let mut merged = Vec::with_capacity(self.chunks.len() + other.chunks.len());
        let mut j = 0;
        for (ka, ca) in self.chunks.drain(..) {
            while j < other.chunks.len() && other.chunks[j].0 < ka {
                merged.push(other.chunks[j].clone());
                j += 1;
            }
            if j < other.chunks.len() && other.chunks[j].0 == ka {
                merged.push((ka, ca.or(&other.chunks[j].1)));
                j += 1;
            } else {
                merged.push((ka, ca));
            }
        }
        merged.extend_from_slice(&other.chunks[j..]);
        self.chunks = merged;
    }

    /// `self \ other` as a new bitset.
    pub fn and_not(&self, other: &Bitset) -> Bitset {
        let mut out = Bitset::new();
        let mut j = 0;
        for (ka, ca) in &self.chunks {
            while j < other.chunks.len() && other.chunks[j].0 < *ka {
                j += 1;
            }
            if j < other.chunks.len() && other.chunks[j].0 == *ka {
                let c = ca.and_not(&other.chunks[j].1);
                if !c.is_empty() {
                    out.chunks.push((*ka, c));
                }
            } else {
                out.chunks.push((*ka, ca.clone()));
            }
        }
        out
    }

    /// True iff `self ∩ other` is non-empty (early-exit existence test).
    pub fn intersects(&self, other: &Bitset) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.chunks.len() && j < other.chunks.len() {
            let (ka, ca) = &self.chunks[i];
            let (kb, cb) = &other.chunks[j];
            match ka.cmp(kb) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if ca.intersects(cb) {
                        return true;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        false
    }

    /// True iff every value of `self` is in `other`.
    pub fn is_subset(&self, other: &Bitset) -> bool {
        self.and_not(other).is_empty()
    }

    // ------------------------------------------------------------------
    // Multi-way aggregation (FastAggregation analogue)
    // ------------------------------------------------------------------

    /// Intersection of many bitsets. Operands are processed smallest-first
    /// so the running result shrinks as fast as possible; returns an empty
    /// bitset for an empty operand list.
    pub fn multi_and(sets: &[&Bitset]) -> Bitset {
        let mut out = Bitset::new();
        Bitset::multi_and_into(sets, &mut out);
        out
    }

    /// Intersection of many bitsets, written into `out` (smallest operands
    /// first, early exit on an empty running result). Like [`Bitset::and_into`]
    /// this reuses `out`'s chunk vector, so hot loops can keep one scratch
    /// bitset per recursion depth instead of materializing a fresh
    /// intersection per step.
    pub fn multi_and_into(sets: &[&Bitset], out: &mut Bitset) {
        match sets.len() {
            0 => out.chunks.clear(),
            1 => {
                out.chunks.clear();
                out.chunks.extend(sets[0].chunks.iter().cloned());
            }
            _ if sets.len() > 64 => {
                // Degenerate arity: fold in the given order (no used-mask).
                sets[0].and_into(sets[1], out);
                for s in &sets[2..] {
                    if out.is_empty() {
                        return;
                    }
                    out.and_assign(s);
                }
            }
            _ => {
                // Seed from the two smallest operands, then narrow in place
                // with the rest in ascending-cardinality order. Operand
                // counts are tiny (query degree), so selection sort over a
                // used-mask beats allocating a sorted copy.
                let mut used: u64 = 0;
                let mut pick = || {
                    let k = (0..sets.len())
                        .filter(|&k| used & (1 << k) == 0)
                        .min_by_key(|&k| sets[k].len())?;
                    used |= 1 << k;
                    Some(k)
                };
                let (Some(a), Some(b)) = (pick(), pick()) else {
                    return; // unreachable: this arm has at least two operands
                };
                sets[a].and_into(sets[b], out);
                while let Some(k) = pick() {
                    if out.is_empty() {
                        return;
                    }
                    out.and_assign(sets[k]);
                }
            }
        }
    }

    /// Retains only values for which `keep` returns true, in one in-place
    /// pass over the containers (in ascending order).
    pub fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) {
        self.chunks.retain_mut(|(key, c)| {
            c.retain(*key, &mut keep);
            !c.is_empty()
        });
    }
}

impl std::fmt::Debug for Bitset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.len();
        if n <= 32 {
            f.debug_set().entries(self.iter()).finish()
        } else {
            write!(f, "Bitset(len={n})")
        }
    }
}

impl FromIterator<u32> for Bitset {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        let values: Vec<u32> = iter.into_iter().collect();
        Bitset::from_slice(&values)
    }
}

impl<'a> IntoIterator for &'a Bitset {
    type Item = u32;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl Extend<u32> for Bitset {
    fn extend<T: IntoIterator<Item = u32>>(&mut self, iter: T) {
        for v in iter {
            self.insert(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_basics() {
        let b = Bitset::new();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.min(), None);
        assert_eq!(b.max(), None);
        assert!(!b.contains(0));
        assert_eq!(b.to_vec(), Vec::<u32>::new());
    }

    #[test]
    fn insert_remove_contains() {
        let mut b = Bitset::new();
        assert!(b.insert(5));
        assert!(!b.insert(5));
        assert!(b.insert(1_000_000));
        assert!(b.contains(5));
        assert!(b.contains(1_000_000));
        assert!(!b.contains(6));
        assert_eq!(b.len(), 2);
        assert!(b.remove(5));
        assert!(!b.remove(5));
        assert_eq!(b.len(), 1);
        assert_eq!(b.min(), Some(1_000_000));
    }

    #[test]
    fn array_to_bitmap_promotion() {
        let mut b = Bitset::new();
        for v in 0..(ARRAY_MAX as u32 + 100) {
            b.insert(v * 2); // same chunk until 2*(4096+100) < 65536
        }
        assert_eq!(b.len(), ARRAY_MAX as u64 + 100);
        for v in 0..(ARRAY_MAX as u32 + 100) {
            assert!(b.contains(v * 2));
            assert!(!b.contains(v * 2 + 1));
        }
        // demote again by removing
        for v in 200..(ARRAY_MAX as u32 + 100) {
            b.remove(v * 2);
        }
        assert_eq!(b.len(), 200);
        assert_eq!(b.to_vec(), (0..200u32).map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn set_algebra_small() {
        let a = Bitset::from_slice(&[1, 2, 3, 100_000, 100_001]);
        let b = Bitset::from_slice(&[2, 3, 4, 100_001, 200_000]);
        assert_eq!(a.and(&b).to_vec(), vec![2, 3, 100_001]);
        let mut union = a.clone();
        union.or_assign(&b);
        assert_eq!(union.to_vec(), vec![1, 2, 3, 4, 100_000, 100_001, 200_000]);
        assert_eq!(a.and_not(&b).to_vec(), vec![1, 100_000]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&Bitset::from_slice(&[7, 8])));
    }

    #[test]
    fn subset() {
        let a = Bitset::from_slice(&[1, 2, 3]);
        let b = Bitset::from_slice(&[0, 1, 2, 3, 4]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(Bitset::new().is_subset(&a));
    }

    #[test]
    fn multi_and_or() {
        let a = Bitset::from_slice(&[1, 2, 3, 4, 5]);
        let b = Bitset::from_slice(&[2, 3, 4, 5, 6]);
        let c = Bitset::from_slice(&[3, 4, 5, 6, 7]);
        assert_eq!(Bitset::multi_and(&[&a, &b, &c]).to_vec(), vec![3, 4, 5]);
        let mut union = a.clone();
        union.or_assign(&b);
        union.or_assign(&c);
        assert_eq!(union.to_vec(), vec![1, 2, 3, 4, 5, 6, 7]);
        assert!(Bitset::multi_and(&[]).is_empty());
        assert_eq!(Bitset::multi_and(&[&a]).to_vec(), a.to_vec());
    }

    #[test]
    fn and_into_reuses_scratch() {
        let a = Bitset::from_slice(&[1, 2, 3, 100_000, 100_001]);
        let b = Bitset::from_slice(&[2, 3, 4, 100_001, 200_000]);
        let mut scratch = Bitset::from_slice(&[9, 9_999_999]); // stale content
        a.and_into(&b, &mut scratch);
        assert_eq!(scratch.to_vec(), vec![2, 3, 100_001]);
        // reuse with disjoint operands clears the scratch
        a.and_into(&Bitset::from_slice(&[7]), &mut scratch);
        assert!(scratch.is_empty());
    }

    #[test]
    fn multi_and_into_matches_multi_and() {
        let a = Bitset::from_slice(&[1, 2, 3, 4, 5, 70_000]);
        let b = Bitset::from_slice(&[2, 3, 4, 5, 6, 70_000]);
        let c = Bitset::from_slice(&[3, 4, 5, 6, 7, 70_000]);
        let mut scratch = Bitset::new();
        for sets in [vec![], vec![&a], vec![&a, &b], vec![&a, &b, &c]] {
            Bitset::multi_and_into(&sets, &mut scratch);
            assert_eq!(scratch.to_vec(), Bitset::multi_and(&sets).to_vec(), "{}", sets.len());
        }
        // early-exit path: an empty operand drains the scratch
        Bitset::multi_and_into(&[&a, &Bitset::new(), &c], &mut scratch);
        assert!(scratch.is_empty());
    }

    #[test]
    fn and_assign_is_in_place_intersection() {
        let mut a = Bitset::from_slice(&[1, 5, 9, 100_000, 200_000]);
        a.and_assign(&Bitset::from_slice(&[5, 100_000, 300_000]));
        assert_eq!(a.to_vec(), vec![5, 100_000]);
        a.and_assign(&Bitset::new());
        assert!(a.is_empty());
    }

    #[test]
    fn retain_filters() {
        let mut b = Bitset::from_slice(&[1, 2, 3, 4, 5, 6]);
        b.retain(|v| v % 2 == 0);
        assert_eq!(b.to_vec(), vec![2, 4, 6]);
        // a bitmap chunk filters in place and demotes once small enough;
        // a chunk left empty is dropped
        let mut dense: Bitset = (0..10_000u32).chain([70_000]).collect();
        dense.retain(|v| v % 3 == 0 && v < 70_000);
        assert_eq!(dense.to_vec(), (0..10_000u32).filter(|v| v % 3 == 0).collect::<Vec<_>>());
        assert!(matches!(dense.chunks[..], [(0, Container::Array(_))]));
    }

    #[test]
    fn iterators_agree() {
        let vals: Vec<u32> = (0..10_000u32).map(|v| v * 7).collect();
        let b = Bitset::from_slice(&vals);
        assert_eq!(b.iter().collect::<Vec<_>>(), vals);
    }

    #[test]
    fn from_iterator_and_extend() {
        let b: Bitset = (0..100u32).collect();
        assert_eq!(b.len(), 100);
        let mut c = Bitset::new();
        c.extend(50..150u32);
        assert_eq!(b.and(&c).len(), 50);
    }

    #[test]
    fn debug_small_and_large() {
        let b = Bitset::from_slice(&[1, 2]);
        assert_eq!(format!("{b:?}"), "{1, 2}");
        let big: Bitset = (0..1000u32).collect();
        assert_eq!(format!("{big:?}"), "Bitset(len=1000)");
    }
}
