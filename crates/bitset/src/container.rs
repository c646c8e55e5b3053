//! Chunk containers: sorted `u16` arrays for sparse chunks, 1024-word
//! bitmaps for dense chunks, mirroring the roaring format.

/// Maximum cardinality of an array container before promotion to a bitmap.
pub const ARRAY_MAX: usize = 4096;

/// Number of `u64` words in a bitmap container (2^16 bits).
pub const BITMAP_WORDS: usize = 1024;

/// A single 2^16-value chunk.
#[derive(Clone, PartialEq, Eq)]
pub enum Container {
    /// Sorted list of low 16-bit values; cardinality ≤ [`ARRAY_MAX`].
    Array(Vec<u16>),
    /// Dense bitmap with an explicit cardinality.
    Bitmap { words: Box<[u64; BITMAP_WORDS]>, len: u32 },
}

impl Container {
    pub fn singleton(low: u16) -> Self {
        Container::Array(vec![low])
    }

    /// Container holding `count` consecutive values starting at `start`.
    pub fn run(start: u16, count: u32) -> Self {
        debug_assert!(start as u32 + count <= 65_536);
        if (count as usize) <= ARRAY_MAX {
            Container::Array((0..count).map(|i| start + i as u16).collect())
        } else {
            let mut words = Box::new([0u64; BITMAP_WORDS]);
            for i in 0..count {
                let v = start as u32 + i;
                words[(v >> 6) as usize] |= 1 << (v & 63);
            }
            Container::Bitmap { words, len: count }
        }
    }

    /// Builds from sorted, deduplicated low values.
    pub fn from_sorted_lows(lows: Vec<u16>) -> Self {
        if lows.len() <= ARRAY_MAX {
            Container::Array(lows)
        } else {
            let mut words = Box::new([0u64; BITMAP_WORDS]);
            let len = lows.len() as u32;
            for v in lows {
                words[(v >> 6) as usize] |= 1 << (v & 63);
            }
            Container::Bitmap { words, len }
        }
    }

    pub fn len(&self) -> u32 {
        match self {
            Container::Array(a) => a.len() as u32,
            Container::Bitmap { len, .. } => *len,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn heap_bytes(&self) -> usize {
        match self {
            Container::Array(a) => a.capacity() * 2,
            Container::Bitmap { .. } => BITMAP_WORDS * 8,
        }
    }

    pub fn contains(&self, low: u16) -> bool {
        match self {
            Container::Array(a) => a.binary_search(&low).is_ok(),
            Container::Bitmap { words, .. } => words[(low >> 6) as usize] & (1 << (low & 63)) != 0,
        }
    }

    /// Inserts; returns true if newly added. Promotes to bitmap when an
    /// array exceeds [`ARRAY_MAX`].
    pub fn insert(&mut self, low: u16) -> bool {
        match self {
            Container::Array(a) => match a.binary_search(&low) {
                Ok(_) => false,
                Err(pos) => {
                    if a.len() < ARRAY_MAX {
                        a.insert(pos, low);
                    } else {
                        let mut words = Box::new([0u64; BITMAP_WORDS]);
                        for &v in a.iter() {
                            words[(v >> 6) as usize] |= 1 << (v & 63);
                        }
                        words[(low >> 6) as usize] |= 1 << (low & 63);
                        let len = a.len() as u32 + 1;
                        *self = Container::Bitmap { words, len };
                    }
                    true
                }
            },
            Container::Bitmap { words, len } => {
                let w = &mut words[(low >> 6) as usize];
                let bit = 1u64 << (low & 63);
                if *w & bit == 0 {
                    *w |= bit;
                    *len += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Removes; returns true if it was present. Demotes to array when a
    /// bitmap drops to [`ARRAY_MAX`] values.
    pub fn remove(&mut self, low: u16) -> bool {
        match self {
            Container::Array(a) => match a.binary_search(&low) {
                Ok(pos) => {
                    a.remove(pos);
                    true
                }
                Err(_) => false,
            },
            Container::Bitmap { words, len } => {
                let w = &mut words[(low >> 6) as usize];
                let bit = 1u64 << (low & 63);
                if *w & bit != 0 {
                    *w &= !bit;
                    *len -= 1;
                    if *len as usize <= ARRAY_MAX {
                        *self = Container::Array(Self::bitmap_to_lows(words));
                    }
                    true
                } else {
                    false
                }
            }
        }
    }

    fn bitmap_to_lows(words: &[u64; BITMAP_WORDS]) -> Vec<u16> {
        let mut out = Vec::new();
        for (wi, &word) in words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let b = w.trailing_zeros();
                out.push(((wi as u32) << 6 | b) as u16);
                w &= w - 1;
            }
        }
        out
    }

    pub fn min(&self) -> Option<u16> {
        match self {
            Container::Array(a) => a.first().copied(),
            Container::Bitmap { words, .. } => {
                for (wi, &w) in words.iter().enumerate() {
                    if w != 0 {
                        return Some(((wi as u32) << 6 | w.trailing_zeros()) as u16);
                    }
                }
                None
            }
        }
    }

    pub fn max(&self) -> Option<u16> {
        match self {
            Container::Array(a) => a.last().copied(),
            Container::Bitmap { words, .. } => {
                for (wi, &w) in words.iter().enumerate().rev() {
                    if w != 0 {
                        return Some(((wi as u32) << 6 | (63 - w.leading_zeros())) as u16);
                    }
                }
                None
            }
        }
    }

    /// Appends all values (with chunk key `key` re-applied) to `out`.
    pub fn append_values(&self, key: u16, out: &mut Vec<u32>) {
        let base = (key as u32) << 16;
        match self {
            Container::Array(a) => out.extend(a.iter().map(|&v| base | v as u32)),
            Container::Bitmap { words, .. } => {
                for (wi, &word) in words.iter().enumerate() {
                    let mut w = word;
                    while w != 0 {
                        let b = w.trailing_zeros();
                        out.push(base | (wi as u32) << 6 | b);
                        w &= w - 1;
                    }
                }
            }
        }
    }

    /// Keeps the values (with chunk key `key` re-applied) for which `keep`
    /// returns true, in place and in ascending order. Demotes a bitmap that
    /// drops to [`ARRAY_MAX`] values.
    pub fn retain(&mut self, key: u16, keep: &mut impl FnMut(u32) -> bool) {
        let base = (key as u32) << 16;
        match self {
            Container::Array(a) => a.retain(|&v| keep(base | v as u32)),
            Container::Bitmap { words, len } => {
                for (wi, word) in words.iter_mut().enumerate() {
                    let mut w = *word;
                    while w != 0 {
                        let b = w.trailing_zeros();
                        if !keep(base | (wi as u32) << 6 | b) {
                            *word &= !(1 << b);
                            *len -= 1;
                        }
                        w &= w - 1;
                    }
                }
                if *len as usize <= ARRAY_MAX {
                    *self = Container::Array(Self::bitmap_to_lows(words));
                }
            }
        }
    }

    pub fn and(&self, other: &Container) -> Container {
        match (self, other) {
            (Container::Array(a), Container::Array(b)) => Container::Array(intersect_sorted(a, b)),
            (Container::Array(a), Container::Bitmap { words, .. })
            | (Container::Bitmap { words, .. }, Container::Array(a)) => Container::Array(
                a.iter()
                    .copied()
                    .filter(|&v| words[(v >> 6) as usize] & (1 << (v & 63)) != 0)
                    .collect(),
            ),
            (Container::Bitmap { words: wa, .. }, Container::Bitmap { words: wb, .. }) => {
                let mut words = Box::new([0u64; BITMAP_WORDS]);
                let mut len = 0u32;
                for i in 0..BITMAP_WORDS {
                    let w = wa[i] & wb[i];
                    words[i] = w;
                    len += w.count_ones();
                }
                if len as usize <= ARRAY_MAX {
                    Container::Array(Self::bitmap_to_lows(&words))
                } else {
                    Container::Bitmap { words, len }
                }
            }
        }
    }

    pub fn or(&self, other: &Container) -> Container {
        match (self, other) {
            (Container::Array(a), Container::Array(b)) => {
                let merged = union_sorted(a, b);
                Container::from_sorted_lows(merged)
            }
            (Container::Array(a), Container::Bitmap { words, len })
            | (Container::Bitmap { words, len }, Container::Array(a)) => {
                let mut w2 = words.clone();
                let mut l2 = *len;
                for &v in a {
                    let w = &mut w2[(v >> 6) as usize];
                    let bit = 1u64 << (v & 63);
                    if *w & bit == 0 {
                        *w |= bit;
                        l2 += 1;
                    }
                }
                Container::Bitmap { words: w2, len: l2 }
            }
            (Container::Bitmap { words: wa, .. }, Container::Bitmap { words: wb, .. }) => {
                let mut words = Box::new([0u64; BITMAP_WORDS]);
                let mut len = 0u32;
                for i in 0..BITMAP_WORDS {
                    let w = wa[i] | wb[i];
                    words[i] = w;
                    len += w.count_ones();
                }
                Container::Bitmap { words, len }
            }
        }
    }

    pub fn and_not(&self, other: &Container) -> Container {
        match (self, other) {
            (Container::Array(a), Container::Array(b)) => Container::Array(difference_sorted(a, b)),
            (Container::Array(a), Container::Bitmap { words, .. }) => Container::Array(
                a.iter()
                    .copied()
                    .filter(|&v| words[(v >> 6) as usize] & (1 << (v & 63)) == 0)
                    .collect(),
            ),
            (Container::Bitmap { words, .. }, Container::Array(b)) => {
                let mut w2 = words.clone();
                let mut removed = 0u32;
                for &v in b {
                    let w = &mut w2[(v >> 6) as usize];
                    let bit = 1u64 << (v & 63);
                    if *w & bit != 0 {
                        *w &= !bit;
                        removed += 1;
                    }
                }
                let len = self.len() - removed;
                if len as usize <= ARRAY_MAX {
                    Container::Array(Self::bitmap_to_lows(&w2))
                } else {
                    Container::Bitmap { words: w2, len }
                }
            }
            (Container::Bitmap { words: wa, .. }, Container::Bitmap { words: wb, .. }) => {
                let mut words = Box::new([0u64; BITMAP_WORDS]);
                let mut len = 0u32;
                for i in 0..BITMAP_WORDS {
                    let w = wa[i] & !wb[i];
                    words[i] = w;
                    len += w.count_ones();
                }
                if len as usize <= ARRAY_MAX {
                    Container::Array(Self::bitmap_to_lows(&words))
                } else {
                    Container::Bitmap { words, len }
                }
            }
        }
    }

    pub fn intersects(&self, other: &Container) -> bool {
        match (self, other) {
            (Container::Array(a), Container::Array(b)) => {
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => return true,
                    }
                }
                false
            }
            (Container::Array(a), Container::Bitmap { words, .. })
            | (Container::Bitmap { words, .. }, Container::Array(a)) => {
                a.iter().any(|&v| words[(v >> 6) as usize] & (1 << (v & 63)) != 0)
            }
            (Container::Bitmap { words: wa, .. }, Container::Bitmap { words: wb, .. }) => {
                (0..BITMAP_WORDS).any(|i| wa[i] & wb[i] != 0)
            }
        }
    }
}

fn intersect_sorted(a: &[u16], b: &[u16]) -> Vec<u16> {
    // galloping when sizes are lopsided, merge otherwise
    if a.len() * 16 < b.len() {
        return a.iter().copied().filter(|v| b.binary_search(v).is_ok()).collect();
    }
    if b.len() * 16 < a.len() {
        return b.iter().copied().filter(|v| a.binary_search(v).is_ok()).collect();
    }
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

fn union_sorted(a: &[u16], b: &[u16]) -> Vec<u16> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        if j >= b.len() {
            out.extend_from_slice(&a[i..]);
            break;
        }
        if i >= a.len() {
            out.extend_from_slice(&b[j..]);
            break;
        }
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

fn difference_sorted(a: &[u16], b: &[u16]) -> Vec<u16> {
    let mut out = Vec::with_capacity(a.len());
    let mut j = 0;
    for &v in a {
        while j < b.len() && b[j] < v {
            j += 1;
        }
        if j >= b.len() || b[j] != v {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promotion_and_demotion_roundtrip() {
        let mut c = Container::Array(Vec::new());
        for v in 0..=(ARRAY_MAX as u32) {
            assert!(c.insert(v as u16));
        }
        assert!(matches!(c, Container::Bitmap { .. }));
        assert_eq!(c.len(), ARRAY_MAX as u32 + 1);
        assert!(c.remove(0));
        assert!(matches!(c, Container::Array(_)));
        assert_eq!(c.len(), ARRAY_MAX as u32);
    }

    #[test]
    fn run_container_dense() {
        let c = Container::run(0, 65_536);
        assert_eq!(c.len(), 65_536);
        assert!(c.contains(0));
        assert!(c.contains(65_535));
        assert_eq!(c.min(), Some(0));
        assert_eq!(c.max(), Some(65_535));
    }

    #[test]
    fn mixed_ops_match_naive() {
        let a: Vec<u16> = (0..8000u32).map(|v| (v * 3 % 65_521) as u16).collect();
        let b: Vec<u16> = (0..100u32).map(|v| (v * 7) as u16).collect();
        let mut sa: Vec<u16> = a.clone();
        sa.sort_unstable();
        sa.dedup();
        let mut sb = b.clone();
        sb.sort_unstable();
        sb.dedup();
        let ca = Container::from_sorted_lows(sa.clone());
        let cb = Container::from_sorted_lows(sb.clone());
        assert!(matches!(ca, Container::Bitmap { .. }));
        assert!(matches!(cb, Container::Array(_)));

        let naive_and: Vec<u16> =
            sa.iter().copied().filter(|v| sb.binary_search(v).is_ok()).collect();
        let mut got = Vec::new();
        ca.and(&cb).append_values(0, &mut got);
        assert_eq!(got, naive_and.iter().map(|&v| v as u32).collect::<Vec<_>>());
        assert_eq!(ca.intersects(&cb), !naive_and.is_empty());
    }

    #[test]
    fn and_not_bitmap_bitmap_demotes() {
        let a = Container::run(0, 65_536);
        let b = Container::run(16, 65_520);
        let d = a.and_not(&b);
        assert_eq!(d.len(), 16);
        assert!(matches!(d, Container::Array(_)));
    }
}
