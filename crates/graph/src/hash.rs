//! A small FxHash-style hasher so the workspace avoids pulling an extra
//! dependency. The algorithm is the multiply-rotate word hasher used by rustc; it is weak
//! against adversarial keys but ideal for dense integer ids.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fast non-cryptographic hasher for integer-like keys.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(m[&i], i * 2);
        }
    }

    #[test]
    fn distinct_keys_distinct_hashes_mostly() {
        let mut seen = FxHashSet::default();
        for i in 0..10_000u64 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            seen.insert(h.finish());
        }
        // no collisions expected for sequential keys with this hasher
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn tuple_keys() {
        let mut m: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        m.insert((1, 2), 3);
        m.insert((2, 1), 4);
        assert_eq!(m[&(1, 2)], 3);
        assert_eq!(m[&(2, 1)], 4);
    }
}
