//! The ascending value iterator.

use crate::container::{Container, BITMAP_WORDS};
use crate::Bitset;

/// Ascending iterator over a [`Bitset`].
pub struct Iter<'a> {
    set: &'a Bitset,
    chunk: usize,
    /// Position within the current array container.
    array_pos: usize,
    /// Word index and remaining bits within the current bitmap container.
    word_idx: usize,
    word: u64,
}

impl<'a> Iter<'a> {
    pub(crate) fn new(set: &'a Bitset) -> Self {
        let mut it = Iter { set, chunk: 0, array_pos: 0, word_idx: 0, word: 0 };
        it.prime();
        it
    }

    fn prime(&mut self) {
        if let Some((_, Container::Bitmap { words, .. })) = self.set.chunks.get(self.chunk) {
            self.word_idx = 0;
            self.word = words[0];
        }
    }

    fn advance_chunk(&mut self) {
        self.chunk += 1;
        self.array_pos = 0;
        self.prime();
    }
}

impl Iterator for Iter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            let (key, container) = self.set.chunks.get(self.chunk)?;
            let base = (*key as u32) << 16;
            match container {
                Container::Array(a) => {
                    if self.array_pos < a.len() {
                        let v = base | a[self.array_pos] as u32;
                        self.array_pos += 1;
                        return Some(v);
                    }
                    self.advance_chunk();
                }
                Container::Bitmap { words, .. } => {
                    while self.word == 0 {
                        self.word_idx += 1;
                        if self.word_idx >= BITMAP_WORDS {
                            break;
                        }
                        self.word = words[self.word_idx];
                    }
                    if self.word_idx >= BITMAP_WORDS {
                        self.advance_chunk();
                        continue;
                    }
                    let bit = self.word.trailing_zeros();
                    self.word &= self.word - 1;
                    return Some(base | (self.word_idx as u32) << 6 | bit);
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // cheap over-approximation: remaining total length
        let n = self.set.len() as usize;
        (0, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use crate::Bitset;

    #[test]
    fn iter_crosses_chunks_and_container_kinds() {
        let mut vals: Vec<u32> = (0..5000u32).collect(); // dense: bitmap
        vals.extend([70_000, 70_002, 200_000]); // sparse arrays in later chunks
        let b = Bitset::from_slice(&vals);
        assert_eq!(b.iter().collect::<Vec<_>>(), vals);
    }
}
