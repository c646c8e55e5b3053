//! Binary snapshot segments: the durable form of a base [`DataGraph`].
//!
//! A segment file holds everything [`DataGraph`] reconstruction needs —
//! node labels, the label-name dictionary, tombstones, and the forward
//! adjacency (the backward CSR, inverted lists and bitmaps are derived on
//! load) — plus the store version the snapshot captures, under a
//! magic/format-version header and a CRC-32 over the whole payload. Corruption anywhere in the
//! file is detected before any graph structure is built, so a damaged
//! segment surfaces as a typed [`SegmentError`], never a panic.
//!
//! The byte layout (everything little-endian):
//!
//! ```text
//! 0..8    magic  b"RIGSEG1\n"
//! 8..12   crc32 of payload
//! 12..20  payload length (u64)
//! 20..    payload:
//!           store_version u64
//!           num_nodes u32, num_labels u32
//!           labels        num_nodes x u32
//!           label names   num_labels x (u32 len + utf-8 bytes)
//!           tombstones    u32 count + count x u32 node id
//!           degrees       num_nodes x u32
//!           targets       sum(degrees) x u32
//! ```

use rig_bitset::Bitset;

use crate::{DataGraph, Label, NodeId};

/// File magic, bumped with the format: decode rejects anything else.
pub const SEGMENT_MAGIC: &[u8; 8] = b"RIGSEG1\n";

/// A segment failed to decode: bad magic, truncation, checksum mismatch,
/// or structurally invalid content. The message says which.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentError {
    pub message: String,
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "segment: {}", self.message)
    }
}

impl std::error::Error for SegmentError {}

fn err<T>(message: impl Into<String>) -> Result<T, SegmentError> {
    Err(SegmentError { message: message.into() })
}

// ---------------------------------------------------------------------------
// crc32 (IEEE 802.3, the zlib polynomial) — shared with the WAL layer
// ---------------------------------------------------------------------------

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the bytewise table, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so eight table reads advance the CRC over eight bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE) of `bytes` — the checksum both segment files and WAL
/// records carry. Eight bytes per step (slicing-by-8), then the tail
/// bytewise.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// encode
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serializes `g` (base CSR + label dictionary + tombstones) as a segment
/// capturing store version `store_version`.
pub fn encode_segment(g: &DataGraph, store_version: u64) -> Vec<u8> {
    let n = g.num_nodes();
    let mut payload = Vec::with_capacity(32 + 4 * n + 4 * g.num_edges());
    put_u64(&mut payload, store_version);
    put_u32(&mut payload, n as u32);
    put_u32(&mut payload, g.num_labels() as u32);
    for &l in g.labels() {
        put_u32(&mut payload, l);
    }
    for name in g.label_names() {
        put_u32(&mut payload, name.len() as u32);
        payload.extend_from_slice(name.as_bytes());
    }
    let dead: Vec<NodeId> = g.tombstones().iter().collect();
    put_u32(&mut payload, dead.len() as u32);
    for v in dead {
        put_u32(&mut payload, v);
    }
    for v in 0..n as NodeId {
        put_u32(&mut payload, g.out_degree(v) as u32);
    }
    for v in 0..n as NodeId {
        for &t in g.out_neighbors(v) {
            put_u32(&mut payload, t);
        }
    }

    let mut out = Vec::with_capacity(20 + payload.len());
    out.extend_from_slice(SEGMENT_MAGIC);
    put_u32(&mut out, crc32(&payload));
    put_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    out
}

// ---------------------------------------------------------------------------
// decode
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], SegmentError> {
        let end = self.pos.checked_add(len).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => err(format!("truncated payload at offset {}", self.pos)),
        }
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], SegmentError> {
        let pos = self.pos;
        self.take(N)?.try_into().or_else(|_| err(format!("truncated payload at offset {pos}")))
    }

    fn u32(&mut self) -> Result<u32, SegmentError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, SegmentError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads the count of a list whose entries take at least 4 bytes
    /// each: a count past the bytes left is truncation, caught before the
    /// allocation it would size.
    fn count(&mut self) -> Result<usize, SegmentError> {
        let pos = self.pos;
        let count = self.u32()? as usize;
        if count > (self.bytes.len() - self.pos) / 4 {
            return err(format!("count {count} at offset {pos} overruns the payload"));
        }
        Ok(count)
    }
}

/// Decodes a segment produced by [`encode_segment`], returning the graph
/// and the store version it captured. Every validation failure — magic,
/// truncation, checksum, out-of-range ids, unsorted adjacency, tombstones
/// carrying edges — is a typed error.
pub fn decode_segment(bytes: &[u8]) -> Result<(DataGraph, u64), SegmentError> {
    if bytes.len() < 20 {
        return err(format!("file too short for a segment header ({} bytes)", bytes.len()));
    }
    if &bytes[0..8] != SEGMENT_MAGIC {
        return err("bad magic: not a segment file");
    }
    let mut header = Cursor { bytes, pos: 8 };
    let want_crc = header.u32()?;
    let payload_len = header.u64()?;
    let payload = &bytes[20..];
    if payload_len != payload.len() as u64 {
        return err(format!(
            "payload length mismatch: header says {payload_len}, file has {}",
            payload.len()
        ));
    }
    let got_crc = crc32(payload);
    if got_crc != want_crc {
        return err(format!("checksum mismatch: header {want_crc:#010x}, payload {got_crc:#010x}"));
    }

    let mut c = Cursor { bytes: payload, pos: 0 };
    let store_version = c.u64()?;
    let n = c.count()?;
    let num_labels = c.count()?;
    let mut labels: Vec<Label> = Vec::with_capacity(n);
    for _ in 0..n {
        let l = c.u32()?;
        if l as usize >= num_labels {
            return err(format!("node label {l} out of range (num_labels {num_labels})"));
        }
        labels.push(l);
    }
    let mut label_names: Vec<String> = Vec::with_capacity(num_labels);
    for i in 0..num_labels {
        let len = c.u32()? as usize;
        let raw = c.take(len)?;
        match std::str::from_utf8(raw) {
            Ok(s) => label_names.push(s.to_string()),
            Err(_) => return err(format!("label name {i} is not valid utf-8")),
        }
    }
    let dead_count = c.count()?;
    let mut dead_ids: Vec<NodeId> = Vec::with_capacity(dead_count);
    for _ in 0..dead_count {
        let v = c.u32()?;
        if v as usize >= n {
            return err(format!("tombstone id {v} out of range (num_nodes {n})"));
        }
        dead_ids.push(v);
    }
    dead_ids.sort_unstable();
    dead_ids.dedup();
    let dead = Bitset::from_sorted_dedup(&dead_ids);
    let mut offsets: Vec<u64> = Vec::with_capacity(n + 1);
    offsets.push(0);
    for v in 0..n {
        let deg = c.u32()? as u64;
        if deg > 0 && dead.contains(v as NodeId) {
            return err(format!("tombstoned node {v} carries edges"));
        }
        offsets.push(offsets[v] + deg);
    }
    // every target takes 4 bytes: a count past the payload is truncation,
    // caught before the allocation it would size
    let m = offsets[n];
    if m > ((payload.len() - c.pos) / 4) as u64 {
        return err(format!("truncated payload at offset {}", c.pos));
    }
    let mut targets: Vec<NodeId> = Vec::with_capacity(m as usize);
    for (v, row) in offsets.windows(2).enumerate() {
        let start = targets.len();
        for _ in row[0]..row[1] {
            let t = c.u32()?;
            if t as usize >= n {
                return err(format!("edge target {t} out of range (num_nodes {n})"));
            }
            // a tombstone must not be a *target* either
            if dead.contains(t) {
                return err(format!("edge ({v}, {t}) points at a tombstoned node"));
            }
            targets.push(t);
        }
        if !targets[start..].windows(2).all(|w| w[0] < w[1]) {
            return err(format!("adjacency of node {v} is not strictly sorted"));
        }
    }
    if c.pos != payload.len() {
        return err(format!("{} trailing byte(s) after payload", payload.len() - c.pos));
    }
    Ok((DataGraph::from_csr(labels, offsets, targets, label_names, dead), store_version))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample() -> DataGraph {
        let mut b = GraphBuilder::new();
        let x = b.add_node_with_name(0, "Author");
        let gone = b.add_node_with_name(1, "Paper");
        let y = b.add_node_with_name(1, "Paper");
        let z = b.add_node(2);
        b.add_edge(x, y);
        b.add_edge(y, z);
        b.add_edge(x, z);
        let _ = gone;
        b.build().with_tombstones(Bitset::from_slice(&[1]))
    }

    #[test]
    fn round_trip() {
        let g = sample();
        let bytes = encode_segment(&g, 42);
        let (d, version) = decode_segment(&bytes).expect("decodes");
        assert_eq!(version, 42);
        assert_eq!(d.num_nodes(), g.num_nodes());
        assert_eq!(d.num_edges(), g.num_edges());
        assert_eq!(d.num_labels(), g.num_labels());
        assert_eq!(d.labels(), g.labels());
        assert_eq!(d.label_names(), g.label_names());
        assert_eq!(d.label_id("Paper"), g.label_id("Paper"));
        assert_eq!(d.tombstones().to_vec(), g.tombstones().to_vec());
        for v in 0..g.num_nodes() as NodeId {
            assert_eq!(d.out_neighbors(v), g.out_neighbors(v));
            assert_eq!(d.in_neighbors(v), g.in_neighbors(v));
        }
        for l in 0..g.num_labels() as Label {
            assert_eq!(d.nodes_with_label(l), g.nodes_with_label(l));
        }
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = GraphBuilder::new().build();
        let (d, version) = decode_segment(&encode_segment(&g, 0)).expect("decodes");
        assert_eq!(version, 0);
        assert_eq!(d.num_nodes(), 0);
        assert_eq!(d.num_edges(), 0);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let g = sample();
        let bytes = encode_segment(&g, 7);
        // flip one bit per byte position: decode must fail (or, for flips
        // inside the stored CRC itself, fail the checksum comparison) —
        // never panic, never silently accept
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(decode_segment(&bad).is_err(), "flip at byte {pos} went undetected");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let g = sample();
        let bytes = encode_segment(&g, 7);
        for keep in 0..bytes.len() {
            assert!(decode_segment(&bytes[..keep]).is_err(), "truncation to {keep} accepted");
        }
    }

    /// A count claiming `u32::MAX` entries under a valid checksum is an
    /// error, not an allocation of that many entries.
    #[test]
    fn hostile_counts_are_errors() {
        let g = sample();
        let bytes = encode_segment(&g, 7);
        let names: usize = g.label_names().iter().map(|s| 4 + s.len()).sum();
        // payload offsets of n, num_labels and the tombstone count
        for at in [8, 12, 16 + 4 * g.num_nodes() + names] {
            let mut payload = bytes[20..].to_vec();
            payload[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let mut bad = bytes[..20].to_vec();
            bad[8..12].copy_from_slice(&crc32(&payload).to_le_bytes());
            bad.extend_from_slice(&payload);
            assert!(decode_segment(&bad).is_err(), "count at payload offset {at} accepted");
        }
    }

    #[test]
    fn crc32_known_answer() {
        // IEEE CRC-32 of "123456789" is the classic check value
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_equals_the_bytewise_table_at_every_length_and_offset() {
        let bytewise = |bytes: &[u8]| {
            let mut c = !0u32;
            for &b in bytes {
                c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            !c
        };
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..1024 + 8)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=1024 {
                let bytes = &data[offset..offset + len];
                assert_eq!(crc32(bytes), bytewise(bytes), "offset {offset}, length {len}");
            }
        }
    }
}
