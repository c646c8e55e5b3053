//! WAL record codec: one length-prefixed, CRC-checksummed record per
//! committed transaction, carrying the store version it published and the
//! same [`MutationOp`] sequence `Session::apply` understands.
//!
//! Record layout (little-endian):
//!
//! ```text
//! 0..4   payload length (u32)
//! 4..8   crc32 of payload
//! 8..    payload: version u64, op count u32, ops
//! ```
//!
//! Op encoding: a tag byte, then the operands —
//! `0` AddNode(id: u32) · `1` AddNode(name: u32 len + utf-8) ·
//! `2` RemoveNode(u32) · `3` AddEdge(u32, u32) · `4` RemoveEdge(u32, u32).
//!
//! Replay ([`replay_wal`]) walks records sequentially and applies **prefix
//! durability**: an invalid record that extends to end-of-file is a torn
//! append (the interrupted write of a commit that was never acknowledged)
//! and replay stops cleanly before it; an invalid record *followed by more
//! bytes* cannot be explained by a torn append and is reported as
//! corruption.

use std::path::Path;

use rig_graph::{crc32, LabelSpec, MutationOp};

use crate::{corrupt, StorageError};

/// One decoded WAL record: the version a committed transaction published
/// and its ops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    pub version: u64,
    pub ops: Vec<MutationOp>,
}

/// A WAL record payload failed to decode: truncation, an unknown op tag,
/// a label name that is not UTF-8, or trailing bytes. The message says
/// which.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalError {
    pub message: String,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wal record: {}", self.message)
    }
}

impl std::error::Error for WalError {}

fn err(message: impl Into<String>) -> WalError {
    WalError { message: message.into() }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Encodes the record for a transaction that published `version`.
pub fn encode_wal_record(version: u64, ops: &[MutationOp]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(16 + 9 * ops.len());
    payload.extend_from_slice(&version.to_le_bytes());
    put_u32(&mut payload, ops.len() as u32);
    for op in ops {
        match op {
            MutationOp::AddNode(LabelSpec::Id(l)) => {
                payload.push(0);
                put_u32(&mut payload, *l);
            }
            MutationOp::AddNode(LabelSpec::Named(name)) => {
                payload.push(1);
                put_u32(&mut payload, name.len() as u32);
                payload.extend_from_slice(name.as_bytes());
            }
            MutationOp::RemoveNode(v) => {
                payload.push(2);
                put_u32(&mut payload, *v);
            }
            MutationOp::AddEdge(u, v) => {
                payload.push(3);
                put_u32(&mut payload, *u);
                put_u32(&mut payload, *v);
            }
            MutationOp::RemoveEdge(u, v) => {
                payload.push(4);
                put_u32(&mut payload, *u);
                put_u32(&mut payload, *v);
            }
        }
    }
    let mut out = Vec::with_capacity(8 + payload.len());
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(len).filter(|&e| e <= self.bytes.len())?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    fn u8(&mut self) -> Option<u8> {
        self.array().map(u8::from_le_bytes)
    }

    fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }
}

/// Decodes one record payload (the bytes after the len/crc header).
pub fn decode_wal_record(payload: &[u8]) -> Result<WalRecord, WalError> {
    let mut c = Cursor { bytes: payload, pos: 0 };
    let version = c.u64().ok_or_else(|| err("payload too short for version"))?;
    let count = c.u32().ok_or_else(|| err("payload too short for op count"))? as usize;
    let mut ops = Vec::with_capacity(count.min(payload.len()));
    for i in 0..count {
        let short = |what: &str| err(format!("op {i}: short {what}"));
        let tag = c.u8().ok_or_else(|| err(format!("op {i}: missing tag")))?;
        let op = match tag {
            0 => MutationOp::AddNode(LabelSpec::Id(c.u32().ok_or_else(|| short("AddNode"))?)),
            1 => {
                let len = c.u32().ok_or_else(|| short("AddNode name"))? as usize;
                let raw = c.take(len).ok_or_else(|| short("AddNode name"))?;
                let name = std::str::from_utf8(raw)
                    .map_err(|_| err(format!("op {i}: AddNode name not utf-8")))?;
                MutationOp::AddNode(LabelSpec::Named(name.to_string()))
            }
            2 => MutationOp::RemoveNode(c.u32().ok_or_else(|| short("RemoveNode"))?),
            3 => {
                let u = c.u32().ok_or_else(|| short("AddEdge"))?;
                let v = c.u32().ok_or_else(|| short("AddEdge"))?;
                MutationOp::AddEdge(u, v)
            }
            4 => {
                let u = c.u32().ok_or_else(|| short("RemoveEdge"))?;
                let v = c.u32().ok_or_else(|| short("RemoveEdge"))?;
                MutationOp::RemoveEdge(u, v)
            }
            t => return Err(err(format!("op {i}: unknown tag {t}"))),
        };
        ops.push(op);
    }
    if c.pos != payload.len() {
        return Err(err(format!("{} trailing byte(s) in record payload", payload.len() - c.pos)));
    }
    Ok(WalRecord { version, ops })
}

/// The outcome of scanning a WAL file.
#[derive(Debug)]
pub(crate) struct WalScan {
    pub records: Vec<WalRecord>,
    /// Byte length of the valid record prefix; everything past it is torn
    /// tail to be truncated away.
    pub valid_len: u64,
}

/// Scans `bytes` (the whole WAL file at `path`, used for error context).
/// Returns the valid record prefix; a torn tail is tolerated, mid-log
/// corruption is a typed error.
pub(crate) fn replay_wal(path: &Path, bytes: &[u8]) -> Result<WalScan, StorageError> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let mut header = Cursor { bytes, pos };
        let (Some(len), Some(want_crc)) = (header.u32(), header.u32()) else {
            break; // header torn off mid-write
        };
        let len = len as usize;
        let Some(end) = pos.checked_add(8).and_then(|p| p.checked_add(len)) else {
            break; // absurd length: only explicable as a torn/garbage tail
        };
        if end > bytes.len() {
            // payload extends past EOF: torn append
            break;
        }
        let payload = &bytes[pos + 8..end];
        let at_tail = end == bytes.len();
        if crc32(payload) != want_crc {
            if at_tail {
                break; // garbage final record: torn append of an unacked commit
            }
            return Err(corrupt(
                path,
                format!("record at byte {pos}: checksum mismatch with valid data following"),
            ));
        }
        match decode_wal_record(payload) {
            Ok(r) => records.push(r),
            Err(e) => {
                // the checksum matched, so this is writer-side damage, not
                // a torn write — always an error
                return Err(corrupt(path, format!("record at byte {pos}: {}", e.message)));
            }
        }
        pos = end;
    }
    Ok(WalScan { records, valid_len: pos as u64 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<MutationOp> {
        vec![
            MutationOp::AddNode(LabelSpec::Id(3)),
            MutationOp::AddNode(LabelSpec::Named("Paper".into())),
            MutationOp::RemoveNode(7),
            MutationOp::AddEdge(1, 2),
            MutationOp::RemoveEdge(2, 1),
        ]
    }

    #[test]
    fn record_round_trip() {
        let bytes = encode_wal_record(9, &sample_ops());
        let rec = decode_wal_record(&bytes[8..]).expect("decodes");
        assert_eq!(rec.version, 9);
        assert_eq!(rec.ops, sample_ops());
    }

    #[test]
    fn replay_clean_log() {
        let p = Path::new("wal.log");
        let mut log = encode_wal_record(1, &sample_ops());
        log.extend(encode_wal_record(2, &[MutationOp::AddEdge(0, 1)]));
        let scan = replay_wal(p, &log).expect("replays");
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.valid_len, log.len() as u64);
        assert_eq!(scan.records[0].version, 1);
        assert_eq!(scan.records[1].version, 2);
    }

    #[test]
    fn torn_tail_at_every_cut_recovers_the_prefix() {
        let p = Path::new("wal.log");
        let r1 = encode_wal_record(1, &sample_ops());
        let r2 = encode_wal_record(2, &[MutationOp::AddEdge(0, 1)]);
        let mut log = r1.clone();
        log.extend(&r2);
        for cut in r1.len()..log.len() {
            let scan = replay_wal(p, &log[..cut]).expect("torn tail tolerated");
            assert_eq!(scan.records.len(), 1, "cut at {cut}");
            assert_eq!(scan.valid_len, r1.len() as u64, "cut at {cut}");
        }
        for cut in 0..r1.len() {
            let scan = replay_wal(p, &log[..cut]).expect("torn tail tolerated");
            assert_eq!(scan.records.len(), 0, "cut at {cut}");
            assert_eq!(scan.valid_len, 0, "cut at {cut}");
        }
    }

    #[test]
    fn tail_corruption_recovers_prefix_mid_log_corruption_errors() {
        let p = Path::new("wal.log");
        let r1 = encode_wal_record(1, &sample_ops());
        let r2 = encode_wal_record(2, &[MutationOp::AddEdge(0, 1)]);
        let mut log = r1.clone();
        log.extend(&r2);
        // flip a payload byte of the *final* record: indistinguishable from
        // a torn append, recovered as the clean one-record prefix
        let mut tail_bad = log.clone();
        let last = tail_bad.len() - 1;
        tail_bad[last] ^= 0xFF;
        let scan = replay_wal(p, &tail_bad).expect("tail corruption tolerated");
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, r1.len() as u64);
        // flip a payload byte of the *first* record: valid data follows, so
        // this is real corruption and must be a typed error
        let mut mid_bad = log.clone();
        mid_bad[10] ^= 0xFF;
        match replay_wal(p, &mid_bad) {
            Err(StorageError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn garbage_only_log_is_a_torn_tail() {
        let p = Path::new("wal.log");
        let scan = replay_wal(p, &[0xAB; 7]).expect("short garbage tolerated");
        assert_eq!(scan.records.len(), 0);
        assert_eq!(scan.valid_len, 0);
    }
}
