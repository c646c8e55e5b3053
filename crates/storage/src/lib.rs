//! Durability layer for the versioned delta-overlay store: a checksummed
//! write-ahead log plus flat binary snapshot segments, behind a
//! fault-injectable [`StorageBackend`].
//!
//! The design follows the "simple, replayable on-disk structures" stance:
//! there is exactly one mutable file (the WAL, append-only between
//! checkpoints) and one immutable segment per checkpoint, installed by
//! atomic rename. Every byte that matters is covered by a CRC-32, and
//! every failure path is exercised deterministically through
//! [`MemBackend`]'s fault plan rather than hoped about.
//!
//! On-disk layout of a store directory:
//!
//! ```text
//! segment-<version>.seg   binary snapshot (rig_graph::encode_segment)
//! wal.log                 one record per committed transaction
//! segment.tmp             checkpoint scratch (ignored on recovery)
//! ```
//!
//! Commit protocol: append the WAL record for version `v` (fsync per the
//! [`Durability`] policy) *before* the in-memory snapshot publishes; a
//! commit is acknowledged only after its record is durable to the policy's
//! standard. Checkpoint protocol: write `segment.tmp`, fsync, rename to
//! `segment-<v>.seg`, fsync the directory, then truncate the WAL — a crash
//! between rename and truncate is benign because replay skips records at
//! or below the segment's version. Recovery ([`DurableStore::open`]) picks
//! the newest decodable segment, replays the WAL prefix up to the last
//! valid record (tolerating a torn tail), and repairs the tail so future
//! appends extend a clean log.
//!
//! See `docs/durability.md` for the full protocol and guarantees.

mod backend;
mod store;
mod wal;

pub use backend::{FsBackend, MemBackend, StorageBackend};
pub use store::{segment_file_name, DurableStore, Recovered, StoreOptions};
pub use wal::{decode_wal_record, encode_wal_record, WalRecord};

use std::io;
use std::path::{Path, PathBuf};

/// How hard `log_commit` pushes each record toward the platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// fsync after every commit: an acknowledged commit survives power
    /// loss. The default.
    #[default]
    Strict,
    /// fsync every [`StoreOptions::batch_commits`] commits (and on
    /// checkpoint/flush): bounded loss window, much higher throughput.
    Batched,
    /// Never fsync explicitly; the OS flushes when it pleases. Survives
    /// process crashes (the page cache persists) but not power loss.
    None,
}

impl Durability {
    /// Parses the CLI spelling (`strict` | `batched` | `none`).
    pub fn parse(s: &str) -> Option<Durability> {
        match s {
            "strict" => Some(Durability::Strict),
            "batched" => Some(Durability::Batched),
            "none" => Some(Durability::None),
            _ => None,
        }
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            Durability::Strict => "strict",
            Durability::Batched => "batched",
            Durability::None => "none",
        }
    }
}

/// A typed storage failure: every durability-layer error is one of these —
/// the layer never panics on bad disks or bad bytes.
#[derive(Debug)]
pub enum StorageError {
    /// An IO operation failed (write, fsync, rename, ...). The store
    /// rolls back or poisons itself so acknowledged state stays sound.
    Io { op: &'static str, path: PathBuf, source: io::Error },
    /// On-disk state failed validation: bad magic, checksum mismatch,
    /// non-contiguous WAL versions, mid-log corruption, and so on.
    Corrupt { path: PathBuf, detail: String },
    /// The store directory holds no segment — nothing to open. Callers
    /// that can seed a fresh store (the CLI) branch on this.
    NotInitialized { dir: PathBuf },
    /// A previous failure could not be rolled back; the store refuses
    /// further writes to avoid compounding damage. Reads and recovery
    /// remain possible.
    Poisoned { detail: String },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io { op, path, source } => {
                write!(f, "storage: {op} {}: {source}", path.display())
            }
            StorageError::Corrupt { path, detail } => {
                write!(f, "storage: {} is corrupt: {detail}", path.display())
            }
            StorageError::NotInitialized { dir } => {
                write!(f, "storage: {} holds no store (no segment file)", dir.display())
            }
            StorageError::Poisoned { detail } => {
                write!(f, "storage: store is poisoned after an unrecoverable failure: {detail}")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

pub(crate) fn io_err(op: &'static str, path: &Path) -> impl FnOnce(io::Error) -> StorageError {
    let path = path.to_path_buf();
    move |source| StorageError::Io { op, path, source }
}

pub(crate) fn corrupt(path: &Path, detail: impl Into<String>) -> StorageError {
    StorageError::Corrupt { path: path.to_path_buf(), detail: detail.into() }
}

/// What [`DurableStore::open`] did to bring the store back: the witness the
/// `recover` subcommand prints and the crash-recovery suites verify against.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Version captured by the segment recovery started from.
    pub snapshot_version: u64,
    /// Version after WAL replay — the store resumes committing at
    /// `recovered_version + 1`.
    pub recovered_version: u64,
    /// WAL records applied on top of the snapshot.
    pub wal_records_replayed: u64,
    /// WAL records at or below the snapshot version (leftovers of a crash
    /// between checkpoint rename and WAL truncation), skipped.
    pub wal_records_skipped: u64,
    /// Torn/garbage tail bytes dropped from the WAL (prefix durability:
    /// an interrupted append never acknowledges, so these bytes belong to
    /// no acknowledged commit under `Durability::Strict`).
    pub wal_truncated_bytes: u64,
    /// Segment files that failed validation and were passed over for an
    /// older one (recovery then requires the WAL to still bridge the gap).
    pub corrupt_segments: Vec<String>,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "snapshot version:    {}", self.snapshot_version)?;
        writeln!(f, "recovered version:   {}", self.recovered_version)?;
        writeln!(f, "wal records applied: {}", self.wal_records_replayed)?;
        writeln!(f, "wal records skipped: {}", self.wal_records_skipped)?;
        writeln!(f, "wal tail truncated:  {} byte(s)", self.wal_truncated_bytes)?;
        if self.corrupt_segments.is_empty() {
            writeln!(f, "corrupt segments:    none")
        } else {
            writeln!(f, "corrupt segments:    {}", self.corrupt_segments.join(", "))
        }
    }
}
