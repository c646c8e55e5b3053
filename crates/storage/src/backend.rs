//! File-IO abstraction: every byte the durability layer reads or writes
//! goes through a [`StorageBackend`], so the recovery paths can be driven
//! by deterministic injected faults ([`MemBackend`]) instead of real disk
//! failures, while production uses plain `std::fs` ([`FsBackend`]).

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The file operations the store needs. Path-based and stateless on
/// purpose: there is no handle lifetime to reason about across a simulated
/// crash, and a fault plan can key on an operation counter alone.
pub trait StorageBackend: Send + Sync {
    /// Reads the whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates/truncates the file and writes `data` (no implicit fsync).
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Appends `data` to the file, creating it if absent. An error may
    /// leave a *prefix* of `data` persisted (a torn append) — callers
    /// repair via [`StorageBackend::truncate`].
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// fsyncs the file.
    fn sync(&self, path: &Path) -> io::Result<()>;
    /// Atomically renames `from` to `to` (same directory).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Truncates the file to `len` bytes.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Removes the file.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// File names (not paths) inside `dir`.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Creates `dir` and its parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// fsyncs the directory (makes renames/creates durable).
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// True iff the file exists.
    fn exists(&self, path: &Path) -> bool;
}

// ---------------------------------------------------------------------------
// real filesystem
// ---------------------------------------------------------------------------

/// The production backend: plain `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct FsBackend;

impl StorageBackend for FsBackend {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        std::fs::write(path, data)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).create(true).open(path)?;
        f.write_all(data)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(len)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            names.push(entry?.file_name().to_string_lossy().into_owned());
        }
        names.sort();
        Ok(names)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        std::fs::File::open(dir)?.sync_all()
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

// ---------------------------------------------------------------------------
// fault-injecting in-memory backend
// ---------------------------------------------------------------------------

#[derive(Debug, Default, Clone)]
struct MemFile {
    data: Vec<u8>,
    /// Bytes guaranteed durable: what survives [`MemBackend::simulate_crash`].
    synced: usize,
}

#[derive(Debug, Default)]
struct Faults {
    /// Fail the Nth *mutating* op (1-based over append/write/rename/
    /// truncate/remove), persisting nothing of it.
    fail_op: Option<u64>,
    /// On the Nth append, persist only the first `keep` bytes, then fail
    /// (a torn append).
    short_append: Option<(u64, usize)>,
    /// Fail the Nth sync/sync_dir call (1-based, separate counter) without
    /// advancing durability.
    fail_sync: Option<u64>,
    /// After any injected fault fires, every subsequent operation fails
    /// too — models a process on its way down. Defaults to off so single
    /// transient faults can be tested.
    wedge_after_fault: bool,
}

#[derive(Debug, Default)]
struct MemInner {
    files: BTreeMap<PathBuf, MemFile>,
    ops: u64,
    syncs: u64,
    wedged: bool,
    faults: Faults,
}

/// In-memory [`StorageBackend`] with a deterministic fault plan: fail the
/// Nth write, tear an append short, fail an fsync, flip bits, wedge after
/// the first fault, and [`simulate_crash`](MemBackend::simulate_crash) by
/// dropping every unsynced byte. The recovery test suites drive every
/// crash path in the store through this.
#[derive(Debug, Default)]
pub struct MemBackend {
    inner: Mutex<MemInner>,
}

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("injected fault: {what}"))
}

impl MemBackend {
    pub fn new() -> MemBackend {
        MemBackend::default()
    }

    /// Locks the backend state. No critical section panics halfway
    /// through an update, so a poisoned lock still holds coherent files.
    fn inner(&self) -> MutexGuard<'_, MemInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fail the `n`th mutating operation (1-based), persisting nothing.
    pub fn fail_op_at(&self, n: u64) {
        self.inner().faults.fail_op = Some(n);
    }

    /// On the `n`th append (counted on the shared mutating-op counter),
    /// persist only `keep` bytes and fail.
    pub fn short_append_at(&self, n: u64, keep: usize) {
        self.inner().faults.short_append = Some((n, keep));
    }

    /// Fail the `n`th sync/sync_dir call (1-based, own counter).
    pub fn fail_sync_at(&self, n: u64) {
        self.inner().faults.fail_sync = Some(n);
    }

    /// After the first injected fault, fail every later operation too.
    pub fn wedge_after_fault(&self) {
        self.inner().faults.wedge_after_fault = true;
    }

    /// Power loss: every file keeps only its synced prefix; fault plan and
    /// wedge are cleared so recovery can run.
    pub fn simulate_crash(&self) {
        let mut inner = self.inner();
        for f in inner.files.values_mut() {
            let keep = f.synced;
            f.data.truncate(keep);
        }
        inner.wedged = false;
        inner.faults = Faults::default();
    }

    /// XORs `mask` into the byte at `offset` (bit-flip corruption).
    /// Panics if `path` does not exist or `offset` is past its end.
    #[allow(clippy::panic, reason = "fault-injection misuse must fail the test loudly")]
    pub fn corrupt(&self, path: &Path, offset: usize, mask: u8) {
        let mut inner = self.inner();
        let f = inner.files.get_mut(path).unwrap_or_else(|| panic!("no file {}", path.display()));
        f.data[offset] ^= mask;
    }

    /// Current contents of `path`, if it exists.
    pub fn file(&self, path: &Path) -> Option<Vec<u8>> {
        self.inner().files.get(path).map(|f| f.data.clone())
    }

    /// Number of mutating operations performed so far (the counter the
    /// `*_at` fault points index into).
    pub fn ops(&self) -> u64 {
        self.inner().ops
    }

    /// Number of sync calls performed so far.
    pub fn syncs(&self) -> u64 {
        self.inner().syncs
    }
}

impl MemInner {
    /// Bumps the mutating-op counter; returns an error if this op is the
    /// fault point (or the backend is wedged).
    fn mutating_op(&mut self, what: &str) -> io::Result<()> {
        if self.wedged {
            return Err(injected("backend wedged"));
        }
        self.ops += 1;
        if self.faults.fail_op == Some(self.ops) {
            if self.faults.wedge_after_fault {
                self.wedged = true;
            }
            return Err(injected(what));
        }
        Ok(())
    }
}

impl StorageBackend for MemBackend {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let inner = self.inner();
        if inner.wedged {
            return Err(injected("backend wedged"));
        }
        match inner.files.get(path) {
            Some(f) => Ok(f.data.clone()),
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
        }
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut inner = self.inner();
        inner.mutating_op("write")?;
        let f = inner.files.entry(path.to_path_buf()).or_default();
        f.data = data.to_vec();
        f.synced = 0;
        Ok(())
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut inner = self.inner();
        // a short append tears: part of the payload lands, then the error
        if let Some((n, keep)) = inner.faults.short_append {
            if n == inner.ops + 1 {
                inner.mutating_op("append")?; // bumps; may also be fail_op
                let keep = keep.min(data.len());
                let wedge = inner.faults.wedge_after_fault;
                let f = inner.files.entry(path.to_path_buf()).or_default();
                f.data.extend_from_slice(&data[..keep]);
                if wedge {
                    inner.wedged = true;
                }
                return Err(injected("short append"));
            }
        }
        inner.mutating_op("append")?;
        let f = inner.files.entry(path.to_path_buf()).or_default();
        f.data.extend_from_slice(data);
        Ok(())
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        let mut inner = self.inner();
        if inner.wedged {
            return Err(injected("backend wedged"));
        }
        inner.syncs += 1;
        if inner.faults.fail_sync == Some(inner.syncs) {
            if inner.faults.wedge_after_fault {
                inner.wedged = true;
            }
            return Err(injected("sync"));
        }
        match inner.files.get_mut(path) {
            Some(f) => {
                f.synced = f.data.len();
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut inner = self.inner();
        inner.mutating_op("rename")?;
        match inner.files.remove(from) {
            Some(f) => {
                inner.files.insert(to.to_path_buf(), f);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
        }
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut inner = self.inner();
        inner.mutating_op("truncate")?;
        match inner.files.get_mut(path) {
            Some(f) => {
                f.data.truncate(len as usize);
                f.synced = f.synced.min(len as usize);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
        }
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut inner = self.inner();
        inner.mutating_op("remove")?;
        match inner.files.remove(path) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
        }
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let inner = self.inner();
        if inner.wedged {
            return Err(injected("backend wedged"));
        }
        let mut names: Vec<String> = inner
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect();
        names.sort();
        Ok(names)
    }

    fn create_dir_all(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        let mut inner = self.inner();
        if inner.wedged {
            return Err(injected("backend wedged"));
        }
        inner.syncs += 1;
        if inner.faults.fail_sync == Some(inner.syncs) {
            if inner.faults.wedge_after_fault {
                inner.wedged = true;
            }
            return Err(injected("sync_dir"));
        }
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner().files.contains_key(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_round_trip() {
        let b = MemBackend::new();
        let p = Path::new("/store/wal.log");
        b.append(p, b"abc").unwrap();
        b.append(p, b"def").unwrap();
        assert_eq!(b.read(p).unwrap(), b"abcdef");
        b.truncate(p, 4).unwrap();
        assert_eq!(b.read(p).unwrap(), b"abcd");
        b.rename(p, Path::new("/store/x")).unwrap();
        assert!(!b.exists(p));
        assert_eq!(b.list(Path::new("/store")).unwrap(), vec!["x".to_string()]);
    }

    #[test]
    fn crash_drops_unsynced_suffix() {
        let b = MemBackend::new();
        let p = Path::new("/store/wal.log");
        b.append(p, b"durable").unwrap();
        b.sync(p).unwrap();
        b.append(p, b"+volatile").unwrap();
        b.simulate_crash();
        assert_eq!(b.read(p).unwrap(), b"durable");
    }

    #[test]
    fn short_append_tears() {
        let b = MemBackend::new();
        let p = Path::new("/store/wal.log");
        b.append(p, b"ok").unwrap();
        b.short_append_at(2, 3);
        assert!(b.append(p, b"abcdef").is_err());
        assert_eq!(b.read(p).unwrap(), b"okabc");
        // next append works again (fault was one-shot and did not wedge)
        b.append(p, b"!").unwrap();
        assert_eq!(b.read(p).unwrap(), b"okabc!");
    }

    #[test]
    fn fail_op_and_wedge() {
        let b = MemBackend::new();
        b.wedge_after_fault();
        b.fail_op_at(2);
        let p = Path::new("/store/f");
        b.write(p, b"one").unwrap();
        assert!(b.write(p, b"two").is_err());
        assert!(b.read(p).is_err(), "wedged backend fails reads too");
        b.simulate_crash();
        // nothing was synced, so the crash wipes the file
        assert_eq!(b.read(p).unwrap(), b"");
    }

    #[test]
    fn fail_sync_keeps_data_volatile() {
        let b = MemBackend::new();
        let p = Path::new("/store/wal.log");
        b.append(p, b"abc").unwrap();
        b.fail_sync_at(1);
        assert!(b.sync(p).is_err());
        b.simulate_crash();
        assert_eq!(b.read(p).unwrap(), b"");
    }
}
