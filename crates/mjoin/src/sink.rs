//! Streaming result consumption.
//!
//! A [`ResultSink`] receives occurrence tuples as MJoin produces them, so
//! callers consume matches **without materializing the answer set**: a
//! count-only sink keeps a single counter, a first-k sink keeps at most
//! `k` tuples, a [`WriteSink`] formats them as text and writes one batch
//! at a time to any [`std::io::Write`]. The enumeration entry point,
//! [`crate::enumerate_sink`], is built on this trait; a closure visitor
//! rides in a [`FnSink`].
//!
//! A sink that returns `false` from [`ResultSink::push`] stops the
//! enumeration — it does *not* set `limit_hit`, which is reserved for the
//! engine-enforced [`crate::EnumOptions::limit`] budget.

use std::io::{self, Write};

use rig_graph::{push_decimal, NodeId};

/// A consumer of occurrence tuples (indexed by query node id).
pub trait ResultSink {
    /// Receives one occurrence. Return `false` to stop the enumeration.
    fn push(&mut self, tuple: &[NodeId]) -> bool;

    /// Called exactly once when the enumeration ends, so
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
/// stop.
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

/// How [`WriteSink`] frames one tuple: `open`, the ids joined by `sep`,
/// then `close`.
#[derive(Debug, Clone, Copy)]
pub struct TupleFormat {
    open: &'static [u8],
    sep: &'static [u8],
    close: &'static [u8],
}

impl TupleFormat {
    /// `[a,b,c]\n`: one JSON array per line (the server's NDJSON body).
    pub const NDJSON: TupleFormat = TupleFormat { open: b"[", sep: b",", close: b"]\n" };
    /// `a b c\n`: the CLI's text output.
    pub const TEXT: TupleFormat = TupleFormat { open: b"", sep: b" ", close: b"\n" };
}

/// Formats tuples as text into one reused byte buffer and writes every
/// `batch_tuples` of them to `out` with one `write_all` and a `flush`
/// (and the tail once more at [`ResultSink::finish`]). Space is
/// O(batch), not O(answer), and nothing is allocated after
/// construction. The first write error is kept, and `push` returns
/// `false` from then on, so a dead reader stops the enumeration.
pub struct WriteSink<W: Write> {
    out: W,
    format: TupleFormat,
    batch_tuples: usize,
    buf: Vec<u8>,
    in_batch: usize,
    pushed: u64,
    error: Option<io::Error>,
}

impl<W: Write> WriteSink<W> {
    /// `arity` = query node count; the buffer is sized for a full batch
    /// of the longest possible tuples, so it never grows while streaming.
    pub fn new(out: W, arity: usize, batch_tuples: usize, format: TupleFormat) -> Self {
        let batch_tuples = batch_tuples.max(1);
        let tuple_bytes =
            format.open.len() + format.close.len() + arity * (MAX_ID_DIGITS + format.sep.len());
        let buf = Vec::with_capacity(batch_tuples * tuple_bytes);
        WriteSink { out, format, batch_tuples, buf, in_batch: 0, pushed: 0, error: None }
    }

    /// Appends raw bytes (a response head or trailer) to the pending
    /// batch: they go out with its write.
    pub fn write_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Tuples accepted so far.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Consumes the sink, handing back its first write error.
    pub fn into_error(self) -> Option<io::Error> {
        self.error
    }

    fn write_out(&mut self) {
        if self.error.is_none() && !self.buf.is_empty() {
            let written = self.out.write_all(&self.buf).and_then(|()| self.out.flush());
            self.error = written.err();
        }
        self.buf.clear();
        self.in_batch = 0;
    }
}

/// Decimal digits of the largest `NodeId`.
const MAX_ID_DIGITS: usize = 10;

impl<W: Write> ResultSink for WriteSink<W> {
    fn push(&mut self, tuple: &[NodeId]) -> bool {
        if self.error.is_some() {
            return false;
        }
        self.buf.extend_from_slice(self.format.open);
        let mut sep: &[u8] = b"";
        for &id in tuple {
            self.buf.extend_from_slice(sep);
            push_decimal(&mut self.buf, id);
            sep = self.format.sep;
        }
        self.buf.extend_from_slice(self.format.close);
        self.pushed += 1;
        self.in_batch += 1;
        if self.in_batch == self.batch_tuples {
            self.write_out();
        }
        self.error.is_none()
    }

    /// Writes the pending tail. Calling it again after
    /// [`WriteSink::write_raw`] writes those bytes too.
    fn finish(&mut self) {
        self.write_out();
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

    /// Records each `write` call as one chunk, so a test sees how many
    /// writes a sink made and what each carried.
    #[derive(Default)]
    struct Chunks(Vec<Vec<u8>>);

    impl Write for &mut Chunks {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0.push(bytes.to_vec());
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_sink_writes_full_batches_and_tail() {
        let mut chunks = Chunks::default();
        let mut s = WriteSink::new(&mut chunks, 2, 2, TupleFormat::NDJSON);
        s.write_raw(b"head\n");
        for t in [[0, 1], [2, 30], [4_294_967_295, 5]] {
            assert!(s.push(&t));
        }
        s.finish();
        s.write_raw(b"tail\n");
        s.finish();
        assert_eq!(s.pushed(), 3);
        assert!(s.into_error().is_none());
        let chunks: Vec<&[u8]> = chunks.0.iter().map(Vec::as_slice).collect();
        let expected: [&[u8]; 3] = [b"head\n[0,1]\n[2,30]\n", b"[4294967295,5]\n", b"tail\n"];
        assert_eq!(chunks, expected);
    }

    #[test]
    fn write_sink_text_format() {
        let mut out = Vec::new();
        let mut s = WriteSink::new(&mut out, 3, 256, TupleFormat::TEXT);
        assert!(s.push(&[7, 0, 12]));
        assert!(s.push(&[100, 9, 1]));
        s.finish();
        assert_eq!(out, b"7 0 12\n100 9 1\n");
    }

    /// The first failed write is kept and stops the enumeration; nothing
    /// is written after it.
    #[test]
    fn write_sink_stops_after_a_failed_write() {
        struct Full(usize);
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                self.0 += 1;
                Err(io::ErrorKind::StorageFull.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut s = WriteSink::new(Full(0), 1, 1, TupleFormat::TEXT);
        assert!(!s.push(&[1]));
        assert!(!s.push(&[2]));
        s.finish();
        assert_eq!(s.pushed(), 1);
        assert_eq!(s.out.0, 1);
        assert_eq!(s.into_error().map(|e| e.kind()), Some(io::ErrorKind::StorageFull));
    }
}
