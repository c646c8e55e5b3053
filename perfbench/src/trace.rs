//! In-memory span recorder for the traced run.
//!
//! A span records its name, start, end, parent and the id of the
//! operation it belongs to. Spans wrap calls into each layer's public
//! functions from the benchmark's side; they stay in memory and are
//! written out as JSON lines when the run ends. A layer's self time is its
//! span's duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub op: u32,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Nanoseconds covered by direct children.
    pub child_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    pub fn self_ms(&self) -> f64 {
        (self.end_ns - self.start_ns).saturating_sub(self.child_ns) as f64 / 1e6
    }
}

/// Records spans and per-operation counters.
pub struct Tracer {
    epoch: Instant,
    op: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, Vec<f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }
}

impl Tracer {
    /// Sets the operation id the next spans belong to.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            op: self.op,
            name,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
            child_ns: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in ms.
    pub fn end(&mut self) -> f64 {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let idx = self.open.pop().expect("end() without begin()");
        self.spans[idx].end_ns = now;
        let dur = now - self.spans[idx].start_ns;
        if let Some(parent) = self.spans[idx].parent {
            self.spans[parent].child_ns += dur;
        }
        dur as f64 / 1e6
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// Records one value of a per-operation counter.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counters.entry(name).or_default().push(value);
    }

    pub fn counter(&self, name: &str) -> &[f64] {
        self.counters.get(name).map_or(&[], Vec::as_slice)
    }

    /// Self times (ms) of every span named `name`, one per occurrence.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::self_ms).collect()
    }

    /// Durations (ms) of every span named `name`.
    pub fn total_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
    }

    /// Sum of self times per span name over the spans named `root` and
    /// their descendants, for the share table.
    pub fn self_totals_within(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let mut inside = vec![false; self.spans.len()];
        let mut out = BTreeMap::new();
        // parents precede children, so one forward pass settles `inside`
        for (i, s) in self.spans.iter().enumerate() {
            inside[i] = s.name == root || s.parent.is_some_and(|p| inside[p]);
            if inside[i] {
                *out.entry(s.name).or_insert(0.0) += s.self_ms();
            }
        }
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.set_op(7);
        t.begin("read");
        t.span("child", || std::thread::sleep(std::time::Duration::from_millis(5)));
        t.end();
        let read = &t.spans()[0];
        let child = &t.spans()[1];
        assert_eq!(child.parent, Some(0));
        assert_eq!((read.op, child.op), (7, 7));
        assert!(child.ms() >= 5.0);
        assert!((read.ms() - read.self_ms() - child.ms()).abs() < 1e-9);
    }
}
