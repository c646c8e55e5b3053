//! Pieces shared by the three workloads: arguments, answer checks, the
//! end-to-end and per-layer metric tables, and in-process writes.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rig_core::{CompactionPolicy, Session};
use rig_graph::parse_text;

use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;

/// Times `n` (at least one) set-ups and returns their durations with the
/// last set-up's result; earlier results are dropped as the next starts.
pub fn time_setups<T>(n: usize, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (times, last.expect("at least one set-up ran"))
}

/// Compact on every commit: the node-only writes of `cold_hybrid` and
/// `cached_enum` then measure commit + compaction, and every read sees a
/// clean snapshot.
pub const EVERY_COMMIT: CompactionPolicy = CompactionPolicy { min_ops: 1, ratio: 0.0 };

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// End-to-end metrics (tracing off), in output order.
pub const E2E: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run), in output order. A metric a workload
/// does not exercise reads 0.
pub const LAYERS: [(&str, &str); 30] = [
    ("graph.load_s", "s"),
    ("graph.delta_ops", "count"),
    ("reach.bfl_build_s", "s"),
    ("query.parse_ms", "ms"),
    ("query.reduce_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("sim.select_ms", "ms"),
    ("sim.passes", "count"),
    ("sim.pruned_frac", "ratio"),
    ("rig.expand_ms", "ms"),
    ("rig.size", "count"),
    ("rig.heap_mb", "MiB"),
    ("mjoin.order_ms", "ms"),
    ("mjoin.enum_ms", "ms"),
    ("mjoin.steps_per_match", "ratio"),
    ("mjoin.dp_ms", "ms"),
    ("core.cache_hit_frac", "ratio"),
    ("core.plans_invalidated", "count"),
    ("core.commit_ms", "ms"),
    ("core.compactions", "count"),
    ("core.compact_ms", "ms"),
    ("storage.create_s", "s"),
    ("storage.wal_bytes_per_commit", "bytes"),
    ("server.overhead_ms", "ms"),
    ("server.bytes_per_read", "bytes"),
    ("server.rejected", "count"),
    ("core.overhead_ms", "ms"),
    ("trace.read_p50_ms", "ms"),
    ("trace.untraced_read_p50_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Answer checks: any failure makes the run incorrect (exit code 1).
#[derive(Debug, Default)]
pub struct Check {
    pub failures: u64,
}

impl Check {
    pub fn that(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failures += 1;
            if self.failures <= 10 {
                eprintln!("answer check failed: {}", what());
            }
        }
        ok
    }
}

/// What one run of a workload measured.
#[derive(Debug, Default)]
pub struct Report {
    /// `<workload>_seed<n>`: names the files a run leaves in the work dir.
    pub label: String,
    pub scale: f64,
    pub attempted: u64,
    /// Operations that errored, were refused, or hit an unexpected budget.
    pub failed: u64,
    pub check: Check,
    pub reads: usize,
    pub writes: usize,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Samples behind each reported percentile or median.
    pub samples: BTreeMap<&'static str, usize>,
}

/// Latencies of the timed (untraced) operation sequence.
#[derive(Debug, Default)]
pub struct Timed {
    pub read_ms: Vec<f64>,
    pub write_ms: Vec<f64>,
    /// Wall time of the sequence less the benchmark's own work in it
    /// (answer checks, drawing write batches).
    pub wall_s: f64,
    /// `VmHWM` at the end of the sequence, before the post-run checks and
    /// set-ups.
    pub peak_rss_mb: f64,
    /// Per read, in sequence order: the answer count and limit flag, which
    /// the traced replay must reproduce.
    pub answers: Vec<(u64, bool)>,
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Fills the end-to-end metrics from the set-up timings and the timed
/// sequence.
pub fn end_to_end(report: &mut Report, setup_s: &[f64], t: &Timed) -> Result<(), String> {
    let fmt = |v: &[f64]| v.iter().map(|x| format!("{x:.3}")).collect::<Vec<_>>().join(",");
    let dump = format!(
        "{{\"setup_s\":[{}],\"read_ms\":[{}],\"write_ms\":[{}]}}\n",
        fmt(setup_s),
        fmt(&t.read_ms),
        fmt(&t.write_ms)
    );
    let path = crate::work_dir().join(format!("samples_{}.json", report.label));
    let _ = std::fs::create_dir_all(crate::work_dir()).and_then(|()| std::fs::write(path, dump));
    let m = &mut report.metrics;
    m.insert("setup_s", median(setup_s));
    m.insert("ops_per_s", (t.read_ms.len() + t.write_ms.len()) as f64 / t.wall_s);
    m.insert("read_p50_ms", percentile(&t.read_ms, 50)?);
    m.insert("read_p90_ms", percentile(&t.read_ms, 90)?);
    m.insert("write_p50_ms", percentile(&t.write_ms, 50)?);
    m.insert("write_p90_ms", percentile(&t.write_ms, 90)?);
    m.insert("peak_rss_mb", t.peak_rss_mb);
    let s = &mut report.samples;
    s.insert("setup_s", setup_s.len());
    for k in ["read_p50_ms", "read_p90_ms"] {
        s.insert(k, t.read_ms.len());
    }
    for k in ["write_p50_ms", "write_p90_ms"] {
        s.insert(k, t.write_ms.len());
    }
    report.reads = t.read_ms.len();
    report.writes = t.write_ms.len();
    Ok(())
}

/// Per-layer metrics derivable from the spans alone. `op_span` names the
/// span whose self time is the glue between layers.
pub fn layer_metrics(report: &mut Report, tr: &Tracer, op_span: &str) {
    let m = &mut report.metrics;
    let s = &mut report.samples;
    let med = |v: Vec<f64>| median(&v);
    m.insert("graph.load_s", med(tr.total_ms("graph.load")) / 1e3);
    m.insert("reach.bfl_build_s", med(tr.total_ms("reach.bfl_build")) / 1e3);
    for (metric, span) in [
        ("query.parse_ms", "query.parse"),
        ("query.reduce_ms", "query.reduce"),
        ("core.prepare_ms", "core.prepare"),
        ("sim.select_ms", "sim.select"),
        ("rig.expand_ms", "rig.expand"),
        ("mjoin.order_ms", "mjoin.order"),
        ("mjoin.enum_ms", "mjoin.enum"),
        ("mjoin.dp_ms", "mjoin.dp"),
        ("core.commit_ms", "core.commit"),
    ] {
        let v = tr.self_ms(span);
        s.insert(metric, v.len());
        m.insert(metric, median(&v));
    }
    let overhead = tr.self_ms(op_span);
    s.insert("core.overhead_ms", overhead.len());
    m.insert("core.overhead_ms", median(&overhead));
    m.insert("sim.passes", mean(tr.counter("sim.passes")));
    m.insert("sim.pruned_frac", mean(tr.counter("sim.pruned_frac")));
    m.insert("rig.size", median(tr.counter("rig.size")));
    m.insert("rig.heap_mb", median(tr.counter("rig.heap_mb")));
    let steps: f64 = tr.counter("mjoin.steps").iter().sum();
    let matches: f64 = tr.counter("mjoin.matches").iter().sum();
    m.insert("mjoin.steps_per_match", if matches > 0.0 { steps / matches } else { 0.0 });
    let compact = tr.counter("core.compact_ms");
    s.insert("core.compact_ms", compact.len());
    m.insert("core.compact_ms", median(compact));
    m.insert("core.plans_invalidated", tr.counter("core.plans_invalidated").iter().sum());
}

/// Tracing overhead: traced read p50 against the untraced one.
pub fn trace_overhead(report: &mut Report, traced_read_ms: &[f64], untraced_read_ms: &[f64]) {
    let traced = median(traced_read_ms);
    let untraced = median(untraced_read_ms);
    let m = &mut report.metrics;
    m.insert("trace.read_p50_ms", traced);
    m.insert("trace.untraced_read_p50_ms", untraced);
    m.insert("trace.overhead_frac", if untraced > 0.0 { traced / untraced - 1.0 } else { 0.0 });
}

/// Prints the self-time share of each span inside the `op_span`
/// operations.
pub fn print_shares(tr: &Tracer, op_span: &str) {
    let totals = tr.self_totals_within(op_span);
    let op_total: f64 = tr.total_ms(op_span).iter().sum();
    if op_total <= 0.0 {
        return;
    }
    let mut rows: Vec<(&str, f64)> = totals.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let line: Vec<String> =
        rows.iter().map(|(n, v)| format!("{n} {:.1}%", 100.0 * v / op_total)).collect();
    println!("# self-time share of {op_span} ({op_total:.0} ms): {}", line.join(", "));
}

/// Parses the graph text and opens an in-memory session that compacts on
/// every commit (timed as set-up by the caller).
pub fn compacting_session(text: &str) -> Session {
    let g = parse_text(text).expect("generated graph text parses");
    Session::new(g).with_compaction(EVERY_COMMIT)
}

/// Traced variant of [`compacting_session`]: spans around `parse_text`,
/// a standalone `BflIndex::new` (the index `Session::new` builds), and
/// the session itself.
pub fn compacting_session_traced(tr: &mut Tracer, text: &str) -> Session {
    let g = tr.span("graph.load", || parse_text(text).expect("generated graph text parses"));
    tr.span("reach.bfl_build", || rig_reach::BflIndex::new(&g));
    tr.span("core.session", || Session::new(g).with_compaction(EVERY_COMMIT))
}

/// One node-only write: one commit per entry of `commits`, each adding
/// that many nodes under `label` (a label no query uses) and compacting.
/// Returns the latency and whether every commit compacted and kept every
/// cached plan.
pub fn node_write(
    session: &Session,
    label: u32,
    commits: &[usize],
    mut tr: Option<&mut Tracer>,
) -> Result<(f64, bool), rig_core::Error> {
    let start = Instant::now();
    let mut clean = true;
    for &n in commits {
        let mut txn = session.begin();
        for _ in 0..n {
            txn.add_node(label);
        }
        let summary = match tr.as_deref_mut() {
            Some(tr) => {
                tr.begin("core.commit");
                let s = session.commit(txn);
                let dur = tr.end();
                if let Ok(s) = &s {
                    tr.count("core.plans_invalidated", s.plans_invalidated as f64);
                    if s.compacted {
                        tr.count("core.compact_ms", dur);
                    }
                }
                s?
            }
            None => session.commit(txn)?,
        };
        clean &= summary.compacted && summary.plans_invalidated == 0;
    }
    Ok((ms(start.elapsed()), clean))
}
