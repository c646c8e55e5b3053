//! `serve_rw`: writes beside reads, over HTTP. An in-process `rig_server`
//! over loopback serves a durable session; one closed-loop client sends
//! `write, read, read` repeated. A write is one `/update` request of one
//! commit of 3 000 distinct edge inserts and deletes (see
//! [`EdgeToggler`]), or of three commits in every fifth write; a read is
//! `POST /query?mode=stream&limit=1000` of a pool query. Every write
//! invalidates every cached plan (all pool queries have reachability
//! edges), so every read rebuilds its RIG, on a dirty snapshot unless the
//! write before it compacted.
//!
//! The store runs with `Durability::None` on the in-memory `MemBackend`:
//! the WAL records, segment encoding and checksums are all computed, but
//! no device is touched. On `FsBackend` every compaction checkpoint
//! fsyncs its segment whatever the durability policy, so the shared
//! device, not the program, set `write_p90_ms`.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rig_core::{CompactionPolicy, Durability, GmConfig, MemBackend, Session, StoreOptions};
use rig_graph::{parse_text, to_text, DataGraph};
use rig_query::{parse_hpql, transitive_reduction};
use rig_server::metrics::ServerMetrics;
use rig_server::{Server, ServerConfig};

use crate::common::{
    end_to_end, layer_metrics, ms, print_shares, trace_overhead, Check, Report, Timed,
};
use crate::http::{self, field, summary};
use crate::inputs::{
    dataset, mutation_script, op_counts, parse_pool, serve_sequence, EdgeOp, EdgeToggler, Instance,
    Op, BULK_COMMITS,
};
use crate::layers;
use crate::pools;
use crate::stats::{mean, median, peak_rss_mib, Rng};
use crate::trace::Tracer;

pub const SCALE: f64 = 0.05;
const LIMIT: u64 = 1000;
/// Mutations per commit: enough that a write's median stays well above
/// loopback and timer noise.
pub const BATCH: usize = 3000;
/// Every fifth write is a bulk write: one `/update` request of
/// [`BULK_COMMITS`] commits. The others commit once.
const BULK_EVERY: usize = 5;
/// Set-ups timed before and after the timed sequence: each takes a few
/// milliseconds, so their median needs many.
const SETUPS: (usize, usize) = (60, 60);

/// Commits of write `b`.
fn commits_of(b: usize) -> usize {
    if (b + 1).is_multiple_of(BULK_EVERY) {
        BULK_COMMITS
    } else {
        1
    }
}

/// The store's compaction policy: compact once the delta holds the
/// commits of one cycle of [`BULK_EVERY`] writes. The last commit of each
/// bulk write compacts, so a bulk write costs about three ordinary ones
/// plus a compaction: the write p90 rank falls in the middle of the bulk
/// writes and the p50 rank among the others. With one commit per write
/// and every fifth compacting, a compaction cost less than twice a plain
/// commit, slow seconds of the host lifted plain commits above it, and
/// the p90 rank fell where the two kinds overlapped.
pub fn compaction() -> CompactionPolicy {
    let cycle = (BULK_EVERY - 1 + BULK_COMMITS) * BATCH;
    CompactionPolicy { min_ops: cycle as u64, ..CompactionPolicy::default() }
}

/// A bound, serving server over its durable session.
struct Served {
    session: Arc<Session>,
    addr: SocketAddr,
    metrics: Arc<ServerMetrics>,
    handle: JoinHandle<std::io::Result<()>>,
    backend: Arc<MemBackend>,
    dir: PathBuf,
}

impl Served {
    /// Parses the text, creates the durable store at `dir` and binds the
    /// server (the timed set-up), then starts serving.
    fn start(text: &str, dir: &Path, tr: Option<&mut Tracer>) -> Served {
        let backend = Arc::new(MemBackend::new());
        let create = |g: DataGraph| {
            Session::create_at_with(
                dir,
                g,
                GmConfig::default(),
                Arc::clone(&backend) as Arc<dyn rig_core::StorageBackend>,
                StoreOptions::with_durability(Durability::None),
            )
            .expect("store creates")
            .with_compaction(compaction())
        };
        let session = Arc::new(match tr {
            Some(tr) => {
                let g = tr.span("graph.load", || parse_text(text).expect("graph text parses"));
                tr.span("reach.bfl_build", || rig_reach::BflIndex::new(&g));
                tr.span("storage.create", || create(g))
            }
            None => create(parse_text(text).expect("graph text parses")),
        });
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2);
        let server = Server::bind(
            Arc::clone(&session),
            "127.0.0.1:0",
            ServerConfig { workers, ..ServerConfig::default() },
        )
        .expect("loopback bind");
        let addr = server.local_addr();
        let metrics = server.metrics();
        let handle = std::thread::spawn(move || server.serve());
        Served { session, addr, metrics, handle, backend, dir: dir.to_path_buf() }
    }

    /// Stops the server and waits for it.
    fn stop(self) {
        let _ = http::request(self.addr, "POST", "/shutdown", "");
        match self.handle.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => eprintln!("server exited with {e}"),
            Err(_) => eprintln!("server thread panicked"),
        }
    }

    fn wal_bytes(&self) -> u64 {
        self.backend.file(&self.dir.join("wal.log")).map_or(0, |wal| wal.len() as u64)
    }
}

/// Outcome of one HTTP read.
struct ReadOut {
    status: u16,
    ok: bool,
    count: u64,
    bytes: usize,
}

fn http_read(addr: SocketAddr, text: &str) -> std::io::Result<ReadOut> {
    let r = http::request(addr, "POST", &format!("/query?mode=stream&limit={LIMIT}"), text)?;
    let s = summary(&r.body);
    let count: u64 = field(s, "count").and_then(|v| v.parse().ok()).unwrap_or(u64::MAX);
    let lines = r.body.lines().filter(|l| l.starts_with('[')).count() as u64;
    // a stream that stops at the requested limit is the expected budget trip
    let status_ok = match field(s, "status") {
        Some("ok") => true,
        Some("budget") => {
            field(s, "limit_hit") == Some("true")
                && field(s, "timed_out") == Some("false")
                && count == LIMIT
        }
        _ => false,
    };
    Ok(ReadOut {
        status: r.status,
        ok: r.status == 200 && status_ok && lines == count,
        count,
        bytes: r.bytes,
    })
}

/// One `/update` request of one commit per batch.
fn http_write(addr: SocketAddr, batches: &[Vec<EdgeOp>]) -> std::io::Result<(u16, bool)> {
    let script: String = batches.iter().map(|b| mutation_script(b)).collect();
    let r = http::request(addr, "POST", "/update", &script)?;
    let ops = batches.iter().flatten();
    let adds = ops.clone().filter(|op| matches!(op, EdgeOp::Add(..))).count();
    let reported = |name| field(&r.body, name).and_then(|v| v.parse::<usize>().ok());
    let ok = field(&r.body, "status") == Some("ok")
        && reported("commits") == Some(batches.len())
        && reported("edges_added") == Some(adds)
        && reported("edges_removed") == Some(ops.count() - adds);
    Ok((r.status, ok))
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Report {
    let mut report =
        Report { label: format!("serve_rw_seed{seed}"), scale: SCALE, ..Report::default() };
    let g = dataset(SCALE);
    let mut toggler = EdgeToggler::new(&g, BATCH / 2);
    let text = to_text(&toggler.graph(&g));
    drop(g);
    let pool = parse_pool(pools::SERVE_RW);
    let (reads, writes) = op_counts(seconds, pool.len(), 18.0, 9.0);
    // one write per two reads, in whole passes: an odd count takes one
    // more pass
    let mut reads = reads.max(2 * writes).div_ceil(pool.len()) * pool.len();
    if reads % 2 == 1 {
        reads += pool.len();
    }
    let mut rng = Rng::new(seed);
    let ops = serve_sequence(&mut rng, pool.len(), reads);
    // each write's batch is drawn just before it, untimed; the traced
    // replay draws the same batches from copies of the generator state
    let (replay_rng, replay_toggler) = (rng.clone(), toggler.clone());
    // the store's path inside its in-memory backend
    let store = Path::new("store");

    let mut setup_s = Vec::with_capacity(SETUPS.0 + SETUPS.1);
    let mut timed_start = || {
        let start = Instant::now();
        let served = Served::start(&text, store, None);
        setup_s.push(start.elapsed().as_secs_f64());
        served
    };
    for _ in 1..SETUPS.0 {
        Served::stop(timed_start());
    }
    let served = timed_start();

    // untimed warm-up: one read of every query (the first timed write
    // drops every plan it caches)
    for inst in &pool {
        let ok = http_read(served.addr, &inst.text).is_ok_and(|r| r.ok);
        report.check.that(ok, || format!("{}: warm-up read failed", inst.tag));
    }

    let before = served.session.cache_stats();
    let mut timed = Timed::default();
    let mut untimed = Duration::ZERO;
    let wall = Instant::now();
    for op in &ops {
        report.attempted += 1;
        match *op {
            Op::Write { b } => {
                let drawn = Instant::now();
                let batches: Vec<Vec<EdgeOp>> =
                    (0..commits_of(b)).map(|_| toggler.next_batch(&mut rng)).collect();
                untimed += drawn.elapsed();
                let start = Instant::now();
                let result = http_write(served.addr, &batches);
                timed.write_ms.push(ms(start.elapsed()));
                match result {
                    Ok((200, ok)) => {
                        report.check.that(ok, || format!("write {b}: unexpected /update summary"));
                    }
                    Ok((status, _)) => {
                        eprintln!("write {b}: HTTP {status}");
                        report.failed += 1;
                    }
                    Err(e) => {
                        eprintln!("write {b}: {e}");
                        report.failed += 1;
                    }
                }
            }
            Op::Read { q, .. } => {
                let start = Instant::now();
                let result = http_read(served.addr, &pool[q].text);
                timed.read_ms.push(ms(start.elapsed()));
                match result {
                    Ok(r) if r.status == 200 => {
                        report.check.that(r.ok, || {
                            format!("read {}: stream body disagrees with its summary", pool[q].tag)
                        });
                        timed.answers.push((r.count, false));
                    }
                    Ok(r) => {
                        eprintln!("read {}: HTTP {}", pool[q].tag, r.status);
                        report.failed += 1;
                        timed.answers.push((u64::MAX, false));
                    }
                    Err(e) => {
                        eprintln!("read {}: {e}", pool[q].tag);
                        report.failed += 1;
                        timed.answers.push((u64::MAX, false));
                    }
                }
            }
        }
    }
    timed.wall_s = (wall.elapsed() - untimed).as_secs_f64();
    timed.peak_rss_mb = peak_rss_mib();
    let after = served.session.cache_stats();

    differential(&served, &pool, &[toggler.next_batch(&mut rng)], &mut report.check);
    let rejected = served.metrics.rejected.load(std::sync::atomic::Ordering::Relaxed);
    Served::stop(served);
    for _ in 0..SETUPS.1 {
        Served::stop(timed_start());
    }
    if let Err(e) = end_to_end(&mut report, &setup_s, &timed) {
        report.check.that(false, || e);
    }
    if traced {
        let m = &mut report.metrics;
        let hits = (after.hits - before.hits) as f64;
        let lookups = hits + (after.misses - before.misses) as f64;
        m.insert("core.cache_hit_frac", if lookups > 0.0 { hits / lookups } else { 0.0 });
        m.insert("server.rejected", rejected as f64);
        let batches = Batches { rng: replay_rng, toggler: replay_toggler };
        replay(&mut report, &text, store, &pool, &ops, batches, &timed);
    }
    report
}

/// The write batches of a run, drawn in sequence order.
struct Batches {
    rng: Rng,
    toggler: EdgeToggler,
}

/// After the run: the HTTP count of every query over the dirty final
/// snapshot must equal a fresh session's count over the materialized
/// final graph. When the last write compacted, `extra` (one batch, fewer
/// ops than a compaction needs) dirties the snapshot first, so the check
/// always exercises the delta overlay.
fn differential(served: &Served, pool: &[Instance], extra: &[Vec<EdgeOp>], check: &mut Check) {
    if served.session.store_stats().delta_ops == 0 {
        let ok = http_write(served.addr, extra).is_ok_and(|(status, ok)| status == 200 && ok);
        check.that(ok, || "differential: the extra write failed".to_string());
    }
    let snapshot = served.session.graph();
    check.that(snapshot.is_dirty(), || "differential: the final snapshot is clean".to_string());
    let clean = Session::new(snapshot.materialize());
    for inst in pool {
        let over_http = http::request(served.addr, "POST", "/query?mode=count", &inst.text)
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| field(&r.body, "count").and_then(|v| v.parse::<u64>().ok()));
        let fresh = clean.prepare(inst.text.as_str()).map(|p| p.run().count().result.count).ok();
        check.that(over_http.is_some() && over_http == fresh, || {
            format!(
                "{}: HTTP count {over_http:?} on the dirty store, fresh session {fresh:?}",
                inst.tag
            )
        });
    }
}

/// The traced run: the same sequence against a fresh store and server.
/// Writes are replayed in-process through `Session::commit` (timing the
/// commit and the WAL growth); each read goes over HTTP and is then
/// replayed in-process through the layers on the same snapshot.
fn replay(
    report: &mut Report,
    text: &str,
    dir: &Path,
    pool: &[Instance],
    ops: &[Op],
    mut batches: Batches,
    untraced: &Timed,
) {
    let mut tr = Tracer::default();
    let served = Served::start(text, dir, Some(&mut tr));
    for inst in pool {
        let ok = http_read(served.addr, &inst.text).is_ok_and(|r| r.ok);
        report.check.that(ok, || format!("{}: traced warm-up read failed", inst.tag));
    }
    let session = Arc::clone(&served.session);
    let mut answers = untraced.answers.iter();
    let (mut http_ms, mut overhead, mut bytes, mut wal_growth) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, op) in ops.iter().enumerate() {
        tr.set_op(i as u32 + 1);
        match *op {
            Op::Write { b } => {
                tr.begin("write");
                for _ in 0..commits_of(b) {
                    let mut txn = session.begin();
                    for e in batches.toggler.next_batch(&mut batches.rng) {
                        match e {
                            EdgeOp::Add(u, v) => txn.add_edge(u, v),
                            EdgeOp::Remove(u, v) => txn.remove_edge(u, v),
                        }
                    }
                    let wal_before = served.wal_bytes();
                    tr.begin("core.commit");
                    let result = session.commit(txn);
                    let dur = tr.end();
                    match result {
                        Ok(s) => {
                            tr.count("core.plans_invalidated", s.plans_invalidated as f64);
                            if s.compacted {
                                tr.count("core.compact_ms", dur);
                            } else {
                                let grown = served.wal_bytes().saturating_sub(wal_before);
                                wal_growth.push(grown as f64);
                            }
                        }
                        Err(e) => {
                            report.check.that(false, || format!("traced write {b}: {e}"));
                        }
                    }
                }
                tr.end();
            }
            Op::Read { q, .. } => {
                tr.count("graph.delta_ops", session.store_stats().delta_ops as f64);
                tr.begin("read");
                let over_http = http_read(served.addr, &pool[q].text);
                let read_ms = tr.end();
                tr.begin("replay");
                let ast = tr
                    .span("query.parse", || parse_hpql(&pool[q].text))
                    .expect("pool query parses");
                let p =
                    tr.span("core.prepare", || session.prepare(ast)).expect("pool query prepares");
                tr.span("query.reduce", || transitive_reduction(p.query()));
                let rig = layers::build(&mut tr, &session, p.reduced());
                let mut sink = rig_core::CountSink::default();
                let r =
                    layers::stream(&mut tr, &session, p.reduced(), &rig, Some(LIMIT), &mut sink);
                let replay_ms = tr.end();
                http_ms.push(read_ms);
                overhead.push(read_ms - replay_ms);
                let want = answers.next().map_or(u64::MAX, |a| a.0);
                let got = over_http.map_or(u64::MAX, |h| {
                    bytes.push(h.bytes as f64);
                    if h.ok {
                        h.count
                    } else {
                        u64::MAX
                    }
                });
                report.check.that(got == want && r.count == want, || {
                    format!(
                        "traced read {i} ({}): HTTP {got}, replay {}, untraced {want}",
                        pool[q].tag, r.count
                    )
                });
            }
        }
    }
    layer_metrics(report, &tr, "replay");
    let m = &mut report.metrics;
    m.insert("core.compactions", session.store_stats().compactions as f64);
    m.insert("graph.delta_ops", mean(tr.counter("graph.delta_ops")));
    m.insert("storage.create_s", median(&tr.total_ms("storage.create")) / 1e3);
    m.insert("storage.wal_bytes_per_commit", mean(&wal_growth));
    m.insert("server.overhead_ms", median(&overhead));
    m.insert("server.bytes_per_read", mean(&bytes));
    report.samples.insert("server.overhead_ms", overhead.len());
    trace_overhead(report, &http_ms, &untraced.read_ms);
    print_shares(&tr, "replay");
    drop(session);
    Served::stop(served);
    let _ = tr.write_jsonl(&crate::work_dir().join(format!("trace_{}.jsonl", report.label)));
}
