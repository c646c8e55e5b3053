//! `rig_server` — a concurrent HTTP/NDJSON query server over the
//! rigmatch [`Session`] (ROADMAP item 2: the "millions of users"
//! scenario made measurable).
//!
//! The design leans on two properties the engine already has: the
//! [`Session`] is `Sync` with snapshot-consistent readers (every request
//! sees one graph version, mutations publish atomically), and result
//! enumeration streams through [`rig_mjoin::ResultSink`] without
//! materializing answers. The server adds the serving shell:
//!
//! - **`POST /query`** — body is HPQL text. Default mode streams every
//!   occurrence as one JSON array per line (NDJSON, written through a
//!   [`WriteSink`], one socket write per batch) followed by a trailing
//!   summary object;
//!   `?mode=count` returns a single JSON object instead, auto-routed
//!   through the factorized DP when the query shape allows (`via_dp`).
//!   `?limit=N` and `?timeout_ms=N` map onto the engine's budget
//!   machinery — a truncated answer reports `"status":"budget"` with
//!   `timed_out`/`limit_hit` set, mirroring the library API.
//!   `?lint=strict` runs the static analyzer (`rig_analyze`) first and
//!   refuses queries with error-severity findings: 422 with
//!   `"kind":"analysis"` and the full diagnostics report in the body
//!   (counted by `rigmatch_lint_rejections_total`); see
//!   `docs/analysis.md`.
//! - **`POST /update`** — body is a mutation script (`docs/updates.md`);
//!   each `commit` segment becomes one optimistic transaction, retried a
//!   bounded number of times on write conflicts before answering 409.
//! - **`GET /metrics`** — Prometheus text: server counters plus the
//!   session's [`CacheStats`]/[`StoreStats`] (see [`metrics`]).
//! - **`GET /healthz`** — liveness probe.
//! - **`POST /shutdown`** — graceful stop: drain queued connections,
//!   join workers, return from [`Server::serve`].
//!
//! **Admission control**: a bounded worker pool pulls connections from a
//! bounded queue; when both are full the acceptor answers 503
//! immediately instead of letting latency grow without bound (up to
//! `workers + queue_depth` connections are in flight at once). **Slow
//! clients** are bounded by a write timeout — a stalled or vanished
//! reader fails the next batch write, which stops the enumeration via
//! the sink protocol and frees the worker.
//!
//! One request per connection (`Connection: close`): streamed bodies are
//! delimited by the close, so the protocol needs no chunked framing and
//! a client can abandon a stream by closing its socket.
//!
//! [`CacheStats`]: rig_core::CacheStats
//! [`StoreStats`]: rig_core::StoreStats

pub mod http;
pub mod metrics;

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rig_core::{Error, ErrorKind, Session};
use rig_mjoin::{ResultSink, TupleFormat, WriteSink};

use http::{Request, RequestError};
use metrics::ServerMetrics;
use rig_analyze::json_escape;

/// How often `/update` re-stages a script segment that lost an
/// optimistic-commit race before giving up with 409.
const COMMIT_RETRIES: u32 = 8;

/// Server tuning knobs. `Default` suits tests and small deployments.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads evaluating requests.
    pub workers: usize,
    /// Accepted connections that may wait for a worker; beyond this the
    /// acceptor answers 503.
    pub queue_depth: usize,
    /// Per-connection read timeout (request head + body).
    pub read_timeout: Duration,
    /// Per-connection write timeout: bounds how long a slow client can
    /// pin a worker between batches.
    pub write_timeout: Duration,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Tuples per socket write of a streamed NDJSON body (the
    /// [`WriteSink`] batch size).
    pub batch_tuples: usize,
    /// Test aid: sleep this long at the start of every `/query` before
    /// evaluating, to make admission-control behavior deterministic in
    /// integration tests. `None` in production.
    pub handler_delay: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 16,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_body_bytes: 1 << 20,
            batch_tuples: 256,
            handler_delay: None,
        }
    }
}

/// A bound (but not yet serving) server. [`Server::serve`] runs the
/// accept loop on the calling thread; [`Server::spawn`] wraps it in a
/// thread and hands back the bound address.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    session: Arc<Session>,
    config: ServerConfig,
    metrics: Arc<ServerMetrics>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) over
    /// `session`.
    pub fn bind(
        session: Arc<Session>,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            session,
            config,
            metrics: Arc::new(ServerMetrics::default()),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's counters (shared; live while the server runs).
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Convenience for tests, benches and the CLI: serve on a background
    /// thread, returning the bound address and the join handle.
    pub fn spawn(
        session: Arc<Session>,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<(SocketAddr, JoinHandle<std::io::Result<()>>)> {
        let server = Server::bind(session, addr, config)?;
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.serve());
        Ok((addr, handle))
    }

    /// Runs the accept loop until `POST /shutdown`: accepted connections
    /// go through the bounded admission queue to the worker pool; when
    /// the queue is full the acceptor answers 503 itself (bounded work —
    /// it never evaluates a query). Returns once every worker has
    /// drained and joined.
    pub fn serve(self) -> std::io::Result<()> {
        let Server { listener, addr, session, config, metrics, shutdown } = self;
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(config.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let session = Arc::clone(&session);
                let metrics = Arc::clone(&metrics);
                let shutdown = Arc::clone(&shutdown);
                let config = config.clone();
                std::thread::spawn(move || loop {
                    let next = rx.lock().unwrap_or_else(|p| p.into_inner()).recv();
                    let Ok(stream) = next else { break };
                    ServerMetrics::bump(&metrics.busy_workers);
                    handle_connection(stream, &session, &config, &metrics, &shutdown, addr);
                    metrics.busy_workers.fetch_sub(1, Ordering::Relaxed);
                })
            })
            .collect();

        for incoming in listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = incoming else { continue };
            match tx.try_send(stream) {
                Ok(()) => {}
                Err(TrySendError::Full(stream)) => {
                    ServerMetrics::bump(&metrics.rejected);
                    reject_overloaded(stream);
                }
                Err(TrySendError::Disconnected(_)) => break,
            }
        }
        drop(tx); // workers drain the queue, then their recv() errors
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }
}

/// 503 written directly from the acceptor thread — bounded by short
/// timeouts so a misbehaving client cannot stall admission. The unread
/// request is drained (capped) before the close: closing with unread
/// bytes would RST the connection and destroy the 503 in flight.
fn reject_overloaded(stream: TcpStream) {
    let cap = Duration::from_millis(250);
    let _ = stream.set_write_timeout(Some(cap));
    let _ = stream.set_read_timeout(Some(cap));
    let mut w = &stream;
    if http::write_response(
        &mut w,
        503,
        "application/json",
        "{\"error\":\"server at capacity\",\"kind\":\"overloaded\"}\n",
    )
    .is_err()
    {
        return;
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 4096];
    let mut drained = 0usize;
    let mut r = &stream;
    while drained < 64 * 1024 {
        match std::io::Read::read(&mut r, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

fn kind_str(e: &Error) -> &'static str {
    if matches!(e, Error::Conflict { .. }) {
        return "conflict";
    }
    match e.kind() {
        ErrorKind::Parse => "parse",
        ErrorKind::Validation => "validation",
        ErrorKind::Io => "io",
        ErrorKind::Budget => "budget",
        ErrorKind::Storage => "storage",
        ErrorKind::Analysis => "analysis",
    }
}

/// HTTP status for an [`Error`]: the serving half of the CLI's
/// `ErrorKind::exit_code` table (`docs/serving.md`).
fn status_for(e: &Error) -> u16 {
    if matches!(e, Error::Conflict { .. }) {
        return 409;
    }
    match e.kind() {
        ErrorKind::Parse => 400,
        ErrorKind::Validation => 422,
        // budget trips are normally reported in-band; as an Error they
        // mean the caller demanded completeness it didn't get
        ErrorKind::Budget => 422,
        // strict lint rejections: semantically sound HPQL the analyzer
        // refused — unprocessable, like validation failures
        ErrorKind::Analysis => 422,
        ErrorKind::Io | ErrorKind::Storage => 500,
    }
}

fn write_error(stream: &TcpStream, status: u16, kind: &str, msg: &str, metrics: &ServerMetrics) {
    ServerMetrics::bump(&metrics.error_responses);
    let body = format!("{{\"error\":\"{}\",\"kind\":\"{kind}\"}}\n", json_escape(msg));
    let mut w = stream;
    let _ = http::write_response(&mut w, status, "application/json", &body);
}

fn write_api_error(stream: &TcpStream, e: &Error, metrics: &ServerMetrics) {
    write_error(stream, status_for(e), kind_str(e), &e.to_string(), metrics);
}

fn handle_connection(
    stream: TcpStream,
    session: &Session,
    config: &ServerConfig,
    metrics: &ServerMetrics,
    shutdown: &AtomicBool,
    addr: SocketAddr,
) {
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let req = match http::read_request(&mut reader, config.max_body_bytes) {
        Ok(r) => r,
        Err(e) => {
            if !matches!(e, RequestError::Io(_)) {
                write_error(&stream, e.status(), "bad_request", &e.to_string(), metrics);
            }
            return;
        }
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/query") => handle_query(&req, &stream, session, config, metrics),
        ("POST", "/update") => handle_update(&req, &stream, session, metrics),
        ("GET", "/healthz") => {
            ServerMetrics::bump(&metrics.other_requests);
            let mut w = &stream;
            let _ = http::write_response(&mut w, 200, "text/plain", "ok\n");
        }
        ("GET", "/metrics") => {
            ServerMetrics::bump(&metrics.other_requests);
            let page = metrics::render(metrics, session);
            let mut w = &stream;
            let _ = http::write_response(&mut w, 200, "text/plain; version=0.0.4", &page);
        }
        ("POST", "/shutdown") => {
            ServerMetrics::bump(&metrics.other_requests);
            let mut w = &stream;
            let _ = http::write_response(
                &mut w,
                200,
                "application/json",
                "{\"status\":\"stopping\"}\n",
            );
            shutdown.store(true, Ordering::SeqCst);
            // the acceptor blocks in accept(); wake it so it sees the flag
            let _ = TcpStream::connect(addr);
        }
        (_, "/query" | "/update" | "/healthz" | "/metrics" | "/shutdown") => {
            write_error(&stream, 405, "bad_request", "method not allowed", metrics);
        }
        (_, path) => {
            write_error(&stream, 404, "bad_request", &format!("no such endpoint {path}"), metrics);
        }
    }
}

fn parse_u64(req: &Request, name: &str) -> Result<Option<u64>, String> {
    match req.param(name) {
        None => Ok(None),
        Some(v) => v.parse().map(Some).map_err(|_| format!("bad {name} value {v:?}")),
    }
}

fn handle_query(
    req: &Request,
    stream: &TcpStream,
    session: &Session,
    config: &ServerConfig,
    metrics: &ServerMetrics,
) {
    ServerMetrics::bump(&metrics.queries);
    if let Some(d) = config.handler_delay {
        std::thread::sleep(d);
    }
    let (limit, timeout_ms) = match (parse_u64(req, "limit"), parse_u64(req, "timeout_ms")) {
        (Ok(l), Ok(t)) => (l, t),
        (Err(msg), _) | (_, Err(msg)) => {
            return write_error(stream, 400, "bad_request", &msg, metrics)
        }
    };
    let mode = req.param("mode").unwrap_or("stream");
    if !matches!(mode, "stream" | "count") {
        return write_error(stream, 400, "bad_request", &format!("bad mode {mode:?}"), metrics);
    }
    let lint = req.param("lint").unwrap_or("off");
    if !matches!(lint, "off" | "strict") {
        return write_error(
            stream,
            400,
            "bad_request",
            &format!("bad lint value {lint:?}"),
            metrics,
        );
    }
    if req.body.trim().is_empty() {
        return write_error(stream, 400, "bad_request", "empty query body", metrics);
    }
    let prepared = if lint == "strict" {
        // static analysis gates the query: any error-severity finding
        // (unknown label, provable emptiness, disconnected variable)
        // refuses with 422 and the full diagnostics report as the body
        match session.prepare_with_lint(req.body.as_str(), rig_core::LintMode::Strict) {
            Ok((p, _)) => p,
            Err(Error::Analysis(report)) => {
                ServerMetrics::bump(&metrics.lint_rejections);
                ServerMetrics::bump(&metrics.error_responses);
                let body = format!(
                    "{{\"error\":\"query rejected by static analysis\",\"kind\":\"analysis\",\
                     \"report\":{}}}\n",
                    report.to_json().trim_end()
                );
                let mut w = stream;
                let _ = http::write_response(&mut w, 422, "application/json", &body);
                return;
            }
            Err(e) => return write_api_error(stream, &e, metrics),
        }
    } else {
        match session.prepare(req.body.as_str()) {
            Ok(p) => p,
            Err(e) => return write_api_error(stream, &e, metrics),
        }
    };
    let start = Instant::now();
    let mut run = prepared.run();
    if let Some(k) = limit {
        run = run.limit(k);
    }
    if let Some(ms) = timeout_ms {
        run = run.timeout(Duration::from_millis(ms));
    }

    if mode == "count" {
        let outcome = run.count();
        record_query_metrics(metrics, &outcome, start);
        let r = &outcome.result;
        let body = format!(
            "{{\"status\":\"{}\",\"count\":{},\"timed_out\":{},\"limit_hit\":{},\"via_dp\":{}}}\n",
            budget_status(r.timed_out, r.limit_hit),
            r.count,
            r.timed_out,
            r.limit_hit,
            outcome.metrics.counted_via_factorization,
        );
        let mut w = stream;
        let _ = http::write_response(&mut w, 200, "application/json", &body);
        return;
    }

    // stream mode: headers, then one JSON array per occurrence, then a
    // trailing summary object; the connection close delimits the body.
    // The head goes out with the first batch; a vanished reader fails a
    // batch write, which stops the enumeration.
    let arity = prepared.query().num_nodes();
    let mut sink = WriteSink::new(stream, arity, config.batch_tuples, TupleFormat::NDJSON);
    sink.write_raw(http::stream_head(200, "application/x-ndjson").as_bytes());
    let outcome = run.stream(&mut sink);
    ServerMetrics::add(&metrics.tuples_streamed, sink.pushed());
    record_query_metrics(metrics, &outcome, start);
    let r = &outcome.result;
    let summary = format!(
        "{{\"status\":\"{}\",\"count\":{},\"timed_out\":{},\"limit_hit\":{}}}\n",
        budget_status(r.timed_out, r.limit_hit),
        r.count,
        r.timed_out,
        r.limit_hit,
    );
    sink.write_raw(summary.as_bytes());
    sink.finish();
    if sink.into_error().is_some() {
        ServerMetrics::bump(&metrics.client_disconnects);
    }
}

fn budget_status(timed_out: bool, limit_hit: bool) -> &'static str {
    if timed_out || limit_hit {
        "budget"
    } else {
        "ok"
    }
}

fn record_query_metrics(metrics: &ServerMetrics, outcome: &rig_core::QueryOutcome, start: Instant) {
    ServerMetrics::add(&metrics.query_micros, start.elapsed().as_micros() as u64);
    if outcome.result.timed_out {
        ServerMetrics::bump(&metrics.queries_timed_out);
    }
    if outcome.metrics.counted_via_factorization {
        ServerMetrics::bump(&metrics.queries_via_dp);
    }
}

fn handle_update(req: &Request, stream: &TcpStream, session: &Session, metrics: &ServerMetrics) {
    ServerMetrics::bump(&metrics.updates);
    let script = match rig_graph::parse_mutations(&req.body) {
        Ok(s) => s,
        Err(e) => return write_api_error(stream, &Error::from(e), metrics),
    };
    let mut commits = 0u64;
    let mut version = 0u64;
    let (mut nodes_added, mut nodes_removed, mut edges_added, mut edges_removed) = (0, 0, 0, 0);
    for ops in &script {
        let mut attempt = 0;
        let summary = loop {
            match session.apply(ops) {
                Ok(s) => break s,
                Err(e @ Error::Conflict { .. }) => {
                    attempt += 1;
                    if attempt >= COMMIT_RETRIES {
                        return write_api_error(stream, &e, metrics);
                    }
                    ServerMetrics::bump(&metrics.conflict_retries);
                }
                Err(e) => return write_api_error(stream, &e, metrics),
            }
        };
        commits += 1;
        ServerMetrics::bump(&metrics.commits_applied);
        version = summary.version;
        nodes_added += summary.nodes_added;
        nodes_removed += summary.nodes_removed;
        edges_added += summary.edges_added;
        edges_removed += summary.edges_removed;
    }
    // surface batched-WAL sync trouble to the caller, not a later Drop
    if let Err(e) = session.flush_wal() {
        return write_api_error(stream, &e, metrics);
    }
    let body = format!(
        "{{\"status\":\"ok\",\"commits\":{commits},\"version\":{version},\
         \"nodes_added\":{nodes_added},\"nodes_removed\":{nodes_removed},\
         \"edges_added\":{edges_added},\"edges_removed\":{edges_removed}}}\n"
    );
    let mut w = stream;
    let _ = http::write_response(&mut w, 200, "application/json", &body);
}
