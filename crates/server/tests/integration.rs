//! Integration suite: concurrent clients driving a real `rig_server`
//! over real sockets.
//!
//! The scenarios the serving layer must survive (ISSUE 8):
//! - parallel queries against a mutating store stay **snapshot
//!   consistent** — every streamed tuple set equals one of the two
//!   committed states, never a torn mixture, differentially verified
//!   against direct `Session` enumeration;
//! - **queue overflow returns 503**, not a hang;
//! - a **mid-stream client disconnect frees its worker**;
//! - a per-request **timeout yields the budget status** with
//!   `timed_out` set;
//! - the **error → status-code mapping** and `/update` conflict retries
//!   behave as documented in `docs/serving.md`.
//!
//! Helpers speak raw HTTP over `TcpStream` — no client library, and no
//! dev-dependency on the bench crate's JSON parser (which depends on
//! this crate): assertions use plain string matching on the small,
//! stable wire format.

// test code asserts with unwrap/expect/panic freely; the workspace
// panic lints target the production crate (clippy.toml exempts
// #[test] fns, but not these shared helpers)
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rig_core::Session;
use rig_graph::{DataGraph, GraphBuilder};
use rig_server::{Server, ServerConfig};

// ---------------------------------------------------------------------
// raw-socket HTTP helpers
// ---------------------------------------------------------------------

fn send_raw(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let request = format!(
        "{method} {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(request.as_bytes()).expect("request write");
    // accumulate manually: a whole-response read_to_string would discard
    // everything already received if the connection resets at the tail
    let mut response = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match s.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => response.extend_from_slice(&buf[..n]),
        }
    }
    parse_response(&String::from_utf8(response).expect("utf-8 response"))
}

fn parse_response(response: &str) -> (u16, String) {
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {response:?}"));
    let body = response
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in {response:?}"))
        .1
        .to_string();
    (status, body)
}

fn query_stream(addr: SocketAddr, hpql: &str, params: &str) -> (u16, Vec<Vec<u32>>, String) {
    let (status, body) = send_raw(addr, "POST", &format!("/query{params}"), hpql);
    if status != 200 {
        return (status, Vec::new(), body);
    }
    let mut tuples = Vec::new();
    let mut summary = String::new();
    for line in body.lines() {
        if line.starts_with('[') {
            let inner = line.trim_start_matches('[').trim_end_matches(']');
            tuples.push(inner.split(',').map(|v| v.parse::<u32>().expect("node id")).collect());
        } else if line.starts_with('{') {
            assert!(summary.is_empty(), "two summary objects in {body:?}");
            summary = line.to_string();
        } else if !line.trim().is_empty() {
            panic!("unexpected stream line {line:?}");
        }
    }
    assert!(!summary.is_empty(), "stream had no trailing summary: {body:?}");
    (status, tuples, summary)
}

/// Pulls `"name":value` out of a flat JSON object (the wire format never
/// nests, so string scanning is sound).
fn json_field<'a>(obj: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\":");
    let start = obj.find(&key).unwrap_or_else(|| panic!("{name} missing from {obj}")) + key.len();
    let rest = &obj[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim_matches('"')
}

// ---------------------------------------------------------------------
// graphs
// ---------------------------------------------------------------------

/// 10 label-0 nodes, 10 label-1 nodes, one base edge `i -> 10+i` each.
fn ab_graph() -> DataGraph {
    let mut b = GraphBuilder::new();
    for _ in 0..10 {
        b.add_node(0);
    }
    for _ in 0..10 {
        b.add_node(1);
    }
    for i in 0..10u32 {
        b.add_edge(i, 10 + i);
    }
    b.build()
}

/// A complete digraph on `n` label-0 nodes: every ordered pair is an
/// edge, so the triangle query has `n * (n-1) * (n-2)` occurrences —
/// big enough to outlast socket buffers and trip timeouts.
fn dense_graph(n: u32) -> DataGraph {
    let mut b = GraphBuilder::new();
    for _ in 0..n {
        b.add_node(0);
    }
    for i in 0..n {
        for j in 0..n {
            if i != j {
                b.add_edge(i, j);
            }
        }
    }
    b.build()
}

const AB_QUERY: &str = "MATCH (a:0)->(b:1)";
const TRIANGLE: &str = "MATCH (a:0)->(b:0)->(c:0), (c)->(a)";

fn sorted(mut tuples: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    tuples.sort();
    tuples
}

// ---------------------------------------------------------------------
// scenarios
// ---------------------------------------------------------------------

/// Readers race a writer that toggles a 5-edge batch on and off, one
/// commit per direction. Snapshot consistency means every response's
/// tuple set is exactly the base set or the extended set — a torn count
/// (base + some of the batch) would prove a reader saw a half-applied
/// commit. Both expected sets come from direct Session enumeration, so
/// every streamed result is differentially verified.
#[test]
fn concurrent_queries_against_mutating_store_stay_snapshot_consistent() {
    let session = Arc::new(Session::new(ab_graph()));
    let extras: Vec<(u32, u32)> = vec![(0, 12), (1, 13), (2, 14), (3, 15), (4, 16)];

    // differential baselines from the library API
    let base_set = {
        let p = session.prepare(AB_QUERY).unwrap();
        sorted(p.run().collect_all().0)
    };
    let extended_set = {
        let mut txn = session.begin();
        for &(u, v) in &extras {
            txn.add_edge(u, v);
        }
        session.commit(txn).unwrap();
        let p = session.prepare(AB_QUERY).unwrap();
        let s = sorted(p.run().collect_all().0);
        let mut txn = session.begin();
        for &(u, v) in &extras {
            txn.remove_edge(u, v);
        }
        session.commit(txn).unwrap();
        s
    };
    assert_eq!(base_set.len(), 10);
    assert_eq!(extended_set.len(), 15);

    let (addr, handle) =
        Server::spawn(Arc::clone(&session), "127.0.0.1:0", ServerConfig::default()).unwrap();

    let add_script: String =
        extras.iter().map(|(u, v)| format!("a e {u} {v}\n")).collect::<String>() + "commit\n";
    let del_script: String =
        extras.iter().map(|(u, v)| format!("d e {u} {v}\n")).collect::<String>() + "commit\n";

    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for round in 0..12 {
                let script = if round % 2 == 0 { &add_script } else { &del_script };
                let (status, body) = send_raw(addr, "POST", "/update", script);
                assert_eq!(status, 200, "update failed: {body}");
            }
        });
        let readers: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(|| {
                    for i in 0..15 {
                        let mode = if i % 3 == 0 { "?mode=count" } else { "" };
                        if mode.is_empty() {
                            let (status, tuples, summary) = query_stream(addr, AB_QUERY, "");
                            assert_eq!(status, 200);
                            let got = sorted(tuples);
                            assert!(
                                got == base_set || got == extended_set,
                                "torn snapshot: {} tuples",
                                got.len()
                            );
                            let count: usize = json_field(&summary, "count").parse().unwrap();
                            assert_eq!(count, got.len(), "summary disagrees with stream");
                        } else {
                            let (status, body) =
                                send_raw(addr, "POST", "/query?mode=count", AB_QUERY);
                            assert_eq!(status, 200);
                            let count: usize = json_field(&body, "count").parse().unwrap();
                            assert!(
                                count == base_set.len() || count == extended_set.len(),
                                "torn count {count}"
                            );
                        }
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
    });

    // quiesced: the server and the library agree exactly (writer ran an
    // even number of toggles, so the store is back to the base set)
    let (_, tuples, _) = query_stream(addr, AB_QUERY, "");
    assert_eq!(sorted(tuples), base_set);
    let direct = sorted(session.prepare(AB_QUERY).unwrap().run().collect_all().0);
    assert_eq!(direct, base_set);

    let (status, _) = send_raw(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().unwrap().unwrap();
}

/// workers=1 and queue_depth=1 with a slowed handler: of three
/// simultaneous queries, exactly one must be turned away with 503 —
/// immediately, by the acceptor — while the other two complete.
#[test]
fn queue_overflow_returns_503_immediately() {
    let session = Arc::new(Session::new(ab_graph()));
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        handler_delay: Some(Duration::from_millis(400)),
        ..Default::default()
    };
    let (addr, handle) = Server::spawn(Arc::clone(&session), "127.0.0.1:0", config).unwrap();

    let statuses = std::thread::scope(|scope| {
        let t1 = scope.spawn(move || send_raw(addr, "POST", "/query?mode=count", AB_QUERY).0);
        std::thread::sleep(Duration::from_millis(120));
        let t2 = scope.spawn(move || send_raw(addr, "POST", "/query?mode=count", AB_QUERY).0);
        std::thread::sleep(Duration::from_millis(120));
        let overflow_started = Instant::now();
        let s3 = send_raw(addr, "POST", "/query?mode=count", AB_QUERY).0;
        let overflow_latency = overflow_started.elapsed();
        if s3 == 503 {
            // the 503 must come from the acceptor, not from waiting out
            // the slowed worker
            assert!(overflow_latency < Duration::from_millis(300), "{overflow_latency:?}");
        }
        vec![t1.join().unwrap(), t2.join().unwrap(), s3]
    });
    assert_eq!(statuses.iter().filter(|&&s| s == 503).count(), 1, "{statuses:?}");
    assert_eq!(statuses.iter().filter(|&&s| s == 200).count(), 2, "{statuses:?}");

    let (status, _) = send_raw(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().unwrap().unwrap();
}

/// With a single worker, a client that vanishes mid-stream must not pin
/// it: the next write into the dead socket fails, the sink protocol
/// stops the enumeration, and a follow-up /healthz gets answered.
#[test]
fn mid_stream_disconnect_frees_the_worker() {
    let session = Arc::new(Session::new(dense_graph(60)));
    let config = ServerConfig {
        workers: 1,
        batch_tuples: 64,
        write_timeout: Duration::from_millis(500),
        ..Default::default()
    };
    let (addr, handle) = Server::spawn(Arc::clone(&session), "127.0.0.1:0", config).unwrap();
    {
        // 60·59·58 = 205_320 tuples ≈ 2.5 MB — far beyond socket buffers
        let mut s = TcpStream::connect(addr).unwrap();
        write!(
            s,
            "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{TRIANGLE}",
            TRIANGLE.len()
        )
        .unwrap();
        let mut reader = BufReader::new(&s);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap(); // status line arrived: the stream is live
        assert!(line.contains("200"), "{line:?}");
        // dropping both halves closes the socket: vanish mid-stream
    }

    // the lone worker must come back; give the EPIPE a moment to land
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(mut s) = TcpStream::connect(addr) {
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            write!(s, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            let mut response = String::new();
            if s.read_to_string(&mut response).is_ok() && response.contains("200") {
                break;
            }
        }
        assert!(Instant::now() < deadline, "worker never came back after disconnect");
        std::thread::sleep(Duration::from_millis(100));
    }
    let (status, page) = send_raw(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let disconnects = page
        .lines()
        .find_map(|l| l.strip_prefix("rigmatch_client_disconnects_total "))
        .expect("disconnect counter exported")
        .parse::<u64>()
        .unwrap();
    assert!(disconnects >= 1, "disconnect not recorded:\n{page}");

    send_raw(addr, "POST", "/shutdown", "");
    handle.join().unwrap().unwrap();
}

/// `timeout_ms` maps onto the engine deadline: an expired budget reports
/// `"status":"budget"` with `timed_out` in both stream and count modes.
/// `limit` maps onto the match limit the same way.
#[test]
fn per_request_budgets_report_budget_status() {
    let session = Arc::new(Session::new(dense_graph(60)));
    let (addr, handle) =
        Server::spawn(Arc::clone(&session), "127.0.0.1:0", ServerConfig::default()).unwrap();

    let (status, _, summary) = query_stream(addr, TRIANGLE, "?timeout_ms=0");
    assert_eq!(status, 200);
    assert_eq!(json_field(&summary, "status"), "budget", "{summary}");
    assert_eq!(json_field(&summary, "timed_out"), "true", "{summary}");

    let (status, body) = send_raw(addr, "POST", "/query?mode=count&timeout_ms=0", TRIANGLE);
    assert_eq!(status, 200);
    assert_eq!(json_field(&body, "status"), "budget", "{body}");
    assert_eq!(json_field(&body, "timed_out"), "true", "{body}");

    let (status, tuples, summary) = query_stream(addr, TRIANGLE, "?limit=5");
    assert_eq!(status, 200);
    assert_eq!(tuples.len(), 5);
    assert_eq!(json_field(&summary, "status"), "budget", "{summary}");
    assert_eq!(json_field(&summary, "limit_hit"), "true", "{summary}");

    send_raw(addr, "POST", "/shutdown", "");
    handle.join().unwrap().unwrap();
}

/// The status-code table of `docs/serving.md`: parse → 400, validation →
/// 422, unknown path → 404, wrong method → 405, oversized body → 413.
#[test]
fn error_responses_map_onto_the_documented_status_codes() {
    let session = Arc::new(Session::new(ab_graph()));
    let config = ServerConfig { max_body_bytes: 256, ..Default::default() };
    let (addr, handle) = Server::spawn(Arc::clone(&session), "127.0.0.1:0", config).unwrap();

    let (status, body) = send_raw(addr, "POST", "/query", "MATCH (broken");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"kind\":\"parse\""), "{body}");

    // label 99 does not exist in the graph's label space
    let (status, body) = send_raw(addr, "POST", "/query", "MATCH (a:99)->(b:0)");
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("\"kind\":\"validation\""), "{body}");

    let (status, body) = send_raw(addr, "POST", "/query", "");
    assert_eq!(status, 400, "{body}");

    let (status, _) = send_raw(addr, "POST", "/query?mode=sideways", AB_QUERY);
    assert_eq!(status, 400);
    let (status, _) = send_raw(addr, "POST", "/query?limit=many", AB_QUERY);
    assert_eq!(status, 400);

    let (status, body) = send_raw(addr, "GET", "/nope", "");
    assert_eq!(status, 404, "{body}");
    let (status, body) = send_raw(addr, "GET", "/query", "");
    assert_eq!(status, 405, "{body}");

    let big = "x".repeat(512);
    let (status, body) = send_raw(addr, "POST", "/query", &big);
    assert_eq!(status, 413, "{body}");

    // update parse errors classify like query parse errors
    let (status, body) = send_raw(addr, "POST", "/update", "q w e\n");
    assert_eq!(status, 400, "{body}");

    // a numeric label id past the next new one is refused before the
    // label space grows, and publishes nothing
    let version = session.store_stats().version;
    let (status, body) = send_raw(addr, "POST", "/update", "a v 4294967295\n");
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("\"kind\":\"validation\""), "{body}");
    let (status, body) = send_raw(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(session.store_stats().version, version);

    send_raw(addr, "POST", "/shutdown", "");
    handle.join().unwrap().unwrap();
}

/// Concurrent single-commit updates race their optimistic commits; the
/// server's bounded retry absorbs the conflicts so every request
/// succeeds, and the final graph matches direct enumeration exactly.
#[test]
fn concurrent_updates_all_land_via_conflict_retry() {
    let mut b = GraphBuilder::new();
    for _ in 0..30 {
        b.add_node(0);
    }
    let session = Arc::new(Session::new(b.build()));
    let (addr, handle) =
        Server::spawn(Arc::clone(&session), "127.0.0.1:0", ServerConfig::default()).unwrap();

    std::thread::scope(|scope| {
        for t in 0..4u32 {
            scope.spawn(move || {
                for k in 0..5u32 {
                    let edge = t * 5 + k;
                    let script = format!("a e {} {}\ncommit\n", edge, edge + 1);
                    let (status, body) = send_raw(addr, "POST", "/update", &script);
                    assert_eq!(status, 200, "update lost despite retries: {body}");
                }
            });
        }
    });

    let (status, body) = send_raw(addr, "POST", "/query?mode=count", "MATCH (a:0)->(b:0)");
    assert_eq!(status, 200);
    assert_eq!(json_field(&body, "count"), "20", "{body}");
    let direct = session.prepare("MATCH (a:0)->(b:0)").unwrap().run().count();
    assert_eq!(direct.result.count, 20);
    assert_eq!(session.store_stats().commits, 20);

    send_raw(addr, "POST", "/shutdown", "");
    handle.join().unwrap().unwrap();
}

/// Shutdown drains: requests answered, then `serve()` returns cleanly
/// and the bound port is released.
#[test]
fn shutdown_joins_cleanly() {
    let session = Arc::new(Session::new(ab_graph()));
    let (addr, handle) =
        Server::spawn(Arc::clone(&session), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let (status, body) = send_raw(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, _) = send_raw(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().unwrap().unwrap();
    // port released: a fresh bind on the same address succeeds
    let addr_s = addr.to_string();
    let rebound = Server::bind(session, &addr_s, ServerConfig::default());
    assert!(rebound.is_ok(), "{:?}", rebound.err());
}

/// `?lint=strict` refuses provably-empty queries with 422 and a
/// structured diagnostics body, counts the rejection in `/metrics`, and
/// lets satisfiable queries through untouched.
#[test]
fn strict_lint_rejects_with_structured_diagnostics() {
    let session = Arc::new(Session::new(ab_graph()));
    let server =
        Server::bind(Arc::clone(&session), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.serve());

    // satisfiable: passes the gate, streams normally
    let (status, tuples, _) = query_stream(addr, AB_QUERY, "?lint=strict");
    assert_eq!(status, 200);
    assert_eq!(tuples.len(), 10);

    // no label-1 -> label-0 edge exists: proven empty, refused
    let (status, body) = send_raw(addr, "POST", "/query?lint=strict", "MATCH (b:1)->(a:0)");
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("\"kind\":\"analysis\""), "{body}");
    assert!(body.contains("\"proven_empty\": true"), "{body}");
    assert!(body.contains("\"code\": \"E102\""), "{body}");

    // without the gate the same query runs and counts 0
    let (status, _, summary) = query_stream(addr, "MATCH (b:1)->(a:0)", "");
    assert_eq!(status, 200);
    assert_eq!(json_field(&summary, "count"), "0");

    // bad lint values are a 400, not a silent default
    let (status, body) = send_raw(addr, "POST", "/query?lint=sometimes", AB_QUERY);
    assert_eq!(status, 400, "{body}");

    let (status, page) = send_raw(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(page.contains("rigmatch_lint_rejections_total 1\n"), "{page}");

    send_raw(addr, "POST", "/shutdown", "");
    handle.join().unwrap().unwrap();
}

/// The value of the unlabelled metric `name` on a `/metrics` page.
fn metric(page: &str, name: &str) -> u64 {
    page.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("{name} missing from {page}"))
        .parse()
        .unwrap()
}

/// A reachability query on the snapshot an update left dirty rebases it
/// in memory: `rigmatch_store_rebases_total` counts that, the overlay
/// gauge drops to 0, and no compaction (checkpoint) is counted.
#[test]
fn reachability_query_after_update_counts_a_rebase() {
    let session = Arc::new(Session::new(ab_graph()));
    let server =
        Server::bind(Arc::clone(&session), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.serve());

    let (_, page) = send_raw(addr, "GET", "/metrics", "");
    assert_eq!(metric(&page, "rigmatch_store_rebases_total"), 0);
    let (status, body) = send_raw(addr, "POST", "/update", "a e 0 11\ncommit\n");
    assert_eq!(status, 200, "{body}");
    let (_, page) = send_raw(addr, "GET", "/metrics", "");
    assert_eq!(metric(&page, "rigmatch_store_delta_ops"), 1, "{page}");
    let (status, summary) = send_raw(addr, "POST", "/query?mode=count", "MATCH (a:0)=>(b:1)");
    assert_eq!(status, 200, "{summary}");
    assert_eq!(json_field(&summary, "count"), "11");
    let (_, page) = send_raw(addr, "GET", "/metrics", "");
    assert!(metric(&page, "rigmatch_store_rebases_total") >= 1, "{page}");
    assert_eq!(metric(&page, "rigmatch_store_delta_ops"), 0, "{page}");
    assert_eq!(metric(&page, "rigmatch_store_compactions_total"), 0, "{page}");

    send_raw(addr, "POST", "/shutdown", "");
    handle.join().unwrap().unwrap();
}

/// The metrics page reflects traffic (counter monotonicity smoke).
#[test]
fn metrics_page_reflects_traffic() {
    let session = Arc::new(Session::new(ab_graph()));
    let server =
        Server::bind(Arc::clone(&session), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let metrics = server.metrics();
    let handle = std::thread::spawn(move || server.serve());

    for _ in 0..3 {
        let (status, _, _) = query_stream(addr, AB_QUERY, "");
        assert_eq!(status, 200);
    }
    send_raw(addr, "POST", "/update", "a e 0 11\ncommit\n");
    let (status, page) = send_raw(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(page.contains("rigmatch_queries_total 3\n"), "{page}");
    assert!(page.contains("rigmatch_updates_total 1\n"), "{page}");
    assert!(page.contains("rigmatch_tuples_streamed_total 30\n"), "{page}");
    assert!(page.contains("rigmatch_store_commits_total 1\n"), "{page}");
    assert_eq!(metrics.queries.load(Ordering::Relaxed), 3);

    send_raw(addr, "POST", "/shutdown", "");
    handle.join().unwrap().unwrap();
}

/// A streamed body is the session's own tuples as NDJSON, byte for byte
/// and in the same order, then the summary line. Three tuples per write
/// over a ten-tuple answer that holds node 0 and two-digit ids covers
/// full batches, the tail and the summary.
#[test]
fn streamed_body_is_the_sessions_tuples_byte_for_byte() {
    let session = Arc::new(Session::new(ab_graph()));
    let config = ServerConfig { batch_tuples: 3, ..Default::default() };
    let (addr, handle) = Server::spawn(Arc::clone(&session), "127.0.0.1:0", config).unwrap();

    let mut sink = rig_core::CollectSink::default();
    session.prepare(AB_QUERY).unwrap().run().stream(&mut sink);
    let tuples = sink.tuples;
    assert!(tuples.len() >= 7, "{tuples:?}");
    assert!(tuples.iter().flatten().any(|&v| v == 0) && tuples.iter().flatten().any(|&v| v >= 10));
    let mut expected: String = tuples
        .iter()
        .map(|t| {
            let ids: Vec<String> = t.iter().map(u32::to_string).collect();
            format!("[{}]\n", ids.join(","))
        })
        .collect();
    expected.push_str(&format!(
        "{{\"status\":\"ok\",\"count\":{},\"timed_out\":false,\"limit_hit\":false}}\n",
        tuples.len()
    ));

    let (status, body) = send_raw(addr, "POST", "/query", AB_QUERY);
    assert_eq!(status, 200);
    assert_eq!(body, expected);

    send_raw(addr, "POST", "/shutdown", "");
    handle.join().unwrap().unwrap();
}
