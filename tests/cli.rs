//! End-to-end tests of the `rigmatch` CLI binary.

use std::io::Write;
use std::process::Command;

fn write_tmp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("rigmatch-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

const GRAPH: &str =
    "l 0 Author\nl 1 Paper\nl 2 Cited\nv 0 0\nv 1 1\nv 2 1\nv 3 2\ne 0 1\ne 0 2\ne 1 3\n";
const QUERY: &str = "n 0 0\nn 1 1\nn 2 2\nd 0 1\nr 1 2\n";
const HPQL: &str = "MATCH (a:Author)->(p:Paper)=>(c:Cited)";

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rigmatch"))
}

#[test]
fn gm_prints_tuples() {
    let g = write_tmp("g1.txt", GRAPH);
    let q = write_tmp("q1.txt", QUERY);
    let out = bin().arg(&g).arg(&q).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.trim(), "0 1 3");
}

#[test]
fn all_engines_agree_on_count() {
    let g = write_tmp("g2.txt", GRAPH);
    let q = write_tmp("q2.txt", QUERY);
    for engine in ["gm", "jm", "tm", "neo"] {
        let out = bin().arg(&g).arg(&q).args(["--count", "--engine", engine]).output().unwrap();
        assert!(out.status.success(), "{engine}: {out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert_eq!(stdout.trim(), "1", "{engine}");
    }
}

#[test]
fn stats_flag_reports_rig() {
    let g = write_tmp("g3.txt", GRAPH);
    let q = write_tmp("q3.txt", QUERY);
    let out = bin().arg(&g).arg(&q).args(["--count", "--stats"]).output().unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("RIG:"), "{stderr}");
    assert!(stderr.contains("sim passes"), "{stderr}");
}

#[test]
fn bad_inputs_fail_cleanly() {
    let g = write_tmp("g4.txt", "v 0 0\nv 2 0\n"); // non-dense ids
    let q = write_tmp("q4.txt", QUERY);
    let out = bin().arg(&g).arg(&q).output().unwrap();
    assert!(!out.status.success());
    let missing = bin().arg("/nonexistent").arg(&q).output().unwrap();
    assert!(!missing.status.success());
    let unknown_engine = bin().arg(&g).arg(&q).args(["--engine", "magic"]).output().unwrap();
    assert!(!unknown_engine.status.success());
}

#[test]
fn parallel_flags_stream_and_count() {
    let g = write_tmp("g6.txt", GRAPH);
    let q = write_tmp("q6.txt", QUERY);
    // parallel counting (morsel engine)
    let out = bin().arg(&g).arg(&q).args(["--count", "--threads", "4"]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    assert_eq!(String::from_utf8(out.stdout).unwrap().trim(), "1");
    // parallel streaming enumeration (batched sinks under a stdout lock)
    let out = bin().arg(&g).arg(&q).args(["--threads", "4"]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    assert_eq!(String::from_utf8(out.stdout).unwrap().trim(), "0 1 3");
    // parallel counting with a limit — no sequential fallback, exact cap
    let out =
        bin().arg(&g).arg(&q).args(["--count", "--threads", "4", "--limit", "1"]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    assert_eq!(String::from_utf8(out.stdout).unwrap().trim(), "1");
}

/// `rigmatch ... | head -1`: a reader that goes away mid-stream is a clean
/// stop (exit 0, no panic), for the inline single worker and for the
/// parallel workers alike.
#[test]
fn closed_stdout_stops_enumeration_cleanly() {
    use std::io::BufRead;
    use std::process::Stdio;
    // a complete directed graph on 40 nodes: ~60k two-hop paths, far more
    // output than a pipe buffer holds
    let n = 40;
    let mut graph = String::from("l 0 A\n");
    for v in 0..n {
        graph.push_str(&format!("v {v} 0\n"));
    }
    for u in 0..n {
        for v in (0..n).filter(|&v| v != u) {
            graph.push_str(&format!("e {u} {v}\n"));
        }
    }
    let g = write_tmp("g_epipe.txt", &graph);
    for threads in ["1", "4"] {
        let mut child = bin()
            .arg(&g)
            .args(["--query", "MATCH (a:A)->(b:A)->(c:A)", "--threads", threads])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let mut first = String::new();
        std::io::BufReader::new(child.stdout.take().unwrap()).read_line(&mut first).unwrap();
        assert_eq!(first.split_whitespace().count(), 3, "threads={threads}: {first:?}");
        // the reader is dropped here: every later write hits EPIPE
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(out.status.success(), "threads={threads}: {:?} {stderr}", out.status);
        assert!(!stderr.contains("panicked"), "threads={threads}: {stderr}");
    }
}

#[test]
fn hpql_query_files_are_autodetected() {
    let g = write_tmp("g7.txt", GRAPH);
    let q = write_tmp("q7.hpql", "# citation pattern\nMATCH (a:Author)->(p:Paper)=>(c:Cited)\n");
    let out = bin().arg(&g).arg(&q).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    assert_eq!(String::from_utf8(out.stdout).unwrap().trim(), "0 1 3");
}

#[test]
fn inline_query_flag() {
    let g = write_tmp("g8.txt", GRAPH);
    // named labels via the graph's dictionary
    let out = bin().arg(&g).args(["--query", HPQL, "--count"]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    assert_eq!(String::from_utf8(out.stdout).unwrap().trim(), "1");
    // numeric labels always work
    let out =
        bin().arg(&g).args(["--query", "MATCH (a:0)->(p:1)=>(c:2)", "--count"]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    assert_eq!(String::from_utf8(out.stdout).unwrap().trim(), "1");
    // baselines accept HPQL too
    for engine in ["jm", "tm", "neo"] {
        let out = bin().arg(&g).args(["--query", HPQL, "--engine", engine]).output().unwrap();
        assert!(out.status.success(), "{engine}: {out:?}");
        assert_eq!(String::from_utf8(out.stdout).unwrap().trim(), "1", "{engine}");
    }
}

#[test]
fn explain_mode_prints_the_plan() {
    let g = write_tmp("g9.txt", GRAPH);
    let redundant = "MATCH (a:Author)->(p:Paper)=>(c:Cited), (a)=>(c)";
    let out = bin().arg("explain").arg(&g).args(["--query", redundant]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("reduced:"), "{stdout}");
    assert!(stdout.contains("1 edge(s) removed"), "{stdout}");
    assert!(stdout.contains("RIG:"), "{stdout}");
    assert!(stdout.contains("order:"), "{stdout}");
    assert!(stdout.contains("a → p → c") || stdout.contains("order"), "{stdout}");
    assert!(stdout.contains("memo:"), "{stdout}");
}

#[test]
fn distinct_exit_codes() {
    let g = write_tmp("g10.txt", GRAPH);
    let code = |out: &std::process::Output| out.status.code().unwrap();
    // usage = 2
    let out = bin().output().unwrap();
    assert_eq!(code(&out), 2);
    // parse = 3 (bad HPQL, bad legacy query file, unknown label name)
    let out = bin().arg(&g).args(["--query", "MATCH (a:Author"]).output().unwrap();
    assert_eq!(code(&out), 3, "{out:?}");
    let bad_q = write_tmp("q10.txt", "n 0 0\nd 0 9\n");
    let out = bin().arg(&g).arg(&bad_q).output().unwrap();
    assert_eq!(code(&out), 3, "{out:?}");
    let out = bin().arg(&g).args(["--query", "MATCH (a:Ghost)->(p:Paper)"]).output().unwrap();
    assert_eq!(code(&out), 3, "{out:?}");
    // io = 4
    let out = bin().arg("/nonexistent-graph").args(["--query", HPQL]).output().unwrap();
    assert_eq!(code(&out), 4, "{out:?}");
    // validation = 5 (disconnected query)
    let disconnected = write_tmp("q11.txt", "n 0 0\nn 1 1\nn 2 2\nd 0 1\n");
    let out = bin().arg(&g).arg(&disconnected).output().unwrap();
    assert_eq!(code(&out), 5, "{out:?}");
    // budget = 6 only under --strict; without it truncation still exits 0
    let args = ["--query", HPQL, "--count", "--limit", "0"];
    let out = bin().arg(&g).args(args).output().unwrap();
    assert_eq!(code(&out), 0, "{out:?}");
    let out = bin().arg(&g).args(args).arg("--strict").output().unwrap();
    assert_eq!(code(&out), 6, "{out:?}");
}

/// `rigmatch check` lints without executing: one test per pass family
/// (A resolution, E emptiness, R redundancy, C cost), plus the exit-code
/// contract — 0 clean/advisory, 8 on analysis errors, 3 on parse errors.
#[test]
fn check_subcommand_covers_every_pass_family() {
    let g = write_tmp("g12.txt", GRAPH);
    let code = |out: &std::process::Output| out.status.code().unwrap();
    // A001: unknown label with a did-you-mean suggestion (exit 8)
    let out = bin()
        .arg("check")
        .arg(&g)
        .args(["--query", "MATCH (a:Athor)->(p:Paper)"])
        .output()
        .unwrap();
    assert_eq!(code(&out), 8, "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("error[A001]"), "{stdout}");
    assert!(stdout.contains("did you mean 'Author'?"), "{stdout}");
    // E102: provably empty direct edge, caret-underlined span (exit 8)
    let out = bin()
        .arg("check")
        .arg(&g)
        .args(["--query", "MATCH (p:Paper)->(a:Author)"])
        .output()
        .unwrap();
    assert_eq!(code(&out), 8, "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("error[E102]"), "{stdout}");
    assert!(stdout.contains("--> query:1:"), "{stdout}");
    assert!(stdout.contains("^^"), "{stdout}");
    // R201: a reach edge the transitive reduction removes — advisory only
    let redundant = "MATCH (a:Author)->(p:Paper)=>(c:Cited), (a)=>(c)";
    let out = bin().arg("check").arg(&g).args(["--query", redundant]).output().unwrap();
    assert_eq!(code(&out), 0, "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("warning[R201]"), "{stdout}");
    // C301: cost estimates ride along on a clean query, still exit 0
    let out = bin().arg("check").arg(&g).args(["--query", HPQL]).output().unwrap();
    assert_eq!(code(&out), 0, "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("note[C301]"), "{stdout}");
    assert!(stdout.contains("0 error(s)"), "{stdout}");
    // parse failures keep the ordinary parse exit code
    let out = bin().arg("check").arg(&g).args(["--query", "MATCH (broken"]).output().unwrap();
    assert_eq!(code(&out), 3, "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("error[P001]"), "{stdout}");
}

#[test]
fn check_emits_the_analysis_json_schema() {
    let g = write_tmp("g13.txt", GRAPH);
    let out = bin()
        .arg("check")
        .arg(&g)
        .args(["--query", "MATCH (p:Paper)->(a:Author)", "--format", "json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code().unwrap(), 8, "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"analysis\": true"), "{stdout}");
    assert!(stdout.contains("\"proven_empty\": true"), "{stdout}");
    assert!(stdout.contains("\"code\": \"E102\""), "{stdout}");
    assert!(stdout.contains("\"errors\": 1"), "{stdout}");
    // legacy query files analyze too; with no HPQL text the query is null
    let q = write_tmp("q13.txt", QUERY);
    let out = bin().arg("check").arg(&g).arg(&q).args(["--format", "json"]).output().unwrap();
    assert_eq!(out.status.code().unwrap(), 0, "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"query\": null"), "{stdout}");
}

/// `check --mutations` analyzes the graph after the script: deleting both
/// Author→Paper edges flips the forward query from clean to provably
/// empty (on the base the session rebases onto) without touching the base
/// file.
#[test]
fn check_reads_through_the_delta_overlay() {
    let g = write_tmp("g14.txt", GRAPH);
    let fwd = ["--query", "MATCH (a:Author)->(p:Paper)"];
    let out = bin().arg("check").arg(&g).args(fwd).output().unwrap();
    assert_eq!(out.status.code().unwrap(), 0, "{out:?}");
    let m = write_tmp("m14.txt", "d e 0 1\nd e 0 2\n");
    let out = bin()
        .arg("check")
        .arg(&g)
        .args(fwd)
        .args(["--mutations", m.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code().unwrap(), 8, "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("error[E102]"), "{stdout}");
}

/// `--lint` gates ordinary query runs: strict refuses proven-empty
/// queries with exit 8, warn reports on stderr but still executes.
#[test]
fn lint_modes_gate_query_execution() {
    let g = write_tmp("g15.txt", GRAPH);
    let empty = ["--query", "MATCH (p:Paper)->(a:Author)", "--count"];
    let out = bin().arg(&g).args(empty).args(["--lint", "strict"]).output().unwrap();
    assert_eq!(out.status.code().unwrap(), 8, "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("rejected by static analysis"), "{stderr}");
    // warn mode: diagnostics on stderr, the (empty) count still runs
    let out = bin().arg(&g).args(empty).args(["--lint", "warn"]).output().unwrap();
    assert_eq!(out.status.code().unwrap(), 0, "{out:?}");
    assert_eq!(String::from_utf8(out.stdout).unwrap().trim(), "0");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("[E102]"), "{stderr}");
    // a clean query passes strict untouched
    let out =
        bin().arg(&g).args(["--query", HPQL, "--count", "--lint", "strict"]).output().unwrap();
    assert_eq!(out.status.code().unwrap(), 0, "{out:?}");
    assert_eq!(String::from_utf8(out.stdout).unwrap().trim(), "1");
}

#[test]
fn explain_appends_diagnostics() {
    let g = write_tmp("g16.txt", GRAPH);
    let redundant = "MATCH (a:Author)->(p:Paper)=>(c:Cited), (a)=>(c)";
    let out = bin().arg("explain").arg(&g).args(["--query", redundant]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("diagnostics:"), "{stdout}");
    assert!(stdout.contains("warning[R201]"), "{stdout}");
}

#[test]
fn limit_and_order_flags() {
    let g = write_tmp("g5.txt", GRAPH);
    let q = write_tmp("q5.txt", QUERY);
    for order in ["jo", "ri", "bj"] {
        let out = bin()
            .arg(&g)
            .arg(&q)
            .args(["--count", "--order", order, "--limit", "1"])
            .output()
            .unwrap();
        assert!(out.status.success(), "{order}");
        assert_eq!(String::from_utf8(out.stdout).unwrap().trim(), "1", "{order}");
    }
}

/// One HTTP request over its own connection (`rigmatch serve` answers
/// `Connection: close`); returns the status code and the body.
fn http(addr: &str, method: &str, target: &str, body: &str) -> (u16, String) {
    use std::io::Read;
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
    let request = format!(
        "{method} {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(request.as_bytes()).unwrap();
    // accumulate by hand: a reset at the tail must not discard the bytes
    // already received
    let (mut bytes, mut buf) = (Vec::new(), [0u8; 4096]);
    while let Ok(n @ 1..) = s.read(&mut buf) {
        bytes.extend_from_slice(&buf[..n]);
    }
    let response = String::from_utf8(bytes).unwrap();
    let status = response.split_whitespace().nth(1).and_then(|v| v.parse().ok());
    let (_, body) = response.split_once("\r\n\r\n").unwrap_or(("", ""));
    (status.unwrap_or_else(|| panic!("bad status line in {response:?}")), body.to_string())
}

/// Kills the server child if the test fails before it exits on its own.
struct KillOnDrop(std::process::Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A real `rigmatch serve` process round trip: health check, a count
/// query, an update that must change the next count, the metrics
/// counters, and a clean exit after `POST /shutdown`.
#[test]
fn serve_process_round_trip() {
    use std::io::BufRead;
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    let g = write_tmp("serve_g.txt", "l 0 Author\nl 1 Paper\nv 0 0\nv 1 1\nv 2 1\ne 0 1\ne 1 2\n");
    let mut child = KillOnDrop(
        bin()
            .arg("serve")
            .arg(&g)
            .args(["--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    let mut line = String::new();
    std::io::BufReader::new(child.0.stdout.take().unwrap()).read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on http://")
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
        .to_string();

    let ok = |method: &str, target: &str, body: &str| {
        let (status, body) = http(&addr, method, target, body);
        assert_eq!(status, 200, "{method} {target}: {body}");
        body
    };
    let count = || {
        let summary = ok("POST", "/query?mode=count", "MATCH (a:Author)->(p:Paper)");
        let rest = &summary[summary.find("\"count\":").expect("count field") + 8..];
        rest[..rest.find([',', '}']).unwrap_or(rest.len())].trim().to_string()
    };
    ok("GET", "/healthz", "");
    assert_eq!(count(), "1");
    ok("POST", "/update", "a e 0 2\ncommit");
    assert_eq!(count(), "2", "the committed edge must be visible to the next query");
    let page = ok("GET", "/metrics", "");
    for name in ["rigmatch_queries_total", "rigmatch_commits_applied_total"] {
        let value: u64 = page
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{name} missing from\n{page}"));
        assert!(value >= 1, "{name} = {value}");
    }
    ok("POST", "/shutdown", "");

    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.0.try_wait().unwrap() {
            break status;
        }
        assert!(Instant::now() < deadline, "serve did not exit within 10 s of /shutdown");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(0), "{status:?}");
}
