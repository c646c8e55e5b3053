//! Kill-and-recover differential suite (the durability layer's end-to-end check):
//! spawn the `crashwriter` child, `SIGKILL` it at an arbitrary point in
//! its commit stream, recover the store with [`Session::open`], and
//! require the recovered graph — and its query answers — to be
//! byte-identical to a reference store holding exactly the acknowledged
//! commits.
//!
//! The writer prints `ack <version>` after each acknowledged commit, so
//! the parent knows a lower bound on what must survive. Under
//! `Durability::Strict` every acked commit is fsynced before the ack
//! line leaves the child; a `SIGKILL` (unlike power loss) also leaves
//! page-cache writes intact, so for every policy the recovered version
//! is **at least** the last ack the parent read, and the recovered state
//! must equal the deterministic transaction stream replayed to exactly
//! that version — whole transactions only, never a partial one.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

use rigmatch::core::Session;
use rigmatch::graph::{encode_segment, DataGraph, MutationStream};
use rigmatch::query::{EdgeKind, PatternQuery};

/// Same base graph as `crashwriter`'s `base_graph` — shared by value (the
/// differential is meaningless unless both sides start identically).
fn base_graph(seed: u64) -> DataGraph {
    let g = rigmatch::datasets::erdos_renyi(120, 360, seed);
    rigmatch::datasets::zipf_labels(&g, 4, 1.0, seed)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rig_kill_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn_writer(dir: &PathBuf, seed: u64, durability: &str, commits: u64) -> Child {
    Command::new(env!("CARGO_BIN_EXE_crashwriter"))
        .arg(dir)
        .arg(seed.to_string())
        .arg(durability)
        .arg(commits.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn crashwriter")
}

/// Reads ack lines until `kill_after` of them arrived, then `SIGKILL`s the
/// child mid-stream. Returns the acked versions the parent observed.
fn kill_after_acks(child: &mut Child, kill_after: usize) -> Vec<u64> {
    let stdout = child.stdout.take().expect("piped stdout");
    let mut acked = Vec::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("read ack line");
        if let Some(v) = line.strip_prefix("ack ") {
            acked.push(v.parse::<u64>().expect("ack version"));
        }
        if acked.len() >= kill_after {
            break;
        }
    }
    // SIGKILL: no destructors, no flush — the on-disk state is whatever
    // the commit protocol had made durable by now
    let _ = child.kill();
    let _ = child.wait();
    acked
}

/// The reference store: the same deterministic stream replayed in memory
/// to exactly `version` transactions.
fn reference_at(seed: u64, version: u64) -> DataGraph {
    let base = Arc::new(base_graph(seed));
    let mut stream = MutationStream::new(base, seed);
    for _ in 0..version {
        stream.next_txn(6);
    }
    stream.mirror().materialize()
}

/// Differential check: recovered graph bytes and query results must equal
/// the reference holding exactly the recovered prefix of the stream.
fn assert_recovered_matches(dir: &PathBuf, seed: u64, min_version: u64) -> u64 {
    let session = Session::open(dir).expect("recovery succeeds");
    let report = session.recovery_report().expect("opened session has a report");
    let v = report.recovered_version;
    assert!(
        v >= min_version,
        "recovered version {v} lost acked commits (parent saw {min_version})"
    );

    let reference = reference_at(seed, v);
    assert_eq!(
        encode_segment(&session.graph().materialize(), v),
        encode_segment(&reference, v),
        "recovered graph differs from the reference at version {v}"
    );

    // query answers, not just storage bytes: counts and full occurrence
    // lists over both edge kinds must agree with a session that never
    // touched disk
    let ref_session = Session::new(reference);
    for kind in [EdgeKind::Direct, EdgeKind::Reachability] {
        let mut q = PatternQuery::new(vec![0, 1]);
        q.add_edge(0, 1, kind);
        let (mut got, got_outcome) =
            session.prepare(&q).expect("probe prepares").run().collect(10_000);
        let (mut want, want_outcome) =
            ref_session.prepare(&q).expect("probe prepares").run().collect(10_000);
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "occurrences diverge for {kind:?} at version {v}");
        assert_eq!(got_outcome.result.count, want_outcome.result.count);
    }
    v
}

#[test]
fn sigkill_mid_commit_stream_recovers_exactly_the_acked_prefix() {
    // several kill points across the stream, including the very first ack
    for (seed, kill_after) in [(7u64, 1usize), (11, 4), (23, 9)] {
        let dir = scratch_dir(&format!("strict_{seed}"));
        let mut child = spawn_writer(&dir, seed, "strict", 200);
        let acked = kill_after_acks(&mut child, kill_after);
        assert!(!acked.is_empty(), "writer produced no acks before the kill");
        let last_acked = *acked.last().unwrap();

        let v = assert_recovered_matches(&dir, seed, last_acked);
        assert!(v >= kill_after as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn sigkill_under_batched_durability_still_recovers_a_clean_prefix() {
    let seed = 31;
    let dir = scratch_dir("batched");
    let mut child = spawn_writer(&dir, seed, "batched", 200);
    let acked = kill_after_acks(&mut child, 6);
    // SIGKILL leaves the page cache intact, so even the batched policy
    // loses nothing here; the differential still pins the exact prefix
    let v = assert_recovered_matches(&dir, seed, *acked.last().unwrap());
    assert!(v >= 6);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn uninterrupted_writer_recovers_every_commit() {
    let seed = 5;
    let commits = 12;
    let dir = scratch_dir("clean");
    let mut child = spawn_writer(&dir, seed, "strict", commits);
    let stdout = child.stdout.take().expect("piped stdout");
    let lines: Vec<String> = BufReader::new(stdout).lines().map(|l| l.expect("line")).collect();
    assert!(child.wait().expect("wait").success());
    assert_eq!(lines.last().map(String::as_str), Some("done"));
    assert_eq!(lines.len() as u64, commits + 1);

    let v = assert_recovered_matches(&dir, seed, commits);
    assert_eq!(v, commits, "a clean shutdown loses nothing and invents nothing");
    let _ = std::fs::remove_dir_all(&dir);
}
