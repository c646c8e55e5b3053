//! Validates `BENCH_*.json` artifacts: parses each file with the in-tree
//! JSON parser and checks the schema the `--json` harnesses emit (top-level
//! metadata, a non-empty `queries` array, and finite numeric `totals`).
//! CI runs this after regenerating the artifacts so a malformed emitter
//! fails the gate.
//!
//! Parallel-sweep artifacts (`"parallel": true`, emitted by
//! `fig9 --json-parallel`) are validated against the sweep schema instead;
//! with `--min-par-speedup <x>` the best measured speedup must reach `x`.
//! When the artifact records fewer than 4 hardware threads the speedup
//! gate is skipped **with an explicit log line** (wall-clock parallel
//! scaling is meaningless without cores to run on) — the schema and the
//! in-harness count agreement still validate.
//!
//! Dynamic-graph artifacts (`"updates": true`, emitted by
//! `bench_updates --json`) are validated against the updates schema: base
//! sizes, per-fill-level update throughput, per-query cold latency, and —
//! hard gate — **zero unverified queries** (every overlay count must have
//! matched its from-scratch-rebuild oracle in the harness).
//!
//! Durability artifacts (`"storage": true`, emitted by
//! `bench_storage --json`) are validated against the storage schema:
//! per-policy commit throughput, cold-start timings, and — hard gate —
//! **every recovery differentially verified** (recovered version and graph
//! matched the mutation-stream mirror; cold-start answers identical).
//!
//! Serving artifacts (`"serving": true`, emitted by
//! `bench_serving --json`) are validated against the serving schema:
//! per-kind latency percentiles, sustained throughput, and — hard gates —
//! **zero unverified queries** (every workload count served over HTTP
//! must have matched the direct in-process count), at least one request
//! served, and at least one `/update` commit applied.
//!
//! Factorized-counting artifacts (`"factorized": true`, emitted by
//! `bench_factorized --json`) are validated against the factorized schema:
//! per-query DP vs enumeration latency and — hard gate — **zero
//! unverified queries** (every count must have matched the RIG-free
//! brute-force oracle in the harness). With `--min-factorized-speedup <x>`
//! the aggregate DP-over-enumeration speedup must reach `x`.
//!
//! Static-analysis reports (`"analysis": true`, emitted by
//! `rigmatch check --format json`) are validated against the analysis
//! schema: severity counts that match the diagnostics array, a
//! `proven_empty` flag consistent with the emptiness-proof codes, and
//! well-formed per-diagnostic code/severity/span fields.
//!
//! Usage: `benchcheck [--min-par-speedup X] [--min-factorized-speedup X]
//! <file.json>...` — exits non-zero on the first invalid file.

use rig_bench::json::{parse, JsonValue};

fn fail(path: &str, msg: &str) -> ! {
    eprintln!("benchcheck: {path}: {msg}");
    std::process::exit(1);
}

fn require_num(path: &str, obj: &JsonValue, key: &str) -> f64 {
    match obj.get(key).and_then(|v| v.as_f64()) {
        Some(v) if v.is_finite() => v,
        _ => fail(path, &format!("totals.{key} missing or not a finite number")),
    }
}

/// Validates a `rigmatch check --format json` report. The counts are
/// cross-checked against the diagnostics array and `proven_empty` must
/// agree with the emptiness-proof codes, so a drifting emitter (or a
/// report truncated in flight) fails the gate rather than slipping
/// through as "clean".
fn check_analysis(path: &str, doc: &JsonValue) {
    match doc.get("query") {
        Some(JsonValue::Str(_) | JsonValue::Null) => {}
        _ => fail(path, "query must be a string or null"),
    }
    let proven_empty = match doc.get("proven_empty") {
        Some(JsonValue::Bool(b)) => *b,
        _ => fail(path, "proven_empty missing or not a bool"),
    };
    for key in ["errors", "warnings", "notes"] {
        require_num(path, doc, key);
    }
    let diagnostics = match doc.get("diagnostics").and_then(|d| d.as_arr()) {
        Some(d) => d,
        None => fail(path, "diagnostics must be an array"),
    };
    const CODES: [&str; 12] = [
        "P001", "A001", "A002", "E101", "E102", "E103", "R201", "R202", "R203", "C301", "C302",
        "C303",
    ];
    const PROOF_CODES: [&str; 3] = ["E101", "E102", "E103"];
    let (mut errors, mut warnings, mut notes) = (0.0, 0.0, 0.0);
    let mut any_proof = false;
    for (i, d) in diagnostics.iter().enumerate() {
        let code = match d.get("code").and_then(|v| v.as_str()) {
            Some(c) if CODES.contains(&c) => c,
            Some(c) => fail(path, &format!("diagnostics[{i}].code {c:?} is not a known lint code")),
            None => fail(path, &format!("diagnostics[{i}].code missing")),
        };
        any_proof |= PROOF_CODES.contains(&code);
        match d.get("severity").and_then(|v| v.as_str()) {
            Some("error") => errors += 1.0,
            Some("warning") => warnings += 1.0,
            Some("note") => notes += 1.0,
            _ => fail(path, &format!("diagnostics[{i}].severity must be error|warning|note")),
        }
        if d.get("message").and_then(|v| v.as_str()).is_none() {
            fail(path, &format!("diagnostics[{i}].message missing"));
        }
        // span fields are optional but must be all-or-nothing numerics
        let span_fields = ["line", "col", "len"].iter().filter(|k| d.get(k).is_some()).count();
        if span_fields != 0 && span_fields != 3 {
            fail(path, &format!("diagnostics[{i}] has a partial span (need line+col+len)"));
        }
        if span_fields == 3 {
            for key in ["line", "col", "len"] {
                if !d.get(key).and_then(|v| v.as_f64()).is_some_and(f64::is_finite) {
                    fail(path, &format!("diagnostics[{i}].{key} not a finite number"));
                }
            }
        }
    }
    for (key, counted) in [("errors", errors), ("warnings", warnings), ("notes", notes)] {
        let declared = require_num(path, doc, key);
        if declared != counted {
            fail(path, &format!("{key} says {declared} but the diagnostics array holds {counted}"));
        }
    }
    if proven_empty != any_proof {
        fail(
            path,
            &format!(
                "proven_empty is {proven_empty} but the diagnostics {} an emptiness-proof code",
                if any_proof { "contain" } else { "lack" }
            ),
        );
    }
    println!(
        "benchcheck: {path}: OK (analysis, {} diagnostic(s): {errors:.0} error(s), \
         {warnings:.0} warning(s), {notes:.0} note(s){})",
        diagnostics.len(),
        if proven_empty { ", proven empty" } else { "" }
    );
}

/// Validates a parallel-sweep artifact; returns its best speedup.
fn check_parallel(path: &str, doc: &JsonValue) -> f64 {
    for key in ["harness", "baseline"] {
        if doc.get(key).and_then(|v| v.as_str()).is_none() {
            fail(path, &format!("missing string field {key:?}"));
        }
    }
    for key in ["scale", "seed", "timeout_s", "limit", "hw_threads", "morsel"] {
        if !doc.get(key).and_then(|v| v.as_f64()).is_some_and(f64::is_finite) {
            fail(path, &format!("missing numeric field {key:?}"));
        }
    }
    let thread_counts = match doc.get("thread_counts").and_then(|t| t.as_arr()) {
        Some(t) if !t.is_empty() => t,
        _ => fail(path, "thread_counts must be a non-empty array"),
    };
    let queries = match doc.get("queries").and_then(|q| q.as_arr()) {
        Some(q) if !q.is_empty() => q,
        _ => fail(path, "queries must be a non-empty array"),
    };
    for (i, q) in queries.iter().enumerate() {
        if q.get("query").and_then(|v| v.as_str()).is_none() {
            fail(path, &format!("queries[{i}].query missing"));
        }
        let runs = match q.get("runs").and_then(|r| r.as_arr()) {
            Some(r) if r.len() == thread_counts.len() => r,
            _ => fail(path, &format!("queries[{i}].runs must have one entry per thread count")),
        };
        for (j, r) in runs.iter().enumerate() {
            for key in ["threads", "enum_s", "matches", "steps"] {
                if !r.get(key).and_then(|v| v.as_f64()).is_some_and(f64::is_finite) {
                    fail(path, &format!("queries[{i}].runs[{j}].{key} missing"));
                }
            }
            for key in ["timed_out", "limit_hit"] {
                if !matches!(r.get(key), Some(JsonValue::Bool(_))) {
                    fail(path, &format!("queries[{i}].runs[{j}].{key} missing or not a bool"));
                }
            }
        }
    }
    let totals = match doc.get("totals") {
        Some(t) => t,
        None => fail(path, "missing totals object"),
    };
    for key in ["queries", "comparable_queries", "incomparable_queries", "matches", "base_threads"]
    {
        require_num(path, totals, key);
    }
    let sweeps = match totals.get("sweeps").and_then(|s| s.as_arr()) {
        Some(s) if s.len() == thread_counts.len() => s,
        _ => fail(path, "totals.sweeps must have one entry per thread count"),
    };
    for (i, s) in sweeps.iter().enumerate() {
        for key in ["threads", "enum_s", "throughput_per_s", "speedup_vs_base"] {
            if !s.get(key).and_then(|v| v.as_f64()).is_some_and(f64::is_finite) {
                fail(path, &format!("totals.sweeps[{i}].{key} missing"));
            }
        }
    }
    let comparable = require_num(path, totals, "comparable_queries");
    if comparable == 0.0 {
        fail(path, "no comparable queries — speedup totals are meaningless");
    }
    let best = require_num(path, totals, "best_speedup");
    let hw = doc.get("hw_threads").and_then(|v| v.as_f64()).unwrap_or(1.0);
    println!(
        "benchcheck: {path}: OK (parallel sweep, {} queries, {comparable} comparable, \
         best speedup {best:.2}x on {hw} hw thread(s))",
        queries.len()
    );
    best
}

/// Validates a `bench_updates` artifact.
fn check_updates(path: &str, doc: &JsonValue) {
    if doc.get("harness").and_then(|v| v.as_str()).is_none() {
        fail(path, "missing string field \"harness\"");
    }
    for key in ["scale", "seed", "timeout_s", "limit"] {
        if !doc.get(key).and_then(|v| v.as_f64()).is_some_and(f64::is_finite) {
            fail(path, &format!("missing numeric field {key:?}"));
        }
    }
    let base = match doc.get("base") {
        Some(b) => b,
        None => fail(path, "missing base object"),
    };
    for key in ["nodes", "edges", "labels"] {
        require_num(path, base, key);
    }
    let levels = match doc.get("levels").and_then(|l| l.as_arr()) {
        Some(l) if !l.is_empty() => l,
        _ => fail(path, "levels must be a non-empty array"),
    };
    for (i, l) in levels.iter().enumerate() {
        for key in ["fill_pct", "target_ops", "applied_ops", "update_s", "update_ops_per_s"] {
            if !l.get(key).and_then(|v| v.as_f64()).is_some_and(f64::is_finite) {
                fail(path, &format!("levels[{i}].{key} missing"));
            }
        }
        let queries = match l.get("queries").and_then(|q| q.as_arr()) {
            Some(q) if !q.is_empty() => q,
            _ => fail(path, &format!("levels[{i}].queries must be a non-empty array")),
        };
        for (j, q) in queries.iter().enumerate() {
            if q.get("query").and_then(|v| v.as_str()).is_none() {
                fail(path, &format!("levels[{i}].queries[{j}].query missing"));
            }
            for key in ["cold_s", "matches"] {
                if !q.get(key).and_then(|v| v.as_f64()).is_some_and(f64::is_finite) {
                    fail(path, &format!("levels[{i}].queries[{j}].{key} missing"));
                }
            }
            if !matches!(q.get("verified"), Some(JsonValue::Bool(_))) {
                fail(path, &format!("levels[{i}].queries[{j}].verified missing or not a bool"));
            }
        }
    }
    let totals = match doc.get("totals") {
        Some(t) => t,
        None => fail(path, "missing totals object"),
    };
    for key in
        ["levels", "queries", "verified_queries", "matches", "update_ops", "update_ops_per_s"]
    {
        require_num(path, totals, key);
    }
    let unverified = require_num(path, totals, "unverified_queries");
    if unverified != 0.0 {
        fail(path, &format!("{unverified} query run(s) failed update-vs-rebuild verification"));
    }
    let ops_per_s = require_num(path, totals, "update_ops_per_s");
    println!(
        "benchcheck: {path}: OK (updates, {} level(s), {} verified queries, \
         {ops_per_s:.0} update ops/s)",
        levels.len(),
        require_num(path, totals, "verified_queries"),
    );
}

/// Validates a `bench_serving` artifact. Hard gates: every workload
/// query's HTTP count must have matched the direct in-process count
/// (`unverified_queries == 0` — a mismatch is a wire-protocol or
/// snapshot-consistency bug), at least one request must have succeeded,
/// and at least one mutation commit must have landed through `/update`.
fn check_serving(path: &str, doc: &JsonValue) {
    for key in ["harness", "baseline"] {
        if doc.get(key).and_then(|v| v.as_str()).is_none() {
            fail(path, &format!("missing string field {key:?}"));
        }
    }
    for key in ["scale", "seed", "workers", "queue_depth", "target_qps"] {
        if !doc.get(key).and_then(|v| v.as_f64()).is_some_and(f64::is_finite) {
            fail(path, &format!("missing numeric field {key:?}"));
        }
    }
    let latency = match doc.get("latency") {
        Some(l) => l,
        None => fail(path, "missing latency object"),
    };
    for kind in ["query_stream", "query_count", "update"] {
        let k = match latency.get(kind) {
            Some(k) => k,
            None => fail(path, &format!("latency.{kind} missing")),
        };
        for key in ["sent", "ok", "p50_ms", "p99_ms", "mean_ms"] {
            if !k.get(key).and_then(|v| v.as_f64()).is_some_and(f64::is_finite) {
                fail(path, &format!("latency.{kind}.{key} missing"));
            }
        }
    }
    let queries = match doc.get("queries").and_then(|q| q.as_arr()) {
        Some(q) if !q.is_empty() => q,
        _ => fail(path, "queries must be a non-empty array"),
    };
    for (i, q) in queries.iter().enumerate() {
        if q.get("query").and_then(|v| v.as_str()).is_none() {
            fail(path, &format!("queries[{i}].query missing"));
        }
        for key in ["http_count", "direct_count"] {
            if !q.get(key).and_then(|v| v.as_f64()).is_some_and(f64::is_finite) {
                fail(path, &format!("queries[{i}].{key} missing"));
            }
        }
        match q.get("verified") {
            Some(JsonValue::Bool(true)) => {}
            Some(JsonValue::Bool(false)) => fail(
                path,
                &format!("queries[{i}]: HTTP count disagreed with the direct count — wire bug"),
            ),
            _ => fail(path, &format!("queries[{i}].verified missing or not a bool")),
        }
    }
    let totals = match doc.get("totals") {
        Some(t) => t,
        None => fail(path, "missing totals object"),
    };
    for key in [
        "requests",
        "rejected_503",
        "errors",
        "wall_s",
        "sustained_qps",
        "tuples_streamed",
        "counts_via_dp",
        "distinct_queries",
        "verified_queries",
    ] {
        require_num(path, totals, key);
    }
    let unverified = require_num(path, totals, "unverified_queries");
    if unverified != 0.0 {
        fail(path, &format!("{unverified} workload count(s) disagreed over HTTP — serving bug"));
    }
    let ok = require_num(path, totals, "ok");
    if ok == 0.0 {
        fail(path, "no request succeeded — the server never served");
    }
    let commits = require_num(path, totals, "commits_applied");
    if commits == 0.0 {
        fail(path, "no mutation commit landed — the /update path went unexercised");
    }
    let qps = require_num(path, totals, "sustained_qps");
    println!(
        "benchcheck: {path}: OK (serving, {ok} requests ok at {qps:.0} req/s, \
         {commits} commits, {} queries HTTP-vs-direct verified)",
        queries.len()
    );
}

/// Validates a `bench_storage` artifact. Hard gate: every durability
/// policy's recovery must have been differentially verified against the
/// mutation-stream mirror, and the cold-start comparison must have served
/// identical probe answers — an unverified recovery count is a durability
/// bug, not a performance data point.
fn check_storage(path: &str, doc: &JsonValue) {
    for key in ["harness", "baseline"] {
        if doc.get(key).and_then(|v| v.as_str()).is_none() {
            fail(path, &format!("missing string field {key:?}"));
        }
    }
    for key in ["scale", "seed", "commits", "txn_ops"] {
        if !doc.get(key).and_then(|v| v.as_f64()).is_some_and(f64::is_finite) {
            fail(path, &format!("missing numeric field {key:?}"));
        }
    }
    let base = match doc.get("base") {
        Some(b) => b,
        None => fail(path, "missing base object"),
    };
    for key in ["nodes", "edges", "labels"] {
        require_num(path, base, key);
    }
    let policies = match doc.get("policies").and_then(|p| p.as_arr()) {
        Some(p) if !p.is_empty() => p,
        _ => fail(path, "policies must be a non-empty array"),
    };
    for (i, p) in policies.iter().enumerate() {
        let durability = match p.get("durability").and_then(|v| v.as_str()) {
            Some(d) if ["strict", "batched", "none"].contains(&d) => d,
            _ => fail(path, &format!("policies[{i}].durability missing or unknown")),
        };
        for key in [
            "commits",
            "ops",
            "commit_s",
            "commits_per_s",
            "ops_per_s",
            "recovered_version",
            "wal_records_replayed",
        ] {
            if !p.get(key).and_then(|v| v.as_f64()).is_some_and(f64::is_finite) {
                fail(path, &format!("policies[{i}].{key} missing"));
            }
        }
        match p.get("recovery_verified") {
            Some(JsonValue::Bool(true)) => {}
            Some(JsonValue::Bool(false)) => fail(
                path,
                &format!("policy {durability:?}: recovery count was NOT verified — durability bug"),
            ),
            _ => fail(path, &format!("policies[{i}].recovery_verified missing or not a bool")),
        }
    }
    let cold = match doc.get("cold_start") {
        Some(c) => c,
        None => fail(path, "missing cold_start object"),
    };
    for key in ["snapshot_open_s", "text_load_s", "speedup", "snapshot_bytes", "text_bytes"] {
        require_num(path, cold, key);
    }
    match cold.get("verified") {
        Some(JsonValue::Bool(true)) => {}
        Some(JsonValue::Bool(false)) => {
            fail(path, "cold_start: snapshot and text loader served different answers")
        }
        _ => fail(path, "cold_start.verified missing or not a bool"),
    }
    let totals = match doc.get("totals") {
        Some(t) => t,
        None => fail(path, "missing totals object"),
    };
    for key in ["policies", "verified_recoveries"] {
        require_num(path, totals, key);
    }
    let unverified = require_num(path, totals, "unverified_recoveries");
    if unverified != 0.0 {
        fail(path, &format!("{unverified} recovery count(s) unverified — durability bug"));
    }
    let speedup = cold.get("speedup").and_then(|v| v.as_f64()).unwrap_or(0.0);
    println!(
        "benchcheck: {path}: OK (storage, {} policies all recovery-verified, \
         cold start {speedup:.1}x faster from snapshot)",
        policies.len()
    );
}

/// Validates a `bench_factorized` artifact; returns its aggregate speedup.
fn check_factorized(path: &str, doc: &JsonValue) -> f64 {
    for key in ["harness", "baseline", "oracle"] {
        if doc.get(key).and_then(|v| v.as_str()).is_none() {
            fail(path, &format!("missing string field {key:?}"));
        }
    }
    for key in ["scale", "seed", "timeout_s", "limit"] {
        if !doc.get(key).and_then(|v| v.as_f64()).is_some_and(f64::is_finite) {
            fail(path, &format!("missing numeric field {key:?}"));
        }
    }
    let queries = match doc.get("queries").and_then(|q| q.as_arr()) {
        Some(q) if !q.is_empty() => q,
        _ => fail(path, "queries must be a non-empty array"),
    };
    for (i, q) in queries.iter().enumerate() {
        if q.get("query").and_then(|v| v.as_str()).is_none() {
            fail(path, &format!("queries[{i}].query missing"));
        }
        for key in ["matches", "dp_s", "enum_s", "speedup"] {
            if !q.get(key).and_then(|v| v.as_f64()).is_some_and(f64::is_finite) {
                fail(path, &format!("queries[{i}].{key} missing"));
            }
        }
        for key in ["tree", "via_dp", "verified"] {
            if !matches!(q.get(key), Some(JsonValue::Bool(_))) {
                fail(path, &format!("queries[{i}].{key} missing or not a bool"));
            }
        }
    }
    if doc.get("skipped").and_then(|s| s.as_arr()).is_none() {
        fail(path, "skipped must be an array");
    }
    let totals = match doc.get("totals") {
        Some(t) => t,
        None => fail(path, "missing totals object"),
    };
    for key in ["queries", "skipped_queries", "verified_queries", "matches", "dp_s", "enum_s"] {
        require_num(path, totals, key);
    }
    let unverified = require_num(path, totals, "unverified_queries");
    if unverified != 0.0 {
        fail(path, &format!("{unverified} count(s) failed brute-force-oracle verification"));
    }
    let speedup = require_num(path, totals, "speedup");
    println!(
        "benchcheck: {path}: OK (factorized, {} queries all oracle-verified, \
         DP speedup {speedup:.0}x over enumeration)",
        queries.len()
    );
    speedup
}

fn check(path: &str, min_par_speedup: Option<f64>, min_factorized_speedup: Option<f64>) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => fail(path, &format!("read error: {e}")),
    };
    let doc = match parse(&text) {
        Ok(d) => d,
        Err(e) => fail(path, &format!("parse error: {e}")),
    };
    if matches!(doc.get("analysis"), Some(JsonValue::Bool(true))) {
        check_analysis(path, &doc);
        return;
    }
    if matches!(doc.get("updates"), Some(JsonValue::Bool(true))) {
        check_updates(path, &doc);
        return;
    }
    if matches!(doc.get("storage"), Some(JsonValue::Bool(true))) {
        check_storage(path, &doc);
        return;
    }
    if matches!(doc.get("serving"), Some(JsonValue::Bool(true))) {
        check_serving(path, &doc);
        return;
    }
    if matches!(doc.get("factorized"), Some(JsonValue::Bool(true))) {
        let speedup = check_factorized(path, &doc);
        if let Some(min) = min_factorized_speedup {
            if speedup < min {
                fail(path, &format!("factorized speedup {speedup:.1}x is below the {min}x gate"));
            }
        }
        return;
    }
    if matches!(doc.get("parallel"), Some(JsonValue::Bool(true))) {
        let best = check_parallel(path, &doc);
        if let Some(min) = min_par_speedup {
            // wall-clock parallel scaling needs hardware that can run
            // threads concurrently; skip the gate loudly, never silently
            let hw = doc.get("hw_threads").and_then(|v| v.as_f64()).unwrap_or(1.0);
            if hw < 4.0 {
                println!(
                    "benchcheck: {path}: skipping the {min}x speedup gate — artifact records \
                     {hw} hardware thread(s) (need >= 4 for wall-clock scaling)"
                );
            } else if best < min {
                fail(path, &format!("best parallel speedup {best:.2}x is below the {min}x gate"));
            }
        }
        return;
    }
    for key in ["harness", "baseline"] {
        if doc.get(key).and_then(|v| v.as_str()).is_none() {
            fail(path, &format!("missing string field {key:?}"));
        }
    }
    for key in ["scale", "seed", "timeout_s", "limit"] {
        if !doc.get(key).and_then(|v| v.as_f64()).is_some_and(f64::is_finite) {
            fail(path, &format!("missing numeric field {key:?}"));
        }
    }
    let queries = match doc.get("queries").and_then(|q| q.as_arr()) {
        Some(q) if !q.is_empty() => q,
        _ => fail(path, "queries must be a non-empty array"),
    };
    for (i, q) in queries.iter().enumerate() {
        if q.get("query").and_then(|v| v.as_str()).is_none() {
            fail(path, &format!("queries[{i}].query missing"));
        }
        if !matches!(q.get("comparable"), Some(JsonValue::Bool(_))) {
            fail(path, &format!("queries[{i}].comparable missing or not a bool"));
        }
        for side in ["csr", "reference"] {
            let s = match q.get(side) {
                Some(s) => s,
                None => fail(path, &format!("queries[{i}].{side} missing")),
            };
            for key in ["build_s", "heap_bytes", "enum_s", "steps", "matches"] {
                if !s.get(key).and_then(|v| v.as_f64()).is_some_and(f64::is_finite) {
                    fail(path, &format!("queries[{i}].{side}.{key} missing"));
                }
            }
            for key in ["timed_out", "limit_hit"] {
                if !matches!(s.get(key), Some(JsonValue::Bool(_))) {
                    fail(path, &format!("queries[{i}].{side}.{key} missing or not a bool"));
                }
            }
        }
    }
    let totals = match doc.get("totals") {
        Some(t) => t,
        None => fail(path, "missing totals object"),
    };
    let enum_speedup = require_num(path, totals, "enum_speedup");
    let heap_reduction = require_num(path, totals, "heap_reduction_pct");
    for key in [
        "queries",
        "comparable_queries",
        "incomparable_queries",
        "matches",
        "csr_enum_s",
        "ref_enum_s",
        "csr_throughput_per_s",
        "ref_throughput_per_s",
        "csr_build_s",
        "ref_build_s",
        "build_speedup",
        "csr_heap_bytes",
        "ref_heap_bytes",
    ] {
        require_num(path, totals, key);
    }
    let comparable = require_num(path, totals, "comparable_queries");
    if comparable == 0.0 {
        fail(path, "no comparable queries — throughput totals are meaningless");
    }
    println!(
        "benchcheck: {path}: OK ({} queries, {comparable} comparable, \
         enum speedup {enum_speedup:.2}x, heap reduction {heap_reduction:.1}%)",
        queries.len()
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut min_par_speedup: Option<f64> = None;
    let mut min_factorized_speedup: Option<f64> = None;
    let mut paths: Vec<String> = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        let numeric_flag = |argv: &[String], i: usize, flag: &str| {
            argv.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or_else(|| {
                eprintln!("benchcheck: {flag} needs a number");
                std::process::exit(2);
            })
        };
        if argv[i] == "--min-par-speedup" {
            i += 1;
            min_par_speedup = Some(numeric_flag(&argv, i, "--min-par-speedup"));
        } else if argv[i] == "--min-factorized-speedup" {
            i += 1;
            min_factorized_speedup = Some(numeric_flag(&argv, i, "--min-factorized-speedup"));
        } else {
            paths.push(argv[i].clone());
        }
        i += 1;
    }
    if paths.is_empty() {
        eprintln!(
            "usage: benchcheck [--min-par-speedup X] [--min-factorized-speedup X] <file.json>..."
        );
        std::process::exit(2);
    }
    for path in &paths {
        check(path, min_par_speedup, min_factorized_speedup);
    }
}
