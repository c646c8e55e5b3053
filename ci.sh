#!/usr/bin/env bash
# Tier-1 verification gate for the rigmatch workspace.
#
#   ./ci.sh         build + tests + fmt + clippy + examples
#   ./ci.sh quick   build + tests only
#
# Everything runs offline: the rand/proptest dependencies are the vendored
# stand-ins under vendor/ (see vendor/README.md). Performance is measured by
# perfbench/ (declared in BENCHMARK.json), not here.

set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==> %s\n' "$*"; }

step "cargo build --release"
cargo build --release

step "cargo test -q"
cargo test -q

if [[ "${1:-}" != "quick" ]]; then
    step "cargo fmt --check"
    cargo fmt --check

    step "cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings

    step "panic-lint gate: no unwrap/expect/panic in core, server, analyze, query, reach, graph, storage, rig, sim, bitset, mjoin"
    # the clippy run above enforces the denies through the [lints] tables;
    # this gate asserts that wiring is intact so a manifest regression
    # (e.g. a dropped [lints] table) cannot silently downgrade the three
    # lints back to allow
    for lint in unwrap_used expect_used panic; do
        grep -A8 '^\[workspace\.lints\.clippy\]' Cargo.toml \
            | grep -q "^${lint} = \"deny\""
    done
    for c in core server analyze query reach graph storage rig sim bitset mjoin; do
        grep -A1 '^\[lints\]' "crates/${c}/Cargo.toml" | grep -q '^workspace = true'
    done

    step "cargo doc --no-deps (broken intra-doc links fail)"
    # vendor/ stand-ins are excluded: their docs mirror external crates
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet \
        --exclude rand --exclude proptest

    step "CLI smoke: inline and file HPQL + explain + exit codes"
    cli_tmp="$(mktemp -d)"
    printf 'l 0 Author\nl 1 Paper\nv 0 0\nv 1 1\nv 2 1\ne 0 1\ne 1 2\n' \
        > "${cli_tmp}/g.txt"
    run_cli() { cargo run -q --release --bin rigmatch -- "$@"; }
    [[ "$(run_cli "${cli_tmp}/g.txt" --query 'MATCH (a:Author)->(p:Paper)=>(q:Paper)' --count)" == "1" ]]
    # a query file holds HPQL and counts what --query counts; a file in
    # the old n/d/r line format is an HPQL parse error (exit 3)
    printf 'MATCH (a:Author)->(p:Paper)=>(q:Paper)\n' > "${cli_tmp}/q.hpql"
    [[ "$(run_cli "${cli_tmp}/g.txt" "${cli_tmp}/q.hpql" --count)" == "1" ]]
    printf 'n 0 0\nn 1 1\nd 0 1\n' > "${cli_tmp}/q.txt"
    rc=0; run_cli "${cli_tmp}/g.txt" "${cli_tmp}/q.txt" --count 2> /dev/null || rc=$?
    [[ "${rc}" == "3" ]]
    # capture first, then grep: `| grep -q` can exit at the first match and
    # EPIPE the CLI's remaining line-buffered writes
    explain_out="$(run_cli explain "${cli_tmp}/g.txt" \
        --query 'MATCH (a:Author)->(p:Paper)=>(q:Paper), (a)=>(q)')"
    grep -q 'reduced:.*1 edge(s) removed' <<< "${explain_out}"
    grep -q 'count:.*factorized DP' <<< "${explain_out}"
    # --stats names the count's route: an unbudgeted tree count is the
    # factorized DP's (exact, no tuple materialization)
    fact_out="$(run_cli "${cli_tmp}/g.txt" --count --stats \
        --query 'MATCH (a:Author)->(p:Paper)=>(q:Paper)' 2> "${cli_tmp}/stats.txt")"
    [[ "${fact_out}" == "1" ]]
    grep -q '^count: factorized DP$' "${cli_tmp}/stats.txt"
    # parse errors exit 3, I/O errors exit 4
    rc=0; run_cli "${cli_tmp}/g.txt" --query 'MATCH (broken' 2> /dev/null || rc=$?
    [[ "${rc}" == "3" ]]
    rc=0; run_cli "${cli_tmp}/missing.txt" --query 'MATCH (a:Author)' 2> /dev/null || rc=$?
    [[ "${rc}" == "4" ]]
    # static analysis: `check` lints without executing — satisfiable
    # queries exit 0, provably-empty ones exit 8 with an emptiness proof
    # (the JSON schema's invariants are asserted in tests/analysis_soundness.rs)
    check_out="$(run_cli check "${cli_tmp}/g.txt" --query 'MATCH (a:Author)->(p:Paper)')"
    grep -q '0 error(s)' <<< "${check_out}"
    rc=0; run_cli check "${cli_tmp}/g.txt" \
        --query 'MATCH (p:Paper)->(a:Author)' > "${cli_tmp}/check.txt" || rc=$?
    [[ "${rc}" == "8" ]]
    grep -q 'error\[E102\]' "${cli_tmp}/check.txt"
    rc=0; run_cli check "${cli_tmp}/g.txt" --format json \
        --query 'MATCH (p:Paper)->(a:Author)' > /dev/null || rc=$?
    [[ "${rc}" == "8" ]]
    # strict lint mode wires the same proofs into query execution: exit 8
    rc=0; run_cli "${cli_tmp}/g.txt" --lint strict --count \
        --query 'MATCH (p:Paper)->(a:Author)' 2> /dev/null || rc=$?
    [[ "${rc}" == "8" ]]
    # E103 is exact for label pairs of any width: 70 Authors, 70 Papers
    # and only Paper -> Author edges make 4 900 pairs, none reachable
    {
        printf 'l 0 Author\nl 1 Paper\n'
        for i in $(seq 0 69); do printf 'v %d 0\n' "${i}"; done
        for i in $(seq 70 139); do printf 'v %d 1\n' "${i}"; done
        for i in $(seq 0 69); do printf 'e %d %d\n' "$((i + 70))" "${i}"; done
    } > "${cli_tmp}/wide.txt"
    rc=0; run_cli check "${cli_tmp}/wide.txt" \
        --query 'MATCH (a:Author)=>(p:Paper)' > "${cli_tmp}/check.txt" || rc=$?
    [[ "${rc}" == "8" ]]
    grep -q 'error\[E103\]' "${cli_tmp}/check.txt"
    # reachability expansion over 400 trivial components, where no node
    # reaches itself: the chain 0 -> 1 -> ... -> 399 alternates Author and
    # Paper, so Author 2k reaches 200 - k Papers, 20 100 pairs in all
    {
        printf 'l 0 Author\nl 1 Paper\n'
        for i in $(seq 0 399); do printf 'v %d %d\n' "${i}" "$((i % 2))"; done
        for i in $(seq 0 398); do printf 'e %d %d\n' "${i}" "$((i + 1))"; done
    } > "${cli_tmp}/chain.txt"
    for engine in gm jm; do
        [[ "$(run_cli "${cli_tmp}/chain.txt" --engine "${engine}" --count \
              --query 'MATCH (a:Author)=>(p:Paper)')" == "20100" ]]
    done
    # the same 20 100 pairs streamed as text span many 256-tuple batches,
    # and a full stdout is an I/O error (exit 4), not a clean stop
    run_cli "${cli_tmp}/chain.txt" --query 'MATCH (a:Author)=>(p:Paper)' 2> /dev/null \
        > "${cli_tmp}/one.txt"
    [[ "$(wc -l < "${cli_tmp}/one.txt")" == "20100" ]]
    [[ "$(LC_ALL=C sort -u "${cli_tmp}/one.txt" | wc -l)" == "20100" ]]
    rc=0; run_cli "${cli_tmp}/chain.txt" --query 'MATCH (a:Author)=>(p:Paper)' \
        > /dev/full 2> /dev/null || rc=$?
    [[ "${rc}" == "4" ]]
    # enumeration runs on one thread: --threads is an unknown flag (exit 2)
    rc=0; run_cli "${cli_tmp}/chain.txt" --query 'MATCH (a:Author)=>(p:Paper)' --threads 2 \
        > /dev/null 2>&1 || rc=$?
    [[ "${rc}" == "2" ]]
    # dynamic updates: --mutations commits a script before the query runs
    # (the first read rebases the dirty snapshot onto a clean base), and
    # `update` rewrites the materialized graph
    printf 'a v Author\na e 3 1\ncommit\nd e 1 2\n' > "${cli_tmp}/m.txt"
    [[ "$(run_cli "${cli_tmp}/g.txt" --count --mutations "${cli_tmp}/m.txt" \
          --query 'MATCH (a:Author)->(p:Paper)')" == "2" ]]
    # analysis of the mutated graph runs on the rebased base: with its
    # only Paper -> Paper edge deleted, the direct edge is provably empty
    rc=0; run_cli check "${cli_tmp}/g.txt" --mutations "${cli_tmp}/m.txt" \
        --query 'MATCH (p:Paper)->(q:Paper)' > "${cli_tmp}/check.txt" || rc=$?
    [[ "${rc}" == "8" ]]
    grep -q 'error\[E102\]' "${cli_tmp}/check.txt"
    run_cli update "${cli_tmp}/g.txt" "${cli_tmp}/m.txt" --output "${cli_tmp}/g2.txt"
    grep -q '^e 3 1$' "${cli_tmp}/g2.txt"
    [[ "$(run_cli "${cli_tmp}/g2.txt" --count \
          --query 'MATCH (a:Author)->(p:Paper)')" == "2" ]]
    # a node-only script: its merge keeps the base's CSR and reads the new
    # nodes' rows as empty, so the count is unchanged, and the rewritten
    # file holds the two nodes, no new edge, and reads back the same
    printf 'a v Paper\na v Author\n' > "${cli_tmp}/nodes.txt"
    nodes_q='MATCH (a:Author)->(p:Paper)=>(q:Paper)'
    [[ "$(run_cli "${cli_tmp}/g.txt" --count --mutations "${cli_tmp}/nodes.txt" \
          --query "${nodes_q}")" == "1" ]]
    run_cli update "${cli_tmp}/g.txt" "${cli_tmp}/nodes.txt" --output "${cli_tmp}/nodes2.txt"
    grep -q '^v 3 1$' "${cli_tmp}/nodes2.txt"
    grep -q '^v 4 0$' "${cli_tmp}/nodes2.txt"
    [[ "$(grep -c '^e ' "${cli_tmp}/nodes2.txt")" == "2" ]]
    [[ "$(run_cli "${cli_tmp}/nodes2.txt" --count --query "${nodes_q}")" == "1" ]]
    # a rebase whose delta adds a node and an edge the index already
    # implies (3 -> 2 inside the cycle 1 -> 2 -> 3 -> 1) extends the BFL
    # index instead of rebuilding it; answers match the rewritten graph
    printf 'l 0 Author\nl 1 Paper\nv 0 0\nv 1 1\nv 2 1\nv 3 1\ne 0 1\ne 1 2\ne 2 3\ne 3 1\n' \
        > "${cli_tmp}/cycle.txt"
    printf 'a v Author\na e 3 2\n' > "${cli_tmp}/chord.txt"
    chord_q='MATCH (p:Paper)->(q:Paper)=>(r:Paper)'
    [[ "$(run_cli "${cli_tmp}/cycle.txt" --count --query "${chord_q}")" == "9" ]]
    [[ "$(run_cli "${cli_tmp}/cycle.txt" --count --stats --mutations "${cli_tmp}/chord.txt" \
          --query "${chord_q}" 2> "${cli_tmp}/chord.err")" == "12" ]]
    grep -q 'store: v1, 1 rebase(s), 1 index extension(s)' "${cli_tmp}/chord.err"
    run_cli update "${cli_tmp}/cycle.txt" "${cli_tmp}/chord.txt" --output "${cli_tmp}/chord2.txt" 2> /dev/null
    grep -q '^v 4 0$' "${cli_tmp}/chord2.txt"
    grep -q '^e 3 2$' "${cli_tmp}/chord2.txt"
    [[ "$(run_cli "${cli_tmp}/chord2.txt" --count --query "${chord_q}")" == "12" ]]
    # deleting 3 -> 1 splits the Paper SCC into the chain 1 -> 2 -> 3, so
    # the rebase rebuilds the index (the one-pass condensation kernel)
    # instead of extending it; only (1, 2, 3) is left
    printf 'd e 3 1\n' > "${cli_tmp}/split.txt"
    [[ "$(run_cli "${cli_tmp}/cycle.txt" --count --stats --mutations "${cli_tmp}/split.txt" \
          --query "${chord_q}" 2> "${cli_tmp}/split.err")" == "1" ]]
    grep -q 'store: v1, 1 rebase(s), 0 index extension(s)' "${cli_tmp}/split.err"
    run_cli update "${cli_tmp}/cycle.txt" "${cli_tmp}/split.txt" --output "${cli_tmp}/split2.txt" 2> /dev/null
    if grep -q '^e 3 1$' "${cli_tmp}/split2.txt"; then false; fi
    [[ "$(run_cli "${cli_tmp}/split2.txt" --count --query "${chord_q}")" == "1" ]]
    # a numeric label id past the next new one is a validation error (exit
    # 5) refused before the label space grows, so it fails at once instead
    # of allocating for four billion labels (timeout's own exit is 124)
    printf 'a v 4294967295\n' > "${cli_tmp}/far.txt"
    rc=0; timeout 30 cargo run -q --release --bin rigmatch -- "${cli_tmp}/g.txt" --count \
        --mutations "${cli_tmp}/far.txt" --query 'MATCH (a:Author)' 2> /dev/null || rc=$?
    [[ "${rc}" == "5" ]]
    # the same id as a node label in graph text is a parse error (exit 3):
    # label ids must be smaller than the input's length in bytes, so the
    # label tables are never sized by it
    printf 'v 0 4294967295\n' > "${cli_tmp}/far_label.txt"
    rc=0; timeout 30 cargo run -q --release --bin rigmatch -- "${cli_tmp}/far_label.txt" \
        --count --query 'MATCH (a:0)' 2> /dev/null || rc=$?
    [[ "${rc}" == "3" ]]
    # a cyclic DP count over cycle.txt, whose Papers form one SCC, so the
    # DP's conditioning loop sums shared reachability runs; it must equal
    # the enumerated count (a --limit routes --count to MJoin)
    cyc_q='MATCH (p:Paper)=>(q:Paper)=>(r:Paper), (r)->(p)'
    cyc_explain="$(run_cli explain "${cli_tmp}/cycle.txt" --query "${cyc_q}")"
    grep -q 'count:.*factorized DP (cyclic' <<< "${cyc_explain}"
    cyc_out="$(run_cli "${cli_tmp}/cycle.txt" --count --stats --query "${cyc_q}" \
        2> "${cli_tmp}/stats.txt")"
    grep -q '^count: factorized DP$' "${cli_tmp}/stats.txt"
    cyc_enum="$(run_cli "${cli_tmp}/cycle.txt" --count --limit 1000000 --query "${cyc_q}")"
    [[ "${cyc_enum}" == "9" ]]
    [[ "${cyc_out}" == "${cyc_enum}" ]]
    # durable store: seed from the graph file, write commits ahead to the
    # WAL, inspect recovery, then query the recovered store (once a store
    # exists, --data-dir is authoritative and the graph file is ignored)
    run_cli update "${cli_tmp}/g.txt" "${cli_tmp}/m.txt" \
        --data-dir "${cli_tmp}/store" --output /dev/null
    recover_out="$(run_cli recover "${cli_tmp}/store" 2> /dev/null)"
    grep -q 'recovered version:   2' <<< "${recover_out}"
    grep -q 'corrupt segments:    none' <<< "${recover_out}"
    [[ "$(run_cli "${cli_tmp}/g.txt" --count --data-dir "${cli_tmp}/store" \
          --query 'MATCH (a:Author)->(p:Paper)' 2> /dev/null)" == "2" ]]
    # recovering a dir with no store is a typed storage error: exit 7
    rc=0; run_cli recover "${cli_tmp}" 2> /dev/null || rc=$?
    [[ "${rc}" == "7" ]]
    rm -rf "${cli_tmp}"

    step "examples"
    for example in quickstart citation_network money_laundering provenance_supply; do
        echo "--- cargo run --release --example ${example}"
        cargo run -q --release --example "${example}" > /dev/null
    done

    step "paper harness smoke (fig9, fig12, fig13, fig15, fig17, table4; fig9 checks GM's finished counts against the DP, TM and JM, fig12 that its ablation agrees, fig15 that reduction keeps every answer, fig17 and table4 that search orders and RM agree)"
    for fig in fig9 fig12 fig13 fig15 fig17 table4; do
        cargo run -q --release -p rig_bench --bin "${fig}" -- \
            --scale 0.005 --timeout 2 --limit 100000 > /dev/null
    done

    step "kill-and-recover differential + crash-recovery proptests"
    cargo test -q --test kill_recover --test storage_recovery

    step "perfbench self-tests (it builds against the rig_core surface)"
    # building perfbench re-resolves its committed Cargo.lock offline;
    # put the committed file back afterwards, also when the tests fail
    lock_copy="$(mktemp)"
    cp perfbench/Cargo.lock "${lock_copy}"
    rc=0
    cargo test -q --release --manifest-path perfbench/Cargo.toml || rc=$?
    cp "${lock_copy}" perfbench/Cargo.lock
    rm -f "${lock_copy}"
    [[ "${rc}" == "0" ]]
fi

step "OK"
