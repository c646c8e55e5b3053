//! `rigmatch` — command-line hybrid graph pattern matching.
//!
//! ```text
//! rigmatch [explain] <graph-file> (<query-file> | --query 'HPQL') [options]
//! rigmatch check <graph-file> (<query-file> | --query 'HPQL')
//!                [--format text|json] [--mutations <file>]
//! rigmatch update <graph-file> <mutations-file> [--output <path>] [--stats]
//! rigmatch recover <data-dir>
//! rigmatch serve [<graph-file>] [--addr HOST:PORT] [--workers N]
//!                [--queue-depth N] [--data-dir DIR] [--durability ...]
//!
//! options:
//!   --query 'MATCH ...'      inline HPQL query (instead of a query file)
//!   --engine gm|jm|tm|neo    matcher to use            (default gm)
//!   --limit <n>              stop after n matches      (default all)
//!   --timeout <secs>         wall-clock budget         (default none)
//!   --count                  print only the count
//!   --order jo|ri|bj         search order, gm only     (default jo)
//!   --no-reduction           skip query transitive reduction
//!   --mutations <file>       apply a mutation script before querying
//!   --stats                  print phase timings, RIG statistics, count route
//!   --strict                 fail (exit 6) if limit/timeout truncated the run
//!   --lint off|warn|strict   static analysis before running, gm only
//!                            (warn prints findings; strict exits 8 on errors)
//!   --data-dir <dir>         durable store: WAL + snapshots (gm only)
//!   --durability strict|batched|none   fsync policy (default strict)
//! ```
//!
//! `check` runs the static analyzer (`rig_analyze`) **without executing
//! the query**: name resolution with did-you-mean hints, emptiness proofs
//! (empty labels, impossible direct edges, refuted reachability),
//! redundancy lints and cost warnings — see `docs/analysis.md` for the
//! lint-code table. Text output renders rustc-style caret underlines over
//! the query source; `--format json` emits the machine-readable `analysis`
//! schema (see `docs/analysis.md`). Exit code: `0` clean (or warnings/notes
//! only), `8` any error-severity finding, `3` if the query text failed to
//! parse. With `--mutations <file>` the script is committed first, and the
//! analysis runs on the clean base the session rebases the result onto.
//!
//! `explain` (first argument) prints the plan instead of running it: the
//! query as given, its transitive reduction, the RIG statistics, the
//! search order MJoin would use, and the `count()` routing decision
//! (factorized DP vs. tuple enumeration — see `docs/factorized.md`).
//!
//! `update` applies a mutation script (`a v <label>` / `a e <u> <v>` /
//! `d v <id>` / `d e <u> <v>` lines, `commit` boundaries — see
//! `docs/updates.md`) and writes the resulting graph in the text format
//! (tombstoned nodes appear as `x <id>` lines, keeping node ids stable).
//! With `--mutations <file>` the query path does the same in memory first:
//! GM commits the script to its session, whose first read rebases it onto
//! a clean base; baseline engines get the materialized graph.
//!
//! Queries are **HPQL** (`MATCH (a:Author)->(p:Paper)=>(q:Paper)`), read
//! from a query file or given inline via `--query`. HPQL label names
//! resolve through the graph's label-name dictionary (`l <id> <name>`
//! lines in the graph file); numeric labels (`(a:0)`) always work.
//!
//! Graph files use the `rig-graph` text format (`v <id> <label>` /
//! `e <src> <dst>` / optional `l <id> <name>`).
//!
//! With `--data-dir <dir>` the GM session is **durable**: an empty or
//! uninitialized directory is seeded from the graph file (binary snapshot
//! segment + write-ahead log), and every mutation commit is logged before
//! it is acknowledged. An already-initialized directory is *opened*
//! instead — the graph file argument is then ignored (recovery replays
//! the WAL over the last snapshot). `recover <data-dir>` opens a store,
//! prints its recovery report and integrity findings, and exits — see
//! `docs/durability.md`.
//!
//! `serve` starts the concurrent HTTP/NDJSON query server (`rig_server`)
//! over the graph (or an initialized `--data-dir` store, in which case
//! the graph file may be omitted): `POST /query` (HPQL in, streamed
//! NDJSON or a count out), `POST /update` (mutation scripts), `GET
//! /metrics` (Prometheus text), `GET /healthz`, `POST /shutdown`. It
//! prints `listening on http://ADDR` on stdout (with the resolved port —
//! use `--addr 127.0.0.1:0` for an ephemeral one) and exits 0 after a
//! clean shutdown. See `docs/serving.md`.
//!
//! Exit codes: `0` success, `1` internal error, `2` usage, `3` parse
//! error, `4` I/O error, `5` validation error, `6` budget exceeded (with
//! `--strict`), `7` storage error (corruption, fsync failure, …), `8`
//! static analysis rejected the query (`check`, `--lint strict`).

use std::process::ExitCode;
use std::time::Duration;

use rigmatch::baselines::{Budget, Engine, Jm, NeoLike, Tm};
use rigmatch::core::{Durability, Error, FsBackend, GmConfig, LintMode, Session, StoreOptions};
use rigmatch::graph::parse_text;
use rigmatch::mjoin::{EnumOptions, SearchOrder, TupleFormat, WriteSink};
use rigmatch::storage::DurableStore;

struct Cli {
    explain: bool,
    /// `check` subcommand: static analysis only, never executes.
    check: bool,
    /// `--format json` for `check` (text with carets otherwise).
    format_json: bool,
    /// Lint gate in front of the gm query path (`--lint`).
    lint: LintMode,
    /// `update` subcommand: apply mutations, write the graph back out.
    update: bool,
    /// `recover` subcommand: open a durable store, report, exit.
    recover: bool,
    /// `serve` subcommand: run the HTTP query server until shutdown.
    serve: bool,
    /// Listen address for `serve` (port 0 picks an ephemeral port).
    addr: String,
    /// Worker pool size for `serve`.
    workers: usize,
    /// Admission-queue depth for `serve` (beyond it: 503).
    queue_depth: usize,
    graph_path: String,
    /// A query file path, unless `--query` supplied inline text.
    query_path: Option<String>,
    query_text: Option<String>,
    /// Mutation script applied before querying (`--mutations`), or the
    /// positional script of the `update` subcommand.
    mutations_path: Option<String>,
    /// `update` output path (stdout when absent).
    output_path: Option<String>,
    engine: String,
    limit: Option<u64>,
    timeout: Option<Duration>,
    count_only: bool,
    order: SearchOrder,
    reduction: bool,
    stats: bool,
    strict: bool,
    /// Durable store directory (`--data-dir`), gm only.
    data_dir: Option<String>,
    durability: Durability,
}

fn usage() -> ! {
    eprintln!(
        "usage: rigmatch [explain] <graph-file> (<query-file> | --query 'HPQL') \
         [--engine gm|jm|tm|neo] [--limit N] [--timeout SECS] [--count] \
         [--order jo|ri|bj] [--no-reduction] [--mutations FILE] [--stats] [--strict] \
         [--lint off|warn|strict] [--data-dir DIR] [--durability strict|batched|none]\n\
         \x20      rigmatch check <graph-file> (<query-file> | --query 'HPQL') \
         [--format text|json] [--mutations FILE]\n\
         \x20      rigmatch update <graph-file> <mutations-file> [--output PATH] [--stats] \
         [--data-dir DIR] [--durability strict|batched|none]\n\
         \x20      rigmatch recover <data-dir>\n\
         \x20      rigmatch serve [<graph-file>] [--addr HOST:PORT] [--workers N] \
         [--queue-depth N] [--data-dir DIR] [--durability strict|batched|none]"
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let explain = argv.first().map(|s| s.as_str()) == Some("explain");
    let check = argv.first().map(|s| s.as_str()) == Some("check");
    let update = argv.first().map(|s| s.as_str()) == Some("update");
    let recover = argv.first().map(|s| s.as_str()) == Some("recover");
    let serve = argv.first().map(|s| s.as_str()) == Some("serve");
    if explain || check || update || recover || serve {
        argv.remove(0);
    }
    let mut cli = Cli {
        explain,
        check,
        format_json: false,
        lint: LintMode::Off,
        update,
        recover,
        serve,
        addr: "127.0.0.1:7474".into(),
        workers: 4,
        queue_depth: 16,
        graph_path: String::new(),
        query_path: None,
        query_text: None,
        mutations_path: None,
        output_path: None,
        engine: "gm".into(),
        limit: None,
        timeout: None,
        count_only: false,
        order: SearchOrder::Jo,
        reduction: true,
        stats: false,
        strict: false,
        data_dir: None,
        durability: Durability::Strict,
    };
    let mut positional: Vec<String> = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--query" => {
                i += 1;
                cli.query_text = Some(argv.get(i).unwrap_or_else(|| usage()).clone());
            }
            "--engine" => {
                i += 1;
                cli.engine = argv.get(i).unwrap_or_else(|| usage()).clone();
            }
            "--limit" => {
                i += 1;
                cli.limit =
                    Some(argv.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--timeout" => {
                i += 1;
                let secs: u64 = argv.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                cli.timeout = Some(Duration::from_secs(secs));
            }
            "--count" => cli.count_only = true,
            "--order" => {
                i += 1;
                cli.order = match argv.get(i).map(|s| s.as_str()) {
                    Some("jo") => SearchOrder::Jo,
                    Some("ri") => SearchOrder::Ri,
                    Some("bj") => SearchOrder::Bj,
                    _ => usage(),
                };
            }
            "--no-reduction" => cli.reduction = false,
            "--mutations" => {
                i += 1;
                cli.mutations_path = Some(argv.get(i).unwrap_or_else(|| usage()).clone());
            }
            "--output" => {
                i += 1;
                cli.output_path = Some(argv.get(i).unwrap_or_else(|| usage()).clone());
            }
            "--addr" => {
                i += 1;
                cli.addr = argv.get(i).unwrap_or_else(|| usage()).clone();
            }
            "--workers" => {
                i += 1;
                cli.workers = argv.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--queue-depth" => {
                i += 1;
                cli.queue_depth =
                    argv.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--stats" => cli.stats = true,
            "--strict" => cli.strict = true,
            "--format" => {
                i += 1;
                cli.format_json = match argv.get(i).map(|s| s.as_str()) {
                    Some("json") => true,
                    Some("text") => false,
                    _ => usage(),
                };
            }
            "--lint" => {
                i += 1;
                cli.lint = argv.get(i).and_then(|s| LintMode::parse(s)).unwrap_or_else(|| usage());
            }
            "--data-dir" => {
                i += 1;
                cli.data_dir = Some(argv.get(i).unwrap_or_else(|| usage()).clone());
            }
            "--durability" => {
                i += 1;
                cli.durability =
                    argv.get(i).and_then(|s| Durability::parse(s)).unwrap_or_else(|| usage());
            }
            flag if flag.starts_with("--") => usage(),
            _ => positional.push(argv[i].clone()),
        }
        i += 1;
    }
    if cli.recover {
        if positional.len() != 1 || cli.query_text.is_some() {
            usage();
        }
        cli.data_dir = Some(positional.remove(0));
        return cli;
    }
    if cli.serve {
        // graph file optional: an initialized --data-dir store suffices
        match positional.len() {
            0 => {}
            1 => cli.graph_path = positional.remove(0),
            _ => usage(),
        }
        if cli.query_text.is_some() {
            usage();
        }
        return cli;
    }
    if cli.update {
        if positional.len() != 2 || cli.query_text.is_some() {
            usage();
        }
        cli.graph_path = positional.remove(0);
        cli.mutations_path = Some(positional.remove(0));
        return cli;
    }
    match (positional.len(), cli.query_text.is_some()) {
        (2, false) => {
            cli.graph_path = positional.remove(0);
            cli.query_path = Some(positional.remove(0));
        }
        (1, true) => cli.graph_path = positional.remove(0),
        _ => usage(),
    }
    cli
}

fn exit_for(e: &Error) -> ExitCode {
    eprintln!("error: {e}");
    ExitCode::from(e.kind().exit_code())
}

/// Writes `text` to stdout. A closed pipe (`rigmatch ... | head`) is a
/// clean no-op — the reader chose to stop — while any other write error
/// surfaces as `Error::Io` (exit code 4).
fn write_stdout(text: &str) -> Result<(), Error> {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        Err(e) => Err(Error::io("stdout", e)),
    }
}

fn read_file(path: &str) -> Result<String, Error> {
    std::fs::read_to_string(path).map_err(|io| Error::io(path, io))
}

/// The query's HPQL text: `--query`, or the query file's contents.
fn load_query(cli: &Cli) -> Result<String, Error> {
    if let Some(text) = &cli.query_text {
        return Ok(text.clone());
    }
    read_file(cli.query_path.as_deref().expect("parse_cli guarantees a query source"))
}

fn main() -> ExitCode {
    let cli = parse_cli();
    match run(&cli) {
        Ok(code) => code,
        Err(e) => exit_for(&e),
    }
}

/// Parses the mutation script at `path` and commits it segment by segment
/// (each `commit` line is one transaction; EOF commits the tail).
fn apply_mutations(session: &Session, path: &str, stats: bool) -> Result<(), Error> {
    let text = read_file(path)?;
    let script = rigmatch::graph::parse_mutations(&text)?;
    for ops in &script {
        let summary = session.apply(ops)?;
        if stats {
            eprintln!(
                "commit v{}: +{}n -{}n +{}e -{}e, touched labels {:?}, \
                 {} plan(s) invalidated / {} retained{}",
                summary.version,
                summary.nodes_added,
                summary.nodes_removed,
                summary.edges_added,
                summary.edges_removed,
                summary.touched_labels,
                summary.plans_invalidated,
                summary.plans_retained,
                if summary.compacted { " [compacted]" } else { "" },
            );
        }
    }
    Ok(())
}

/// Builds the GM session, durable when `--data-dir` was given: an
/// initialized store directory is opened (recovery; the graph file is
/// ignored), anything else is seeded from `load_graph()`. The graph file
/// is only read when actually needed.
fn make_session(
    cli: &Cli,
    cfg: GmConfig,
    load_graph: impl FnOnce() -> Result<rigmatch::graph::DataGraph, Error>,
) -> Result<Session, Error> {
    let Some(dir) = &cli.data_dir else {
        return Ok(Session::with_config(load_graph()?, cfg));
    };
    let opts = StoreOptions::with_durability(cli.durability);
    if DurableStore::is_initialized(&FsBackend, std::path::Path::new(dir)) {
        let session = Session::open_with(dir, cfg, std::sync::Arc::new(FsBackend), opts)?;
        if !cli.graph_path.is_empty() {
            eprintln!("note: '{dir}' already holds a store; graph file ignored, recovered instead");
        }
        if let Some(r) = session.recovery_report() {
            eprintln!(
                "recovered v{} ({} wal record(s) replayed)",
                r.recovered_version, r.wal_records_replayed
            );
        }
        Ok(session)
    } else {
        Session::create_at_with(dir, load_graph()?, cfg, std::sync::Arc::new(FsBackend), opts)
    }
}

/// The `recover` subcommand: open the store, print what recovery found,
/// and exit. Corruption or I/O trouble surfaces as exit code 7.
fn run_recover(cli: &Cli) -> Result<ExitCode, Error> {
    let dir = cli.data_dir.as_deref().expect("parse_cli guarantees a data dir");
    let session = Session::open(dir)?;
    let report = session.recovery_report().expect("opened sessions carry a report");
    write_stdout(&format!("{report}"))?;
    eprintln!("graph: {:?}", session.graph());
    Ok(ExitCode::SUCCESS)
}

fn run_update(cli: &Cli, g: Option<rigmatch::graph::DataGraph>) -> Result<ExitCode, Error> {
    let session = make_session(cli, GmConfig::default(), || {
        Ok(g.expect("graph parsed unless the store was opened"))
    })?;
    let before = format!("{:?}", session.graph());
    let path = cli.mutations_path.as_deref().expect("parse_cli guarantees a script");
    apply_mutations(&session, path, cli.stats)?;
    // surface batched-WAL sync trouble here instead of losing it in Drop
    session.flush_wal()?;
    let snap = session.graph();
    eprintln!("{} -> {:?}", before, snap);
    let out = rigmatch::graph::to_text(snap.graph());
    match &cli.output_path {
        Some(p) => {
            std::fs::write(p, &out).map_err(|e| Error::io(p.clone(), e))?;
            eprintln!("wrote {p}");
        }
        None => write_stdout(&out)?,
    }
    Ok(ExitCode::SUCCESS)
}

/// The `serve` subcommand: bind the HTTP server over the session and run
/// until `POST /shutdown`. Prints the resolved listen address on stdout
/// so scripts (ci.sh, the load generator) can discover an ephemeral port.
fn run_serve(cli: &Cli) -> Result<ExitCode, Error> {
    let store_open = cli
        .data_dir
        .as_deref()
        .is_some_and(|d| DurableStore::is_initialized(&FsBackend, std::path::Path::new(d)));
    let g = if store_open {
        None
    } else {
        if cli.graph_path.is_empty() {
            return Err(Error::validation(
                "serve needs a graph file or an initialized --data-dir store",
            ));
        }
        Some(parse_text(&read_file(&cli.graph_path)?)?)
    };
    let session = make_session(cli, GmConfig::default(), || {
        Ok(g.expect("graph parsed unless the store was opened"))
    })?;
    eprintln!("graph: {:?}", session.graph());
    let config = rigmatch::server::ServerConfig {
        workers: cli.workers.max(1),
        queue_depth: cli.queue_depth.max(1),
        ..Default::default()
    };
    let server = rigmatch::server::Server::bind(std::sync::Arc::new(session), &cli.addr, config)
        .map_err(|e| Error::io(cli.addr.clone(), e))?;
    let addr = server.local_addr();
    write_stdout(&format!("listening on http://{addr}\n"))?;
    eprintln!("{} worker(s), queue depth {}; POST /shutdown stops", cli.workers, cli.queue_depth);
    server.serve().map_err(|e| Error::io(addr.to_string(), e))?;
    eprintln!("server stopped");
    Ok(ExitCode::SUCCESS)
}

fn run(cli: &Cli) -> Result<ExitCode, Error> {
    if cli.recover {
        return run_recover(cli);
    }
    if cli.serve {
        return run_serve(cli);
    }
    // With an already-initialized --data-dir the store is authoritative
    // and the graph file is never read.
    let store_open = cli
        .data_dir
        .as_deref()
        .is_some_and(|d| DurableStore::is_initialized(&FsBackend, std::path::Path::new(d)));
    let g = if store_open {
        None
    } else {
        let graph_text = read_file(&cli.graph_path)?;
        Some(parse_text(&graph_text)?)
    };
    if cli.update {
        return run_update(cli, g);
    }
    let text = load_query(cli)?;
    if cli.check {
        return run_check(cli, g, &text);
    }

    let cfg = GmConfig {
        skip_reduction: !cli.reduction,
        enumeration: EnumOptions { order: cli.order, limit: cli.limit, ..Default::default() },
        ..Default::default()
    };

    match cli.engine.as_str() {
        "gm" => run_gm(cli, g, &text, cfg),
        name @ ("jm" | "tm" | "neo") => {
            if cli.data_dir.is_some() {
                return Err(Error::validation("--data-dir is only available for the gm engine"));
            }
            let g = g.expect("baselines always parse the graph file");
            // Baseline engines evaluate static CSR graphs: a mutation
            // script is applied through a throwaway session and handed
            // over materialized (the base GM's session rebases onto).
            let g = match &cli.mutations_path {
                Some(path) => {
                    let session = Session::new(g);
                    apply_mutations(&session, path, cli.stats)?;
                    session.graph().materialize()
                }
                None => g,
            };
            run_baseline(cli, &g, &text, name)
        }
        other => {
            eprintln!("error: unknown engine '{other}'");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// The `check` subcommand: run the static analyzer and render its
/// report, never executing the query. Exit 0 when no error-severity
/// finding fired, 8 otherwise (3 when the query text failed to parse).
fn run_check(
    cli: &Cli,
    g: Option<rigmatch::graph::DataGraph>,
    text: &str,
) -> Result<ExitCode, Error> {
    let session = make_session(cli, GmConfig::default(), || {
        Ok(g.expect("graph parsed unless the store was opened"))
    })?;
    if let Some(path) = &cli.mutations_path {
        // the analysis rebases the dirty snapshot and proves on its base
        apply_mutations(&session, path, cli.stats)?;
    }
    let report = session.analyze(text);
    if cli.format_json {
        write_stdout(&report.to_json())?;
    } else if report.diagnostics.is_empty() {
        write_stdout("clean: no findings\n")?;
    } else {
        let (e, w, n) = report.counts();
        write_stdout(&format!("{}{e} error(s), {w} warning(s), {n} note(s)\n", report.render()))?;
    }
    if report.is_parse_failure() {
        return Ok(ExitCode::from(3));
    }
    Ok(if report.has_errors() { ExitCode::from(8) } else { ExitCode::SUCCESS })
}

fn run_gm(
    cli: &Cli,
    g: Option<rigmatch::graph::DataGraph>,
    text: &str,
    cfg: GmConfig,
) -> Result<ExitCode, Error> {
    let session =
        make_session(cli, cfg, || Ok(g.expect("graph parsed unless the store was opened")))?;
    if let Some(path) = &cli.mutations_path {
        // the first read rebases the committed script onto a clean base
        apply_mutations(&session, path, cli.stats)?;
        session.flush_wal()?;
    }
    let prepared = match cli.lint {
        LintMode::Off => session.prepare(text)?,
        mode => {
            // warn: print findings and run anyway; strict: an
            // error-severity finding surfaces as Error::Analysis
            // through exit_for (exit code 8)
            let (prepared, report) = session.prepare_with_lint(text, mode)?;
            if !report.diagnostics.is_empty() {
                eprint!("{}", report.render_compact());
            }
            prepared
        }
    };
    let q = prepared.query();
    eprintln!(
        "graph: {:?}; query: {} nodes / {} edges ({} reachability)",
        session.graph(),
        q.num_nodes(),
        q.num_edges(),
        q.reachability_edge_count()
    );

    if cli.explain {
        let mut out = format!("{}", prepared.run().order(cli.order).explain());
        // append the analyzer's findings (lints, proofs, cost notes) so
        // a plan read and a health check are one command
        let report = session.analyze(text);
        if !report.diagnostics.is_empty() {
            out.push_str("diagnostics:\n");
            out.push_str(&report.render_compact());
        }
        write_stdout(&out)?;
        return Ok(ExitCode::SUCCESS);
    }
    // --timeout budgets each run from its start, through Run::timeout
    let run = || match cli.timeout {
        Some(t) => prepared.run().timeout(t),
        None => prepared.run(),
    };

    let outcome = if cli.count_only {
        run().count()
    } else {
        // matches are formatted into batches of 256 lines, each written
        // with one `Stdout::write_all`, so nothing is materialized
        let stdout = std::io::stdout();
        let mut sink = WriteSink::new(&stdout, q.num_nodes(), 256, TupleFormat::TEXT);
        let outcome = run().stream(&mut sink);
        // a closed pipe (`rigmatch ... | head`) is a clean stop; any other
        // write error is a real I/O error
        if let Some(e) = sink.into_error().filter(|e| e.kind() != std::io::ErrorKind::BrokenPipe) {
            return Err(Error::io("stdout", e));
        }
        outcome
    };

    eprintln!(
        "{} occurrence(s){}",
        outcome.result.count,
        if outcome.result.timed_out { " [timeout]" } else { "" }
    );
    if cli.count_only {
        write_stdout(&format!("{}\n", outcome.result.count))?;
    }
    if cli.stats {
        let m = &outcome.metrics;
        eprintln!("reduction: {} edge(s) removed in {:?}", m.edges_reduced, m.reduction_time);
        eprintln!(
            "RIG: {} nodes / {} edges ({}; select {:?}, expand {:?}, {} sim passes, {} pruned)",
            m.rig_stats.node_count,
            m.rig_stats.edge_count,
            if m.rig_from_cache { "cached" } else { "built" },
            m.rig_stats.select_time,
            m.rig_stats.expand_time,
            m.rig_stats.sim_passes,
            m.rig_stats.pruned
        );
        eprintln!(
            "times: total {:?} (matching {:?}, enumeration {:?})",
            m.total_time,
            m.matching_time(),
            m.enumeration_time
        );
        eprintln!(
            "count: {}",
            if m.counted_via_factorization { "factorized DP" } else { "enumerated" }
        );
        let s = session.store_stats();
        eprintln!(
            "store: v{}, {} rebase(s), {} index extension(s) (materialize {:?}, index {:?})",
            s.version,
            s.rebases,
            s.index_extensions,
            s.rebase_materialize_time,
            s.rebase_index_time
        );
    }
    if cli.strict {
        // propagate a truncated answer as a distinct exit code for scripts
        outcome.require_complete()?;
    }
    Ok(ExitCode::SUCCESS)
}

fn run_baseline(
    cli: &Cli,
    g: &rigmatch::graph::DataGraph,
    text: &str,
    name: &str,
) -> Result<ExitCode, Error> {
    if cli.explain {
        return Err(Error::validation("explain is only available for the gm engine"));
    }
    // Baselines take a ready pattern; resolve and validate through the
    // same path Session::prepare uses, so a bad query classifies (and
    // exits) identically whichever engine was asked to run it.
    use rigmatch::core::{validate_pattern, IntoPattern};
    use rigmatch::graph::GraphView;
    let (q, vars) = text.into_pattern(GraphView::from(g))?;
    validate_pattern(g, &q, vars.as_deref())?;
    let budget =
        Budget { timeout: cli.timeout, max_intermediate: Some(50_000_000), match_limit: cli.limit };
    let jm;
    let tm;
    let neo;
    let engine: &dyn Engine = match name {
        "jm" => {
            jm = Jm::new(g);
            &jm
        }
        "tm" => {
            tm = Tm::new(g);
            &tm
        }
        _ => {
            neo = NeoLike::new(g);
            &neo
        }
    };
    let r = engine.evaluate(&q, &budget);
    eprintln!(
        "{}: {} occurrence(s) in {:?} [{}], {} intermediate tuple(s)",
        engine.name(),
        r.occurrences,
        r.total_time,
        r.status.code(),
        r.intermediate_tuples
    );
    write_stdout(&format!("{}\n", r.occurrences))?;
    Ok(ExitCode::SUCCESS)
}
