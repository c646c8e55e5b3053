//! # rigmatch
//!
//! Hybrid graph pattern matching with runtime index graphs — a from-scratch
//! Rust reproduction of *"Evaluating Hybrid Graph Pattern Queries Using
//! Runtime Index Graphs"* (Wu, Theodoratos, Mamoulis, Lan; EDBT 2023).
//!
//! A *hybrid* pattern mixes **direct** edges (mapped to data-graph edges)
//! and **reachability** edges (mapped to paths). The matcher — **GM** —
//! evaluates such patterns under homomorphism semantics in two phases:
//! it first builds a *runtime index graph* (RIG) that losslessly and
//! compactly encodes the answer search space (refined by a new *double
//! simulation* filter), then enumerates occurrences with **MJoin**, a
//! worst-case-optimal multiway-intersection join that materializes no
//! intermediate results.
//!
//! ## Quick start
//!
//! Open a [`Session`] on a graph, write the pattern in **HPQL** (`->`
//! direct, `=>` reachability), prepare it once, run it as often as you
//! like — repeated executions reuse the session's cached RIG:
//!
//! ```
//! use rigmatch::prelude::*;
//!
//! // data graph: an author with a paper that transitively cites another
//! let mut b = GraphBuilder::new();
//! let a = b.add_named_node("Author");
//! let p1 = b.add_named_node("VldbPaper");
//! let p2 = b.add_named_node("IcdePaper");
//! b.add_edge(a, p1);
//! b.add_edge(p1, p2);
//! let session = Session::new(b.build());
//!
//! // pattern: author -> VLDB paper =cites…=> ICDE paper
//! let prepared = session
//!     .prepare("MATCH (a:Author)->(v:VldbPaper)=>(i:IcdePaper)")
//!     .expect("parses and validates");
//!
//! let outcome = prepared.run().count();
//! assert_eq!(outcome.result.count, 1);
//!
//! // the second execution skips RIG construction entirely
//! let warm = prepared.run().count();
//! assert!(warm.metrics.rig_from_cache);
//! assert_eq!(session.cache_stats().hits, 1);
//! ```
//!
//! The [`Run`](core::Run) builder carries every per-execution knob:
//! `prepared.run().limit(10).timeout(d).order(o)` with terminals
//! `.count()`, `.collect(max)`, `.collect_all()`, `.stream(sink)` and
//! `.explain()`. Patterns can also be built
//! programmatically as [`PatternQuery`](query::PatternQuery) values and
//! prepared the same way — both paths produce identical plans (and share
//! one plan-cache entry). See `docs/api.md` for the full grammar and a
//! tour.
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`graph`] | data graphs (CSR + label inverted lists + label dictionary) |
//! | [`query`] | hybrid pattern queries, HPQL, transitive reduction, templates |
//! | [`bitset`] | roaring-style compressed bitmaps |
//! | [`reach`] | reachability indexes (BFL, intervals, transitive closure) |
//! | [`sim`] | double simulation (FBSimBas / FBSimDag / FBSim) |
//! | [`rig`] | runtime index graphs and `BuildRIG` |
//! | [`mjoin`] | MJoin enumeration and search orders |
//! | [`core`] | the [`Session`] API, unified [`Error`], the GM pipeline |
//! | [`storage`] | durability: WAL, binary snapshots, crash recovery |
//! | [`server`] | concurrent HTTP/NDJSON query server (`rigmatch serve`) |
//! | [`baselines`] | JM / TM and engine analogues used in the experiments |
//! | [`datasets`] | synthetic Table 2 dataset generators |

pub use rig_baselines as baselines;
pub use rig_bitset as bitset;
pub use rig_core as core;
pub use rig_datasets as datasets;
pub use rig_graph as graph;
pub use rig_index as rig;
pub use rig_mjoin as mjoin;
pub use rig_query as query;
pub use rig_reach as reach;
pub use rig_server as server;
pub use rig_sim as sim;
pub use rig_storage as storage;

pub use rig_core::{Error, ErrorKind, Session};

/// The types most applications need.
pub mod prelude {
    pub use rig_core::{
        CacheStats, CommitSummary, CompactionPolicy, Durability, Error, ErrorKind, Explain,
        GmConfig, GmMetrics, GraphTxn, Prepared, QueryOutcome, RecoveryReport, Run, RunReport,
        RunStatus, Session, StoreOptions, StoreStats,
    };
    pub use rig_graph::{
        parse_mutations, DataGraph, GraphBuilder, GraphView, Label, MutationOp, NodeId, Snapshot,
    };
    pub use rig_mjoin::{
        CollectSink, CountSink, FirstKSink, FnSink, ResultSink, SearchOrder, TupleFormat, WriteSink,
    };
    pub use rig_query::{
        parse_hpql, to_hpql, transitive_reduction, EdgeKind, Flavor, HpqlQuery, PatternQuery,
        QNode, QueryClass,
    };
}
