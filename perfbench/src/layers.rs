//! One read, rebuilt from outside the session through each layer's public
//! functions, with a span around every call.
//!
//! This mirrors what `Session` does for a read: the prepared (reduced,
//! canonical) query goes through pre-filter + double simulation (`sim`),
//! node expansion (`rig`), then search ordering and MJoin or the factorized
//! DP (`mjoin`). On a dirty snapshot the reachability oracle is the public
//! `SnapshotReach` over `Session::graph()` and `Session::bfl()`, which is
//! the session's own construction for that case. The replay recomputes the
//! search order and the transitive reduction once more than the session
//! does (both take microseconds); those spans are reported as they are.

use rig_core::factorized::{dp_count_result, Factorization};
use rig_core::{ResultSink, SelectMode, Session};
use rig_graph::Snapshot;
use rig_index::{build_rig_from_candidates, Rig, RigOptions};
use rig_mjoin::{compute_order, enumerate_sink, EnumOptions, EnumResult};
use rig_query::{EdgeKind, PatternQuery};
use rig_reach::{BflIndex, Reachability, SnapshotReach};
use rig_sim::{double_simulation_seeded, prefilter, SimContext};

use crate::trace::Tracer;

/// Builds the RIG of `exec` against the session's current snapshot,
/// recording `sim.select` and `rig.expand` spans plus their counters.
pub fn build(tr: &mut Tracer, session: &Session, exec: &PatternQuery) -> Rig {
    let snapshot = session.graph();
    let bfl = session.bfl();
    let opts = session.config().rig;
    assert_eq!(opts.select, SelectMode::PrefilterThenSim, "replay mirrors the default selection");
    if snapshot.is_dirty() {
        let reach = SnapshotReach::new(&snapshot, &bfl);
        build_in(tr, &SimContext::new(&*snapshot, exec, &reach), &bfl, &opts)
    } else {
        build_in(tr, &SimContext::new(snapshot.base(), exec, &*bfl), &bfl, &opts)
    }
}

fn build_in(tr: &mut Tracer, ctx: &SimContext<'_>, bfl: &BflIndex, opts: &RigOptions) -> Rig {
    let label_total: u64 = ctx
        .query
        .labels()
        .iter()
        .filter(|&&l| (l as usize) < ctx.graph.num_labels())
        .map(|&l| ctx.graph.label_bitset(l).len())
        .sum();
    tr.begin("sim.select");
    let seeded = prefilter(ctx);
    let sim = double_simulation_seeded(ctx, &opts.sim, seeded);
    tr.end();
    tr.count("sim.passes", sim.passes as f64);
    let kept = sim.total_candidates();
    tr.count("sim.pruned_frac", 1.0 - kept as f64 / label_total.max(1) as f64);
    let rig = tr.span("rig.expand", || build_rig_from_candidates(ctx, bfl, opts, sim.fb));
    tr.count("rig.size", rig.stats.size() as f64);
    tr.count("rig.heap_mb", rig.heap_bytes() as f64 / (1u64 << 20) as f64);
    rig
}

/// Streams the answer of `exec` over `rig` into `sink`, recording
/// `mjoin.order` and `mjoin.enum`.
pub fn stream<S: ResultSink>(
    tr: &mut Tracer,
    session: &Session,
    exec: &PatternQuery,
    rig: &Rig,
    limit: Option<u64>,
    sink: &mut S,
) -> EnumResult {
    if rig.is_empty() {
        sink.finish();
        return EnumResult::empty(Vec::new());
    }
    let opts = EnumOptions { limit, ..session.config().enumeration };
    tr.span("mjoin.order", || compute_order(exec, rig, opts.order));
    let result = tr.span("mjoin.enum", || enumerate_sink(exec, rig, &opts, sink));
    tr.count("mjoin.steps", result.steps as f64);
    tr.count("mjoin.matches", result.count as f64);
    result
}

/// Counts the answer with the factorized DP, recording `mjoin.dp`.
pub fn dp_count(tr: &mut Tracer, exec: &PatternQuery, rig: &Rig) -> Option<u128> {
    if rig.is_empty() {
        return Some(0);
    }
    tr.span("mjoin.dp", || Factorization::new(exec, rig).count().total)
}

/// The DP total when the session's `count()` would answer by the DP (the
/// shape's conditioning guard passes), else `None`.
pub fn dp_accepts(exec: &PatternQuery, rig: &Rig) -> Option<u64> {
    if rig.is_empty() {
        return Some(0);
    }
    dp_count_result(exec, rig).map(|r| r.count)
}

/// Checks one occurrence tuple of `query` (original node numbering) edge
/// by edge against the snapshot and the reachability index.
pub fn tuple_matches(snapshot: &Snapshot, bfl: &BflIndex, query: &PatternQuery, t: &[u32]) -> bool {
    let labels_ok = query
        .labels()
        .iter()
        .enumerate()
        .all(|(i, &l)| snapshot.is_live(t[i]) && snapshot.label(t[i]) == l);
    let reach = SnapshotReach::new(snapshot, bfl);
    labels_ok
        && query.edges().iter().all(|e| {
            let (u, v) = (t[e.from as usize], t[e.to as usize]);
            match e.kind {
                EdgeKind::Direct => snapshot.has_edge(u, v),
                EdgeKind::Reachability => reach.reaches(u, v),
            }
        })
}
