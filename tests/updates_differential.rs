//! Update-vs-rebuild differential suite: random interleavings of node and
//! edge inserts, deletes and compactions, committed through the session,
//! must leave answers identical to the oracle over the materialized
//! snapshot (a from-scratch rebuild), across every `SelectMode` and both
//! `EdgeKind`s. After each commit
//! the first query is checked over the dirty snapshot (a RIG built
//! outside the session with `SnapshotReach`), and every session read
//! rebases onto a fresh base first. `overlay_oracle_matches_rebuild`
//! drives the dirty build directly, with no read in between commits.
//!
//! Mutations are generated against the live snapshot by the testkit's
//! `random_txn`, from a proptest-supplied seed, so every failure replays
//! deterministically.

mod testkit;

use proptest::prelude::*;
use rigmatch::core::{CompactionPolicy, Session};
use rigmatch::graph::{GraphBuilder, NodeId};
use rigmatch::query::PatternQuery;
use rigmatch::rig::{RigOptions, SelectMode};
use testkit::{check, query, random_graph, random_txn, session_rig, Dims, Store, D, R};

const LABELS: u32 = 3;

/// The query workload: 2-chains and 3-chains in direct and reachability
/// flavours, and a direct edge into a reachability edge with a closing
/// reachability chord.
fn workload() -> Vec<PatternQuery> {
    let mut out = Vec::new();
    for kind in [D, R] {
        out.push(query(&[0, 1], &[(0, 1)], &[kind]));
        out.push(query(&[0, 1, 2], &[(0, 1), (1, 2)], &[kind; 2]));
    }
    out.push(query(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)], &[D, R, R]));
    out
}

/// Sorted match set of `q` on `session`.
fn matches(session: &Session, q: &PatternQuery) -> Vec<Vec<NodeId>> {
    let p = session.prepare(q).expect("workload validates");
    let (mut tuples, outcome) = p.run().collect_all();
    assert!(!outcome.result.timed_out && !outcome.result.limit_hit);
    tuples.sort();
    tuples
}

/// Drives `commits` random transactions through a session, compacting
/// after every third, and after every commit checks each workload query
/// through the matrix's check.
fn drive_and_check(select: SelectMode, seed: u64, commits: usize, ops_per_commit: usize) {
    let dims = Dims { select, ..Dims::clean() };
    let mut gen_state = seed ^ 0xD1FF;
    let session = Session::with_config(random_graph(24, 60, LABELS, seed), dims.config())
        .with_compaction(CompactionPolicy::disabled());
    for step in 0..commits {
        let txn = random_txn(&session, &mut gen_state, ops_per_commit, LABELS);
        let summary = session.commit(txn).expect("scratch-validated ops commit cleanly");
        // occasionally fold the delta into a fresh base mid-stream
        let store = if step % 3 == 2 {
            session.compact();
            assert_eq!(session.graph().delta().ops(), 0);
            Store::Compacted
        } else {
            Store::Dirty
        };
        for (qi, q) in workload().iter().enumerate() {
            let what = format!("seed {seed} step {step} (v{}) query {qi}", summary.version);
            check(&session, q, &Dims { store, ..dims }, &what);
        }
    }
}

/// A dirty-snapshot build against the oracle, with no session read in
/// between commits, so every checked snapshot any commit touched stays
/// dirty: each RIG is built outside the session, the way a harness
/// replays a read layer by layer, over the dirty snapshot with
/// `SnapshotReach` (which sweeps the snapshot's own condensation).
fn check_overlay_oracle(seed: u64, commits: usize, ops_per_commit: usize) {
    let mut gen_state = seed ^ 0x0A4C;
    let session = Session::new(random_graph(24, 60, LABELS, seed))
        .with_compaction(CompactionPolicy::disabled());
    let mut dirty_checks = 0;
    for step in 0..commits {
        let txn = random_txn(&session, &mut gen_state, ops_per_commit, LABELS);
        session.commit(txn).expect("scratch-validated ops commit cleanly");
        if !session.graph().is_dirty() {
            continue;
        }
        dirty_checks += 1;
        let materialized = session.graph().materialize();
        for select in testkit::SELECT_MODES {
            let opts = RigOptions { select, ..RigOptions::exact() };
            for (qi, q) in workload().iter().enumerate() {
                let rig = session_rig(&session, q, &opts);
                let (got, _) = testkit::sequential(q, &rig, &Default::default());
                assert_eq!(
                    got,
                    testkit::oracle(&materialized, q, false),
                    "select={select:?} seed={seed} step={step} query={qi}"
                );
            }
        }
    }
    assert!(session.graph().is_dirty() && session.store_stats().rebases == 0);
    assert!(dirty_checks > 0, "seed {seed}: no commit dirtied the snapshot");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// RIGs built on a dirty snapshot (given `SnapshotReach`) equal the
    /// oracle over the materialized snapshot, for every `SelectMode` and
    /// both `EdgeKind`s.
    #[test]
    fn overlay_oracle_matches_rebuild(seed in 0u64..1_000_000) {
        check_overlay_oracle(seed, 4, 6);
    }

    /// Refined (prefilter + simulation) RIGs after arbitrary committed
    /// mutation sequences.
    #[test]
    fn refined_select_matches_rebuild(seed in 0u64..1_000_000) {
        drive_and_check(SelectMode::PrefilterThenSim, seed, 3, 6);
    }

    /// Same property for the simulation-only ablation.
    #[test]
    fn sim_only_matches_rebuild(seed in 0u64..1_000_000) {
        drive_and_check(SelectMode::SimOnly, seed, 3, 6);
    }

    /// Same property for the prefilter-only ablation.
    #[test]
    fn prefilter_only_matches_rebuild(seed in 0u64..1_000_000) {
        drive_and_check(SelectMode::PrefilterOnly, seed, 3, 6);
    }

    /// Same property for raw match-set RIGs (the largest valid RIG).
    #[test]
    fn match_sets_matches_rebuild(seed in 0u64..1_000_000) {
        drive_and_check(SelectMode::MatchSets, seed, 2, 6);
    }
}

/// Deterministic end-to-end scenario: interleaved inserts/deletes with an
/// automatic compaction in the middle, checked against rebuilds at every
/// commit — the documented example of `docs/updates.md`.
#[test]
fn scripted_interleaving_with_auto_compaction() {
    let base = random_graph(20, 45, LABELS, 7);
    let session = Session::new(base).with_compaction(CompactionPolicy { min_ops: 8, ratio: 0.0 });
    let queries = workload();
    let script =
        ["a v 0\na e 20 0\na e 1 20\n", "d e 1 20\nd v 0\n", "a v 2\na e 20 21\ncommit\nd v 20\n"];
    for text in script {
        for ops in rigmatch::graph::parse_mutations(text).unwrap() {
            session.apply(&ops).unwrap();
            let rebuilt = Session::new(session.graph().materialize());
            for q in &queries {
                assert_eq!(matches(&session, q), matches(&rebuilt, q));
            }
        }
    }
    assert!(session.store_stats().compactions >= 1, "threshold must have tripped");
}

/// The acceptance-criteria cache test at the integration level: a commit
/// touching label X invalidates plans reading X and leaves plans over
/// disjoint labels cached, witnessed by `CacheStats` hit counters.
#[test]
fn commit_invalidation_is_label_aware() {
    let mut b = GraphBuilder::new();
    let a0 = b.add_named_node("A");
    let b0 = b.add_named_node("B");
    let x0 = b.add_named_node("X");
    let y0 = b.add_named_node("Y");
    b.add_edge(a0, b0);
    b.add_edge(x0, y0);
    let session = Session::new(b.build());

    let ab = session.prepare("MATCH (a:A)->(b:B)").unwrap();
    let xy = session.prepare("MATCH (x:X)->(y:Y)").unwrap();
    ab.run().count();
    xy.run().count();
    let baseline = session.cache_stats();
    assert_eq!(baseline.entries, 2);

    // commit touching X and Y only
    let mut txn = session.begin();
    let x1 = txn.add_named_node("X");
    txn.add_edge(x1, y0);
    let summary = session.commit(txn).unwrap();
    assert_eq!(summary.plans_invalidated, 1, "only the X,Y plan reads touched labels");
    assert_eq!(summary.plans_retained, 1);

    let o = ab.run().count();
    assert!(o.metrics.rig_from_cache, "A,B plan must still be cached");
    assert_eq!(session.cache_stats().hits, baseline.hits + 1);
    let o = xy.run().count();
    assert!(!o.metrics.rig_from_cache, "X,Y plan must have been invalidated");
    assert_eq!(o.result.count, 2, "and its rebuild sees the new edge");
    assert_eq!(session.cache_stats().invalidated, 1);
}
