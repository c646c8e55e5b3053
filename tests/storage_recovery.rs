//! Property-based recovery invariants for the durability layer (ISSUE 7):
//!
//! * **prefix durability** — for any random transaction stream and any
//!   fault-injected crash point, recovery yields exactly a prefix of the
//!   acknowledged commits, with no partial transaction visible (under
//!   `Durability::Strict` the prefix is the *whole* acked stream);
//! * **no panic, no silent loss** — torn appends, short writes, fsync
//!   failures and bit-flip WAL corruption each end in either a clean
//!   prefix recovery or a typed `Error::Storage`;
//! * **replay ∘ snapshot == in-memory rebuild** — a recovered session
//!   answers queries identically to a session that applied the same
//!   transactions in memory, across `SelectMode × EdgeKind`.
//!
//! All file IO runs through the fault-injecting [`MemBackend`], so every
//! crash point is deterministic and reproducible from the proptest seed.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;
use rigmatch::core::{
    CompactionPolicy, Durability, Error, ErrorKind, GmConfig, MemBackend, Session, StoreOptions,
};
use rigmatch::graph::{
    encode_segment, parse_text, to_text, CommitImpact, DataGraph, DeltaOverlay, LabelSpec,
    MutationOp, MutationStream, NodeId,
};
use rigmatch::query::{EdgeKind, PatternQuery};
use rigmatch::rig::SelectMode;

const STORE_DIR: &str = "/store";

/// Deterministic base graph: small enough that per-transaction reference
/// materialization stays cheap across a few hundred proptest cases.
fn base_graph(seed: u64) -> DataGraph {
    let g = rigmatch::datasets::erdos_renyi(20, 40, seed);
    rigmatch::datasets::zipf_labels(&g, 3, 1.0, seed)
}

/// Canonical bytes of a graph state: the checksummed segment encoding at a
/// fixed version, so two states are compared byte-for-byte.
fn graph_bytes(g: &DataGraph) -> Vec<u8> {
    encode_segment(g, 0)
}

/// One injected fault, armed relative to the backend's current counters so
/// store creation itself always succeeds.
#[derive(Debug, Clone, Copy)]
enum Fault {
    None,
    /// Fail the (current + delay)-th mutating op outright.
    FailOp {
        delay: u64,
    },
    /// Tear the (current + delay)-th append after `keep` bytes.
    ShortAppend {
        delay: u64,
        keep: usize,
    },
    /// Fail the (current + delay)-th fsync.
    FailSync {
        delay: u64,
    },
}

fn fault_strategy() -> impl Strategy<Value = Fault> {
    prop_oneof![
        Just(Fault::None),
        (1..40u64).prop_map(|delay| Fault::FailOp { delay }),
        (1..40u64, 0..24usize).prop_map(|(delay, keep)| Fault::ShortAppend { delay, keep }),
        (1..12u64).prop_map(|delay| Fault::FailSync { delay }),
    ]
}

fn durability_strategy() -> impl Strategy<Value = Durability> {
    prop_oneof![Just(Durability::Strict), Just(Durability::Batched), Just(Durability::None),]
}

fn arm(backend: &MemBackend, fault: Fault, wedge: bool) {
    if wedge {
        backend.wedge_after_fault();
    }
    match fault {
        Fault::None => {}
        Fault::FailOp { delay } => backend.fail_op_at(backend.ops() + delay),
        Fault::ShortAppend { delay, keep } => backend.short_append_at(backend.ops() + delay, keep),
        Fault::FailSync { delay } => backend.fail_sync_at(backend.syncs() + delay),
    }
}

/// Drives `txns` transactions into a fresh durable store on `backend`,
/// arming `fault` after creation. Returns the acked versions and the
/// reference segment bytes for every *generated* version (index `v - 1`),
/// acked or not. Stops at the first storage error (which must be typed).
struct Driven {
    acked: Vec<u64>,
    reference: Vec<Vec<u8>>,
}

#[allow(clippy::too_many_arguments)]
fn drive(
    backend: &Arc<MemBackend>,
    dir: &Path,
    seed: u64,
    txns: usize,
    fault: Fault,
    wedge: bool,
    durability: Durability,
    compact_at: Option<usize>,
) -> Result<Driven, TestCaseError> {
    let base = Arc::new(base_graph(seed));
    let opts = StoreOptions { durability, batch_commits: 2 };
    let session = Session::create_at_with(
        dir,
        Arc::clone(&base),
        GmConfig::default(),
        Arc::clone(backend) as Arc<dyn rigmatch::core::StorageBackend>,
        opts,
    )
    .expect("create on a clean backend succeeds");
    arm(backend, fault, wedge);

    let mut stream = MutationStream::new(base, seed);
    let mut acked = Vec::new();
    let mut reference = Vec::new();
    for i in 0..txns {
        let ops = stream.next_txn(4);
        // the stream's mirror already reflects `ops`: this is the state
        // any recovery to version i+1 must reproduce byte-for-byte
        reference.push(graph_bytes(&stream.mirror().materialize()));
        match session.apply(&ops) {
            Ok(summary) => {
                prop_assert_eq!(summary.version, (i + 1) as u64);
                acked.push(summary.version);
            }
            Err(e) => {
                // a failed commit must be a typed storage error, and the
                // run stops here so versions stay contiguous
                prop_assert_eq!(e.kind(), ErrorKind::Storage, "unexpected error: {e}");
                return Ok(Driven { acked, reference });
            }
        }
        if compact_at == Some(i) {
            // may fail against the armed fault; that must never corrupt
            // acknowledged state (checked by the caller's recovery pass)
            let _ = session.compact();
        }
    }
    if let Err(e) = session.flush_wal() {
        prop_assert_eq!(e.kind(), ErrorKind::Storage, "unexpected error: {e}");
    }
    Ok(Driven { acked, reference })
}

/// Recovered state must be a whole-transaction prefix: version `v` implies
/// bytes identical to the reference graph after exactly `v` transactions.
fn assert_prefix(session: &Session, seed: u64, driven: &Driven) -> Result<(), TestCaseError> {
    let report = session.recovery_report().expect("opened session has a report").clone();
    let v = report.recovered_version;
    let expected = if v == 0 {
        graph_bytes(&base_graph(seed))
    } else {
        prop_assert!(
            (v as usize) <= driven.reference.len(),
            "recovered version {} beyond the {} generated transactions",
            v,
            driven.reference.len()
        );
        driven.reference[v as usize - 1].clone()
    };
    let actual = graph_bytes(&session.graph().materialize());
    prop_assert_eq!(
        actual,
        expected,
        "recovered graph at version {} is not the transaction-stream prefix",
        v
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any fault plan × any crash point: after power loss, recovery yields
    /// a clean prefix — all acked commits under `Strict`, at most the
    /// acked commits under `Batched`/`None` — and never panics.
    #[test]
    fn recovery_is_a_prefix_of_acked_commits(
        seed in 0..u64::MAX,
        txns in 1..12usize,
        fault in fault_strategy(),
        wedge in prop::bool::ANY,
        durability in durability_strategy(),
        compact in prop::bool::ANY,
    ) {
        let backend = Arc::new(MemBackend::new());
        let dir = PathBuf::from(STORE_DIR);
        let compact_at = compact.then_some(txns / 2);
        let driven =
            drive(&backend, &dir, seed, txns, fault, wedge, durability, compact_at)?;

        backend.simulate_crash();
        let session = Session::open_with(
            &dir,
            GmConfig::default(),
            Arc::clone(&backend) as Arc<dyn rigmatch::core::StorageBackend>,
            StoreOptions::default(),
        )
        .expect("recovery after power loss succeeds");

        let v = session.recovery_report().unwrap().recovered_version;
        let last_acked = driven.acked.last().copied().unwrap_or(0);
        match durability {
            // an acknowledged commit survives power loss, and nothing
            // unacknowledged can have become durable
            Durability::Strict => prop_assert_eq!(
                v, last_acked,
                "strict: every acked commit is durable, no more, no less"
            ),
            // bounded loss window: never more than what was acked
            Durability::Batched | Durability::None => prop_assert!(
                v <= last_acked,
                "recovered version {} exceeds last acked {}", v, last_acked
            ),
        }
        assert_prefix(&session, seed, &driven)?;
    }

    /// Bit-flip corruption anywhere in the WAL: recovery either stops at
    /// the last valid record (a clean prefix) or reports a typed storage
    /// error — never a panic, never a mangled graph.
    #[test]
    fn wal_bit_flip_recovers_prefix_or_typed_error(
        seed in 0..u64::MAX,
        txns in 1..10usize,
        offset_sel in 0..u64::MAX,
        mask in 1..=255u8,
    ) {
        let backend = Arc::new(MemBackend::new());
        let dir = PathBuf::from(STORE_DIR);
        let driven = drive(
            &backend, &dir, seed, txns, Fault::None, false,
            Durability::Strict, None,
        )?;
        prop_assert_eq!(driven.acked.len(), txns);

        let wal = dir.join("wal.log");
        let len = backend.file(&wal).expect("wal exists").len();
        prop_assert!(len > 0, "strict commits leave a non-empty wal");
        backend.corrupt(&wal, (offset_sel % len as u64) as usize, mask);

        match Session::open_with(
            &dir,
            GmConfig::default(),
            Arc::clone(&backend) as Arc<dyn rigmatch::core::StorageBackend>,
            StoreOptions::default(),
        ) {
            Ok(session) => {
                let v = session.recovery_report().unwrap().recovered_version;
                prop_assert!(
                    v < txns as u64,
                    "a flipped WAL byte must invalidate at least one record"
                );
                assert_prefix(&session, seed, &driven)?;
            }
            Err(e) => {
                prop_assert_eq!(e.kind(), ErrorKind::Storage, "unexpected error: {e}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// WAL-replay ∘ snapshot equals the in-memory rebuild: a recovered
    /// session answers every `SelectMode × EdgeKind` probe with the same
    /// count as a session that applied the identical transactions without
    /// ever touching disk.
    #[test]
    fn recovered_matches_in_memory_rebuild_across_modes(
        seed in 0..u64::MAX,
        txns in 1..8usize,
        compact in prop::bool::ANY,
    ) {
        let backend = Arc::new(MemBackend::new());
        let dir = PathBuf::from(STORE_DIR);
        let base = Arc::new(base_graph(seed));

        let mut stream = MutationStream::new(Arc::clone(&base), seed);
        let recorded: Vec<Vec<MutationOp>> =
            (0..txns).map(|_| stream.next_txn(4)).collect();

        {
            let session = Session::create_at_with(
                &dir,
                Arc::clone(&base),
                GmConfig::default(),
                Arc::clone(&backend) as Arc<dyn rigmatch::core::StorageBackend>,
                StoreOptions::default(),
            )
            .expect("create");
            for (i, ops) in recorded.iter().enumerate() {
                session.apply(ops).expect("clean commit");
                if compact && i == txns / 2 {
                    session.compact();
                }
            }
            session.flush_wal().expect("flush");
        }

        // the in-memory reference: same base, same transactions, no disk
        let reference = Session::new(Arc::clone(&base));
        for ops in &recorded {
            reference.apply(ops).expect("clean commit");
        }

        let kinds = [EdgeKind::Direct, EdgeKind::Reachability];
        let probe = |session: &Session, kind: EdgeKind| -> u64 {
            let mut q = PatternQuery::new(vec![0, 1]);
            q.add_edge(0, 1, kind);
            session.prepare(&q).expect("valid probe").run().count().result.count
        };
        let expected: Vec<u64> = kinds.iter().map(|&k| probe(&reference, k)).collect();

        for select in [
            SelectMode::PrefilterThenSim,
            SelectMode::SimOnly,
            SelectMode::PrefilterOnly,
            SelectMode::MatchSets,
        ] {
            let mut config = GmConfig::default();
            config.rig.select = select;
            let recovered = Session::open_with(
                &dir,
                config,
                Arc::clone(&backend) as Arc<dyn rigmatch::core::StorageBackend>,
                StoreOptions::default(),
            )
            .expect("recovery of a cleanly flushed store succeeds");
            prop_assert_eq!(
                recovered.recovery_report().unwrap().recovered_version,
                txns as u64
            );
            for (i, &kind) in kinds.iter().enumerate() {
                prop_assert_eq!(
                    probe(&recovered, kind),
                    expected[i],
                    "select {:?}, kind {:?}", select, kind
                );
            }
        }
    }
}

/// A session recovered from a crash must also *resume* correctly: new
/// commits continue the version sequence and survive the next crash.
#[test]
fn recovered_session_resumes_committing() {
    let backend = Arc::new(MemBackend::new());
    let dir = PathBuf::from(STORE_DIR);
    let seed = 42;
    let base = Arc::new(base_graph(seed));
    let mut stream = MutationStream::new(Arc::clone(&base), seed);

    let session = Session::create_at_with(
        &dir,
        Arc::clone(&base),
        GmConfig::default(),
        Arc::clone(&backend) as Arc<dyn rigmatch::core::StorageBackend>,
        StoreOptions::default(),
    )
    .expect("create");
    for _ in 0..3 {
        session.apply(&stream.next_txn(4)).expect("commit");
    }
    drop(session);
    backend.simulate_crash();

    let session = Session::open_with(
        &dir,
        GmConfig::default(),
        Arc::clone(&backend) as Arc<dyn rigmatch::core::StorageBackend>,
        StoreOptions::default(),
    )
    .expect("recover");
    assert_eq!(session.recovery_report().unwrap().recovered_version, 3);
    let summary = session.apply(&stream.next_txn(4)).expect("resumed commit");
    assert_eq!(summary.version, 4, "versions continue where recovery left off");
    drop(session);
    backend.simulate_crash();

    let session = Session::open_with(
        &dir,
        GmConfig::default(),
        Arc::clone(&backend) as Arc<dyn rigmatch::core::StorageBackend>,
        StoreOptions::default(),
    )
    .expect("second recovery");
    assert_eq!(session.recovery_report().unwrap().recovered_version, 4);
    assert_eq!(
        graph_bytes(&session.graph().materialize()),
        graph_bytes(&stream.mirror().materialize()),
        "post-recovery commits are as durable as pre-crash ones"
    );
}

/// A checkpoint of a node-only compaction, whose base keeps its parent's
/// CSR and reads the rows of the added nodes as empty, reopens from its
/// segment alone equal to the builder's graph of the same state.
#[test]
fn a_checkpointed_node_only_compaction_reopens_equal_to_the_oracle() {
    let backend = Arc::new(MemBackend::new());
    let dir = PathBuf::from(STORE_DIR);
    let base = Arc::new(base_graph(7));
    let open = || {
        Session::open_with(
            &dir,
            GmConfig::default(),
            Arc::clone(&backend) as Arc<dyn rigmatch::core::StorageBackend>,
            StoreOptions::default(),
        )
        .expect("recover")
    };
    let session = Session::create_at_with(
        &dir,
        Arc::clone(&base),
        GmConfig::default(),
        Arc::clone(&backend) as Arc<dyn rigmatch::core::StorageBackend>,
        StoreOptions::default(),
    )
    .expect("create")
    .with_compaction(CompactionPolicy { min_ops: 1, ratio: 0.0 });
    let (u, v) = (0..20)
        .flat_map(|u| (0..20).map(move |v| (u, v)))
        .find(|&(u, v)| !base.has_edge(u, v))
        .expect("a missing edge");
    let commits = [
        vec![MutationOp::AddEdge(u, v)],
        vec![
            MutationOp::AddNode(LabelSpec::Id(1)),
            MutationOp::AddNode(LabelSpec::Named("Fresh".into())),
            MutationOp::AddNode(LabelSpec::Id(0)),
        ],
        vec![MutationOp::RemoveNode(20), MutationOp::AddNode(LabelSpec::Named("Fresh".into()))],
    ];
    let mut mirror = DeltaOverlay::new(Arc::clone(&base));
    for ops in &commits {
        assert!(session.apply(ops).expect("commit").compacted, "every commit compacts");
        for op in ops {
            mirror.apply(op, &mut CommitImpact::default()).expect("valid op");
        }
    }
    let oracle = parse_text(&to_text(&mirror.materialize())).expect("oracle text parses");
    assert_eq!(graph_bytes(session.graph().graph()), graph_bytes(&oracle), "before reopening");
    drop(session);
    backend.simulate_crash();

    let session = open();
    let report = session.recovery_report().expect("a durable session reports");
    assert_eq!((report.snapshot_version, report.wal_records_replayed), (3, 0));
    let g = session.graph().graph().clone();
    assert_eq!(graph_bytes(&g), graph_bytes(&oracle), "after reopening");
    for w in 0..oracle.num_nodes() as NodeId {
        assert_eq!(g.out_neighbors(w), oracle.out_neighbors(w), "adjf({w})");
        assert_eq!(g.in_neighbors(w), oracle.in_neighbors(w), "adjb({w})");
        assert_eq!(g.is_live(w), oracle.is_live(w), "live({w})");
    }
    for l in 0..oracle.num_labels() as u32 {
        assert_eq!(g.nodes_with_label(l), oracle.nodes_with_label(l), "I_{l}");
        assert_eq!(g.label_bitset(l), oracle.label_bitset(l), "I_{l} bits");
    }
    assert_eq!(g.label_id("Fresh"), oracle.label_id("Fresh"));
}

/// Read-time rebases are in-memory only: a reachability read on a dirty
/// durable session folds the overlay into a fresh base without appending
/// to, shrinking or syncing the WAL and without writing a segment. Only
/// the explicit compaction (a checkpoint of the already-rebased base)
/// touches storage, and recovery afterwards equals the in-memory rebuild.
#[test]
fn reachability_reads_rebase_without_touching_storage() {
    use rigmatch::core::StorageBackend;
    let backend = Arc::new(MemBackend::new());
    let dir = PathBuf::from(STORE_DIR);
    let wal = dir.join("wal.log");
    let seed = 11;
    let base = Arc::new(base_graph(seed));
    let mut stream = MutationStream::new(Arc::clone(&base), seed);
    let open_opts = || {
        (
            GmConfig::default(),
            Arc::clone(&backend) as Arc<dyn StorageBackend>,
            StoreOptions::default(),
        )
    };
    let (config, store_backend, opts) = open_opts();
    let session = Session::create_at_with(&dir, Arc::clone(&base), config, store_backend, opts)
        .expect("create");
    let reference = Session::new(Arc::clone(&base));
    let probe = |session: &Session, kind: EdgeKind| -> u64 {
        let mut q = PatternQuery::new(vec![0, 1]);
        q.add_edge(0, 1, kind);
        // no_cache: a cached plan would be served without a rebase
        session.prepare(&q).expect("valid probe").run().no_cache().count().result.count
    };
    let storage =
        || (backend.ops(), backend.syncs(), backend.file(&wal), backend.list(&dir).unwrap());

    let mut rebased = 0;
    for step in 0..8 {
        let ops = stream.next_txn(4);
        session.apply(&ops).expect("clean commit");
        reference.apply(&ops).expect("clean commit");
        let dirty = session.graph().is_dirty();
        let before = storage();
        assert_eq!(
            probe(&session, EdgeKind::Reachability),
            probe(&reference, EdgeKind::Reachability)
        );
        assert_eq!(storage(), before, "step {step}: a read touched storage");
        assert!(!session.graph().is_dirty(), "step {step}: the reachability read rebased");
        rebased += u64::from(dirty);
        assert_eq!(session.store_stats().rebases, rebased);
        assert_eq!(probe(&session, EdgeKind::Direct), probe(&reference, EdgeKind::Direct));

        if step == 4 {
            // the snapshot is clean but the WAL holds 5 commits: compaction
            // checkpoints the rebased base without materializing it again
            let wal_before = backend.file(&wal).unwrap().len();
            assert!(wal_before > 0);
            assert!(session.compact(), "uncheckpointed commits make a durable store compactable");
            assert_eq!(session.store_stats().rebases, rebased, "no second rebase");
            assert_eq!(session.store_stats().compactions, 1);
            assert_eq!(backend.file(&wal).unwrap().len(), 0, "the checkpoint truncated the WAL");
            assert!(!session.compact(), "nothing left to checkpoint");
        }
    }
    assert!(rebased >= 4, "the stream must have dirtied most steps ({rebased})");
    session.flush_wal().expect("flush");
    drop(session);

    let (config, store_backend, opts) = open_opts();
    let recovered = Session::open_with(&dir, config, store_backend, opts).expect("recover");
    assert_eq!(recovered.recovery_report().unwrap().recovered_version, 8);
    assert_eq!(
        graph_bytes(&recovered.graph().materialize()),
        graph_bytes(&reference.graph().materialize())
    );
    for kind in [EdgeKind::Direct, EdgeKind::Reachability] {
        assert_eq!(probe(&recovered, kind), probe(&reference, kind), "{kind:?}");
    }
}

/// The storage layer surfaces unrecoverable states as [`Error::Storage`],
/// wired to exit code 7 — the contract the CLI's `recover` subcommand and
/// the bench harness rely on.
#[test]
fn storage_errors_are_typed_and_mapped() {
    let backend = Arc::new(MemBackend::new());
    let err = Session::open_with(
        "/nowhere",
        GmConfig::default(),
        backend as Arc<dyn rigmatch::core::StorageBackend>,
        StoreOptions::default(),
    )
    .expect_err("empty dir holds no store");
    assert_eq!(err.kind(), ErrorKind::Storage);
    assert_eq!(err.kind().exit_code(), 7);
    assert!(matches!(err, Error::Storage(_)));
}
