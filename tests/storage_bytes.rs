//! Segment and WAL bytes, fuzzed: arbitrary bytes and mutated encoder
//! output go through `decode_segment`, `decode_wal_record` and
//! `DurableStore::open` over a `MemBackend`. A mutated record gets its
//! length and CRC-32 recomputed, so the damage reaches the decoder behind
//! the checksum instead of stopping at it.
//!
//! Every input ends in a typed error or in a value: a graph that encodes
//! back to a segment decoding to itself, a record that encodes back to
//! its own bytes, or an opened store whose replayed records are the WAL's
//! valid prefix. A panic fails the test. A counting global allocator (own
//! test binary) shows that decoding allocates O(input bytes), so a count
//! field that claims 2^32 entries never sizes an allocation.

mod testkit;

use std::path::Path;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rigmatch::core::{ErrorKind, GmConfig, Session};
use rigmatch::graph::{
    crc32, decode_segment, encode_segment, CommitImpact, DataGraph, DeltaOverlay, GraphBuilder,
    LabelSpec, MutationOp, NodeId, SEGMENT_MAGIC,
};
use rigmatch::storage::{
    decode_wal_record, encode_wal_record, segment_file_name, DurableStore, MemBackend,
    StorageBackend, StoreOptions, WalError,
};
use testkit::{bytes_during, Regime, REGIMES};

#[global_allocator]
static GLOBAL: testkit::CountingAlloc = testkit::CountingAlloc;

/// The allocation bound of one decode: a fixed allowance plus a constant
/// per input byte. A decoded node costs its label, two CSR offsets, an
/// inverted-list entry and a bitmap bit; a decoded label name costs a
/// `String`, an empty inverted list and a dictionary entry, about 28
/// bytes per byte of its 4-byte length field, the most of any shape.
fn alloc_bound(input: usize) -> u64 {
    64 * 1024 + 64 * input as u64
}

/// Values a mutation writes over four bytes: the edges of the `u32`
/// range, where counts, lengths and ids overrun.
const WORDS: [u32; 8] = [0, 1, 2, 3, 0xFF, 0x8000_0000, u32::MAX - 1, u32::MAX];

/// Applies `edits` random edits to `bytes`: a flipped bit, a deleted or
/// inserted run of up to 8 bytes, or a word from [`WORDS`] written over
/// the bytes at a random offset.
fn mutate(bytes: &mut Vec<u8>, edits: usize, rng: &mut StdRng) {
    for _ in 0..edits {
        let at = rng.gen_range(0..=bytes.len());
        match rng.gen_range(0..4u32) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.gen_range(0..8u32),
            1 if at < bytes.len() => {
                let end = (at + rng.gen_range(1..9usize)).min(bytes.len());
                bytes.drain(at..end);
            }
            2 => {
                let run: Vec<u8> = (0..rng.gen_range(1..9usize)).map(|_| rng.gen()).collect();
                bytes.splice(at..at, run);
            }
            _ => {
                let word = WORDS[rng.gen_range(0..WORDS.len())].to_le_bytes();
                let end = (at + 4).min(bytes.len());
                bytes.splice(at..end, word);
            }
        }
    }
}

/// A segment file around `payload`: magic, CRC-32 and length made to fit.
fn seal_segment(payload: &[u8]) -> Vec<u8> {
    let mut out = SEGMENT_MAGIC.to_vec();
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// A WAL record around `payload`: length and CRC-32 made to fit.
fn seal_record(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// A testkit graph of `regime` with a named label, an isolated node and
/// two tombstones, so every section of its segment is non-empty.
fn sample_graph(regime: Regime, seed: u64) -> DataGraph {
    let g = testkit::graph(regime, seed, 9, 3);
    let n = g.num_nodes() as NodeId;
    let mut d = DeltaOverlay::new(Arc::new(g));
    let mut impact = CommitImpact::default();
    for op in [
        MutationOp::AddNode(LabelSpec::Named("Extra".into())),
        MutationOp::AddNode(LabelSpec::Id(0)),
        MutationOp::AddNode(LabelSpec::Id(1)),
        MutationOp::AddEdge(n, 0),
        MutationOp::RemoveNode(1),
        MutationOp::RemoveNode(n + 1),
    ] {
        d.apply(&op, &mut impact).expect("every op is valid on a graph of 3+ nodes");
    }
    d.materialize()
}

/// A transaction of 1–5 ops of every kind, ids and labels from a small
/// range and the edges of the `u32` range.
fn random_ops(rng: &mut StdRng) -> Vec<MutationOp> {
    let id = |rng: &mut StdRng| [0, 1, 5, 11, u32::MAX][rng.gen_range(0..5usize)];
    (0..rng.gen_range(1..6usize))
        .map(|_| match rng.gen_range(0..5u32) {
            0 => MutationOp::AddNode(LabelSpec::Id(id(rng))),
            1 => {
                let name = ["Paper", "é", ""][rng.gen_range(0..3usize)];
                MutationOp::AddNode(LabelSpec::Named(name.to_string()))
            }
            2 => MutationOp::RemoveNode(id(rng)),
            3 => MutationOp::AddEdge(id(rng), id(rng)),
            _ => MutationOp::RemoveEdge(id(rng), id(rng)),
        })
        .collect()
}

/// Decoding `bytes` as a segment ends in a typed error or in a graph
/// whose own segment decodes back to it, and allocates within
/// [`alloc_bound`].
fn segment_decodes_cleanly(bytes: &[u8]) -> Result<(), TestCaseError> {
    let (decoded, used) = bytes_during(|| decode_segment(bytes));
    prop_assert!(used <= alloc_bound(bytes.len()), "{} bytes in, {} allocated", bytes.len(), used);
    if let Ok((g, version)) = decoded {
        let again = encode_segment(&g, version);
        let (back, back_version) = decode_segment(&again).expect("encoder output decodes");
        prop_assert_eq!(back_version, version);
        prop_assert_eq!(encode_segment(&back, version), again);
    }
    Ok(())
}

/// Decoding `payload` as a WAL record ends in an error or in a record
/// that encodes back to exactly `payload`, and allocates within
/// [`alloc_bound`].
fn record_decodes_cleanly(payload: &[u8]) -> Result<(), TestCaseError> {
    let (decoded, used) = bytes_during(|| decode_wal_record(payload));
    prop_assert!(used <= alloc_bound(payload.len()), "{} in, {} allocated", payload.len(), used);
    match decoded {
        Ok(r) => prop_assert_eq!(&encode_wal_record(r.version, &r.ops)[8..], payload),
        Err(WalError { message }) => prop_assert!(!message.is_empty()),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_the_segment_and_wal_decoders(
        bytes in prop::collection::vec(prop::num::u8::ANY, 0..200),
    ) {
        segment_decodes_cleanly(&bytes)?;
        // behind a valid header, the same bytes reach the payload decoder
        segment_decodes_cleanly(&seal_segment(&bytes))?;
        record_decodes_cleanly(&bytes)?;
    }

    #[test]
    fn mutated_segments_decode_or_fail_typed(seed in 0u64..1 << 32, edits in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let regime = REGIMES[rng.gen_range(0..REGIMES.len())];
        let segment = encode_segment(&sample_graph(regime, seed), rng.gen_range(0..4u64));
        let mut payload = segment[20..].to_vec();
        mutate(&mut payload, edits, &mut rng);
        segment_decodes_cleanly(&seal_segment(&payload))?;
    }

    #[test]
    fn mutated_wal_records_decode_or_fail(seed in 0u64..1 << 32, edits in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let record = encode_wal_record(rng.gen(), &random_ops(&mut rng));
        let mut payload = record[8..].to_vec();
        mutate(&mut payload, edits, &mut rng);
        record_decodes_cleanly(&payload)?;
    }

    /// A store whose segment and WAL records hold mutated bytes opens
    /// with the WAL's valid prefix replayed, or fails with a
    /// `StorageError`.
    #[test]
    fn mutated_stores_open_or_fail_typed(seed in 0u64..1 << 32, edits in 0usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let backend = Arc::new(MemBackend::new());
        let dir = Path::new("store");
        let g = sample_graph(REGIMES[rng.gen_range(0..REGIMES.len())], seed);
        let mut store =
            DurableStore::create(backend.clone(), dir, &g, 0, StoreOptions::default()).unwrap();
        let commits = rng.gen_range(1..5u64);
        for version in 1..=commits {
            store.log_commit(version, &random_ops(&mut rng)).unwrap();
        }
        drop(store);

        // mutate the segment's payload or leave it whole, then each
        // record's payload; the WAL may also lose a tail
        let seg_path = dir.join(segment_file_name(0));
        let segment = backend.file(&seg_path).unwrap();
        if rng.gen_bool(0.5) {
            let mut payload = segment[20..].to_vec();
            mutate(&mut payload, edits, &mut rng);
            backend.write(&seg_path, &seal_segment(&payload)).unwrap();
        }
        let wal_path = dir.join("wal.log");
        let mut wal = Vec::new();
        for version in 1..=commits {
            let mut payload = encode_wal_record(version, &random_ops(&mut rng))[8..].to_vec();
            if rng.gen_bool(0.5) {
                mutate(&mut payload, edits, &mut rng);
            }
            wal.extend(seal_record(&payload));
        }
        if rng.gen_bool(0.3) {
            wal.truncate(rng.gen_range(0..=wal.len()));
        }
        backend.write(&wal_path, &wal).unwrap();

        let (opened, used) =
            bytes_during(|| DurableStore::open(backend.clone(), dir, StoreOptions::default()));
        let input = backend.file(&seg_path).unwrap().len() + wal.len();
        prop_assert!(used <= alloc_bound(input), "{} bytes in, {} allocated", input, used);
        let Ok((store, recovered)) = opened else { return Ok(()) };
        // the replayed records are the WAL's valid prefix, re-encoded
        let valid = store.wal_len() as usize;
        prop_assert_eq!(backend.file(&wal_path).unwrap(), wal[..valid].to_vec());
        let report = &recovered.report;
        prop_assert_eq!(report.wal_records_replayed, recovered.txns.len() as u64);
        let replayed_to = recovered.base_version + report.wal_records_replayed;
        prop_assert_eq!(report.recovered_version, replayed_to);
        if report.wal_records_skipped == 0 {
            let replayed: Vec<u8> =
                recovered.txns.iter().flat_map(|r| encode_wal_record(r.version, &r.ops)).collect();
            prop_assert_eq!(replayed, wal[..valid].to_vec());
        }
    }
}

/// A segment payload of `nodes` edge-free nodes over `labels` labels with
/// empty names: node `v` has label `v % labels`.
fn wide_payload(nodes: u32, labels: u32) -> Vec<u8> {
    let mut p = 0u64.to_le_bytes().to_vec();
    for word in [nodes, labels].into_iter().chain((0..nodes).map(|v| v % labels)) {
        p.extend_from_slice(&word.to_le_bytes());
    }
    // empty names, no tombstones, zero degrees
    p.resize(p.len() + 4 * (labels as usize + 1 + nodes as usize), 0);
    p
}

/// The shapes that allocate the most per input byte stay within
/// [`alloc_bound`] at two sizes a hundred times apart: a segment of
/// empty label names, a segment of nodes and a WAL record of `AddNode`
/// ops. A count that claims more entries than the bytes left fails
/// before it sizes an allocation.
#[test]
fn wide_inputs_allocate_linearly() {
    for k in [1_000u32, 100_000] {
        for (nodes, labels) in [(0, k), (k, 1)] {
            let bytes = seal_segment(&wide_payload(nodes, labels));
            let (decoded, used) = bytes_during(|| decode_segment(&bytes));
            assert!(decoded.is_ok(), "{nodes} nodes, {labels} labels: {decoded:?}");
            assert!(used <= alloc_bound(bytes.len()), "{} in, {used} allocated", bytes.len());
        }
        let ops = vec![MutationOp::AddNode(LabelSpec::Named(String::new())); k as usize];
        let payload = encode_wal_record(1, &ops)[8..].to_vec();
        let (decoded, used) = bytes_during(|| decode_wal_record(&payload));
        assert_eq!(decoded.map(|r| r.ops.len()), Ok(k as usize));
        assert!(used <= alloc_bound(payload.len()), "{} in, {used} allocated", payload.len());
    }
    for claim in [u32::MAX, 1 << 20] {
        for at in [8, 12] {
            let mut payload = wide_payload(4, 2);
            payload[at..at + 4].copy_from_slice(&claim.to_le_bytes());
            let bytes = seal_segment(&payload);
            let (decoded, used) = bytes_during(|| decode_segment(&bytes));
            assert!(decoded.is_err(), "count {claim} at {at}");
            assert!(used <= alloc_bound(bytes.len()), "count {claim} at {at}: {used} allocated");
        }
        let mut payload = 1u64.to_le_bytes().to_vec();
        payload.extend_from_slice(&claim.to_le_bytes());
        let (decoded, used) = bytes_during(|| decode_wal_record(&payload));
        assert!(decoded.is_err(), "op count {claim}");
        assert!(used <= alloc_bound(payload.len()), "op count {claim}: {used} allocated");
    }
}

/// A store whose segment captures the last `u64` version opens and skips
/// every WAL record, since none can follow it. A store one version below
/// replays the record at the last version, and a second record at that
/// version ends in a `StorageError`. Version arithmetic never overflows.
#[test]
fn stores_at_the_last_version_open_or_fail_typed() {
    let g = sample_graph(Regime::Dag, 1);
    for base in [u64::MAX, u64::MAX - 1] {
        let backend = Arc::new(MemBackend::new());
        let dir = Path::new("store");
        let mut store =
            DurableStore::create(backend.clone(), dir, &g, base, StoreOptions::default()).unwrap();
        let (_, recovered) =
            DurableStore::open(backend.clone(), dir, StoreOptions::default()).unwrap();
        assert_eq!(recovered.report.recovered_version, base);
        // the last version twice, then 0, where `last + 1` would wrap
        for version in [u64::MAX, u64::MAX, 0] {
            store.log_commit(version, &[MutationOp::AddEdge(0, 1)]).unwrap();
        }
        drop(store);
        let opened = DurableStore::open(backend.clone(), dir, StoreOptions::default());
        match (base, opened) {
            (u64::MAX, Ok((_, r))) => {
                assert_eq!((r.txns.len(), r.report.wal_records_skipped), (0, 3))
            }
            (_, Err(e)) => assert!(e.to_string().contains("does not continue"), "{e}"),
            (_, Ok((_, r))) => panic!("base {base}: opened at {}", r.report.recovered_version),
        }
    }
}

/// A session opened on a store at the last `u64` version refuses its next
/// commit with a typed error: the version stays and the WAL is unchanged.
#[test]
fn a_commit_at_the_last_version_is_refused() {
    let mut b = GraphBuilder::new();
    for _ in 0..3 {
        b.add_node(0);
    }
    let backend = Arc::new(MemBackend::new());
    let dir = Path::new("store");
    let opts = StoreOptions::default();
    DurableStore::create(backend.clone(), dir, &b.build(), u64::MAX, opts).unwrap();
    let session = Session::open_with(dir, GmConfig::default(), backend.clone(), opts).unwrap();
    let wal = backend.file(&dir.join("wal.log"));
    let err = session.apply(&[MutationOp::AddEdge(0, 2)]).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Validation, "{err}");
    assert_eq!(session.store_stats().version, u64::MAX);
    assert_eq!(backend.file(&dir.join("wal.log")), wal);
}

/// Every strict prefix of a valid record payload fails to decode with a
/// `WalError` naming what the cut took away.
#[test]
fn truncated_wal_payloads_fail_with_a_wal_error() {
    let ops = [MutationOp::AddNode(LabelSpec::Named("Paper".into())), MutationOp::AddEdge(0, 1)];
    let payload = encode_wal_record(7, &ops)[8..].to_vec();
    assert_eq!(decode_wal_record(&payload).map(|r| r.ops), Ok(ops.to_vec()));
    for cut in 0..payload.len() {
        let WalError { message } = decode_wal_record(&payload[..cut]).unwrap_err();
        assert!(message.contains("short") || message.contains("missing"), "cut {cut}: {message}");
    }
}
