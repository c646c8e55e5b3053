//! `cached_enum`: the inverse of `cold_hybrid`. Set-up prepares and caches
//! every pool instance (complete answers of 10^5 to 10^7 tuples); each
//! read prepares the text and streams one complete answer from the cached
//! plan into the order-independent checksum sink.

use std::time::Instant;

use rig_core::Session;
use rig_graph::to_text;
use rig_index::Rig;
use rig_query::parse_hpql;

use crate::common::{
    compacting_session, compacting_session_traced, end_to_end, layer_metrics, ms, node_write,
    print_shares, time_setups, trace_overhead, Check, Report, Timed,
};
use crate::inputs::{
    dataset, node_batches, op_counts, parse_pool, read_order, spread_sequence, Instance, Op,
};
use crate::layers;
use crate::pools;
use crate::stats::{peak_rss_mib, ChecksumSink, Rng};
use crate::trace::Tracer;

pub const SCALE: f64 = 0.5;
/// Set-ups timed before and after the timed sequence: each builds every
/// plan (about a second).
const SETUPS: (usize, usize) = (2, 2);

/// Parses, opens the session and builds + caches every plan.
fn setup(text: &str, pool: &[Instance]) -> Session {
    let session = compacting_session(text);
    for inst in pool {
        let p = session.prepare(inst.text.as_str()).expect("pool query prepares");
        let _ = p.run().explain();
    }
    session
}

fn read(session: &Session, text: &str) -> Result<(u64, u64, bool), rig_core::Error> {
    let p = session.prepare(text)?;
    let mut sink = ChecksumSink::default();
    let o = p.run().stream(&mut sink);
    Ok((sink.count, sink.checksum, o.metrics.rig_from_cache && o.result.count == sink.count))
}

/// Expected `(count, checksum)` per instance from one untimed pass over
/// the cached plans (the warm-up), checked against `count()` (the DP
/// where it applies).
fn expectations(session: &Session, pool: &[Instance], check: &mut Check) -> Vec<(u64, u64)> {
    pool.iter()
        .map(|inst| {
            let (count, checksum, cached) = read(session, &inst.text).expect("pool query reads");
            check.that(cached, || format!("{}: warm-up read missed the plan cache", inst.tag));
            let p = session.prepare(inst.text.as_str()).expect("pool query prepares");
            let counted = p.run().count().result.count;
            check.that(counted == count, || {
                format!("{}: streamed {count} tuples, count() says {counted}", inst.tag)
            });
            check.that(pools::CACHED_ANSWERS.contains(&count), || {
                format!("{}: answer size {count} outside the pool rule", inst.tag)
            });
            (count, checksum)
        })
        .collect()
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Report {
    let mut report =
        Report { label: format!("cached_enum_seed{seed}"), scale: SCALE, ..Report::default() };
    let text = to_text(&dataset(SCALE));
    let pool = parse_pool(pools::CACHED_ENUM);

    let (mut setup_s, session) = time_setups(SETUPS.0, || setup(&text, &pool));
    let fresh_label = session.graph().num_labels() as u32;
    let expect = expectations(&session, &pool, &mut report.check);

    let (reads, writes) = op_counts(seconds, pool.len(), 10.0, 10.0);
    let mut rng = Rng::new(seed);
    let order = read_order(&mut rng, pool.len(), reads);
    let ops = spread_sequence(&order, &vec![false; pool.len()], writes);
    let batches = node_batches(&mut rng, writes);

    let before = session.cache_stats();
    let mut timed = Timed::default();
    let wall = Instant::now();
    for op in &ops {
        report.attempted += 1;
        match *op {
            Op::Read { q, .. } => {
                let start = Instant::now();
                let result = read(&session, &pool[q].text);
                timed.read_ms.push(ms(start.elapsed()));
                match result {
                    Ok((count, checksum, cached)) => {
                        report.check.that((count, checksum) == expect[q] && cached, || {
                            format!(
                                "{}: got ({count}, {checksum:#x}, cached {cached}), want {:?}",
                                pool[q].tag, expect[q]
                            )
                        });
                        timed.answers.push((count, false));
                    }
                    Err(e) => {
                        eprintln!("read {} failed: {e}", pool[q].tag);
                        report.failed += 1;
                        timed.answers.push((u64::MAX, false));
                    }
                }
            }
            Op::Write { b } => match node_write(&session, fresh_label, &batches[b], None) {
                Ok((dur, clean)) => {
                    timed.write_ms.push(dur);
                    report
                        .check
                        .that(clean, || format!("write {b} invalidated plans or did not compact"));
                }
                Err(e) => {
                    eprintln!("write {b} failed: {e}");
                    report.failed += 1;
                }
            },
        }
    }
    timed.wall_s = wall.elapsed().as_secs_f64();
    timed.peak_rss_mb = peak_rss_mib();
    let after = session.cache_stats();
    drop(session);
    setup_s.extend(time_setups(SETUPS.1, || setup(&text, &pool)).0);
    if let Err(e) = end_to_end(&mut report, &setup_s, &timed) {
        report.check.that(false, || e);
    }
    if traced {
        let hits = (after.hits - before.hits) as f64;
        let lookups = hits + (after.misses - before.misses) as f64;
        report
            .metrics
            .insert("core.cache_hit_frac", if lookups > 0.0 { hits / lookups } else { 0.0 });
        replay(&mut report, &text, &pool, &ops, &batches, &expect, &timed, fresh_label);
    }
    report
}

/// The traced run: a fresh session whose plans are built from outside
/// through `sim` and `rig` (the spans of set-up), then the same sequence,
/// each read enumerating its prebuilt RIG through `mjoin`.
#[allow(clippy::too_many_arguments)]
fn replay(
    report: &mut Report,
    text: &str,
    pool: &[Instance],
    ops: &[Op],
    batches: &[Vec<usize>],
    expect: &[(u64, u64)],
    untraced: &Timed,
    fresh_label: u32,
) {
    let mut tr = Tracer::default();
    let session = compacting_session_traced(&mut tr, text);
    let plans: Vec<Rig> = pool
        .iter()
        .map(|inst| {
            let p = session.prepare(inst.text.as_str()).expect("pool query prepares");
            layers::build(&mut tr, &session, p.reduced())
        })
        .collect();
    let mut traced_read_ms = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        tr.set_op(i as u32 + 1);
        match *op {
            Op::Read { q, .. } => {
                tr.begin("read");
                let ast = tr
                    .span("query.parse", || parse_hpql(&pool[q].text))
                    .expect("pool query parses");
                let p =
                    tr.span("core.prepare", || session.prepare(ast)).expect("pool query prepares");
                let mut sink = ChecksumSink::default();
                layers::stream(&mut tr, &session, p.reduced(), &plans[q], None, &mut sink);
                traced_read_ms.push(tr.end());
                report.check.that((sink.count, sink.checksum) == expect[q], || {
                    format!(
                        "traced read {i} ({}): ({}, {:#x}), want {:?}",
                        pool[q].tag, sink.count, sink.checksum, expect[q]
                    )
                });
            }
            Op::Write { b } => {
                tr.begin("write");
                let ok = node_write(&session, fresh_label, &batches[b], Some(&mut tr))
                    .is_ok_and(|(_, c)| c);
                tr.end();
                report.check.that(ok, || format!("traced write {b} failed"));
            }
        }
    }
    layer_metrics(report, &tr, "read");
    let stats = session.store_stats();
    report.metrics.insert("core.compactions", stats.compactions as f64);
    report.metrics.insert("graph.delta_ops", stats.delta_ops as f64);
    trace_overhead(report, &traced_read_ms, &untraced.read_ms);
    print_shares(&tr, "read");
    let _ = tr.write_jsonl(&crate::work_dir().join(format!("trace_{}.jsonl", report.label)));
}
