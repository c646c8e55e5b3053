//! `cold_hybrid`: the paper's scenario, in which every query pays for its
//! own RIG. Each read is `Session::prepare(text)` then `run().no_cache()`;
//! the terminal alternates between `stream` (limit 10^5) and `count()`,
//! which is used only on instances the factorized DP accepts.

use std::time::{Duration, Instant};

use rig_core::Session;
use rig_graph::to_text;
use rig_query::{parse_hpql, transitive_reduction};

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
const STREAM_LIMIT: u64 = 100_000;
/// Forced enumeration at set-up stops here; larger DP totals are checked
/// as "at least this many".
const FORCED_CAP: u64 = 1_000_000;
/// Streamed tuples kept per read for the edge-by-edge check.
const SAMPLE: usize = 4;
/// Set-ups timed before and after the timed sequence; `setup_s` is their
/// median. Each takes tens of milliseconds, so a run affords many, and
/// splitting them samples the host at both ends of the run.
const SETUPS: (usize, usize) = (30, 30);

/// Expected answers of one instance, computed at set-up by the other
/// route.
#[derive(Debug, Clone, Copy)]
struct Expect {
    /// `(count, limit_hit)` of a stream read with limit 10^5.
    stream: (u64, bool),
    /// DP total when the session's `count()` answers by the DP.
    dp: Option<u64>,
}

struct Answer {
    count: u64,
    limit_hit: bool,
    via_dp: bool,
    sample: Vec<Vec<u32>>,
}

fn expectations(session: &Session, pool: &[Instance], check: &mut Check) -> Vec<Expect> {
    let mut scratch = Tracer::default();
    pool.iter()
        .map(|inst| {
            let p = session.prepare(inst.text.as_str()).expect("pool query prepares");
            let rig = layers::build(&mut scratch, session, p.reduced());
            let dp = layers::dp_accepts(p.reduced(), &rig);
            let mut sink = rig_core::CountSink::default();
            let forced = layers::stream(
                &mut scratch,
                session,
                p.reduced(),
                &rig,
                Some(FORCED_CAP),
                &mut sink,
            );
            let total = match dp {
                Some(total) => {
                    let agrees =
                        if forced.limit_hit { total >= FORCED_CAP } else { total == forced.count };
                    check.that(agrees, || {
                        format!(
                            "{}: DP total {total} vs forced enumeration {}",
                            inst.tag, forced.count
                        )
                    });
                    total
                }
                None => forced.count,
            };
            Expect { stream: (total.min(STREAM_LIMIT), total >= STREAM_LIMIT), dp }
        })
        .collect()
}

fn read(session: &Session, text: &str, count: bool) -> Result<Answer, rig_core::Error> {
    let p = session.prepare(text)?;
    if count {
        let o = p.run().no_cache().count();
        return Ok(Answer {
            count: o.result.count,
            limit_hit: o.result.limit_hit,
            via_dp: o.metrics.counted_via_factorization,
            sample: Vec::new(),
        });
    }
    let mut sink = ChecksumSink::keeping(SAMPLE);
    let o = p.run().no_cache().limit(STREAM_LIMIT).stream(&mut sink);
    Ok(Answer {
        count: o.result.count,
        limit_hit: o.result.limit_hit,
        via_dp: false,
        sample: sink.sample,
    })
}

fn check_answer(
    check: &mut Check,
    session: &Session,
    inst: &Instance,
    count: bool,
    exp: &Expect,
    a: &Answer,
) {
    let want = if count { (exp.dp.unwrap_or(u64::MAX), false) } else { exp.stream };
    check.that((a.count, a.limit_hit) == want, || {
        format!(
            "{} ({}): got {:?}, want {want:?}",
            inst.tag,
            if count { "count" } else { "stream" },
            (a.count, a.limit_hit)
        )
    });
    if count {
        check.that(a.via_dp, || format!("{}: count() did not use the DP", inst.tag));
    }
    if !a.sample.is_empty() {
        let snapshot = session.graph();
        let bfl = session.bfl();
        let q = session.prepare(inst.text.as_str()).expect("pool query prepares");
        for t in &a.sample {
            check.that(layers::tuple_matches(&snapshot, &bfl, q.query(), t), || {
                format!("{}: streamed tuple {t:?} is not an occurrence", inst.tag)
            });
        }
    }
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Report {
    let mut report =
        Report { label: format!("cold_hybrid_seed{seed}"), scale: SCALE, ..Report::default() };
    let text = to_text(&dataset(SCALE));
    let pool = parse_pool(pools::COLD_HYBRID);

    let (mut setup_s, session) = time_setups(SETUPS.0, || compacting_session(&text));
    let fresh_label = session.graph().num_labels() as u32;

    let expect = expectations(&session, &pool, &mut report.check);
    let count_ok: Vec<bool> = expect.iter().map(|e| e.dp.is_some()).collect();
    let (reads, writes) = op_counts(seconds, pool.len(), 13.2, 10.0);
    let mut rng = Rng::new(seed);
    let order = read_order(&mut rng, pool.len(), reads);
    let ops = spread_sequence(&order, &count_ok, writes);
    let batches = node_batches(&mut rng, writes);

    // untimed warm-up: one stream read of every instance
    for (inst, exp) in pool.iter().zip(&expect) {
        match read(&session, &inst.text, false) {
            Ok(a) => check_answer(&mut report.check, &session, inst, false, exp, &a),
            Err(e) => {
                report.check.that(false, || format!("{}: warm-up read failed: {e}", inst.tag));
            }
        }
    }

    let mut timed = Timed::default();
    let mut untimed = Duration::ZERO;
    let wall = Instant::now();
    for op in &ops {
        report.attempted += 1;
        match *op {
            Op::Read { q, count } => {
                let start = Instant::now();
                let result = read(&session, &pool[q].text, count);
                let dur = ms(start.elapsed());
                timed.read_ms.push(dur);
                match result {
                    Ok(a) => {
                        let checking = Instant::now();
                        check_answer(&mut report.check, &session, &pool[q], count, &expect[q], &a);
                        untimed += checking.elapsed();
                        timed.answers.push((a.count, a.limit_hit));
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
                    report.check.that(clean, || format!("write {b} did not compact cleanly"));
                }
                Err(e) => {
                    eprintln!("write {b} failed: {e}");
                    report.failed += 1;
                }
            },
        }
    }
    timed.wall_s = (wall.elapsed() - untimed).as_secs_f64();
    timed.peak_rss_mb = peak_rss_mib();
    drop(session);
    setup_s.extend(time_setups(SETUPS.1, || compacting_session(&text)).0);
    if let Err(e) = end_to_end(&mut report, &setup_s, &timed) {
        report.check.that(false, || e);
    }
    if traced {
        replay(&mut report, &text, &pool, &ops, &batches, &timed, fresh_label);
    }
    report
}

/// The traced run: the same sequence on a fresh session, each read rebuilt
/// through the layers' public functions.
fn replay(
    report: &mut Report,
    text: &str,
    pool: &[Instance],
    ops: &[Op],
    batches: &[Vec<usize>],
    untraced: &Timed,
    fresh_label: u32,
) {
    let mut tr = Tracer::default();
    let session = compacting_session_traced(&mut tr, text);
    let mut answers = untraced.answers.iter();
    let mut traced_read_ms = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        tr.set_op(i as u32 + 1);
        match *op {
            Op::Read { q, count } => {
                tr.begin("read");
                let ast = tr
                    .span("query.parse", || parse_hpql(&pool[q].text))
                    .expect("pool query parses");
                let p =
                    tr.span("core.prepare", || session.prepare(ast)).expect("pool query prepares");
                tr.span("query.reduce", || transitive_reduction(p.query()));
                let rig = layers::build(&mut tr, &session, p.reduced());
                let got = if count {
                    let total = layers::dp_count(&mut tr, p.reduced(), &rig);
                    (total.map_or(u64::MAX, |t| u64::try_from(t).unwrap_or(u64::MAX)), false)
                } else {
                    let mut sink = ChecksumSink::default();
                    let r = layers::stream(
                        &mut tr,
                        &session,
                        p.reduced(),
                        &rig,
                        Some(STREAM_LIMIT),
                        &mut sink,
                    );
                    (r.count, r.limit_hit)
                };
                traced_read_ms.push(tr.end());
                let want = answers.next().copied().unwrap_or_default();
                report.check.that(got == want, || {
                    format!("traced read {i} ({}): {got:?}, untraced {want:?}", pool[q].tag)
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
    // every read bypasses the plan cache: no lookups, no hits
    report.metrics.insert("core.cache_hit_frac", 0.0);
    trace_overhead(report, &traced_read_ms, &untraced.read_ms);
    print_shares(&tr, "read");
    let _ = tr.write_jsonl(&crate::work_dir().join(format!("trace_{}.jsonl", report.label)));
}
