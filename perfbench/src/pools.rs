//! The fixed query pools (`pools/*.tsv`) and the probe that regenerated
//! them (`perfbench --probe <workload>`).
//!
//! Probing is input generation: it draws H-flavor instances of the Fig. 9
//! templates over the dataset's frequent labels with a fixed pool seed and
//! keeps those that meet the workload's rule. Its output is committed, so
//! no run depends on probe timings.

use std::time::{Duration, Instant};

use rig_core::{CountSink, Session};

use crate::inputs::{dataset, draw_instance, frequent_labels, EdgeOp, EdgeToggler, Instance, FIG9};
use crate::layers;
use crate::stats::Rng;
use crate::trace::Tracer;

pub const COLD_HYBRID: &str = include_str!("../pools/cold_hybrid.tsv");
pub const CACHED_ENUM: &str = include_str!("../pools/cached_enum.tsv");
pub const SERVE_RW: &str = include_str!("../pools/serve_rw.tsv");

const POOL_SEED: u64 = 0x9F19;

/// Dirty-snapshot read times (ms, at probe) of the `serve_rw` pool.
const SERVE_DIRTY_MS: std::ops::RangeInclusive<u128> = 10..=100;

/// Complete answer sizes of the `cached_enum` pool.
pub const CACHED_ANSWERS: std::ops::RangeInclusive<u64> = 100_000..=3_000_000;

/// Exact answer size of `text`, or `None` when it exceeds `cap`: the DP
/// where the session would use it, else enumeration capped at `cap + 1`.
fn answer_size(session: &Session, text: &str, cap: u64) -> Option<u64> {
    let p = session.prepare(text).ok()?;
    let rig = layers::build(&mut Tracer::default(), session, p.reduced());
    if let Some(total) = layers::dp_accepts(p.reduced(), &rig) {
        return (total <= cap).then_some(total);
    }
    let mut sink = CountSink::default();
    let r = layers::stream(
        &mut Tracer::default(),
        session,
        p.reduced(),
        &rig,
        Some(cap + 1),
        &mut sink,
    );
    (r.count <= cap).then_some(r.count)
}

/// Draws candidates round-robin over the templates until `want` are
/// kept (at most `per_template` each) or `rounds` rounds pass.
fn draw_pool(
    labels: &[u32],
    want: usize,
    per_template: usize,
    rounds: usize,
    mut keep: impl FnMut(&Instance) -> bool,
) -> Vec<Instance> {
    let mut rng = Rng::new(POOL_SEED);
    let mut pool: Vec<Instance> = Vec::new();
    let mut kept = [0usize; 20];
    'outer: for _ in 0..rounds {
        for id in FIG9 {
            if pool.len() == want {
                break 'outer;
            }
            let cand = draw_instance(&mut rng, id, labels);
            if kept[id] < per_template && pool.iter().all(|p| p.text != cand.text) && keep(&cand) {
                kept[id] += 1;
                pool.push(cand);
            }
        }
    }
    pool
}

/// Prints the pool of `workload` in the `pools/*.tsv` format.
pub fn probe(workload: &str) -> Result<(), String> {
    let (scale, pool) = match workload {
        "cold_hybrid" => {
            // non-empty, and a cold read (limit 10^5) within 0.5 s
            let g = dataset(0.5);
            let labels = frequent_labels(&g);
            let session = Session::new(g);
            let pool = draw_pool(&labels, 45, 5, 16, |c| {
                let Ok(p) = session.prepare(c.text.as_str()) else { return false };
                let t = Instant::now();
                let mut sink = CountSink::default();
                let o = p
                    .run()
                    .no_cache()
                    .limit(100_000)
                    .timeout(Duration::from_secs(2))
                    .stream(&mut sink);
                !o.result.timed_out
                    && o.result.count > 0
                    && t.elapsed() <= Duration::from_millis(500)
            });
            (0.5, pool)
        }
        "cached_enum" => {
            // complete answers of CACHED_ANSWERS tuples
            let g = dataset(0.5);
            let labels = frequent_labels(&g);
            let session = Session::new(g);
            let pool = draw_pool(&labels, 25, 6, 80, |c| {
                answer_size(&session, &c.text, *CACHED_ANSWERS.end())
                    .is_some_and(|n| CACHED_ANSWERS.contains(&n))
            });
            (0.5, pool)
        }
        "serve_rw" => {
            // counted by the DP (the final differential counts every query
            // over HTTP and in a fresh session), and a stream read (limit
            // 1000) on the served graph dirtied by two write batches (the
            // median snapshot of a run) takes SERVE_DIRTY_MS: the reads
            // exercise the dirty rebuild path, and the pool has no
            // near-empty or runaway instances
            let g = dataset(crate::serve::SCALE);
            let labels = frequent_labels(&g);
            let mut toggler = EdgeToggler::new(&g, crate::serve::BATCH / 2);
            let session =
                Session::new(toggler.graph(&g)).with_compaction(crate::serve::compaction());
            let mut rng = Rng::new(POOL_SEED);
            for _ in 0..2 {
                let mut txn = session.begin();
                for op in toggler.next_batch(&mut rng) {
                    match op {
                        EdgeOp::Add(u, v) => txn.add_edge(u, v),
                        EdgeOp::Remove(u, v) => txn.remove_edge(u, v),
                    }
                }
                session.commit(txn).map_err(|e| e.to_string())?;
            }
            let pool = draw_pool(&labels, 45, 6, 80, |c| {
                let Ok(p) = session.prepare(c.text.as_str()) else { return false };
                let rig = layers::build(&mut Tracer::default(), &session, p.reduced());
                if layers::dp_accepts(p.reduced(), &rig).is_none_or(|n| n == 0) {
                    return false;
                }
                let t = Instant::now();
                let _ = p.run().no_cache().limit(1000).stream(&mut CountSink::default());
                SERVE_DIRTY_MS.contains(&t.elapsed().as_millis())
            });
            (crate::serve::SCALE, pool)
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    println!("# {workload}: H instances of the Fig. 9 templates on ep@{scale} (dataset seed 42)");
    println!("# generated by `perfbench --probe {workload}`; one <tag>\\t<HPQL> per line");
    for inst in pool {
        println!("{}\t{}", inst.tag, inst.text);
    }
    Ok(())
}
