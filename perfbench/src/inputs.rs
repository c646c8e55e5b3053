//! Inputs: the dataset graph, the query pools, and the seeded operation
//! sequence of each workload.
//!
//! The dataset (the `ep` stand-in from `rig_datasets`, generator seed
//! [`DATASET_SEED`]) and the query pools in `pools/` are fixed parts of a
//! workload, like the paper's fixed graphs and query sets, so runs with
//! different seeds measure the same work. `--seed` generates the
//! operation sequence: the order of the reads and the contents of every
//! write batch.

use rig_graph::{DataGraph, GraphBuilder, NodeId};
use rig_query::{template, to_hpql, Flavor};

use crate::stats::Rng;

/// Generator seed of the dataset graph.
pub const DATASET_SEED: u64 = 42;

/// The twelve Fig. 9 templates (the `fig9` harness's query set).
pub const FIG9: [usize; 12] = [0, 3, 5, 6, 8, 17, 11, 12, 19, 10, 13, 14];

/// The `ep` stand-in graph at `scale`.
pub fn dataset(scale: f64) -> DataGraph {
    rig_datasets::spec("ep").expect("ep is in the catalog").generate(scale, DATASET_SEED)
}

/// One pool entry: its template tag (`HQ<id>`) and HPQL text.
#[derive(Debug, Clone)]
pub struct Instance {
    pub tag: String,
    pub text: String,
}

/// Parses a pool file: `<tag>\t<HPQL>` per line, `#` comments.
pub fn parse_pool(file: &str) -> Vec<Instance> {
    file.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (tag, text) = l.split_once('\t').expect("pool line is <tag>\\t<hpql>");
            Instance { tag: tag.to_string(), text: text.trim().to_string() }
        })
        .collect()
}

/// Candidate H instance of template `id`, labels drawn from `labels`.
pub fn draw_instance(rng: &mut Rng, id: usize, labels: &[u32]) -> Instance {
    let t = template(id);
    let chosen: Vec<u32> = (0..t.num_nodes).map(|_| labels[rng.below(labels.len())]).collect();
    let q = t.instantiate(Flavor::H, &chosen);
    Instance { tag: format!("HQ{id}"), text: to_hpql(&q, None, |_| None) }
}

/// The eight most frequent labels of `g` (the probing label space of the
/// `fig9` harness).
pub fn frequent_labels(g: &DataGraph) -> Vec<u32> {
    let mut by_freq: Vec<u32> = (0..g.num_labels() as u32).collect();
    by_freq.sort_by_key(|&l| (std::cmp::Reverse(g.nodes_with_label(l).len()), l));
    by_freq.truncate(8);
    by_freq
}

/// One operation of a workload's sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read pool instance `q`; `count` selects the `count()` terminal.
    Read { q: usize, count: bool },
    /// Apply write batch `b`.
    Write { b: usize },
}

/// Operation counts derived from `--seconds`, never from measured
/// speed, so a faster program does the same work. Each type has at least
/// 100 operations, so every p90 has at least ten samples beyond it. Reads
/// are whole passes over the pool: every instance is read equally often,
/// so the seed changes the order of the reads but not which reads a run
/// makes. With a pool of 10k + 5 queries the p50 and p90 ranks fall in the
/// middle of one query's samples, not on the boundary between two.
pub fn op_counts(seconds: u64, pool: usize, reads_per_s: f64, writes_per_s: f64) -> (usize, usize) {
    let scaled = |rate: f64| ((rate * seconds as f64).round() as usize).max(100);
    (scaled(reads_per_s).div_ceil(pool) * pool, scaled(writes_per_s))
}

/// `reads` instance indices: one seeded permutation of the pool per pass,
/// never the same query twice in a row.
pub fn read_order(rng: &mut Rng, pool: usize, reads: usize) -> Vec<usize> {
    assert_eq!(reads % pool, 0, "reads are whole passes over the pool");
    let mut out: Vec<usize> = Vec::with_capacity(reads);
    for _ in 0..reads / pool {
        let mut pass: Vec<usize> = (0..pool).collect();
        rng.shuffle(&mut pass);
        if pool > 1 && out.last() == Some(&pass[0]) {
            pass.swap(0, 1);
        }
        out.extend(pass);
    }
    out
}

/// Reads in `order` with `writes` writes spread evenly between them.
/// Instance `q` uses the count terminal in the passes where `pass + q` is
/// odd, when `count_ok[q]`: the mix of terminals is the same for every
/// seed.
pub fn spread_sequence(order: &[usize], count_ok: &[bool], writes: usize) -> Vec<Op> {
    let pool = count_ok.len();
    let reads = order.len();
    let mut ops = Vec::with_capacity(reads + writes);
    let mut b = 0;
    for (j, &q) in order.iter().enumerate() {
        ops.push(Op::Read { q, count: count_ok[q] && (j / pool + q) % 2 == 1 });
        while b < writes && (b + 1) * reads <= (j + 1) * writes {
            ops.push(Op::Write { b });
            b += 1;
        }
    }
    ops
}

/// `write, read, read` repeated over `reads` reads (an even number): the
/// two reads after a write are distinct queries.
pub fn serve_sequence(rng: &mut Rng, pool: usize, reads: usize) -> Vec<Op> {
    assert_eq!(reads % 2, 0, "reads come in pairs");
    let order = read_order(rng, pool, reads);
    let mut ops = Vec::with_capacity(reads / 2 * 3);
    for (b, pair) in order.chunks(2).enumerate() {
        ops.push(Op::Write { b });
        ops.extend(pair.iter().map(|&q| Op::Read { q, count: false }));
    }
    ops
}

/// Commits of a bulk write of `cold_hybrid` / `cached_enum`.
pub const BULK_COMMITS: usize = 3;

/// The node-only writes of `cold_hybrid` / `cached_enum`: per write, the
/// nodes each of its commits adds (8 to 24). Exactly one write in five is
/// a bulk write of [`BULK_COMMITS`] commits, at seeded positions; the
/// rest commit once. Every commit compacts, so a bulk write costs about
/// three ordinary ones. The write p90 rank then falls in the middle of the
/// bulk writes and the p50 rank among the ordinary ones. With identical
/// writes the p90 sat in their tail, which measured how long the host
/// spent in a slow state more than the write.
pub fn node_batches(rng: &mut Rng, writes: usize) -> Vec<Vec<usize>> {
    let mut commits: Vec<usize> =
        (0..writes).map(|i| if i < writes / 5 { BULK_COMMITS } else { 1 }).collect();
    rng.shuffle(&mut commits);
    commits.into_iter().map(|c| (0..c).map(|_| 8 + rng.below(17)).collect()).collect()
}

/// An edge mutation of a `serve_rw` write batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeOp {
    Add(NodeId, NodeId),
    Remove(NodeId, NodeId),
}

/// The `serve_rw` graph and its write batches. The store starts as the
/// dataset without `held` of its edges, drawn with [`DATASET_SEED`]. Each
/// batch re-inserts every held-out edge and deletes as many present ones,
/// drawn with the run's seed, which are held out until the next batch.
/// Every mutation applies, and the graph stays the dataset less `held`
/// edges all run long, so the cost of a read does not drift as writes
/// accumulate.
#[derive(Debug, Clone)]
pub struct EdgeToggler {
    present: Vec<(NodeId, NodeId)>,
    held: Vec<(NodeId, NodeId)>,
}

impl EdgeToggler {
    pub fn new(g: &DataGraph, held: usize) -> EdgeToggler {
        let mut present: Vec<(NodeId, NodeId)> = g.edges().collect();
        let held = take_random(&mut Rng::new(DATASET_SEED), &mut present, held);
        EdgeToggler { present, held }
    }

    /// `g` (the dataset) without the edges held out now.
    pub fn graph(&self, g: &DataGraph) -> DataGraph {
        let mut b = GraphBuilder::with_capacity(g.num_nodes(), self.present.len());
        for v in 0..g.num_nodes() as NodeId {
            b.add_node(g.label(v));
        }
        for (l, name) in g.label_names().iter().enumerate() {
            if !name.is_empty() {
                b.set_label_name(l as u32, name);
            }
        }
        for &(u, v) in &self.present {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// The next batch: `2 * held` distinct mutations, in seeded order.
    pub fn next_batch(&mut self, rng: &mut Rng) -> Vec<EdgeOp> {
        let removed = take_random(rng, &mut self.present, self.held.len());
        let mut batch: Vec<EdgeOp> = removed
            .iter()
            .map(|&(u, v)| EdgeOp::Remove(u, v))
            .chain(self.held.iter().map(|&(u, v)| EdgeOp::Add(u, v)))
            .collect();
        let back = std::mem::replace(&mut self.held, removed);
        self.present.extend(back);
        rng.shuffle(&mut batch);
        batch
    }
}

/// Removes `n` seeded random items from `from` and returns them.
fn take_random<T>(rng: &mut Rng, from: &mut Vec<T>, n: usize) -> Vec<T> {
    (0..n).map(|_| from.swap_remove(rng.below(from.len()))).collect()
}

/// The `/update` body of one batch: one commit.
pub fn mutation_script(batch: &[EdgeOp]) -> String {
    let mut s = String::with_capacity(batch.len() * 16 + 8);
    for op in batch {
        match op {
            EdgeOp::Add(u, v) => s.push_str(&format!("a e {u} {v}\n")),
            EdgeOp::Remove(u, v) => s.push_str(&format!("d e {u} {v}\n")),
        }
    }
    s.push_str("commit\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cold_like(seed: u64) -> (Vec<Op>, Vec<Vec<usize>>) {
        let mut rng = Rng::new(seed);
        let count_ok: Vec<bool> = (0..48).map(|i| i % 3 != 0).collect();
        let (reads, writes) = op_counts(10, 48, 13.2, 10.0);
        let order = read_order(&mut rng, 48, reads);
        (spread_sequence(&order, &count_ok, writes), node_batches(&mut rng, writes))
    }

    #[test]
    fn same_seed_same_sequence_other_seed_different() {
        assert_eq!(cold_like(5), cold_like(5));
        assert_ne!(cold_like(5), cold_like(6));
        let g = dataset(0.002);
        let batches = |seed| {
            let mut rng = Rng::new(seed);
            let mut toggler = EdgeToggler::new(&g, 10);
            (0..4).map(|_| toggler.next_batch(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(batches(5), batches(5));
        assert_ne!(batches(5), batches(6));
        let serve = |s| serve_sequence(&mut Rng::new(s), 45, 450);
        assert_eq!(serve(5), serve(5));
        assert_ne!(serve(5), serve(6));
    }

    #[test]
    fn op_counts_are_whole_passes_and_at_least_100() {
        assert_eq!(op_counts(10, 44, 13.2, 10.0), (132, 100));
        assert_eq!(op_counts(1, 44, 13.2, 10.0), (132, 100));
        assert_eq!(op_counts(20, 44, 13.2, 10.0), (264, 200));
        assert_eq!(op_counts(10, 48, 20.0, 10.0), (240, 100));
    }

    #[test]
    fn every_seed_makes_the_same_reads() {
        let reads = |seed| {
            let mut r: Vec<Op> =
                cold_like(seed).0.into_iter().filter(|o| matches!(o, Op::Read { .. })).collect();
            r.sort_by_key(|o| match *o {
                Op::Read { q, count } => (q, count),
                Op::Write { b } => (b, false),
            });
            r
        };
        assert_eq!(reads(1), reads(2));
        let (ops, batches) = cold_like(1);
        let writes = ops.iter().filter(|o| matches!(o, Op::Write { .. })).count();
        assert_eq!((ops.len() - writes, writes, batches.len()), (144, 100, 100));
        let mut per = [0usize; 48];
        for op in &ops {
            if let Op::Read { q, count } = *op {
                per[q] += 1;
                assert!(!count || q % 3 != 0);
            }
        }
        assert!(per.iter().all(|&c| c == 3));
        let bulk = batches.iter().filter(|w| w.len() == BULK_COMMITS).count();
        assert_eq!(bulk, 20);
        assert!(batches.iter().all(|w| w.len() == 1 || w.len() == BULK_COMMITS));
        assert!(batches.iter().flatten().all(|n| (8..=24).contains(n)));
        for pool in [2, 5, 45] {
            for seed in 0..20 {
                let order = read_order(&mut Rng::new(seed), pool, pool * 6);
                assert!(order.windows(2).all(|w| w[0] != w[1]), "pool {pool} seed {seed}");
            }
        }
        let serve = serve_sequence(&mut Rng::new(2), 45, 450);
        for w in serve.chunks(3) {
            assert!(matches!(w[0], Op::Write { .. }));
            assert!(
                matches!((w[1], w[2]), (Op::Read { q: a, .. }, Op::Read { q: b, .. }) if a != b)
            );
        }
    }

    #[test]
    fn edge_batches_always_apply_and_keep_the_graph() {
        use std::collections::HashSet;
        let g = dataset(0.002);
        let original: HashSet<(NodeId, NodeId)> = g.edges().collect();
        let mut toggler = EdgeToggler::new(&g, 25);
        let served = toggler.graph(&g);
        assert_eq!(served.num_nodes(), g.num_nodes());
        let mut present: HashSet<(NodeId, NodeId)> = served.edges().collect();
        assert_eq!(present.len(), original.len() - 25);
        let mut rng = Rng::new(3);
        for _ in 0..20 {
            let batch = toggler.next_batch(&mut rng);
            let distinct: HashSet<(NodeId, NodeId)> = batch
                .iter()
                .map(|op| match *op {
                    EdgeOp::Add(u, v) | EdgeOp::Remove(u, v) => (u, v),
                })
                .collect();
            assert_eq!(distinct.len(), 50);
            for op in batch {
                match op {
                    EdgeOp::Add(u, v) => assert!(present.insert((u, v))),
                    EdgeOp::Remove(u, v) => assert!(present.remove(&(u, v))),
                }
            }
            // always the dataset less 25 of its edges
            assert_eq!(present.len(), original.len() - 25);
            assert!(present.is_subset(&original));
        }
    }
}
