//! Random query extraction from a data graph (§7.1 workloads).
//!
//! The biology-dataset workloads (hp, yt, hu) use randomly generated
//! queries of 4–32 nodes. We extract queries *from the data graph* so that
//! every generated query has at least one homomorphic occurrence (the
//! sampled subgraph itself):
//!
//! 1. grow a connected node sample with a BFS-style random expansion;
//! 2. every sampled data edge between sampled nodes can become a **direct**
//!    pattern edge;
//! 3. every (BFS-tree ancestor, descendant) pair is connected by a real
//!    path, so it can become a **reachability** pattern edge;
//! 4. node labels are copied from the sampled nodes.
//!
//! Density is controlled to produce the paper's *dense* (min undirected
//! degree ≥ 3) and *sparse* (degree < 3) workloads of Fig. 17.

use crate::{EdgeKind, Flavor, PatternQuery, QNode};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rig_graph::{DataGraph, NodeId};

/// Configuration for [`random_query`].
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Number of pattern nodes to sample.
    pub num_nodes: usize,
    /// Edge kind flavor (C / H / D).
    pub flavor: Flavor,
    /// Probability of keeping each extra (non-spanning) candidate edge.
    pub extra_edge_prob: f64,
    /// If true, keep adding candidate edges until every node has undirected
    /// degree ≥ 3 (the paper's *dense* query sets), where possible.
    pub dense: bool,
    /// RNG seed.
    pub seed: u64,
}

impl GeneratorConfig {
    pub fn new(num_nodes: usize, flavor: Flavor, seed: u64) -> Self {
        GeneratorConfig { num_nodes, flavor, extra_edge_prob: 0.3, dense: false, seed }
    }

    pub fn dense(mut self) -> Self {
        self.dense = true;
        self.extra_edge_prob = 1.0;
        self
    }
}

/// Generates one random query with a guaranteed non-empty answer on `g`.
/// Returns `None` when `g` has no connected region of the requested size.
pub fn random_query(g: &DataGraph, cfg: &GeneratorConfig) -> Option<PatternQuery> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for _attempt in 0..64 {
        if let Some(q) = try_sample(g, cfg, &mut rng) {
            return Some(q);
        }
    }
    None
}

fn try_sample(g: &DataGraph, cfg: &GeneratorConfig, rng: &mut StdRng) -> Option<PatternQuery> {
    let n = g.num_nodes();
    if n == 0 || cfg.num_nodes == 0 {
        return None;
    }
    let start = rng.gen_range(0..n) as NodeId;

    // BFS-style random expansion, recording each node's tree parent.
    let mut sampled: Vec<NodeId> = vec![start];
    let mut parent: Vec<Option<usize>> = vec![None]; // index into `sampled`
    let mut frontier: Vec<(usize, NodeId)> = Vec::new(); // (parent idx, candidate)
    let mut in_sample = std::collections::HashSet::new();
    in_sample.insert(start);
    for &nb in g.out_neighbors(start) {
        frontier.push((0, nb));
    }
    while sampled.len() < cfg.num_nodes {
        if frontier.is_empty() {
            return None;
        }
        let pick = rng.gen_range(0..frontier.len());
        let (pidx, cand) = frontier.swap_remove(pick);
        if !in_sample.insert(cand) {
            continue;
        }
        let idx = sampled.len();
        sampled.push(cand);
        parent.push(Some(pidx));
        for &nb in g.out_neighbors(cand) {
            if !in_sample.contains(&nb) {
                frontier.push((idx, nb));
            }
        }
    }

    // Pattern nodes mirror the sample; labels copied from data nodes.
    let labels = sampled.iter().map(|&v| g.label(v)).collect();
    let mut q = PatternQuery::new(labels);

    let pick_kind = |i: usize| match cfg.flavor {
        Flavor::C => EdgeKind::Direct,
        Flavor::D => EdgeKind::Reachability,
        Flavor::H => {
            if i.is_multiple_of(2) {
                EdgeKind::Direct
            } else {
                EdgeKind::Reachability
            }
        }
    };

    // Spanning-tree edges (parent -> child direct data edges) keep the
    // pattern connected. Note a C-flavor spanning edge needs a real data
    // edge, which BFS expansion guarantees.
    let mut edge_seq = 0usize;
    for (idx, par) in parent.iter().enumerate().skip(1) {
        // every non-root has a parent; a sample without one is discarded
        let p = (*par)?;
        q.add_edge(p as QNode, idx as QNode, pick_kind(edge_seq));
        edge_seq += 1;
    }

    // Candidate extra edges.
    #[derive(Clone, Copy)]
    enum Cand {
        DataEdge(QNode, QNode),
        TreePath(QNode, QNode),
    }
    let mut candidates: Vec<Cand> = Vec::new();
    // (a) data edges inside the sample (can be direct or reachability)
    for (i, &u) in sampled.iter().enumerate() {
        for (j, &v) in sampled.iter().enumerate() {
            if i != j && g.has_edge(u, v) {
                candidates.push(Cand::DataEdge(i as QNode, j as QNode));
            }
        }
    }
    // (b) tree ancestor/descendant pairs (reachability-only)
    for idx in 1..sampled.len() {
        let mut anc = parent[idx];
        while let Some(a) = anc {
            candidates.push(Cand::TreePath(a as QNode, idx as QNode));
            anc = parent[a];
        }
    }
    candidates.shuffle(rng);

    for cand in candidates {
        let take = if cfg.dense {
            let (a, b) = match cand {
                Cand::DataEdge(a, b) | Cand::TreePath(a, b) => (a, b),
            };
            q.degree(a) < 3 || q.degree(b) < 3
        } else {
            rng.gen_bool(cfg.extra_edge_prob)
        };
        if !take {
            continue;
        }
        match cand {
            Cand::DataEdge(a, b) => {
                if a == b || q.edges().iter().any(|e| e.from == a && e.to == b) {
                    continue;
                }
                q.add_edge(a, b, pick_kind(edge_seq));
                edge_seq += 1;
            }
            Cand::TreePath(a, b) => {
                // only ever a reachability constraint (a real path exists)
                if matches!(cfg.flavor, Flavor::C) {
                    continue;
                }
                if q.edges().iter().any(|e| e.from == a && e.to == b) {
                    continue;
                }
                q.add_edge(a, b, EdgeKind::Reachability);
                edge_seq += 1;
            }
        }
    }
    debug_assert!(q.is_connected());
    Some(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rig_graph::GraphBuilder;

    fn grid_graph(side: u32) -> DataGraph {
        let mut b = GraphBuilder::new();
        for i in 0..side * side {
            b.add_node(i % 5);
        }
        for r in 0..side {
            for c in 0..side {
                let v = r * side + c;
                if c + 1 < side {
                    b.add_edge(v, v + 1);
                }
                if r + 1 < side {
                    b.add_edge(v, v + side);
                }
            }
        }
        b.build()
    }

    #[test]
    fn generates_connected_queries_of_requested_size() {
        let g = grid_graph(10);
        for seed in 0..10u64 {
            for flavor in [Flavor::C, Flavor::H, Flavor::D] {
                let cfg = GeneratorConfig::new(6, flavor, seed);
                let q = random_query(&g, &cfg).expect("grid is large enough");
                assert_eq!(q.num_nodes(), 6);
                assert!(q.is_connected());
                assert!(q.num_edges() >= 5);
            }
        }
    }

    #[test]
    fn c_flavor_has_no_reachability_edges() {
        let g = grid_graph(8);
        let cfg = GeneratorConfig::new(8, Flavor::C, 42);
        let q = random_query(&g, &cfg).unwrap();
        assert_eq!(q.reachability_edge_count(), 0);
    }

    #[test]
    fn d_flavor_all_reachability() {
        let g = grid_graph(8);
        let cfg = GeneratorConfig::new(8, Flavor::D, 42);
        let q = random_query(&g, &cfg).unwrap();
        assert_eq!(q.reachability_edge_count(), q.num_edges());
    }

    #[test]
    fn dense_config_raises_degrees() {
        let g = grid_graph(12);
        let cfg = GeneratorConfig::new(8, Flavor::C, 3).dense();
        let q = random_query(&g, &cfg).unwrap();
        let avg: f64 = (0..q.num_nodes() as QNode).map(|v| q.degree(v) as f64).sum::<f64>()
            / q.num_nodes() as f64;
        let sparse_cfg = GeneratorConfig::new(8, Flavor::C, 3);
        let qs = random_query(&g, &sparse_cfg).unwrap();
        let avg_sparse: f64 =
            (0..qs.num_nodes() as QNode).map(|v| qs.degree(v) as f64).sum::<f64>()
                / qs.num_nodes() as f64;
        assert!(avg >= avg_sparse);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = grid_graph(9);
        let cfg = GeneratorConfig::new(5, Flavor::H, 777);
        let a = random_query(&g, &cfg).unwrap();
        let b = random_query(&g, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn too_large_request_returns_none() {
        let g = grid_graph(2);
        let cfg = GeneratorConfig::new(100, Flavor::C, 0);
        assert!(random_query(&g, &cfg).is_none());
    }
}
