//! Summary statistics for data graphs (the columns of Table 2), plus the
//! label-pair edge-count matrix used by static query analysis.

use std::collections::HashMap;

use crate::{DataGraph, Label, NodeId};

/// The key statistics the paper reports per dataset (Table 2), plus degree
/// extremes that the workload generators use for calibration.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    pub nodes: usize,
    pub edges: usize,
    pub labels: usize,
    pub avg_degree: f64,
    pub max_out_degree: usize,
    pub max_in_degree: usize,
    /// Cardinality of the largest inverted list (`|I_max|` in §4.3).
    pub max_inverted_list: usize,
}

impl GraphStats {
    pub fn of(g: &DataGraph) -> Self {
        let mut max_out = 0;
        let mut max_in = 0;
        for v in 0..g.num_nodes() as NodeId {
            max_out = max_out.max(g.out_degree(v));
            max_in = max_in.max(g.in_degree(v));
        }
        let max_inv =
            (0..g.num_labels()).map(|l| g.nodes_with_label(l as u32).len()).max().unwrap_or(0);
        GraphStats {
            nodes: g.num_nodes(),
            edges: g.num_edges(),
            labels: g.num_labels(),
            avg_degree: g.avg_degree(),
            max_out_degree: max_out,
            max_in_degree: max_in,
            max_inverted_list: max_inv,
        }
    }
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "|V|={} |E|={} |L|={} d_avg={:.2} d_out_max={} d_in_max={} |I_max|={}",
            self.nodes,
            self.edges,
            self.labels,
            self.avg_degree,
            self.max_out_degree,
            self.max_in_degree,
            self.max_inverted_list
        )
    }
}

/// Above this many cells the matrix stores only non-zero pairs in a hash
/// map; below it, a dense `|L|²` array (cheaper lookups, predictable
/// memory for the label counts real datasets have).
const DENSE_CELL_LIMIT: usize = 1 << 22;

enum PairStore {
    Dense(Vec<u64>),
    Sparse(HashMap<(Label, Label), u64>),
}

/// Edge counts per `(source label, target label)` pair of a data graph.
///
/// `count(lf, lt) == 0` is a *proof* that no `Direct` pattern edge from
/// an `lf`-labeled variable to an `lt`-labeled variable can ever match —
/// the statistic the `rig_analyze` emptiness pass keys on (the role-free
/// co-occurrence idea from Fletcher & Beck).
pub struct LabelPairCounts {
    labels: usize,
    store: PairStore,
}

impl LabelPairCounts {
    /// Scans every live node's out-neighbors once: `O(|V| + |E|)`.
    pub fn of(g: &DataGraph) -> Self {
        let labels = g.num_labels();
        let mut store = if labels.saturating_mul(labels) <= DENSE_CELL_LIMIT {
            PairStore::Dense(vec![0; labels * labels])
        } else {
            PairStore::Sparse(HashMap::new())
        };
        for v in 0..g.num_nodes() as NodeId {
            if !g.is_live(v) {
                continue;
            }
            let lf = g.label(v);
            for &w in g.out_neighbors(v) {
                let lt = g.label(w);
                match &mut store {
                    PairStore::Dense(cells) => cells[lf as usize * labels + lt as usize] += 1,
                    PairStore::Sparse(map) => *map.entry((lf, lt)).or_insert(0) += 1,
                }
            }
        }
        LabelPairCounts { labels, store }
    }

    /// Number of labels the matrix covers.
    pub fn num_labels(&self) -> usize {
        self.labels
    }

    /// Number of edges from an `lf`-labeled node to an `lt`-labeled node.
    /// Labels outside the graph's label space count zero.
    pub fn count(&self, lf: Label, lt: Label) -> u64 {
        if lf as usize >= self.labels || lt as usize >= self.labels {
            return 0;
        }
        match &self.store {
            PairStore::Dense(cells) => cells[lf as usize * self.labels + lt as usize],
            PairStore::Sparse(map) => map.get(&(lf, lt)).copied().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn stats_small() {
        let mut b = GraphBuilder::new();
        let x = b.add_node(0);
        let y = b.add_node(0);
        let z = b.add_node(1);
        b.add_edge(x, y);
        b.add_edge(x, z);
        b.add_edge(y, z);
        let g = b.build();
        let s = g.stats();
        assert_eq!(s.nodes, 3);
        assert_eq!(s.edges, 3);
        assert_eq!(s.labels, 2);
        assert_eq!(s.max_out_degree, 2);
        assert_eq!(s.max_in_degree, 2);
        assert_eq!(s.max_inverted_list, 2);
        assert!(format!("{s}").contains("|V|=3"));
    }

    #[test]
    fn label_pair_counts_on_base() {
        let mut b = GraphBuilder::new();
        let x = b.add_node(0);
        let y = b.add_node(0);
        let z = b.add_node(1);
        b.add_edge(x, y); // 0 -> 0
        b.add_edge(x, z); // 0 -> 1
        b.add_edge(y, z); // 0 -> 1
        let g = b.build();
        let m = LabelPairCounts::of(&g);
        assert_eq!(m.num_labels(), 2);
        assert_eq!(m.count(0, 0), 1);
        assert_eq!(m.count(0, 1), 2);
        assert_eq!(m.count(1, 0), 0);
        assert_eq!(m.count(7, 0), 0); // out of label space
    }
}
