//! Synthetic dataset generators calibrated to the paper's Table 2.
//!
//! The paper evaluates on nine SNAP graphs (yeast … google). Those files
//! are not redistributable here, so this crate generates *synthetic stand-
//! ins* matched on the Table 2 statistics — |V|, |E|, |L| and average
//! degree — using the structural model appropriate to each domain
//! (preferential attachment for social/web/product graphs, Erdős–Rényi for
//! biological and communication graphs) and a Zipf label distribution
//! (real label frequencies are heavily skewed). The experiments compare
//! engines on identical inputs, so matching these statistics preserves
//! their shape even though absolute times differ (README, "Experiment
//! harnesses").
//!
//! Every generator is deterministic in `(spec, scale, seed)`.
//!
//! The [`examples`] module holds the paper's worked examples (the Fig. 2
//! data graph, the Fig. 4 pruning-cascade graph G2) used across the
//! workspace's tests and docs.

pub mod examples;
mod generators;

pub use generators::{erdos_renyi, scale_free, zipf_labels};

use rig_graph::DataGraph;

/// Structural model used for a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Directed preferential attachment (heavy-tailed degrees).
    ScaleFree,
    /// Uniform random edges.
    ErdosRenyi,
}

/// Calibration record for one Table 2 dataset.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Short name used throughout the paper ("em", "ep", ...).
    pub name: &'static str,
    /// Full SNAP dataset name.
    pub full_name: &'static str,
    /// Target |V| at scale 1.0.
    pub nodes: usize,
    /// Target |E| at scale 1.0.
    pub edges: usize,
    /// Number of distinct labels.
    pub labels: usize,
    pub model: Model,
}

impl DatasetSpec {
    /// Generates the graph at `scale ∈ (0, 1]` (nodes and edges scaled
    /// linearly; statistics like average degree are preserved).
    pub fn generate(&self, scale: f64, seed: u64) -> DataGraph {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let n = ((self.nodes as f64 * scale).round() as usize).max(16);
        let m = ((self.edges as f64 * scale).round() as usize).max(32);
        let g = match self.model {
            Model::ScaleFree => scale_free(n, m, seed),
            Model::ErdosRenyi => erdos_renyi(n, m, seed),
        };
        zipf_labels(&g, self.labels, 0.8, seed ^ 0x1abe1)
    }
}

/// Table 2 of the paper, as calibration targets.
pub static CATALOG: [DatasetSpec; 9] = [
    DatasetSpec {
        name: "yt",
        full_name: "Yeast",
        nodes: 3_100,
        edges: 12_000,
        labels: 71,
        model: Model::ErdosRenyi,
    },
    DatasetSpec {
        name: "hu",
        full_name: "Human",
        nodes: 4_600,
        edges: 86_000,
        labels: 44,
        model: Model::ErdosRenyi,
    },
    DatasetSpec {
        name: "hp",
        full_name: "HPRD",
        nodes: 9_400,
        edges: 35_000,
        labels: 307,
        model: Model::ErdosRenyi,
    },
    DatasetSpec {
        name: "ep",
        full_name: "Epinions",
        nodes: 76_000,
        edges: 509_000,
        labels: 20,
        model: Model::ScaleFree,
    },
    DatasetSpec {
        name: "db",
        full_name: "DBLP",
        nodes: 317_000,
        edges: 1_049_000,
        labels: 20,
        model: Model::ScaleFree,
    },
    DatasetSpec {
        name: "em",
        full_name: "Email",
        nodes: 265_000,
        edges: 420_000,
        labels: 20,
        model: Model::ErdosRenyi,
    },
    DatasetSpec {
        name: "am",
        full_name: "Amazon",
        nodes: 403_000,
        edges: 3_500_000,
        labels: 3,
        model: Model::ScaleFree,
    },
    DatasetSpec {
        name: "bs",
        full_name: "BerkStan",
        nodes: 685_000,
        edges: 7_600_000,
        labels: 5,
        model: Model::ScaleFree,
    },
    DatasetSpec {
        name: "go",
        full_name: "Google",
        nodes: 876_000,
        edges: 5_100_000,
        labels: 5,
        model: Model::ScaleFree,
    },
];

/// Looks up a dataset spec by its short name.
pub fn spec(name: &str) -> Option<&'static DatasetSpec> {
    CATALOG.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_lookup() {
        assert_eq!(spec("em").unwrap().full_name, "Email");
        assert_eq!(spec("go").unwrap().labels, 5);
        assert!(spec("nope").is_none());
    }

    #[test]
    fn generated_stats_track_spec() {
        let s = spec("yt").unwrap();
        let g = s.generate(1.0, 7);
        let stats = g.stats();
        // node count exact, edge count within 15% (dedup of random edges)
        assert_eq!(stats.nodes, s.nodes);
        assert!(
            (stats.edges as f64 - s.edges as f64).abs() / (s.edges as f64) < 0.15,
            "edges {} vs target {}",
            stats.edges,
            s.edges
        );
        assert_eq!(stats.labels, s.labels);
    }

    #[test]
    fn scaling_shrinks_proportionally() {
        let s = spec("ep").unwrap();
        let g = s.generate(0.01, 3);
        assert!((g.num_nodes() as f64 - s.nodes as f64 * 0.01).abs() < 2.0);
    }

    #[test]
    fn deterministic() {
        let s = spec("em").unwrap();
        let a = s.generate(0.002, 11);
        let b = s.generate(0.002, 11);
        assert_eq!(rig_graph::to_text(&a), rig_graph::to_text(&b));
        let c = s.generate(0.002, 12);
        assert_ne!(rig_graph::to_text(&a), rig_graph::to_text(&c));
    }

    #[test]
    fn scale_free_has_heavier_tail_than_er() {
        let sf = scale_free(2000, 10_000, 5);
        let er = erdos_renyi(2000, 10_000, 5);
        let max_sf = (0..2000u32).map(|v| sf.in_degree(v)).max().unwrap();
        let max_er = (0..2000u32).map(|v| er.in_degree(v)).max().unwrap();
        assert!(max_sf > 2 * max_er, "scale-free max in-degree {max_sf} vs ER {max_er}");
    }
}
