//! The 20 query templates of Fig. 7, reconstructed.
//!
//! The paper's figure is graphical and not included in the text, so the
//! exact drawings are not recoverable; these templates are reconstructed to
//! satisfy every textual constraint of the paper: the class grouping
//! used by Figs. 8/9/12/13 — Acyc {HQ0, HQ3, HQ5}, Cyc {HQ6, HQ8, HQ17},
//! Clique {HQ11, HQ12, HQ19}, Combo {HQ10, HQ13, HQ14, HQ16} — plus HQ2
//! being a tree pattern (§7.3) and HQ19 a 7-clique (§7.2).
//!
//! Templates are structural: node labels are chosen at instantiation time.
//! A template instantiates into three *flavors* (§7.1): **C** (all direct
//! edges), **D** (all reachability edges), and **H** (hybrid — edges
//! alternate kinds, giving the 50% mix the paper uses).

use crate::{EdgeKind, PatternQuery, QueryClass};
use rig_graph::Label;

/// Identifier of a Fig. 7 template: `0..=19`.
pub type TemplateId = usize;

/// Number of templates.
pub fn template_count() -> usize {
    TEMPLATES.len()
}

/// Edge-kind flavor of an instantiated template (§7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flavor {
    /// Child-edge-only queries (`CQ*`).
    C,
    /// Hybrid queries (`HQ*`): edges alternate direct / reachability.
    H,
    /// Descendant-edge-only queries (`DQ*`).
    D,
}

/// A structural query template.
#[derive(Debug, Clone, Copy)]
pub struct Template {
    pub id: TemplateId,
    pub num_nodes: usize,
    pub edges: &'static [(u32, u32)],
    pub class: QueryClass,
}

impl Template {
    /// Instantiates with explicit labels (`labels.len() == num_nodes`).
    pub fn instantiate(&self, flavor: Flavor, labels: &[Label]) -> PatternQuery {
        assert_eq!(labels.len(), self.num_nodes, "template {} arity", self.id);
        let mut q = PatternQuery::new(labels.to_vec());
        for (i, &(a, b)) in self.edges.iter().enumerate() {
            let kind = match flavor {
                Flavor::C => EdgeKind::Direct,
                Flavor::D => EdgeKind::Reachability,
                Flavor::H => {
                    if i % 2 == 0 {
                        EdgeKind::Direct
                    } else {
                        EdgeKind::Reachability
                    }
                }
            };
            q.add_edge(a, b, kind);
        }
        q
    }

    /// Instantiates with labels `node_id % num_labels` — the deterministic
    /// assignment used by the harnesses when no workload seed is given.
    pub fn instantiate_modulo(&self, flavor: Flavor, num_labels: usize) -> PatternQuery {
        let labels: Vec<Label> =
            (0..self.num_nodes).map(|i| (i % num_labels.max(1)) as Label).collect();
        self.instantiate(flavor, &labels)
    }
}

/// Returns template `id` (panics if `id >= 20`).
pub fn template(id: TemplateId) -> Template {
    TEMPLATES[id]
}

macro_rules! tpl {
    ($id:expr, $n:expr, $class:expr, [$(($a:expr, $b:expr)),* $(,)?]) => {
        Template { id: $id, num_nodes: $n, edges: &[$(($a, $b)),*], class: $class }
    };
}

use QueryClass::*;

/// The reconstructed Fig. 7 templates. All are oriented `small -> large`
/// node id, so the directed structure is acyclic (cyclic *directed*
/// patterns are exercised separately by the generator tests).
static TEMPLATES: [Template; 20] = [
    // ---- acyclic (undirected trees) ----
    // HQ0: 4-node out-star with a tail
    tpl!(0, 4, Acyclic, [(0, 1), (0, 2), (2, 3)]),
    // HQ1: 4-node directed path
    tpl!(1, 4, Acyclic, [(0, 1), (1, 2), (2, 3)]),
    // HQ2: 5-node tree (the "tree pattern query" of §7.3)
    tpl!(2, 5, Acyclic, [(0, 1), (0, 2), (1, 3), (1, 4)]),
    // HQ3: 6-node tree, two levels
    tpl!(3, 6, Acyclic, [(0, 1), (0, 2), (1, 3), (2, 4), (2, 5)]),
    // HQ4: 7-node wide star-of-paths
    tpl!(4, 7, Acyclic, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)]),
    // HQ5: 8-node caterpillar
    tpl!(5, 8, Acyclic, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (3, 6), (3, 7)]),
    // ---- cyclic (one or two undirected cycles) ----
    // HQ6: diamond (1 cycle)
    tpl!(6, 4, Cyclic, [(0, 1), (0, 2), (1, 3), (2, 3)]),
    // HQ7: 4-cycle with a tail node
    tpl!(7, 5, Cyclic, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]),
    // HQ8: two stacked diamonds (2 cycles)
    tpl!(8, 6, Cyclic, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)]),
    // HQ9: 5-node, 2 cycles sharing an edge
    tpl!(9, 5, Cyclic, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)]),
    // ---- combo (more than two independent cycles, not complete) ----
    // HQ10: 6 nodes, 9 edges (rank 4)
    tpl!(10, 6, Combo, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)]),
    // ---- cliques ----
    // HQ11: 4-clique
    tpl!(11, 4, Clique, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    // HQ12: 5-clique
    tpl!(
        12,
        5,
        Clique,
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    ),
    // ---- more combo ----
    // HQ13: 7 nodes, 10 edges (rank 4)
    tpl!(
        13,
        7,
        Combo,
        [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 6), (5, 6), (2, 6)]
    ),
    // HQ14: 8 nodes, 12 edges (rank 5) — the big combo both TM and JM fail on
    tpl!(
        14,
        8,
        Combo,
        [
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (1, 4),
            (2, 5),
            (4, 5),
            (4, 6),
            (5, 7),
            (6, 7),
            (3, 6),
            (3, 7)
        ]
    ),
    // HQ15: 7 nodes, 9 edges (rank 3)
    tpl!(15, 7, Combo, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6), (0, 3)]),
    // HQ16: 9 nodes, 13 edges (rank 5)
    tpl!(
        16,
        9,
        Combo,
        [
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (3, 5),
            (4, 6),
            (5, 6),
            (6, 7),
            (6, 8),
            (7, 8),
            (2, 5),
            (1, 4)
        ]
    ),
    // HQ17: 8 nodes, 2 cycles
    tpl!(17, 8, Cyclic, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5), (5, 6), (4, 7), (6, 7)]),
    // HQ18: 6-clique
    tpl!(
        18,
        6,
        Clique,
        [
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (0, 5),
            (1, 2),
            (1, 3),
            (1, 4),
            (1, 5),
            (2, 3),
            (2, 4),
            (2, 5),
            (3, 4),
            (3, 5),
            (4, 5)
        ]
    ),
    // HQ19: 7-clique (§7.2: "the 7-clique query HQ19")
    tpl!(
        19,
        7,
        Clique,
        [
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (0, 5),
            (0, 6),
            (1, 2),
            (1, 3),
            (1, 4),
            (1, 5),
            (1, 6),
            (2, 3),
            (2, 4),
            (2, 5),
            (2, 6),
            (3, 4),
            (3, 5),
            (3, 6),
            (4, 5),
            (4, 6),
            (5, 6)
        ]
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_templates_connected_and_classed() {
        assert_eq!(template_count(), 20);
        for id in 0..20 {
            let t = template(id);
            assert_eq!(t.id, id);
            let q = t.instantiate_modulo(Flavor::H, 4);
            assert!(q.is_connected(), "HQ{id} disconnected");
            assert!(q.is_dag(), "HQ{id} not a dag");
            assert_eq!(q.class(), t.class, "HQ{id} class mismatch");
            assert_eq!(q.num_nodes(), t.num_nodes);
        }
    }

    #[test]
    fn paper_class_grouping_holds() {
        for id in [0, 3, 5] {
            assert_eq!(template(id).class, QueryClass::Acyclic, "HQ{id}");
        }
        for id in [6, 8, 17] {
            assert_eq!(template(id).class, QueryClass::Cyclic, "HQ{id}");
        }
        for id in [11, 12, 19] {
            assert_eq!(template(id).class, QueryClass::Clique, "HQ{id}");
        }
        for id in [10, 13, 14, 16] {
            assert_eq!(template(id).class, QueryClass::Combo, "HQ{id}");
        }
    }

    #[test]
    fn hq2_is_a_tree_and_hq19_a_7_clique() {
        let hq2 = template(2).instantiate_modulo(Flavor::H, 3);
        assert_eq!(hq2.cycle_rank(), 0);
        assert_eq!(hq2.num_edges(), hq2.num_nodes() - 1);
        let hq19 = template(19);
        assert_eq!(hq19.num_nodes, 7);
        assert_eq!(hq19.edges.len(), 21);
    }

    #[test]
    fn flavors_control_edge_kinds() {
        let t = template(6);
        let c = t.instantiate_modulo(Flavor::C, 2);
        assert_eq!(c.reachability_edge_count(), 0);
        let d = t.instantiate_modulo(Flavor::D, 2);
        assert_eq!(d.reachability_edge_count(), d.num_edges());
        let h = t.instantiate_modulo(Flavor::H, 2);
        let r = h.reachability_edge_count();
        assert!(r > 0 && r < h.num_edges());
    }

    #[test]
    fn explicit_labels_respected() {
        let q = template(0).instantiate(Flavor::C, &[9, 8, 7, 6]);
        assert_eq!(q.labels(), &[9, 8, 7, 6]);
    }

    #[test]
    #[should_panic]
    fn wrong_arity_panics() {
        template(0).instantiate(Flavor::C, &[1, 2]);
    }
}
