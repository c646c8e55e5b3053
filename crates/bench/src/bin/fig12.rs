//! Fig. 12 — micro-ablations on em.
//!
//! (a) child-constraint checking inside double simulation: binSearch vs
//!     bitIter vs bitBat, on C-queries (expected: bitBat ≫ bitIter ≫
//!     binSearch).
//! (b) simulation relation construction: Gra (FBSimBas) vs Dag (FBSimDag)
//!     vs DagMap (FBSimDag + change flags), on H-queries; plus the Dag+Δ
//!     comparison on cyclic variants.
//!
//! Every variant must compute the same FB sets for a query; the binary
//! panics if two of them disagree, so a run doubles as an ablation check.

use std::time::Instant;

use rig_bench::{load, template_query, Args, Table};
use rig_query::{EdgeKind, Flavor};
use rig_reach::BflIndex;
use rig_sim::{double_simulation, DirectCheckMode, SimAlgorithm, SimContext, SimOptions};

fn main() {
    let args = Args::parse();
    let g = load("em", &args);
    println!("# dataset em: {:?}", g.stats());
    let bfl = BflIndex::new(&g);
    let ids = [0usize, 3, 5, 6, 8, 17, 11, 12, 19, 10, 14, 16];

    // ---- (a) child-constraint checking modes ----
    let mut ta = Table::new(&["query", "binSearch", "bitIter", "bitBat"]);
    for id in ids {
        let q = template_query(&g, id, Flavor::C, args.seed);
        let ctx = SimContext::new(&g, &q, &bfl);
        let mut cells = vec![format!("CQ{id}")];
        let mut fbs = Vec::new();
        for mode in [DirectCheckMode::BinSearch, DirectCheckMode::BitIter, DirectCheckMode::BitBat]
        {
            let opts = SimOptions { direct_mode: mode, ..SimOptions::exact() };
            let t = Instant::now();
            let r = double_simulation(&ctx, &opts);
            cells.push(format!("{:.4}", t.elapsed().as_secs_f64()));
            fbs.push(r.fb);
        }
        assert_same_fb(&fbs, &format!("CQ{id}"));
        ta.row(cells);
    }
    ta.print("Fig. 12(a): child-constraint check time on em [s]");

    // ---- (b) simulation construction algorithms ----
    let mut tb = Table::new(&["query", "Gra", "Dag", "DagMap"]);
    for id in ids {
        let q = template_query(&g, id, Flavor::H, args.seed);
        let ctx = SimContext::new(&g, &q, &bfl);
        let mut cells = vec![format!("HQ{id}")];
        let mut fbs = Vec::new();
        for (alg, flags) in
            [(SimAlgorithm::Basic, false), (SimAlgorithm::Dag, false), (SimAlgorithm::Dag, true)]
        {
            let opts = SimOptions { algorithm: alg, change_flags: flags, ..SimOptions::exact() };
            let t = Instant::now();
            let r = double_simulation(&ctx, &opts);
            cells.push(format!("{:.4}", t.elapsed().as_secs_f64()));
            fbs.push(r.fb);
        }
        assert_same_fb(&fbs, &format!("HQ{id}"));
        tb.row(cells);
    }
    tb.print("Fig. 12(b): FB construction time on em [s]");

    // ---- Dag+Δ on cyclic variants (the §7.4 'Gra vs Dag+Δ' remark) ----
    let mut tc = Table::new(&["query", "Gra", "Dag+Δ"]);
    for id in [6usize, 8, 10] {
        // make a cyclic variant by closing a directed cycle: add a
        // reachability back edge from the template's last node to node 0
        let base = template_query(&g, id, Flavor::H, args.seed);
        let mut q = base.clone();
        q.ensure_edge(base.num_nodes() as u32 - 1, 0, EdgeKind::Reachability);
        assert!(!q.is_dag(), "HQ{id} variant must be cyclic");
        let ctx = SimContext::new(&g, &q, &bfl);
        let mut cells = vec![format!("HQ{id}-cyc")];
        let mut fbs = Vec::new();
        for alg in [SimAlgorithm::Basic, SimAlgorithm::DagDelta] {
            let opts = SimOptions { algorithm: alg, ..SimOptions::exact() };
            let t = Instant::now();
            let r = double_simulation(&ctx, &opts);
            cells.push(format!("{:.4}", t.elapsed().as_secs_f64()));
            fbs.push(r.fb);
        }
        assert_same_fb(&fbs, &format!("HQ{id}-cyc"));
        tc.row(cells);
    }
    tc.print("§7.4: Gra vs Dag+Δ on cyclic patterns [s]");
}

/// Panics unless the FB sets of every variant (one entry per column) agree.
fn assert_same_fb<T: PartialEq>(fbs: &[T], query: &str) {
    assert!(fbs.iter().all(|fb| fb == &fbs[0]), "{query}: the variants compute different FB sets");
}
