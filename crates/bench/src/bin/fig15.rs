//! Fig. 15 — effect of query transitive reduction (§3) on D-query time,
//! on em and ep: GM (reduced) vs GM-NR (no reduction) vs TM (reduced).
//!
//! The D-flavor instances of the clique/combo templates contain transitive
//! reachability edges (e.g. a chord over a 2-edge path), which is exactly
//! the redundancy Fig. 14 illustrates.
//!
//! Reduction never changes an answer (§3): wherever GM, GM-NR and TM all
//! complete a query, the binary panics unless their match counts agree.

use rig_baselines::{Engine, GmEngine, Tm};
use rig_bench::{load, template_query_probed, Args, Table};
use rig_core::{GmConfig, RunStatus};
use rig_query::{transitive_reduction, Flavor};

fn main() {
    let args = Args::parse();
    let budget = args.budget();
    let ids = [12usize, 14, 15, 16, 18];

    for ds in ["em", "ep"] {
        let g = load(ds, &args);
        println!("# dataset {ds}: {:?}", g.stats());
        let gm = GmEngine::new(g.clone());
        let gm_nr = GmEngine::with_config(
            g.clone(),
            GmConfig { skip_reduction: true, ..Default::default() },
            "GM-NR",
        );
        let tm = Tm::new(&g);
        let mut table = Table::new(&["query", "edges", "reduced", "GM", "GM-NR", "TM", "matches"]);
        for id in ids {
            let q = template_query_probed(&g, gm.session(), id, Flavor::D, args.seed);
            let reduced = transitive_reduction(&q);
            let rg = gm.evaluate(&q, &budget);
            let rn = gm_nr.evaluate(&q, &budget);
            let rt = tm.evaluate(&reduced, &budget);
            let runs = [&rg, &rn, &rt];
            if runs.iter().all(|r| r.status == RunStatus::Completed) {
                assert!(
                    runs.iter().all(|r| r.occurrences == rg.occurrences),
                    "{ds} DQ{id}: reduction changed the answer (GM {}, GM-NR {}, TM {})",
                    rg.occurrences,
                    rn.occurrences,
                    rt.occurrences
                );
            }
            table.row(vec![
                format!("DQ{id}"),
                q.num_edges().to_string(),
                reduced.num_edges().to_string(),
                rg.display_cell(),
                rn.display_cell(),
                rt.display_cell(),
                rg.occurrences.to_string(),
            ]);
        }
        table.print(&format!("Fig. 15 ({ds}): D-queries with/without reduction [s]"));
    }
}
