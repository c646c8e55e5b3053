//! Fig. 9 — C-query evaluation time of GM, TM, JM and ISO.
//!
//! ISO is GM's enumerator with injectivity enforced (the isomorphism
//! semantics of \[53\]); the paper compares it against the homomorphism
//! engines on the same child-edge-only workloads.
//!
//! The homomorphism engines must agree: in every cell where GM's budgeted
//! enumeration finished under the match cap, the binary panics unless the
//! session's unbudgeted `count()`, answered by the factorized DP, gives the
//! same count, and so do TM and JM where they finished too. It prints how
//! many cells it compared.

use rig_baselines::{Budget, Engine, GmEngine, Jm, Tm};
use rig_bench::{finished, load, random_queries, template_query_probed, Args, Table};
use rig_core::{GmConfig, RunReport};
use rig_mjoin::EnumOptions;
use rig_query::{Flavor, PatternQuery};

fn iso_config(budget: &Budget) -> GmConfig {
    GmConfig {
        enumeration: EnumOptions {
            injective: true,
            limit: budget.match_limit,
            timeout: budget.timeout,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Checks one cell's counts (see the module docs). Returns whether the
/// cell was compared: GM's enumeration finished and the DP answered the
/// unbudgeted count (the cyclic cost guard may route it to enumeration).
fn check_counts(
    gm: &GmEngine,
    q: &PatternQuery,
    cell: &str,
    budget: &Budget,
    rg: &RunReport,
    others: [&RunReport; 2],
) -> bool {
    if !finished(rg, budget) {
        return false;
    }
    for r in others.into_iter().filter(|r| finished(r, budget)) {
        assert_eq!(r.occurrences, rg.occurrences, "{cell}: {} disagrees with GM", r.engine);
    }
    let Ok(prepared) = gm.session().prepare(q) else { return false };
    let outcome = prepared.run().count();
    if !outcome.metrics.counted_via_factorization {
        return false;
    }
    assert_eq!(outcome.result.count, rg.occurrences, "{cell}: the DP disagrees with GM");
    true
}

fn main() {
    let args = Args::parse();
    let budget = args.budget();
    let mut compared = 0usize;
    let ids = [0usize, 3, 5, 6, 8, 17, 11, 12, 19, 10, 13, 14];

    for ds in ["ep", "bs"] {
        let g = std::sync::Arc::new(load(ds, &args));
        println!("# dataset {ds}: {:?}", g.stats());
        let gm = GmEngine::new(g.clone());
        let iso = GmEngine::with_config(g.clone(), iso_config(&budget), "ISO");
        let tm = Tm::new(&g);
        let jm = Jm::new(&g);
        let mut table = Table::new(&["query", "GM", "TM", "JM", "ISO", "matches"]);
        for id in ids {
            let q = template_query_probed(&g, gm.session(), id, Flavor::C, args.seed);
            let rg = gm.evaluate(&q, &budget);
            let rt = tm.evaluate(&q, &budget);
            let rj = jm.evaluate(&q, &budget);
            let ri = iso.evaluate(&q, &budget);
            let cell = format!("{ds} CQ{id}");
            compared += usize::from(check_counts(&gm, &q, &cell, &budget, &rg, [&rt, &rj]));
            table.row(vec![
                format!("CQ{id}"),
                rg.display_cell(),
                rt.display_cell(),
                rj.display_cell(),
                ri.display_cell(),
                rg.occurrences.to_string(),
            ]);
        }
        table.print(&format!("Fig. 9 ({ds}) C-query time [s]"));
    }

    // hu: random C-queries by size
    let g = std::sync::Arc::new(load("hu", &args));
    println!("# dataset hu: {:?}", g.stats());
    let gm = GmEngine::new(g.clone());
    let iso = GmEngine::with_config(g.clone(), iso_config(&budget), "ISO");
    let tm = Tm::new(&g);
    let jm = Jm::new(&g);
    let mut table = Table::new(&["query", "GM", "TM", "JM", "ISO", "matches"]);
    for (name, q) in random_queries(&g, &[4, 8, 12, 16, 20], Flavor::C, args.seed) {
        let rg = gm.evaluate(&q, &budget);
        let rt = tm.evaluate(&q, &budget);
        let rj = jm.evaluate(&q, &budget);
        let ri = iso.evaluate(&q, &budget);
        let cell = format!("hu {name}");
        compared += usize::from(check_counts(&gm, &q, &cell, &budget, &rg, [&rt, &rj]));
        table.row(vec![
            name,
            rg.display_cell(),
            rt.display_cell(),
            rj.display_cell(),
            ri.display_cell(),
            rg.occurrences.to_string(),
        ]);
    }
    table.print("Fig. 9 (hu) random C-query time [s]");
    println!(
        "# counts: GM enumeration = DP count (and TM/JM where finished) in {compared} cell(s)"
    );
}
