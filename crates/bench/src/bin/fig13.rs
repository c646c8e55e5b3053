//! Fig. 13 — RIG size, construction time and total query time for the
//! selection-mode ablations on ep:
//!
//! * GM   = pre-filter + double simulation (seeded)
//! * GM-S = double simulation only
//! * GM-F = pre-filter only (no simulation)
//! * TM   = the tree answer graph, for reference
//!
//! Expected shape: GM/GM-S build the smallest auxiliary structure (≈0.4%
//! of the graph in the paper), GM-F an order of magnitude larger; smaller
//! RIG ⇒ faster enumeration.

use rig_baselines::{Engine, GmEngine, Tm};
use rig_bench::{load, template_query_probed, Args, Table};
use rig_core::{GmConfig, SelectMode, Session};
use rig_index::{build_rig, Rig, RigOptions};
use rig_query::Flavor;
use rig_query::PatternQuery;
use rig_sim::SimContext;

fn main() {
    let args = Args::parse();
    let budget = args.budget();
    let g = load("ep", &args);
    println!("# dataset ep: {:?}", g.stats());
    let gsize = (g.num_nodes() + g.num_edges()) as f64;
    let ids = [0usize, 3, 5, 6, 8, 17, 11, 12, 19, 10, 13, 16];

    let g_arc = std::sync::Arc::new(g.clone());
    let session = Session::new(std::sync::Arc::clone(&g_arc));
    let bfl = session.bfl();
    // one engine per variant, hoisted out of the query loop: constructing
    // a GmEngine builds a Session (graph share + BFL) — doing that per
    // (query, variant) pair would dominate the numbers being measured
    let engines: Vec<(SelectMode, GmEngine)> =
        [SelectMode::PrefilterThenSim, SelectMode::SimOnly, SelectMode::PrefilterOnly]
            .into_iter()
            .map(|select| {
                let cfg = GmConfig {
                    rig: RigOptions { select, ..RigOptions::default() },
                    ..Default::default()
                };
                (select, GmEngine::with_config(std::sync::Arc::clone(&g_arc), cfg, "GM-variant"))
            })
            .collect();
    let build_only = |q: &PatternQuery, opts: &RigOptions| -> Rig {
        let ctx = SimContext::new(&g, q, &*bfl);
        build_rig(&ctx, &bfl, opts)
    };
    let tm = Tm::new(&g);

    let mut size_t = Table::new(&["query", "GM%", "GM-S%", "GM-F%", "TM%"]);
    let mut build_t = Table::new(&["query", "GM", "GM-S", "GM-F", "TM"]);
    let mut query_t = Table::new(&["query", "GM", "GM-S", "GM-F", "TM"]);

    for id in ids {
        let q = template_query_probed(&g, &session, id, Flavor::H, args.seed);
        let mut sizes = vec![format!("HQ{id}")];
        let mut builds = vec![format!("HQ{id}")];
        let mut times = vec![format!("HQ{id}")];
        for (select, eng) in &engines {
            let opts = RigOptions { select: *select, ..RigOptions::default() };
            let rig = build_only(&q, &opts);
            sizes.push(format!("{:.3}", 100.0 * rig.stats.size() as f64 / gsize));
            builds.push(format!(
                "{:.4}",
                (rig.stats.select_time + rig.stats.expand_time).as_secs_f64()
            ));
            // total query time through the engine adapter
            let r = eng.evaluate(&q, &budget);
            times.push(r.display_cell());
        }
        // TM: answer-graph size via its report
        let rt = tm.evaluate(&q, &budget);
        sizes.push(format!("{:.3}", 100.0 * rt.aux_size as f64 / gsize));
        builds.push(format!("{:.4}", rt.matching_time.as_secs_f64()));
        times.push(rt.display_cell());
        size_t.row(sizes);
        build_t.row(builds);
        query_t.row(times);
    }

    size_t.print("Fig. 13(a): auxiliary-structure size, % of |G| (nodes+edges)");
    build_t.print("Fig. 13(b): auxiliary-structure construction time [s]");
    query_t.print("Fig. 13(c): total query time [s]");
}
