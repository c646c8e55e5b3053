//! Fig. 16 — comparison with the GraphflowDB analogue on C-queries.
//!
//! (a) catalog building time per dataset. The OM cells reproduce the
//!     paper's observed failures via the deterministic memory model (the
//!     rule fires on the *full-scale* Table 2 statistics; see
//!     `rig_baselines::Catalog::BUILD_OOM_EDGES`).
//! (b) GM vs GF query time on the datasets whose catalog builds.
//!
//! Expected shape: GF wins on few-label graphs (am/bs/go), GM wins (by
//! orders of magnitude) on many-label graphs (hu/yt); GF cannot run at all
//! on em/ep/hp.

use rig_baselines::{Catalog, Engine, GfLike, GmEngine};
use rig_bench::{load, template_query_probed, Args, Table};
use rig_datasets::spec;
use rig_query::Flavor;

fn full_scale_catalog_oom(name: &str) -> bool {
    let s = spec(name).unwrap();
    (s.edges >= Catalog::BUILD_OOM_EDGES && s.labels >= Catalog::BUILD_OOM_LABELS)
        || s.labels >= Catalog::BUILD_OOM_LABELS_ALONE
}

fn main() {
    let args = Args::parse();
    let budget = args.budget();
    let all = ["em", "ep", "hp", "yt", "hu", "bs", "go", "am"];

    // ---- (a) catalog build time ----
    let mut ta = Table::new(&["dataset", "catalog[s]", "BFL[s]"]);
    for ds in all {
        if full_scale_catalog_oom(ds) {
            let g = load(ds, &args);
            let bfl = rig_reach::BflIndex::new(&g);
            ta.row(vec![
                ds.into(),
                "OM".into(),
                format!("{:.4}", rig_reach::Reachability::build_seconds(&bfl)),
            ]);
            continue;
        }
        let g = load(ds, &args);
        let cat = Catalog::build(&g).expect("model says this catalog builds");
        let bfl = rig_reach::BflIndex::new(&g);
        ta.row(vec![
            ds.into(),
            format!("{:.3}", cat.build_time.as_secs_f64()),
            format!("{:.4}", rig_reach::Reachability::build_seconds(&bfl)),
        ]);
    }
    ta.print("Fig. 16(a): GF catalog vs GM BFL build time (OM = paper's memory model)");

    // ---- (b) query time on datasets where GF runs ----
    let mut tb = Table::new(&["dataset", "query", "GM", "GF", "matches"]);
    for ds in ["am", "bs", "go", "hu", "yt"] {
        let g = load(ds, &args);
        let gm = GmEngine::new(g.clone());
        let gf = GfLike::new(&g);
        for id in [17usize, 19, 16] {
            let q = template_query_probed(&g, gm.session(), id, Flavor::C, args.seed);
            let rg = gm.evaluate(&q, &budget);
            let rf = gf.evaluate(&q, &budget);
            tb.row(vec![
                ds.into(),
                format!("CQ{id}"),
                rg.display_cell(),
                rf.display_cell(),
                rg.occurrences.to_string(),
            ]);
        }
    }
    tb.print("Fig. 16(b): GM vs GF C-query time [s]");
}
