//! Table 4 — search-order effectiveness: GM-RI vs GM-JO vs GM-BJ on the
//! H-queries HQ2, HQ3, HQ4, HQ15, HQ18 over em and ep.
//!
//! Expected shape: GM-JO best overall, GM-BJ close behind, GM-RI worst on
//! most hybrid queries (topology-only ordering ignores data statistics).
//!
//! The orders must not change the answer: the binary panics unless the
//! three engines give the same count in every cell where all of them
//! finished under the match cap, and prints how many cells it compared.

use rig_baselines::{Engine, GmEngine};
use rig_bench::{check_agreement, load, template_query_probed, Args, Table};
use rig_core::GmConfig;
use rig_mjoin::{EnumOptions, SearchOrder};
use rig_query::Flavor;

fn main() {
    let args = Args::parse();
    let budget = args.budget();
    let ids = [2usize, 3, 4, 15, 18];

    let mut table = Table::new(&[
        "query", "em GM-RI", "em GM-JO", "em GM-BJ", "ep GM-RI", "ep GM-JO", "ep GM-BJ",
    ]);
    let em = load("em", &args);
    let ep = load("ep", &args);
    println!("# em: {:?}\n# ep: {:?}", em.stats(), ep.stats());

    let make = |g: &rig_graph::DataGraph, order, name| {
        GmEngine::with_config(
            g.clone(),
            GmConfig {
                enumeration: EnumOptions { order, ..Default::default() },
                ..Default::default()
            },
            name,
        )
    };
    let engines_em = [
        make(&em, SearchOrder::Ri, "GM-RI"),
        make(&em, SearchOrder::Jo, "GM-JO"),
        make(&em, SearchOrder::Bj, "GM-BJ"),
    ];
    let engines_ep = [
        make(&ep, SearchOrder::Ri, "GM-RI"),
        make(&ep, SearchOrder::Jo, "GM-JO"),
        make(&ep, SearchOrder::Bj, "GM-BJ"),
    ];

    let mut compared = 0usize;
    for id in ids {
        let mut row = vec![format!("HQ{id}")];
        for (ds, g, engines) in [("em", &em, &engines_em), ("ep", &ep, &engines_ep)] {
            let q = template_query_probed(g, engines[1].session(), id, Flavor::H, args.seed);
            let reports = engines.each_ref().map(|e| e.evaluate(&q, &budget));
            let cell = format!("{ds} HQ{id}");
            compared += usize::from(check_agreement(&cell, &budget, &reports.each_ref()));
            row.extend(reports.iter().map(|r| r.display_cell()));
        }
        table.row(row);
    }
    table.print("Table 4: search ordering methods, H-queries [s]");
    println!("# counts: GM-RI = GM-JO = GM-BJ in {compared} cell(s)");
}
