//! Fig. 17 — GM-JO / GM-RI vs the RapidMatch analogue on the (undirected,
//! dense) Human graph: mean query time for dense and sparse query sets of
//! 8–20 nodes.
//!
//! Expected shape: GM-JO best on dense query sets, GM-RI best on sparse
//! ones (cardinality differences vanish on sparse queries, §7.5), RM in
//! between.
//!
//! The engines must agree: the binary panics unless GM-JO, GM-RI and RM
//! give the same count for every query all three finished under the match
//! cap, and prints how many queries it compared.

use rig_baselines::{Engine, GmEngine, RmLike};
use rig_bench::{check_agreement, load, Args, Table};
use rig_core::GmConfig;
use rig_mjoin::{EnumOptions, SearchOrder};
use rig_query::{random_query, Flavor, GeneratorConfig};

fn main() {
    let args = Args::parse();
    let budget = args.budget();
    // RM considers undirected graphs: store both edge directions (§7.5)
    let hu = load("hu", &args);
    let mut b = rig_graph::GraphBuilder::new();
    for v in 0..hu.num_nodes() as u32 {
        b.add_node(hu.label(v));
    }
    for (u, v) in hu.edges() {
        b.add_edge(u, v);
        b.add_edge(v, u);
    }
    let g = b.build();
    println!("# undirected hu: {:?}", g.stats());

    let gm_jo = GmEngine::with_config(
        g.clone(),
        GmConfig {
            enumeration: EnumOptions { order: SearchOrder::Jo, ..Default::default() },
            ..Default::default()
        },
        "GM-JO",
    );
    let gm_ri = GmEngine::with_config(
        g.clone(),
        GmConfig {
            enumeration: EnumOptions { order: SearchOrder::Ri, ..Default::default() },
            ..Default::default()
        },
        "GM-RI",
    );
    let rm = RmLike::new(&g);

    let mut compared = 0usize;
    for dense in [true, false] {
        let mut table = Table::new(&["size", "GM-JO", "GM-RI", "RM"]);
        for n in [8usize, 12, 16, 20] {
            let mut sums = [0.0f64; 3];
            let mut runs = 0;
            for rep in 0..3u64 {
                let mut cfg = GeneratorConfig::new(n, Flavor::C, args.seed + rep * 131 + n as u64);
                if dense {
                    cfg = cfg.dense();
                }
                let Some(q) = random_query(&g, &cfg) else { continue };
                runs += 1;
                let reports = [&gm_jo as &dyn Engine, &gm_ri, &rm].map(|e| e.evaluate(&q, &budget));
                let kind = if dense { "dense" } else { "sparse" };
                let cell = format!("{kind} {n}N rep {rep}");
                compared += usize::from(check_agreement(&cell, &budget, &reports.each_ref()));
                for (sum, r) in sums.iter_mut().zip(&reports) {
                    *sum += r.secs();
                }
            }
            if runs == 0 {
                continue;
            }
            table.row(vec![
                format!("{n}N"),
                format!("{:.4}", sums[0] / runs as f64),
                format!("{:.4}", sums[1] / runs as f64),
                format!("{:.4}", sums[2] / runs as f64),
            ]);
        }
        let kind = if dense { "dense" } else { "sparse" };
        table.print(&format!("Fig. 17 ({kind} query sets on Human): mean time [s]"));
    }
    println!("# counts: GM-JO = GM-RI = RM in {compared} query(s)");
}
