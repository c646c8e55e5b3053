//! The paper's worked examples, end to end across crates.

use rigmatch::core::{GmConfig, Session};
use rigmatch::datasets::examples::{fig2_graph, fig4_g2};
use rigmatch::query::{fig2_query, transitive_reduction, EdgeKind, PatternQuery};
use rigmatch::reach::BflIndex;
use rigmatch::rig::{build_rig, RigOptions};
use rigmatch::sim::{double_simulation, SimAlgorithm, SimContext, SimOptions};

/// Fig. 2: answer, simulation, RIG and enumeration all cohere.
#[test]
fn fig2_full_pipeline() {
    let g = fig2_graph();
    let q = fig2_query();
    let session = Session::with_config(g, GmConfig::exact());
    let prepared = session.prepare(&q).unwrap();
    let (mut tuples, outcome) = prepared.run().collect(100);
    tuples.sort();
    assert_eq!(tuples, vec![vec![1, 3, 7], vec![2, 5, 9]]);
    assert_eq!(outcome.result.count, 2);
    // RIG is a tiny fraction of the already-tiny graph
    assert!(outcome.metrics.rig_stats.size() > 0);
}

/// Table 1's structural claim: forward-only and backward-only simulations
/// are supersets of the double simulation, which is a superset of the
/// occurrence sets.
#[test]
fn table1_simulation_sandwich() {
    let g = fig2_graph();
    let q = fig2_query();
    let bfl = BflIndex::new(&g);
    let ctx = SimContext::new(&g, &q, &bfl);
    let fb = double_simulation(&ctx, &SimOptions::exact()).fb;
    // occurrence sets from the known answer
    let os = [vec![1u32, 2], vec![3, 5], vec![7, 9]];
    let ms = ctx.match_sets();
    for i in 0..3 {
        for &v in &os[i] {
            assert!(fb[i].contains(v), "os({i}) ⊄ FB({i})");
        }
        assert!(fb[i].is_subset(&ms[i]), "FB({i}) ⊄ ms({i})");
    }
}

/// Fig. 4: the query has an empty answer on G2 and simulation detects it
/// (all candidate sets drain), enabling early termination. Fig. 5: the
/// dag-ordered algorithm needs no more passes than the basic one.
#[test]
fn fig4_fig5_empty_answer_and_convergence() {
    let g = fig4_g2();
    let q = fig2_query();
    let bfl = BflIndex::new(&g);
    let ctx = SimContext::new(&g, &q, &bfl);
    let bas = double_simulation(
        &ctx,
        &SimOptions { algorithm: SimAlgorithm::Basic, trace: true, ..SimOptions::exact() },
    );
    let dag = double_simulation(
        &ctx,
        &SimOptions { algorithm: SimAlgorithm::Dag, trace: true, ..SimOptions::exact() },
    );
    assert!(bas.fb.iter().all(|s| s.is_empty()));
    assert!(dag.fb.iter().all(|s| s.is_empty()));
    assert!(dag.passes <= bas.passes);
    // both traces prune all 10 nodes exactly once
    assert_eq!(bas.pruned, 10);
    assert_eq!(dag.pruned, 10);
    // the matcher short-circuits to zero without enumeration
    let session = Session::with_config(g, GmConfig::exact());
    let outcome = session.prepare(&q).unwrap().run().count();
    assert_eq!(outcome.result.count, 0);
    assert_eq!(outcome.metrics.rig_stats.node_count, 0);
}

/// Fig. 3: transitive closure / reduction of the A => B => C (+ A => C)
/// pattern.
#[test]
fn fig3_reduction() {
    let mut q = PatternQuery::new(vec![0, 1, 2]);
    q.add_edge(0, 1, EdgeKind::Reachability);
    q.add_edge(1, 2, EdgeKind::Reachability);
    q.add_edge(0, 2, EdgeKind::Reachability);
    let r = transitive_reduction(&q);
    assert_eq!(r.num_edges(), 2);
    // and the reduced query has the same answer on the Fig. 2 graph
    let g = fig2_graph();
    let session = Session::with_config(g, GmConfig { skip_reduction: true, ..GmConfig::exact() });
    let full = session.prepare(&q).unwrap().run().count();
    let red = session.prepare(&r).unwrap().run().count();
    assert_eq!(full.result.count, red.result.count);
}

/// Prop. 4.1 on the running example: every homomorphism's edge images are
/// RIG edges — even in the *match* RIG (the largest valid one).
#[test]
fn prop41_rig_losslessness() {
    use rigmatch::rig::SelectMode;
    let g = fig2_graph();
    let q = fig2_query();
    let bfl = BflIndex::new(&g);
    let ctx = SimContext::new(&g, &q, &bfl);
    for select in [SelectMode::MatchSets, SelectMode::PrefilterOnly, SelectMode::SimOnly] {
        let rig = build_rig(&ctx, &RigOptions { select, ..RigOptions::exact() });
        // the two known homomorphisms
        for t in [[1u32, 3, 7], [2, 5, 9]] {
            for (eid, e) in q.edges().iter().enumerate() {
                let u = t[e.from as usize];
                let v = t[e.to as usize];
                let succ = rig.successors(eid as u32, u).expect("adjacency present");
                assert!(succ.contains(v), "{select:?}: edge {eid} image ({u},{v}) missing");
            }
        }
    }
}
