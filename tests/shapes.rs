//! Deterministic "shape" assertions behind the paper's headline claims —
//! structural metrics (intermediate tuples, RIG sizes, pass counts), not
//! wall-clock times, so they are stable under CI noise.

use rigmatch::baselines::{Budget, Engine, GmEngine, Jm, Tm};
use rigmatch::core::{GmConfig, Session};
use rigmatch::datasets::spec;
use rigmatch::query::{template, transitive_reduction, Flavor};
use rigmatch::rig::SelectMode;

fn em_fragment(seed: u64) -> rigmatch::graph::DataGraph {
    let s = spec("em").unwrap();
    s.generate(2_000.0 / s.nodes as f64, seed)
}

/// §5.1: MJoin materializes nothing; JM's intermediates exceed its output;
/// TM examines at least as many tree tuples as it reports answers.
#[test]
fn intermediate_result_hierarchy() {
    let g = em_fragment(3);
    let budget = Budget::unlimited();
    let gm = GmEngine::new(g.clone());
    let jm = Jm::new(&g);
    let tm = Tm::new(&g);
    let mut checked = 0;
    for id in [3usize, 6, 8, 15] {
        let q = template(id).instantiate_modulo(Flavor::H, g.num_labels());
        let rg = gm.evaluate(&q, &budget);
        let rj = jm.evaluate(&q, &budget);
        let rt = tm.evaluate(&q, &budget);
        assert_eq!(rg.intermediate_tuples, 0, "HQ{id}");
        assert!(rj.intermediate_tuples >= rj.occurrences, "HQ{id}");
        assert!(rt.intermediate_tuples >= rt.occurrences, "HQ{id}");
        if rg.occurrences > 0 {
            checked += 1;
        }
    }
    assert!(checked > 0, "workload must have non-empty queries");
}

/// Fig. 13's size ordering: refined RIG (double simulation) never exceeds
/// the prefilter-only RIG, which never exceeds the match RIG.
#[test]
fn rig_size_ordering() {
    let g = em_fragment(5);
    let bfl = rigmatch::reach::BflIndex::new(&g);
    for id in [2usize, 6, 10, 11] {
        let q = template(id).instantiate_modulo(Flavor::H, g.num_labels());
        let size = |select| {
            let opts = rigmatch::rig::RigOptions { select, ..rigmatch::rig::RigOptions::exact() };
            let ctx = rigmatch::sim::SimContext::new(&g, &q, &bfl);
            rigmatch::rig::build_rig(&ctx, &opts).stats.size()
        };
        let refined = size(SelectMode::PrefilterThenSim);
        let sim_only = size(SelectMode::SimOnly);
        let pf_only = size(SelectMode::PrefilterOnly);
        let match_rig = size(SelectMode::MatchSets);
        assert!(refined <= pf_only, "HQ{id}: refined {refined} > prefilter {pf_only}");
        assert!(sim_only <= pf_only, "HQ{id}");
        assert!(pf_only <= match_rig, "HQ{id}: prefilter {pf_only} > match {match_rig}");
    }
}

/// §3: transitive reduction removes reachability edges from D-flavor
/// clique/combo templates (the Fig. 15 workload) and never changes counts.
#[test]
fn reduction_effect_on_d_templates() {
    let g = em_fragment(7);
    let strict = Session::with_config(g.clone(), GmConfig::exact());
    let lax =
        Session::with_config(g.clone(), GmConfig { skip_reduction: true, ..GmConfig::exact() });
    let mut total_removed = 0;
    for id in [12usize, 15, 18] {
        let q = template(id).instantiate_modulo(Flavor::D, g.num_labels());
        let r = transitive_reduction(&q);
        total_removed += q.num_edges() - r.num_edges();
        let with = strict.prepare(&q).unwrap().run().limit(50_000).count();
        let without = lax.prepare(&q).unwrap().run().limit(50_000).count();
        assert_eq!(with.result.count, without.result.count, "DQ{id}");
    }
    assert!(total_removed >= 3, "cliques in D flavor must shed transitive edges");
}

/// §4.4 / Fig. 5: on tree queries, the dag-ordered simulation stabilizes
/// in at most two passes ([59]'s single-pass property plus the final
/// no-change pass).
#[test]
fn tree_queries_converge_fast() {
    use rigmatch::reach::BflIndex;
    use rigmatch::sim::{double_simulation, SimAlgorithm, SimContext, SimOptions};
    let g = em_fragment(11);
    let bfl = BflIndex::new(&g);
    for id in [1usize, 2, 4] {
        let q = template(id).instantiate_modulo(Flavor::H, g.num_labels());
        assert_eq!(q.cycle_rank(), 0, "HQ{id} must be a tree");
        let ctx = SimContext::new(&g, &q, &bfl);
        let r = double_simulation(
            &ctx,
            &SimOptions { algorithm: SimAlgorithm::Dag, ..SimOptions::exact() },
        );
        assert!(r.passes <= 2, "HQ{id}: tree took {} passes", r.passes);
    }
}

/// The Budget→failure machinery: a one-tuple intermediate budget forces JM
/// into OM on any non-trivial query while GM is unaffected (Tables 3/5).
#[test]
fn om_model_only_hits_materializing_engines() {
    use rigmatch::core::RunStatus;
    let g = em_fragment(17);
    let tight = Budget { max_intermediate: Some(1), ..Budget::unlimited() };
    let gm = GmEngine::new(g.clone());
    let jm = Jm::new(&g);
    let q = template(3).instantiate_modulo(Flavor::H, g.num_labels());
    let rg = gm.evaluate(&q, &tight);
    let rj = jm.evaluate(&q, &tight);
    assert_eq!(rg.status, RunStatus::Completed);
    if rj.occurrences > 0 || rj.intermediate_tuples > 1 {
        assert_eq!(rj.status, RunStatus::MemoryExceeded);
    }
}
