//! The correctness matrix: every way rigmatch computes an answer must
//! return exactly the oracle's homomorphisms (see `testkit`).
//!
//! One case is a (regime, shape, seed) row of the table below: a graph
//! regime (one giant SCC, many small SCCs, a DAG), a query shape (HQ0 and
//! HQ13 memo shapes, HQ6 and HQ8 diamonds, trees and triangles) and a
//! seed. Each case samples, rather than multiplies out, the other
//! dimensions (`testkit::Dims`): the search order (Jo, Ri, Bj), the
//! selection mode, the direct-check mode, the budget (none, exact and
//! flagged limits, a past deadline) and the store the graph reached its
//! state through (clean, dirty, rebased with an extended or a rebuilt
//! index, compacted, recovered from the WAL). Every case then runs all
//! engines: MJoin, the DP count, injective runs, and the session's
//! collect, stream, DP count and forced enumeration. The
//! coverage checks below make sure the sample reaches every value of
//! every dimension, plans with and without a memo split, and DPs with and
//! without conditioning.

mod testkit;

use rigmatch::rig::SelectMode;
use rigmatch::sim::DirectCheckMode;
use testkit::{
    all_shapes, check, graph, open_store, Budget, Checked, Dims, Regime, BUDGETS, DIRECT_MODES,
    ORDERS, REGIMES, SELECT_MODES, STORES,
};

const SEEDS: [u64; 2] = [1, 2];

/// The table's rows: (regime, shape index, seed), each with the sampled
/// dimensions it runs under.
fn rows() -> Vec<(Regime, usize, u64, Dims)> {
    let mut out = Vec::new();
    for regime in REGIMES {
        for shape in 0..all_shapes().len() {
            for seed in SEEDS {
                let dims = Dims::sample(out.len() as u64);
                out.push((regime, shape, seed, dims));
            }
        }
    }
    out
}

/// Runs every row of `regime`.
fn run(regime: Regime) -> Vec<(Dims, Checked)> {
    let shapes = all_shapes();
    rows()
        .into_iter()
        .filter(|&(r, ..)| r == regime)
        .map(|(_, s, seed, dims)| {
            let shape = &shapes[s];
            let g = graph(regime, seed, shape.n, shape.labels);
            let session = open_store(dims.store, g, dims.config(), seed, shape.labels);
            let what = format!("{regime:?} {} seed {seed}", shape.name);
            (dims, check(&session, &shape.q, &dims, &what))
        })
        .collect()
}

/// Every row of a regime answers something (no check is vacuous), and
/// its DPs both condition and run the dense pass alone.
fn assert_regime_coverage(regime: Regime, checked: &[(Dims, Checked)]) {
    for (dims, c) in checked {
        assert!(c.answers, "{regime:?} {dims:?}: an empty answer");
    }
    assert!(checked.iter().any(|(_, c)| c.conditioned), "{regime:?}: no conditioned DP");
    assert!(checked.iter().any(|(_, c)| !c.conditioned), "{regime:?}: no tree DP");
}

#[test]
fn giant_scc_cases_agree_with_the_oracle() {
    let checked = run(Regime::GiantScc);
    assert_regime_coverage(Regime::GiantScc, &checked);
    // shared runs make the memo split qualify; direct-only plans need not
    assert!(checked.iter().any(|(_, c)| c.memo_split), "no plan with a memo split");
    assert!(checked.iter().any(|(_, c)| !c.memo_split), "no plan without a memo split");
}

#[test]
fn small_scc_cases_agree_with_the_oracle() {
    let checked = run(Regime::SmallSccs);
    assert_regime_coverage(Regime::SmallSccs, &checked);
}

#[test]
fn dag_cases_agree_with_the_oracle() {
    let checked = run(Regime::Dag);
    assert_regime_coverage(Regime::Dag, &checked);
}

/// The sample reaches every value of every dimension.
#[test]
fn the_sample_covers_every_dimension() {
    let dims: Vec<Dims> = rows().into_iter().map(|(.., d)| d).collect();
    for order in ORDERS {
        assert!(dims.iter().any(|d| d.order == order), "{order:?}");
    }
    for select in SELECT_MODES {
        assert!(dims.iter().any(|d| d.select == select), "{select:?}");
    }
    for direct in DIRECT_MODES {
        assert!(dims.iter().any(|d| d.direct == direct), "{direct:?}");
    }
    for budget in BUDGETS {
        assert!(dims.iter().any(|d| d.budget == budget), "{budget:?}");
    }
    for store in STORES {
        // every store also meets a budget
        assert!(dims.iter().any(|d| d.store == store), "{store:?}");
        assert!(dims.iter().any(|d| d.store == store && d.budget != Budget::None), "{store:?}");
    }
    // the bitmap direct checks meet a graph wider than one 64-bit word
    // under a selection mode that runs the simulation
    let shapes = all_shapes();
    for direct in [DirectCheckMode::BitIter, DirectCheckMode::BitBat] {
        let wide = rows().into_iter().any(|(_, s, _, d)| {
            shapes[s].n > 64 && d.direct == direct && d.select != SelectMode::PrefilterOnly
        });
        assert!(wide, "no {direct:?} row on a wide graph");
    }
}
