//! Static-analysis soundness suite: whenever the analyzer *proves* a
//! query empty (codes E101/E102/E103), the engine must report count 0 —
//! through both the factorized-DP count path and forced tuple
//! enumeration — across the `SelectMode` matrix, all three template
//! flavors (Direct / hybrid / Reachability edges), and on both fresh
//! base graphs and sessions with uncompacted commits. A session analyses
//! only a clean base: the analysis after a commit rebases the dirty
//! snapshot first, exactly as a RIG build does, so the proofs and the
//! engine read the same graph.
//!
//! The contrapositive is covered by the same assertion: a satisfiable
//! query (the engine finds a match) can never carry an emptiness proof.
//! The deterministic tests pin both directions down so the property
//! tests cannot pass vacuously.
//!
//! Every report the suite produces — from the pattern and from its HPQL
//! text — also passes the `analysis` JSON schema invariants, structured
//! and rendered ([`assert_report_schema`]).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rigmatch::core::{GmConfig, Report, Session, Severity};
use rigmatch::graph::{CommitImpact, DeltaOverlay, GraphBuilder, NodeId};
use rigmatch::mjoin::CountSink;
use rigmatch::query::{template, template_count, to_hpql, EdgeKind, Flavor, PatternQuery};
use rigmatch::rig::{RigOptions, SelectMode};

const NUM_LABELS: u32 = 3;

fn random_base(nodes: usize, edges: usize, seed: u64) -> rigmatch::graph::DataGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    for l in 0..NUM_LABELS {
        b.add_node(l); // one guaranteed node per label
    }
    for _ in NUM_LABELS as usize..nodes {
        b.add_node(rng.gen_range(0..NUM_LABELS));
    }
    for _ in 0..edges {
        let u = rng.gen_range(0..nodes) as NodeId;
        let v = rng.gen_range(0..nodes) as NodeId;
        if u != v {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Every Fig. 7 template in every flavor, labels drawn at random from
/// the graph's label space — some instances are satisfiable, others are
/// provably empty, and the check needs both sides of the line.
fn workload(seed: u64) -> Vec<PatternQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for id in 0..template_count() {
        let t = template(id);
        for flavor in [Flavor::C, Flavor::H, Flavor::D] {
            let labels: Vec<u32> = (0..t.num_nodes).map(|_| rng.gen_range(0..NUM_LABELS)).collect();
            out.push(t.instantiate(flavor, &labels));
        }
    }
    out
}

const KNOWN_CODES: [&str; 12] = [
    "P001", "A001", "A002", "E101", "E102", "E103", "R201", "R202", "R203", "C301", "C302", "C303",
];
const PROOF_CODES: [&str; 3] = ["E101", "E102", "E103"];

/// The raw value of `key` in flat JSON text: a number or literal up to the
/// next `,`/`}`/newline, or a string's (still escaped) contents.
fn json_value<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\": ");
    let rest = &text[text.find(&needle)? + needle.len()..];
    match rest.strip_prefix('"') {
        Some(s) => {
            let mut escaped = false;
            let end = s.char_indices().find(|&(_, c)| {
                let closes = c == '"' && !escaped;
                escaped = c == '\\' && !escaped;
                closes
            })?;
            Some(&s[..end.0])
        }
        None => Some(rest[..rest.find([',', '}', '\n']).unwrap_or(rest.len())].trim()),
    }
}

/// The `analysis` schema invariants, on the structured [`Report`] and on
/// its `to_json()` rendering: the declared `errors`/`warnings`/`notes`
/// equal the diagnostics counted by severity, `proven_empty` holds
/// exactly when an E101/E102/E103 diagnostic is present, and a span is
/// all-or-nothing (`line`, `col` and `len` together, or none).
fn assert_report_schema(report: &Report, ctx: &str) {
    let by_severity = |s: Severity| report.diagnostics.iter().filter(|d| d.severity == s).count();
    let counted =
        (by_severity(Severity::Error), by_severity(Severity::Warning), by_severity(Severity::Note));
    assert_eq!(report.counts(), counted, "{ctx}: declared severity counts");
    let has_proof = report.diagnostics.iter().any(|d| PROOF_CODES.contains(&d.code.as_str()));
    assert_eq!(report.proven_empty(), has_proof, "{ctx}: proven_empty vs proof codes");

    let json = report.to_json();
    assert_eq!(json_value(&json, "analysis"), Some("true"), "{ctx}:\n{json}");
    let query = json.lines().find_map(|l| l.strip_prefix("  \"query\": "));
    assert!(
        query.is_some_and(|q| q == "null," || q.starts_with('"')),
        "{ctx}: query must be a string or null:\n{json}"
    );
    let lines: Vec<&str> = json.lines().filter(|l| l.starts_with("    {")).collect();
    assert_eq!(lines.len(), report.diagnostics.len(), "{ctx}: one line per diagnostic:\n{json}");
    let (mut errors, mut warnings, mut notes, mut any_proof) = (0, 0, 0, false);
    for (line, d) in lines.iter().zip(&report.diagnostics) {
        let code = json_value(line, "code").unwrap_or_else(|| panic!("{ctx}: no code: {line}"));
        assert!(KNOWN_CODES.contains(&code), "{ctx}: unknown lint code {code}");
        any_proof |= PROOF_CODES.contains(&code);
        match json_value(line, "severity") {
            Some("error") => errors += 1,
            Some("warning") => warnings += 1,
            Some("note") => notes += 1,
            other => panic!("{ctx}: severity {other:?} in {line}"),
        }
        assert!(json_value(line, "message").is_some(), "{ctx}: no message: {line}");
        let span = ["line", "col", "len"].map(|k| {
            json_value(line, k).map(|v| {
                v.parse::<u64>().unwrap_or_else(|_| panic!("{ctx}: {k} {v:?} not a number"))
            })
        });
        assert!(
            span.iter().all(Option::is_some) || span.iter().all(Option::is_none),
            "{ctx}: partial span in {line}"
        );
        assert_eq!(span[0].is_some(), d.span.is_some(), "{ctx}: span rendering: {line}");
    }
    for (key, n) in [("errors", errors), ("warnings", warnings), ("notes", notes)] {
        assert_eq!(json_value(&json, key), Some(n.to_string().as_str()), "{ctx}: {key}:\n{json}");
    }
    let proven = if any_proof { "true" } else { "false" };
    assert_eq!(json_value(&json, "proven_empty"), Some(proven), "{ctx}:\n{json}");
}

/// [`Session::analyze_pattern`] plus the schema check, which also runs on
/// the report for the pattern's HPQL text (the one with spans and source).
fn analyze_checked(session: &Session, q: &PatternQuery, ctx: &str) -> Report {
    let report = session.analyze_pattern(q);
    assert_report_schema(&report, ctx);
    let text = to_hpql(q, None, |_| None);
    assert_report_schema(&session.analyze(&text), &format!("{ctx} text {text:?}"));
    report
}

/// The soundness invariant for one session snapshot: each proven-empty
/// query must count 0 through the DP path and through forced
/// enumeration. Returns how many proofs were exercised so callers can
/// assert non-vacuity.
fn check_soundness(session: &Session, ctx: &str, seed: u64) -> usize {
    let mut proven = 0;
    for (qi, q) in workload(seed).iter().enumerate() {
        let report = analyze_checked(session, q, &format!("{ctx}: query {qi}"));
        if !report.proven_empty() {
            continue;
        }
        proven += 1;
        let p = session.prepare(q).expect("workload labels are in range");
        let dp = p.run().count();
        assert_eq!(
            dp.result.count,
            0,
            "{ctx}: query {qi} proven empty but the DP counted {}\n{}",
            dp.result.count,
            report.render_compact()
        );
        let en = p.run().stream(&mut CountSink::default());
        assert_eq!(
            en.result.count,
            0,
            "{ctx}: query {qi} proven empty but enumeration found {}\n{}",
            en.result.count,
            report.render_compact()
        );
    }
    proven
}

fn check_clean(select: SelectMode, seed: u64) {
    let cfg = GmConfig { rig: RigOptions { select, ..RigOptions::exact() }, ..GmConfig::default() };
    let session = Session::with_config(random_base(20, 50, seed), cfg);
    check_soundness(&session, &format!("clean select={select:?} seed={seed}"), seed);
}

/// Random committed mutation batches, then the soundness check on the
/// dirty snapshot each commit leaves (the analysis rebases it first, so
/// pair counts and BFL describe the merged graph).
fn check_dirty(select: SelectMode, seed: u64, commits: usize, ops_per_commit: usize) {
    let cfg = GmConfig { rig: RigOptions { select, ..RigOptions::exact() }, ..GmConfig::default() };
    let mut gen_state = seed ^ 0xA11A;
    let session = Session::with_config(random_base(20, 45, seed), cfg);
    for step in 0..commits {
        let mut scratch: DeltaOverlay = (**session.graph().delta()).clone();
        let mut txn = session.begin();
        for _ in 0..ops_per_commit {
            if let Some(op) = scratch.random_mutation(&mut gen_state, NUM_LABELS) {
                let mut impact = CommitImpact::default();
                if scratch.apply(&op, &mut impact).is_ok() {
                    txn.push(op);
                }
            }
        }
        session.commit(txn).expect("scratch-validated ops commit cleanly");
        check_soundness(
            &session,
            &format!("dirty select={select:?} seed={seed} step={step}"),
            seed,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Refined (prefilter + simulation) RIGs on clean bases.
    #[test]
    fn refined_clean_is_sound(seed in 0u64..1_000_000) {
        check_clean(SelectMode::PrefilterThenSim, seed);
    }

    /// Simulation-only ablation.
    #[test]
    fn sim_only_clean_is_sound(seed in 0u64..1_000_000) {
        check_clean(SelectMode::SimOnly, seed);
    }

    /// Prefilter-only ablation.
    #[test]
    fn prefilter_only_clean_is_sound(seed in 0u64..1_000_000) {
        check_clean(SelectMode::PrefilterOnly, seed);
    }

    /// Raw match-set RIGs.
    #[test]
    fn match_sets_clean_is_sound(seed in 0u64..1_000_000) {
        check_clean(SelectMode::MatchSets, seed);
    }

    /// Snapshots with uncompacted commits under the refined mode.
    #[test]
    fn refined_dirty_is_sound(seed in 0u64..1_000_000) {
        check_dirty(SelectMode::PrefilterThenSim, seed, 2, 6);
    }

    /// Snapshots with uncompacted commits under match-set RIGs.
    #[test]
    fn match_sets_dirty_is_sound(seed in 0u64..1_000_000) {
        check_dirty(SelectMode::MatchSets, seed, 2, 6);
    }
}

/// Non-vacuity anchor: on a graph whose only edges run Author → Paper →
/// Paper, the reversed direct edge (E102) and reversed reachability
/// edge (E103) are both provably empty, and the engine agrees in every
/// select mode. Deleting the Author's edge then shifts the proofs under
/// a dirty snapshot.
#[test]
fn emptiness_proofs_fire_and_the_engine_agrees() {
    let mut b = GraphBuilder::new();
    b.add_node(0); // Author
    b.add_node(1); // Paper
    b.add_node(1); // Paper
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    let g = b.build();

    let mut reversed_direct = PatternQuery::new(vec![1, 0]);
    reversed_direct.add_edge(0, 1, EdgeKind::Direct);
    let mut reversed_reach = PatternQuery::new(vec![1, 0]);
    reversed_reach.add_edge(0, 1, EdgeKind::Reachability);
    let mut forward = PatternQuery::new(vec![0, 1]);
    forward.add_edge(0, 1, EdgeKind::Direct);

    for select in [
        SelectMode::PrefilterThenSim,
        SelectMode::SimOnly,
        SelectMode::PrefilterOnly,
        SelectMode::MatchSets,
    ] {
        let cfg =
            GmConfig { rig: RigOptions { select, ..RigOptions::exact() }, ..GmConfig::default() };
        let session = Session::with_config(g.clone(), cfg);
        for q in [&reversed_direct, &reversed_reach] {
            let report = analyze_checked(&session, q, &format!("select={select:?}"));
            assert!(report.proven_empty(), "select={select:?}:\n{}", report.render_compact());
            let p = session.prepare(q).expect("labels are in range");
            assert_eq!(p.run().count().result.count, 0, "select={select:?}");
            let en = p.run().stream(&mut CountSink::default());
            assert_eq!(en.result.count, 0, "select={select:?}");
        }
        // the satisfiable direction carries no proof
        assert!(!analyze_checked(&session, &forward, &format!("select={select:?}")).proven_empty());

        // dirty snapshot: delete 0->1, the forward edge becomes provable
        let mut txn = session.begin();
        txn.push(rigmatch::graph::MutationOp::RemoveEdge(0, 1));
        session.commit(txn).expect("edge exists");
        let report = analyze_checked(&session, &forward, &format!("select={select:?} dirty"));
        assert!(report.proven_empty(), "select={select:?}:\n{}", report.render_compact());
        let p = session.prepare(&forward).expect("labels are in range");
        assert_eq!(p.run().count().result.count, 0, "select={select:?} dirty");
    }
}

/// Completeness anchor on the paper's workload: every Fig. 9 template
/// instance the engine can satisfy (a match exists on a generated
/// citation-style base) must come back *without* an emptiness proof.
#[test]
fn satisfiable_fig9_templates_are_never_flagged() {
    let g = random_base(60, 240, 11);
    let session = Session::new(g);
    let mut satisfiable = 0;
    for id in 0..template_count() {
        for flavor in [Flavor::C, Flavor::H, Flavor::D] {
            let q = template(id).instantiate_modulo(flavor, NUM_LABELS as usize);
            let p = session.prepare(&q).expect("modulo labels are in range");
            if p.run().limit(1).count().result.count == 0 {
                continue;
            }
            satisfiable += 1;
            let report = analyze_checked(&session, &q, &format!("template {id} {flavor:?}"));
            assert!(
                !report.proven_empty(),
                "template {id} flavor {flavor:?} has matches but was proven empty:\n{}",
                report.render_compact()
            );
        }
    }
    assert!(satisfiable >= 20, "only {satisfiable} satisfiable instances — base too sparse");
}
