//! HPQL round-trip property: for any pattern, `parse(to_hpql(q))` yields
//! the same canonical query (modulo node renumbering, which the printed
//! variable names make explicit — node ids follow first appearance in the
//! text, so the test maps them back through the `v<i>` names).
//!
//! Query text fuzzing: arbitrary bytes and character-level mutations of
//! the Fig. 9 template instances, printed as HPQL by `to_hpql`, go through
//! `parse_hpql`. Every input ends in a value or a typed error, never a
//! panic, and an accepted query prints and re-parses to the same query.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rigmatch::query::{
    parse_hpql, template, template_count, to_hpql, EdgeKind, Flavor, PatternQuery, QNode,
};

const NUM_LABELS: u32 = 4;

/// Strategy: a connected pattern of 1–6 nodes, mixed edge kinds, with
/// extra chords (including parallel direct+reachability pairs).
fn query_strategy() -> impl Strategy<Value = PatternQuery> {
    (
        prop::collection::vec(0..NUM_LABELS, 1..7),
        prop::collection::vec((0..7u32, 0..7u32, prop::bool::ANY), 0..8),
        prop::collection::vec(prop::bool::ANY, 6),
    )
        .prop_map(|(labels, extra, chain_kinds)| {
            let n = labels.len() as u32;
            let mut q = PatternQuery::new(labels);
            for i in 1..n {
                let kind = if chain_kinds[(i as usize - 1) % 6] {
                    EdgeKind::Direct
                } else {
                    EdgeKind::Reachability
                };
                q.add_edge(i - 1, i, kind);
            }
            for (a, b, dir) in extra {
                let (a, b) = (a % n, b % n);
                if a != b {
                    let kind = if dir { EdgeKind::Direct } else { EdgeKind::Reachability };
                    q.ensure_edge(a, b, kind);
                }
            }
            q
        })
}

/// Renumbers `parsed` back into the original node order using the printed
/// `v<i>` variable names, then compares canonical forms.
fn assert_round_trips(q: &PatternQuery, text: &str) {
    let ast = parse_hpql(text).unwrap_or_else(|e| panic!("re-parse failed: {e}\n{text}"));
    let resolved = ast.resolve(|_| None).expect("numeric labels resolve");
    let parsed = resolved.query;
    assert_eq!(parsed.num_nodes(), q.num_nodes(), "{text}");
    // orig_of[j] = original node id of parsed node j (from its var name)
    let orig_of: Vec<QNode> = resolved
        .vars
        .iter()
        .map(|v| v.strip_prefix('v').and_then(|s| s.parse().ok()).expect("printer names are v<i>"))
        .collect();
    let mut renumbered = PatternQuery::new(
        (0..q.num_nodes())
            .map(|i| {
                let j = orig_of.iter().position(|&o| o == i as QNode).expect("var for every node");
                parsed.label(j as QNode)
            })
            .collect(),
    );
    for e in parsed.edges() {
        renumbered.add_edge(orig_of[e.from as usize], orig_of[e.to as usize], e.kind);
    }
    assert_eq!(renumbered.canonical(), q.canonical(), "{text}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// parse ∘ pretty-print = identity on canonical queries.
    #[test]
    fn parse_print_parse_is_identity(q in query_strategy()) {
        let text = to_hpql(&q, None, |_| None);
        assert_round_trips(&q, text.as_str());
    }

    /// The same property with named labels: printing resolves ids to
    /// names, re-parsing resolves names back to the same ids.
    #[test]
    fn round_trip_with_label_names(q in query_strategy()) {
        let names = ["Alpha", "Beta", "Gamma", "Delta"];
        let text = to_hpql(&q, None, |l| Some(names[l as usize].to_string()));
        let ast = parse_hpql(&text).unwrap();
        let resolved = ast
            .resolve(|n| names.iter().position(|x| *x == n).map(|i| i as u32))
            .unwrap();
        let orig_of: Vec<QNode> = resolved
            .vars
            .iter()
            .map(|v| v.strip_prefix('v').and_then(|s| s.parse().ok()).unwrap())
            .collect();
        let mut renumbered = PatternQuery::new(
            (0..q.num_nodes())
                .map(|i| {
                    let j = orig_of.iter().position(|&o| o == i as QNode).unwrap();
                    resolved.query.label(j as QNode)
                })
                .collect(),
        );
        for e in resolved.query.edges() {
            renumbered.add_edge(orig_of[e.from as usize], orig_of[e.to as usize], e.kind);
        }
        prop_assert_eq!(renumbered.canonical(), q.canonical(), "{}", text);
    }

    /// Printing the canonical form and the raw form parse to the same
    /// canonical query (printer output is insertion-order independent at
    /// the semantic level).
    #[test]
    fn canonical_and_raw_print_equivalently(q in query_strategy()) {
        let a = to_hpql(&q, None, |_| None);
        let b = to_hpql(&q.canonical(), None, |_| None);
        assert_round_trips(&q, a.as_str());
        assert_round_trips(&q, b.as_str());
    }
}

/// Tokens the mutations insert: HPQL keywords and punctuation, label ids
/// at and past the `u32` range, comments, every kind of whitespace, a
/// no-break space and a non-ASCII letter.
const POOL: [&str; 27] = [
    "MATCH",
    "match",
    "(",
    ")",
    ":",
    ",",
    ";",
    "->",
    "=>",
    "-",
    "=",
    ">",
    "a",
    "_a0",
    "Name",
    "0",
    "1",
    "4294967295",
    "4294967296",
    "#",
    "//",
    " ",
    "\t",
    "\n",
    "\r\n",
    "\u{a0}",
    "é",
];

/// `text` with `edits` random insertions from [`POOL`] and deletions.
fn mangle(text: &str, edits: usize, rng: &mut StdRng) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for _ in 0..edits {
        let at = rng.gen_range(0..=chars.len());
        if rng.gen_bool(0.3) && at < chars.len() {
            let end = (at + rng.gen_range(1..4usize)).min(chars.len());
            chars.drain(at..end);
        } else {
            let tok = POOL[rng.gen_range(0..POOL.len())];
            chars.splice(at..at, tok.chars());
        }
    }
    chars.into_iter().collect()
}

/// A Fig. 9 template instance drawn from `rng`: any of the templates, any
/// flavour, labels from a few small ids and `u32::MAX`.
fn template_instance(rng: &mut StdRng) -> PatternQuery {
    let t = template(rng.gen_range(0..template_count()));
    let flavor = [Flavor::C, Flavor::H, Flavor::D][rng.gen_range(0..3usize)];
    let labels: Vec<u32> =
        (0..t.num_nodes).map(|_| [0, 1, 7, u32::MAX][rng.gen_range(0..4usize)]).collect();
    t.instantiate(flavor, &labels)
}

/// Parsing `text` ends in a value or a typed error (a panic fails the
/// test). An accepted query whose labels are all numeric, the ones that
/// resolve without a dictionary, prints and re-parses to the same query.
fn parses_cleanly(text: &str) {
    if let Ok(resolved) = parse_hpql(text).and_then(|ast| ast.resolve(|_| None)) {
        let q = resolved.query;
        assert_round_trips(&q, &to_hpql(&q, None, |_| None));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_the_query_parser(
        bytes in prop::collection::vec(prop::num::u8::ANY, 0..200),
    ) {
        parses_cleanly(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_template_texts_never_panic_the_query_parser(
        seed in 0u64..1 << 32,
        edits in 1usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = template_instance(&mut rng);
        parses_cleanly(&mangle(&to_hpql(&q, None, |_| None), edits, &mut rng));
    }
}

/// The unmutated instances are accepted and round-trip.
#[test]
fn template_instances_round_trip() {
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..200 {
        let q = template_instance(&mut rng);
        assert_round_trips(&q, &to_hpql(&q, None, |_| None));
    }
}
