//! Graph text and mutation scripts, read by one byte-level scanner.
//!
//! These tests pin the parsers to the behaviour they had when every line
//! went through `str::lines`, `trim`, `split_whitespace` and `str::parse`:
//! a graph written by `to_text` reads back as the same graph, every
//! spelling the format allows gives the graph its canonical text gives,
//! each malformed input fails on the same line with the same message, and
//! no input, however mangled, panics. The deliberate differences are
//! tested too: non-ASCII whitespace separates no tokens, a label id must
//! be smaller than the input's length in bytes, and an id error names the
//! line of its record (a duplicated id its second record, under its own
//! message) where line 0 stood.

mod testkit;

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rigmatch::graph::{
    parse_mutations, parse_text, to_text, CommitImpact, DataGraph, DeltaOverlay, GraphBuilder,
    Label, LabelSpec, MutationOp, NodeId,
};
use testkit::{Regime, REGIMES};

/// The first difference between two graphs, reading every table a
/// `DataGraph` holds: labels, both CSR directions, inverted lists and
/// their bitmaps, label names and the name dictionary, and tombstones.
fn difference(got: &DataGraph, want: &DataGraph) -> Option<String> {
    if got.labels() != want.labels() {
        return Some("labels".into());
    }
    if got.num_edges() != want.num_edges() {
        return Some(format!("{} edges, want {}", got.num_edges(), want.num_edges()));
    }
    for v in 0..want.num_nodes() as NodeId {
        if got.out_neighbors(v) != want.out_neighbors(v) {
            return Some(format!("out-row {v}"));
        }
        if got.in_neighbors(v) != want.in_neighbors(v) {
            return Some(format!("in-row {v}"));
        }
    }
    if got.num_labels() != want.num_labels() {
        return Some(format!("{} labels, want {}", got.num_labels(), want.num_labels()));
    }
    for l in 0..want.num_labels() as Label {
        if got.nodes_with_label(l) != want.nodes_with_label(l) {
            return Some(format!("inverted list {l}"));
        }
        if got.label_bitset(l).to_vec() != want.label_bitset(l).to_vec() {
            return Some(format!("bitmap {l}"));
        }
    }
    if got.label_names() != want.label_names() {
        return Some("label names".into());
    }
    for name in want.label_names() {
        if got.label_id(name) != want.label_id(name) {
            return Some(format!("dictionary entry {name:?}"));
        }
    }
    if got.tombstones().to_vec() != want.tombstones().to_vec() {
        return Some("tombstones".into());
    }
    None
}

fn assert_same_graph(got: &DataGraph, want: &DataGraph, what: &str) {
    if let Some(diff) = difference(got, want) {
        panic!("{what}: the graphs differ in {diff}");
    }
}

/// `g` grown by a named label and two nodes, with two nodes removed: a
/// graph with a label dictionary and tombstones, as compaction makes.
fn with_names_and_tombstones(g: DataGraph) -> DataGraph {
    let n = g.num_nodes() as NodeId;
    let mut d = DeltaOverlay::new(Arc::new(g));
    let mut impact = CommitImpact::default();
    for op in [
        MutationOp::AddNode(LabelSpec::Named("Extra".into())),
        MutationOp::AddNode(LabelSpec::Id(0)),
        MutationOp::AddEdge(n, 0),
        MutationOp::AddEdge(n + 1, n),
        MutationOp::RemoveNode(1),
        MutationOp::RemoveNode(n + 1),
    ] {
        d.apply(&op, &mut impact).expect("every op is valid on a graph of 3+ nodes");
    }
    d.materialize()
}

/// Graphs from every testkit regime, plain and with names and
/// tombstones.
fn regime_graphs() -> Vec<(String, DataGraph)> {
    let mut out = Vec::new();
    for (i, regime) in REGIMES.into_iter().enumerate() {
        let g = testkit::graph(regime, 40 + i as u64, 30, 3);
        out.push((format!("{regime:?} with names"), with_names_and_tombstones(g.clone())));
        out.push((format!("{regime:?}"), g));
    }
    out
}

#[test]
fn text_round_trips_every_regime() {
    for (what, g) in regime_graphs() {
        let text = to_text(&g);
        let back = parse_text(&text).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_same_graph(&back, &g, &what);
        assert_eq!(to_text(&back), text, "{what}: text");
    }
}

/// A builder graph of `n` nodes fed `edges` in the given order.
fn built(n: usize, labels: u32, edges: &[(NodeId, NodeId)]) -> DataGraph {
    let mut b = GraphBuilder::new();
    for v in 0..n {
        b.add_node(v as u32 % labels);
    }
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    b.build()
}

/// Random edges over `n` nodes with self-loops, shuffled, with every
/// tenth edge repeated.
fn messy_edges(rng: &mut StdRng, n: usize, m: usize) -> Vec<(NodeId, NodeId)> {
    let mut edges: Vec<(NodeId, NodeId)> = (0..m)
        .map(|i| {
            let u = rng.gen_range(0..n) as NodeId;
            (u, if i % 7 == 0 { u } else { rng.gen_range(0..n) as NodeId })
        })
        .collect();
    let repeats: Vec<_> = edges.iter().step_by(10).copied().collect();
    edges.extend(repeats);
    edges.shuffle(rng);
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn builder_graphs_with_duplicates_and_self_loops_round_trip(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..60usize);
        let m = rng.gen_range(0..4 * n);
        let edges = messy_edges(&mut rng, n, m);
        let g = built(n, rng.gen_range(1..6u32), &edges);
        let back = parse_text(&to_text(&g)).expect("to_text output parses");
        prop_assert_eq!(difference(&back, &g), None);
    }

    #[test]
    fn a_shuffled_edge_list_with_duplicates_builds_the_sorted_unique_list(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..60usize);
        let m = rng.gen_range(0..4 * n);
        let edges = messy_edges(&mut rng, n, m);
        let mut unique = edges.clone();
        unique.sort_unstable();
        unique.dedup();
        let g = built(n, 3, &edges);
        prop_assert_eq!(difference(&g, &built(n, 3, &unique)), None);
        prop_assert_eq!(g.num_edges(), unique.len());
        prop_assert_eq!(g.edges().collect::<Vec<_>>(), unique);
    }
}

/// `text` with each line passed through `f`.
fn respell(text: &str, f: impl Fn(&str) -> String) -> String {
    text.lines().map(|line| f(line) + "\n").collect()
}

/// `line` with every numeric token passed through `f`.
fn numbers(line: &str, f: impl Fn(&str) -> String) -> String {
    let tokens = line.split(' ');
    tokens
        .map(|t| if t.parse::<u32>().is_ok() { f(t) } else { t.to_string() })
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn every_spelling_gives_the_canonical_graph() {
    let g = with_names_and_tombstones(testkit::graph(Regime::SmallSccs, 5, 12, 3));
    let canonical = to_text(&g);
    assert!(canonical.contains("\nl ") && canonical.contains("\nx "), "{canonical}");
    let lines: Vec<&str> = canonical.lines().collect();
    let v_lines: Vec<&str> = lines.iter().copied().filter(|l| l.starts_with("v ")).collect();
    let e_lines: Vec<&str> = lines.iter().copied().filter(|l| l.starts_with("e ")).collect();
    let crlf = canonical.replace('\n', "\r\n");
    let blanks = respell(&canonical, |l| format!(" \t {}\t", l.replace(' ', "\t  ")));
    let signed = respell(&canonical, |l| numbers(l, |t| format!("+{t}")));
    let zeros = respell(&canonical, |l| numbers(l, |t| format!("000{t}")));
    let commented = respell(&canonical, |l| format!("# before\n{l}\n#after {l}\n\n   \n"));
    let headerless: String = lines[1..].iter().map(|l| format!("{l}\n")).collect();
    let other_header = format!("t 999 1\ntext is ignored too\n{headerless}");
    let degrees = respell(&canonical, |l| match l.strip_prefix("v ") {
        Some(rest) => {
            let v: NodeId = rest.split(' ').next().unwrap().parse().unwrap();
            format!("{l} {}", g.out_degree(v))
        }
        None => l.to_string(),
    });
    let mut reordered: Vec<&str> = lines.iter().copied().filter(|l| !l.starts_with("v ")).collect();
    reordered.extend(v_lines.iter().rev());
    let reordered: String = reordered.iter().map(|l| format!("{l}\n")).collect();
    let mut rng = StdRng::seed_from_u64(9);
    let mut shuffled_edges: Vec<&str> =
        e_lines.iter().chain(e_lines.iter().step_by(3)).copied().collect();
    shuffled_edges.shuffle(&mut rng);
    let shuffled: String = lines
        .iter()
        .copied()
        .filter(|l| !l.starts_with("e "))
        .chain(shuffled_edges)
        .map(|l| format!("{l}\n"))
        .collect();
    let no_final_newline = canonical.trim_end_matches('\n').to_string();
    let everything = respell(&reordered, |l| {
        format!(" {}\r", numbers(l, |t| format!("+0{t}")).replace(' ', "\t"))
    });
    for (what, text) in [
        ("CRLF line ends", crlf),
        ("tabs and leading blanks", blanks),
        ("+-signed numbers", signed),
        ("leading zeros", zeros),
        ("comments and blank lines", commented),
        ("no header", headerless),
        ("another header", other_header),
        ("degree column", degrees),
        ("out-of-order v lines", reordered),
        ("shuffled and repeated e lines", shuffled),
        ("no final newline", no_final_newline),
        ("all at once", everything),
    ] {
        let got = parse_text(&text).unwrap_or_else(|e| panic!("{what}: {e}\n{text}"));
        assert_same_graph(&got, &g, what);
    }
}

#[test]
fn malformed_graph_text_fails_on_its_line_with_its_message() {
    let cases: &[(&str, usize, &str)] = &[
        ("v x 0\n", 1, "bad node id"),
        ("v\n", 1, "bad node id"),
        ("v -0 1\n", 1, "bad node id"),
        ("v 4294967296 0\n", 1, "bad node id"),
        ("v 0\n", 1, "bad node label"),
        ("v 0 -1\n", 1, "bad node label"),
        ("v 0 1.5\n", 1, "bad node label"),
        ("v 0 +\n", 1, "bad node label"),
        ("v 0 0 \n v +1 ++1\n", 2, "bad node label"),
        ("e\n", 1, "bad edge source"),
        ("e x 1\n", 1, "bad edge source"),
        ("e +-1 0\n", 1, "bad edge source"),
        ("e 0\n", 1, "bad edge target"),
        ("e 0 99999999999\n", 1, "bad edge target"),
        ("v 0 0\r\nv 1 1\r\ne 0 q\r\n", 3, "bad edge target"),
        ("l x A\n", 1, "bad label id"),
        ("l -1 A\n", 1, "bad label id"),
        ("l 0\n", 1, "missing label name"),
        ("x\n", 1, "bad tombstone id"),
        ("x y\n", 1, "bad tombstone id"),
        ("q 0 0\n", 1, "unknown record 'q'"),
        ("V 0 0\n", 1, "unknown record 'V'"),
        ("# c\n\n  \t\nve 0 0\n", 4, "unknown record 've'"),
        ("v 0 0\nv 2 0\n", 2, "node ids not dense: missing 1"),
        ("v 0 0\nv 0 0\n", 2, "duplicate node id 0"),
        ("v 1 0\n", 1, "node ids not dense: missing 0"),
        ("v 1 0\nv 0 0\n# c\nv 1 1\n", 4, "duplicate node id 1"),
        ("v 0 0\nv 3 0\nv 1 0\n", 2, "node ids not dense: missing 2"),
        ("v 0 0\nv 1 0\ne 0 1\ne 1 7\n", 4, "edge (1,7) references unknown node"),
        ("v 0 0\nx 3\n", 2, "tombstone x 3 references unknown node"),
        ("e 0 1\n", 1, "edge (0,1) references unknown node"),
        ("v 0 0\ne 0 5\n", 2, "edge (0,5) references unknown node"),
        ("v 0 0\nv 1 0\nx 0\ne 0 1\n", 4, "edge (0,1) touches a tombstoned node"),
        ("v 0 0\ne 0 0\nx 0\n", 2, "edge (0,0) touches a tombstoned node"),
    ];
    for &(input, line, message) in cases {
        let got = parse_text(input).map(|g| format!("{g:?}"));
        let want = Err(rigmatch::graph::ParseError { line, message: message.into() });
        assert_eq!(got, want, "input {input:?}");
    }
}

#[test]
fn malformed_mutation_scripts_fail_on_their_line_with_their_message() {
    let cases: &[(&str, usize, &str)] = &[
        ("q 1 2\n", 1, "unknown mutation record 'q'"),
        ("x\n", 1, "unknown mutation record 'x'"),
        ("a\n", 1, "unknown mutation record 'a'"),
        ("a x 1\n", 1, "unknown mutation record 'a'"),
        ("a V 1\n", 1, "unknown mutation record 'a'"),
        ("A v 1\n", 1, "unknown mutation record 'A'"),
        ("commit now\n", 1, "unknown mutation record 'commit'"),
        ("commit\ncommit 1\n", 2, "unknown mutation record 'commit'"),
        ("a v\n", 1, "a v: missing label"),
        ("a v 1 2\n", 1, "trailing tokens on mutation line"),
        ("a e 1 2 # c\n", 1, "trailing tokens on mutation line"),
        ("a e 1 2\n\n# c\nd e 1 2 3\n", 4, "trailing tokens on mutation line"),
        ("d v\n", 1, "d v: bad node id"),
        ("d v x\n", 1, "d v: bad node id"),
        ("a e 1 2\r\nd v -1\r\n", 2, "d v: bad node id"),
        ("a e 1\n", 1, "a e: bad edge target"),
        ("a e 4294967296 1\n", 1, "a e: bad edge source"),
        ("d e x 1\n", 1, "d e: bad edge source"),
        ("d e 1\n", 1, "d e: bad edge target"),
        ("d e 1 +\n", 1, "d e: bad edge target"),
    ];
    for &(input, line, message) in cases {
        let want = Err(rigmatch::graph::ParseError { line, message: message.into() });
        assert_eq!(parse_mutations(input), want, "input {input:?}");
    }
}

#[test]
fn mutation_scripts_accept_the_same_spellings() {
    let canonical = "a v Author\na e 0 2\ncommit\nd e 1 2\nd v 3\ncommit\na v 7\na v 4294967296\n";
    let want = parse_mutations(canonical).unwrap();
    assert_eq!(want.len(), 3);
    // a number too large for a label id is a label name, as before
    assert_eq!(want[2][1], MutationOp::AddNode(LabelSpec::Named("4294967296".into())));
    let signed = respell(canonical, |l| numbers(l, |t| format!("+{t}")));
    assert_eq!(signed.matches('+').count(), 6);
    for (what, text) in [
        ("CRLF line ends", canonical.replace('\n', "\r\n")),
        ("tabs and blanks", respell(canonical, |l| format!("\t {}  ", l.replace(' ', " \t")))),
        ("+-signed ids", signed),
        ("comments and blank lines", respell(canonical, |l| format!("# c\n{l}\n\n  #x\n"))),
        ("no final newline", canonical.trim_end().to_string()),
    ] {
        assert_eq!(parse_mutations(&text).as_ref(), Ok(&want), "{what}: {text:?}");
    }
}

#[test]
fn non_ascii_whitespace_is_part_of_a_token() {
    // str::trim and split_whitespace used to drop a no-break space
    let err =
        |line, message: &str| Err(rigmatch::graph::ParseError { line, message: message.into() });
    let got = parse_text("v 0 0\n\u{a0}v 1 0\n").map(|g| g.num_nodes());
    assert_eq!(got, err(2, "unknown record '\u{a0}v'"));
    assert_eq!(parse_text("v 0\u{a0}0\n").map(|g| g.num_nodes()), err(1, "bad node id"));
    let got = parse_mutations("a\u{a0}e 1 2\n").map(|s| s.len());
    assert_eq!(got, err(1, "unknown mutation record 'a\u{a0}e'"));
    // as a label name it is kept whole
    let segs = parse_mutations("a v A\u{2003}B\n").unwrap();
    assert_eq!(segs[0], vec![MutationOp::AddNode(LabelSpec::Named("A\u{2003}B".into()))]);
}

#[test]
fn label_ids_must_be_smaller_than_the_input() {
    let refused = |text: &str, line, id: u32| {
        let len = text.len();
        let message = format!("label id {id} is not below the input's length ({len} bytes)");
        let want = Err(rigmatch::graph::ParseError { line, message });
        assert_eq!(parse_text(text).map(|g| g.num_nodes()), want, "input {text:?}");
    };
    // before, the first two asked for tables of four billion labels
    refused("v 0 4294967295\n", 1, 4294967295);
    refused("v 0 0\nl 4294967295 X\n", 2, 4294967295);
    // the bound is the length itself: 13 bytes take label ids up to 12
    refused("v 0 0\nl 13 A\n", 2, 13);
    refused("v 0 13\nv 1 0\n", 1, 13);
    assert_eq!(parse_text("v 0 0\nl 12 A\n").map(|g| g.num_labels()), Ok(13));
    // 28 bytes with label 5
    let text = "# hi\n\nv 0 5\n   \nv 1 5\ne 1 0\n";
    assert_eq!(text.len(), 28);
    assert_eq!(parse_text(text).map(|g| g.num_labels()), Ok(6));
}

/// Tokens a mangled text is made of: record tags, numbers at and past
/// the `u32` range, signs, every whitespace byte, a no-break space and a
/// label name.
const POOL: [&str; 26] = [
    "v",
    "e",
    "l",
    "x",
    "t",
    "#",
    "a",
    "d",
    "commit",
    "0",
    "1",
    "7",
    "+3",
    "-1",
    "+",
    "4294967295",
    "4294967296",
    "99999999999",
    "0000000012",
    " ",
    "\t",
    "\n",
    "\r\n",
    "\x0b\x0c",
    "\u{a0}",
    "Name",
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

/// Parsing `text` as a graph and as a script ends in a value or a
/// `ParseError` (a panic fails the test); an accepted graph round-trips.
fn parses_cleanly(text: &str) -> Result<(), TestCaseError> {
    let lines = text.split('\n').count();
    match parse_text(text) {
        Ok(g) => {
            let back = parse_text(&to_text(&g)).expect("to_text output parses");
            prop_assert_eq!(difference(&back, &g), None, "{:?}", text);
        }
        Err(e) => prop_assert!(e.line <= lines, "{:?}: {}", text, e),
    }
    if let Err(e) = parse_mutations(text) {
        prop_assert!(e.line >= 1 && e.line <= lines, "{:?}: {}", text, e);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_either_parser(
        bytes in prop::collection::vec(prop::num::u8::ANY, 0..200),
    ) {
        parses_cleanly(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn mutated_valid_texts_never_panic_either_parser(seed in 0u64..1 << 32, edits in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = with_names_and_tombstones(testkit::graph(Regime::GiantScc, seed, 6, 2));
        parses_cleanly(&mangle(&to_text(&g), edits, &mut rng))?;
        let script = "a v Author\na e 0 2\ncommit\nd e 1 2\nd v 3\n# c\ncommit\na v 7\n";
        parses_cleanly(&mangle(script, edits, &mut rng))?;
    }
}
