//! Plain-text serialization of data graphs.
//!
//! The format is the line-oriented one used by most subgraph-matching
//! artifacts (and by the datasets the paper evaluates on):
//!
//! ```text
//! t <num_nodes> <num_edges>    # optional header
//! v <id> <label> [degree]      # node line; ids must be 0..n densely
//! e <src> <dst>                # edge line
//! l <label-id> <name>          # optional label-name dictionary entry
//! x <id>                       # tombstone: the node slot exists (id
//!                              # stability) but is dead — no edges, not
//!                              # in any inverted list
//! # comment
//! ```
//!
//! `l` lines populate the graph's label-name dictionary, which HPQL
//! queries (`MATCH (a:Author)->...`) resolve `(var:Name)` references
//! against.
//!
//! Records end at `\n`, so `\r\n` line ends work. Tokens are separated by
//! ASCII whitespace (space, tab, `\r`, vertical tab, form feed); any other
//! Unicode whitespace, such as a no-break space, is part of a token. A
//! record's tokens past the ones it reads are ignored (the `v` line's
//! degree column), and a line whose first token starts with `#` or `t` is
//! skipped. Numbers are decimal `u32`s, optionally with a leading `+`.
//!
//! A label id in a `v` or `l` record must be smaller than the input's
//! length in bytes. Every label id below the largest one gets an entry in
//! the graph's label tables, at O(1) space each, so this bound keeps the
//! tables linear in the input: one line cannot ask for four billion
//! labels.
//!
//! Graph text and the mutation scripts of [`crate::parse_mutations`] are
//! read by one byte-level [`Scanner`].

use crate::{DataGraph, GraphBuilder, Label, NodeId};
use rig_bitset::Bitset;

/// Error produced by [`parse_text`] and [`crate::parse_mutations`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

pub(crate) fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError { line, message: message.into() }
}

/// A cursor over line-oriented text. Records end at `\n` and tokens are
/// separated by ASCII whitespace. The bytes are walked once: a record's
/// unread tail is skipped when the next record starts.
pub(crate) struct Scanner<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
}

/// The ASCII characters `char::is_whitespace` accepts: tab, `\n`, vertical
/// tab, form feed, `\r` and space.
#[inline]
fn is_space(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

impl<'a> Scanner<'a> {
    pub(crate) fn new(text: &'a str) -> Scanner<'a> {
        Scanner { text, pos: 0, line: 0 }
    }

    /// Moves to the next record; false at the end of the input. Records
    /// are numbered from 1, as `str::lines` counts lines.
    pub(crate) fn next_record(&mut self) -> bool {
        let bytes = self.text.as_bytes();
        if self.line > 0 {
            self.pos = match bytes[self.pos..].iter().position(|&b| b == b'\n') {
                Some(i) => self.pos + i + 1,
                None => bytes.len(),
            };
        }
        if self.pos == bytes.len() {
            return false;
        }
        self.line += 1;
        true
    }

    /// The line number of the current record.
    pub(crate) fn line(&self) -> usize {
        self.line
    }

    /// The current record's next token, or `None` at its end.
    pub(crate) fn token(&mut self) -> Option<&'a str> {
        let bytes = self.text.as_bytes();
        let mut i = self.pos;
        while i < bytes.len() && bytes[i] != b'\n' && is_space(bytes[i]) {
            i += 1;
        }
        let start = i;
        while i < bytes.len() && !is_space(bytes[i]) {
            i += 1;
        }
        self.pos = i;
        // a token is bounded by ASCII bytes or the text's ends, which are
        // char boundaries
        (start < i).then(|| &self.text[start..i])
    }

    /// The next token as a `u32` ([`parse_u32`]); `None` at the record's
    /// end or if the token is no such number. A token of one to seven
    /// digits followed by whitespace, the common case, is read eight bytes
    /// at a time without a branch per digit; any other goes through
    /// [`Scanner::token`] and [`parse_u32`].
    pub(crate) fn u32(&mut self) -> Option<u32> {
        let bytes = self.text.as_bytes();
        let mut i = self.pos;
        while i < bytes.len() && bytes[i] != b'\n' && is_space(bytes[i]) {
            i += 1;
        }
        self.pos = i;
        if let Some(&chunk) = bytes[i..].first_chunk::<8>() {
            let chunk = u64::from_le_bytes(chunk);
            let len = digit_run(chunk);
            if (1..8).contains(&len) && is_space(bytes[i + len]) {
                self.pos = i + len;
                return Some(digits_value(chunk, len));
            }
        }
        self.token().and_then(parse_u32)
    }
}

/// `0x01` in each byte of a `u64`: multiplying a byte by it repeats the
/// byte in every lane.
const LANES: u64 = 0x0101_0101_0101_0101;

/// How many of the eight bytes of `chunk`, read little-endian so that its
/// first byte is the text's first, are ASCII digits before the first
/// non-digit (8 if all are).
fn digit_run(chunk: u64) -> usize {
    let high = 0xF0 * LANES;
    // a byte is a digit iff its high nibble is 3 and stays 3 after adding
    // 6; a carry out of a lane comes from a non-digit and only reaches
    // later bytes
    let not_digit = ((chunk & high) ^ (0x30 * LANES))
        | ((chunk.wrapping_add(0x06 * LANES) & high) ^ (0x30 * LANES));
    // the top bit of each nonzero lane of `not_digit`
    let flags = (((not_digit & (0x7F * LANES)) + 0x7F * LANES) | not_digit) & (0x80 * LANES);
    flags.trailing_zeros() as usize / 8
}

/// The value of the first `len` (1 to 7) bytes of `chunk`, which
/// [`digit_run`] found to be digits.
fn digits_value(chunk: u64, len: usize) -> u32 {
    // the digits' values move to the top `len` lanes; the lanes below
    // hold zeros, which read as leading zeros
    let v = chunk.wrapping_sub(0x30 * LANES) << (8 * (8 - len));
    // combine neighbouring lanes: pairs of digits, then of pairs, then of
    // quadruples, the earlier (lower) lane being the more significant
    let v = ((v >> 8) & 0x000F_000F_000F_000F) + (v & 0x000F_000F_000F_000F) * 10;
    let v = ((v >> 16) & 0x0000_00FF_0000_00FF) + (v & 0x0000_00FF_0000_00FF) * 100;
    (((v >> 32) & 0xFFFF) + (v & 0xFFFF) * 10_000) as u32
}

/// Parses a decimal `u32` as `str::parse::<u32>` does: ASCII digits after
/// an optional `+`; `None` for anything else and on overflow.
pub(crate) fn parse_u32(tok: &str) -> Option<u32> {
    let digits = tok.strip_prefix('+').unwrap_or(tok).as_bytes();
    if digits.is_empty() {
        return None;
    }
    let mut value: u32 = 0;
    for &b in digits {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        value = value.checked_mul(10)?.checked_add(u32::from(d))?;
    }
    Some(value)
}

/// Appends the decimal digits of `value` to `buf`; allocates nothing
/// beyond `buf`'s own growth.
pub fn push_decimal(buf: &mut Vec<u8>, mut value: u32) {
    const MAX_DIGITS: usize = 10;
    let mut digits = [0u8; MAX_DIGITS];
    let mut start = MAX_DIGITS;
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[start..]);
}

/// Parses the text format described in the module docs.
pub fn parse_text(input: &str) -> Result<DataGraph, ParseError> {
    let mut labels: Vec<(NodeId, Label)> = Vec::new();
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut names: Vec<(Label, String)> = Vec::new();
    let mut dead: Vec<NodeId> = Vec::new();
    let bounded = |label: Label, ln: usize| {
        if (label as usize) < input.len() {
            Ok(label)
        } else {
            let len = input.len();
            Err(err(ln, format!("label id {label} is not below the input's length ({len} bytes)")))
        }
    };
    let mut s = Scanner::new(input);
    while s.next_record() {
        let ln = s.line();
        let Some(tag) = s.token() else { continue };
        match tag {
            "e" => {
                let u = s.u32().ok_or_else(|| err(ln, "bad edge source"))?;
                let v = s.u32().ok_or_else(|| err(ln, "bad edge target"))?;
                edges.push((u, v));
            }
            "v" => {
                let id = s.u32().ok_or_else(|| err(ln, "bad node id"))?;
                let label = s.u32().ok_or_else(|| err(ln, "bad node label"))?;
                labels.push((id, bounded(label, ln)?));
            }
            "l" => {
                let id = bounded(s.u32().ok_or_else(|| err(ln, "bad label id"))?, ln)?;
                let name = s.token().ok_or_else(|| err(ln, "missing label name"))?;
                names.push((id, name.to_string()));
            }
            "x" => dead.push(s.u32().ok_or_else(|| err(ln, "bad tombstone id"))?),
            _ if tag.starts_with(['#', 't']) => {}
            _ => return Err(err(ln, format!("unknown record '{tag}'"))),
        }
    }
    labels.sort_unstable_by_key(|&(id, _)| id);
    for (expect, &(id, _)) in (0..).zip(&labels) {
        if id < expect {
            let mut seen = 0;
            let ln = line_of(input, "v", |s| {
                seen += u32::from(s.u32() == Some(id));
                seen == 2
            });
            return Err(err(ln, format!("duplicate node id {id}")));
        }
        if id > expect {
            let ln = line_of(input, "v", |s| s.u32().is_some_and(|id| id > expect));
            return Err(err(ln, format!("node ids not dense: missing {expect}")));
        }
    }
    let mut b = GraphBuilder::with_capacity(labels.len(), 0);
    for &(_, l) in &labels {
        b.add_node(l);
    }
    for (l, name) in names {
        b.set_label_name(l, &name);
    }
    let n = labels.len() as NodeId;
    let dead_set = Bitset::from_slice(&dead);
    for &d in &dead {
        if d >= n {
            let ln = line_of(input, "x", |s| s.u32() == Some(d));
            return Err(err(ln, format!("tombstone x {d} references unknown node")));
        }
    }
    for &(u, v) in &edges {
        let message = if u >= n || v >= n {
            "references unknown node"
        } else if !dead_set.is_empty() && (dead_set.contains(u) || dead_set.contains(v)) {
            "touches a tombstoned node"
        } else {
            continue;
        };
        let ln = line_of(input, "e", |s| s.u32() == Some(u) && s.u32() == Some(v));
        return Err(err(ln, format!("edge ({u},{v}) {message}")));
    }
    b.add_edges(edges);
    let g = b.build();
    Ok(if dead_set.is_empty() { g } else { g.with_tombstones(dead_set) })
}

/// The line of the first record of `input` tagged `tag` that `hit`
/// accepts, reading the record's fields; 0 if none does. An id check of
/// [`parse_text`] runs after the line scan, so it finds its record with
/// this second scan, made only once a check has failed.
fn line_of(input: &str, tag: &str, mut hit: impl FnMut(&mut Scanner) -> bool) -> usize {
    let mut s = Scanner::new(input);
    while s.next_record() {
        if s.token() == Some(tag) && hit(&mut s) {
            return s.line();
        }
    }
    0
}

/// Appends one record: `tag`, then each field after a space.
fn push_record(out: &mut Vec<u8>, tag: u8, fields: &[u32]) {
    out.push(tag);
    for &f in fields {
        out.push(b' ');
        push_decimal(out, f);
    }
    out.push(b'\n');
}

/// Serializes a graph back to the text format (stable output, suitable for
/// golden tests). Edges come out in CSR order, which
/// [`GraphBuilder::build`] reads back without a scatter.
pub fn to_text(g: &DataGraph) -> String {
    let mut out = Vec::new();
    out.extend_from_slice(format!("t {} {}\n", g.num_nodes(), g.num_edges()).as_bytes());
    for (l, name) in (0..).zip(g.label_names()) {
        if !name.is_empty() {
            out.extend_from_slice(b"l ");
            push_decimal(&mut out, l);
            out.push(b' ');
            out.extend_from_slice(name.as_bytes());
            out.push(b'\n');
        }
    }
    for (v, &l) in (0..).zip(g.labels()) {
        push_record(&mut out, b'v', &[v, l]);
    }
    for v in g.tombstones().iter() {
        push_record(&mut out, b'x', &[v]);
    }
    for (u, v) in g.edges() {
        push_record(&mut out, b'e', &[u, v]);
    }
    // every byte is an ASCII tag, digit or separator or comes from a label
    // name, so the conversion cannot fail and the fallback never runs
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let text = "t 3 2\nv 0 0\nv 1 1\nv 2 1\ne 0 1\ne 0 2\n";
        let g = parse_text(text).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(to_text(&g), text);
    }

    #[test]
    fn comments_and_blank_lines() {
        let g = parse_text("# hi\n\nv 0 5\n   \nv 1 5\ne 1 0\n").unwrap();
        assert_eq!(g.num_nodes(), 2);
        assert!(g.has_edge(1, 0));
    }

    #[test]
    fn out_of_order_node_ids() {
        let g = parse_text("v 1 0\nv 0 1\ne 0 1\n").unwrap();
        assert_eq!(g.label(0), 1);
        assert_eq!(g.label(1), 0);
    }

    #[test]
    fn label_dictionary_roundtrip() {
        let text = "t 2 1\nl 0 Author\nl 1 Paper\nv 0 0\nv 1 1\ne 0 1\n";
        let g = parse_text(text).unwrap();
        assert_eq!(g.label_id("Author"), Some(0));
        assert_eq!(g.label_id("Paper"), Some(1));
        assert_eq!(g.label_name(1), "Paper");
        assert_eq!(to_text(&g), text);
        assert!(parse_text("l x Author\n").is_err());
        assert!(parse_text("l 0\n").is_err());
        // a dictionary entry for a label with no nodes round-trips too
        let text = "t 2 1\nl 0 A\nl 1 B\nl 2 Retracted\nv 0 0\nv 1 1\ne 0 1\n";
        let g = parse_text(text).unwrap();
        assert_eq!(g.num_labels(), 3);
        assert_eq!(g.label_id("Retracted"), Some(2));
        assert_eq!(to_text(&g), text);
    }

    #[test]
    fn tombstone_roundtrip() {
        let text = "t 3 1\nv 0 0\nv 1 1\nv 2 1\nx 1\ne 0 2\n";
        let g = parse_text(text).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_live_nodes(), 2);
        assert!(!g.is_live(1));
        assert_eq!(g.nodes_with_label(1), &[2]);
        assert_eq!(g.label_bitset(1).to_vec(), vec![2]);
        assert_eq!(to_text(&g), text);
        // tombstones must be edge-free and in range
        assert!(parse_text("v 0 0\nv 1 0\nx 0\ne 0 1\n").is_err());
        assert!(parse_text("v 0 0\nx 3\n").is_err());
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Every token of every record, as `Scanner::token` reads them.
    fn scanned(text: &str) -> Vec<Vec<&str>> {
        let mut s = Scanner::new(text);
        let mut records = Vec::new();
        while s.next_record() {
            assert_eq!(s.line(), records.len() + 1, "{text:?}");
            records.push(std::iter::from_fn(|| s.token()).collect());
        }
        records
    }

    #[test]
    fn scanner_splits_as_lines_and_split_whitespace_and_reads_numbers_as_parse() {
        const ALPHABET: &[u8] = b" \t\n\r\x0b\x0c0123456789+-ve#";
        let mut state = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..3000 {
            let len = xorshift(&mut state) % 48;
            let text: String = (0..len)
                .map(|_| ALPHABET[(xorshift(&mut state) % ALPHABET.len() as u64) as usize] as char)
                .collect();
            let want: Vec<Vec<&str>> =
                text.lines().map(|l| l.split_whitespace().collect()).collect();
            assert_eq!(scanned(&text), want, "{text:?}");
            let mut s = Scanner::new(&text);
            for tokens in &want {
                assert!(s.next_record());
                for tok in tokens {
                    assert_eq!(s.u32(), tok.parse().ok(), "{tok:?} in {text:?}");
                }
                assert_eq!(s.u32(), None, "the record has ended: {text:?}");
            }
            assert!(!s.next_record());
        }
    }

    #[test]
    fn u32_equals_parse_at_every_length_offset_and_terminator() {
        let numbers = [
            "0",
            "7",
            "10",
            "0000000",
            "1234567",
            "9999999",
            "12345678",
            "99999999",
            "00000000012",
            "4294967295",
            "4294967296",
            "18446744073709551616",
            "+0",
            "+1234567",
            "+",
            "-1",
            "-0",
            "1-",
            "12a",
            "1a2",
            "\u{663}",
        ];
        let ends = ["", " ", "\t", "\n", "\r\n", "\x0b", "\x0c", "x", "+", "7", "\u{a0}"];
        for pad in 0..9 {
            for number in numbers {
                for end in ends {
                    for tail in ["", " 5 6\nv 1 2"] {
                        let text = format!("{}{number}{end}{tail}", " ".repeat(pad));
                        // tokens end at ASCII whitespace only
                        let ascii_space = |c: char| c.is_ascii() && c.is_whitespace();
                        let line = text.lines().next().unwrap();
                        let first: Vec<&str> =
                            line.split(ascii_space).filter(|t| !t.is_empty()).collect();
                        let mut s = Scanner::new(&text);
                        assert!(s.next_record());
                        assert_eq!(s.u32(), first[0].parse().ok(), "{text:?}");
                        let rest: Vec<&str> = std::iter::from_fn(|| s.token()).collect();
                        assert_eq!(rest, first[1..], "{text:?}");
                    }
                }
            }
        }
        assert!(!Scanner::new("").next_record());
    }

    #[test]
    fn push_decimal_writes_what_display_writes() {
        let mut values = vec![0, 1, 9, u32::MAX];
        for k in 1..10 {
            let p = 10u32.pow(k);
            values.extend([p - 1, p, p + 1]);
        }
        for v in values {
            let mut buf = b"x".to_vec();
            push_decimal(&mut buf, v);
            assert_eq!(buf, format!("x{v}").into_bytes());
        }
    }

    #[test]
    fn errors() {
        assert!(parse_text("v x 0\n").is_err());
        assert!(parse_text("q 0 0\n").is_err());
        assert!(parse_text("v 0 0\nv 2 0\n").is_err()); // non-dense
        assert!(parse_text("v 0 0\ne 0 5\n").is_err()); // dangling edge
    }
}
