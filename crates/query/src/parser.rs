//! Text format for pattern queries.
//!
//! ```text
//! # comment
//! n <id> <label>     # node
//! d <from> <to>      # direct edge      (single line in the figures)
//! r <from> <to>      # reachability edge (double line in the figures)
//! ```

use std::cmp::Ordering;

use crate::{EdgeKind, PatternQuery, QNode};
use rig_graph::Label;

/// Error from [`parse_query`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for QueryParseError {}

fn err(line: usize, message: impl Into<String>) -> QueryParseError {
    QueryParseError { line, message: message.into() }
}

/// Parses the text format in the module docs. Every error names the line
/// of the record it is about; node ids must be `0..n`, each once.
pub fn parse_query(input: &str) -> Result<PatternQuery, QueryParseError> {
    // each record with its 1-based line number
    let mut nodes: Vec<(QNode, Label, usize)> = Vec::new();
    let mut edges: Vec<(QNode, QNode, EdgeKind, usize)> = Vec::new();
    for (ln, raw) in input.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let Some(tag) = parts.next() else { continue };
        let mut next_u32 = |what: &str| -> Result<u32, QueryParseError> {
            parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err(ln + 1, format!("bad {what}")))
        };
        match tag {
            "n" => {
                let id = next_u32("node id")?;
                let label = next_u32("node label")?;
                nodes.push((id, label, ln + 1));
            }
            "d" => {
                let f = next_u32("edge source")?;
                let t = next_u32("edge target")?;
                edges.push((f, t, EdgeKind::Direct, ln + 1));
            }
            "r" => {
                let f = next_u32("edge source")?;
                let t = next_u32("edge target")?;
                edges.push((f, t, EdgeKind::Reachability, ln + 1));
            }
            other => return Err(err(ln + 1, format!("unknown record '{other}'"))),
        }
    }
    // stable: a repeated id's later record sorts after its first
    nodes.sort_by_key(|&(id, ..)| id);
    for (expect, &(id, _, line)) in nodes.iter().enumerate() {
        match (id as usize).cmp(&expect) {
            Ordering::Less => return Err(err(line, format!("duplicate node id {id}"))),
            Ordering::Greater => {
                return Err(err(line, format!("node ids not dense: missing {expect}")))
            }
            Ordering::Equal => {}
        }
    }
    let mut q = PatternQuery::new(nodes.into_iter().map(|(_, l, _)| l).collect());
    for (f, t, k, line) in edges {
        q.try_add_edge(f, t, k).map_err(|e| err(line, e.to_string()))?;
    }
    Ok(q)
}

/// Serializes a query to the text format (stable output).
pub fn query_to_text(q: &PatternQuery) -> String {
    let mut out = String::new();
    for (i, &l) in q.labels().iter().enumerate() {
        out.push_str(&format!("n {i} {l}\n"));
    }
    for e in q.edges() {
        let tag = match e.kind {
            EdgeKind::Direct => 'd',
            EdgeKind::Reachability => 'r',
        };
        out.push_str(&format!("{tag} {} {}\n", e.from, e.to));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig2_query;

    #[test]
    fn roundtrip_fig2() {
        let q = fig2_query();
        let text = query_to_text(&q);
        let back = parse_query(&text).unwrap();
        assert_eq!(q, back);
    }

    #[test]
    fn parse_with_comments() {
        let q = parse_query("# q\nn 0 1\nn 1 2\nr 0 1\n").unwrap();
        assert_eq!(q.num_nodes(), 2);
        assert_eq!(q.edge(0).kind, EdgeKind::Reachability);
    }

    /// Each error names the line of its record.
    #[test]
    fn errors() {
        let cases = [
            ("n 0\n", "line 1: bad node label"),
            ("x 0 0\n", "line 1: unknown record 'x'"),
            ("n 0 0\nn 0 1\n", "line 2: duplicate node id 0"),
            ("n 0 0\nn 2 0\n", "line 2: node ids not dense: missing 1"),
            ("n 2 0\n# gap\nn 0 0\n", "line 1: node ids not dense: missing 1"),
            ("n 0 0\nd 0 5\n", "line 2: edge endpoint 5 out of range (pattern has 1 node(s))"),
            ("n 0 0\n\nd 0 0\n", "line 3: self-loop on pattern node 0 is not expressible"),
        ];
        for (text, expect) in cases {
            assert_eq!(parse_query(text).unwrap_err().to_string(), expect, "{text:?}");
        }
    }
}
