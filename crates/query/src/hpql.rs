//! HPQL — the textual **H**ybrid **P**attern **Q**uery **L**anguage.
//!
//! HPQL writes a hybrid pattern the way the paper draws it: a `MATCH`
//! keyword followed by comma-separated *chains* of parenthesized nodes
//! connected by `->` (direct, edge-to-edge) and `=>` (reachability,
//! edge-to-path) arrows:
//!
//! ```text
//! MATCH (a:Author)->(p:Paper)=>(q:Paper), (a)->(q)
//! ```
//!
//! Grammar (whitespace-insensitive; `#` and `//` start line comments):
//!
//! ```text
//! query  :=  MATCH chain (',' chain)* [';']
//! chain  :=  node (arrow node)*
//! arrow  :=  '->' | '=>'
//! node   :=  '(' [var] [':' label] ')'
//! var    :=  IDENT
//! label  :=  IDENT | INTEGER          (a label name or a raw label id)
//! ```
//!
//! * A **variable** names a query node; every later `(var)` mention refers
//!   to the same node. The first labeled mention fixes the node's label;
//!   re-labeling a variable with a different label is an error, and a
//!   variable that is never labeled is an error.
//! * `(:Label)` without a variable introduces a fresh anonymous node.
//! * Self-loops (`(a)->(a)`) and duplicate edges (same endpoints *and*
//!   kind) are rejected; a direct and a reachability edge between the same
//!   pair are distinct constraints and both allowed.
//!
//! Parsing yields an [`HpqlQuery`] AST. Label *names* are resolved to
//! dense label ids by [`HpqlQuery::resolve`] (against a graph's label-name
//! dictionary — see `rig_graph::DataGraph::label_id`; `resolve(|_| None)`
//! accepts exactly the texts whose labels are all numeric). The inverse
//! direction is [`to_hpql`], the pretty-printer used by `explain` output
//! and asserted round-trip-stable by proptests.

use crate::{EdgeKind, PatternError, PatternQuery, QNode};
use rig_graph::Label;

/// A 1-based source position plus the length (in characters) of the
/// token or lexeme it covers. `len` is at least 1, so a span can always
/// be rendered as a caret underline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub line: usize,
    pub col: usize,
    pub len: usize,
}

impl Span {
    pub fn new(line: usize, col: usize, len: usize) -> Span {
        Span { line, col, len: len.max(1) }
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Error from HPQL parsing or label resolution, with a 1-based source
/// span covering the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HpqlError {
    pub line: usize,
    pub col: usize,
    /// Character length of the offending token (>= 1), so callers can
    /// underline the whole token, not a single character.
    pub len: usize,
    pub message: String,
}

impl HpqlError {
    pub fn span(&self) -> Span {
        Span::new(self.line, self.col, self.len)
    }
}

impl std::fmt::Display for HpqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for HpqlError {}

fn err(line: usize, col: usize, message: impl Into<String>) -> HpqlError {
    HpqlError { line, col, len: 1, message: message.into() }
}

fn err_span(span: Span, message: impl Into<String>) -> HpqlError {
    HpqlError { line: span.line, col: span.col, len: span.len, message: message.into() }
}

/// A node label as written: a name to be resolved, or a raw label id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabelSpec {
    Name(String),
    Id(Label),
}

/// Parsed (but not yet label-resolved) HPQL query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HpqlQuery {
    /// One variable name per query node (anonymous nodes get fresh
    /// `_a<k>` names), in order of first appearance.
    vars: Vec<String>,
    /// One label per query node.
    labels: Vec<LabelSpec>,
    /// Pattern edges over node indexes.
    edges: Vec<(QNode, QNode, EdgeKind)>,
    /// Span of each node's first mention (the variable token, or the
    /// `(` of an anonymous node), parallel to `vars`.
    node_spans: Vec<Span>,
    /// Span of the label token that fixed each node's label, parallel
    /// to `labels`.
    label_spans: Vec<Span>,
    /// Span of the arrow token of each edge, parallel to `edges`.
    edge_spans: Vec<Span>,
}

/// A resolved HPQL query: the pattern plus its variable names (parallel to
/// pattern node ids — occurrence tuples are indexed the same way).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HpqlResolved {
    pub query: PatternQuery,
    pub vars: Vec<String>,
}

impl HpqlQuery {
    /// Number of pattern nodes.
    pub fn num_nodes(&self) -> usize {
        self.vars.len()
    }

    /// Variable names, parallel to node ids.
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// Label specs, parallel to node ids.
    pub fn labels(&self) -> &[LabelSpec] {
        &self.labels
    }

    /// Pattern edges over node indexes, in source order.
    pub fn edges(&self) -> &[(QNode, QNode, EdgeKind)] {
        &self.edges
    }

    /// Span of node `i`'s first mention (its variable token, or the `(`
    /// of an anonymous node).
    pub fn node_span(&self, i: usize) -> Span {
        self.node_spans[i]
    }

    /// Span of the label token that fixed node `i`'s label.
    pub fn label_span(&self, i: usize) -> Span {
        self.label_spans[i]
    }

    /// Span of the arrow token of edge `e` (in `edges()` order).
    pub fn edge_span(&self, e: usize) -> Span {
        self.edge_spans[e]
    }

    /// Resolves label names through `resolve_name` (raw `Id` labels pass
    /// through) and builds the [`PatternQuery`].
    pub fn resolve(
        &self,
        resolve_name: impl FnMut(&str) -> Option<Label>,
    ) -> Result<HpqlResolved, HpqlError> {
        self.resolve_with(resolve_name, |_| None)
    }

    /// Like [`HpqlQuery::resolve`], but when a label name is unknown the
    /// `suggest` callback may supply a near-miss candidate (see
    /// [`closest_label`]) that is appended to the error as a
    /// "did you mean" hint. The error's span covers the label token.
    pub fn resolve_with(
        &self,
        mut resolve_name: impl FnMut(&str) -> Option<Label>,
        mut suggest: impl FnMut(&str) -> Option<String>,
    ) -> Result<HpqlResolved, HpqlError> {
        let labels: Vec<Label> = self
            .labels
            .iter()
            .enumerate()
            .map(|(i, spec)| match spec {
                LabelSpec::Id(id) => Ok(*id),
                LabelSpec::Name(name) => resolve_name(name).ok_or_else(|| {
                    let hint = match suggest(name) {
                        Some(s) => format!("; did you mean '{s}'?"),
                        None => String::new(),
                    };
                    err_span(
                        self.label_spans[i],
                        format!(
                            "unknown label name '{name}' (variable '{}'): \
                             not in the graph's label dictionary{hint}",
                            self.vars[i]
                        ),
                    )
                }),
            })
            .collect::<Result<_, _>>()?;
        self.build(labels)
    }

    fn build(&self, labels: Vec<Label>) -> Result<HpqlResolved, HpqlError> {
        let mut query = PatternQuery::new(labels);
        for &(f, t, kind) in &self.edges {
            query.try_add_edge(f, t, kind).map_err(|e: PatternError| err(0, 0, e.to_string()))?;
        }
        Ok(HpqlResolved { query, vars: self.vars.clone() })
    }
}

/// Parses HPQL text into an [`HpqlQuery`] AST.
pub fn parse_hpql(input: &str) -> Result<HpqlQuery, HpqlError> {
    Parser::new(input)?.parse()
}

// ---------------------------------------------------------------------------
// did-you-mean suggestions
// ---------------------------------------------------------------------------

/// Levenshtein distance over characters, case-insensitive (a wrong-case
/// label is the most common near-miss).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().flat_map(|c| c.to_lowercase()).collect();
    let b: Vec<char> = b.chars().flat_map(|c| c.to_lowercase()).collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The closest candidate to `name` by edit distance, if any is close
/// enough to plausibly be a typo: distance at most `max(1, len/3)` and
/// strictly smaller than the name's own length. Ties keep the first
/// candidate in iteration order (label-id order when iterating a graph
/// dictionary), so suggestions are deterministic. Shared by the HPQL
/// resolution error path and the `rig_analyze` name-resolution pass.
pub fn closest_label<'a>(
    name: &str,
    candidates: impl IntoIterator<Item = &'a str>,
) -> Option<&'a str> {
    let budget = (name.chars().count() / 3).max(1);
    let mut best: Option<(usize, &str)> = None;
    for cand in candidates {
        if cand.is_empty() {
            continue;
        }
        let d = edit_distance(name, cand);
        if d <= budget && d < name.chars().count() && best.is_none_or(|(bd, _)| d < bd) {
            best = Some((d, cand));
        }
    }
    best.map(|(_, c)| c)
}

// ---------------------------------------------------------------------------
// lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Match,
    Ident(String),
    Int(u32),
    LParen,
    RParen,
    Colon,
    Comma,
    Semi,
    Direct, // ->
    Reach,  // =>
    Eof,
}

impl Tok {
    fn describe(&self) -> String {
        match self {
            Tok::Match => "'MATCH'".into(),
            Tok::Ident(s) => format!("identifier '{s}'"),
            Tok::Int(n) => format!("integer {n}"),
            Tok::LParen => "'('".into(),
            Tok::RParen => "')'".into(),
            Tok::Colon => "':'".into(),
            Tok::Comma => "','".into(),
            Tok::Semi => "';'".into(),
            Tok::Direct => "'->'".into(),
            Tok::Reach => "'=>'".into(),
            Tok::Eof => "end of input".into(),
        }
    }
}

#[derive(Clone)]
struct Lexed {
    tok: Tok,
    line: usize,
    col: usize,
    len: usize,
}

impl Lexed {
    fn span(&self) -> Span {
        Span::new(self.line, self.col, self.len)
    }
}

fn lex(input: &str) -> Result<Vec<Lexed>, HpqlError> {
    let mut out = Vec::new();
    let mut chars = input.chars().peekable();
    let (mut line, mut col) = (1usize, 1usize);
    macro_rules! bump {
        () => {{
            let c = chars.next();
            if c == Some('\n') {
                line += 1;
                col = 1;
            } else if c.is_some() {
                col += 1;
            }
            c
        }};
    }
    while let Some(&c) = chars.peek() {
        let (tl, tc) = (line, col);
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                bump!();
            }
            '#' => {
                while chars.peek().is_some_and(|&c| c != '\n') {
                    bump!();
                }
            }
            '/' => {
                bump!();
                if chars.peek() == Some(&'/') {
                    while chars.peek().is_some_and(|&c| c != '\n') {
                        bump!();
                    }
                } else {
                    return Err(err(tl, tc, "unexpected '/' (did you mean a '//' comment?)"));
                }
            }
            '(' => {
                bump!();
                out.push(Lexed { tok: Tok::LParen, line: tl, col: tc, len: 1 });
            }
            ')' => {
                bump!();
                out.push(Lexed { tok: Tok::RParen, line: tl, col: tc, len: 1 });
            }
            ':' => {
                bump!();
                out.push(Lexed { tok: Tok::Colon, line: tl, col: tc, len: 1 });
            }
            ',' => {
                bump!();
                out.push(Lexed { tok: Tok::Comma, line: tl, col: tc, len: 1 });
            }
            ';' => {
                bump!();
                out.push(Lexed { tok: Tok::Semi, line: tl, col: tc, len: 1 });
            }
            '-' => {
                bump!();
                if chars.peek() == Some(&'>') {
                    bump!();
                    out.push(Lexed { tok: Tok::Direct, line: tl, col: tc, len: 2 });
                } else {
                    return Err(err(tl, tc, "unexpected '-' (direct edges are written '->')"));
                }
            }
            '=' => {
                bump!();
                if chars.peek() == Some(&'>') {
                    bump!();
                    out.push(Lexed { tok: Tok::Reach, line: tl, col: tc, len: 2 });
                } else {
                    return Err(err(
                        tl,
                        tc,
                        "unexpected '=' (reachability edges are written '=>')",
                    ));
                }
            }
            c if c.is_ascii_digit() => {
                let mut s = String::new();
                while let Some(&d) = chars.peek().filter(|c| c.is_ascii_digit()) {
                    bump!();
                    s.push(d);
                }
                let n: u32 = s.parse().map_err(|_| {
                    err_span(Span::new(tl, tc, s.len()), format!("label id '{s}' out of range"))
                })?;
                out.push(Lexed { tok: Tok::Int(n), line: tl, col: tc, len: s.len() });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&d) =
                    chars.peek().filter(|&&c| c.is_ascii_alphanumeric() || c == '_')
                {
                    bump!();
                    s.push(d);
                }
                let len = s.len();
                let tok = if s.eq_ignore_ascii_case("match") { Tok::Match } else { Tok::Ident(s) };
                out.push(Lexed { tok, line: tl, col: tc, len });
            }
            other => return Err(err(tl, tc, format!("unexpected character '{other}'"))),
        }
    }
    out.push(Lexed { tok: Tok::Eof, line, col, len: 1 });
    Ok(out)
}

// ---------------------------------------------------------------------------
// parser
// ---------------------------------------------------------------------------

struct Parser {
    toks: Vec<Lexed>,
    pos: usize,
    vars: Vec<String>,
    labels: Vec<Option<LabelSpec>>,
    /// Span of each node's first mention, for "never labeled" errors and
    /// the AST's `node_spans`.
    first_mention: Vec<Span>,
    /// Span of the label token that fixed each node's label.
    label_spans: Vec<Option<Span>>,
    edges: Vec<(QNode, QNode, EdgeKind)>,
    /// Span of each edge's arrow token, parallel to `edges`.
    edge_spans: Vec<Span>,
    anon: usize,
}

impl Parser {
    fn new(input: &str) -> Result<Parser, HpqlError> {
        Ok(Parser {
            toks: lex(input)?,
            pos: 0,
            vars: Vec::new(),
            labels: Vec::new(),
            first_mention: Vec::new(),
            label_spans: Vec::new(),
            edges: Vec::new(),
            edge_spans: Vec::new(),
            anon: 0,
        })
    }

    fn peek(&self) -> &Lexed {
        &self.toks[self.pos]
    }

    fn next(&mut self) -> Lexed {
        let l = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        l
    }

    fn expect(&mut self, want: Tok) -> Result<Lexed, HpqlError> {
        let got = self.next();
        if got.tok == want {
            Ok(got)
        } else {
            Err(err_span(
                got.span(),
                format!("expected {}, found {}", want.describe(), got.tok.describe()),
            ))
        }
    }

    fn parse(mut self) -> Result<HpqlQuery, HpqlError> {
        self.expect(Tok::Match)?;
        loop {
            self.chain()?;
            match self.peek().tok {
                Tok::Comma => {
                    self.next();
                }
                Tok::Semi => {
                    self.next();
                    break;
                }
                Tok::Eof => break,
                _ => {
                    let got = self.next();
                    return Err(err_span(
                        got.span(),
                        format!(
                            "expected ',', ';', '->', '=>' or end of query, found {}",
                            got.tok.describe()
                        ),
                    ));
                }
            }
        }
        let trailing = self.next();
        if trailing.tok != Tok::Eof {
            return Err(err_span(
                trailing.span(),
                format!("trailing input after query: {}", trailing.tok.describe()),
            ));
        }
        // every node must have a label by the end of the query
        let mut labels = Vec::with_capacity(self.labels.len());
        let mut label_spans = Vec::with_capacity(self.labels.len());
        for (i, l) in self.labels.iter().enumerate() {
            match l {
                Some(spec) => {
                    labels.push(spec.clone());
                    // a labeled node always has a recorded label span
                    label_spans.push(self.label_spans[i].unwrap_or(self.first_mention[i]));
                }
                None => {
                    return Err(err_span(
                        self.first_mention[i],
                        format!(
                            "variable '{}' is never labeled; write ({}:Label) at one mention",
                            self.vars[i], self.vars[i]
                        ),
                    ));
                }
            }
        }
        Ok(HpqlQuery {
            vars: self.vars,
            labels,
            edges: self.edges,
            node_spans: self.first_mention,
            label_spans,
            edge_spans: self.edge_spans,
        })
    }

    fn chain(&mut self) -> Result<(), HpqlError> {
        let mut prev = self.node()?;
        loop {
            let kind = match self.peek().tok {
                Tok::Direct => EdgeKind::Direct,
                Tok::Reach => EdgeKind::Reachability,
                _ => return Ok(()),
            };
            let arrow = self.next();
            let next = self.node()?;
            if prev == next {
                return Err(err_span(
                    arrow.span(),
                    format!(
                        "self-loop on variable '{}' is not expressible",
                        self.vars[prev as usize]
                    ),
                ));
            }
            if self.edges.iter().any(|&(f, t, k)| f == prev && t == next && k == kind) {
                return Err(err_span(
                    arrow.span(),
                    format!(
                        "duplicate {} edge ({})->({})",
                        match kind {
                            EdgeKind::Direct => "direct",
                            EdgeKind::Reachability => "reachability",
                        },
                        self.vars[prev as usize],
                        self.vars[next as usize]
                    ),
                ));
            }
            self.edges.push((prev, next, kind));
            self.edge_spans.push(arrow.span());
            prev = next;
        }
    }

    /// Parses one `(var[:label])` node reference; returns its node index.
    fn node(&mut self) -> Result<QNode, HpqlError> {
        let open = self.expect(Tok::LParen)?;
        let open_span = open.span();
        let var = match &self.peek().tok {
            Tok::Ident(name) => {
                let var = (name.clone(), self.peek().span());
                self.next();
                Some(var)
            }
            _ => None,
        };
        let label = if self.peek().tok == Tok::Colon {
            self.next();
            let got = self.next();
            let span = got.span();
            match got.tok {
                Tok::Ident(name) => Some((LabelSpec::Name(name), span)),
                Tok::Int(id) => Some((LabelSpec::Id(id), span)),
                other => {
                    return Err(err_span(
                        span,
                        format!(
                            "expected a label name or id after ':', found {}",
                            other.describe()
                        ),
                    ))
                }
            }
        } else {
            None
        };
        self.expect(Tok::RParen)?;

        let idx = match var {
            Some((name, span)) => match self.vars.iter().position(|v| v == &name) {
                Some(i) => i as QNode,
                None => self.declare(name, span),
            },
            None => {
                if label.is_none() {
                    return Err(err_span(
                        open_span,
                        "empty node '()': write a variable, a label, or both",
                    ));
                }
                // anonymous node: synthesize a non-colliding variable name
                loop {
                    let name = format!("_a{}", self.anon);
                    self.anon += 1;
                    if !self.vars.iter().any(|v| v == &name) {
                        break self.declare(name, open_span);
                    }
                }
            }
        };
        if let Some((spec, span)) = label {
            match &self.labels[idx as usize] {
                None => {
                    self.labels[idx as usize] = Some(spec);
                    self.label_spans[idx as usize] = Some(span);
                }
                Some(existing) if *existing == spec => {}
                Some(existing) => {
                    return Err(err_span(
                        span,
                        format!(
                            "variable '{}' relabeled: already {}, now {}",
                            self.vars[idx as usize],
                            describe_label(existing),
                            describe_label(&spec)
                        ),
                    ));
                }
            }
        }
        Ok(idx)
    }

    fn declare(&mut self, name: String, mention: Span) -> QNode {
        let idx = self.vars.len() as QNode;
        self.vars.push(name);
        self.labels.push(None);
        self.label_spans.push(None);
        self.first_mention.push(mention);
        idx
    }
}

fn describe_label(spec: &LabelSpec) -> String {
    match spec {
        LabelSpec::Name(n) => format!("':{n}'"),
        LabelSpec::Id(i) => format!("':{i}'"),
    }
}

// ---------------------------------------------------------------------------
// pretty-printer
// ---------------------------------------------------------------------------

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !s.eq_ignore_ascii_case("match")
}

/// Pretty-prints a pattern as HPQL. `vars` supplies variable names
/// (parallel to node ids; invalid or missing names fall back to `v<i>`);
/// `label_name` maps a label id to its display name (`None` or a
/// non-identifier prints the raw id). The output re-parses to the same
/// pattern modulo node numbering — node ids follow first appearance in the
/// text, and the variable names carry the correspondence (see the
/// round-trip proptests).
pub fn to_hpql(
    q: &PatternQuery,
    vars: Option<&[String]>,
    mut label_name: impl FnMut(Label) -> Option<String>,
) -> String {
    let n = q.num_nodes();
    let var_of = |i: usize| -> String {
        match vars.and_then(|v| v.get(i)) {
            Some(name) if is_ident(name) => name.clone(),
            _ => format!("v{i}"),
        }
    };
    let mut mentioned = vec![false; n];
    let mut node_text = |i: usize, mentioned: &mut [bool]| -> String {
        if mentioned[i] {
            format!("({})", var_of(i))
        } else {
            mentioned[i] = true;
            let l = q.label(i as QNode);
            match label_name(l) {
                Some(name) if is_ident(&name) => format!("({}:{})", var_of(i), name),
                _ => format!("({}:{})", var_of(i), l),
            }
        }
    };

    let mut used = vec![false; q.num_edges()];
    let mut chains: Vec<String> = Vec::new();
    // Chains start from the lowest-id unused edge and greedily extend from
    // the chain tail, so typical path/tree patterns print as one chain.
    while let Some(start) = used.iter().position(|&u| !u) {
        used[start] = true;
        let e = q.edge(start as crate::EdgeId);
        let mut chain = String::new();
        chain.push_str(&node_text(e.from as usize, &mut mentioned));
        chain.push_str(arrow(e.kind));
        chain.push_str(&node_text(e.to as usize, &mut mentioned));
        let mut tail = e.to;
        'extend: loop {
            for &eid in q.out_edges(tail) {
                if !used[eid as usize] {
                    used[eid as usize] = true;
                    let e = q.edge(eid);
                    chain.push_str(arrow(e.kind));
                    chain.push_str(&node_text(e.to as usize, &mut mentioned));
                    tail = e.to;
                    continue 'extend;
                }
            }
            break;
        }
        chains.push(chain);
    }
    // isolated nodes (only possible in edge-free patterns) still print
    for i in 0..n {
        if !mentioned[i] {
            chains.push(node_text(i, &mut mentioned));
        }
    }
    format!("MATCH {}", chains.join(", "))
}

fn arrow(kind: EdgeKind) -> &'static str {
    match kind {
        EdgeKind::Direct => "->",
        EdgeKind::Reachability => "=>",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig2_query;

    /// The label dictionary of these tests: a name's id is its index.
    const NAMES: [&str; 4] = ["Author", "Paper", "L", "M"];

    fn parse_named(text: &str) -> (PatternQuery, Vec<String>) {
        let r = parse_hpql(text)
            .unwrap()
            .resolve(|n| NAMES.iter().position(|x| *x == n).map(|i| i as Label))
            .unwrap();
        (r.query, r.vars)
    }

    /// Numeric labels pass through unchanged, up to `u32::MAX`, and never
    /// meet the dictionary: a text with numeric labels only resolves
    /// without one, and a named and a numeric label stay distinct.
    #[test]
    fn numeric_labels_pass_through_resolution() {
        let r = parse_hpql("MATCH (a:4294967295)->(b:0)").unwrap().resolve(|_| None).unwrap();
        assert_eq!(r.query.labels(), &[u32::MAX, 0]);
        let (q, _) = parse_named("MATCH (a:Author)->(b:7), (b)->(c:0)");
        assert_eq!(q.labels(), &[0, 7, 0]);
        let (q, _) = parse_named("MATCH (a:M)->(b:0)");
        assert_eq!(q.labels(), &[3, 0]);
    }

    #[test]
    fn parses_the_issue_example() {
        let (q, vars) = parse_named("MATCH (a:Author)->(p:Paper)=>(q:Paper), (a)->(q)");
        assert_eq!(vars, vec!["a", "p", "q"]);
        assert_eq!(q.num_nodes(), 3);
        assert_eq!(q.num_edges(), 3);
        assert_eq!(q.label(0), 0); // Author
        assert_eq!(q.label(1), 1); // Paper
        assert_eq!(q.label(2), 1); // Paper (same name, same id)
        assert_eq!(q.edge(0).kind, EdgeKind::Direct);
        assert_eq!(q.edge(1).kind, EdgeKind::Reachability);
        assert_eq!(q.edge(2).kind, EdgeKind::Direct);
    }

    #[test]
    fn numeric_labels_and_anonymous_nodes() {
        let (q, vars) = parse_named("MATCH (x:0)=>(:7)");
        assert_eq!(q.num_nodes(), 2);
        assert_eq!(q.label(0), 0);
        assert_eq!(q.label(1), 7);
        assert_eq!(vars[0], "x");
        assert!(vars[1].starts_with("_a"));
    }

    #[test]
    fn comments_whitespace_case_and_semicolon() {
        let (q, _) =
            parse_named("# a comment\n  match // trailing\n   (a:L) -> (b:M)\n , (b) => (a) ;");
        assert_eq!(q.num_edges(), 2);
        assert_eq!(q.edge(1).kind, EdgeKind::Reachability);
    }

    #[test]
    fn label_first_mention_wins_and_conflicts_error() {
        let (q, _) = parse_named("MATCH (a:L)->(b:M), (b)->(a)");
        assert_eq!(q.labels(), &[2, 3]);
        let e = parse_hpql("MATCH (a:L)->(b:M), (a:M)->(b)").unwrap_err();
        assert!(e.message.contains("relabeled"), "{e}");
    }

    #[test]
    fn duplicate_and_self_loop_edges_rejected() {
        let e = parse_hpql("MATCH (a:L)->(b:M), (a)->(b)").unwrap_err();
        assert!(e.message.contains("duplicate"), "{e}");
        let e = parse_hpql("MATCH (a:L)->(a)").unwrap_err();
        assert!(e.message.contains("self-loop"), "{e}");
        // parallel edges of different kinds are fine
        let (q, _) = parse_named("MATCH (a:L)->(b:M), (a)=>(b)");
        assert_eq!(q.num_edges(), 2);
    }

    #[test]
    fn unlabeled_variable_errors_with_position() {
        let e = parse_hpql("MATCH (a:L)->(b)").unwrap_err();
        assert!(e.message.contains("'b' is never labeled"), "{e}");
        assert_eq!(e.line, 1);
    }

    #[test]
    fn unknown_name_resolution_fails() {
        let ast = parse_hpql("MATCH (a:Ghost)->(b:0)").unwrap();
        let e = ast.resolve(|_| None).unwrap_err();
        assert!(e.message.contains("Ghost"), "{e}");
    }

    #[test]
    fn lex_errors_carry_position() {
        for bad in ["MATCH (a:L) -> (b:M) !", "MATCH (a:L) - (b:M)", "MATCH (a:L) = (b:M)"] {
            let e = parse_hpql(bad).unwrap_err();
            assert!(e.line >= 1 && e.col >= 1 && e.len >= 1, "{bad}: {e}");
        }
        assert!(parse_hpql("(a:L)->(b:M)").unwrap_err().message.contains("MATCH"));
        assert!(parse_hpql("MATCH ()").is_err());
    }

    #[test]
    fn errors_span_the_whole_offending_token() {
        // the trailing identifier after the query is 5 chars long
        let e = parse_hpql("MATCH (a:L)->(b:M) junks").unwrap_err();
        assert_eq!((e.line, e.col, e.len), (1, 20, 5), "{e}");
        // a relabel error covers the second label token
        let e = parse_hpql("MATCH (a:Long)->(b:M), (a:Other)->(b)").unwrap_err();
        assert_eq!((e.col, e.len), (27, 5), "{e}");
        // duplicate-edge errors cover the arrow
        let e = parse_hpql("MATCH (a:L)->(b:M), (a)->(b)").unwrap_err();
        assert_eq!(e.len, 2, "{e}");
    }

    #[test]
    fn ast_carries_node_label_and_edge_spans() {
        let q = parse_hpql("MATCH (alpha:Author)->(p:Paper)").unwrap();
        assert_eq!(q.node_span(0), Span::new(1, 8, 5)); // 'alpha'
        assert_eq!(q.label_span(0), Span::new(1, 14, 6)); // 'Author'
        assert_eq!(q.label_span(1), Span::new(1, 26, 5)); // 'Paper'
        assert_eq!(q.edge_span(0), Span::new(1, 21, 2)); // '->'
                                                         // anonymous nodes anchor on their '('
        let q = parse_hpql("MATCH (x:0)=>(:7)").unwrap();
        assert_eq!(q.node_span(1), Span::new(1, 14, 1));
    }

    #[test]
    fn unknown_name_errors_carry_label_span_and_suggestion() {
        let ast = parse_hpql("MATCH (a:Autor)->(b:Paper)").unwrap();
        let dict = ["Author", "Paper"];
        let e = ast
            .resolve_with(
                |n| dict.iter().position(|d| *d == n).map(|i| i as Label),
                |n| closest_label(n, dict.iter().copied()).map(str::to_string),
            )
            .unwrap_err();
        assert!(e.message.contains("did you mean 'Author'?"), "{e}");
        assert_eq!((e.line, e.col, e.len), (1, 10, 5), "{e}");
    }

    #[test]
    fn closest_label_accepts_near_misses_only() {
        let dict = ["Author", "Paper", "Cited"];
        assert_eq!(closest_label("Autor", dict), Some("Author"));
        assert_eq!(closest_label("author", dict), Some("Author")); // case-insensitive
        assert_eq!(closest_label("Papers", dict), Some("Paper"));
        assert_eq!(closest_label("Zebra", dict), None); // nothing close
        assert_eq!(closest_label("X", dict), None); // shorter than any distance
    }

    #[test]
    fn printer_round_trips_fig2() {
        let q = fig2_query();
        let text = to_hpql(&q, None, |_| None);
        assert_eq!(text, "MATCH (v0:0)->(v1:1)=>(v2:2), (v0)->(v2)");
        let (back, vars) = parse_named(&text);
        // v0,v1,v2 appear in id order here, so node numbering is preserved
        assert_eq!(vars, vec!["v0", "v1", "v2"]);
        assert_eq!(back.canonical(), q.canonical());
    }

    #[test]
    fn printer_uses_names_and_vars_when_given() {
        let q = fig2_query();
        let vars: Vec<String> = ["a", "p", "q"].iter().map(|s| s.to_string()).collect();
        let names = ["Author", "Paper", "Cited"];
        let text = to_hpql(&q, Some(&vars), |l| Some(names[l as usize].to_string()));
        assert_eq!(text, "MATCH (a:Author)->(p:Paper)=>(q:Cited), (a)->(q)");
    }

    #[test]
    fn printer_handles_edge_free_patterns() {
        let q = PatternQuery::new(vec![3]);
        assert_eq!(to_hpql(&q, None, |_| None), "MATCH (v0:3)");
    }
}
