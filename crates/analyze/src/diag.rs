//! Diagnostic types, the rustc-style text renderer and the JSON
//! exposition emitted by `rigmatch check --format json`.

use rig_query::Span;

/// How bad a finding is. `Error` diagnostics make strict lint mode (and
/// `rigmatch check`) fail; warnings and notes are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Note,
    Warning,
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

/// Stable lint codes, grouped by pass family (see `docs/analysis.md`):
/// `P` parse, `A` name resolution, `E1xx` emptiness proofs, `R2xx`
/// redundancy lints, `C3xx` cost findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Code {
    /// The query text failed to parse at all.
    Parse,
    /// A label name is not in the graph's dictionary.
    UnknownLabel,
    /// A numeric label id is outside the graph's label space.
    LabelOutOfRange,
    /// A variable's label has an empty inverted list.
    EmptyLabel,
    /// A direct edge between a label pair with zero co-occurring edges.
    NoLabelPairEdges,
    /// A reachability edge refuted by probing the candidate extremes
    /// against the reachability oracle.
    UnreachablePair,
    /// A reachability edge the engine's transitive reduction removes.
    RedundantReachEdge,
    /// A reachability edge duplicated by a parallel direct edge.
    SubsumedReachEdge,
    /// A variable constrained but never connected to the pattern.
    Disconnected,
    /// Informational cardinality / RIG-size estimates.
    CostEstimate,
    /// Informational factorized-DP conditioning summary.
    ConditioningWidth,
    /// The count path will route to worst-case enumeration.
    EnumerationRouting,
}

impl Code {
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Parse => "P001",
            Code::UnknownLabel => "A001",
            Code::LabelOutOfRange => "A002",
            Code::EmptyLabel => "E101",
            Code::NoLabelPairEdges => "E102",
            Code::UnreachablePair => "E103",
            Code::RedundantReachEdge => "R201",
            Code::SubsumedReachEdge => "R202",
            Code::Disconnected => "R203",
            Code::CostEstimate => "C301",
            Code::ConditioningWidth => "C302",
            Code::EnumerationRouting => "C303",
        }
    }

    /// True for the emptiness-proof codes: a diagnostic with one of
    /// these is a *proof* the answer set is empty (the engine must
    /// count 0 — see the soundness proptests).
    pub fn proves_empty(self) -> bool {
        matches!(self, Code::EmptyLabel | Code::NoLabelPairEdges | Code::UnreachablePair)
    }
}

/// One analysis finding: a typed code, a severity, an optional source
/// span (absent for patterns that never had text, e.g. legacy query
/// files), the human message and an optional machine-readable
/// suggestion (the did-you-mean candidate).
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub code: Code,
    pub severity: Severity,
    pub span: Option<Span>,
    pub message: String,
    pub suggestion: Option<String>,
}

impl Diagnostic {
    pub fn new(code: Code, severity: Severity, message: impl Into<String>) -> Diagnostic {
        Diagnostic { code, severity, span: None, message: message.into(), suggestion: None }
    }

    pub fn with_span(mut self, span: Span) -> Diagnostic {
        self.span = Some(span);
        self
    }

    pub fn with_suggestion(mut self, s: impl Into<String>) -> Diagnostic {
        self.suggestion = Some(s.into());
        self
    }
}

/// The result of one analysis run: every diagnostic the passes emitted
/// (source order within a pass, passes in resolution → emptiness →
/// redundancy → cost order) plus the original query text for rendering.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The analyzed HPQL text, when the query came in as text.
    pub source: Option<String>,
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// True iff any diagnostic is an error (strict mode refuses the
    /// query, `rigmatch check` exits 8).
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// True iff the query text failed to parse (the CLI maps this to
    /// the ordinary parse exit code, not the analysis one).
    pub fn is_parse_failure(&self) -> bool {
        self.diagnostics.iter().any(|d| d.code == Code::Parse)
    }

    /// True iff the analyzer *proved* the answer set empty.
    pub fn proven_empty(&self) -> bool {
        self.diagnostics.iter().any(|d| d.code.proves_empty())
    }

    /// `(errors, warnings, notes)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for d in &self.diagnostics {
            match d.severity {
                Severity::Error => c.0 += 1,
                Severity::Warning => c.1 += 1,
                Severity::Note => c.2 += 1,
            }
        }
        c
    }

    /// Renders every diagnostic in the rustc style: a severity header
    /// with the lint code, then (when the query text and a span are
    /// available) the offending source line with a caret underline, then
    /// any suggestion as a `= help:` footer.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&format!("{}[{}]: {}\n", d.severity.as_str(), d.code.as_str(), d.message));
            if let (Some(span), Some(src)) = (d.span, self.source.as_deref()) {
                if let Some(text) = src.lines().nth(span.line.saturating_sub(1)) {
                    let n = span.line.to_string();
                    let pad = " ".repeat(n.len());
                    out.push_str(&format!("{pad}--> query:{}:{}\n", span.line, span.col));
                    out.push_str(&format!("{pad} |\n"));
                    out.push_str(&format!("{n} | {text}\n"));
                    let underline = " ".repeat(span.col.saturating_sub(1)) + &"^".repeat(span.len);
                    out.push_str(&format!("{pad} | {underline}\n"));
                }
            }
            if let Some(s) = &d.suggestion {
                out.push_str(&format!("  = help: did you mean '{s}'?\n"));
            }
        }
        out
    }

    /// One-line-per-finding summary (for `explain` inline output).
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let at = match d.span {
                Some(s) => format!(" @ {}:{}", s.line, s.col),
                None => String::new(),
            };
            out.push_str(&format!(
                "  {}[{}]{}: {}\n",
                d.severity.as_str(),
                d.code.as_str(),
                at,
                d.message
            ));
        }
        out
    }

    /// The `analysis` JSON schema: top-level metadata, severity counts and
    /// one object per diagnostic, one diagnostic per line
    /// (`tests/analysis_soundness.rs` asserts its invariants).
    pub fn to_json(&self) -> String {
        let (errors, warnings, notes) = self.counts();
        let mut out = String::from("{\n  \"analysis\": true,\n");
        match &self.source {
            Some(s) => out.push_str(&format!("  \"query\": \"{}\",\n", escape(s))),
            None => out.push_str("  \"query\": null,\n"),
        }
        out.push_str(&format!("  \"proven_empty\": {},\n", self.proven_empty()));
        out.push_str(&format!(
            "  \"errors\": {errors},\n  \"warnings\": {warnings},\n  \"notes\": {notes},\n"
        ));
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"code\": \"{}\", ", d.code.as_str()));
            out.push_str(&format!("\"severity\": \"{}\", ", d.severity.as_str()));
            if let Some(s) = d.span {
                out.push_str(&format!(
                    "\"line\": {}, \"col\": {}, \"len\": {}, ",
                    s.line, s.col, s.len
                ));
            }
            if let Some(s) = &d.suggestion {
                out.push_str(&format!("\"suggestion\": \"{}\", ", escape(s)));
            }
            out.push_str(&format!("\"message\": \"{}\"}}", escape(&d.message)));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_and_flags() {
        let mut r = Report { source: Some("MATCH (a:X)".into()), ..Report::default() };
        assert!(!r.has_errors() && !r.proven_empty());
        r.diagnostics.push(Diagnostic::new(Code::EmptyLabel, Severity::Error, "empty"));
        r.diagnostics.push(Diagnostic::new(Code::CostEstimate, Severity::Note, "cost"));
        assert!(r.has_errors() && r.proven_empty() && !r.is_parse_failure());
        assert_eq!(r.counts(), (1, 0, 1));
    }

    #[test]
    fn render_underlines_the_span() {
        let r = Report {
            source: Some("MATCH (a:Autor)->(p:Paper)".into()),
            diagnostics: vec![Diagnostic::new(
                Code::UnknownLabel,
                Severity::Error,
                "unknown label name 'Autor' (variable 'a')",
            )
            .with_span(Span::new(1, 10, 5))
            .with_suggestion("Author")],
        };
        let text = r.render();
        let expected = "\
error[A001]: unknown label name 'Autor' (variable 'a')
 --> query:1:10
  |
1 | MATCH (a:Autor)->(p:Paper)
  |          ^^^^^
  = help: did you mean 'Author'?
";
        assert_eq!(text, expected);
    }

    #[test]
    fn json_escapes_and_counts() {
        let r = Report {
            source: Some("MATCH \"x\"".into()),
            diagnostics: vec![Diagnostic::new(Code::Parse, Severity::Error, "bad \"quote\"")
                .with_span(Span::new(1, 7, 3))],
        };
        let json = r.to_json();
        assert!(json.contains("\"analysis\": true"), "{json}");
        assert!(json.contains("\"query\": \"MATCH \\\"x\\\"\""), "{json}");
        assert!(json.contains("\"code\": \"P001\""), "{json}");
        assert!(json.contains("\"line\": 1, \"col\": 7, \"len\": 3"), "{json}");
        assert!(json.contains("\"errors\": 1"), "{json}");
    }
}
