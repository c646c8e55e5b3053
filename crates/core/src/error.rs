//! The unified `rigmatch` error type.
//!
//! Every fallible surface of the library funnels into [`Error`]: text
//! parsing (graph files, HPQL query text), semantic validation
//! (disconnected patterns, label ids outside the graph's label space,
//! malformed edges), I/O, and budget trips (a run truncated by its match
//! limit or wall-clock timeout when the caller demanded completeness).
//!
//! [`Error::kind`] partitions the variants into coarse [`ErrorKind`]s that
//! map 1:1 onto the CLI's exit codes (see [`ErrorKind::exit_code`]), so
//! scripts can distinguish usage, parse, I/O, validation and budget
//! failures without scraping stderr.

use rig_query::{HpqlError, PatternError};

/// Unified error for the `rigmatch` API (parse / validation / IO / budget).
#[derive(Debug)]
pub enum Error {
    /// A graph file failed to parse.
    GraphParse(rig_graph::ParseError),
    /// HPQL text failed to parse or resolve.
    Hpql(HpqlError),
    /// A pattern was structurally malformed (duplicate edge, self-loop,
    /// endpoint out of range).
    Pattern(PatternError),
    /// The query is semantically invalid for the target graph (e.g.
    /// disconnected, or it uses a label id the graph does not have).
    Validation(String),
    /// An optimistic-concurrency commit lost its race: the transaction
    /// began at `started_at` but another commit moved the store to
    /// `current` first. Retryable — re-stage against a fresh
    /// `Session::begin` (the HTTP server's `/update` endpoint does this
    /// automatically).
    Conflict { started_at: u64, current: u64 },
    /// An I/O operation failed.
    Io { path: String, source: std::io::Error },
    /// The run was truncated by its budget and the caller required a
    /// complete answer (see `QueryOutcome::require_complete`).
    Budget { timed_out: bool, limit_hit: bool },
    /// The durability layer failed (WAL append/fsync, segment write, or
    /// on-disk corruption found during recovery).
    Storage(rig_storage::StorageError),
    /// Strict lint mode refused the query: static analysis found at
    /// least one error-severity diagnostic (unknown label, provable
    /// emptiness, disconnected variable, ...). The full [`Report`] is
    /// carried so front ends can render every finding, not just the
    /// first.
    ///
    /// [`Report`]: rig_analyze::Report
    Analysis(rig_analyze::Report),
}

/// Coarse classification of an [`Error`], stable across variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    Parse,
    Validation,
    Io,
    Budget,
    Storage,
    Analysis,
}

impl ErrorKind {
    /// The CLI exit code for this kind. `0` = success, `1` = internal
    /// error and `2` = usage error are reserved by convention.
    pub fn exit_code(self) -> u8 {
        match self {
            ErrorKind::Parse => 3,
            ErrorKind::Io => 4,
            ErrorKind::Validation => 5,
            ErrorKind::Budget => 6,
            ErrorKind::Storage => 7,
            ErrorKind::Analysis => 8,
        }
    }
}

impl Error {
    /// The coarse kind of this error.
    pub fn kind(&self) -> ErrorKind {
        match self {
            Error::GraphParse(_) | Error::Hpql(_) => ErrorKind::Parse,
            Error::Pattern(_) | Error::Validation(_) | Error::Conflict { .. } => {
                ErrorKind::Validation
            }
            Error::Io { .. } => ErrorKind::Io,
            Error::Budget { .. } => ErrorKind::Budget,
            Error::Storage(_) => ErrorKind::Storage,
            Error::Analysis(_) => ErrorKind::Analysis,
        }
    }

    /// Convenience constructor for validation errors.
    pub fn validation(msg: impl Into<String>) -> Error {
        Error::Validation(msg.into())
    }

    /// Wraps an I/O error with the path it concerned.
    pub fn io(path: impl Into<String>, source: std::io::Error) -> Error {
        Error::Io { path: path.into(), source }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::GraphParse(e) => write!(f, "graph parse error: {e}"),
            Error::Hpql(e) => write!(f, "HPQL error: {e}"),
            Error::Pattern(e) => write!(f, "pattern error: {e}"),
            Error::Validation(msg) => write!(f, "validation error: {msg}"),
            Error::Conflict { started_at, current } => write!(
                f,
                "write conflict: transaction began at store version {started_at} \
                 but the store is at {current}"
            ),
            Error::Io { path, source } => write!(f, "io error on {path}: {source}"),
            Error::Budget { timed_out, limit_hit } => write!(
                f,
                "budget exceeded before the answer completed ({})",
                match (timed_out, limit_hit) {
                    (true, true) => "timeout and match limit",
                    (true, false) => "timeout",
                    _ => "match limit",
                }
            ),
            Error::Storage(e) => write!(f, "{e}"),
            Error::Analysis(report) => {
                let (errors, warnings, _) = report.counts();
                write!(
                    f,
                    "query rejected by static analysis: {errors} error(s), \
                     {warnings} warning(s)"
                )?;
                for d in
                    report.diagnostics.iter().filter(|d| d.severity == rig_analyze::Severity::Error)
                {
                    write!(f, "\n  [{}] {}", d.code.as_str(), d.message)?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::GraphParse(e) => Some(e),
            Error::Hpql(e) => Some(e),
            Error::Pattern(e) => Some(e),
            Error::Io { source, .. } => Some(source),
            Error::Storage(e) => Some(e),
            Error::Validation(_) | Error::Conflict { .. } | Error::Budget { .. } => None,
            Error::Analysis(_) => None,
        }
    }
}

impl From<rig_storage::StorageError> for Error {
    fn from(e: rig_storage::StorageError) -> Error {
        Error::Storage(e)
    }
}

impl From<rig_graph::ParseError> for Error {
    fn from(e: rig_graph::ParseError) -> Error {
        Error::GraphParse(e)
    }
}

impl From<HpqlError> for Error {
    fn from(e: HpqlError) -> Error {
        Error::Hpql(e)
    }
}

impl From<PatternError> for Error {
    fn from(e: PatternError) -> Error {
        Error::Pattern(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_exit_codes_are_distinct() {
        let errs = [
            Error::Hpql(HpqlError { line: 1, col: 1, len: 1, message: "x".into() }),
            Error::validation("bad"),
            Error::io("/tmp/x", std::io::Error::new(std::io::ErrorKind::NotFound, "gone")),
            Error::Budget { timed_out: true, limit_hit: false },
            Error::Storage(rig_storage::StorageError::NotInitialized {
                dir: std::path::PathBuf::from("/tmp/store"),
            }),
            Error::Analysis(rig_analyze::Report {
                source: None,
                diagnostics: vec![rig_analyze::Diagnostic::new(
                    rig_analyze::Code::EmptyLabel,
                    rig_analyze::Severity::Error,
                    "empty",
                )],
            }),
        ];
        let codes: Vec<u8> = errs.iter().map(|e| e.kind().exit_code()).collect();
        let mut dedup = codes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len(), "{codes:?}");
        assert!(codes.iter().all(|&c| c > 2), "0/1/2 are reserved: {codes:?}");
        for e in &errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn from_impls_classify() {
        let e: Error = rig_query::PatternError::SelfLoop { node: 0 }.into();
        assert_eq!(e.kind(), ErrorKind::Validation);
        let e: Error = rig_query::HpqlError { line: 1, col: 2, len: 1, message: "x".into() }.into();
        assert_eq!(e.kind(), ErrorKind::Parse);
        assert_eq!(e.kind().exit_code(), 3);
        assert!(std::error::Error::source(&e).is_some());
    }
}
