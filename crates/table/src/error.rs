//! Error type for the table substrate.

use std::fmt;

/// Errors from table construction, CSV and op-log parsing, and column
/// access.
#[derive(Debug)]
pub enum TableError {
    /// A row had a different arity than the schema.
    ArityMismatch {
        /// 0-based row index (data rows, header excluded).
        row: usize,
        /// Number of fields found.
        found: usize,
        /// Number of fields expected.
        expected: usize,
    },
    /// A row id addressed no live row (out of range or tombstoned).
    NoSuchRow {
        /// The offending row id.
        row: usize,
    },
    /// A column name was not found in the schema.
    UnknownColumn {
        /// The offending name.
        name: String,
    },
    /// Two columns share the same name.
    DuplicateColumn {
        /// The duplicated name.
        name: String,
    },
    /// CSV syntax error.
    Csv {
        /// 1-based line at which the problem was detected.
        line: usize,
        /// Human-readable description.
        reason: String,
    },
    /// A malformed op-log record (see [`crate::oplog`]).
    OpLog {
        /// 1-based record number (blank lines are not records).
        record: usize,
        /// Human-readable description.
        reason: String,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::ArityMismatch {
                row,
                found,
                expected,
            } => write!(f, "row {row} has {found} fields, schema expects {expected}"),
            TableError::NoSuchRow { row } => {
                write!(f, "row {row} is out of range or already deleted")
            }
            TableError::UnknownColumn { name } => write!(f, "unknown column `{name}`"),
            TableError::DuplicateColumn { name } => write!(f, "duplicate column `{name}`"),
            TableError::Csv { line, reason } => write!(f, "CSV error at line {line}: {reason}"),
            TableError::OpLog { record, reason } => write!(f, "op-log record {record}: {reason}"),
            TableError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for TableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TableError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TableError {
    fn from(e: std::io::Error) -> Self {
        TableError::Io(e)
    }
}
