use std::fmt;

/// Errors surfaced by the relational engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelError {
    /// Referenced table does not exist.
    NoSuchTable(String),
    /// Referenced column does not exist in the table's schema.
    NoSuchColumn(String),
    /// A datum's type did not match the column type.
    TypeMismatch {
        column: String,
        expected: String,
        got: String,
    },
    /// Row arity did not match the schema.
    ArityMismatch { expected: usize, got: usize },
    /// Duplicate value in a unique index (e.g. primary key).
    UniqueViolation { index: String },
    /// A table with this name already exists.
    TableExists(String),
    /// An index with this name already exists.
    IndexExists(String),
    /// Write-ahead-log failure.
    Wal(String),
    /// Persisted data failed validation on recovery.
    Corrupt(String),
}

impl fmt::Display for RelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelError::NoSuchTable(t) => write!(f, "relation \"{t}\" does not exist"),
            RelError::NoSuchColumn(c) => write!(f, "column \"{c}\" does not exist"),
            RelError::TypeMismatch {
                column,
                expected,
                got,
            } => {
                write!(
                    f,
                    "column \"{column}\" is of type {expected} but expression is of type {got}"
                )
            }
            RelError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "INSERT has {got} expressions but table expects {expected}"
                )
            }
            RelError::UniqueViolation { index } => {
                write!(
                    f,
                    "duplicate key value violates unique constraint \"{index}\""
                )
            }
            RelError::TableExists(t) => write!(f, "relation \"{t}\" already exists"),
            RelError::IndexExists(i) => write!(f, "index \"{i}\" already exists"),
            RelError::Wal(msg) => write!(f, "WAL error: {msg}"),
            RelError::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
        }
    }
}

impl std::error::Error for RelError {}

impl From<crypto::log::LogError> for RelError {
    fn from(e: crypto::log::LogError) -> Self {
        match e {
            crypto::log::LogError::Io(msg) => RelError::Wal(msg),
            crypto::log::LogError::Corrupt(msg) => RelError::Corrupt(msg),
        }
    }
}

/// Engine-level result alias.
pub type RelResult<T> = Result<T, RelError>;
