use std::fmt;

/// Errors surfaced by the key-value store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// Operation applied to a key holding a different value type
    /// (Redis' `WRONGTYPE`).
    WrongType,
    /// A command was malformed (wrong arity, unparsable integer, ...).
    Syntax(String),
    /// The append-only file could not be written or replayed.
    Aof(String),
    /// Persisted data failed authentication/decryption on replay.
    Corrupt(String),
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::WrongType => {
                write!(
                    f,
                    "WRONGTYPE operation against a key holding the wrong kind of value"
                )
            }
            KvError::Syntax(msg) => write!(f, "syntax error: {msg}"),
            KvError::Aof(msg) => write!(f, "append-only file error: {msg}"),
            KvError::Corrupt(msg) => write!(f, "corrupt persisted data: {msg}"),
        }
    }
}

impl std::error::Error for KvError {}

impl From<crypto::log::LogError> for KvError {
    fn from(e: crypto::log::LogError) -> Self {
        match e {
            crypto::log::LogError::Io(msg) => KvError::Aof(msg),
            crypto::log::LogError::Corrupt(msg) => KvError::Corrupt(msg),
        }
    }
}

/// Store-level result alias.
pub type KvResult<T> = Result<T, KvError>;
