//! Responses to GDPR queries.

use crate::compliance::FeatureReport;
use crate::record::{Metadata, PersonalRecord};
use std::borrow::Cow;
use std::sync::Arc;

/// One audit/system log line returned to a regulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogLine {
    pub timestamp_ms: u64,
    pub actor: String,
    /// Query class name; static for every line the audit trail renders.
    pub operation: Cow<'static, str>,
    pub detail: String,
}

/// An immutable run of rendered log lines, shared by reference count
/// between the audit trail and every response that reads it.
pub(crate) type LogChunk = Arc<Vec<LogLine>>;

/// The lines of a GET-SYSTEM-LOGS response: a window over shared
/// [`LogChunk`]s. Cloning or dropping it touches one reference count per
/// chunk, never a line.
#[derive(Debug, Clone, Default)]
pub struct LogLines {
    chunks: Vec<LogChunk>,
    /// Where the window starts in the first chunk.
    skip: usize,
    /// Where the window ends in the last chunk.
    last_end: usize,
    len: usize,
}

impl LogLines {
    /// The `len` lines that start `skip` lines into `chunks`: the window
    /// starts inside the first chunk and ends inside the last.
    pub(crate) fn window(chunks: Vec<LogChunk>, skip: usize, len: usize) -> Self {
        let before_last: usize = chunks.iter().rev().skip(1).map(|c| c.len()).sum();
        LogLines {
            chunks,
            skip,
            last_end: skip + len - before_last,
            len,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &LogLine> + '_ {
        let last = self.chunks.len().wrapping_sub(1);
        self.chunks.iter().enumerate().flat_map(move |(i, chunk)| {
            let from = if i == 0 { self.skip } else { 0 };
            let to = if i == last {
                self.last_end
            } else {
                chunk.len()
            };
            chunk[from..to].iter()
        })
    }

    pub fn to_vec(&self) -> Vec<LogLine> {
        self.iter().cloned().collect()
    }
}

impl From<Vec<LogLine>> for LogLines {
    fn from(lines: Vec<LogLine>) -> Self {
        let len = lines.len();
        LogLines::window(vec![Arc::new(lines)], 0, len)
    }
}

impl std::ops::Index<usize> for LogLines {
    type Output = LogLine;

    fn index(&self, index: usize) -> &LogLine {
        self.iter().nth(index).expect("log line index in range")
    }
}

/// Line-by-line equality: how the lines are chunked is not observable.
impl PartialEq for LogLines {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

/// The response to a [`crate::GdprQuery`].
#[derive(Debug, Clone, PartialEq)]
pub enum GdprResponse {
    /// CREATE-RECORD succeeded.
    Created,
    /// Deletion removed this many records.
    Deleted(usize),
    /// Full records (key + data + metadata).
    Records(Vec<PersonalRecord>),
    /// Data-only pairs `(key, data)` — what processors see.
    Data(Vec<(String, String)>),
    /// Metadata-only pairs `(key, metadata)` — what regulators see.
    Metadata(Vec<(String, Metadata)>),
    /// Update touched this many records.
    Updated(usize),
    /// System log lines for a time range.
    Logs(LogLines),
    /// Capability report (GET-SYSTEM-FEATURES).
    Features(FeatureReport),
    /// verify-deletion: true iff the key is gone.
    DeletionVerified(bool),
}

impl GdprResponse {
    /// Records/rows conveyed, for stats and correctness accounting.
    pub fn cardinality(&self) -> usize {
        match self {
            GdprResponse::Created => 1,
            GdprResponse::Deleted(n) | GdprResponse::Updated(n) => *n,
            GdprResponse::Records(v) => v.len(),
            GdprResponse::Data(v) => v.len(),
            GdprResponse::Metadata(v) => v.len(),
            GdprResponse::Logs(v) => v.len(),
            GdprResponse::Features(_) => 1,
            GdprResponse::DeletionVerified(_) => 1,
        }
    }

    pub fn as_data(&self) -> Option<&[(String, String)]> {
        match self {
            GdprResponse::Data(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_records(&self) -> Option<&[PersonalRecord]> {
        match self {
            GdprResponse::Records(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_metadata(&self) -> Option<&[(String, Metadata)]> {
        match self {
            GdprResponse::Metadata(v) => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinalities() {
        assert_eq!(GdprResponse::Created.cardinality(), 1);
        assert_eq!(GdprResponse::Deleted(7).cardinality(), 7);
        assert_eq!(
            GdprResponse::Data(vec![("k".into(), "v".into())]).cardinality(),
            1
        );
        assert_eq!(GdprResponse::DeletionVerified(true).cardinality(), 1);
    }

    #[test]
    fn accessors() {
        let r = GdprResponse::Data(vec![("k".into(), "v".into())]);
        assert!(r.as_data().is_some());
        assert!(r.as_records().is_none());
        assert!(r.as_metadata().is_none());
    }
}
