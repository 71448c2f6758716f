//! Responses to GDPR queries.

use crate::audit::Chunks;
use crate::compliance::FeatureReport;
use crate::record::Metadata;
use std::borrow::Cow;

/// One audit/system log line returned to a regulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogLine {
    pub timestamp_ms: u64,
    pub actor: String,
    /// Query class name; static for every line the audit trail renders.
    pub operation: Cow<'static, str>,
    pub detail: String,
}

/// The lines of a GET-SYSTEM-LOGS response: lines `start..end` of an
/// audit trail's chunks, shared with the trail by two reference counts,
/// one on the sealed run and one on the open chunk. Every line below `end`
/// was set before the window was taken and never changes, so taking,
/// cloning or dropping a window touches those two counts and no line, and
/// line `i` is found by arithmetic.
#[derive(Clone, Default)]
pub struct LogLines {
    chunks: Chunks,
    start: usize,
    end: usize,
}

impl LogLines {
    /// Lines `start..end` of `chunks`, all of them set.
    pub(crate) fn window(chunks: Chunks, start: usize, end: usize) -> Self {
        LogLines { chunks, start, end }
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &LogLine> + '_ {
        (self.start..self.end).map(|i| self.chunks.line(i))
    }

    pub fn to_vec(&self) -> Vec<LogLine> {
        self.iter().cloned().collect()
    }
}

/// Moves the lines into chunks of their own; the wire decoder's path.
impl From<Vec<LogLine>> for LogLines {
    fn from(lines: Vec<LogLine>) -> Self {
        let mut chunks = Chunks::default();
        lines.into_iter().for_each(|line| chunks.push(line));
        let end = chunks.len();
        LogLines::window(chunks, 0, end)
    }
}

impl std::ops::Index<usize> for LogLines {
    type Output = LogLine;

    fn index(&self, index: usize) -> &LogLine {
        assert!(
            index < self.len(),
            "log line {index} out of range for {} lines",
            self.len()
        );
        self.chunks.line(self.start + index)
    }
}

impl std::fmt::Debug for LogLines {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Line-by-line equality: how the lines are chunked is not observable.
impl PartialEq for LogLines {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

/// The response to a [`crate::GdprQuery`].
#[derive(Debug, Clone, PartialEq)]
pub enum GdprResponse {
    /// CREATE-RECORD succeeded.
    Created,
    /// Deletion removed this many records.
    Deleted(usize),
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
    use crate::audit::CHUNK_LINES;

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

    /// The wire decoder's path: chunk boundaries are not observable.
    #[test]
    fn from_vec_keeps_every_line_in_order() {
        for n in [0, 1, CHUNK_LINES - 1, CHUNK_LINES, 2 * CHUNK_LINES + 3] {
            let lines: Vec<LogLine> = (0..n)
                .map(|i| LogLine {
                    timestamp_ms: i as u64,
                    actor: "regulator:".into(),
                    operation: "x".into(),
                    detail: i.to_string(),
                })
                .collect();
            let window = LogLines::from(lines.clone());
            assert_eq!(window.len(), n);
            assert_eq!(window.is_empty(), n == 0);
            assert_eq!(window.to_vec(), lines);
            assert!(window.iter().rev().eq(lines.iter().rev()));
            if let Some(last) = n.checked_sub(1) {
                assert_eq!(window[last], lines[last]);
            }
        }
    }

    #[test]
    fn accessors() {
        let r = GdprResponse::Data(vec![("k".into(), "v".into())]);
        assert!(r.as_data().is_some());
        assert!(r.as_metadata().is_none());
    }
}
