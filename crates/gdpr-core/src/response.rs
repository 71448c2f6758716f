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

/// The rows of a data response: every row's key and data back to back in
/// one text, and per row a [`RowSpan`] of offsets into it. A row costs
/// three offsets and its bytes, not two heap strings, so a predicate read
/// that matches thousands of records makes a few allocations, not
/// thousands. Sorting or merging rows moves spans, never text.
#[derive(Clone, Default)]
pub struct DataRows {
    text: String,
    spans: Vec<RowSpan>,
}

/// Where one row lies in [`DataRows`]' text: its key is
/// `start..key_end`, its data `key_end..end`.
#[derive(Clone, Copy)]
struct RowSpan {
    start: usize,
    key_end: usize,
    end: usize,
}

impl RowSpan {
    fn of(self, text: &str) -> (&str, &str) {
        (
            &text[self.start..self.key_end],
            &text[self.key_end..self.end],
        )
    }
}

impl DataRows {
    /// The most the first push reserves beyond its own row on the strength
    /// of the expected count alone: enough for 20 000 rows of 50 bytes (the
    /// corpus's rows are about 20), so a read of the whole corpus still
    /// sizes its text once.
    const FIRST_RESERVE_MAX: usize = 1 << 20;

    /// Room for `rows` rows of `bytes` key and data bytes in total. With
    /// `bytes` 0 the text is sized at the first push instead: that row's
    /// length times `rows`, but never more than `FIRST_RESERVE_MAX`
    /// (1 MiB) beyond the row.
    pub fn with_capacity(rows: usize, bytes: usize) -> Self {
        DataRows {
            text: String::with_capacity(bytes),
            spans: Vec::with_capacity(rows),
        }
    }

    /// Append one `(key, data)` row.
    pub fn push(&mut self, key: &str, data: &str) {
        // One reservation for both halves. The first row into a text with
        // no room sizes it for every row the caller expects — the spans'
        // capacity — so a read of like-sized rows allocates its text once
        // instead of doubling up from one row. The expected count is an
        // estimate and a row can be large, so that guess is capped; past
        // it the text grows by doubling, as from any row.
        let row = key.len() + data.len();
        let guess = if self.text.capacity() == 0 {
            let rest = self.spans.capacity().saturating_sub(1);
            row.saturating_mul(rest).min(Self::FIRST_RESERVE_MAX)
        } else {
            0
        };
        self.text.reserve(row + guess);
        let start = self.text.len();
        self.text.push_str(key);
        let key_end = self.text.len();
        self.text.push_str(data);
        let end = self.text.len();
        self.spans.push(RowSpan {
            start,
            key_end,
            end,
        });
    }

    /// Append every row of `other`, in its order.
    pub fn append(&mut self, other: DataRows) {
        if self.is_empty() {
            *self = other;
            return;
        }
        let base = self.text.len();
        self.text.push_str(&other.text);
        self.spans.extend(other.spans.iter().map(|span| RowSpan {
            start: base + span.start,
            key_end: base + span.key_end,
            end: base + span.end,
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (&str, &str)> + ExactSizeIterator + '_ {
        self.spans.iter().map(|span| span.of(&self.text))
    }

    /// Order the rows by `(key, data)`, in place: only the spans move.
    pub fn sort(&mut self) {
        let text = &self.text;
        self.spans
            .sort_unstable_by(|a, b| a.of(text).cmp(&b.of(text)));
    }

    pub fn to_vec(&self) -> Vec<(String, String)> {
        let owned = self.iter().map(|(k, d)| (k.to_string(), d.to_string()));
        owned.collect()
    }
}

/// Sized like `with_capacity(n, 0)`, `n` the iterator's lower size hint:
/// the text from the first row.
impl<K: AsRef<str>, D: AsRef<str>> FromIterator<(K, D)> for DataRows {
    fn from_iter<I: IntoIterator<Item = (K, D)>>(rows: I) -> Self {
        let rows = rows.into_iter();
        let mut out = DataRows::with_capacity(rows.size_hint().0, 0);
        for (key, data) in rows {
            out.push(key.as_ref(), data.as_ref());
        }
        out
    }
}

impl From<Vec<(String, String)>> for DataRows {
    fn from(rows: Vec<(String, String)>) -> Self {
        rows.into_iter().collect()
    }
}

impl std::fmt::Debug for DataRows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Row-by-row equality: where the rows lie in the text (as pushed, as
/// appended, as sorted in place) is not observable.
impl PartialEq for DataRows {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for DataRows {}

/// The response to a [`crate::GdprQuery`].
#[derive(Debug, Clone, PartialEq)]
pub enum GdprResponse {
    /// CREATE-RECORD succeeded.
    Created,
    /// Deletion removed this many records.
    Deleted(usize),
    /// Data-only rows `(key, data)` — what processors see — in one
    /// buffer ([`DataRows`]).
    Data(DataRows),
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

    pub fn as_data(&self) -> Option<&DataRows> {
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
            GdprResponse::Data(vec![("k".into(), "v".into())].into()).cardinality(),
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

    fn rows(pairs: &[(&str, &str)]) -> DataRows {
        pairs.iter().copied().collect()
    }

    #[test]
    fn empty_rows() {
        for empty in [DataRows::default(), DataRows::from(Vec::new()), rows(&[])] {
            assert_eq!(empty.len(), 0);
            assert!(empty.is_empty());
            assert_eq!(empty.iter().next(), None);
            assert_eq!(empty.to_vec(), Vec::new());
            assert_eq!(format!("{empty:?}"), "[]");
            assert_eq!(GdprResponse::Data(empty).cardinality(), 0);
        }
    }

    #[test]
    fn one_row() {
        let one = rows(&[("ph-1", "123-456")]);
        assert_eq!(one.len(), 1);
        assert!(!one.is_empty());
        assert!(one.iter().eq([("ph-1", "123-456")]));
        assert_eq!(one.to_vec(), [("ph-1".to_string(), "123-456".to_string())]);
        assert_eq!(format!("{one:?}"), r#"[("ph-1", "123-456")]"#);
    }

    /// A row's bounds are its own: an empty key or data string is a row,
    /// and moving a boundary changes the row even when the text does not.
    #[test]
    fn empty_strings_are_rows_and_boundaries_count() {
        let edges = rows(&[("", "d"), ("k", ""), ("", "")]);
        assert_eq!(edges.len(), 3);
        let want = [("", "d"), ("k", ""), ("", "")];
        assert!(edges.iter().eq(want));
        assert_ne!(rows(&[("a", "b")]), rows(&[("ab", "")]));
        assert_ne!(
            rows(&[("a", "b"), ("c", "d")]),
            rows(&[("a", "bc"), ("", "d")])
        );
    }

    /// Ties on the key order by data; a sorted copy equals the rows built
    /// in sorted order, whatever its text's capacity or history.
    #[test]
    fn sort_breaks_key_ties_on_data() {
        let mut mixed = rows(&[("k2", "b"), ("k1", "z"), ("k2", "a"), ("k1", "")]);
        mixed.append(rows(&[("k0", "x")]));
        mixed.sort();
        let sorted = rows(&[
            ("k0", "x"),
            ("k1", ""),
            ("k1", "z"),
            ("k2", "a"),
            ("k2", "b"),
        ]);
        assert_eq!(mixed, sorted);
        let mut again = sorted.clone();
        again.sort();
        assert_eq!(again, sorted);
    }

    /// The first push sizes the text for the rows expected, but an
    /// expectation cannot make it reserve more than the cap past the row:
    /// a 1 MiB row expected 20 000 times reserves ~2 MiB, not ~20 GB.
    #[test]
    fn the_first_push_reserves_a_bounded_guess() {
        let mut rows = DataRows::with_capacity(100, 0);
        rows.push("k1", "0123456789");
        let sized = rows.text.capacity();
        assert!(sized >= 100 * 12);
        rows.push("k2", "0123456789");
        assert_eq!(rows.text.capacity(), sized);

        let big = "x".repeat(1 << 20);
        let mut rows = DataRows::with_capacity(20_000, 0);
        rows.push("k", &big);
        let bound = big.len() + 1 + DataRows::FIRST_RESERVE_MAX;
        assert!(rows.text.capacity() <= bound, "{}", rows.text.capacity());
        assert!(rows.iter().eq([("k", big.as_str())]));

        let mut none = DataRows::with_capacity(0, 0);
        none.push("k", "v");
        assert!(none.text.capacity() < 64);
    }

    #[test]
    fn accessors() {
        let r = GdprResponse::Data(vec![("k".into(), "v".into())].into());
        assert!(r.as_data().is_some());
        assert!(r.as_metadata().is_none());
    }
}
