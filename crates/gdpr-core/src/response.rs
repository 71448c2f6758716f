//! Responses to GDPR queries.

use crate::audit::Chunks;
use crate::compliance::FeatureReport;
use crate::record::Metadata;
use crate::wire::{ListView, RecordView};
use std::borrow::{Borrow, Cow};
use std::time::Duration;

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
/// thousands. Sorting rows moves spans, never text.
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

/// A predicate read's response rows as the engine fills them: one
/// shard's, or every shard's in one accumulator
/// ([`crate::sharded::ShardedEngine`]'s fan-out).
pub(crate) enum Rows {
    Data(DataRows),
    Metadata(MetadataRows),
}

impl Rows {
    /// Room for `rows` more rows, the count the read path expects — for at
    /// least [`MIN_EXPECTED_ROWS`] when any, so that the few rows of a
    /// by-subject read, fanned out over several shards, are not regrown
    /// shard by shard. Once rows are in, their text sizes the next ones'
    /// (the first row into an empty text sizes it, see the pushes).
    pub(crate) fn expect(&mut self, rows: usize) {
        if rows == 0 {
            return;
        }
        let spans = rows.max(MIN_EXPECTED_ROWS);
        match self {
            Rows::Data(data) => {
                data.spans.reserve(spans);
                if let Some(per_row) = data.text.len().checked_div(data.spans.len()) {
                    data.text.reserve(per_row.saturating_mul(rows));
                }
            }
            Rows::Metadata(metadata) => {
                metadata.spans.reserve(spans);
                let pushed = metadata.spans.len();
                if let Some(per_row) = metadata.text.len().checked_div(pushed) {
                    metadata.text.reserve(per_row.saturating_mul(rows));
                    let items = metadata.item_ends.len() / pushed;
                    metadata.item_ends.reserve(items.saturating_mul(rows));
                }
            }
        }
    }

    /// Append the matching `record` under its logical `key`.
    pub(crate) fn push_match(&mut self, key: &str, record: &RecordView<'_>) {
        match self {
            Rows::Data(data) => data.push(key, record.data),
            Rows::Metadata(metadata) => metadata.push_view(key, record),
        }
    }

    /// The response, its rows ordered first when `sorted`
    /// ([`DataRows::sort`], [`MetadataRows::sort`]).
    pub(crate) fn into_response(self, sorted: bool) -> GdprResponse {
        match self {
            Rows::Data(mut data) => {
                if sorted {
                    data.sort();
                }
                GdprResponse::Data(data)
            }
            Rows::Metadata(mut metadata) => {
                if sorted {
                    metadata.sort();
                }
                GdprResponse::Metadata(metadata)
            }
        }
    }
}

/// The fewest rows [`Rows::expect`] makes room for when it expects any.
const MIN_EXPECTED_ROWS: usize = 8;

/// The rows of a metadata response: every row's key and six text fields
/// back to back in one text, and per row a [`MetaSpan`] of offsets into it
/// and the TTL. A list's items lie in its field separated by one byte (a
/// stored list's own `,`), and one vector shared by all rows holds where
/// each item ends, so the item boundaries are exact for any item the wire
/// can carry — an empty one, or one holding `,`. A row costs its bytes, its
/// span and four bytes per item, not a key string and a [`Metadata`] of
/// up to six strings and four vectors. Sorting moves spans, never text.
///
/// Rows are pushed from a [`RecordView`]'s bytes as the reader proved them
/// ([`Self::push_view`]), from an owned [`Metadata`] ([`Self::push`]), or
/// field by field ([`Self::row`], the wire decoder's path); every push is
/// of UTF-8, so the text is too. It is checked once whenever rows are lent
/// as `&str` ([`Self::iter`]), never per field.
#[derive(Clone, Default)]
pub struct MetadataRows {
    text: Vec<u8>,
    spans: Vec<MetaSpan>,
    item_ends: Vec<u32>,
}

/// Where one row of [`MetadataRows`] lies. Its fields are, in wire order,
/// key, PUR, USR, OBJ, DEC, SHR and SRC: field `f` ends at `ends[f]` and
/// starts where field `f - 1` ends (the key at `start`). The items of list
/// `j` (PUR, OBJ, DEC, SHR) end at `item_ends[items[j]..items[j + 1]]`.
#[derive(Clone, Copy)]
struct MetaSpan {
    start: u32,
    ends: [u32; 7],
    items: [u32; 5],
    ttl: Option<Duration>,
}

/// The text fields, in `MetaSpan::ends` order.
const KEY: usize = 0;
const PUR: usize = 1;
const USR: usize = 2;
const OBJ: usize = 3;
const DEC: usize = 4;
const SHR: usize = 5;
const SRC: usize = 6;

/// An offset into a response text: a response is far below 4 GiB (a wire
/// frame is at most 64 MiB).
fn offset(at: usize) -> u32 {
    u32::try_from(at).expect("a metadata response text under 4 GiB")
}

impl MetadataRows {
    /// Room for `rows` rows of `bytes` text bytes in total. With `bytes` 0
    /// the text is sized at the first [`Self::push_view`]: that row's
    /// length times `rows`, but never more than 1 MiB beyond the row.
    pub fn with_capacity(rows: usize, bytes: usize) -> Self {
        MetadataRows {
            text: Vec::with_capacity(bytes),
            spans: Vec::with_capacity(rows),
            item_ends: Vec::new(),
        }
    }

    /// Start a row under `key`; its fields follow through the
    /// [`RowWriter`], in wire order, and the row counts once
    /// [`RowWriter::finish`] adds it.
    pub fn row(&mut self, key: &str) -> RowWriter<'_> {
        let start = offset(self.text.len());
        self.text.extend_from_slice(key.as_bytes());
        let mut span = MetaSpan {
            start,
            ends: [start; 7],
            items: [offset(self.item_ends.len()); 5],
            ttl: None,
        };
        span.ends[KEY] = offset(self.text.len());
        RowWriter {
            rows: self,
            span,
            field: PUR,
        }
    }

    /// Append one `(key, metadata)` row.
    pub fn push(&mut self, key: &str, m: &Metadata) {
        let mut row = self.row(key);
        row.list(&m.purposes);
        row.scalar(&m.user);
        row.list(&m.objections);
        row.list(&m.decisions);
        row.list(&m.sharing);
        row.scalar(&m.source);
        row.finish(m.ttl);
    }

    /// Append `record`'s metadata under `key`, copied from the bytes the
    /// reader proved: no [`Metadata`], no string per field, no UTF-8 check.
    /// The first row into a text with no room sizes it for every row the
    /// caller expects (the spans' capacity), capped as [`DataRows::push`]
    /// caps it.
    pub fn push_view(&mut self, key: &str, record: &RecordView<'_>) {
        if self.text.capacity() == 0 {
            let lists = [
                record.purposes,
                record.objections,
                record.decisions,
                record.sharing,
            ];
            let row = key.len()
                + record.user.as_bytes().len()
                + record.source.as_bytes().len()
                + lists.iter().map(|list| list_len(*list)).sum::<usize>();
            let rest = self.spans.capacity().saturating_sub(1);
            let guess = row.saturating_mul(rest).min(DataRows::FIRST_RESERVE_MAX);
            self.text.reserve(row + guess);
            self.item_ends.reserve(4 * self.spans.capacity().max(1));
        }
        let mut row = self.row(key);
        row.list_view(record.purposes);
        row.text(record.user.as_bytes());
        row.list_view(record.objections);
        row.list_view(record.decisions);
        row.list_view(record.sharing);
        row.text(record.source.as_bytes());
        row.finish(record.ttl);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The rows, lent. The text is checked as UTF-8 once per call — it is
    /// UTF-8 by construction, so the check never fails.
    pub fn iter(
        &self,
    ) -> impl DoubleEndedIterator<Item = MetadataRow<'_>> + ExactSizeIterator + '_ {
        let text =
            std::str::from_utf8(&self.text).expect("metadata rows are UTF-8 by construction");
        let item_ends = self.item_ends.as_slice();
        self.spans.iter().map(move |span| MetadataRow {
            text,
            item_ends,
            span,
        })
    }

    /// Order the rows by [`MetadataRow`]'s order — by key first — in
    /// place: only the spans move.
    pub fn sort(&mut self) {
        let text =
            std::str::from_utf8(&self.text).expect("metadata rows are UTF-8 by construction");
        let item_ends = self.item_ends.as_slice();
        self.spans.sort_unstable_by(|a, b| {
            let row = |span| MetadataRow {
                text,
                item_ends,
                span,
            };
            row(a).cmp(&row(b))
        });
    }

    pub fn to_vec(&self) -> Vec<(String, Metadata)> {
        let owned = self
            .iter()
            .map(|row| (row.key().to_string(), row.to_metadata()));
        owned.collect()
    }
}

/// The text length of a list: its items and the `,`s between them.
fn list_len(list: ListView<'_>) -> usize {
    match list {
        ListView::Wire(text) => text.as_bytes().len(),
        ListView::Items(items) => {
            items.iter().map(String::len).sum::<usize>() + items.len().saturating_sub(1)
        }
    }
}

/// One [`MetadataRows`] row being written, its fields in wire order: PUR,
/// USR, OBJ, DEC, SHR, SRC — a list as its [`Self::item`]s closed by
/// [`Self::end_list`], a scalar as one [`Self::scalar`]. [`Self::finish`]
/// adds the row; a writer dropped before that adds none (its bytes stay in
/// the text, unreferenced).
pub struct RowWriter<'a> {
    rows: &'a mut MetadataRows,
    span: MetaSpan,
    /// The field being written.
    field: usize,
}

impl RowWriter<'_> {
    /// Append one item to the list being written.
    pub fn item(&mut self, item: &str) {
        let first = self.span.items[list_of(self.field)];
        if self.rows.item_ends.len() > first as usize {
            self.rows.text.push(b',');
        }
        self.rows.text.extend_from_slice(item.as_bytes());
        self.rows.item_ends.push(offset(self.rows.text.len()));
    }

    /// Close the list being written after its items.
    pub fn end_list(&mut self) {
        self.span.items[list_of(self.field) + 1] = offset(self.rows.item_ends.len());
        self.close();
    }

    /// Write the scalar (USR or SRC) this field holds.
    pub fn scalar(&mut self, value: &str) {
        self.text(value.as_bytes());
    }

    /// Finish the row with its TTL and add it.
    pub fn finish(mut self, ttl: Option<Duration>) {
        assert_eq!(self.field, SRC + 1, "a metadata row needs all six fields");
        self.span.ttl = ttl;
        self.rows.spans.push(self.span);
    }

    fn list(&mut self, items: &[String]) {
        items.iter().for_each(|item| self.item(item));
        self.end_list();
    }

    /// A scalar's UTF-8 bytes.
    fn text(&mut self, bytes: &[u8]) {
        assert!(
            matches!(self.field, USR | SRC),
            "field {} is a list",
            self.field
        );
        self.rows.text.extend_from_slice(bytes);
        self.close();
    }

    /// A list as a [`RecordView`] lends it. Wire text goes in whole — its
    /// `,`s are already the separators — and each item ends at one.
    fn list_view(&mut self, list: ListView<'_>) {
        let text = match list {
            ListView::Items(items) => return self.list(items),
            ListView::Wire(text) => text.as_bytes(),
        };
        if !text.is_empty() {
            let base = self.rows.text.len();
            self.rows.text.extend_from_slice(text);
            let commas = text.iter().enumerate().filter(|&(_, &b)| b == b',');
            (self.rows.item_ends).extend(commas.map(|(at, _)| offset(base + at)));
            self.rows.item_ends.push(offset(self.rows.text.len()));
        }
        self.end_list();
    }

    fn close(&mut self) {
        self.span.ends[self.field] = offset(self.rows.text.len());
        self.field += 1;
    }
}

/// Which of the four lists text field `field` is.
fn list_of(field: usize) -> usize {
    match field {
        PUR => 0,
        OBJ => 1,
        DEC => 2,
        SHR => 3,
        _ => panic!("field {field} is not a list"),
    }
}

/// One row of [`MetadataRows`], lent: its key, TTL, USR and SRC, and its
/// four lists as item iterators.
#[derive(Clone, Copy)]
pub struct MetadataRow<'a> {
    text: &'a str,
    item_ends: &'a [u32],
    span: &'a MetaSpan,
}

impl<'a> MetadataRow<'a> {
    /// Text field `f`.
    fn field(&self, f: usize) -> &'a str {
        let start = if f == KEY {
            self.span.start
        } else {
            self.span.ends[f - 1]
        };
        &self.text[start as usize..self.span.ends[f] as usize]
    }

    /// The items of the list in text field `field`.
    fn list(&self, field: usize) -> Items<'a> {
        let (items, j) = (&self.span.items, list_of(field));
        Items {
            text: self.text,
            next_start: self.span.ends[field - 1] as usize,
            ends: &self.item_ends[items[j] as usize..items[j + 1] as usize],
        }
    }

    pub fn key(&self) -> &'a str {
        self.field(KEY)
    }

    pub fn ttl(&self) -> Option<Duration> {
        self.span.ttl
    }

    pub fn user(&self) -> &'a str {
        self.field(USR)
    }

    pub fn source(&self) -> &'a str {
        self.field(SRC)
    }

    pub fn purposes(&self) -> Items<'a> {
        self.list(PUR)
    }

    pub fn objections(&self) -> Items<'a> {
        self.list(OBJ)
    }

    pub fn decisions(&self) -> Items<'a> {
        self.list(DEC)
    }

    pub fn sharing(&self) -> Items<'a> {
        self.list(SHR)
    }

    /// The row's metadata, owned.
    pub fn to_metadata(&self) -> Metadata {
        let owned = |items: Items<'_>| items.map(str::to_string).collect();
        Metadata {
            purposes: owned(self.purposes()),
            ttl: self.ttl(),
            user: self.user().to_string(),
            objections: owned(self.objections()),
            decisions: owned(self.decisions()),
            sharing: owned(self.sharing()),
            source: self.source().to_string(),
        }
    }
}

/// Field-by-field equality: a list is equal item by item.
impl PartialEq for MetadataRow<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for MetadataRow<'_> {}

impl PartialOrd for MetadataRow<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// By key, then field by field in wire order (a list item by item, the
/// TTL between PUR and USR): the order the sharded merge sorts rows in.
impl Ord for MetadataRow<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.key().cmp(other.key()))
            .then_with(|| self.purposes().cmp(other.purposes()))
            .then_with(|| self.ttl().cmp(&other.ttl()))
            .then_with(|| self.user().cmp(other.user()))
            .then_with(|| self.objections().cmp(other.objections()))
            .then_with(|| self.decisions().cmp(other.decisions()))
            .then_with(|| self.sharing().cmp(other.sharing()))
            .then_with(|| self.source().cmp(other.source()))
    }
}

impl std::fmt::Debug for MetadataRow<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("")
            .field(&self.key())
            .field(&self.to_metadata())
            .finish()
    }
}

/// The items of one list of a [`MetadataRow`], lent in order.
#[derive(Clone)]
pub struct Items<'a> {
    text: &'a str,
    next_start: usize,
    ends: &'a [u32],
}

impl<'a> Iterator for Items<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let (&end, rest) = self.ends.split_first()?;
        let item = &self.text[self.next_start..end as usize];
        // The next item starts past the one-byte separator.
        self.next_start = end as usize + 1;
        self.ends = rest;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.ends.len(), Some(self.ends.len()))
    }
}

impl ExactSizeIterator for Items<'_> {}

/// Sized like `with_capacity(n, 0)`, `n` the iterator's lower size hint.
impl<K: AsRef<str>, M: Borrow<Metadata>> FromIterator<(K, M)> for MetadataRows {
    fn from_iter<I: IntoIterator<Item = (K, M)>>(rows: I) -> Self {
        let rows = rows.into_iter();
        let mut out = MetadataRows::with_capacity(rows.size_hint().0, 0);
        for (key, metadata) in rows {
            out.push(key.as_ref(), metadata.borrow());
        }
        out
    }
}

impl From<Vec<(String, Metadata)>> for MetadataRows {
    fn from(rows: Vec<(String, Metadata)>) -> Self {
        rows.into_iter().collect()
    }
}

impl std::fmt::Debug for MetadataRows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Row-by-row equality: where the rows lie in the text is not observable.
impl PartialEq for MetadataRows {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for MetadataRows {}

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
    /// Metadata-only rows `(key, metadata)` — what regulators see — in
    /// one buffer ([`MetadataRows`]).
    Metadata(MetadataRows),
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

    pub fn as_metadata(&self) -> Option<&MetadataRows> {
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
        mixed.push("k0", "x");
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

    fn meta(user: &str, purposes: &[&str], sharing: &[&str]) -> Metadata {
        let list = |items: &[&str]| items.iter().map(|s| s.to_string()).collect();
        Metadata {
            purposes: list(purposes),
            ttl: Some(Duration::from_secs(60)),
            user: user.into(),
            objections: vec![],
            decisions: vec![],
            sharing: list(sharing),
            source: "first-party".into(),
        }
    }

    #[test]
    fn empty_metadata_rows() {
        let empty = MetadataRows::default();
        assert!(empty.is_empty());
        assert_eq!(empty.iter().next(), None);
        assert_eq!(empty, MetadataRows::from(Vec::new()));
        assert_eq!(format!("{empty:?}"), "[]");
        assert_eq!(GdprResponse::Metadata(empty).cardinality(), 0);
    }

    /// Every field comes back as pushed, lists item by item: an empty
    /// list, an empty item, items holding `,` or `∅`, non-ASCII text, a
    /// missing TTL. The boundaries are the rows', not the text's.
    #[test]
    fn metadata_rows_keep_every_field_and_item_boundary() {
        let odd = Metadata {
            purposes: vec!["".into(), "a,b".into(), "∅".into()],
            ttl: None,
            user: "néo".into(),
            objections: vec![",".into()],
            decisions: vec![],
            sharing: vec!["".into()],
            source: "ß".into(),
        };
        let pairs = vec![
            ("k1".to_string(), meta("neo", &["ads", "2fa"], &[])),
            ("".to_string(), odd),
            ("k3".to_string(), Metadata::default()),
        ];
        let rows = MetadataRows::from(pairs.clone());
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.to_vec(), pairs);
        let first = rows.iter().next().unwrap();
        assert_eq!(
            (first.key(), first.user(), first.source()),
            ("k1", "neo", "first-party")
        );
        assert!(first.purposes().eq(["ads", "2fa"]));
        assert_eq!(first.purposes().len(), 2);
        assert_eq!(first.sharing().len(), 0);
        assert_eq!(first.ttl(), Some(Duration::from_secs(60)));
        // Moving an item boundary changes the row, not the text.
        let one_item = MetadataRows::from(vec![("k".into(), meta("u", &["a,b"], &[]))]);
        let two_items = MetadataRows::from(vec![("k".into(), meta("u", &["a", "b"], &[]))]);
        assert_ne!(one_item, two_items);
        let no_item = MetadataRows::from(vec![("k".into(), meta("u", &[], &[]))]);
        let empty_item = MetadataRows::from(vec![("k".into(), meta("u", &[""], &[]))]);
        assert_ne!(no_item, empty_item);
        assert_eq!(empty_item.to_vec()[0].1.purposes, [""]);
    }

    /// A row read from stored bytes is the row of the parsed record, for
    /// wire lists and for a parsed record's item lists alike.
    #[test]
    fn push_view_is_push_of_the_parsed_metadata() {
        let stored = [
            "ph-1;123;PUR=ads,2fa;TTL=365days;USR=néo;OBJ=∅;DEC=∅;SHR=a,b,c;SRC=first-party;",
            "ph-2;4;PUR=∅;TTL=∅;USR=∅;OBJ=x;DEC=opt-out;SHR=∅;SRC=∅;",
        ];
        let mut viewed = MetadataRows::with_capacity(2, 0);
        let mut parsed_views = MetadataRows::default();
        let mut owned = MetadataRows::default();
        for text in stored {
            let record = crate::wire::parse(text).unwrap();
            viewed.push_view(
                &record.key,
                &RecordView::from_bytes(text.as_bytes()).unwrap(),
            );
            parsed_views.push_view(&record.key, &record.view());
            owned.push(&record.key, &record.metadata);
        }
        assert_eq!(viewed, owned);
        assert_eq!(parsed_views, owned);
        assert_eq!(viewed.to_vec()[0].1.sharing, ["a", "b", "c"]);
    }

    /// Sorting orders by key, ties field by field, and moves no text.
    #[test]
    fn metadata_rows_sort_by_key_then_fields() {
        let mut rows = MetadataRows::from(vec![
            ("k2".into(), meta("b", &["x"], &[])),
            ("k1".into(), meta("z", &["x"], &[])),
            ("k2".into(), meta("a", &["x"], &[])),
            ("k0".into(), meta("u", &["y"], &["p"])),
        ]);
        let text = rows.text.clone();
        rows.sort();
        let order: Vec<(&str, &str)> = rows.iter().map(|r| (r.key(), r.user())).collect();
        assert_eq!(order, [("k0", "u"), ("k1", "z"), ("k2", "a"), ("k2", "b")]);
        assert_eq!(rows.text, text);
    }

    /// A row whose writer is dropped unfinished is not a row.
    #[test]
    fn an_unfinished_row_is_not_added() {
        let mut rows = MetadataRows::default();
        {
            let mut row = rows.row("half");
            row.item("ads");
            row.end_list();
        }
        rows.push("k", &meta("u", &["ads"], &[]));
        assert_eq!(rows.to_vec(), [("k".to_string(), meta("u", &["ads"], &[]))]);
    }

    /// As for data rows, the first viewed row sizes the text for every row
    /// expected, with the guess capped.
    #[test]
    fn the_first_viewed_row_reserves_a_bounded_guess() {
        let text = "k;d;PUR=ads;TTL=1days;USR=u;OBJ=∅;DEC=∅;SHR=∅;SRC=s;";
        let view = RecordView::from_bytes(text.as_bytes()).unwrap();
        let mut rows = MetadataRows::with_capacity(100, 0);
        rows.push_view("k", &view);
        let sized = rows.text.capacity();
        assert!(sized >= 100 * 5, "{sized}");
        rows.push_view("k", &view);
        assert_eq!(rows.text.capacity(), sized);
        // 40 000 expected rows of 5 bytes would be 200 000 bytes; of a
        // 1 MiB key, the guess stops at the cap.
        let key = "k".repeat(1 << 20);
        let mut many = MetadataRows::with_capacity(40_000, 0);
        many.push_view(&key, &view);
        let bound = key.len() + 5 + DataRows::FIRST_RESERVE_MAX;
        assert!(many.text.capacity() <= bound, "{}", many.text.capacity());
    }

    #[test]
    fn accessors() {
        let r = GdprResponse::Data(vec![("k".into(), "v".into())].into());
        assert!(r.as_data().is_some());
        assert!(r.as_metadata().is_none());
    }
}
