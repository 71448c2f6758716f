//! Index layer: unique and secondary indices over table columns, including
//! inverted indices for `text[]` columns — the paper's "metadata indexing".
//!
//! For scalar columns the index maps the column value to the rows holding
//! it. For `text[]` columns it maps each *element* to the rows whose array
//! contains it, which is what a `... WHERE 'ads' = ANY(purposes)` query
//! needs (PostgreSQL would use a GIN index here).
//!
//! Keys are ordered in a `BTreeMap`, each holding its posting list: the
//! rows with that key, in insertion order (a removal moves the last row
//! into the freed slot). A key leaves the map with its last row. Deletion
//! reclaims eagerly, where PostgreSQL defers page reclamation to vacuum;
//! no figure depends on the difference, since index space is counted as
//! key bytes plus a fixed cost per entry.

use crate::datum::{Datum, IndexKey};
use crate::error::{RelError, RelResult};
use crate::heap::RowId;
use std::collections::BTreeMap;

/// A single-column index.
pub struct Index {
    name: String,
    /// Position of the indexed column in the table schema.
    column: usize,
    unique: bool,
    /// Inverted semantics: index the elements of a `text[]` column.
    inverted: bool,
    postings: BTreeMap<IndexKey, Vec<RowId>>,
    /// Approximate bytes held: each (key, row) entry's key data plus a
    /// fixed 16 (Table 3: index space overhead).
    bytes: usize,
}

impl Index {
    pub fn new(name: impl Into<String>, column: usize, unique: bool, inverted: bool) -> Self {
        Index {
            name: name.into(),
            column,
            unique,
            inverted,
            postings: BTreeMap::new(),
            bytes: 0,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn column(&self) -> usize {
        self.column
    }

    pub fn is_unique(&self) -> bool {
        self.unique
    }

    pub fn is_inverted(&self) -> bool {
        self.inverted
    }

    /// Keys this row contributes to the index.
    fn keys_of(&self, row: &[Datum]) -> Vec<IndexKey> {
        let datum = &row[self.column];
        if self.inverted {
            match datum.as_text_array() {
                Some(items) => items
                    .iter()
                    .map(|s| IndexKey(Datum::Text(s.clone())))
                    .collect(),
                None => Vec::new(), // NULL array indexes nothing
            }
        } else if datum.is_null() {
            Vec::new() // NULLs are not indexed (as in btree indexes for lookups we issue)
        } else {
            vec![IndexKey(datum.clone())]
        }
    }

    /// Pre-check uniqueness for a row about to be inserted.
    pub fn check_unique(&self, row: &[Datum]) -> RelResult<()> {
        if !self.unique {
            return Ok(());
        }
        for key in self.keys_of(row) {
            if self.postings.contains_key(&key) {
                return Err(RelError::UniqueViolation {
                    index: self.name.clone(),
                });
            }
        }
        Ok(())
    }

    /// Add a row's entries. A key the row repeats (`{ads,ads}`) is one
    /// entry.
    pub fn insert(&mut self, row: &[Datum], id: RowId) {
        for key in self.keys_of(row) {
            let bytes = key.0.size_bytes() + 16;
            let rows = self.postings.entry(key).or_default();
            if !rows.contains(&id) {
                rows.push(id);
                self.bytes += bytes;
            }
        }
    }

    /// Remove a row's entries.
    pub fn remove(&mut self, row: &[Datum], id: RowId) {
        for key in self.keys_of(row) {
            let Some(rows) = self.postings.get_mut(&key) else {
                continue;
            };
            let Some(pos) = rows.iter().position(|r| *r == id) else {
                continue;
            };
            rows.swap_remove(pos);
            if rows.is_empty() {
                self.postings.remove(&key);
            }
            self.bytes -= key.0.size_bytes() + 16;
        }
    }

    /// Rows holding exactly `datum` (or containing it, for inverted indices).
    pub fn lookup(&self, datum: &Datum) -> Vec<RowId> {
        self.postings
            .get(&IndexKey(datum.clone()))
            .cloned()
            .unwrap_or_default()
    }

    /// Rows whose key lies in `[lo, hi]`.
    pub fn lookup_range(&self, lo: &Datum, hi: &Datum) -> Vec<RowId> {
        self.lookup_range_limit(lo, hi, usize::MAX)
    }

    /// As [`Self::lookup_range`], capped at `limit` rows (in key order).
    pub fn lookup_range_limit(&self, lo: &Datum, hi: &Datum, limit: usize) -> Vec<RowId> {
        let (lo, hi) = (IndexKey(lo.clone()), IndexKey(hi.clone()));
        if lo > hi {
            return Vec::new();
        }
        self.postings
            .range(lo..=hi)
            .flat_map(|(_, rows)| rows.iter().copied())
            .take(limit)
            .collect()
    }

    /// Number of (key, row) entries.
    #[cfg(test)]
    fn entry_count(&self) -> usize {
        self.postings.values().map(Vec::len).sum()
    }

    /// Approximate bytes held by this index (keys + per-entry overhead).
    pub fn size_bytes(&self) -> usize {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(key: &str, purposes: &[&str]) -> Vec<Datum> {
        vec![
            Datum::Text(key.into()),
            Datum::TextArray(purposes.iter().map(|s| s.to_string()).collect()),
        ]
    }

    #[test]
    fn scalar_index_lookup() {
        let mut idx = Index::new("pk", 0, true, false);
        idx.insert(&row("a", &[]), RowId(0));
        idx.insert(&row("b", &[]), RowId(1));
        assert_eq!(idx.lookup(&Datum::Text("a".into())), vec![RowId(0)]);
        assert!(idx.lookup(&Datum::Text("zz".into())).is_empty());
    }

    #[test]
    fn unique_violation_detected() {
        let mut idx = Index::new("pk", 0, true, false);
        idx.insert(&row("a", &[]), RowId(0));
        assert!(matches!(
            idx.check_unique(&row("a", &[])),
            Err(RelError::UniqueViolation { .. })
        ));
        assert!(idx.check_unique(&row("b", &[])).is_ok());
    }

    #[test]
    fn non_unique_allows_duplicates() {
        let mut idx = Index::new("sec", 0, false, false);
        idx.insert(&row("x", &[]), RowId(0));
        assert!(idx.check_unique(&row("x", &[])).is_ok());
        idx.insert(&row("x", &[]), RowId(1));
        let mut got = idx.lookup(&Datum::Text("x".into()));
        got.sort();
        assert_eq!(got, vec![RowId(0), RowId(1)]);
    }

    #[test]
    fn inverted_index_on_text_array() {
        let mut idx = Index::new("purposes_idx", 1, false, true);
        idx.insert(&row("a", &["ads", "2fa"]), RowId(0));
        idx.insert(&row("b", &["ads"]), RowId(1));
        idx.insert(&row("c", &["analytics"]), RowId(2));
        let mut ads = idx.lookup(&Datum::Text("ads".into()));
        ads.sort();
        assert_eq!(ads, vec![RowId(0), RowId(1)]);
        assert_eq!(idx.lookup(&Datum::Text("2fa".into())), vec![RowId(0)]);
        assert_eq!(idx.entry_count(), 4);
    }

    #[test]
    fn remove_clears_entries() {
        let mut idx = Index::new("purposes_idx", 1, false, true);
        let r = row("a", &["ads", "2fa"]);
        idx.insert(&r, RowId(0));
        idx.remove(&r, RowId(0));
        assert!(idx.lookup(&Datum::Text("ads".into())).is_empty());
        assert_eq!(idx.entry_count(), 0);
        assert_eq!(idx.size_bytes(), 0);
    }

    #[test]
    fn repeated_array_element_is_counted_once() {
        let mut idx = Index::new("purposes_idx", 1, false, true);
        let r = row("a", &["ads", "ads"]);
        idx.insert(&r, RowId(0));
        assert_eq!(idx.entry_count(), 1);
        assert_eq!(idx.lookup(&Datum::Text("ads".into())), vec![RowId(0)]);
        idx.remove(&r, RowId(0));
        assert_eq!(idx.entry_count(), 0);
        assert_eq!(idx.size_bytes(), 0);
    }

    #[test]
    fn nulls_are_not_indexed() {
        let mut idx = Index::new("sec", 0, false, false);
        idx.insert(&[Datum::Null, Datum::Null], RowId(0));
        assert_eq!(idx.entry_count(), 0);
    }

    #[test]
    fn range_lookup() {
        let mut idx = Index::new("ts", 0, false, false);
        for i in 0..100u64 {
            idx.insert(&[Datum::Timestamp(i)], RowId(i as u32));
        }
        let got = idx.lookup_range(&Datum::Timestamp(10), &Datum::Timestamp(19));
        assert_eq!(got.len(), 10);
    }

    #[test]
    fn size_grows_with_entries() {
        let mut idx = Index::new("sec", 0, false, false);
        idx.insert(&[Datum::Text("long-purpose-string".into())], RowId(0));
        let one = idx.size_bytes();
        idx.insert(&[Datum::Text("another-purpose".into())], RowId(1));
        assert!(idx.size_bytes() > one);
    }
}
