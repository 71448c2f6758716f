//! A table: schema + heap + indices + a minimal planner.
//!
//! The planner picks at most one index per statement — an equality or range
//! probe — and evaluates the full predicate as a residual filter over the
//! candidate rows, falling back to a sequential scan when no index applies.
//! This is deliberately the simplest planner that exhibits the behaviour the
//! paper measures: metadata queries are O(n) without secondary indices and
//! probe-shaped with them, while every write pays maintenance on each index
//! it touches (Figure 3b).

use crate::datum::Datum;
use crate::error::{RelError, RelResult};
use crate::heap::{Heap, RowId};
use crate::index::Index;
use crate::predicate::Predicate;
use crate::schema::Schema;

use std::sync::atomic::{AtomicU64, Ordering};

/// Scan-type counters, exposed so tests and benches can verify plans.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlanStats {
    pub index_scans: u64,
    pub seq_scans: u64,
}

#[derive(Debug, Default)]
struct PlanCounters {
    index_scans: AtomicU64,
    seq_scans: AtomicU64,
}

/// A table with its indices.
pub struct Table {
    name: String,
    schema: Schema,
    heap: Heap,
    indices: Vec<Index>,
    /// Atomic so that read statements stay `&self` (and therefore run under
    /// a shared lock in [`crate::Database`]).
    plan_counters: PlanCounters,
}

enum Plan {
    /// Probe one index with one key, then filter.
    IndexEq { index: usize, key: Datum },
    /// Range-probe one index, then filter.
    IndexRange { index: usize, lo: Datum, hi: Datum },
    /// Walk the heap.
    Seq,
}

impl Table {
    /// Create a table; a unique primary-key index (`<name>_pkey`) is built
    /// automatically.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let name = name.into();
        let pk_index = Index::new(format!("{name}_pkey"), schema.pk_index(), true, false);
        Table {
            name,
            schema,
            heap: Heap::new(),
            indices: vec![pk_index],
            plan_counters: PlanCounters::default(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn row_count(&self) -> usize {
        self.heap.len()
    }

    pub fn plan_stats(&self) -> PlanStats {
        PlanStats {
            index_scans: self.plan_counters.index_scans.load(Ordering::Relaxed),
            seq_scans: self.plan_counters.seq_scans.load(Ordering::Relaxed),
        }
    }

    /// Total approximate bytes: heap rows plus all index structures — the
    /// numerator of Table 3's space-overhead ratio.
    pub fn size_bytes(&self) -> usize {
        self.heap.bytes() + self.indices.iter().map(Index::size_bytes).sum::<usize>()
    }

    /// Bytes held in indices alone.
    pub fn index_bytes(&self) -> usize {
        self.indices.iter().map(Index::size_bytes).sum()
    }

    /// Create a secondary index on `column`. `inverted` must be used for
    /// `text[]` columns. Backfills from existing rows.
    pub fn create_index(
        &mut self,
        index_name: &str,
        column: &str,
        inverted: bool,
    ) -> RelResult<()> {
        if self.indices.iter().any(|i| i.name() == index_name) {
            return Err(RelError::IndexExists(index_name.to_string()));
        }
        let col = self.schema.column_index(column)?;
        let mut index = Index::new(index_name, col, false, inverted);
        for (id, row) in self.heap.scan() {
            index.insert(row, id);
        }
        self.indices.push(index);
        Ok(())
    }

    /// Drop a secondary index. The primary key index cannot be dropped.
    pub fn drop_index(&mut self, index_name: &str) -> RelResult<()> {
        let pos = self
            .indices
            .iter()
            .position(|i| i.name() == index_name)
            .ok_or_else(|| RelError::NoSuchColumn(index_name.to_string()))?;
        if pos == 0 {
            return Err(RelError::Wal("cannot drop primary key index".into()));
        }
        self.indices.remove(pos);
        Ok(())
    }

    /// Insert a row.
    pub fn insert(&mut self, row: Vec<Datum>) -> RelResult<RowId> {
        self.schema.check_row(&row)?;
        for index in &self.indices {
            index.check_unique(&row)?;
        }
        let id = self.heap.insert(row);
        let row_ref = self.heap.get(id).expect("just inserted");
        // Indices borrow the row immutably; clone once to appease both.
        let row_copy = row_ref.to_vec();
        for index in &mut self.indices {
            index.insert(&row_copy, id);
        }
        Ok(id)
    }

    /// Choose an access path for `pred`.
    fn plan(&self, pred: &Predicate) -> Plan {
        // Collect top-level conjuncts (a bare predicate is a 1-conjunct AND).
        let conjuncts: Vec<&Predicate> = match pred {
            Predicate::And(ps) => ps.iter().collect(),
            other => vec![other],
        };
        // Prefer equality probes (most selective), then ranges.
        for c in &conjuncts {
            match c {
                Predicate::Eq(col, value) => {
                    if let Some(i) = self.find_index(col, false) {
                        return Plan::IndexEq {
                            index: i,
                            key: value.clone(),
                        };
                    }
                }
                Predicate::Contains(col, value) => {
                    if let Some(i) = self.find_index(col, true) {
                        return Plan::IndexEq {
                            index: i,
                            key: Datum::Text(value.clone()),
                        };
                    }
                }
                _ => {}
            }
        }
        for c in &conjuncts {
            let (col, lo, hi) = match c {
                Predicate::Lt(col, v) | Predicate::Le(col, v) => (col, range_min(v), v.clone()),
                Predicate::Gt(col, v) | Predicate::Ge(col, v) => (col, v.clone(), range_max(v)),
                _ => continue,
            };
            if let Some(i) = self.find_index(col, false) {
                return Plan::IndexRange { index: i, lo, hi };
            }
        }
        Plan::Seq
    }

    fn find_index(&self, column: &str, inverted: bool) -> Option<usize> {
        let col = self.schema.column_index(column).ok()?;
        self.indices
            .iter()
            .position(|i| i.column() == col && i.is_inverted() == inverted)
    }

    /// Row ids matching `pred`, via the planned access path.
    fn matching_ids(&self, pred: &Predicate) -> RelResult<Vec<RowId>> {
        pred.check(&self.schema)?;
        let candidates: Vec<RowId> = match self.plan(pred) {
            Plan::IndexEq { index, key } => {
                self.plan_counters
                    .index_scans
                    .fetch_add(1, Ordering::Relaxed);
                self.indices[index].lookup(&key)
            }
            Plan::IndexRange { index, lo, hi } => {
                self.plan_counters
                    .index_scans
                    .fetch_add(1, Ordering::Relaxed);
                self.indices[index].lookup_range(&lo, &hi)
            }
            Plan::Seq => {
                self.plan_counters.seq_scans.fetch_add(1, Ordering::Relaxed);
                self.heap.scan().map(|(id, _)| id).collect()
            }
        };
        let mut out = Vec::new();
        for id in candidates {
            let row = self.heap.get(id).expect("index points at live row");
            if pred.eval(&self.schema, row)? {
                out.push(id);
            }
        }
        Ok(out)
    }

    /// Rows matching `pred`, cloned out. `&self`: reads run under a shared lock.
    pub fn select(&self, pred: &Predicate) -> RelResult<Vec<Vec<Datum>>> {
        let ids = self.matching_ids(pred)?;
        Ok(ids
            .into_iter()
            .map(|id| self.heap.get(id).expect("live").to_vec())
            .collect())
    }

    /// Count rows matching `pred` without cloning them.
    pub fn count(&self, pred: &Predicate) -> RelResult<usize> {
        Ok(self.matching_ids(pred)?.len())
    }

    /// Up to `limit` rows with `column >= start`, in column order — the
    /// `SELECT ... WHERE col >= $1 ORDER BY col LIMIT n` shape YCSB's scan
    /// workload issues. Requires an index on `column` (the primary key
    /// always has one); falls back to an ordered heap scan otherwise.
    pub fn select_range(
        &self,
        column: &str,
        start: &Datum,
        limit: usize,
    ) -> RelResult<Vec<Vec<Datum>>> {
        let col = self.schema.column_index(column)?;
        let candidates: Vec<RowId> = match self
            .indices
            .iter()
            .find(|i| i.column() == col && !i.is_inverted())
        {
            Some(index) => {
                self.plan_counters
                    .index_scans
                    .fetch_add(1, Ordering::Relaxed);
                index.lookup_range_limit(start, &range_max(start), limit)
            }
            None => {
                self.plan_counters.seq_scans.fetch_add(1, Ordering::Relaxed);
                // Ordered fallback: collect matching rows then sort by the
                // column (an explicit sort node, as a planner would add).
                let mut ids: Vec<RowId> = self
                    .heap
                    .scan()
                    .filter(|(_, row)| {
                        matches!(
                            row[col].sql_cmp(start),
                            Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
                        )
                    })
                    .map(|(id, _)| id)
                    .collect();
                ids.sort_by(|a, b| {
                    let ra = &self.heap.get(*a).expect("live")[col];
                    let rb = &self.heap.get(*b).expect("live")[col];
                    ra.sql_cmp(rb).unwrap_or(std::cmp::Ordering::Equal)
                });
                ids
            }
        };
        Ok(candidates
            .into_iter()
            .take(limit)
            .map(|id| self.heap.get(id).expect("live").to_vec())
            .collect())
    }

    /// Update matching rows by assigning `assignments`. Returns rows changed.
    pub fn update_where(
        &mut self,
        pred: &Predicate,
        assignments: &[(String, Datum)],
    ) -> RelResult<usize> {
        // Resolve assignment columns once.
        let mut resolved = Vec::with_capacity(assignments.len());
        for (col, value) in assignments {
            let idx = self.schema.column_index(col)?;
            if !self.schema.columns()[idx].ty.admits(value) {
                return Err(RelError::TypeMismatch {
                    column: col.clone(),
                    expected: self.schema.columns()[idx].ty.name().to_string(),
                    got: value.type_name().to_string(),
                });
            }
            resolved.push((idx, value.clone()));
        }
        let ids = self.matching_ids(pred)?;
        for &id in &ids {
            let old = self.heap.get(id).expect("live").to_vec();
            let mut new = old.clone();
            for (idx, value) in &resolved {
                new[*idx] = value.clone();
            }
            // Unique checks for changed keys on unique indices.
            for index in &self.indices {
                if index.is_unique() && old[index.column()] != new[index.column()] {
                    index.check_unique(&new)?;
                }
            }
            for index in &mut self.indices {
                index.remove(&old, id);
                index.insert(&new, id);
            }
            self.heap.update(id, new);
        }
        Ok(ids.len())
    }

    /// Delete matching rows. Returns the deleted rows (callers such as the
    /// GDPR `verify-deletion` flow need to know exactly what went away).
    pub fn delete_where(&mut self, pred: &Predicate) -> RelResult<Vec<Vec<Datum>>> {
        let ids = self.matching_ids(pred)?;
        let mut deleted = Vec::with_capacity(ids.len());
        for id in ids {
            let row = self.heap.delete(id).expect("live row");
            for index in &mut self.indices {
                index.remove(&row, id);
            }
            deleted.push(row);
        }
        Ok(deleted)
    }
}

/// Smallest datum of the same family as `v`, for open-ended ranges.
fn range_min(v: &Datum) -> Datum {
    match v {
        Datum::Int(_) => Datum::Int(i64::MIN),
        Datum::Float(_) => Datum::Float(f64::NEG_INFINITY),
        Datum::Text(_) => Datum::Text(String::new()),
        Datum::Timestamp(_) => Datum::Timestamp(0),
        other => other.clone(),
    }
}

/// Largest datum of the same family as `v`.
fn range_max(v: &Datum) -> Datum {
    match v {
        Datum::Int(_) => Datum::Int(i64::MAX),
        Datum::Float(_) => Datum::Float(f64::INFINITY),
        Datum::Text(_) => Datum::Text("\u{10FFFF}".repeat(8)),
        Datum::Timestamp(_) => Datum::Timestamp(u64::MAX),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    fn records_schema() -> Schema {
        Schema::new(
            vec![
                ("key", ColumnType::Text),
                ("data", ColumnType::Text),
                ("usr", ColumnType::Text),
                ("purposes", ColumnType::TextArray),
                ("expiry", ColumnType::Timestamp),
            ],
            "key",
        )
        .unwrap()
    }

    fn record(key: &str, usr: &str, purposes: &[&str], expiry: u64) -> Vec<Datum> {
        vec![
            Datum::Text(key.into()),
            Datum::Text(format!("data-{key}")),
            Datum::Text(usr.into()),
            Datum::TextArray(purposes.iter().map(|s| s.to_string()).collect()),
            Datum::Timestamp(expiry),
        ]
    }

    fn populated() -> Table {
        let mut t = Table::new("personal_data", records_schema());
        for i in 0..100 {
            let usr = format!("user{}", i % 10);
            let purposes: Vec<&str> = if i % 2 == 0 {
                vec!["ads"]
            } else {
                vec!["2fa", "analytics"]
            };
            t.insert(record(&format!("k{i:03}"), &usr, &purposes, 1000 + i))
                .unwrap();
        }
        t
    }

    #[test]
    fn insert_and_pk_lookup_uses_index() {
        let t = populated();
        let rows = t.select(&Predicate::eq_text("key", "k042")).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][2], Datum::Text("user2".into()));
        assert_eq!(t.plan_stats().index_scans, 1);
        assert_eq!(t.plan_stats().seq_scans, 0);
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = populated();
        let err = t.insert(record("k000", "x", &[], 0)).unwrap_err();
        assert!(matches!(err, RelError::UniqueViolation { .. }));
        assert_eq!(t.row_count(), 100);
    }

    #[test]
    fn non_indexed_query_seq_scans() {
        let t = populated();
        let rows = t.select(&Predicate::eq_text("usr", "user3")).unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(t.plan_stats().seq_scans, 1);
    }

    #[test]
    fn secondary_index_converts_to_index_scan() {
        let mut t = populated();
        t.create_index("usr_idx", "usr", false).unwrap();
        let rows = t.select(&Predicate::eq_text("usr", "user3")).unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(t.plan_stats().index_scans, 1);
        assert_eq!(t.plan_stats().seq_scans, 0);
    }

    #[test]
    fn inverted_index_serves_contains() {
        let mut t = populated();
        t.create_index("purposes_idx", "purposes", true).unwrap();
        let rows = t.select(&Predicate::contains("purposes", "ads")).unwrap();
        assert_eq!(rows.len(), 50);
        assert_eq!(t.plan_stats().index_scans, 1);
        // Without the inverted index a Contains would have seq-scanned.
        let rows = t
            .select(&Predicate::contains("purposes", "analytics"))
            .unwrap();
        assert_eq!(rows.len(), 50);
    }

    #[test]
    fn range_scan_on_timestamp_index() {
        let mut t = populated();
        t.create_index("expiry_idx", "expiry", false).unwrap();
        let pred = Predicate::Le("expiry".into(), Datum::Timestamp(1009));
        let rows = t.select(&pred).unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(t.plan_stats().index_scans, 1);
    }

    #[test]
    fn conjunction_uses_index_plus_residual() {
        let mut t = populated();
        t.create_index("usr_idx", "usr", false).unwrap();
        // user3 rows are i = 3, 13, ..., 93 (all odd) → all carry "2fa";
        // user2 rows are all even → none do.
        let pred = Predicate::And(vec![
            Predicate::eq_text("usr", "user3"),
            Predicate::contains("purposes", "2fa"),
        ]);
        let rows = t.select(&pred).unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(t.plan_stats().index_scans, 1);
        let pred = Predicate::And(vec![
            Predicate::eq_text("usr", "user2"),
            Predicate::contains("purposes", "2fa"),
        ]);
        assert!(
            t.select(&pred).unwrap().is_empty(),
            "residual filter must apply"
        );
    }

    #[test]
    fn update_moves_index_entries() {
        let mut t = populated();
        t.create_index("usr_idx", "usr", false).unwrap();
        let n = t
            .update_where(
                &Predicate::eq_text("usr", "user3"),
                &[("usr".into(), Datum::Text("renamed".into()))],
            )
            .unwrap();
        assert_eq!(n, 10);
        assert!(t
            .select(&Predicate::eq_text("usr", "user3"))
            .unwrap()
            .is_empty());
        assert_eq!(
            t.select(&Predicate::eq_text("usr", "renamed"))
                .unwrap()
                .len(),
            10
        );
    }

    #[test]
    fn update_rejects_type_mismatch() {
        let mut t = populated();
        let err = t
            .update_where(&Predicate::True, &[("usr".into(), Datum::Int(5))])
            .unwrap_err();
        assert!(matches!(err, RelError::TypeMismatch { .. }));
    }

    #[test]
    fn update_pk_checks_uniqueness() {
        let mut t = populated();
        let err = t
            .update_where(
                &Predicate::eq_text("key", "k001"),
                &[("key".into(), Datum::Text("k000".into()))],
            )
            .unwrap_err();
        assert!(matches!(err, RelError::UniqueViolation { .. }));
        // Renaming to a fresh key works.
        let n = t
            .update_where(
                &Predicate::eq_text("key", "k001"),
                &[("key".into(), Datum::Text("fresh".into()))],
            )
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(
            t.select(&Predicate::eq_text("key", "fresh")).unwrap().len(),
            1
        );
    }

    #[test]
    fn delete_where_removes_rows_and_index_entries() {
        let mut t = populated();
        t.create_index("usr_idx", "usr", false).unwrap();
        let deleted = t.delete_where(&Predicate::eq_text("usr", "user3")).unwrap();
        assert_eq!(deleted.len(), 10);
        assert_eq!(t.row_count(), 90);
        assert!(t
            .select(&Predicate::eq_text("usr", "user3"))
            .unwrap()
            .is_empty());
        // Deleted keys can be re-inserted (pkey entries must be gone).
        t.insert(record("k003", "user3", &[], 0)).unwrap();
    }

    #[test]
    fn delete_by_expiry_range() {
        let mut t = populated();
        let pred = Predicate::Le("expiry".into(), Datum::Timestamp(1049));
        let deleted = t.delete_where(&pred).unwrap();
        assert_eq!(deleted.len(), 50);
        assert_eq!(t.row_count(), 50);
    }

    #[test]
    fn count_matches_select_len() {
        let t = populated();
        assert_eq!(
            t.count(&Predicate::contains("purposes", "ads")).unwrap(),
            t.select(&Predicate::contains("purposes", "ads"))
                .unwrap()
                .len()
        );
        assert_eq!(t.count(&Predicate::True).unwrap(), 100);
    }

    #[test]
    fn size_grows_with_each_index() {
        let mut t = populated();
        let base = t.size_bytes();
        t.create_index("usr_idx", "usr", false).unwrap();
        let one = t.size_bytes();
        assert!(one > base);
        t.create_index("purposes_idx", "purposes", true).unwrap();
        assert!(t.size_bytes() > one);
        assert!(t.index_bytes() > 0);
    }

    #[test]
    fn duplicate_index_name_rejected() {
        let mut t = populated();
        t.create_index("usr_idx", "usr", false).unwrap();
        assert!(matches!(
            t.create_index("usr_idx", "usr", false),
            Err(RelError::IndexExists(_))
        ));
    }

    #[test]
    fn drop_index_restores_seq_scan() {
        let mut t = populated();
        t.create_index("usr_idx", "usr", false).unwrap();
        t.drop_index("usr_idx").unwrap();
        t.select(&Predicate::eq_text("usr", "user1")).unwrap();
        assert_eq!(t.plan_stats().seq_scans, 1);
        assert!(t.drop_index("personal_data_pkey").is_err());
    }
}
