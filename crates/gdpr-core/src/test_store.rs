//! The one `RecordStore` test double the engine and router unit tests
//! share.

use crate::compliance::FeatureReport;
use crate::connector::SpaceReport;
use crate::error::{GdprError, GdprResult};
use crate::record::{Metadata, PersonalRecord};
use crate::store::{apply_each, Applied, RecordStore, WriteOp};
use clock::SharedClock;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::thread::ThreadId;
use std::time::Duration;

/// A trivial in-memory [`RecordStore`] with no pushdown — exercises the
/// engines' scan and index paths in isolation from the real backends —
/// plus a native deadline table so `put_with_deadline`, `deadline_ms`
/// and the store-side purge are exercised too, an injectable write
/// failure so both [`RecordStore::apply`] contracts can be pinned, a
/// count of the writes that went ahead, and an
/// injectable read failure plus the last reader's thread so the router's
/// fan-out contract can be.
pub(crate) struct MemStore {
    pub(crate) rows: Mutex<BTreeMap<String, PersonalRecord>>,
    deadlines: Mutex<BTreeMap<String, u64>>,
    clock: SharedClock,
    /// `Some(k)`: the next `k` rewrites/deletes succeed, then one fails.
    pub(crate) fail_after: Mutex<Option<usize>>,
    /// Rewrites and deletes that went ahead.
    pub(crate) writes: Mutex<usize>,
    /// Every `fetch` and `scan` fails while set.
    pub(crate) fail_reads: Mutex<bool>,
    /// The thread the last `fetch` or `scan` ran on, failed ones included.
    pub(crate) last_read_by: Mutex<Option<ThreadId>>,
    /// Run `apply` all-or-none (roll back on failure) instead of through
    /// the trait's default loop.
    pub(crate) atomic: bool,
}

impl MemStore {
    /// A store on its own simulated clock.
    pub(crate) fn new() -> MemStore {
        MemStore::with_clock(clock::sim())
    }

    pub(crate) fn with_clock(clock: SharedClock) -> MemStore {
        MemStore {
            rows: Mutex::new(BTreeMap::new()),
            deadlines: Mutex::new(BTreeMap::new()),
            clock,
            fail_after: Mutex::new(None),
            writes: Mutex::new(0),
            fail_reads: Mutex::new(false),
            last_read_by: Mutex::new(None),
            atomic: false,
        }
    }

    /// Note who reads, and fail if armed.
    fn read_allowed(&self) -> GdprResult<()> {
        *self.last_read_by.lock() = Some(std::thread::current().id());
        if *self.fail_reads.lock() {
            return Err(GdprError::Store("injected read failure".to_string()));
        }
        Ok(())
    }

    /// Count one rewrite/delete against the armed failure, and in
    /// [`Self::writes`] when it goes ahead.
    fn write_allowed(&self) -> GdprResult<()> {
        let mut fail_after = self.fail_after.lock();
        match *fail_after {
            Some(0) => {
                *fail_after = None;
                return Err(GdprError::Store("injected write failure".to_string()));
            }
            Some(left) => *fail_after = Some(left - 1),
            None => {}
        }
        *self.writes.lock() += 1;
        Ok(())
    }
}

impl RecordStore for MemStore {
    fn clock(&self) -> SharedClock {
        self.clock.clone()
    }
    fn fetch(&self, key: &str) -> GdprResult<Option<PersonalRecord>> {
        self.read_allowed()?;
        Ok(self.rows.lock().get(key).cloned())
    }
    fn put(&self, record: &PersonalRecord) -> GdprResult<()> {
        let mut rows = self.rows.lock();
        if rows.contains_key(&record.key) {
            return Err(GdprError::AlreadyExists(record.key.clone()));
        }
        if let Some(ttl) = record.metadata.ttl {
            self.deadlines.lock().insert(
                record.key.clone(),
                clock::deadline_ms(self.clock.now().as_millis(), ttl),
            );
        }
        rows.insert(record.key.clone(), record.clone());
        Ok(())
    }
    fn put_with_deadline(
        &self,
        record: &PersonalRecord,
        deadline_ms: Option<u64>,
    ) -> GdprResult<()> {
        let mut rows = self.rows.lock();
        if rows.contains_key(&record.key) {
            return Err(GdprError::AlreadyExists(record.key.clone()));
        }
        if let Some(at) = deadline_ms {
            self.deadlines.lock().insert(record.key.clone(), at);
        }
        rows.insert(record.key.clone(), record.clone());
        Ok(())
    }
    fn rewrite(&self, record: &PersonalRecord, ttl_changed: bool) -> GdprResult<()> {
        self.write_allowed()?;
        if ttl_changed {
            let mut deadlines = self.deadlines.lock();
            match record.metadata.ttl {
                Some(ttl) => deadlines.insert(
                    record.key.clone(),
                    clock::deadline_ms(self.clock.now().as_millis(), ttl),
                ),
                None => deadlines.remove(&record.key),
            };
        }
        self.rows.lock().insert(record.key.clone(), record.clone());
        Ok(())
    }
    fn delete(&self, key: &str) -> GdprResult<bool> {
        self.write_allowed()?;
        self.deadlines.lock().remove(key);
        Ok(self.rows.lock().remove(key).is_some())
    }
    fn apply(&self, ops: &[WriteOp]) -> Applied {
        if !self.atomic {
            return apply_each(self, ops);
        }
        let before = (self.rows.lock().clone(), self.deadlines.lock().clone());
        let mut applied = apply_each(self, ops);
        if applied.result.is_err() {
            (*self.rows.lock(), *self.deadlines.lock()) = before;
            (applied.committed, applied.counted) = (0, 0);
        }
        applied
    }
    fn scan(&self) -> GdprResult<Vec<PersonalRecord>> {
        self.read_allowed()?;
        Ok(self.rows.lock().values().cloned().collect())
    }
    fn purge_expired(&self) -> GdprResult<usize> {
        let now = self.clock.now().as_millis();
        let due: Vec<String> = self
            .deadlines
            .lock()
            .iter()
            .filter(|(_, at)| **at <= now)
            .map(|(k, _)| k.clone())
            .collect();
        for key in &due {
            self.delete(key)?;
        }
        Ok(due.len())
    }
    fn deadline_ms(&self, key: &str) -> Option<u64> {
        self.deadlines.lock().get(key).copied()
    }
    fn space_report(&self) -> SpaceReport {
        let rows = self.rows.lock();
        SpaceReport {
            personal_data_bytes: rows.values().map(|r| r.data.len()).sum(),
            total_bytes: rows.values().map(|r| r.data.len() + r.key.len() + 64).sum(),
        }
    }
    fn record_count(&self) -> usize {
        self.rows.lock().len()
    }
    fn features(&self) -> FeatureReport {
        FeatureReport::default()
    }
    fn name(&self) -> &str {
        "mem"
    }
}

/// A record with an hour of TTL and `data-<key>` as payload.
pub(crate) fn record(key: &str, user: &str, purposes: &[&str]) -> PersonalRecord {
    PersonalRecord::new(
        key,
        format!("data-{key}"),
        Metadata::new(
            user,
            purposes.iter().map(|s| s.to_string()).collect(),
            Duration::from_secs(3600),
        ),
    )
}
