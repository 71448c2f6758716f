//! The Redis-shaped GDPR backend (§5.1 of the paper).
//!
//! Layout: one string key `rec:<key>` per record, holding the §4.2.1 wire
//! form, with a native `EXPIRE` when the record carries a TTL. The store
//! itself has no secondary structures, so the backend resolves every
//! metadata predicate by SCANning the whole `rec:*` keyspace and parsing
//! each record — precisely how the paper's Redis behaves and why its GDPR
//! workloads run orders of magnitude slower than YCSB (Figures 5a, 7b).
//!
//! With the index attached, a predicate resolves to candidate keys and the
//! engine reads them through [`RecordStore::fetch_many`]: `MGET`s of
//! [`SCAN_BATCH`] keys, which the store answers under its shared lock, each
//! value handed to the engine as a [`RecordView`] of the stored text — the
//! predicate is re-verified and the response built without materialising a
//! record. The scan reads the same way once its cursor walk has the keys.
//!
//! All GDPR policy (authorization, visibility, audit, dispatch) lives in
//! [`gdpr_core::ComplianceEngine`]; this module is storage mechanism only.
//! Two connector variants wrap the same backend:
//!
//! * [`RedisConnector::new`] — paper-faithful: every metadata query scans.
//! * [`RedisConnector::with_metadata_index`] — the engine maintains a
//!   [`gdpr_core::MetadataIndex`] over the store, turning those O(n) scans
//!   into O(matches) probes. The store's expiry paths (lazy-on-access and
//!   active cycles) invalidate index entries via
//!   [`kvstore::KvStore::set_expiry_listener`], so the index never
//!   advertises reaped personal data.

use crate::Connector;
use bytes::Bytes;
use gdpr_core::compliance::{FeatureReport, FeatureSupport};
use gdpr_core::connector::SpaceReport;
use gdpr_core::engine::ComplianceEngine;
use gdpr_core::error::{GdprError, GdprResult};
use gdpr_core::record::PersonalRecord;
use gdpr_core::store::{ExpiryListener, RecordStore};
use gdpr_core::wire::{self, RecordView};
use kvstore::expire::ExpirationMode;
use kvstore::{Command, KvConfig, KvStore};
use std::sync::Arc;

const KEY_PREFIX: &str = "rec:";
/// Keys per SCAN step and per MGET: the longest the store's lock is held
/// on behalf of one keyspace walk or one predicate read, whatever their
/// size.
const SCAN_BATCH: usize = 512;

/// [`RecordStore`] over [`kvstore::KvStore`]: wire-format strings under
/// `rec:<key>`, TTL via native EXPIRE, full-keyspace SCAN as the only
/// native predicate path.
pub struct RedisStore {
    store: Arc<KvStore>,
    /// `redis` or `redis-mi`, fixed at connector construction.
    variant_name: &'static str,
}

impl RedisStore {
    /// Wrap an open store as a backend (the sharded connector builds one
    /// of these per shard).
    pub(crate) fn over(store: Arc<KvStore>, variant_name: &'static str) -> RedisStore {
        RedisStore {
            store,
            variant_name,
        }
    }

    /// The underlying key-value store.
    pub(crate) fn kv(&self) -> &Arc<KvStore> {
        &self.store
    }

    fn storage_key(key: &str) -> Bytes {
        [KEY_PREFIX.as_bytes(), key.as_bytes()].concat().into()
    }

    fn store_err(e: impl ToString) -> GdprError {
        GdprError::Store(e.to_string())
    }

    /// The logical key of a `rec:*` storage key.
    fn logical_key(storage_key: &[u8]) -> Option<&str> {
        std::str::from_utf8(storage_key)
            .ok()?
            .strip_prefix(KEY_PREFIX)
    }

    /// The one SCAN loop: every `rec:*` storage key, the cursor walked to
    /// the end before the caller reads anything (see [`Self::scan`]).
    fn scan_keys(&self) -> GdprResult<Vec<Bytes>> {
        let mut keys = Vec::new();
        let mut cursor = 0usize;
        loop {
            let reply = self
                .store
                .execute(Command::Scan {
                    cursor,
                    count: SCAN_BATCH,
                    pattern: Some(Bytes::from_static(b"rec:*")),
                })
                .map_err(Self::store_err)?;
            let parts = reply
                .as_array()
                .ok_or_else(|| GdprError::Store("SCAN reply shape".into()))?;
            let next = parts[0].as_int().unwrap_or(0) as usize;
            keys.extend(
                parts[1]
                    .as_array()
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|r| r.as_bulk().cloned()),
            );
            if next == 0 {
                return Ok(keys);
            }
            cursor = next;
        }
    }

    /// MGET the storage keys of `keys` in [`SCAN_BATCH`] chunks and show
    /// `visit` every value found, in order, as a view of the stored text.
    fn read_each<K>(
        &self,
        keys: &[K],
        storage_key: impl Fn(&K) -> Bytes,
        visit: &mut dyn FnMut(RecordView<'_>),
    ) -> GdprResult<()> {
        for chunk in keys.chunks(SCAN_BATCH) {
            let keys = chunk.iter().map(&storage_key).collect();
            let reply = self
                .store
                .execute(Command::MGet { keys })
                .map_err(Self::store_err)?;
            let values = reply
                .as_array()
                .ok_or_else(|| GdprError::Store("MGET reply shape".into()))?;
            for value in values.iter().filter_map(|r| r.as_bulk()) {
                visit(RecordView::from_bytes(value)?);
            }
        }
        Ok(())
    }
}

impl RecordStore for RedisStore {
    fn clock(&self) -> clock::SharedClock {
        self.store.clock().clone()
    }

    fn fetch(&self, key: &str) -> GdprResult<Option<PersonalRecord>> {
        let reply = self
            .store
            .get(Self::storage_key(key).as_ref())
            .map_err(Self::store_err)?;
        reply
            .map(|bytes| Ok(RecordView::from_bytes(&bytes)?.to_record()))
            .transpose()
    }

    fn fetch_many(
        &self,
        keys: &[Arc<str>],
        visit: &mut dyn FnMut(RecordView<'_>),
    ) -> GdprResult<()> {
        self.read_each(keys, |key| Self::storage_key(key), visit)
    }

    /// Store a record, setting EXPIRE from its TTL. Collision detection is
    /// an EXISTS probe (hash lookup, lazily reaping an expired occupant) —
    /// much cheaper than a GET, which would decrypt and parse the record.
    fn put(&self, record: &PersonalRecord) -> GdprResult<()> {
        let key = Self::storage_key(&record.key);
        if self.store.exists(key.as_ref()).map_err(Self::store_err)? {
            return Err(GdprError::AlreadyExists(record.key.clone()));
        }
        let value = wire::serialize(record);
        match record.metadata.ttl {
            Some(ttl) => self
                .store
                .set_ex(key.as_ref(), value.as_bytes(), ttl)
                .map_err(Self::store_err),
            None => self
                .store
                .set(key.as_ref(), value.as_bytes())
                .map_err(Self::store_err),
        }
    }

    /// Rewrite a record in place, preserving its remaining store-level TTL
    /// unless the update changed the TTL itself.
    fn rewrite(&self, record: &PersonalRecord, ttl_changed: bool) -> GdprResult<()> {
        let key = Self::storage_key(&record.key);
        let value = wire::serialize(record);
        if ttl_changed {
            return match record.metadata.ttl {
                Some(ttl) => self
                    .store
                    .set_ex(key.as_ref(), value.as_bytes(), ttl)
                    .map_err(Self::store_err),
                None => self
                    .store
                    .set(key.as_ref(), value.as_bytes())
                    .map_err(Self::store_err),
            };
        }
        // Preserve the exact millisecond deadline: SET clears any expiry, so
        // re-arm with EXPIREAT afterwards. Going through the seconds-granular
        // TTL command instead would shave up to 1s per rewrite (and a
        // sub-second remainder would truncate to an instant expiry).
        let deadline = self.store.expiry_at(key.as_ref());
        self.store
            .set(key.as_ref(), value.as_bytes())
            .map_err(Self::store_err)?;
        if let Some(at) = deadline {
            self.store
                .execute(Command::ExpireAt {
                    key,
                    at_ms: at.as_millis(),
                })
                .map_err(Self::store_err)?;
        }
        Ok(())
    }

    fn delete(&self, key: &str) -> GdprResult<bool> {
        self.store
            .del(Self::storage_key(key).as_ref())
            .map_err(Self::store_err)
    }

    /// Insert under a known absolute deadline — the shard-rebalance path.
    /// SET then EXPIREAT, so a migrated record keeps its exact remaining
    /// lifetime instead of being re-armed with the full declared TTL.
    fn put_with_deadline(
        &self,
        record: &PersonalRecord,
        deadline_ms: Option<u64>,
    ) -> GdprResult<()> {
        let key = Self::storage_key(&record.key);
        if self.store.exists(key.as_ref()).map_err(Self::store_err)? {
            return Err(GdprError::AlreadyExists(record.key.clone()));
        }
        let value = wire::serialize(record);
        self.store
            .set(key.as_ref(), value.as_bytes())
            .map_err(Self::store_err)?;
        if let Some(at_ms) = deadline_ms {
            self.store
                .execute(Command::ExpireAt { key, at_ms })
                .map_err(Self::store_err)?;
        }
        Ok(())
    }

    /// Full keyspace walk: SCAN `rec:*` in batches, then read every record
    /// the way [`Self::fetch_many`] does — the O(n) path every metadata
    /// query takes without an engine index. A record that cannot be read
    /// fails the scan: skipping it would hide personal data from
    /// erase-by-user, the index backfill and the space report while
    /// `record_count` still counted it.
    ///
    /// The cursor walk completes *before* any read: an MGET can lazily reap
    /// an expired key, and the keyspace's swap-remove would then move an
    /// unvisited tail key into an already-visited cursor position, silently
    /// dropping a live record from the scan.
    fn scan(&self) -> GdprResult<Vec<PersonalRecord>> {
        let keys = self.scan_keys()?;
        let mut records = Vec::with_capacity(keys.len());
        self.read_each(&keys, Bytes::clone, &mut |record| {
            records.push(record.to_record())
        })?;
        Ok(records)
    }

    fn purge_expired(&self) -> GdprResult<usize> {
        // Timely deletion is the store's job (EXPIRE); purging now means
        // running an active-expiration cycle synchronously.
        Ok(self.store.run_expiration_cycle().reaped)
    }

    /// Past-due keys *without* reaping. The default scan-derived
    /// enumeration is wrong here: a GET lazily destroys an expired record
    /// and its deadline, so the cursor walk must stay key-only and the
    /// deadline check must go through the pure `expiry_at` read.
    fn expired_keys(&self) -> GdprResult<Vec<String>> {
        let now_ms = self.store.clock().now().as_millis();
        let keys = self.scan_keys()?;
        let due = keys.iter().filter(|storage_key| {
            self.store
                .expiry_at(storage_key)
                .is_some_and(|at| at.as_millis() <= now_ms)
        });
        Ok(due
            .filter_map(|storage_key| Self::logical_key(storage_key))
            .map(str::to_string)
            .collect())
    }

    fn deadline_ms(&self, key: &str) -> Option<u64> {
        self.store
            .expiry_at(Self::storage_key(key).as_ref())
            .map(|at| at.as_millis())
    }

    /// The store's AOF write-frame sequence — advanced by every write
    /// (engine-driven or behind the engine's back) and reproduced exactly
    /// by AOF replay, which is what lets an index snapshot stamped with
    /// it be trusted after a crash.
    fn persistence_generation(&self) -> Option<u64> {
        Some(self.store.mutation_generation())
    }

    /// Graceful-shutdown flush: sync the AOF.
    fn flush(&self) -> GdprResult<()> {
        self.store.sync_aof().map_err(Self::store_err)
    }

    fn on_expiry(&self, listener: ExpiryListener) {
        self.store
            .set_expiry_listener(Arc::new(move |storage_key: &[u8]| {
                // Only `rec:*` keys are GDPR records; other expiring keys (none
                // today) would not be indexed.
                if let Some(key) = Self::logical_key(storage_key) {
                    listener(key);
                }
            }));
    }

    fn space_report(&self) -> SpaceReport {
        let personal: usize = self
            .scan()
            .map(|records| records.iter().map(PersonalRecord::data_bytes).sum())
            .unwrap_or(0);
        // Total = what the datastore holds (keyspace + AOF). The GDPR-layer
        // audit trail and metadata index live client-side in the engine and
        // are not part of the paper's "total DB size".
        SpaceReport {
            personal_data_bytes: personal,
            total_bytes: self.store.memory_usage() + self.store.aof_bytes() as usize,
        }
    }

    fn record_count(&self) -> usize {
        self.store.dbsize()
    }

    fn features(&self) -> FeatureReport {
        let config = self.store.config();
        FeatureReport {
            // Native EXPIRE exists but is lazy; strict mode is the paper's
            // retrofit.
            timely_deletion: match config.expiration {
                ExpirationMode::Strict => FeatureSupport::Retrofitted,
                ExpirationMode::Lazy => FeatureSupport::Unsupported,
            },
            monitoring_and_logging: if config.log_reads {
                FeatureSupport::Retrofitted
            } else {
                FeatureSupport::Unsupported
            },
            // No secondary indexes exist in the store; metadata-based
            // access is retrofitted client-side — as SCAN+filter in the
            // baseline, as the engine's MetadataIndex in the `-mi` variant.
            metadata_indexing: FeatureSupport::Retrofitted,
            encryption: if config.encrypt_at_rest && config.encrypt_transit {
                FeatureSupport::Retrofitted
            } else {
                FeatureSupport::Unsupported
            },
            // Enforced in the engine, per the paper.
            access_control: FeatureSupport::Retrofitted,
        }
    }

    fn name(&self) -> &str {
        self.variant_name
    }
}

/// GDPR connector over [`kvstore::KvStore`]: the shared engine driving a
/// [`RedisStore`] backend.
pub type RedisConnector = Connector<ComplianceEngine<RedisStore>>;

impl RedisConnector {
    /// Wrap an open store, paper-faithful (no metadata index: every
    /// metadata query scans the keyspace).
    pub fn new(store: Arc<KvStore>) -> Self {
        Connector::over(ComplianceEngine::new(RedisStore::over(store, "redis")))
    }

    /// Wrap an open store with an engine-maintained metadata index —
    /// O(matches) predicate lookups at index-maintenance cost on writes.
    pub fn with_metadata_index(store: Arc<KvStore>) -> GdprResult<Self> {
        let engine = ComplianceEngine::with_metadata_index(RedisStore::over(store, "redis-mi"))?;
        Ok(Connector::over(engine))
    }

    /// As [`Self::with_metadata_index`], but the index recovers through
    /// the snapshot image at `path` — O(index) when the image's
    /// generation stamp matches the store's AOF position, the usual O(n)
    /// scan-backfill (loudly) otherwise — and `close` /
    /// `write_index_snapshot` persist it there again.
    pub fn with_metadata_index_snapshot(
        store: Arc<KvStore>,
        path: impl Into<std::path::PathBuf>,
    ) -> GdprResult<Self> {
        let backend = RedisStore::over(store, "redis-mi");
        let engine = ComplianceEngine::with_metadata_index_snapshot(backend, path)?;
        Ok(Connector::over(engine))
    }

    /// Open a fully GDPR-compliant in-memory store (strict TTL, read
    /// logging, encryption) and wrap it.
    pub fn open_compliant() -> GdprResult<Self> {
        let store = KvStore::open(KvConfig::gdpr_compliant_in_memory())
            .map_err(|e| GdprError::Store(e.to_string()))?;
        Ok(Self::new(store))
    }

    /// The underlying store (for experiment harnesses).
    pub fn store(&self) -> &Arc<KvStore> {
        self.engine().store().kv()
    }
}
