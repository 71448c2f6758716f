//! The disk-native connector: the compliance engine over
//! [`pagestore::PageStore`] — slotted 4 KiB pages, buffer pool, B+tree,
//! and a checksummed WAL, so the dataset no longer has to fit in RAM.
//!
//! Semantics deliberately mirror the Redis-shaped connector byte for byte
//! (lazy reap-on-access, inclusive deadline boundary, DBSIZE counting
//! unreaped expired keys): the store-equivalence proptest in
//! `tests/proptests.rs` holds the two backends to identical responses
//! over random op mixes. `persistence_generation` is the WAL's logical
//! commit sequence, so the PR-5 index-snapshot layer works unchanged.
//!
//! Variants, mirroring the kvstore pair:
//!
//! * [`DiskConnector::new`] — scan-based predicate resolution.
//! * [`DiskConnector::with_metadata_index`] — the headline `disk` variant.
//! * [`ShardedDiskConnector`] — N stores (each its own directory) behind
//!   the hash-partitioned router (`disk-sharded`).

use crate::Connector;
use gdpr_core::compliance::{FeatureReport, FeatureSupport};
use gdpr_core::connector::SpaceReport;
use gdpr_core::error::{GdprError, GdprResult};
use gdpr_core::record::PersonalRecord;
use gdpr_core::sharded::ShardedEngine;
use gdpr_core::store::{Applied, ExpiryListener, RecordStore, WriteOp};
use gdpr_core::wire::{self, RecordView};
use gdpr_core::ComplianceEngine;
use pagestore::{BatchOp, Deadline, PageStore, PageStoreConfig};
use std::sync::Arc;

/// [`RecordStore`] over one paged store. Records travel in the same wire
/// text format as every other backend; the page store seals the bytes at
/// rest and tracks the TTL deadline natively per leaf entry.
pub struct DiskStore {
    store: Arc<PageStore>,
    variant_name: &'static str,
}

impl DiskStore {
    pub fn over(store: Arc<PageStore>, variant_name: &'static str) -> DiskStore {
        DiskStore {
            store,
            variant_name,
        }
    }

    pub fn page_store(&self) -> &Arc<PageStore> {
        &self.store
    }

    fn store_err(e: pagestore::Error) -> GdprError {
        GdprError::Store(e.to_string())
    }

    fn deadline_from_ttl(&self, record: &PersonalRecord) -> Option<u64> {
        record
            .metadata
            .ttl
            .map(|ttl| self.store.clock().now().as_millis() + ttl.as_millis() as u64)
    }

    /// A rewrite's deadline: re-armed from the declared TTL when that
    /// changed, else the replaced entry's absolute deadline carried over
    /// exactly (millisecond-preserving, like the kvstore's SET + EXPIREAT
    /// pair) — read off the entry during the write's own descent.
    fn rewrite_deadline(&self, record: &PersonalRecord, ttl_changed: bool) -> Deadline {
        if ttl_changed {
            Deadline::At(self.deadline_from_ttl(record))
        } else {
            Deadline::Keep
        }
    }
}

impl RecordStore for DiskStore {
    fn clock(&self) -> clock::SharedClock {
        self.store.clock()
    }

    fn fetch(&self, key: &str) -> GdprResult<Option<PersonalRecord>> {
        let value = self.store.get(key).map_err(Self::store_err)?;
        value
            .map(|bytes| Ok(RecordView::from_bytes(&bytes)?.to_record()))
            .transpose()
    }

    /// One [`PageStore::get_many`]: one hold of the store mutex and one
    /// descent per touched leaf for the whole candidate list.
    fn fetch_many(
        &self,
        keys: &[Arc<str>],
        visit: &mut dyn FnMut(RecordView<'_>),
    ) -> GdprResult<()> {
        let values = self.store.get_many(keys).map_err(Self::store_err)?;
        for bytes in values.iter().flatten() {
            visit(RecordView::from_bytes(bytes)?);
        }
        Ok(())
    }

    /// Insert, arming the native per-entry deadline from the declared TTL.
    /// The page store's collision probe lazily reaps an expired occupant,
    /// exactly like the kvstore EXISTS probe.
    fn put(&self, record: &PersonalRecord) -> GdprResult<()> {
        let value = wire::serialize(record);
        let deadline = self.deadline_from_ttl(record);
        let inserted = self
            .store
            .insert(&record.key, value.as_bytes(), deadline)
            .map_err(Self::store_err)?;
        if !inserted {
            return Err(GdprError::AlreadyExists(record.key.clone()));
        }
        Ok(())
    }

    fn rewrite(&self, record: &PersonalRecord, ttl_changed: bool) -> GdprResult<()> {
        let value = wire::serialize(record);
        let deadline = self.rewrite_deadline(record, ttl_changed);
        self.store
            .upsert(&record.key, value.as_bytes(), deadline)
            .map_err(Self::store_err)
    }

    fn delete(&self, key: &str) -> GdprResult<bool> {
        self.store.remove(key).map_err(Self::store_err)
    }

    /// One page-store transaction: the group write is all-or-none on
    /// disk, so the committed prefix is the whole batch or nothing.
    fn apply(&self, ops: &[WriteOp]) -> Applied {
        let values: Vec<String> = ops
            .iter()
            .map(|op| match op {
                WriteOp::Delete(_) => String::new(),
                WriteOp::Rewrite { record, .. } => wire::serialize(record),
            })
            .collect();
        let batch: Vec<BatchOp<'_>> = ops
            .iter()
            .zip(&values)
            .map(|(op, value)| match op {
                WriteOp::Delete(key) => BatchOp::Remove(key),
                WriteOp::Rewrite {
                    record,
                    ttl_changed,
                } => BatchOp::Upsert {
                    key: &record.key,
                    value: value.as_bytes(),
                    deadline: self.rewrite_deadline(record, *ttl_changed),
                },
            })
            .collect();
        match self.store.apply(&batch) {
            Ok(counted) => Applied {
                committed: ops.len(),
                counted,
                result: Ok(()),
            },
            Err(e) => Applied {
                committed: 0,
                counted: 0,
                result: Err(Self::store_err(e)),
            },
        }
    }

    /// Insert under a known absolute deadline — the shard-rebalance path;
    /// a migrated record keeps its exact remaining lifetime.
    fn put_with_deadline(
        &self,
        record: &PersonalRecord,
        deadline_ms: Option<u64>,
    ) -> GdprResult<()> {
        let value = wire::serialize(record);
        let inserted = self
            .store
            .insert(&record.key, value.as_bytes(), deadline_ms)
            .map_err(Self::store_err)?;
        if !inserted {
            return Err(GdprError::AlreadyExists(record.key.clone()));
        }
        Ok(())
    }

    /// Ordered leaf-chain walk. Like the kvstore scan, expired records the
    /// walk encounters are reaped (listener notified), not returned, and a
    /// record that cannot be read fails the scan.
    fn scan(&self) -> GdprResult<Vec<PersonalRecord>> {
        let pairs = self.store.scan().map_err(Self::store_err)?;
        pairs
            .iter()
            .map(|(_, bytes)| Ok(RecordView::from_bytes(bytes)?.to_record()))
            .collect()
    }

    fn purge_expired(&self) -> GdprResult<usize> {
        self.store.purge_expired().map_err(Self::store_err)
    }

    /// Past-due keys without reaping — a pure leaf-chain walk over the
    /// native deadlines.
    fn expired_keys(&self) -> GdprResult<Vec<String>> {
        self.store.expired_keys().map_err(Self::store_err)
    }

    fn deadline_ms(&self, key: &str) -> Option<u64> {
        self.store.deadline_ms(key).ok().flatten()
    }

    /// The WAL's logical commit sequence: advanced once by every committed
    /// transaction — a point write, a whole [`Self::apply`] batch, a lazy
    /// reap — and reproduced exactly by WAL recovery.
    fn persistence_generation(&self) -> Option<u64> {
        Some(self.store.generation())
    }

    /// Graceful-shutdown flush: checkpoint (WAL images into the data
    /// file).
    fn flush(&self) -> GdprResult<()> {
        self.store.checkpoint().map_err(Self::store_err)
    }

    fn on_expiry(&self, listener: ExpiryListener) {
        self.store
            .set_expiry_listener(Arc::new(move |key: &str| listener(key)));
    }

    fn space_report(&self) -> SpaceReport {
        let personal: usize = self
            .scan()
            .map(|records| records.iter().map(PersonalRecord::data_bytes).sum())
            .unwrap_or(0);
        SpaceReport {
            personal_data_bytes: personal,
            total_bytes: self.store.disk_bytes() as usize,
        }
    }

    fn record_count(&self) -> usize {
        self.store.record_count()
    }

    fn features(&self) -> FeatureReport {
        FeatureReport {
            // Native per-entry deadlines exist but reaping is lazy, like
            // stock Redis.
            timely_deletion: FeatureSupport::Unsupported,
            monitoring_and_logging: FeatureSupport::Unsupported,
            metadata_indexing: FeatureSupport::Retrofitted,
            // Values are sealed at rest (ChaCha20 + tag) by default, but
            // transit encryption is the transport layer's business, so
            // at-rest-only reports Unsupported parity with the kvstore
            // default config — the conformance battery compares variants.
            encryption: FeatureSupport::Unsupported,
            access_control: FeatureSupport::Retrofitted,
        }
    }

    fn name(&self) -> &str {
        self.variant_name
    }
}

/// GDPR connector over one [`PageStore`].
pub type DiskConnector = Connector<ComplianceEngine<DiskStore>>;

impl DiskConnector {
    /// Wrap an open page store, scan-based.
    pub fn new(store: Arc<PageStore>) -> Self {
        Connector::over(ComplianceEngine::new(DiskStore::over(store, "disk-scan")))
    }

    /// Wrap an open page store with the engine-maintained metadata index —
    /// the headline `disk` variant.
    pub fn with_metadata_index(store: Arc<PageStore>) -> GdprResult<Self> {
        let engine = ComplianceEngine::with_metadata_index(DiskStore::over(store, "disk"))?;
        Ok(Connector::over(engine))
    }

    /// As [`Self::with_metadata_index`], with index-snapshot recovery and
    /// persistence at `path` — trusted when the image's generation stamp
    /// matches the store's WAL commit sequence.
    pub fn with_metadata_index_snapshot(
        store: Arc<PageStore>,
        path: impl Into<std::path::PathBuf>,
    ) -> GdprResult<Self> {
        let backend = DiskStore::over(store, "disk");
        let engine = ComplianceEngine::with_metadata_index_snapshot(backend, path)?;
        Ok(Connector::over(engine))
    }

    /// The underlying page store (for experiment harnesses and the
    /// eviction/fault suites).
    pub fn store(&self) -> &Arc<PageStore> {
        self.engine().store().page_store()
    }
}

/// GDPR connector hash-partitioning records across N page stores, each in
/// its own directory with its own WAL, buffer pool, and per-shard index.
pub type ShardedDiskConnector = Connector<ShardedEngine<DiskStore>>;

fn backends(stores: Vec<Arc<PageStore>>, variant_name: &'static str) -> Vec<DiskStore> {
    stores
        .into_iter()
        .map(|s| DiskStore::over(s, variant_name))
        .collect()
}

impl ShardedDiskConnector {
    /// Wrap open stores, one per shard, scan-based.
    pub fn new(stores: Vec<Arc<PageStore>>) -> GdprResult<Self> {
        Ok(Connector::over(
            ShardedEngine::new(backends(stores, "disk-scan"))?.named("disk-sharded-scan"),
        ))
    }

    /// Per-shard engine-maintained metadata indexes — the `disk-sharded`
    /// variant.
    pub fn with_metadata_index(stores: Vec<Arc<PageStore>>) -> GdprResult<Self> {
        Ok(Connector::over(
            ShardedEngine::with_metadata_index(backends(stores, "disk"))?.named("disk-sharded"),
        ))
    }

    /// Snapshot-aware sharded open: shard *i* recovers its index from
    /// `dir/metaindex-shard-i.snap` when the image matches the shard's
    /// WAL generation and topology.
    pub fn with_metadata_index_snapshots(
        stores: Vec<Arc<PageStore>>,
        dir: impl AsRef<std::path::Path>,
    ) -> GdprResult<Self> {
        Ok(Connector::over(
            ShardedEngine::with_metadata_index_snapshots(backends(stores, "disk"), dir)?
                .named("disk-sharded"),
        ))
    }

    /// The underlying page store of one shard.
    pub fn store(&self, shard: usize) -> &Arc<PageStore> {
        self.shards()[shard].store().page_store()
    }
}

/// `n` page stores under `dir/shard-i/`, sharing one clock instance (the
/// sharded engine requires comparable timestamps fleet-wide).
pub fn open_store_fleet(
    dir: impl AsRef<std::path::Path>,
    n: usize,
    config: PageStoreConfig,
    clock: clock::SharedClock,
) -> GdprResult<Vec<Arc<PageStore>>> {
    (0..n.max(1))
        .map(|i| {
            PageStore::open(
                dir.as_ref().join(format!("shard-{i}")),
                config.clone(),
                clock.clone(),
            )
            .map_err(|e| GdprError::Store(e.to_string()))
        })
        .collect()
}
