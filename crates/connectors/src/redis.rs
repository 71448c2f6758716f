//! The Redis-shaped GDPR backend (§5.1 of the paper).
//!
//! Layout: one string key `rec:<key>` per record, holding the §4.2.1 wire
//! form, with a native deadline when the record carries a TTL. Every
//! record write is one `SET` that carries its own condition and deadline
//! (`NX`, `PX`, `PXAT`, `KEEPTTL`), so the store decides both atomically
//! and logs the write as one AOF frame. The store itself has no secondary
//! structures, so the backend resolves every metadata predicate by walking
//! the whole `rec:*` keyspace and parsing each record — precisely how the
//! paper's Redis behaves and why its GDPR workloads run orders of magnitude
//! slower than YCSB (Figures 5a, 7b).
//!
//! With the index attached, a narrow predicate resolves to candidate keys
//! and the engine reads them through [`RecordStore::fetch_many`]: one
//! [`KvStore::read_each`], which looks the storage keys up under the
//! store's shared lock, 512 per hold, and lends each stored value to the
//! engine as a [`RecordView`] of the text in place — the predicate is
//! re-verified and the response built without copying a value or
//! materialising a record. A broad one (at least half the records are
//! candidates) is one [`RecordStore::scan_each`]: a
//! [`KvStore::read_prefix`] walk over the keyspace's slots, 512 per hold,
//! lending every `rec:*` value the same way and naming no key. The
//! whole-store reads take the same walk: [`RecordStore::scan`] builds a
//! record from each view, and [`RecordStore::space_report`] sums each
//! view's data length. [`RecordStore::expired_keys`] reads the store's
//! expire-set ([`KvStore::due_keys`]), not the records. A point read is
//! the one-key case ([`KvStore::read_key`]), lent to
//! [`RecordStore::fetch_view`] or parsed in place by [`RecordStore::fetch`].
//! Stores whose reads are logged or sealed read the same way.
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
use gdpr_core::compliance::{FeatureReport, FeatureSupport};
use gdpr_core::connector::SpaceReport;
use gdpr_core::engine::ComplianceEngine;
use gdpr_core::error::{GdprError, GdprResult};
use gdpr_core::record::PersonalRecord;
use gdpr_core::store::{ExpiryListener, RecordStore};
use gdpr_core::wire::{self, RecordView};
use kvstore::expire::ExpirationMode;
use kvstore::{Command, KvStore, Reply, SetDeadline};
use std::sync::Arc;

const KEY_PREFIX: &str = "rec:";

/// [`RecordStore`] over [`kvstore::KvStore`]: wire-format strings under
/// `rec:<key>`, TTL as the `SET`'s own deadline, the full-keyspace walk as
/// the only native predicate path.
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

    fn storage_key(key: &str) -> Vec<u8> {
        [KEY_PREFIX.as_bytes(), key.as_bytes()].concat()
    }

    /// `rec:<key>`, appended to `buf`.
    fn push_storage_key(key: &str, buf: &mut Vec<u8>) {
        buf.extend_from_slice(KEY_PREFIX.as_bytes());
        buf.extend_from_slice(key.as_bytes());
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

    /// Every record write: one `SET` of the record's wire form under its
    /// storage key. A nil reply is an `NX` that found a live occupant.
    fn set(
        &self,
        record: &PersonalRecord,
        only_if_absent: bool,
        deadline: SetDeadline,
    ) -> GdprResult<()> {
        let set = Command::Set {
            key: Self::storage_key(&record.key).into(),
            value: wire::serialize(record).into(),
            only_if_absent,
            deadline,
        };
        match self.store.execute(set).map_err(Self::store_err)? {
            Reply::Nil => Err(GdprError::AlreadyExists(record.key.clone())),
            _ => Ok(()),
        }
    }

    /// The deadline a record's declared TTL asks for.
    fn ttl_deadline(record: &PersonalRecord) -> SetDeadline {
        record
            .metadata
            .ttl
            .map_or(SetDeadline::Clear, SetDeadline::In)
    }

    /// One [`KvStore::read_prefix`] walk over the `rec:*` keys: `visit`
    /// sees each stored text in place, under the store's shared lock. A
    /// record that cannot be read fails the walk.
    fn walk(&self, mut visit: impl FnMut(RecordView<'_>)) -> GdprResult<()> {
        let walked = self.store.read_prefix(KEY_PREFIX.as_bytes(), |_, value| {
            visit(RecordView::from_bytes(value)?);
            Ok::<_, GdprError>(())
        });
        walked.map_err(Self::store_err)?
    }
}

impl RecordStore for RedisStore {
    fn clock(&self) -> clock::SharedClock {
        self.store.clock().clone()
    }

    /// The record parsed inside [`Self::fetch_view`]: the stored value is
    /// read in place, never copied out of the store.
    fn fetch(&self, key: &str) -> GdprResult<Option<PersonalRecord>> {
        let mut found = None;
        self.fetch_view(key, &mut |record| found = Some(record.to_record()))?;
        Ok(found)
    }

    /// One [`KvStore::read_key`]: `visit` sees the stored text in place,
    /// under the store's shared lock.
    fn fetch_view(&self, key: &str, visit: &mut dyn FnMut(RecordView<'_>)) -> GdprResult<bool> {
        let mut found = false;
        self.store
            .read_key(&Self::storage_key(key), |value| {
                visit(RecordView::from_bytes(value)?);
                found = true;
                Ok::<_, GdprError>(())
            })
            .map_err(Self::store_err)??;
        Ok(found)
    }

    /// One walk over the `rec:*` keys ([`Self::walk`]).
    fn scan_each(&self, visit: &mut dyn FnMut(RecordView<'_>)) -> Option<GdprResult<()>> {
        Some(self.walk(visit))
    }

    /// One [`KvStore::read_each`]: `visit` sees each stored text in place,
    /// under the store's shared lock.
    fn fetch_many(
        &self,
        keys: &[Arc<str>],
        visit: &mut dyn FnMut(RecordView<'_>),
    ) -> GdprResult<()> {
        self.store
            .read_each(
                keys,
                |key, buf| Self::push_storage_key(key, buf),
                |value| {
                    visit(RecordView::from_bytes(value)?);
                    Ok::<_, GdprError>(())
                },
            )
            .map_err(Self::store_err)?
    }

    /// One `SET NX [PX ttl]`: the store refuses a live occupant (a past-due
    /// one is reaped and replaced) and arms the TTL in the same command.
    fn put(&self, record: &PersonalRecord) -> GdprResult<()> {
        self.set(record, true, Self::ttl_deadline(record))
    }

    /// One `SET KEEPTTL`, which keeps the record's exact deadline in place
    /// — or, when the update changed the TTL, one `SET [PX ttl]`.
    fn rewrite(&self, record: &PersonalRecord, ttl_changed: bool) -> GdprResult<()> {
        let deadline = if ttl_changed {
            Self::ttl_deadline(record)
        } else {
            SetDeadline::Keep
        };
        self.set(record, false, deadline)
    }

    fn delete(&self, key: &str) -> GdprResult<bool> {
        self.store
            .del(Self::storage_key(key).as_ref())
            .map_err(Self::store_err)
    }

    /// One `SET NX [PXAT at]` — the shard-rebalance path: a migrated
    /// record keeps its exact remaining lifetime instead of being re-armed
    /// with the full declared TTL.
    fn put_with_deadline(
        &self,
        record: &PersonalRecord,
        deadline_ms: Option<u64>,
    ) -> GdprResult<()> {
        let deadline = deadline_ms.map_or(SetDeadline::Clear, SetDeadline::At);
        self.set(record, true, deadline)
    }

    /// Full keyspace walk ([`Self::walk`]), one record built from each
    /// view — the O(n) path every metadata query takes without an engine
    /// index. A record that cannot be read fails the scan: skipping it
    /// would hide personal data from erase-by-user, the index backfill and
    /// the space report while `record_count` still counted it. A past-due
    /// record is skipped, not reaped; a logged store records one `MGET` per
    /// chunk, naming the keys that chunk returned.
    fn scan(&self) -> GdprResult<Vec<PersonalRecord>> {
        let mut records = Vec::new();
        self.walk(|record| records.push(record.to_record()))?;
        Ok(records)
    }

    fn purge_expired(&self) -> GdprResult<usize> {
        // Timely deletion is the store's job (EXPIRE); purging now means
        // running an active-expiration cycle synchronously.
        Ok(self.store.run_expiration_cycle().reaped)
    }

    /// Past-due keys *without* reaping. The default scan-derived
    /// enumeration is wrong here: the walk skips a past-due record, so the
    /// due `rec:*` keys are listed from the store's expire-set instead
    /// ([`KvStore::due_keys`], at the metadata index's millisecond
    /// boundary). The listing reads deadlines, not records, and logs
    /// nothing.
    fn expired_keys(&self) -> GdprResult<Vec<String>> {
        let due = self.store.due_keys(KEY_PREFIX.as_bytes());
        Ok(due
            .iter()
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

    /// One walk summing each record's data length, no record built. A walk
    /// that an unreadable record fails reports no personal data.
    fn space_report(&self) -> SpaceReport {
        let mut personal = 0;
        let walked = self.walk(|record| personal += record.data.len());
        let personal = walked.map_or(0, |()| personal);
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
            // access is retrofitted client-side — as walk+filter in the
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

    /// The underlying store (for experiment harnesses).
    pub fn store(&self) -> &Arc<KvStore> {
        self.engine().store().kv()
    }
}

/// How the engine reads a `redis-mi` / `redis-sharded` store: a broad
/// predicate walks it, a narrow one names its candidates, and both agree
/// with the unindexed engine's scan.
#[cfg(test)]
mod tests {
    use super::*;
    use gdpr_core::query::{GdprQuery, MetadataField, MetadataUpdate};
    use gdpr_core::record::Metadata;
    use gdpr_core::response::GdprResponse;
    use gdpr_core::role::Session;
    use gdpr_core::sharded::{shard_count_from_env, ShardedEngine};
    use gdpr_core::tenant::TenantId;
    use gdpr_core::GdprConnector;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// Calls of the two predicate-read paths, over every shard.
    #[derive(Default)]
    struct Calls {
        walks: AtomicUsize,
        batches: AtomicUsize,
    }

    impl Calls {
        /// `(walks, batches)` since the last call.
        fn take(&self) -> (usize, usize) {
            let taken = |n: &AtomicUsize| n.swap(0, Ordering::Relaxed);
            (taken(&self.walks), taken(&self.batches))
        }
    }

    /// A [`RedisStore`] that counts its `scan_each` and `fetch_many` calls
    /// and forwards what these tests reach.
    struct Counted {
        inner: RedisStore,
        calls: Arc<Calls>,
    }

    impl RecordStore for Counted {
        fn clock(&self) -> clock::SharedClock {
            self.inner.clock()
        }
        fn fetch(&self, key: &str) -> GdprResult<Option<PersonalRecord>> {
            self.inner.fetch(key)
        }
        fn fetch_many(
            &self,
            keys: &[Arc<str>],
            visit: &mut dyn FnMut(RecordView<'_>),
        ) -> GdprResult<()> {
            self.calls.batches.fetch_add(1, Ordering::Relaxed);
            self.inner.fetch_many(keys, visit)
        }
        fn scan_each(&self, visit: &mut dyn FnMut(RecordView<'_>)) -> Option<GdprResult<()>> {
            self.calls.walks.fetch_add(1, Ordering::Relaxed);
            self.inner.scan_each(visit)
        }
        fn put(&self, record: &PersonalRecord) -> GdprResult<()> {
            self.inner.put(record)
        }
        fn rewrite(&self, record: &PersonalRecord, ttl_changed: bool) -> GdprResult<()> {
            self.inner.rewrite(record, ttl_changed)
        }
        fn delete(&self, key: &str) -> GdprResult<bool> {
            self.inner.delete(key)
        }
        fn scan(&self) -> GdprResult<Vec<PersonalRecord>> {
            self.inner.scan()
        }
        fn purge_expired(&self) -> GdprResult<usize> {
            self.inner.purge_expired()
        }
        fn on_expiry(&self, listener: ExpiryListener) {
            self.inner.on_expiry(listener)
        }
        fn space_report(&self) -> SpaceReport {
            self.inner.space_report()
        }
        fn record_count(&self) -> usize {
            self.inner.record_count()
        }
        fn features(&self) -> FeatureReport {
            self.inner.features()
        }
        fn name(&self) -> &str {
            self.inner.name()
        }
    }

    /// `n` counted stores opened with `config` on one clock, sharing
    /// `calls`.
    fn counted(n: usize, config: &kvstore::KvConfig, calls: &Arc<Calls>) -> Vec<Counted> {
        let clock = clock::wall();
        (0..n)
            .map(|_| Counted {
                inner: RedisStore::over(
                    KvStore::open_with_clock(config.clone(), clock.clone()).unwrap(),
                    "redis-mi",
                ),
                calls: Arc::clone(calls),
            })
            .collect()
    }

    /// The engines under test — `redis-mi` and `redis-sharded` at the
    /// `GDPR_SHARDS` count, over stock stores and over compliant ones
    /// (reads logged and sealed) — each with its call counters.
    fn engines() -> Vec<(String, Box<dyn GdprConnector>, Arc<Calls>)> {
        let shards = shard_count_from_env();
        use crate::registry::{kv_config, Posture};
        let postures = [
            ("stock", kv_config(Posture::STOCK)),
            ("compliant", kv_config(Posture::COMPLIANT)),
        ];
        let mut engines: Vec<(String, Box<dyn GdprConnector>, Arc<Calls>)> = Vec::new();
        for (posture, config) in postures {
            let single = Arc::new(Calls::default());
            let unsharded = counted(1, &config, &single).pop().unwrap();
            let unsharded = ComplianceEngine::with_metadata_index(unsharded).unwrap();
            let fleet = Arc::new(Calls::default());
            let sharded = ShardedEngine::with_metadata_index(counted(shards, &config, &fleet));
            engines.push((format!("{posture} redis-mi"), Box::new(unsharded), single));
            let name = format!("{posture} redis-sharded x{shards}");
            engines.push((name, Box::new(sharded.unwrap()), fleet));
        }
        engines
    }

    /// The reference: an unindexed engine, which answers every predicate
    /// by a full scan.
    fn scan_oracle() -> ComplianceEngine<RedisStore> {
        let store = KvStore::open(kvstore::KvConfig::default()).unwrap();
        ComplianceEngine::new(RedisStore::over(store, "redis"))
    }

    /// Record `i` of the corpus: every record declares `core`, one in ten
    /// also `ads`; one in seven objects to `ads`, one in nine opts out of
    /// automated decisions, one in eleven is shared with `x-corp`.
    fn record(i: usize) -> PersonalRecord {
        let mut purposes = vec!["core".to_string()];
        if i.is_multiple_of(10) {
            purposes.push("ads".into());
        }
        let mut metadata =
            Metadata::new(format!("u{}", i % 20), purposes, Duration::from_secs(3600));
        if i.is_multiple_of(7) {
            metadata.objections.push("ads".into());
        }
        if i.is_multiple_of(9) {
            metadata.decisions.push(Metadata::DEC_OPT_OUT.into());
        }
        if i.is_multiple_of(11) {
            metadata.sharing.push("x-corp".into());
        }
        PersonalRecord::new(format!("k{i:03}"), format!("d{i}"), metadata)
    }

    /// The answer with its pairs sorted: the paths read in different
    /// orders.
    fn sorted(response: GdprResponse) -> GdprResponse {
        match response {
            GdprResponse::Data(mut pairs) => {
                pairs.sort();
                GdprResponse::Data(pairs)
            }
            GdprResponse::Metadata(mut rows) => {
                rows.sort();
                GdprResponse::Metadata(rows)
            }
            other => other,
        }
    }

    fn load(conn: &dyn GdprConnector, session: &Session, records: impl Iterator<Item = usize>) {
        for i in records {
            let create = GdprQuery::CreateRecord(record(i));
            conn.execute(session, &create).unwrap();
        }
    }

    /// Broad predicates (at least half the records are candidates) walk
    /// the store, narrow ones name their candidates — reads, erasures and
    /// consent updates alike — one with no candidate makes no store call,
    /// and every answer, and the store left behind, is the scan oracle's.
    #[test]
    fn walked_and_indexed_predicates_agree_with_the_scan_oracle() {
        let controller = Session::controller();
        let processor = Session::processor("core");
        let ads = Session::processor("ads");
        let regulator = Session::regulator();
        let share = |party: &str| MetadataUpdate::Add(MetadataField::Sharing, party.into());
        // (session, query, read): the broad ones walk; `None`, no read.
        let (walk, named) = (Some(true), Some(false));
        let steps: Vec<(&Session, GdprQuery, Option<bool>)> = vec![
            (
                &processor,
                GdprQuery::ReadDataByPurpose("core".into()),
                walk,
            ),
            (
                &processor,
                GdprQuery::ReadDataNotObjecting("ads".into()),
                walk,
            ),
            (&processor, GdprQuery::ReadDataDecisionEligible, walk),
            (&ads, GdprQuery::ReadDataByPurpose("ads".into()), named),
            (
                &regulator,
                GdprQuery::ReadMetadataByUser("u3".into()),
                named,
            ),
            (
                &regulator,
                GdprQuery::ReadMetadataBySharedWith("x-corp".into()),
                named,
            ),
            (
                &controller,
                GdprQuery::UpdateMetadataByPurpose {
                    purpose: "core".into(),
                    update: share("y-corp"),
                },
                walk,
            ),
            (
                &regulator,
                GdprQuery::ReadMetadataBySharedWith("y-corp".into()),
                walk,
            ),
            (
                &controller,
                GdprQuery::UpdateMetadataByUser {
                    user: "u4".into(),
                    update: share("z-corp"),
                },
                named,
            ),
            (&controller, GdprQuery::DeleteByPurpose("ads".into()), named),
            (&controller, GdprQuery::DeleteByUser("u5".into()), named),
            (
                &processor,
                GdprQuery::ReadDataByPurpose("core".into()),
                walk,
            ),
            (&controller, GdprQuery::DeleteByPurpose("core".into()), walk),
            // Nothing is left: no candidate, no store call.
            (
                &processor,
                GdprQuery::ReadDataByPurpose("core".into()),
                None,
            ),
        ];
        for (name, conn, calls) in engines() {
            let oracle = scan_oracle();
            load(conn.as_ref(), &controller, 0..200);
            load(&oracle, &controller, 0..200);
            calls.take();
            for (step, (session, query, read)) in steps.iter().enumerate() {
                let got = conn.execute(session, query).map(sorted);
                let want = oracle.execute(session, query).map(sorted);
                assert_eq!(got, want, "{name} step {step}: {query:?}");
                let (walked, batched) = calls.take();
                let walks = *read == Some(true);
                let names = *read == Some(false);
                assert_eq!(walked > 0, walks, "{name} step {step}: {query:?} walked");
                assert_eq!(batched > 0, names, "{name} step {step}: {query:?} named");
            }
            assert_eq!(conn.record_count(), oracle.record_count(), "{name}");
            assert_eq!(conn.record_count(), 0, "{name}: the last erasure was total");
        }
    }

    fn for_tenant(session: Session, tenant: &str) -> Session {
        session.with_tenant(TenantId::new(tenant).unwrap())
    }

    /// A named tenant with a handful of records in a large store: a read
    /// that matches all of them still names them — the walk would read
    /// the whole store for five records.
    #[test]
    fn a_small_tenant_in_a_large_store_takes_the_index_path() {
        for (name, conn, calls) in engines() {
            load(conn.as_ref(), &Session::controller(), 0..200);
            let acme = for_tenant(Session::controller(), "acme");
            load(conn.as_ref(), &acme, 0..5);
            calls.take();
            let read = GdprQuery::ReadDataNotObjecting("ads".into());
            let got = conn.execute(&for_tenant(Session::processor("core"), "acme"), &read);
            let mut keys: Vec<String> = (got.unwrap().as_data().unwrap().iter())
                .map(|(key, _)| key.to_string())
                .collect();
            keys.sort();
            assert_eq!(
                keys,
                ["k001", "k002", "k003", "k004"],
                "{name}: k000 objects"
            );
            let (walked, batched) = calls.take();
            assert_eq!(walked, 0, "{name}");
            assert!(batched > 0, "{name}");
        }
    }

    /// A tenant holding most of the store walks it, and the walk shows it
    /// every tenant's records: none but its own may come back.
    #[test]
    fn a_walk_never_returns_another_tenants_key() {
        for (name, conn, calls) in engines() {
            load(conn.as_ref(), &Session::controller(), 0..20);
            load(
                conn.as_ref(),
                &for_tenant(Session::controller(), "zeta"),
                0..20,
            );
            let acme = for_tenant(Session::controller(), "acme");
            load(conn.as_ref(), &acme, 0..200);
            calls.take();
            let read = GdprQuery::ReadDataByPurpose("core".into());
            let got = conn.execute(&for_tenant(Session::processor("core"), "acme"), &read);
            let mut got: Vec<(String, String)> = got.unwrap().as_data().unwrap().to_vec();
            got.sort();
            let want: Vec<(String, String)> =
                (0..200).map(record).map(|r| (r.key, r.data)).collect();
            assert_eq!(got, want, "{name}");
            assert!(calls.take().0 > 0, "{name}: acme's read walked");
            // An erasure by walk stays inside the tenant too.
            let erase = GdprQuery::DeleteByPurpose("core".into());
            assert_eq!(
                conn.execute(&acme, &erase).unwrap(),
                GdprResponse::Deleted(200)
            );
            assert!(calls.take().0 > 0, "{name}: acme's erasure walked");
            assert_eq!(conn.record_count(), 40, "{name}");
        }
    }
}
