//! The sharded compliance engine: a hash-partition router over N inner
//! [`ComplianceEngine`]s, lifting the single-engine choke point toward the
//! millions-of-users traffic the roadmap targets.
//!
//! Every query in the §3.3 taxonomy is either *key-scoped* or
//! *metadata-predicate-scoped*, and that dichotomy is the whole routing
//! story:
//!
//! * **Point ops** (`CREATE-RECORD`, `*-BY-KEY`, `verify-deletion`) hash
//!   the key with [`shard_of`] and run on the owning shard only — the hot
//!   path pays one stable hash and then touches one shard's locks, so
//!   disjoint keys proceed in parallel instead of serializing through one
//!   global engine lock.
//! * **Predicate ops** (`*-BY-USR/PUR/OBJ/DEC/SHR`, `DELETE-RECORD-BY-TTL`)
//!   fan out to every shard and merge: counts sum, result sets concatenate
//!   and sort by key, so the response is deterministic whatever the shard
//!   topology. The fan-out runs on the calling thread, one shard after
//!   another in index order, for reads and writes alike: the by-user reads
//!   that dominate the regulator and customer mixes touch ≈ 3 records, far
//!   less work than a hand-off per shard costs, and requests already run
//!   in parallel on their callers' threads. This is what makes shard count
//!   an *invisible* deployment knob: `ShardedEngine{N=1,2,8}` and the
//!   unsharded engine answer every query identically (pinned by
//!   `tests/proptests.rs`).
//!
//! Compliance semantics stay centralized: each shard *is* a full
//! [`ComplianceEngine`] (authorization, visibility, per-shard
//! [`crate::MetadataIndex`], TTL scrubbing), while the router keeps the one
//! unified [`AuditTrail`] — shards execute through the engine's internal
//! dispatch, so a fanned-out query still audits as a single G30 event and
//! `GET-SYSTEM-LOGS` reads one stream in execution order.
//!
//! Reopening persisted shards is guarded: the key→shard map depends only on
//! [`shard_of`], so a restart with a different shard count leaves records
//! in shards that no longer own them. [`ShardedEngine::verify_placement`]
//! turns that into a loud [`GdprError::ShardMisroute`] instead of silent
//! lookup misses, and [`ShardedEngine::rebalance`] migrates records to
//! their owners (preserving remaining TTL deadlines via
//! [`RecordStore::put_with_deadline`]).

use crate::audit::AuditTrail;
use crate::compliance::FeatureReport;
use crate::connector::SpaceReport;
use crate::engine::ComplianceEngine;
use crate::error::{GdprError, GdprResult};
use crate::metaindex::IndexBatch;
use crate::query::{GdprQuery, MetadataUpdate};
use crate::response::GdprResponse;
use crate::role::Session;
use crate::store::{RecordPredicate, RecordStore};
use crate::telemetry::{OpTelemetry, OpTelemetrySnapshot};
use crate::tenant::{TenantId, TenantTable};
use crate::GdprConnector;
use std::sync::Arc;

/// The stable key→shard map: FNV-1a over the key bytes, mod `shard_count`.
/// Deliberately *not* a randomized hasher — the placement must be identical
/// across processes and restarts, or a reopened deployment would look up
/// keys in the wrong shard.
pub fn shard_of(key: &str, shard_count: usize) -> usize {
    debug_assert!(shard_count > 0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shard_count as u64) as usize
}

/// The deployment's shard count from the `GDPR_SHARDS` environment
/// variable (CI runs the suite at 1 and 8 to enforce shard-count
/// invariance), defaulting to 4 and clamped to at least 1.
pub fn shard_count_from_env() -> usize {
    std::env::var("GDPR_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(4)
        .max(1)
}

/// A compliance engine hash-partitioned across N inner engines, one store
/// (and optional metadata index) per shard.
pub struct ShardedEngine<S: RecordStore> {
    shards: Vec<Arc<ComplianceEngine<S>>>,
    /// Per-tenant audit streams and telemetry at the router, the
    /// deployment's entry point: every op (point, fanned-out, or system)
    /// is timed and audited end-to-end here exactly once, under its
    /// session's tenant — one event per query whatever its fan-out. The
    /// table is unindexed (the shards hold the index partitions), and the
    /// shards' own audit and telemetry stay untouched: the router reaches
    /// them via `dispatch`, below their execute entry points.
    tenants: Arc<TenantTable>,
    name: String,
}

impl<S: RecordStore> ShardedEngine<S> {
    /// Shard each store behind a plain engine (predicates resolve by
    /// pushdown or scan within each shard).
    pub fn new(stores: Vec<S>) -> GdprResult<ShardedEngine<S>> {
        Self::build(stores.into_iter().map(ComplianceEngine::new).collect())
    }

    /// Shard each store behind an engine maintaining its own
    /// [`crate::MetadataIndex`]. Each shard's store expiry path is wired to
    /// invalidate *that shard's* index only — a TTL reap on one shard can
    /// never strand or scrub keys in another shard's index.
    pub fn with_metadata_index(stores: Vec<S>) -> GdprResult<ShardedEngine<S>> {
        let engines = stores
            .into_iter()
            .map(ComplianceEngine::with_metadata_index)
            .collect::<GdprResult<Vec<_>>>()?;
        Self::build(engines)
    }

    /// The snapshot-aware sharded open path: as
    /// [`Self::with_metadata_index`], but shard *i* recovers its index
    /// through the image at [`Self::shard_snapshot_path`]`(dir, i)` —
    /// O(index) per shard when the image matches that shard's store
    /// generation *and* was written as shard `i` of exactly this shard
    /// count (the topology is in the snapshot header). Reopening under a
    /// different count therefore rebuilds every shard's index from its
    /// store — the index-side analogue of [`Self::verify_placement`]'s
    /// misroute detection; run [`Self::rebalance`] to fix the store side,
    /// after which the rebuilt indexes are already correct.
    pub fn with_metadata_index_snapshots(
        stores: Vec<S>,
        dir: impl AsRef<std::path::Path>,
    ) -> GdprResult<ShardedEngine<S>> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| GdprError::Store(format!("index snapshot dir {dir:?}: {e}")))?;
        let count = stores.len();
        let engines = stores
            .into_iter()
            .enumerate()
            .map(|(i, store)| {
                ComplianceEngine::with_metadata_index_snapshot_at(
                    store,
                    Self::shard_snapshot_path(dir, i),
                    i as u32,
                    count as u32,
                )
            })
            .collect::<GdprResult<Vec<_>>>()?;
        Self::build(engines)
    }

    /// Where shard `i`'s index image lives under a snapshot directory.
    /// Names carry the shard index only (not the count): a reopen under a
    /// different count finds the same files and rejects them via the
    /// topology header instead of silently rebuilding against an empty
    /// path.
    pub fn shard_snapshot_path(dir: &std::path::Path, shard: usize) -> std::path::PathBuf {
        dir.join(format!("metaindex-shard-{shard}.snap"))
    }

    /// Persist every shard's index image now (stamped with each shard
    /// store's current generation). Returns total entries written.
    pub fn write_index_snapshots(&self) -> GdprResult<usize> {
        let mut total = 0;
        for shard in &self.shards {
            total += shard.write_index_snapshot()?;
        }
        Ok(total)
    }

    /// Graceful close: snapshot every shard's index when the engine was
    /// opened snapshot-aware (no-op otherwise). Idempotent.
    pub fn close(&self) -> GdprResult<usize> {
        let mut total = 0;
        for shard in &self.shards {
            // Qualified: on an `Arc<ComplianceEngine>` plain `.close()`
            // resolves to the blanket `GdprConnector for Arc<T>` impl.
            total += ComplianceEngine::close(shard)?;
        }
        Ok(total)
    }

    fn build(shards: Vec<ComplianceEngine<S>>) -> GdprResult<ShardedEngine<S>> {
        let shards: Vec<Arc<ComplianceEngine<S>>> = shards.into_iter().map(Arc::new).collect();
        let Some(first) = shards.first() else {
            return Err(GdprError::Store(
                "a sharded engine needs at least one shard".to_string(),
            ));
        };
        // All shards must share one clock *instance*: wall clocks anchor
        // their epoch at construction, so timestamps (audit lines, absolute
        // TTL deadlines — which rebalance() carries between shards) from
        // different instances are not comparable. Fail loudly rather than
        // skew retention silently.
        let clock = first.store().clock();
        for shard in &shards[1..] {
            if !Arc::ptr_eq(&clock, &shard.store().clock()) {
                return Err(GdprError::Store(
                    "sharded engine: every shard must share one clock instance \
                     (open the stores with the same SharedClock)"
                        .to_string(),
                ));
            }
        }
        let name = format!("{}-sharded", first.store().name());
        Ok(ShardedEngine {
            tenants: TenantTable::new(clock, false),
            name,
            shards,
        })
    }

    /// Override the connector name (e.g. to distinguish a scan-backed from
    /// an index-backed sharded variant in reports).
    pub fn named(mut self, name: impl Into<String>) -> ShardedEngine<S> {
        self.name = name.into();
        self
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The inner engines, in shard order.
    pub fn shards(&self) -> &[Arc<ComplianceEngine<S>>] {
        &self.shards
    }

    /// The shard index owning a **storage** key (the tenant-namespaced
    /// form a record is stored under).
    pub fn shard_index_of(&self, storage_key: &str) -> usize {
        shard_of(storage_key, self.shards.len())
    }

    /// The engine owning a storage key.
    pub fn shard_for(&self, storage_key: &str) -> &ComplianceEngine<S> {
        &self.shards[self.shard_index_of(storage_key)]
    }

    /// The engine owning `key` as seen by `session`'s tenant: routing
    /// hashes the storage key, the same bytes the owning shard's store
    /// keeps the record under — so placement, `verify_placement`, and
    /// `rebalance` (which hash stored keys) always agree, and a tenant's
    /// keyspace spreads independently of every other tenant's.
    fn shard_for_session(&self, session: &Session, key: &str) -> &ComplianceEngine<S> {
        if session.tenant.is_default() {
            self.shard_for(key)
        } else {
            self.shard_for(&session.tenant.storage_key(key))
        }
    }

    /// The default tenant's unified audit trail serving GET-SYSTEM-LOGS
    /// (the degenerate single-tenant stream).
    pub fn audit(&self) -> &AuditTrail {
        &self.tenants.default_state().audit
    }

    /// The router's default-tenant per-opcode telemetry table.
    pub fn telemetry(&self) -> &Arc<OpTelemetry> {
        &self.tenants.default_state().telemetry
    }

    /// Pre-create `tenant`'s partitions on the router and on every shard
    /// (index partition, audit trail, telemetry) so first use doesn't pay
    /// the lazy-creation backfill.
    pub fn ensure_tenant(&self, tenant: &TenantId) -> GdprResult<()> {
        self.tenants.state(tenant);
        for shard in &self.shards {
            shard.ensure_tenant(tenant)?;
        }
        Ok(())
    }

    /// Execute one GDPR query, recording exactly one event in the
    /// caller's tenant's unified audit trail whatever the outcome or
    /// fan-out (G30).
    pub fn execute(&self, session: &Session, query: &GdprQuery) -> GdprResult<GdprResponse> {
        self.tenants
            .state(&session.tenant)
            .execute(session, query, || self.route(session, query))
    }

    /// Point ops to the owning shard; predicate ops fanned out and merged;
    /// system queries answered by the router itself.
    fn route(&self, session: &Session, query: &GdprQuery) -> GdprResult<GdprResponse> {
        use GdprQuery::*;
        match query {
            CreateRecord(record) => self
                .shard_for_session(session, &record.key)
                .dispatch(session, query),
            DeleteByKey(key)
            | ReadDataByKey(key)
            | ReadMetadataByKey(key)
            | VerifyDeletion(key)
            | UpdateDataByKey { key, .. }
            | UpdateMetadataByKey { key, .. } => self
                .shard_for_session(session, key)
                .dispatch(session, query),

            // The audit stream is the router's (the caller's tenant's
            // slice of it), not any shard's.
            GetSystemLogs { from_ms, to_ms } => {
                crate::acl::authorize(session, query)?;
                Ok(GdprResponse::Logs(
                    self.tenants
                        .state(&session.tenant)
                        .audit
                        .lines_between(*from_ms, *to_ms),
                ))
            }
            // Shards are homogeneous; any one speaks for the posture.
            GetSystemFeatures => self.shards[0].dispatch(session, query),

            DeleteByPurpose(_)
            | DeleteExpired
            | DeleteByUser(_)
            | ReadDataByPurpose(_)
            | ReadDataByUser(_)
            | ReadDataNotObjecting(_)
            | ReadDataDecisionEligible
            | ReadMetadataByUser(_)
            | ReadMetadataBySharedWith(_)
            | UpdateMetadataByPurpose { .. }
            | UpdateMetadataByUser { .. } => self.fan_out(session, query),
        }
    }

    /// Run a predicate query on every shard and merge deterministically.
    ///
    /// The shards are visited on the calling thread in index order and the
    /// walk stops at the first failing shard, whose error is the query's:
    /// the response and the merge order depend on nothing but the shard
    /// states. For a write, a mid-fan-out failure therefore leaves the
    /// shards before the failing one committed and the rest untouched
    /// (each shard's own batch is as atomic as its store's
    /// [`crate::store::RecordStore::apply`]; nothing is atomic across
    /// shards); for a read, the shards after it are not read at all.
    ///
    /// Group metadata updates additionally **pre-validate on every shard
    /// before any shard commits**: the unsharded engine's
    /// validate-all-then-commit means an update invalid for any match
    /// mutates nothing, and that guarantee must not depend on which shard
    /// the offending record hashes to — without the pre-pass, shards
    /// before the failing one would commit while the caller sees `Err`,
    /// breaking shard-count invariance. The pre-pass reads each shard's
    /// matches a second time (index-resolved, so O(matches) per shard) —
    /// the price of the cross-shard guarantee; a single shard skips it,
    /// since shard-local validate-all-then-commit already covers one
    /// engine. The pre-pass validates a *snapshot*: a write racing the
    /// group update (e.g. a point create landing between validation and a
    /// later shard's commit) is re-validated by that shard's own
    /// validate-all-then-commit and can still fail the group after
    /// earlier shards committed — the same snapshot semantics as any
    /// non-transactional engine; the all-or-nothing guarantee is about
    /// the state the update observed, not about writes racing it.
    fn fan_out(&self, session: &Session, query: &GdprQuery) -> GdprResult<GdprResponse> {
        if self.shards.len() > 1 {
            if let Some((pred, update)) = group_update_of(query) {
                // Only data-dependent updates can fail on a later shard
                // after an earlier one committed; for every other update
                // shape, validation failure is uniform across records and
                // shard-local validate-all-then-commit already yields
                // all-or-nothing — skipping the pre-pass avoids reading
                // every match twice on the common group updates. And only
                // pre-validate what the session may actually execute: an
                // authorization failure must surface as AccessDenied from
                // the dispatch below, exactly as the unsharded engine
                // orders its errors (authorize → validate → commit).
                if update.validation_is_data_dependent()
                    && crate::acl::authorize(session, query).is_ok()
                {
                    for shard in &self.shards {
                        shard.validate_update(&session.tenant, &pred, update)?;
                    }
                }
            }
        }
        let mut responses = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            responses.push(shard.dispatch(session, query)?);
        }
        merge_responses(responses)
    }

    /// Check that every stored record lives in the shard [`shard_of`]
    /// assigns it — the guard to run after reopening persisted shards.
    pub fn verify_placement(&self) -> GdprResult<()> {
        let n = self.shards.len();
        for (found_in, shard) in self.shards.iter().enumerate() {
            for record in shard.store().scan()? {
                let owner = shard_of(&record.key, n);
                if owner != found_in {
                    return Err(GdprError::ShardMisroute {
                        key: record.key,
                        found_in,
                        owner,
                        shard_count: n,
                    });
                }
            }
        }
        Ok(())
    }

    /// Migrate every misplaced record to its owning shard, returning how
    /// many moved. Remaining TTL deadlines survive the move (a migration
    /// must not extend retention), per-shard indexes are kept consistent on
    /// both sides, and a collision in the destination shard fails loudly
    /// with both copies intact rather than overwriting either.
    ///
    /// Index maintenance is coalesced into one [`IndexBatch`] per shard,
    /// applied after the store migration (one lock acquisition per shard
    /// instead of two per moved record) — and applied even when a store op
    /// fails mid-migration, so every index tracks exactly the committed
    /// moves. Rebalance is a restart-time admin operation: it is not meant
    /// to run concurrently with predicate traffic (batching widens the
    /// window in which a moved record is queryable by key but not yet in
    /// its new shard's index; stale source entries are filtered on read as
    /// always).
    pub fn rebalance(&self) -> GdprResult<usize> {
        let n = self.shards.len();
        let now_ms = self.shards[0].store().clock().now().as_millis();
        let mut moved = 0;
        let mut batches: Vec<IndexBatch> = (0..n).map(|_| IndexBatch::new()).collect();
        let mut migrate = || -> GdprResult<()> {
            for (i, shard) in self.shards.iter().enumerate() {
                for record in shard.store().scan()? {
                    let owner = shard_of(&record.key, n);
                    if owner == i {
                        continue;
                    }
                    // The source store's remaining deadline is
                    // authoritative; stores that track none fall back to
                    // `now + declared TTL` so a TTL'd record still enters
                    // the destination's expiry set instead of being
                    // retained forever (same contract as index backfill in
                    // `with_metadata_index`).
                    let deadline_ms = shard.store().deadline_ms(&record.key).or_else(|| {
                        record
                            .metadata
                            .ttl
                            .map(|ttl| now_ms + ttl.as_millis() as u64)
                    });
                    self.shards[owner]
                        .store()
                        .put_with_deadline(&record, deadline_ms)?;
                    // The batch keeps only key + metadata (no payload
                    // copy); the record is moved in, so only its key is
                    // cloned for the source-side delete and removal.
                    let key = record.key.clone();
                    batches[owner].upsert_at(record, deadline_ms);
                    shard.store().delete(&key)?;
                    batches[i].remove(key);
                    moved += 1;
                }
            }
            Ok(())
        };
        let result = migrate();
        for (shard, batch) in self.shards.iter().zip(batches) {
            shard.apply_index_batch(batch);
        }
        result.map(|()| moved)
    }
}

/// The predicate + update of a *group* metadata update — the two query
/// classes whose validate-all-then-commit guarantee spans shards.
fn group_update_of(query: &GdprQuery) -> Option<(RecordPredicate, &MetadataUpdate)> {
    match query {
        GdprQuery::UpdateMetadataByPurpose { purpose, update } => {
            Some((RecordPredicate::DeclaredPurpose(purpose.clone()), update))
        }
        GdprQuery::UpdateMetadataByUser { user, update } => {
            Some((RecordPredicate::User(user.clone()), update))
        }
        _ => None,
    }
}

/// Merge per-shard responses of one query class into the canonical form:
/// counts sum, result sets concatenate and sort by key, so the merged
/// response is independent of shard count and order.
fn merge_responses(results: Vec<GdprResponse>) -> GdprResult<GdprResponse> {
    use GdprResponse::*;
    let mut iter = results.into_iter();
    let mut acc = iter
        .next()
        .ok_or_else(|| GdprError::Store("merge of zero shard responses".to_string()))?;
    for resp in iter {
        acc = match (acc, resp) {
            (Deleted(a), Deleted(b)) => Deleted(a + b),
            (Updated(a), Updated(b)) => Updated(a + b),
            (Data(mut a), Data(b)) => {
                a.extend(b);
                Data(a)
            }
            (Metadata(mut a), Metadata(b)) => {
                a.extend(b);
                Metadata(a)
            }
            (Records(mut a), Records(b)) => {
                a.extend(b);
                Records(a)
            }
            (a, b) => {
                return Err(GdprError::Store(format!(
                    "shard response shape mismatch: {a:?} vs {b:?}"
                )))
            }
        };
    }
    match &mut acc {
        Data(pairs) => pairs.sort(),
        Metadata(pairs) => pairs.sort_by(|x, y| x.0.cmp(&y.0)),
        Records(records) => records.sort_by(|x, y| x.key.cmp(&y.key)),
        _ => {}
    }
    Ok(acc)
}

/// A sharded engine is a connector like any other; callers cannot tell a
/// router from a single engine (the whole point).
impl<S: RecordStore> GdprConnector for ShardedEngine<S> {
    fn execute(&self, session: &Session, query: &GdprQuery) -> GdprResult<GdprResponse> {
        ShardedEngine::execute(self, session, query)
    }

    fn features(&self) -> FeatureReport {
        self.shards[0].store().features()
    }

    fn space_report(&self) -> SpaceReport {
        let mut total = SpaceReport::default();
        for shard in &self.shards {
            let report = shard.store().space_report();
            total.personal_data_bytes += report.personal_data_bytes;
            total.total_bytes += report.total_bytes;
        }
        total
    }

    fn record_count(&self) -> usize {
        self.shards.iter().map(|s| s.store().record_count()).sum()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn close(&self) -> GdprResult<()> {
        ShardedEngine::close(self).map(|_| ())
    }

    fn op_telemetry(&self) -> Option<OpTelemetrySnapshot> {
        Some(self.tenants.merged_telemetry())
    }

    fn op_telemetry_for(&self, tenant: &TenantId) -> Option<OpTelemetrySnapshot> {
        self.tenants.telemetry_for(tenant)
    }

    fn tenant_telemetry(&self) -> Vec<(String, OpTelemetrySnapshot)> {
        self.tenants.telemetry_snapshots()
    }

    fn provision_tenant(&self, tenant: &TenantId) -> GdprResult<()> {
        self.ensure_tenant(tenant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::PersonalRecord;
    use crate::test_store::{record, MemStore};
    use std::collections::BTreeMap;
    use std::time::Duration;

    fn sharded(n: usize) -> ShardedEngine<MemStore> {
        let clock = clock::sim();
        ShardedEngine::with_metadata_index(
            (0..n)
                .map(|_| MemStore::with_clock(clock.clone()))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn shard_of_is_stable_and_total() {
        // Pinned values: the placement function is a persistence format —
        // changing the hash (or its constants) silently would misroute
        // every reopened deployment, so the literal FNV-1a outputs are
        // asserted here.
        assert_eq!(shard_of("ph-1", 4), 3);
        assert_eq!(shard_of("user-17", 4), 1);
        assert_eq!(shard_of("user-17", 8), 1);
        assert_eq!(shard_of("k0", 8), 6);
        assert_eq!(shard_of("", 8), 5);
        for n in 1..9 {
            for key in ["a", "user-17", "ph-3", ""] {
                assert!(shard_of(key, n) < n);
            }
        }
        assert_eq!(shard_of("anything", 1), 0);
        // Keys actually spread: 64 keys over 8 shards must hit every shard.
        let mut hit = [false; 8];
        for i in 0..64 {
            hit[shard_of(&format!("k{i}"), 8)] = true;
        }
        assert!(hit.iter().all(|h| *h), "FNV spread degenerate: {hit:?}");
    }

    #[test]
    fn point_ops_route_and_predicates_fan_out() {
        for n in [1, 2, 8] {
            let engine = sharded(n);
            let controller = Session::controller();
            for (k, u, p) in [
                ("a", "neo", &["ads"][..]),
                ("b", "neo", &["2fa"][..]),
                ("c", "trinity", &["ads"][..]),
            ] {
                engine
                    .execute(&controller, &GdprQuery::CreateRecord(record(k, u, p)))
                    .unwrap();
            }
            // Point read lands on the owning shard only.
            let resp = engine
                .execute(
                    &Session::processor("ads"),
                    &GdprQuery::ReadDataByKey("a".into()),
                )
                .unwrap();
            assert_eq!(resp.cardinality(), 1);
            // Fan-out merges across shards, sorted by key.
            let resp = engine
                .execute(
                    &Session::customer("neo"),
                    &GdprQuery::ReadDataByUser("neo".into()),
                )
                .unwrap();
            let keys: Vec<_> = resp
                .as_data()
                .unwrap()
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            assert_eq!(keys, vec!["a", "b"], "n={n}");
            // Group delete sums per-shard counts.
            let resp = engine
                .execute(&controller, &GdprQuery::DeleteByPurpose("ads".into()))
                .unwrap();
            assert_eq!(resp, GdprResponse::Deleted(2), "n={n}");
            assert_eq!(engine.record_count(), 1);
        }
    }

    #[test]
    fn unified_audit_records_one_event_per_query() {
        let engine = sharded(4);
        let controller = Session::controller();
        engine
            .execute(
                &controller,
                &GdprQuery::CreateRecord(record("k1", "neo", &["ads"])),
            )
            .unwrap();
        // A fan-out query is still one audit event.
        engine
            .execute(
                &Session::customer("neo"),
                &GdprQuery::ReadDataByUser("neo".into()),
            )
            .unwrap();
        // Denied queries audit too.
        let _ = engine.execute(
            &Session::customer("neo"),
            &GdprQuery::ReadDataByUser("trinity".into()),
        );
        assert_eq!(engine.audit().len(), 3);
        for shard in engine.shards() {
            assert_eq!(shard.audit().len(), 0, "shards must not audit");
        }
        let resp = engine
            .execute(
                &Session::regulator(),
                &GdprQuery::GetSystemLogs {
                    from_ms: 0,
                    to_ms: u64::MAX,
                },
            )
            .unwrap();
        match resp {
            GdprResponse::Logs(lines) => {
                assert_eq!(lines.len(), 3);
                assert!(lines.iter().any(|l| l.operation == "read-data-by-usr"));
                assert!(lines.iter().any(|l| l.detail.contains("access denied")));
            }
            other => panic!("expected logs, got {other:?}"),
        }
    }

    #[test]
    fn verify_placement_detects_shard_count_change() {
        let clock = clock::sim();
        let stores: Vec<MemStore> = (0..2)
            .map(|_| MemStore::with_clock(clock.clone()))
            .collect();
        // Lay out records for a 2-shard topology.
        for i in 0..16 {
            let r = record(&format!("k{i}"), "neo", &["ads"]);
            stores[shard_of(&r.key, 2)].put(&r).unwrap();
        }
        let two = ShardedEngine::with_metadata_index(stores).unwrap();
        two.verify_placement().unwrap();

        // "Restart" the same stores as a 3-shard deployment.
        let rows: Vec<BTreeMap<String, PersonalRecord>> = two
            .shards()
            .iter()
            .map(|s| s.store().rows.lock().clone())
            .collect();
        let stores: Vec<MemStore> = (0..3)
            .map(|_| MemStore::with_clock(clock.clone()))
            .collect();
        for (i, shard_rows) in rows.into_iter().enumerate() {
            for r in shard_rows.into_values() {
                stores[i].put(&r).unwrap();
            }
        }
        let three = ShardedEngine::with_metadata_index(stores).unwrap();
        assert!(matches!(
            three.verify_placement(),
            Err(GdprError::ShardMisroute { shard_count: 3, .. })
        ));

        // Rebalance migrates every record home; queries see all of them.
        let moved = three.rebalance().unwrap();
        assert!(moved > 0);
        three.verify_placement().unwrap();
        assert_eq!(three.record_count(), 16);
        let resp = three
            .execute(
                &Session::customer("neo"),
                &GdprQuery::ReadDataByUser("neo".into()),
            )
            .unwrap();
        assert_eq!(resp.cardinality(), 16);
        // Per-shard indexes track the migration on both sides.
        for (i, shard) in three.shards().iter().enumerate() {
            let index = shard.metadata_index().unwrap();
            for key in index.keys_by_user("neo") {
                assert_eq!(shard_of(&key, 3), i, "index advertises a foreign key");
            }
        }
    }

    #[test]
    fn rebalance_preserves_remaining_deadlines() {
        let clock = clock::sim();
        let store = MemStore::with_clock(clock.clone());
        let mut r = record("k-ttl", "neo", &["ads"]);
        r.metadata.ttl = Some(Duration::from_secs(10));
        store.put(&r).unwrap();
        clock.advance(Duration::from_secs(9));
        // Reopen that one store as part of a wider topology where the key
        // belongs elsewhere.
        let owner = shard_of("k-ttl", 3);
        let mut stores: Vec<MemStore> = (0..3)
            .map(|_| MemStore::with_clock(clock.clone()))
            .collect();
        let misplaced = (owner + 1) % 3;
        stores[misplaced] = store;
        let engine = ShardedEngine::with_metadata_index(stores).unwrap();
        assert_eq!(engine.rebalance().unwrap(), 1);
        assert_eq!(
            engine.shards()[owner].store().deadline_ms("k-ttl"),
            Some(10_000),
            "migration must keep the remaining deadline, not re-arm the full TTL"
        );
        assert_eq!(
            engine.shards()[owner]
                .metadata_index()
                .unwrap()
                .deadline_of("k-ttl"),
            Some(10_000)
        );
        clock.advance(Duration::from_secs(2));
        assert_eq!(
            engine
                .execute(&Session::controller(), &GdprQuery::DeleteExpired)
                .unwrap(),
            GdprResponse::Deleted(1)
        );
    }

    #[test]
    fn index_and_scan_sharding_agree() {
        let clock = clock::sim();
        let scan = ShardedEngine::new(
            (0..4)
                .map(|_| MemStore::with_clock(clock.clone()))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let indexed = sharded(4);
        let controller = Session::controller();
        for i in 0..20 {
            let mut r = record(&format!("k{i}"), ["neo", "trinity"][i % 2], &["ads"]);
            if i % 3 == 0 {
                r.metadata.objections.push("ads".into());
            }
            for engine in [&scan, &indexed] {
                engine
                    .execute(&controller, &GdprQuery::CreateRecord(r.clone()))
                    .unwrap();
            }
        }
        for (session, query) in [
            (
                Session::customer("neo"),
                GdprQuery::ReadDataByUser("neo".into()),
            ),
            (
                Session::processor("ads"),
                GdprQuery::ReadDataByPurpose("ads".into()),
            ),
            (
                Session::processor("x"),
                GdprQuery::ReadDataNotObjecting("ads".into()),
            ),
        ] {
            assert_eq!(
                scan.execute(&session, &query).unwrap(),
                indexed.execute(&session, &query).unwrap(),
                "divergence on {query:?}"
            );
        }
        // The index actually answers on the indexed variant.
        assert!(indexed.shards()[0]
            .metadata_index()
            .unwrap()
            .keys_for(&RecordPredicate::User("neo".into()))
            .is_some());
    }

    /// 32 of `neo`'s `ads` records over four shards: every shard holds
    /// some, so every shard's store is read by a by-user or by-purpose
    /// query.
    fn four_populated_shards() -> ShardedEngine<MemStore> {
        let engine = sharded(4);
        for i in 0..32 {
            engine
                .execute(
                    &Session::controller(),
                    &GdprQuery::CreateRecord(record(&format!("k{i}"), "neo", &["ads"])),
                )
                .unwrap();
        }
        for shard in engine.shards() {
            assert!(shard.store().record_count() > 0);
        }
        engine
    }

    fn neo_reads() -> [(Session, GdprQuery); 2] {
        [
            (
                Session::customer("neo"),
                GdprQuery::ReadMetadataByUser("neo".into()),
            ),
            (
                Session::processor("ads"),
                GdprQuery::ReadDataByPurpose("ads".into()),
            ),
        ]
    }

    /// `Threads:` of `/proc/self/status`.
    #[cfg(target_os = "linux")]
    fn process_threads() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
        line["Threads:".len()..].trim().parse().unwrap()
    }

    #[test]
    fn reads_fan_out_on_the_calling_thread() {
        let engine = four_populated_shards();
        for (session, query) in neo_reads() {
            // A thread of its own, so the id cannot be the loader's.
            let caller = std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        let resp = engine.execute(&session, &query).unwrap();
                        assert_eq!(resp.cardinality(), 32);
                        std::thread::current().id()
                    })
                    .join()
                    .unwrap()
            });
            for shard in engine.shards() {
                assert_eq!(*shard.store().last_read_by.lock(), Some(caller));
            }
        }
        // An engine owns no threads. Sibling tests start and finish on
        // threads of their own, so one quiet attempt out of a few suffices
        // (an engine that spawned workers would be off on all of them).
        #[cfg(target_os = "linux")]
        {
            let observed: Vec<[usize; 3]> = (0..20)
                .map(|_| {
                    let before = process_threads();
                    let engine = sharded(4);
                    let built = process_threads();
                    drop(engine);
                    [before, built, process_threads()]
                })
                .collect();
            assert!(
                observed.iter().any(|[a, b, c]| a == b && b == c),
                "thread count moved with the engine: {observed:?}"
            );
        }
    }

    /// The failure contract reads share with writes: the walk stops at the
    /// first failing shard and answers with its error.
    #[test]
    fn a_failing_shard_ends_a_predicate_read_there() {
        for (session, query) in neo_reads() {
            let engine = four_populated_shards();
            for shard in engine.shards() {
                *shard.store().last_read_by.lock() = None;
            }
            *engine.shards()[1].store().fail_reads.lock() = true;
            match engine.execute(&session, &query) {
                Err(GdprError::Store(msg)) => assert_eq!(msg, "injected read failure"),
                other => panic!("expected shard 1's store error, got {other:?}"),
            }
            let read: Vec<bool> = engine
                .shards()
                .iter()
                .map(|shard| shard.store().last_read_by.lock().is_some())
                .collect();
            assert_eq!(read, [true, true, false, false], "{query:?}");
        }
    }

    /// Regression (write-path consistency): a group update that is invalid
    /// for a record on a *later* shard must leave every shard untouched.
    /// Without cross-shard pre-validation, the sequential write fan-out
    /// committed shard 0's matches before shard 1's validation failed —
    /// the caller saw `Err` with half the group already rewritten, and the
    /// outcome depended on the shard count.
    #[test]
    fn group_update_validates_across_all_shards_before_any_commit() {
        let engine = sharded(2);
        let controller = Session::controller();
        // One key per shard, chosen via the placement function so the
        // healthy record (two purposes) sits on shard 0 and the poison
        // record (whose only purpose is "ads") on shard 1.
        let key_on = |shard: usize| {
            (0..64)
                .map(|i| format!("gk{i}"))
                .find(|k| shard_of(k, 2) == shard)
                .expect("64 keys cover both shards")
        };
        let healthy = key_on(0);
        let poison = key_on(1);
        engine
            .execute(
                &controller,
                &GdprQuery::CreateRecord(record(&healthy, "neo", &["ads", "2fa"])),
            )
            .unwrap();
        engine
            .execute(
                &controller,
                &GdprQuery::CreateRecord(record(&poison, "neo", &["ads"])),
            )
            .unwrap();
        let result = engine.execute(
            &controller,
            &GdprQuery::UpdateMetadataByPurpose {
                purpose: "ads".into(),
                update: crate::query::MetadataUpdate::Remove(
                    crate::query::MetadataField::Purposes,
                    "ads".into(),
                ),
            },
        );
        assert!(matches!(result, Err(GdprError::InvalidRecord(_))));
        // Shard 0's record must not have committed: both keep "ads".
        for key in [&healthy, &poison] {
            let stored = engine.shard_for(key).store().fetch(key).unwrap().unwrap();
            assert!(
                stored.metadata.purposes.contains(&"ads".to_string()),
                "{key} must be untouched after the failed cross-shard group update"
            );
        }
        // The processor still sees both records under the purpose.
        let resp = engine
            .execute(
                &Session::processor("ads"),
                &GdprQuery::ReadDataByPurpose("ads".into()),
            )
            .unwrap();
        assert_eq!(resp.cardinality(), 2);
    }

    #[test]
    fn empty_shard_list_is_rejected() {
        assert!(matches!(
            ShardedEngine::<MemStore>::new(Vec::new()),
            Err(GdprError::Store(_))
        ));
    }

    #[test]
    fn mixed_clock_shards_are_rejected() {
        // Two clocks with different epochs: absolute timestamps are not
        // comparable across them, so construction must fail loudly.
        let stores = vec![
            MemStore::with_clock(clock::sim()),
            MemStore::with_clock(clock::sim()),
        ];
        assert!(matches!(
            ShardedEngine::new(stores),
            Err(GdprError::Store(_))
        ));
    }

    #[test]
    fn destination_collision_fails_loudly_with_both_copies_intact() {
        let clock = clock::sim();
        let stores: Vec<MemStore> = (0..2)
            .map(|_| MemStore::with_clock(clock.clone()))
            .collect();
        let r = record("dup", "neo", &["ads"]);
        let owner = shard_of("dup", 2);
        stores[owner].put(&r).unwrap();
        stores[1 - owner].put(&r).unwrap();
        let engine = ShardedEngine::new(stores).unwrap();
        assert!(matches!(
            engine.rebalance(),
            Err(GdprError::AlreadyExists(_))
        ));
        assert_eq!(engine.record_count(), 2, "no copy may be destroyed");
    }

    #[test]
    fn sharded_engine_reports_aggregate_space_and_count() {
        let engine = sharded(4);
        let controller = Session::controller();
        for i in 0..10 {
            engine
                .execute(
                    &controller,
                    &GdprQuery::CreateRecord(record(&format!("k{i}"), "neo", &["ads"])),
                )
                .unwrap();
        }
        assert_eq!(engine.record_count(), 10);
        let space = engine.space_report();
        assert!(space.personal_data_bytes > 0);
        assert!(space.total_bytes > space.personal_data_bytes);
        assert_eq!(engine.name(), "mem-sharded");
        assert_eq!(engine.named("custom").name(), "custom");
    }

    /// The no-double-count invariant: the router records every op exactly
    /// once — across single-op execute, a batch, and fanned-out
    /// predicates — and the shards' own tables stay empty (the router
    /// reaches them via `dispatch`, below their telemetry).
    #[test]
    fn telemetry_counts_each_op_exactly_once() {
        for shards in [1usize, 8] {
            let engine = sharded(shards);
            let controller = Session::controller();
            // 16 creates as one batch, spanning several shards.
            let ops: Vec<_> = (0..16)
                .map(|i| {
                    (
                        controller.clone(),
                        GdprQuery::CreateRecord(record(&format!("k{i}"), "neo", &["ads"])),
                    )
                })
                .collect();
            for r in engine.execute_batch(ops) {
                r.unwrap();
            }
            // One single-op read, one fanned-out predicate, one error.
            let processor = Session::processor("ads");
            engine
                .execute(&processor, &GdprQuery::ReadDataByKey("k0".into()))
                .unwrap();
            engine
                .execute(
                    &Session::customer("neo"),
                    &GdprQuery::ReadDataByUser("neo".into()),
                )
                .unwrap();
            engine
                .execute(&processor, &GdprQuery::ReadDataByKey("missing".into()))
                .unwrap_err();

            let snap = engine.op_telemetry().expect("router keeps telemetry");
            let creates = snap.get("create-record").unwrap();
            assert_eq!((creates.ok, creates.errors), (16, 0), "shards={shards}");
            assert_eq!(creates.latency.count, 16);
            let reads = snap.get("read-data-by-key").unwrap();
            assert_eq!((reads.ok, reads.errors), (1, 1), "shards={shards}");
            let by_user = snap.get("read-data-by-usr").unwrap();
            assert_eq!((by_user.ok, by_user.errors), (1, 0), "shards={shards}");
            assert_eq!(snap.total_ops(), 19, "shards={shards}");
            // Shard-inner tables must be empty, or GetMetrics would
            // double-report at shard counts > 1.
            for shard in engine.shards() {
                assert_eq!(shard.telemetry().snapshot().total_ops(), 0);
            }
        }
    }
}
