//! Storage backends for the shared GDPR compliance engine.
//!
//! The paper adds per-database client stubs to GDPRbench (§4.3: "~400 LoC
//! for Redis and PostgreSQL clients"); in this reproduction the entire
//! GDPR layer — authorization, record visibility, audit logging, and the
//! one `GdprQuery` dispatch — lives in [`gdpr_core::ComplianceEngine`], and
//! each database contributes only a narrow [`gdpr_core::RecordStore`]
//! backend:
//!
//! * [`redis::RedisStore`] — records live as wire-format strings under
//!   `rec:<key>` with native `EXPIRE` for TTL. The store has **no secondary
//!   indexes**: the baseline [`redis::RedisConnector::new`] resolves every
//!   metadata predicate by a keyspace walk and a filter (the O(n) behaviour
//!   behind Figures 5a and 7b), while [`redis::RedisConnector::with_metadata_index`]
//!   attaches the engine's [`gdpr_core::MetadataIndex`] for O(matches)
//!   lookups, with store-side expirations invalidating index entries.
//! * [`sharded::ShardedRedisConnector`] — N independent key-value stores
//!   behind a [`gdpr_core::ShardedEngine`] hash-partition router: point
//!   ops go to the owning shard, metadata predicates fan out and merge
//!   deterministically, and one unified audit trail spans the fleet. Shard
//!   count is semantically invisible (pinned by the conformance suite here
//!   and the shard-count-invariance properties in `tests/proptests.rs`).
//! * [`remote::RemoteConnector`] — not a storage backend but a *network
//!   client*: a pool of [`remote::GdprClient`] connections speaking the
//!   `gdpr-server` wire protocol, behind the same [`gdpr_core::GdprConnector`]
//!   interface. Any of the variants above, served by `gdpr-serve`, is
//!   drivable over loopback or a real network; the conformance suite runs
//!   every variant both in-process and remote-wrapped to pin
//!   byte-equivalence.
//! * [`postgres::PostgresStore`] — one `personal_data` table with a column
//!   per metadata attribute (arrays for multi-valued ones), pushing every
//!   predicate down to relstore's planner. In baseline form only the
//!   primary key is indexed (metadata queries seq-scan, Figure 5b); with
//!   [`postgres::PostgresConnector::with_metadata_indices`] every metadata
//!   column gets a secondary index (Figure 5c) at the space cost Table 3
//!   reports.
//!
//! All connectors enforce the Figure 1 role matrix and keep the audit
//! trail through the engine — the behaviour is defined once, so the
//! conformance suite holds for every backend by construction.
//!
//! The five in-process connector names are aliases of one handle,
//! [`Connector`]`<E>`, over the engine type they are built on; what each
//! backend module adds is its [`gdpr_core::RecordStore`], constructors,
//! and the accessor that reaches the store underneath.
//!
//! How a *deployment* of each variant opens — its store configs, the
//! paper's compliant posture, the data dir and index snapshots beside it,
//! the expiry machinery kept running — is written once, in
//! [`registry`]: one table whose rows every binary, figure harness and
//! suite opens.

pub mod disk;
pub mod postgres;
pub mod redis;
pub mod registry;
pub mod remote;
pub mod sharded;

pub use disk::{DiskConnector, DiskStore, ShardedDiskConnector};
pub use postgres::{PostgresConnector, PostgresStore};
pub use redis::{RedisConnector, RedisStore};
pub use remote::{GdprClient, RemoteConnector};
pub use sharded::ShardedRedisConnector;

use gdpr_core::compliance::FeatureReport;
use gdpr_core::connector::SpaceReport;
use gdpr_core::error::GdprResult;
use gdpr_core::telemetry::OpTelemetrySnapshot;
use gdpr_core::tenant::TenantId;
use gdpr_core::{GdprConnector, GdprQuery, GdprResponse, Session};

/// An in-process connector: an engine `E` (a
/// [`gdpr_core::ComplianceEngine`] or a [`gdpr_core::ShardedEngine`]) built
/// over one backend's stores. It *is* its engine — every
/// [`GdprConnector`] method forwards to `E`'s, and everything else the
/// engine offers (`audit()`, `metadata_index()`, `index_recovery()`,
/// `shards()`, `rebalance()`, …) is reached through `Deref`.
pub struct Connector<E> {
    engine: E,
}

impl<E> Connector<E> {
    pub(crate) fn over(engine: E) -> Connector<E> {
        Connector { engine }
    }

    /// The engine (shard inspection, placement checks, its own `close`
    /// that reports how many index entries it persisted).
    pub fn engine(&self) -> &E {
        &self.engine
    }
}

impl<E> std::ops::Deref for Connector<E> {
    type Target = E;

    fn deref(&self) -> &E {
        &self.engine
    }
}

/// Every method of the trait is forwarded, defaulted ones included: a
/// default left standing here would silently replace the engine's own
/// implementation (pinned by `tests::every_trait_method_is_forwarded`).
impl<E: GdprConnector> GdprConnector for Connector<E> {
    fn execute(&self, session: &Session, query: &GdprQuery) -> GdprResult<GdprResponse> {
        self.engine.execute(session, query)
    }

    fn execute_batch(&self, ops: Vec<(Session, GdprQuery)>) -> Vec<GdprResult<GdprResponse>> {
        self.engine.execute_batch(ops)
    }

    fn features(&self) -> FeatureReport {
        self.engine.features()
    }

    fn space_report(&self) -> SpaceReport {
        self.engine.space_report()
    }

    fn record_count(&self) -> usize {
        self.engine.record_count()
    }

    fn name(&self) -> &str {
        self.engine.name()
    }

    fn close(&self) -> GdprResult<()> {
        self.engine.close()
    }

    fn op_telemetry(&self) -> Option<OpTelemetrySnapshot> {
        self.engine.op_telemetry()
    }

    fn op_telemetry_for(&self, tenant: &TenantId) -> Option<OpTelemetrySnapshot> {
        self.engine.op_telemetry_for(tenant)
    }

    fn tenant_telemetry(&self) -> Vec<(String, OpTelemetrySnapshot)> {
        self.engine.tenant_telemetry()
    }

    fn provision_tenant(&self, tenant: &TenantId) -> GdprResult<()> {
        self.engine.provision_tenant(tenant)
    }
}

#[cfg(test)]
mod conformance;

#[cfg(test)]
mod tests {
    use super::*;
    use gdpr_core::EngineHandle;
    use std::sync::Arc;

    /// An engine whose every *defaulted* trait method answers with a value
    /// the default cannot produce.
    struct Fake;

    const SENTINEL: &str = "fake-sentinel";

    fn sentinel_snapshot() -> OpTelemetrySnapshot {
        let telemetry = gdpr_core::OpTelemetry::labeled(SENTINEL);
        telemetry.record(
            &GdprQuery::GetSystemFeatures,
            std::time::Duration::from_micros(1),
            false,
        );
        telemetry.snapshot()
    }

    impl GdprConnector for Fake {
        fn execute(&self, _: &Session, _: &GdprQuery) -> GdprResult<GdprResponse> {
            Ok(GdprResponse::Created)
        }
        fn execute_batch(&self, ops: Vec<(Session, GdprQuery)>) -> Vec<GdprResult<GdprResponse>> {
            // The sequential default would answer `Created` per op.
            ops.iter().map(|_| Ok(GdprResponse::Deleted(7))).collect()
        }
        fn features(&self) -> FeatureReport {
            FeatureReport::default()
        }
        fn space_report(&self) -> SpaceReport {
            SpaceReport::default()
        }
        fn record_count(&self) -> usize {
            0
        }
        fn name(&self) -> &str {
            SENTINEL
        }
        fn close(&self) -> GdprResult<()> {
            Err(gdpr_core::GdprError::Unsupported(SENTINEL.to_string()))
        }
        fn op_telemetry(&self) -> Option<OpTelemetrySnapshot> {
            Some(sentinel_snapshot())
        }
        fn op_telemetry_for(&self, tenant: &TenantId) -> Option<OpTelemetrySnapshot> {
            // The default would fall back to `op_telemetry` (`Some`).
            assert_eq!(tenant.name(), SENTINEL);
            None
        }
        fn tenant_telemetry(&self) -> Vec<(String, OpTelemetrySnapshot)> {
            vec![(SENTINEL.to_string(), sentinel_snapshot())]
        }
        fn provision_tenant(&self, tenant: &TenantId) -> GdprResult<()> {
            Err(gdpr_core::GdprError::Unsupported(tenant.name().to_string()))
        }
    }

    fn assert_forwards_everything(conn: &dyn GdprConnector, wrapper: &str) {
        let tenant = TenantId::new(SENTINEL).unwrap();
        let op = (Session::controller(), GdprQuery::GetSystemFeatures);
        assert_eq!(
            conn.execute_batch(vec![op.clone(), op]),
            vec![Ok(GdprResponse::Deleted(7)), Ok(GdprResponse::Deleted(7))],
            "{wrapper} drops execute_batch"
        );
        assert!(conn.close().is_err(), "{wrapper} drops close");
        assert_eq!(
            conn.op_telemetry().map(|s| s.total_ops()),
            Some(1),
            "{wrapper} drops op_telemetry"
        );
        assert!(
            conn.op_telemetry_for(&tenant).is_none(),
            "{wrapper} drops op_telemetry_for"
        );
        assert_eq!(
            conn.tenant_telemetry().len(),
            1,
            "{wrapper} drops tenant_telemetry"
        );
        assert!(
            conn.provision_tenant(&tenant).is_err(),
            "{wrapper} drops provision_tenant"
        );
        assert_eq!(conn.name(), SENTINEL);
    }

    /// A wrapper that leaves a defaulted `GdprConnector` method unforwarded
    /// silently swaps the engine's implementation for the default — how
    /// five shells once hid that `execute_batch` never reached an engine.
    #[test]
    fn every_trait_method_is_forwarded() {
        assert_forwards_everything(&Connector::over(Fake), "Connector<E>");
        assert_forwards_everything(&Arc::new(Connector::over(Fake)), "Arc<Connector<E>>");
        let handle: EngineHandle = Arc::new(Connector::over(Fake));
        assert_forwards_everything(&handle, "Arc<dyn GdprConnector>");
    }
}
