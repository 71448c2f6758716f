//! The DB interface layer: the trait every database binding implements —
//! the equivalent of the per-store client stubs in the paper's GDPRbench
//! architecture (Figure 2b).

use crate::compliance::FeatureReport;
use crate::error::GdprResult;
use crate::query::GdprQuery;
use crate::response::GdprResponse;
use crate::role::Session;
use crate::telemetry::OpTelemetrySnapshot;
use crate::tenant::TenantId;

/// Space accounting for the Table 3 metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpaceReport {
    /// Bytes of personal data proper (the `<Data>` payloads).
    pub personal_data_bytes: usize,
    /// Total bytes the store holds for those records (data + metadata +
    /// index structures + audit state).
    pub total_bytes: usize,
}

impl SpaceReport {
    /// Total ÷ personal — always > 1 for a GDPR store ("metadata explosion").
    pub fn overhead_factor(&self) -> f64 {
        if self.personal_data_bytes == 0 {
            return 0.0;
        }
        self.total_bytes as f64 / self.personal_data_bytes as f64
    }
}

/// A GDPR-compliant database binding.
///
/// Implementations are expected to:
/// * enforce [`crate::acl::authorize`] and [`crate::acl::record_visible`]
///   on every call,
/// * maintain an audit trail serving `GetSystemLogs`,
/// * respond to `GetSystemFeatures` with an honest [`FeatureReport`].
pub trait GdprConnector: Send + Sync {
    /// Execute one GDPR query under a session.
    fn execute(&self, session: &Session, query: &GdprQuery) -> GdprResult<GdprResponse>;

    /// Execute a batch of queries, in order, returning one result per op
    /// (same positions). Semantics must be indistinguishable from calling
    /// [`GdprConnector::execute`] sequentially — per-op responses, per-op
    /// errors, audit entries in op order. The default does exactly that,
    /// and both in-process engines keep it: a batch is the unit a server
    /// hands to an executor thread, not a different execution path. The
    /// hook exists for connectors with a per-call cost worth amortizing —
    /// the remote client pipelines the whole batch onto one connection —
    /// so every wrapper must forward it.
    fn execute_batch(&self, ops: Vec<(Session, GdprQuery)>) -> Vec<GdprResult<GdprResponse>> {
        ops.iter()
            .map(|(session, query)| self.execute(session, query))
            .collect()
    }

    /// The store's compliance capability report.
    fn features(&self) -> FeatureReport;

    /// Space accounting for the space-overhead metric.
    fn space_report(&self) -> SpaceReport;

    /// Live personal-data records (DBSIZE-equivalent, for scale experiments).
    fn record_count(&self) -> usize;

    /// Human-readable connector name (e.g. `redis`, `postgres`,
    /// `postgres-mi`).
    fn name(&self) -> &str;

    /// Graceful shutdown hook: persist what a clean exit owes — the
    /// engines write the metadata index snapshot of the snapshot-aware
    /// variants, then [`crate::RecordStore::flush`] their stores. Default
    /// no-op; callers (e.g. `gdpr-serve`) invoke it exactly once on a
    /// clean exit, and implementations must tolerate repeated calls.
    fn close(&self) -> GdprResult<()> {
        Ok(())
    }

    /// A snapshot of this connector's per-opcode telemetry, when it keeps
    /// one. The local engines override this; remote/proxy connectors keep
    /// the default `None` (their server owns the authoritative counters —
    /// fetch them with the `GetMetrics` wire op instead).
    fn op_telemetry(&self) -> Option<OpTelemetrySnapshot> {
        None
    }

    /// Telemetry scoped to one tenant. The wire `GetMetrics` handler uses
    /// this so a tenant only ever reads its own counters. The default
    /// falls back to the deployment-wide view, which is correct for
    /// single-tenant connectors where the default tenant is the only one.
    fn op_telemetry_for(&self, _tenant: &TenantId) -> Option<OpTelemetrySnapshot> {
        self.op_telemetry()
    }

    /// Per-tenant telemetry snapshots, labeled for Prometheus export
    /// (`"default"` first, then named tenants in name order). Connectors
    /// without per-tenant counters return nothing.
    fn tenant_telemetry(&self) -> Vec<(String, OpTelemetrySnapshot)> {
        Vec::new()
    }

    /// Pre-create a tenant's partition (index, audit trail, telemetry) so
    /// first use doesn't pay the lazy-creation backfill. Default no-op.
    fn provision_tenant(&self, _tenant: &TenantId) -> GdprResult<()> {
        Ok(())
    }
}

/// A shareable handle to any engine/connector — what a network front-end
/// serves and what the bench layer drives. The server crate accepts one of
/// these, so every connector variant (`redis`, `redis-mi`, `redis-sharded`,
/// `postgres`, ...) is servable without the server knowing any backend.
pub type EngineHandle = std::sync::Arc<dyn GdprConnector>;

/// A shared handle is a connector: callers that hold an [`EngineHandle`]
/// (the server, fixtures that serve and drive the same engine) use it
/// wherever a connector is expected.
impl<T: GdprConnector + ?Sized> GdprConnector for std::sync::Arc<T> {
    fn execute(&self, session: &Session, query: &GdprQuery) -> GdprResult<GdprResponse> {
        (**self).execute(session, query)
    }

    fn execute_batch(&self, ops: Vec<(Session, GdprQuery)>) -> Vec<GdprResult<GdprResponse>> {
        (**self).execute_batch(ops)
    }

    fn features(&self) -> FeatureReport {
        (**self).features()
    }

    fn space_report(&self) -> SpaceReport {
        (**self).space_report()
    }

    fn record_count(&self) -> usize {
        (**self).record_count()
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn close(&self) -> GdprResult<()> {
        (**self).close()
    }

    fn op_telemetry(&self) -> Option<OpTelemetrySnapshot> {
        (**self).op_telemetry()
    }

    fn op_telemetry_for(&self, tenant: &TenantId) -> Option<OpTelemetrySnapshot> {
        (**self).op_telemetry_for(tenant)
    }

    fn tenant_telemetry(&self) -> Vec<(String, OpTelemetrySnapshot)> {
        (**self).tenant_telemetry()
    }

    fn provision_tenant(&self, tenant: &TenantId) -> GdprResult<()> {
        (**self).provision_tenant(tenant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_factor() {
        let r = SpaceReport {
            personal_data_bytes: 10,
            total_bytes: 35,
        };
        assert!((r.overhead_factor() - 3.5).abs() < 1e-9);
        let zero = SpaceReport::default();
        assert_eq!(zero.overhead_factor(), 0.0);
    }
}
