//! The GDPR data model, query taxonomy, and compliance layer — the primary
//! contribution of *Understanding and Benchmarking the Impact of GDPR on
//! Database Systems* (VLDB 2020), reimplemented as a library.
//!
//! The paper's §3 analysis distills GDPR's articles into three demands on a
//! database system, and this crate provides each as a first-class artifact:
//!
//! 1. **Metadata explosion** (§3.1): every personal data item carries seven
//!    metadata attributes — purpose, time-to-live, objections, audit trail,
//!    origin/sharing, automated-decision flags, and the associated person.
//!    [`record::PersonalRecord`] is that representation, and [`wire`]
//!    implements the paper's §4.2.1 ASCII record format.
//! 2. **Protection by design** (§3.2): the five security features —
//!    timely deletion, monitoring/logging, metadata indexing, encryption,
//!    access control — appear as [`compliance::ComplianceFeature`]s so a
//!    store's posture is a checkable [`compliance::FeatureReport`].
//! 3. **GDPR queries** (§3.3): the complete query taxonomy (CREATE-RECORD,
//!    DELETE-RECORD-BY-*, READ-DATA-BY-*, READ-METADATA-BY-*,
//!    UPDATE-DATA-BY-KEY, UPDATE-METADATA-BY-*, GET-SYSTEM-*) is
//!    [`query::GdprQuery`], and [`acl`] enforces which of the four roles
//!    (controller, customer, processor, regulator — Figure 1) may issue
//!    which query over whose records.
//!
//! Table 1 of the paper — the article-to-attribute/action map — is encoded
//! verbatim in [`articles`].
//!
//! The compliance layer itself is implemented exactly once:
//! [`engine::ComplianceEngine`] owns authorization, record visibility,
//! audit logging, and the single [`query::GdprQuery`] dispatch in the
//! workspace, over the narrow [`store::RecordStore`] backend trait.
//! Metadata predicates resolve through pushdown (native secondary
//! indexes), through the engine's [`metaindex::MetadataIndex`] (inverted
//! user/purpose/objection/sharing → keys maps, a live all-keys set and a
//! decision-eligibility set for the negative predicates, plus a
//! TTL-ordered expiry set — every [`store::RecordPredicate`] variant is
//! index-answerable), or by full scan — all three provably equivalent.
//! Multi-record write paths coalesce index maintenance through
//! [`metaindex::IndexBatch`], one lock acquisition per group instead of
//! one per record. See the `connectors` crate for the Redis- and
//! PostgreSQL-shaped backends.
//!
//! For scale-out, [`sharded::ShardedEngine`] hash-partitions keys across N
//! inner engines: point ops route to the owning shard, metadata predicates
//! fan out with deterministic merging, and one unified audit trail spans
//! the fleet — shard count is a performance knob, never a semantic one.

pub mod acl;
pub mod articles;
pub mod audit;
pub mod compliance;
pub mod connector;
pub mod engine;
pub mod error;
pub mod metaindex;
pub mod query;
pub mod record;
pub mod response;
pub mod role;
pub mod sharded;
pub mod snapshot;
pub mod store;
pub mod telemetry;
pub mod tenant;
#[cfg(test)]
pub(crate) mod test_store;
pub mod wire;

pub use compliance::{ComplianceFeature, FeatureReport};
pub use connector::{EngineHandle, GdprConnector};
pub use engine::ComplianceEngine;
pub use error::GdprError;
pub use metaindex::{IndexBatch, IndexEntry, MetadataIndex};
pub use query::{GdprQuery, MetadataField, MetadataUpdate};
pub use record::{Metadata, PersonalRecord};
pub use response::GdprResponse;
pub use role::{Role, Session};
pub use sharded::{shard_count_from_env, shard_of, ShardedEngine};
pub use snapshot::{IndexRecovery, SnapshotInvalid, SnapshotStamp};
pub use store::{Applied, RecordPredicate, RecordStore, WriteOp};
pub use telemetry::{
    AtomicHistogram, HistogramSnapshot, OpSnapshot, OpTelemetry, OpTelemetrySnapshot,
};
pub use tenant::TenantId;
