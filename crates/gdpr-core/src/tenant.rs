//! Tenant identity: the first-class dimension that lets one deployment
//! serve many data controllers with hard isolation.
//!
//! A [`TenantId`] names one controller. The **default tenant** (the empty
//! name) is the degenerate single-tenant case: every pre-tenancy caller
//! lands there and observes byte-identical behavior to a build without
//! tenancy at all.
//!
//! # Storage-key namespacing
//!
//! Isolation is enforced at the key layer: a non-default tenant's records
//! live under `"<tenant>\x1d<key>"` in the shared [`crate::RecordStore`],
//! where `\x1d` (ASCII GROUP SEPARATOR) is [`TENANT_SEPARATOR`]. The
//! default tenant's records keep their raw keys, which is what makes the
//! degenerate case byte-equivalent. Two rules make the scheme forgery-proof:
//!
//! * tenant names may not contain the separator (they are restricted to
//!   `[A-Za-z0-9._-]`, at most [`MAX_TENANT_LEN`] bytes), and
//! * **logical** keys containing the separator are rejected outright
//!   ([`TenantId::check_logical_key`]), so no caller — default tenant
//!   included — can craft a key that addresses another tenant's partition.
//!
//! Everything above the store (index partitions, audit trails, telemetry
//! labels, snapshot sections, shard routing) keys off the same identity,
//! and is held per tenant in one `TenantTable` — the same table type in
//! a [`crate::ComplianceEngine`] and in the [`crate::ShardedEngine`] router
//! above it (whose table simply carries no index partitions).

use crate::audit::AuditTrail;
use crate::error::GdprResult;
use crate::metaindex::MetadataIndex;
use crate::query::GdprQuery;
use crate::response::GdprResponse;
use crate::role::Session;
use crate::telemetry::{OpTelemetry, OpTelemetrySnapshot};
use clock::SharedClock;
use parking_lot::RwLock;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// ASCII GROUP SEPARATOR — joins tenant name and logical key into a
/// storage key. Not a valid byte in tenant names or logical keys.
pub const TENANT_SEPARATOR: char = '\u{1d}';

/// Longest accepted tenant name, in bytes.
pub const MAX_TENANT_LEN: usize = 64;

/// One controller's identity. `TenantId::default()` is the degenerate
/// single-tenant case (empty name).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(String);

impl TenantId {
    /// Parse and validate a tenant name. The empty string is the default
    /// tenant; anything else must be `[A-Za-z0-9._-]{1,64}`.
    pub fn new(name: impl Into<String>) -> Result<TenantId, String> {
        let name = name.into();
        Self::check_name(&name)?;
        Ok(TenantId(name))
    }

    /// Validate a tenant name without constructing one.
    pub fn check_name(name: &str) -> Result<(), String> {
        if name.is_empty() {
            return Ok(());
        }
        if name.len() > MAX_TENANT_LEN {
            return Err(format!(
                "tenant name of {} bytes exceeds the {MAX_TENANT_LEN}-byte cap",
                name.len()
            ));
        }
        if let Some(bad) = name
            .chars()
            .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')))
        {
            return Err(format!(
                "tenant name {name:?} contains {bad:?}; allowed: [A-Za-z0-9._-]"
            ));
        }
        Ok(())
    }

    /// Reject logical keys that could forge a cross-tenant storage key.
    /// Applied to every key-addressed query before translation.
    pub fn check_logical_key(key: &str) -> Result<(), String> {
        if key.contains(TENANT_SEPARATOR) {
            return Err(format!(
                "record key {key:?} contains the reserved tenant separator (0x1d)"
            ));
        }
        Ok(())
    }

    /// The degenerate single-tenant case?
    #[inline]
    pub fn is_default(&self) -> bool {
        self.0.is_empty()
    }

    /// The raw name (empty for the default tenant).
    pub fn name(&self) -> &str {
        &self.0
    }

    /// A human/metric label: `"default"` for the default tenant, the name
    /// otherwise. Used by the slow-op log and the Prometheus series.
    pub fn label(&self) -> &str {
        if self.0.is_empty() {
            "default"
        } else {
            &self.0
        }
    }

    /// Translate a logical key into the storage key this tenant owns.
    /// The default tenant's storage keys are the logical keys themselves.
    pub fn storage_key(&self, logical: &str) -> String {
        if self.is_default() {
            logical.to_string()
        } else {
            let mut k = String::with_capacity(self.0.len() + 1 + logical.len());
            k.push_str(&self.0);
            k.push(TENANT_SEPARATOR);
            k.push_str(logical);
            k
        }
    }

    /// Does this tenant own `storage_key`? The default tenant owns exactly
    /// the keys without a separator.
    pub fn owns(&self, storage_key: &str) -> bool {
        match storage_key.find(TENANT_SEPARATOR) {
            None => self.is_default(),
            Some(at) => storage_key[..at] == self.0,
        }
    }

    /// Strip this tenant's prefix off a storage key, yielding the logical
    /// key. Keys the tenant does not own come back unchanged (callers
    /// filter on [`Self::owns`] first).
    pub fn logical<'a>(&self, storage_key: &'a str) -> &'a str {
        if self.is_default() {
            return storage_key;
        }
        match storage_key.find(TENANT_SEPARATOR) {
            Some(at) if storage_key[..at] == self.0 => &storage_key[at + 1..],
            _ => storage_key,
        }
    }

    /// Split a storage key into `(tenant name, logical key)`. Keys without
    /// a separator belong to the default tenant.
    pub fn split_storage_key(storage_key: &str) -> (&str, &str) {
        match storage_key.find(TENANT_SEPARATOR) {
            None => ("", storage_key),
            Some(at) => (&storage_key[..at], &storage_key[at + 1..]),
        }
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Everything one tenant owns inside an engine: its audit trail (so
/// GET-SYSTEM-LOGS returns only the caller's interactions), its metadata
/// index partition (when the table is indexed), and its telemetry table
/// (so op/error counts and slow-op lines attribute to a tenant).
pub(crate) struct TenantState {
    pub(crate) audit: AuditTrail,
    pub(crate) index: Option<Arc<MetadataIndex>>,
    pub(crate) telemetry: Arc<OpTelemetry>,
}

impl TenantState {
    fn new(clock: &SharedClock, indexed: bool, telemetry: OpTelemetry) -> Arc<TenantState> {
        Arc::new(TenantState {
            audit: AuditTrail::new(clock.clone()),
            index: indexed.then(|| Arc::new(MetadataIndex::new())),
            telemetry: Arc::new(telemetry),
        })
    }

    /// Run one query under this tenant: time it into the tenant's
    /// telemetry, then append the one audit entry its outcome owes,
    /// whatever that outcome is (G30: every interaction is logged). Both
    /// engines execute through this, so they render identical trails.
    pub(crate) fn execute(
        &self,
        session: &Session,
        query: &GdprQuery,
        run: impl FnOnce() -> GdprResult<GdprResponse>,
    ) -> GdprResult<GdprResponse> {
        let started = Instant::now();
        let result = run();
        self.telemetry
            .record(query, started.elapsed(), result.is_err());
        let err_text = result.as_ref().err().map(ToString::to_string);
        let outcome = match &result {
            Ok(resp) => Ok(resp.cardinality()),
            Err(_) => Err(err_text.as_deref().unwrap_or("error")),
        };
        self.audit
            .record(session, query.name(), query.detail(), outcome);
        result
    }
}

/// The tenant → state table. The default tenant is a direct field (the
/// single-tenant hot path never touches a lock); named tenants live in
/// an RwLock'd map, created lazily on first use or restored at open.
pub(crate) struct TenantTable {
    clock: SharedClock,
    default_state: Arc<TenantState>,
    extra: RwLock<BTreeMap<String, Arc<TenantState>>>,
    /// Flipped (and never unflipped) once any named tenant exists — the
    /// cue for the write paths to stop using store-wide pushdowns that
    /// would cross tenant boundaries.
    multi: AtomicBool,
}

impl TenantTable {
    /// `indexed` gives every tenant a [`MetadataIndex`] partition; the
    /// shard router passes `false` (its shards hold the partitions).
    pub(crate) fn new(clock: SharedClock, indexed: bool) -> Arc<TenantTable> {
        Arc::new(TenantTable {
            default_state: TenantState::new(&clock, indexed, OpTelemetry::new()),
            clock,
            extra: RwLock::new(BTreeMap::new()),
            multi: AtomicBool::new(false),
        })
    }

    pub(crate) fn default_state(&self) -> &Arc<TenantState> {
        &self.default_state
    }

    /// Does this table keep metadata index partitions?
    pub(crate) fn indexed(&self) -> bool {
        self.default_state.index.is_some()
    }

    /// Has any named tenant ever been seen?
    pub(crate) fn multi(&self) -> bool {
        self.multi.load(Ordering::Relaxed)
    }

    /// Look a tenant's state up by name — never creates one, so a metrics
    /// probe or a store-side reap cannot fabricate tenant state.
    pub(crate) fn get(&self, name: &str) -> Option<Arc<TenantState>> {
        if name.is_empty() {
            return Some(Arc::clone(&self.default_state));
        }
        self.extra.read().get(name).map(Arc::clone)
    }

    /// The state `tenant` operates in, installed empty on first use. The
    /// flag is true when this call installed it — the engine then
    /// backfills the new index partition, *after* registration, so
    /// concurrent writes from the same tenant index into the installed
    /// partition rather than a discarded one.
    pub(crate) fn get_or_install(&self, tenant: &TenantId) -> (Arc<TenantState>, bool) {
        if let Some(state) = self.get(tenant.name()) {
            return (state, false);
        }
        let state = TenantState::new(
            &self.clock,
            self.indexed(),
            OpTelemetry::labeled(tenant.label()),
        );
        match self.extra.write().entry(tenant.name().to_string()) {
            Entry::Occupied(existing) => return (Arc::clone(existing.get()), false),
            Entry::Vacant(slot) => {
                slot.insert(Arc::clone(&state));
            }
        }
        self.multi.store(true, Ordering::Relaxed);
        (state, true)
    }

    /// As [`Self::get_or_install`], for callers with nothing to backfill
    /// (the shard router).
    pub(crate) fn state(&self, tenant: &TenantId) -> Arc<TenantState> {
        self.get_or_install(tenant).0
    }

    /// Drop a named tenant's state again (its backfill failed: an empty
    /// partition would silently answer predicates with misses).
    pub(crate) fn remove(&self, name: &str) {
        self.extra.write().remove(name);
    }

    /// Route a store-side expiry to the owning tenant's index partition.
    /// Looks up only — a reap never creates tenant state.
    pub(crate) fn on_store_expiry(&self, storage_key: &str) {
        let (tenant, _) = TenantId::split_storage_key(storage_key);
        if let Some(state) = self.get(tenant) {
            if let Some(index) = &state.index {
                index.remove(storage_key);
            }
        }
    }

    /// Every index partition, the default tenant's first (under the empty
    /// name), then named tenants in name order.
    pub(crate) fn index_sections(&self) -> Vec<(String, Arc<MetadataIndex>)> {
        let named = self.extra.read();
        std::iter::once((String::new(), &self.default_state))
            .chain(named.iter().map(|(name, state)| (name.clone(), state)))
            .filter_map(|(name, state)| Some((name, Arc::clone(state.index.as_ref()?))))
            .collect()
    }

    /// Every tenant's telemetry snapshot, labeled (`"default"` first, then
    /// named tenants in name order).
    pub(crate) fn telemetry_snapshots(&self) -> Vec<(String, OpTelemetrySnapshot)> {
        let mut out = vec![(
            "default".to_string(),
            self.default_state.telemetry.snapshot(),
        )];
        for (name, state) in self.extra.read().iter() {
            out.push((name.clone(), state.telemetry.snapshot()));
        }
        out
    }

    /// One tenant's telemetry, if that tenant has been seen.
    pub(crate) fn telemetry_for(&self, tenant: &TenantId) -> Option<OpTelemetrySnapshot> {
        self.get(tenant.name())
            .map(|state| state.telemetry.snapshot())
    }

    /// The deployment-wide view: the default tenant's counters merged
    /// with every named tenant's, preserving the pre-tenancy meaning.
    pub(crate) fn merged_telemetry(&self) -> OpTelemetrySnapshot {
        let mut merged = self.default_state.telemetry.snapshot();
        for state in self.extra.read().values() {
            merged.merge(&state.telemetry.snapshot());
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tenant_is_transparent() {
        let t = TenantId::default();
        assert!(t.is_default());
        assert_eq!(t.storage_key("ph-1"), "ph-1");
        assert_eq!(t.logical("ph-1"), "ph-1");
        assert!(t.owns("ph-1"));
        assert!(!t.owns("acme\u{1d}ph-1"));
        assert_eq!(t.label(), "default");
    }

    #[test]
    fn named_tenant_prefixes_and_strips() {
        let t = TenantId::new("acme").unwrap();
        let sk = t.storage_key("ph-1");
        assert_eq!(sk, "acme\u{1d}ph-1");
        assert!(t.owns(&sk));
        assert!(!t.owns("ph-1"));
        assert!(!t.owns("acme2\u{1d}ph-1"));
        assert_eq!(t.logical(&sk), "ph-1");
        assert_eq!(TenantId::split_storage_key(&sk), ("acme", "ph-1"));
        assert_eq!(TenantId::split_storage_key("ph-1"), ("", "ph-1"));
    }

    #[test]
    fn hostile_names_and_keys_are_rejected() {
        assert!(TenantId::new("ok-name_1.2").is_ok());
        assert!(TenantId::new("").unwrap().is_default());
        assert!(TenantId::new("has space").is_err());
        assert!(TenantId::new("sep\u{1d}inside").is_err());
        assert!(TenantId::new("x".repeat(MAX_TENANT_LEN + 1)).is_err());
        assert!(TenantId::new("x".repeat(MAX_TENANT_LEN)).is_ok());
        assert!(TenantId::check_logical_key("plain").is_ok());
        assert!(TenantId::check_logical_key("a\u{1d}b").is_err());
    }

    #[test]
    fn a_tenant_name_prefixing_another_does_not_collide() {
        let a = TenantId::new("acme").unwrap();
        let ab = TenantId::new("acme2").unwrap();
        assert!(!a.owns(&ab.storage_key("k")));
        assert!(!ab.owns(&a.storage_key("k")));
    }
}
