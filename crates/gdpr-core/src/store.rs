//! The narrow storage interface the compliance engine drives.
//!
//! [`crate::engine::ComplianceEngine`] owns everything GDPR — authorization,
//! record visibility, audit logging, and the full [`crate::GdprQuery`]
//! dispatch — exactly once. What remains per backend is this trait: fetch,
//! fetch_many (a batch of point reads — every index-resolved predicate is
//! one call), put, rewrite, delete, apply (a batch of rewrites and deletes —
//! every group write is one call), scan, expiry purge, and space accounting,
//! plus two optional predicate-pushdown hooks for stores (like the relational
//! one) that can evaluate metadata predicates natively against their own
//! secondary indexes.
//!
//! The two batch calls default to the per-record loop, which is the only
//! path the relational store has. `fetch_many` is overridden by the
//! key-value backend (the stored values lent in place, chunk by chunk,
//! under the store's shared lock)
//! and the paged disk backend (one descent per touched leaf, each value
//! lent out of its page image or opened into one reused buffer, under the
//! page-store mutex); `apply` by the disk backend (one transaction).
//!
//! Two borrowed reads sit beside them. `fetch_view` is a point read that
//! lends the record as a [`RecordView`] (default: through `fetch`);
//! `scan_each` is an optional walk over every record, `None` unless the
//! store can read its records front to back without naming them — the
//! key-value backend walks its keyspace's slots, and the engine takes it
//! for a predicate most records match.

use crate::compliance::FeatureReport;
use crate::connector::SpaceReport;
use crate::error::GdprResult;
use crate::record::{Metadata, PersonalRecord};
use crate::wire::RecordView;
use clock::SharedClock;
use std::sync::Arc;

/// A metadata predicate over personal records — the selection forms the
/// GDPR query taxonomy needs (§3.3 of the paper). Every metadata-conditioned
/// query reduces to exactly one of these, so backends and the
/// [`crate::metaindex::MetadataIndex`] only ever answer this closed set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordPredicate {
    /// Records belonging to a data subject (`USR = user`).
    User(String),
    /// Records that *declare* a purpose (`purpose ∈ PUR`), regardless of
    /// objections — the deletion/update grouping of G5.1b and G13.3.
    DeclaredPurpose(String),
    /// Records *usable* for a purpose: declared and not objected to
    /// (`purpose ∈ PUR ∧ purpose ∉ OBJ`) — the canonical READ-DATA-BY-PUR
    /// semantics (G5.1b + G21); see the conformance suite, which pins this
    /// behaviour for every backend.
    AllowsPurpose(String),
    /// Records whose subject has *not* objected to a usage (`usage ∉ OBJ`).
    NotObjecting(String),
    /// Records eligible for automated decision-making (no G22 opt-out).
    DecisionEligible,
    /// Records shared with a third party (`party ∈ SHR`).
    SharedWith(String),
}

impl RecordPredicate {
    /// Evaluate against one record. This is the reference semantics: index
    /// and pushdown paths must agree with a full scan filtered by this.
    pub fn matches(&self, record: &PersonalRecord) -> bool {
        self.matches_view(&record.view())
    }

    /// [`Self::matches`] over the borrowed shape — the one body, so a
    /// record tested as stored text and the same record tested parsed
    /// cannot disagree.
    pub fn matches_view(&self, record: &RecordView<'_>) -> bool {
        match self {
            RecordPredicate::User(user) => record.user == user.as_str(),
            RecordPredicate::DeclaredPurpose(p) => record.purposes.contains(p),
            RecordPredicate::AllowsPurpose(p) => {
                record.purposes.contains(p) && !record.objections.contains(p)
            }
            RecordPredicate::NotObjecting(usage) => !record.objections.contains(usage),
            RecordPredicate::DecisionEligible => !record.decisions.contains(Metadata::DEC_OPT_OUT),
            RecordPredicate::SharedWith(party) => record.sharing.contains(party),
        }
    }
}

/// One write of a [`RecordStore::apply`] batch.
#[derive(Debug, Clone)]
pub enum WriteOp {
    /// [`RecordStore::delete`] this key.
    Delete(String),
    /// [`RecordStore::rewrite`] this record.
    Rewrite {
        record: PersonalRecord,
        ttl_changed: bool,
    },
}

/// What a [`RecordStore::apply`] call did to the store.
#[derive(Debug)]
pub struct Applied {
    /// The **committed prefix**: ops `[..committed]` are in the store, the
    /// rest are not. The whole batch on success; on failure an atomic
    /// store reports 0, a store running the default loop reports how far
    /// it got.
    pub committed: usize,
    /// Committed ops that count toward the query's cardinality: every
    /// rewrite, and every delete that found its record.
    pub counted: usize,
    /// The failure that stopped the batch, if any.
    pub result: GdprResult<()>,
}

/// `ops` one [`RecordStore::delete`] / [`RecordStore::rewrite`] at a time,
/// stopping at the first failure: the default [`RecordStore::apply`].
pub(crate) fn apply_each<S: RecordStore + ?Sized>(store: &S, ops: &[WriteOp]) -> Applied {
    let mut counted = 0;
    for (committed, op) in ops.iter().enumerate() {
        let outcome = match op {
            WriteOp::Delete(key) => store.delete(key),
            WriteOp::Rewrite {
                record,
                ttl_changed,
            } => store.rewrite(record, *ttl_changed).map(|()| true),
        };
        match outcome {
            Ok(hit) => counted += usize::from(hit),
            Err(e) => {
                return Applied {
                    committed,
                    counted,
                    result: Err(e),
                }
            }
        }
    }
    Applied {
        committed: ops.len(),
        counted,
        result: Ok(()),
    }
}

/// Callback invoked (with the logical record key) when the store itself
/// expires a record — lazily on access or in an active expiration cycle —
/// so engine-side index entries can be invalidated.
pub type ExpiryListener = Arc<dyn Fn(&str) + Send + Sync>;

/// A storage backend for personal records.
///
/// Implementations are *mechanism only*: no authorization, no audit, no
/// query dispatch — [`crate::engine::ComplianceEngine`] provides those. The
/// required methods are deliberately narrow; the two `Option`-returning
/// hooks let a backend push predicate evaluation down to native indexes
/// (returning `None` falls back to the engine's index or full scan).
pub trait RecordStore: Send + Sync {
    /// The clock the backend runs on (drives audit timestamps and TTLs).
    fn clock(&self) -> SharedClock;

    /// Point lookup.
    ///
    /// Expiry enforcement is the backend's own: the key-value store hides
    /// past-due records immediately (lazy-on-access reaping), while the
    /// relational store serves rows until its sweep daemon's next pass —
    /// exactly the paper's retrofit designs, whose timeliness gap is the
    /// subject of its Figure 3a. Callers needing strict timeliness run the
    /// respective expiry machinery (strict cycles / `TtlDaemon`).
    fn fetch(&self, key: &str) -> GdprResult<Option<PersonalRecord>>;

    /// Read `keys` — distinct, in index order, as
    /// [`crate::metaindex::MetadataIndex::keys_for`] hands them out (slot
    /// order, not key order) — and show `visit` every record found, in
    /// `keys` order or, for a store that reads in its own key order (the
    /// disk store sorts the keys so a descent serves a whole leaf), in
    /// that order. A key with no record is skipped; a past-due one is
    /// skipped too and treated as [`Self::fetch`] treats it (the key-value
    /// and disk stores reap it and fire the [`Self::on_expiry`] listener
    /// for it once). The keys are candidates, not answers: the caller
    /// re-verifies each view against its predicate. A record that cannot
    /// be read fails the call.
    ///
    /// The default is the per-key [`Self::fetch`] loop. A store overrides
    /// it to take its lock once per batch (or per fixed chunk of one) and
    /// to hand out views of the stored text without materialising records.
    /// `visit` may then run under the store's lock — the key-value store
    /// lends it the stored bytes in place under its shared lock, the disk
    /// store lends it page bytes or a reused plaintext buffer under its
    /// mutex — so it must not call back into the store, and a chunk's lock
    /// hold includes whatever `visit` does (the engine's re-verification
    /// and projection).
    fn fetch_many(
        &self,
        keys: &[Arc<str>],
        visit: &mut dyn FnMut(RecordView<'_>),
    ) -> GdprResult<()> {
        for key in keys {
            if let Some(record) = self.fetch(key)? {
                visit(record.view());
            }
        }
        Ok(())
    }

    /// Point lookup that lends the record to `visit` — once, if the key
    /// holds one — and reports whether it did. The default goes through
    /// [`Self::fetch`]. A store that overrides it (the key-value store)
    /// shows the stored text in place under its shared lock, so `visit`
    /// must not call back into the store; expiry is as for `fetch`, and so
    /// is logging (a logged read is still one `GET`).
    fn fetch_view(&self, key: &str, visit: &mut dyn FnMut(RecordView<'_>)) -> GdprResult<bool> {
        let Some(record) = self.fetch(key)? else {
            return Ok(false);
        };
        visit(record.view());
        Ok(true)
    }

    /// Walk every record once and show it to `visit`, in the store's own
    /// order — the predicate-read pushdown for a predicate most records
    /// match, where naming every candidate costs more than reading the
    /// store front to back. `None` (the default) means the store cannot
    /// walk, and the engine names the candidates instead. The key-value
    /// store walks in every configuration; where its reads are logged, a
    /// walk logs the keys it read.
    ///
    /// A store that walks lends `visit` views of its stored text under its
    /// shared lock, a fixed chunk of records per hold: `visit` must not
    /// call back into the store. While writers run between chunks, a
    /// record present for the whole walk is visited exactly once, a record
    /// created during it is not visited, and a record deleted and
    /// re-created during it is visited at most once. A past-due record is
    /// skipped and **not** reaped. The walk sees every tenant's records;
    /// the caller filters. A record that cannot be read fails the walk.
    fn scan_each(&self, visit: &mut dyn FnMut(RecordView<'_>)) -> Option<GdprResult<()>> {
        let _ = visit;
        None
    }

    /// Insert a fresh record, arming its TTL. Fails with
    /// [`crate::GdprError::AlreadyExists`] on key collision — collision
    /// detection is the backend's job (the engine does not pre-fetch). One
    /// atomic store write on every backend (a conditional `SET`, an
    /// `INSERT`, a B-tree insert): of two concurrent creates of one key,
    /// exactly one succeeds.
    fn put(&self, record: &PersonalRecord) -> GdprResult<()>;

    /// Rewrite an existing record in place, as one atomic store write.
    /// When `ttl_changed` is false the record's original expiry deadline is
    /// preserved; when true the deadline is re-armed from
    /// `record.metadata.ttl`.
    fn rewrite(&self, record: &PersonalRecord, ttl_changed: bool) -> GdprResult<()>;

    /// Erase one record. Returns whether it existed.
    fn delete(&self, key: &str) -> GdprResult<bool>;

    /// Run a group write — the rewrites or deletes one erase-by-user,
    /// consent withdrawal or TTL purge resolved to — in one call. The
    /// engine indexes exactly the [`Applied::committed`] prefix.
    ///
    /// The default applies the ops one at a time and stops at the first
    /// failure, so a failure (or a crash) leaves the earlier ops in place:
    /// the only path the key-value and relational stores have. A store
    /// that can commit the batch as one transaction (the paged disk
    /// store) overrides this and is all-or-none.
    fn apply(&self, ops: &[WriteOp]) -> Applied {
        apply_each(self, ops)
    }

    /// Every live record — the O(n) path the engine uses when neither
    /// pushdown nor a metadata index can answer a predicate.
    fn scan(&self) -> GdprResult<Vec<PersonalRecord>>;

    /// Synchronously erase every record past its TTL deadline, returning
    /// how many were reaped (DELETE-RECORD-BY-TTL without engine indexes).
    ///
    /// Deadlines are **inclusive**: a record whose deadline equals the
    /// current instant is already expired. Every expiry path in the
    /// workspace — this purge, lazy-on-access reaping, active cycles, the
    /// relational sweep daemon, and
    /// [`crate::metaindex::MetadataIndex::expired_keys`] — must agree on
    /// this boundary, or an index-driven purge and a scan-driven purge
    /// would delete different sets at the boundary instant (pinned by the
    /// conformance suite's boundary test).
    fn purge_expired(&self) -> GdprResult<usize>;

    /// Every key whose native deadline has already lapsed, **without
    /// reaping anything** — the multi-tenant purge path uses this to count
    /// and erase one tenant's expired records itself. The default derives
    /// the set from [`Self::scan`] + [`Self::deadline_ms`], which is
    /// correct for backends that serve past-due rows until their own sweep
    /// runs (the relational store). Backends whose scan never shows a
    /// past-due record (the key-value store's walk skips it, so a
    /// scan-derived set silently loses every expired key) must override
    /// with a genuinely side-effect-free enumeration of their deadlines.
    fn expired_keys(&self) -> GdprResult<Vec<String>> {
        let now_ms = self.clock().now().as_millis();
        Ok(self
            .scan()?
            .into_iter()
            .map(|record| record.key)
            .filter(|key| {
                self.deadline_ms(key)
                    .is_some_and(|deadline| deadline <= now_ms)
            })
            .collect())
    }

    /// The store's own absolute expiry deadline for `key`, in milliseconds
    /// on [`Self::clock`], when it tracks one natively. `None` means
    /// unknown — callers fall back to deriving a deadline from the
    /// record's declared TTL. Index backfill uses this so pre-existing
    /// records keep their *remaining* lifetime instead of being re-armed
    /// with the full declared TTL. The instant `deadline_ms == now` counts
    /// as expired (inclusive boundary; see [`Self::purge_expired`]).
    fn deadline_ms(&self, key: &str) -> Option<u64> {
        let _ = key;
        None
    }

    /// Insert a record whose expiry deadline is already known in absolute
    /// milliseconds on [`Self::clock`] — the shard-rebalance path, where a
    /// record migrates between stores and must keep its *remaining*
    /// lifetime rather than being re-armed with the full declared TTL
    /// (which would retain personal data up to twice as long). Backends
    /// that track native deadlines should override; the default arms from
    /// the declared TTL, which is correct for stores with no native expiry
    /// tracking (their engine index carries the deadline instead). Like
    /// [`Self::put`], one atomic store write that refuses a collision.
    fn put_with_deadline(
        &self,
        record: &PersonalRecord,
        deadline_ms: Option<u64>,
    ) -> GdprResult<()> {
        let _ = deadline_ms;
        self.put(record)
    }

    /// A monotone stamp of the store's *persisted mutation state* — the
    /// key-value backend's AOF write-frame sequence, the relational
    /// backend's WAL statement position. Two requirements make it usable
    /// as the generation stamp of an index snapshot
    /// ([`crate::snapshot`]):
    ///
    /// 1. every committed mutation advances it, however it entered the
    ///    store (through the engine or behind its back), and
    /// 2. replaying the store's persistence log reproduces the exact
    ///    value the live store had when the log was written.
    ///
    /// `None` (the default) means the store cannot stamp its state; index
    /// snapshots over such a store are written unstamped and are never
    /// trusted on restore — recovery always rebuilds.
    fn persistence_generation(&self) -> Option<u64> {
        None
    }

    /// Make every write acknowledged so far durable in the backend's own
    /// persistence (sync the AOF, sync the WAL, checkpoint the page file)
    /// — [`crate::ComplianceEngine::close`] calls this on graceful
    /// shutdown. Default no-op, for stores with nothing to flush.
    fn flush(&self) -> GdprResult<()> {
        Ok(())
    }

    /// Predicate pushdown for reads: `Some(records)` if the backend can
    /// evaluate `pred` natively (e.g. relational secondary indexes),
    /// `None` to let the engine resolve it.
    fn select(&self, pred: &RecordPredicate) -> Option<GdprResult<Vec<PersonalRecord>>> {
        let _ = pred;
        None
    }

    /// Predicate pushdown for deletes: `Some(count)` if the backend erased
    /// all matching records itself.
    fn delete_matching(&self, pred: &RecordPredicate) -> Option<GdprResult<usize>> {
        let _ = pred;
        None
    }

    /// Register a callback for store-side expirations. Backends whose store
    /// reaps TTLs autonomously (lazy-on-access, background cycles) must
    /// invoke it per reaped record; backends that only delete through the
    /// engine may keep the default no-op.
    fn on_expiry(&self, listener: ExpiryListener) {
        let _ = listener;
    }

    /// Space accounting for the Table 3 metric.
    fn space_report(&self) -> SpaceReport;

    /// Live record count (scale experiments).
    fn record_count(&self) -> usize;

    /// The backend's compliance capability posture.
    fn features(&self) -> FeatureReport;

    /// Backend name (`redis`, `postgres`, ...).
    fn name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Metadata;
    use std::time::Duration;

    fn record() -> PersonalRecord {
        let mut m = Metadata::new(
            "neo",
            vec!["ads".into(), "2fa".into()],
            Duration::from_secs(60),
        );
        m.objections.push("ads".into());
        m.sharing.push("x-corp".into());
        PersonalRecord::new("k1", "d", m)
    }

    #[test]
    fn predicate_reference_semantics() {
        let r = record();
        assert!(RecordPredicate::User("neo".into()).matches(&r));
        assert!(!RecordPredicate::User("smith".into()).matches(&r));
        assert!(RecordPredicate::DeclaredPurpose("ads".into()).matches(&r));
        assert!(
            !RecordPredicate::AllowsPurpose("ads".into()).matches(&r),
            "objection vetoes"
        );
        assert!(RecordPredicate::AllowsPurpose("2fa".into()).matches(&r));
        assert!(!RecordPredicate::NotObjecting("ads".into()).matches(&r));
        assert!(RecordPredicate::NotObjecting("sales".into()).matches(&r));
        assert!(RecordPredicate::DecisionEligible.matches(&r));
        assert!(RecordPredicate::SharedWith("x-corp".into()).matches(&r));
        assert!(!RecordPredicate::SharedWith("y-corp".into()).matches(&r));
    }
}
