//! Engine-side secondary indexes over GDPR metadata.
//!
//! The paper's central performance finding is that GDPR queries are
//! *metadata-predicate* queries (by user, purpose, objection, sharing,
//! TTL), and that a store without secondary indexes on that metadata
//! answers them orders of magnitude too slowly (Figures 5a/7b: every such
//! query on Redis is a full SCAN-decrypt-parse of the keyspace). This
//! module is the retrofit: four inverted indexes — `user → keys`,
//! `purpose → keys`, `objection → keys`, `sharing → keys` — plus a live
//! *all-keys* set, a *decision-eligibility* set, and a deadline-ordered
//! expiry set, maintained by the compliance engine on every
//! put/rewrite/delete and invalidated by the store on every TTL
//! expiration, so predicate lookups become O(matches) instead of O(n).
//!
//! Coverage is total: [`MetadataIndex::keys_for`] answers **every**
//! [`RecordPredicate`] variant. The two negative predicates resolve as set
//! algebra over the live key population — `NotObjecting(usage)` is
//! `all_keys − objecting(usage)` and `DecisionEligible` is a directly
//! maintained set (keys without the G22 opt-out marker) — so even
//! "everything except ..." queries fetch only their matches instead of
//! scan-decrypt-parsing the whole keyspace.
//!
//! Writers maintain the index either per record ([`MetadataIndex::upsert`]
//! / [`MetadataIndex::remove`]) or in bulk via an [`IndexBatch`] applied by
//! [`MetadataIndex::apply`], which takes the write lock **once** for the
//! whole batch — the multi-record engine paths (group updates, group
//! deletes, TTL purges, backfill, shard rebalance) coalesce their index
//! maintenance this way instead of paying one lock round-trip per record.
//!
//! An upsert pays for what changed. A fresh key and a rewrite take one
//! path that diffs the key's indexed terms against the new metadata: it
//! touches the postings of the terms that left or joined the key, the
//! eligibility set only when eligibility flips, and the deadline set only
//! when the deadline moves. A consent update that adds one sharing party
//! to a record is one posting insert. [`MetadataIndex::remove`] is the
//! removal path; the snapshot restore builds a whole image off-lock
//! through `VocabIndexBuilder` and shares neither.
//!
//! Expiry deadlines are **inclusive**: a record whose deadline equals the
//! current instant is already expired. [`MetadataIndex::expired_keys`],
//! the key-value store's reaper, and the relational sweep daemon all agree
//! on this boundary, so an index-driven purge and a scan-driven purge
//! delete identical sets at the boundary instant (pinned by the
//! conformance suite).
//!
//! The index stores *keys only*; record payloads stay in (and are re-read
//! from) the backing store, so encrypted-at-rest data is never duplicated
//! in plaintext and a stale index entry can at worst cause one extra read
//! that comes back empty — the engine re-verifies every candidate against
//! the predicate before returning it: it hands the candidate keys to
//! [`crate::store::RecordStore::fetch_many`] in one call and tests each
//! [`crate::wire::RecordView`] the store shows it with
//! [`crate::store::RecordPredicate::matches_view`], over the stored text,
//! without materialising a record.

use crate::record::{Metadata, PersonalRecord};
use crate::store::RecordPredicate;
use parking_lot::RwLock;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Keys are stored once and shared: every structure a key appears in
/// (its terms row, up to four inverted postings, the all-keys and
/// eligibility sets, the deadline set) holds the same `Arc<str>`, so
/// membership costs a refcount bump instead of a `String` allocation.
/// That is what keeps the snapshot restore path ([`VocabIndexBuilder`])
/// allocation-light: one key allocation per entry, however many
/// structures the key lands in.
type Key = Arc<str>;

/// What was indexed for one key — kept so removal needs no record fetch
/// (the record may already be gone from the store when invalidation runs).
/// Terms are shared `Arc<str>`s: the vocabulary (users, purposes, usage
/// and party names) repeats across records, so the restore path interns
/// each distinct term once instead of allocating a copy per record — and
/// the three term lists live in **one** packed allocation
/// (`purposes ‖ objections ‖ sharing`, delimited by the two end offsets),
/// since a record typically carries only a handful of terms total.
#[derive(Debug, Clone)]
struct IndexedTerms {
    user: Key,
    /// `purposes ‖ objections ‖ sharing`, packed.
    term_lists: Box<[Key]>,
    purposes_end: u32,
    objections_end: u32,
    /// Whether the key sits in the decision-eligibility set. Recorded here
    /// (not re-derived) so the per-key terms are a complete, dumpable image
    /// of the index — [`MetadataIndex::export_entries`] serializes exactly
    /// this table and the snapshot restore rebuilds every map from it.
    decision_eligible: bool,
    deadline_ms: Option<u64>,
}

impl IndexedTerms {
    fn purposes(&self) -> &[Key] {
        &self.term_lists[..self.purposes_end as usize]
    }

    fn objections(&self) -> &[Key] {
        &self.term_lists[self.purposes_end as usize..self.objections_end as usize]
    }

    fn sharing(&self) -> &[Key] {
        &self.term_lists[self.objections_end as usize..]
    }

    /// Pack the three lists (already concatenated in `term_lists` order)
    /// with their split offsets.
    fn packed(
        user: Key,
        term_lists: Vec<Key>,
        purposes_end: usize,
        objections_end: usize,
        decision_eligible: bool,
        deadline_ms: Option<u64>,
    ) -> IndexedTerms {
        IndexedTerms {
            user,
            term_lists: term_lists.into_boxed_slice(),
            purposes_end: purposes_end as u32,
            objections_end: objections_end as u32,
            decision_eligible,
            deadline_ms,
        }
    }
}

#[derive(Default)]
struct Inner {
    by_user: HashMap<String, BTreeSet<Key>>,
    by_purpose: HashMap<String, BTreeSet<Key>>,
    by_objection: HashMap<String, BTreeSet<Key>>,
    by_sharing: HashMap<String, BTreeSet<Key>>,
    /// Every live key — the universe the negative predicates subtract
    /// from (`NotObjecting` = `all_keys − objecting`).
    all_keys: BTreeSet<Key>,
    /// Keys eligible for automated decision-making (no G22 opt-out
    /// marker) — `DecisionEligible` reads this set directly.
    decision_eligible: BTreeSet<Key>,
    /// `(absolute deadline ms, key)`, ordered — expired prefixes pop in
    /// O(expired · log n).
    by_deadline: BTreeSet<(u64, Key)>,
    /// Per-key snapshot of the indexed terms.
    terms: HashMap<Key, IndexedTerms>,
}

impl Inner {
    fn unindex(&mut self, key: &str) -> bool {
        let Some((key_arc, terms)) = self.terms.remove_entry(key) else {
            return false;
        };
        detach(&mut self.by_user, &terms.user, key);
        for p in terms.purposes() {
            detach(&mut self.by_purpose, p, key);
        }
        for o in terms.objections() {
            detach(&mut self.by_objection, o, key);
        }
        for s in terms.sharing() {
            detach(&mut self.by_sharing, s, key);
        }
        self.all_keys.remove(key);
        self.decision_eligible.remove(key);
        if let Some(at) = terms.deadline_ms {
            self.by_deadline.remove(&(at, key_arc));
        }
        true
    }
}

fn detach(map: &mut HashMap<String, BTreeSet<Key>>, term: &str, key: &str) {
    if let Some(set) = map.get_mut(term) {
        set.remove(key);
        if set.is_empty() {
            map.remove(term);
        }
    }
}

/// Add `key` under `term`, allocating the term map entry only on first
/// sight of the term (the common hit path clones nothing).
fn attach(map: &mut HashMap<String, BTreeSet<Key>>, term: &str, key: Key) {
    if let Some(set) = map.get_mut(term) {
        set.insert(key);
    } else {
        map.entry(term.to_string()).or_default().insert(key);
    }
}

/// Move `key` between the postings of `map` as its terms went from `old`
/// to `new`: detach it from the terms that left, attach it to the terms
/// that joined, leave the rest alone. Set semantics — a term listed twice
/// is one membership.
fn repost(map: &mut HashMap<String, BTreeSet<Key>>, old: &[Key], new: &[Key], key: &Key) {
    for term in old.iter().filter(|term| !new.contains(term)) {
        detach(map, term, key);
    }
    for term in new.iter().filter(|term| !old.contains(term)) {
        attach(map, term, Key::clone(key));
    }
}

/// The deadline an upsert indexes a key under.
#[derive(Debug, Clone, Copy)]
enum Deadline {
    /// This absolute deadline (`None`: the key never expires).
    At(Option<u64>),
    /// Whatever the key is indexed under now — none for a fresh key.
    Keep,
}

impl Deadline {
    /// The one deadline-derivation rule, shared by the per-record and
    /// batched upsert paths so they cannot silently diverge: keep the
    /// indexed deadline when `keep_deadline`, else re-arm from `now_ms +
    /// declared TTL`.
    fn of(m: &Metadata, now_ms: u64, keep_deadline: bool) -> Deadline {
        if keep_deadline {
            Deadline::Keep
        } else {
            Deadline::At(m.ttl.map(|ttl| clock::deadline_ms(now_ms, ttl)))
        }
    }
}

/// Accumulates a whole index image off-lock, then installs it in one
/// swap — the engine of the O(index) restore path. Images carry a term
/// table, so terms arrive as indexes into a shared vocabulary and feeding
/// a key performs **no string hashing at all**: every membership is an
/// array index plus a refcount bump, and the only allocation per key is
/// the key itself. Feed entries in key order: the accumulated vectors
/// then arrive sorted and every `BTreeSet` is bulk-built instead of
/// rebalanced insert by insert.
pub(crate) struct VocabIndexBuilder {
    vocab: Vec<Key>,
    by_user: Vec<Vec<Key>>,
    by_purpose: Vec<Vec<Key>>,
    by_objection: Vec<Vec<Key>>,
    by_sharing: Vec<Vec<Key>>,
    all_keys: Vec<Key>,
    decision_eligible: Vec<Key>,
    by_deadline: Vec<(u64, Key)>,
    /// Accumulated flat; the terms `HashMap` is built during the
    /// parallel install phase, off the serial parse path.
    terms: Vec<(Key, IndexedTerms)>,
}

impl VocabIndexBuilder {
    /// A builder over a fixed term table. Ids fed to [`Self::add`] must
    /// be `< vocab.len()` (the snapshot reader bounds-checks them as it
    /// parses).
    pub(crate) fn new(vocab: Vec<Key>, capacity: usize) -> VocabIndexBuilder {
        let postings = || vec![Vec::new(); vocab.len()];
        VocabIndexBuilder {
            by_user: postings(),
            by_purpose: postings(),
            by_objection: postings(),
            by_sharing: postings(),
            all_keys: Vec::with_capacity(capacity),
            decision_eligible: Vec::new(),
            by_deadline: Vec::new(),
            terms: Vec::with_capacity(capacity),
            vocab,
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn add(
        &mut self,
        key: &str,
        user_id: u32,
        purposes: &[u32],
        objections: &[u32],
        sharing: &[u32],
        decision_eligible: bool,
        deadline_ms: Option<u64>,
    ) {
        fn post_ids(postings: &mut [Vec<Key>], ids: &[u32], key: &Key) {
            for &id in ids {
                postings[id as usize].push(Key::clone(key));
            }
        }
        let key = Key::from(key);
        self.by_user[user_id as usize].push(Key::clone(&key));
        post_ids(&mut self.by_purpose, purposes, &key);
        post_ids(&mut self.by_objection, objections, &key);
        post_ids(&mut self.by_sharing, sharing, &key);
        self.all_keys.push(Key::clone(&key));
        if decision_eligible {
            self.decision_eligible.push(Key::clone(&key));
        }
        if let Some(at) = deadline_ms {
            self.by_deadline.push((at, Key::clone(&key)));
        }
        let vocab = &self.vocab;
        let mut term_lists = Vec::with_capacity(purposes.len() + objections.len() + sharing.len());
        for &id in purposes.iter().chain(objections).chain(sharing) {
            term_lists.push(Key::clone(&vocab[id as usize]));
        }
        self.terms.push((
            key,
            IndexedTerms::packed(
                Key::clone(&vocab[user_id as usize]),
                term_lists,
                purposes.len(),
                purposes.len() + objections.len(),
                decision_eligible,
                deadline_ms,
            ),
        ));
    }

    pub(crate) fn install(self, index: &MetadataIndex) -> usize {
        let VocabIndexBuilder {
            vocab,
            by_user,
            by_purpose,
            by_objection,
            by_sharing,
            all_keys,
            decision_eligible,
            mut by_deadline,
            terms,
        } = self;
        fn to_map(vocab: &[Key], postings: Vec<Vec<Key>>) -> HashMap<String, BTreeSet<Key>> {
            let mut map: HashMap<String, BTreeSet<Key>> = HashMap::new();
            for (id, keys) in postings.into_iter().enumerate() {
                if keys.is_empty() {
                    continue;
                }
                // Merge, never overwrite: the snapshot reader rejects
                // duplicate vocab terms, but losing postings silently is
                // the one failure this layer must be incapable of.
                map.entry(vocab[id].to_string()).or_default().extend(keys);
            }
            map
        }
        let built = std::thread::scope(|scope| {
            // Thread: the four posting maps and the key-level sets (all
            // bulk-built from their sorted vectors); main thread: the
            // terms table (the largest single hash build).
            let sets = scope.spawn(move || {
                by_deadline.sort_unstable();
                (
                    to_map(&vocab, by_user),
                    to_map(&vocab, by_purpose),
                    to_map(&vocab, by_objection),
                    to_map(&vocab, by_sharing),
                    all_keys.into_iter().collect::<BTreeSet<Key>>(),
                    decision_eligible.into_iter().collect::<BTreeSet<Key>>(),
                    by_deadline.into_iter().collect::<BTreeSet<(u64, Key)>>(),
                )
            });
            let mut terms_map: HashMap<Key, IndexedTerms> = HashMap::with_capacity(terms.len());
            terms_map.extend(terms);
            let (
                by_user,
                by_purpose,
                by_objection,
                by_sharing,
                all_keys,
                decision_eligible,
                by_deadline,
            ) = sets.join().expect("set builder");
            Inner {
                by_user,
                by_purpose,
                by_objection,
                by_sharing,
                all_keys,
                decision_eligible,
                by_deadline,
                terms: terms_map,
            }
        });
        let n = built.terms.len();
        *index.inner.write() = built;
        n
    }
}

/// One deferred index mutation inside an [`IndexBatch`]. Ops hold only
/// the key and the metadata terms — never the data payload — so a queued
/// batch buffers no plaintext personal data, upholding the module's
/// "keys only" contract even while mutations are in flight.
#[derive(Debug, Clone)]
enum IndexOp {
    /// Same semantics as [`MetadataIndex::upsert`].
    Upsert {
        key: String,
        metadata: Metadata,
        now_ms: u64,
        keep_deadline: bool,
    },
    /// Same semantics as [`MetadataIndex::upsert_with_deadline`].
    UpsertAt {
        key: String,
        metadata: Metadata,
        deadline_ms: Option<u64>,
    },
    /// Same semantics as [`MetadataIndex::remove`].
    Remove { key: String },
}

/// A batch of index mutations applied under **one** write-lock
/// acquisition ([`MetadataIndex::apply`]). The engine's multi-record
/// write paths (group updates and deletes, TTL purges, backfill, shard
/// rebalance) build one of these instead of locking per record. Ops apply
/// in insertion order, so a batch touching the same key twice behaves
/// exactly like the equivalent per-record call sequence.
#[derive(Debug, Clone, Default)]
pub struct IndexBatch {
    ops: Vec<IndexOp>,
}

impl IndexBatch {
    pub fn new() -> IndexBatch {
        IndexBatch::default()
    }

    /// Queue an upsert with [`MetadataIndex::upsert`] semantics. Takes the
    /// record by value — callers on the write path own it anyway — and
    /// keeps only its key and metadata; the data payload is dropped here.
    pub fn upsert(&mut self, record: PersonalRecord, now_ms: u64, keep_deadline: bool) {
        self.ops.push(IndexOp::Upsert {
            key: record.key,
            metadata: record.metadata,
            now_ms,
            keep_deadline,
        });
    }

    /// Queue an upsert under an explicit absolute deadline (payload
    /// dropped, as in [`Self::upsert`]).
    pub fn upsert_at(&mut self, record: PersonalRecord, deadline_ms: Option<u64>) {
        self.ops.push(IndexOp::UpsertAt {
            key: record.key,
            metadata: record.metadata,
            deadline_ms,
        });
    }

    /// Queue a removal.
    pub fn remove(&mut self, key: impl Into<String>) {
        self.ops.push(IndexOp::Remove { key: key.into() });
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Partition the batch by a key-derived group label (in practice: the
    /// tenant prefix of the storage key), preserving op order within each
    /// group. Groups come back in first-appearance order, so replaying
    /// every group's batch is equivalent to replaying the original batch
    /// as long as the grouping function is consistent per key.
    pub fn split_by(self, group_of: impl Fn(&str) -> String) -> Vec<(String, IndexBatch)> {
        let mut groups: Vec<(String, IndexBatch)> = Vec::new();
        for op in self.ops {
            let key = match &op {
                IndexOp::Upsert { key, .. }
                | IndexOp::UpsertAt { key, .. }
                | IndexOp::Remove { key } => key.as_str(),
            };
            let label = group_of(key);
            match groups.iter_mut().find(|(l, _)| *l == label) {
                Some((_, batch)) => batch.ops.push(op),
                None => groups.push((label, IndexBatch { ops: vec![op] })),
            }
        }
        groups
    }
}

/// One key's complete index image — everything the index knows about it,
/// with **absolute** TTL deadlines. A `Vec<IndexEntry>` is a full dump of
/// a [`MetadataIndex`]: every inverted map, the all-keys and
/// decision-eligibility sets, and the deadline set are reconstructible
/// from it (and from nothing else), which is what makes the entry list
/// the payload of the on-disk snapshot format in [`crate::snapshot`] —
/// a single per-key table cannot encode mutually inconsistent maps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    pub key: String,
    pub user: String,
    pub purposes: Vec<String>,
    pub objections: Vec<String>,
    pub sharing: Vec<String>,
    /// Whether the key is in the decision-eligibility set (no G22
    /// opt-out marker at indexing time). Carried explicitly because the
    /// index does not retain the decisions list it was derived from.
    pub decision_eligible: bool,
    /// Absolute expiry deadline in milliseconds on the store's clock.
    pub deadline_ms: Option<u64>,
}

/// The four inverted metadata indexes, the all-keys and
/// decision-eligibility sets, and the TTL expiry set.
#[derive(Default)]
pub struct MetadataIndex {
    inner: RwLock<Inner>,
}

impl MetadataIndex {
    pub fn new() -> MetadataIndex {
        MetadataIndex::default()
    }

    /// Index (or re-index) a record. `now_ms` anchors the TTL deadline;
    /// with `keep_deadline`, a previously indexed deadline survives the
    /// rewrite (the store preserved the remaining TTL, so must we).
    pub fn upsert(&self, record: &PersonalRecord, now_ms: u64, keep_deadline: bool) {
        Self::upsert_locked(
            &mut self.inner.write(),
            &record.key,
            &record.metadata,
            Deadline::of(&record.metadata, now_ms, keep_deadline),
        );
    }

    /// Index a record under an explicit absolute deadline — the backfill
    /// path, where the store's own remaining deadline (not `now + declared
    /// TTL`) is authoritative for records that already existed.
    pub fn upsert_with_deadline(&self, record: &PersonalRecord, deadline_ms: Option<u64>) {
        Self::upsert_locked(
            &mut self.inner.write(),
            &record.key,
            &record.metadata,
            Deadline::At(deadline_ms),
        );
    }

    /// Apply a whole [`IndexBatch`] under one write-lock acquisition, in
    /// op order. Returns how many ops were applied. This is the engine's
    /// multi-record maintenance path: a group update over k records costs
    /// one lock round-trip instead of k.
    pub fn apply(&self, batch: IndexBatch) -> usize {
        if batch.ops.is_empty() {
            return 0;
        }
        let mut inner = self.inner.write();
        let n = batch.ops.len();
        for op in batch.ops {
            match op {
                IndexOp::Upsert {
                    key,
                    metadata,
                    now_ms,
                    keep_deadline,
                } => {
                    let deadline = Deadline::of(&metadata, now_ms, keep_deadline);
                    Self::upsert_locked(&mut inner, &key, &metadata, deadline)
                }
                IndexOp::UpsertAt {
                    key,
                    metadata,
                    deadline_ms,
                } => Self::upsert_locked(&mut inner, &key, &metadata, Deadline::At(deadline_ms)),
                IndexOp::Remove { key } => {
                    inner.unindex(&key);
                }
            }
        }
        n
    }

    /// The one upsert path, for a fresh key and a rewrite alike. One
    /// `terms` probe reads the key's current row (a fresh key has none:
    /// the diff runs against an empty row), and only what differs is
    /// touched: the postings of terms that left or joined the key, the
    /// eligibility set when eligibility flips, the deadline set when the
    /// deadline moves, `all_keys` only for a fresh key. The new row
    /// shares the old row's `Arc`s for the terms that stayed and replaces
    /// it in place. A consent update that adds one party to a record
    /// therefore costs one posting insert, not a detach and re-attach of
    /// every term the record carries.
    fn upsert_locked(inner: &mut Inner, key: &str, m: &Metadata, deadline: Deadline) {
        let Inner {
            by_user,
            by_purpose,
            by_objection,
            by_sharing,
            all_keys,
            decision_eligible,
            by_deadline,
            terms,
        } = inner;
        let (key, old) = match terms.get_key_value(key) {
            Some((key, old)) => (Key::clone(key), Some(old)),
            None => (Key::from(key), None),
        };
        let old_terms: &[Key] = old.map_or(&[], |t| &t.term_lists);
        let term_lists: Vec<Key> = m
            .purposes
            .iter()
            .chain(&m.objections)
            .chain(&m.sharing)
            .map(|term| match old_terms.iter().find(|t| ***t == **term) {
                Some(kept) => Key::clone(kept),
                None => Key::from(term.as_str()),
            })
            .collect();
        let user = match old {
            Some(t) if *t.user == *m.user => Key::clone(&t.user),
            _ => Key::from(m.user.as_str()),
        };
        let (was_eligible, old_deadline) =
            old.map_or((false, None), |t| (t.decision_eligible, t.deadline_ms));
        let new = IndexedTerms::packed(
            user,
            term_lists,
            m.purposes.len(),
            m.purposes.len() + m.objections.len(),
            m.allows_automated_decisions(),
            match deadline {
                Deadline::At(at) => at,
                Deadline::Keep => old_deadline,
            },
        );

        let old_user = old.map(|t| std::slice::from_ref(&t.user));
        repost(
            by_user,
            old_user.unwrap_or_default(),
            std::slice::from_ref(&new.user),
            &key,
        );
        let old_purposes = old.map(IndexedTerms::purposes).unwrap_or_default();
        repost(by_purpose, old_purposes, new.purposes(), &key);
        let old_objections = old.map(IndexedTerms::objections).unwrap_or_default();
        repost(by_objection, old_objections, new.objections(), &key);
        let old_sharing = old.map(IndexedTerms::sharing).unwrap_or_default();
        repost(by_sharing, old_sharing, new.sharing(), &key);
        if new.decision_eligible != was_eligible {
            if new.decision_eligible {
                decision_eligible.insert(Key::clone(&key));
            } else {
                decision_eligible.remove(&key);
            }
        }
        if new.deadline_ms != old_deadline {
            if let Some(at) = old_deadline {
                by_deadline.remove(&(at, Key::clone(&key)));
            }
            if let Some(at) = new.deadline_ms {
                by_deadline.insert((at, Key::clone(&key)));
            }
        }
        if old.is_some() {
            *terms.get_mut(&key).expect("the row read above") = new;
        } else {
            all_keys.insert(Key::clone(&key));
            terms.insert(key, new);
        }
    }

    /// Drop a key from every index. Returns whether it was indexed. This is
    /// the invalidation path stores call on TTL expiration.
    pub fn remove(&self, key: &str) -> bool {
        self.inner.write().unindex(key)
    }

    /// Dump the whole index as per-key entries, sorted by key (one read
    /// lock). The dump is *complete*: restoring it into a fresh index
    /// reproduces every structure exactly — this is the snapshot write
    /// path.
    pub fn export_entries(&self) -> Vec<IndexEntry> {
        let inner = self.inner.read();
        let mut entries: Vec<IndexEntry> = inner
            .terms
            .iter()
            .map(|(key, t)| {
                let owned = |terms: &[Key]| terms.iter().map(|t| t.to_string()).collect();
                IndexEntry {
                    key: key.to_string(),
                    user: t.user.to_string(),
                    purposes: owned(t.purposes()),
                    objections: owned(t.objections()),
                    sharing: owned(t.sharing()),
                    decision_eligible: t.decision_eligible,
                    deadline_ms: t.deadline_ms,
                }
            })
            .collect();
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        entries
    }

    /// Candidate keys for a predicate. Every [`RecordPredicate`] variant is
    /// index-answerable, so this always returns `Some` — the `Option` stays
    /// in the signature so a future predicate the index cannot cover can
    /// still fall back to the engine's scan path. Candidates are a
    /// *superset-modulo-staleness* of the true matches; callers must
    /// re-verify each fetched record. The keys come back sorted, and as
    /// the index's own shared `Arc<str>`s — a refcount bump per candidate,
    /// not a copy.
    ///
    /// For the *difference-based* predicates (`AllowsPurpose`,
    /// `NotObjecting`, `DecisionEligible`) staleness can also *narrow*
    /// the candidate set: a read racing a metadata write's
    /// store-committed-but-not-yet-reindexed window subtracts the
    /// pre-write objection/opt-out terms, i.e. it serializes before that
    /// write. The narrowing is only ever toward treating an objection or
    /// opt-out as still in force — the privacy-conservative direction —
    /// and closes as soon as the writer's (batched) reindex lands; the
    /// engine is non-transactional by design and makes no linearizability
    /// promise across concurrent writes.
    pub fn keys_for(&self, pred: &RecordPredicate) -> Option<Vec<Key>> {
        fn posting(map: &HashMap<String, BTreeSet<Key>>, term: &str) -> Vec<Key> {
            map.get(term)
                .map(|set| set.iter().cloned().collect())
                .unwrap_or_default()
        }
        let inner = self.inner.read();
        Some(match pred {
            RecordPredicate::User(u) => posting(&inner.by_user, u),
            RecordPredicate::DeclaredPurpose(p) => posting(&inner.by_purpose, p),
            RecordPredicate::AllowsPurpose(p) => {
                match (inner.by_purpose.get(p), inner.by_objection.get(p)) {
                    (None, _) => Vec::new(),
                    (Some(d), None) => d.iter().cloned().collect(),
                    (Some(d), Some(o)) => d.difference(o).cloned().collect(),
                }
            }
            RecordPredicate::SharedWith(s) => posting(&inner.by_sharing, s),
            // Negative predicates are set differences over the live key
            // population: the walk is O(|all_keys|) string compares, but the
            // caller then reads only the matches.
            RecordPredicate::NotObjecting(usage) => match inner.by_objection.get(usage) {
                None => inner.all_keys.iter().cloned().collect(),
                Some(o) => inner.all_keys.difference(o).cloned().collect(),
            },
            RecordPredicate::DecisionEligible => inner.decision_eligible.iter().cloned().collect(),
        })
    }

    /// Keys whose deadline is at or before `now_ms`, in deadline order.
    pub fn expired_keys(&self, now_ms: u64) -> Vec<Key> {
        self.inner
            .read()
            .by_deadline
            .iter()
            .take_while(|(at, _)| *at <= now_ms)
            .map(|(_, key)| Key::clone(key))
            .collect()
    }

    /// The earliest deadline currently indexed.
    pub fn next_deadline_ms(&self) -> Option<u64> {
        self.inner
            .read()
            .by_deadline
            .iter()
            .next()
            .map(|(at, _)| *at)
    }

    /// The indexed deadline of one key.
    pub fn deadline_of(&self, key: &str) -> Option<u64> {
        self.inner.read().terms.get(key).and_then(|t| t.deadline_ms)
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.inner.read().terms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop everything.
    pub fn clear(&self) {
        *self.inner.write() = Inner::default();
    }

    // ---- term-level inspection (tests, space accounting, diagnostics) ----

    /// True when `key` appears in *no* inverted index and no deadline —
    /// the invariant after invalidation.
    pub fn fully_absent(&self, key: &str) -> bool {
        let inner = self.inner.read();
        !inner.terms.contains_key(key)
            && !inner.by_user.values().any(|s| s.contains(key))
            && !inner.by_purpose.values().any(|s| s.contains(key))
            && !inner.by_objection.values().any(|s| s.contains(key))
            && !inner.by_sharing.values().any(|s| s.contains(key))
            && !inner.all_keys.contains(key)
            && !inner.decision_eligible.contains(key)
            && !inner.by_deadline.iter().any(|(_, k)| k.as_ref() == key)
    }

    /// Approximate footprint, for space-overhead visibility (the engine's
    /// analogue of the paper's Table 3 index cost).
    pub fn size_bytes(&self) -> usize {
        let inner = self.inner.read();
        let map_bytes = |m: &HashMap<String, BTreeSet<Key>>| {
            m.iter()
                // A shared key costs a pointer + refcount word per
                // membership, not a copy of its bytes.
                .map(|(term, keys)| term.len() + keys.len() * 16)
                .sum::<usize>()
        };
        map_bytes(&inner.by_user)
            + map_bytes(&inner.by_purpose)
            + map_bytes(&inner.by_objection)
            + map_bytes(&inner.by_sharing)
            + inner.all_keys.len() * 16
            + inner.decision_eligible.len() * 16
            + inner.by_deadline.len() * 24
            + inner
                .terms
                .iter()
                .map(|(k, t)| {
                    k.len()
                        + t.user.len()
                        + t.term_lists.iter().map(|t| t.len()).sum::<usize>()
                        + 16
                })
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Metadata;
    use std::time::Duration;

    fn record(key: &str, user: &str, purposes: &[&str], ttl_secs: Option<u64>) -> PersonalRecord {
        let mut m = Metadata::new(
            user,
            purposes.iter().map(|s| s.to_string()).collect(),
            Duration::from_secs(ttl_secs.unwrap_or(1)),
        );
        if ttl_secs.is_none() {
            m.ttl = None;
        }
        PersonalRecord::new(key, "d", m)
    }

    fn expired(idx: &MetadataIndex, now_ms: u64) -> Vec<String> {
        let keys = idx.expired_keys(now_ms);
        keys.iter().map(|k| k.to_string()).collect()
    }

    #[test]
    fn upsert_and_lookup_all_dimensions() {
        let idx = MetadataIndex::new();
        let mut r = record("k1", "neo", &["ads", "2fa"], Some(60));
        r.metadata.objections.push("ads".into());
        r.metadata.sharing.push("x-corp".into());
        idx.upsert(&r, 1_000, false);
        idx.upsert(&record("k2", "neo", &["ads"], None), 1_000, false);

        let both = Some(vec!["k1".into(), "k2".into()]);
        assert_eq!(idx.keys_for(&RecordPredicate::User("neo".into())), both);
        assert_eq!(
            idx.keys_for(&RecordPredicate::DeclaredPurpose("ads".into())),
            both
        );
        let k1 = Some(vec!["k1".into()]);
        assert_eq!(
            idx.keys_for(&RecordPredicate::DeclaredPurpose("2fa".into())),
            k1
        );
        assert_eq!(
            idx.keys_for(&RecordPredicate::SharedWith("x-corp".into())),
            k1
        );
        assert_eq!(idx.deadline_of("k1"), Some(61_000));
        assert_eq!(idx.deadline_of("k2"), None);
        assert_eq!(idx.len(), 2);

        // AllowsPurpose = declared minus objecting.
        assert_eq!(
            idx.keys_for(&RecordPredicate::AllowsPurpose("ads".into())),
            Some(vec!["k2".into()])
        );
        // Negative predicates resolve as set differences over all_keys.
        assert_eq!(
            idx.keys_for(&RecordPredicate::NotObjecting("ads".into())),
            Some(vec!["k2".into()])
        );
        assert_eq!(
            idx.keys_for(&RecordPredicate::NotObjecting("spam".into())),
            Some(vec!["k1".into(), "k2".into()])
        );
        assert_eq!(
            idx.keys_for(&RecordPredicate::DecisionEligible),
            Some(vec!["k1".into(), "k2".into()])
        );
    }

    #[test]
    fn every_predicate_variant_is_index_answerable() {
        let idx = MetadataIndex::new();
        idx.upsert(&record("k1", "neo", &["ads"], None), 0, false);
        for pred in [
            RecordPredicate::User("neo".into()),
            RecordPredicate::DeclaredPurpose("ads".into()),
            RecordPredicate::AllowsPurpose("ads".into()),
            RecordPredicate::NotObjecting("ads".into()),
            RecordPredicate::DecisionEligible,
            RecordPredicate::SharedWith("x".into()),
        ] {
            assert!(
                idx.keys_for(&pred).is_some(),
                "{pred:?} must be index-answerable"
            );
        }
    }

    #[test]
    fn decision_opt_out_leaves_the_eligible_set() {
        let idx = MetadataIndex::new();
        let mut r = record("k1", "neo", &["ads"], None);
        idx.upsert(&r, 0, false);
        assert_eq!(
            idx.keys_for(&RecordPredicate::DecisionEligible),
            Some(vec!["k1".into()])
        );
        r.metadata.decisions.push(Metadata::DEC_OPT_OUT.to_string());
        idx.upsert(&r, 0, false);
        assert_eq!(
            idx.keys_for(&RecordPredicate::DecisionEligible),
            Some(vec![])
        );
        // The key is still live, just ineligible.
        assert_eq!(
            idx.keys_for(&RecordPredicate::NotObjecting("ads".into())),
            Some(vec!["k1".into()])
        );
    }

    /// A batch applied in one lock acquisition leaves the index in exactly
    /// the state the equivalent per-record call sequence would — including
    /// keep-deadline upserts and same-key reordering within the batch.
    #[test]
    fn batch_apply_matches_per_record_sequence() {
        let per_record = MetadataIndex::new();
        let batched = MetadataIndex::new();

        let mut r1 = record("k1", "neo", &["ads"], Some(10));
        r1.metadata.objections.push("ads".into());
        let r2 = record("k2", "trinity", &["2fa"], Some(20));
        let mut r2b = r2.clone();
        r2b.metadata.sharing.push("x-corp".into());

        per_record.upsert(&r1, 0, false);
        per_record.upsert(&r2, 0, false);
        per_record.upsert(&r2b, 5_000, true); // rewrite keeping the deadline
        per_record.remove("k1");
        per_record.upsert_with_deadline(&r1, Some(42_000));

        let mut batch = IndexBatch::new();
        batch.upsert(r1.clone(), 0, false);
        batch.upsert(r2.clone(), 0, false);
        batch.upsert(r2b.clone(), 5_000, true);
        batch.remove("k1");
        batch.upsert_at(r1.clone(), Some(42_000));
        assert_eq!(batch.len(), 5);
        assert_eq!(batched.apply(batch), 5);

        for pred in [
            RecordPredicate::User("neo".into()),
            RecordPredicate::User("trinity".into()),
            RecordPredicate::DeclaredPurpose("ads".into()),
            RecordPredicate::AllowsPurpose("ads".into()),
            RecordPredicate::NotObjecting("ads".into()),
            RecordPredicate::DecisionEligible,
            RecordPredicate::SharedWith("x-corp".into()),
        ] {
            assert_eq!(
                batched.keys_for(&pred),
                per_record.keys_for(&pred),
                "batch and per-record disagree on {pred:?}"
            );
        }
        for key in ["k1", "k2"] {
            assert_eq!(batched.deadline_of(key), per_record.deadline_of(key));
        }
        assert_eq!(batched.deadline_of("k1"), Some(42_000));
        assert_eq!(
            batched.deadline_of("k2"),
            Some(20_000),
            "kept, not re-armed"
        );
        assert_eq!(batched.len(), per_record.len());
        assert_eq!(MetadataIndex::new().apply(IndexBatch::new()), 0);
    }

    #[test]
    fn remove_clears_every_structure() {
        let idx = MetadataIndex::new();
        let mut r = record("k1", "neo", &["ads"], Some(10));
        r.metadata.objections.push("spam".into());
        r.metadata.sharing.push("x".into());
        idx.upsert(&r, 0, false);
        assert!(!idx.fully_absent("k1"));
        assert!(idx.remove("k1"));
        assert!(idx.fully_absent("k1"));
        assert!(!idx.remove("k1"), "second removal is a no-op");
        assert!(idx.is_empty());
        assert_eq!(idx.next_deadline_ms(), None);
    }

    #[test]
    fn reindex_replaces_stale_terms() {
        let idx = MetadataIndex::new();
        let mut r = record("k1", "neo", &["ads"], Some(10));
        idx.upsert(&r, 0, false);
        r.metadata.user = "smith".into();
        r.metadata.purposes = vec!["2fa".into()];
        idx.upsert(&r, 0, false);
        let keys = |pred| idx.keys_for(&pred).unwrap();
        assert!(keys(RecordPredicate::User("neo".into())).is_empty());
        assert_eq!(
            keys(RecordPredicate::User("smith".into())),
            vec!["k1".into()]
        );
        assert!(keys(RecordPredicate::DeclaredPurpose("ads".into())).is_empty());
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn deadline_preserved_across_rewrite_when_requested() {
        let idx = MetadataIndex::new();
        let r = record("k1", "neo", &["ads"], Some(10));
        idx.upsert(&r, 0, false);
        assert_eq!(idx.deadline_of("k1"), Some(10_000));
        // Rewrite later without TTL change: deadline must not slide.
        idx.upsert(&r, 5_000, true);
        assert_eq!(idx.deadline_of("k1"), Some(10_000));
        // Rewrite with TTL re-armed: deadline recomputed from now.
        idx.upsert(&r, 5_000, false);
        assert_eq!(idx.deadline_of("k1"), Some(15_000));
    }

    #[test]
    fn expiry_order_and_cutoff() {
        let idx = MetadataIndex::new();
        idx.upsert(&record("a", "u", &[], Some(5)), 0, false);
        idx.upsert(&record("b", "u", &[], Some(1)), 0, false);
        idx.upsert(&record("c", "u", &[], Some(9)), 0, false);
        idx.upsert(&record("d", "u", &[], None), 0, false);
        assert_eq!(idx.next_deadline_ms(), Some(1_000));
        assert_eq!(expired(&idx, 4_999), vec!["b"]);
        assert_eq!(expired(&idx, 5_000), vec!["b", "a"]);
        assert_eq!(expired(&idx, u64::MAX), vec!["b", "a", "c"]);
        assert!(idx.expired_keys(999).is_empty());
    }

    #[test]
    fn size_bytes_tracks_content() {
        let idx = MetadataIndex::new();
        assert_eq!(idx.size_bytes(), 0);
        idx.upsert(&record("k1", "neo", &["ads"], Some(10)), 0, false);
        let one = idx.size_bytes();
        assert!(one > 0);
        idx.upsert(
            &record("k2", "trinity", &["ads", "2fa"], Some(10)),
            0,
            false,
        );
        assert!(idx.size_bytes() > one);
        idx.clear();
        assert_eq!(idx.size_bytes(), 0);
    }
}
