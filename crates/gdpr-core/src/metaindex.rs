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
//! Every indexed key has a dense `u32` **slot**, and every structure but
//! the key → slot map holds slots, not keys: a posting is a slot-sorted
//! list up to [`DENSE_AT`] members and a bitmap over the slot space
//! above that, the all-keys and eligibility sets are bitmaps, and the
//! deadline set orders `(deadline, slot)` pairs. Maintaining a membership
//! is a bit flip or a short-list insert, not a walk of a tree of
//! heap-allocated keys. A removed key's slot goes on a LIFO free list,
//! so a key re-created right after its delete lands on a slot whose
//! cache lines are still hot.
//!
//! Coverage is total: [`MetadataIndex::keys_for`] answers **every**
//! [`RecordPredicate`] variant. The two negative predicates resolve as set
//! algebra over the live key population — `NotObjecting(usage)` is the
//! live set filtered by `objecting(usage)`, and `DecisionEligible` is a
//! directly maintained set (keys without the G22 opt-out marker) — so even
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
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A key or a metadata term, allocated once and shared. A key's one
/// allocation is held by the key → slot map and by its row; a term's by
/// its posting map and by every row that carries it, so a fresh upsert
/// allocates its key and nothing per term the index has seen before.
type Key = Arc<str>;

/// A key's dense position: its row in [`Inner::rows`] and its bit in
/// every bitmap.
type Slot = u32;

/// A posting holds up to this many slots as a sorted list; past it, a
/// bitmap over the slot space. It goes back to a list once it drains to
/// half this, so a posting that hovers at the boundary does not convert
/// on every write.
const DENSE_AT: usize = 64;

/// A set of slots, one bit each.
#[derive(Debug, Clone, Default)]
struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    fn contains(&self, slot: Slot) -> bool {
        let (word, bit) = (slot as usize / 64, slot % 64);
        self.words.get(word).is_some_and(|w| w >> bit & 1 != 0)
    }

    fn insert(&mut self, slot: Slot) {
        let (word, bit) = (slot as usize / 64, 1u64 << (slot % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        if self.words[word] & bit == 0 {
            self.words[word] |= bit;
            self.len += 1;
        }
    }

    fn remove(&mut self, slot: Slot) {
        let (word, bit) = (slot as usize / 64, 1u64 << (slot % 64));
        if let Some(w) = self.words.get_mut(word).filter(|w| **w & bit != 0) {
            *w &= !bit;
            self.len -= 1;
        }
    }

    /// The slots, ascending.
    fn iter(&self) -> impl Iterator<Item = Slot> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let base = (i * 64) as Slot;
            let first = (word != 0).then_some(word);
            std::iter::successors(first, |&w| Some(w & (w - 1)).filter(|&w| w != 0))
                .map(move |w| base + w.trailing_zeros())
        })
    }

    fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

impl FromIterator<Slot> for Bitmap {
    fn from_iter<I: IntoIterator<Item = Slot>>(slots: I) -> Bitmap {
        let mut bits = Bitmap::default();
        slots.into_iter().for_each(|slot| bits.insert(slot));
        bits
    }
}

/// The slots under one term: a sorted list while short, a bitmap once
/// past [`DENSE_AT`] members.
#[derive(Debug, Clone)]
enum Posting {
    Sparse(Vec<Slot>),
    Dense(Bitmap),
}

impl Posting {
    /// The posting of `slots`, which are ascending and distinct.
    fn of(slots: Vec<Slot>) -> Posting {
        if slots.len() <= DENSE_AT {
            Posting::Sparse(slots)
        } else {
            Posting::Dense(slots.into_iter().collect())
        }
    }

    fn len(&self) -> usize {
        match self {
            Posting::Sparse(slots) => slots.len(),
            Posting::Dense(bits) => bits.len,
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn contains(&self, slot: Slot) -> bool {
        match self {
            Posting::Sparse(slots) => slots.binary_search(&slot).is_ok(),
            Posting::Dense(bits) => bits.contains(slot),
        }
    }

    fn insert(&mut self, slot: Slot) {
        match self {
            Posting::Sparse(slots) => {
                if let Err(at) = slots.binary_search(&slot) {
                    slots.insert(at, slot);
                    if slots.len() > DENSE_AT {
                        *self = Posting::of(std::mem::take(slots));
                    }
                }
            }
            Posting::Dense(bits) => bits.insert(slot),
        }
    }

    fn remove(&mut self, slot: Slot) {
        match self {
            Posting::Sparse(slots) => {
                if let Ok(at) = slots.binary_search(&slot) {
                    slots.remove(at);
                }
            }
            Posting::Dense(bits) => {
                bits.remove(slot);
                if bits.len <= DENSE_AT / 2 {
                    *self = Posting::Sparse(bits.iter().collect());
                }
            }
        }
    }

    /// The slots, ascending.
    fn iter(&self) -> impl Iterator<Item = Slot> + '_ {
        let (list, bits) = match self {
            Posting::Sparse(slots) => (slots.as_slice(), None),
            Posting::Dense(bits) => (&[][..], Some(bits)),
        };
        list.iter()
            .copied()
            .chain(bits.into_iter().flat_map(Bitmap::iter))
    }

    fn size_bytes(&self) -> usize {
        match self {
            Posting::Sparse(slots) => slots.len() * std::mem::size_of::<Slot>(),
            Posting::Dense(bits) => bits.size_bytes(),
        }
    }
}

/// What was indexed for one key — kept so removal needs no record fetch
/// (the record may already be gone from the store when invalidation runs).
/// Terms are the posting maps' own `Arc<str>`s: the vocabulary (users,
/// purposes, usage and party names) repeats across records, so each
/// distinct term is allocated once — and the user and the three term
/// lists live in **one** packed allocation (`user ‖ purposes ‖
/// objections ‖ sharing`, delimited by the two end offsets), since a
/// record typically carries only a handful of terms total.
#[derive(Debug, Clone)]
struct IndexedTerms {
    /// `user ‖ purposes ‖ objections ‖ sharing`, packed.
    terms: Box<[Key]>,
    purposes_end: u32,
    objections_end: u32,
    /// Whether the key sits in the decision-eligibility set. Recorded here
    /// (not re-derived) so the per-key terms are a complete, dumpable image
    /// of the index — [`MetadataIndex::export_entries`] serializes exactly
    /// these rows and the snapshot restore rebuilds every map from them.
    decision_eligible: bool,
    deadline_ms: Option<u64>,
}

impl IndexedTerms {
    /// The user, as a one-term list.
    fn user(&self) -> &[Key] {
        &self.terms[..1]
    }

    fn purposes(&self) -> &[Key] {
        &self.terms[1..self.purposes_end as usize]
    }

    fn objections(&self) -> &[Key] {
        &self.terms[self.purposes_end as usize..self.objections_end as usize]
    }

    fn sharing(&self) -> &[Key] {
        &self.terms[self.objections_end as usize..]
    }

    /// Pack `user ‖ purposes ‖ objections ‖ sharing`, concatenated in
    /// `terms`, with the lengths of the purpose and objection lists.
    fn packed(
        terms: Vec<Key>,
        purposes: usize,
        objections: usize,
        decision_eligible: bool,
        deadline_ms: Option<u64>,
    ) -> IndexedTerms {
        IndexedTerms {
            terms: terms.into_boxed_slice(),
            purposes_end: 1 + purposes as u32,
            objections_end: (1 + purposes + objections) as u32,
            decision_eligible,
            deadline_ms,
        }
    }
}

type Postings = HashMap<Key, Posting>;

/// One of a row's term lists: [`IndexedTerms::user`], `purposes`, ….
type TermList = fn(&IndexedTerms) -> &[Key];

#[derive(Default)]
struct Inner {
    by_user: Postings,
    by_purpose: Postings,
    by_objection: Postings,
    by_sharing: Postings,
    /// Every live slot — the universe the negative predicates filter
    /// (`NotObjecting` = live slots not objecting).
    live: Bitmap,
    /// Slots eligible for automated decision-making (no G22 opt-out
    /// marker) — `DecisionEligible` reads this set directly.
    decision_eligible: Bitmap,
    /// `(absolute deadline ms, slot)`, ordered — expired prefixes pop in
    /// O(expired · log n).
    by_deadline: BTreeSet<(u64, Slot)>,
    /// Key → slot: the one structure addressed by key.
    slots: HashMap<Key, Slot>,
    /// Slot → the key and what was indexed for it; `None` for a free slot.
    rows: Vec<Option<(Key, IndexedTerms)>>,
    /// Free slots, reused last-freed first.
    free: Vec<Slot>,
}

impl Inner {
    /// The key at a live slot.
    fn key(&self, slot: Slot) -> Key {
        let (key, _) = self.rows[slot as usize]
            .as_ref()
            .expect("an indexed slot has a row");
        Key::clone(key)
    }

    /// The keys at `slots`, which are live.
    fn keys(&self, slots: impl Iterator<Item = Slot>) -> Vec<Key> {
        slots.map(|slot| self.key(slot)).collect()
    }

    /// The keys at `slots` that are not in `objecting`, the posting of
    /// the keys objecting to a usage.
    fn keys_not_objecting(
        &self,
        slots: impl Iterator<Item = Slot>,
        objecting: Option<&Posting>,
    ) -> Vec<Key> {
        match objecting {
            None => self.keys(slots),
            Some(objecting) => self.keys(slots.filter(|&slot| !objecting.contains(slot))),
        }
    }

    /// A slot for a key the index does not hold yet, marked live; its row
    /// stays empty until the caller fills it.
    fn claim(&mut self, key: &str) -> (Slot, Key) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.rows.push(None);
            Slot::try_from(self.rows.len() - 1).expect("fewer than 2^32 indexed keys")
        });
        let key = Key::from(key);
        self.slots.insert(Key::clone(&key), slot);
        self.live.insert(slot);
        (slot, key)
    }

    fn unindex(&mut self, key: &str) -> bool {
        let Some(slot) = self.slots.remove(key) else {
            return false;
        };
        let (_, terms) = self.rows[slot as usize]
            .take()
            .expect("a mapped slot has a row");
        let lists: [(&mut Postings, TermList); 4] = [
            (&mut self.by_user, IndexedTerms::user),
            (&mut self.by_purpose, IndexedTerms::purposes),
            (&mut self.by_objection, IndexedTerms::objections),
            (&mut self.by_sharing, IndexedTerms::sharing),
        ];
        for (map, list) in lists {
            list(&terms).iter().for_each(|term| detach(map, term, slot));
        }
        self.live.remove(slot);
        self.decision_eligible.remove(slot);
        if let Some(at) = terms.deadline_ms {
            self.by_deadline.remove(&(at, slot));
        }
        self.free.push(slot);
        true
    }
}

/// Drop `slot` from under `term`, and the term once no key carries it.
fn detach(map: &mut Postings, term: &str, slot: Slot) {
    if let Some(posting) = map.get_mut(term) {
        posting.remove(slot);
        if posting.is_empty() {
            map.remove(term);
        }
    }
}

/// Add `slot` under `term` and return the map's `Arc` for the term; a
/// term no key carried enters the map.
fn attach(map: &mut Postings, term: &str, slot: Slot) -> Key {
    let Some((shared, _)) = map.get_key_value(term) else {
        let term = Key::from(term);
        map.insert(Key::clone(&term), Posting::Sparse(vec![slot]));
        return term;
    };
    let shared = Key::clone(shared);
    map.get_mut(term).expect("the term just found").insert(slot);
    shared
}

/// Move `slot` between the postings of `map` as its terms go from `old`
/// to `new`, and push each new term's shared `Arc` onto `out`: the old
/// row's for a term that stayed, the posting map's for one that joined.
/// Terms that left are detached, terms that stayed are not touched. Set
/// semantics — a term listed twice is one membership.
fn repost(map: &mut Postings, old: &[Key], new: &[String], slot: Slot, out: &mut Vec<Key>) {
    for term in old
        .iter()
        .filter(|term| !new.iter().any(|t| **t == ***term))
    {
        detach(map, term, slot);
    }
    for term in new {
        out.push(match old.iter().find(|kept| ***kept == **term) {
            Some(kept) => Key::clone(kept),
            None => attach(map, term, slot),
        });
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
/// a key performs **no string hashing at all**: a key's slot is its feed
/// position, every membership is a slot pushed onto an array-indexed
/// list, and the only allocation per key is the key itself. Feed entries
/// in key order (the snapshot reader does): each list then arrives
/// sorted and becomes its posting as it is, and a restored index's slot
/// order is its key order.
pub(crate) struct VocabIndexBuilder {
    vocab: Vec<Key>,
    by_user: Vec<Vec<Slot>>,
    by_purpose: Vec<Vec<Slot>>,
    by_objection: Vec<Vec<Slot>>,
    by_sharing: Vec<Vec<Slot>>,
    decision_eligible: Vec<Slot>,
    by_deadline: Vec<(u64, Slot)>,
    rows: Vec<Option<(Key, IndexedTerms)>>,
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
            decision_eligible: Vec::new(),
            by_deadline: Vec::new(),
            rows: Vec::with_capacity(capacity),
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
        fn post_ids(postings: &mut [Vec<Slot>], ids: &[u32], slot: Slot) {
            for &id in ids {
                let posting = &mut postings[id as usize];
                // A term listed twice is one membership.
                if posting.last() != Some(&slot) {
                    posting.push(slot);
                }
            }
        }
        let slot = Slot::try_from(self.rows.len()).expect("fewer than 2^32 indexed keys");
        self.by_user[user_id as usize].push(slot);
        post_ids(&mut self.by_purpose, purposes, slot);
        post_ids(&mut self.by_objection, objections, slot);
        post_ids(&mut self.by_sharing, sharing, slot);
        if decision_eligible {
            self.decision_eligible.push(slot);
        }
        if let Some(at) = deadline_ms {
            self.by_deadline.push((at, slot));
        }
        let vocab = &self.vocab;
        let terms = std::iter::once(&user_id)
            .chain(purposes)
            .chain(objections)
            .chain(sharing)
            .map(|&id| Key::clone(&vocab[id as usize]))
            .collect();
        self.rows.push(Some((
            Key::from(key),
            IndexedTerms::packed(
                terms,
                purposes.len(),
                objections.len(),
                decision_eligible,
                deadline_ms,
            ),
        )));
    }

    pub(crate) fn install(self, index: &MetadataIndex) -> usize {
        let VocabIndexBuilder {
            vocab,
            by_user,
            by_purpose,
            by_objection,
            by_sharing,
            decision_eligible,
            mut by_deadline,
            rows,
        } = self;
        fn to_map(vocab: &[Key], postings: Vec<Vec<Slot>>) -> Postings {
            let mut map = Postings::new();
            for (id, slots) in postings.into_iter().enumerate() {
                if slots.is_empty() {
                    continue;
                }
                // Merge, never overwrite: the snapshot reader rejects
                // duplicate vocab terms, but losing postings silently is
                // the one failure this layer must be incapable of.
                match map.entry(Key::clone(&vocab[id])) {
                    Entry::Occupied(mut merged) => slots
                        .into_iter()
                        .for_each(|slot| merged.get_mut().insert(slot)),
                    Entry::Vacant(fresh) => {
                        fresh.insert(Posting::of(slots));
                    }
                }
            }
            map
        }
        let count = rows.len();
        let built = std::thread::scope(|scope| {
            // Thread: the four posting maps and the slot sets; main
            // thread: the key → slot map (the one hash build).
            let sets = scope.spawn(move || {
                by_deadline.sort_unstable();
                (
                    to_map(&vocab, by_user),
                    to_map(&vocab, by_purpose),
                    to_map(&vocab, by_objection),
                    to_map(&vocab, by_sharing),
                    (0..count as Slot).collect::<Bitmap>(),
                    decision_eligible.into_iter().collect::<Bitmap>(),
                    by_deadline.into_iter().collect::<BTreeSet<(u64, Slot)>>(),
                )
            });
            let mut slots: HashMap<Key, Slot> = HashMap::with_capacity(count);
            slots.extend(rows.iter().zip(0..).map(|(row, slot)| {
                let (key, _) = row.as_ref().expect("every fed slot has a row");
                (Key::clone(key), slot)
            }));
            let (
                by_user,
                by_purpose,
                by_objection,
                by_sharing,
                live,
                decision_eligible,
                by_deadline,
            ) = sets.join().expect("set builder");
            Inner {
                by_user,
                by_purpose,
                by_objection,
                by_sharing,
                live,
                decision_eligible,
                by_deadline,
                slots,
                rows,
                free: Vec::new(),
            }
        });
        *index.inner.write() = built;
        count
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

/// How [`MetadataIndex::lookup`] answers a predicate read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// At least half the store's records are candidates (this many): one
    /// walk over the store reads them all and names none.
    Walk(usize),
    /// Fewer: the candidate keys, distinct, in ascending slot order.
    Keys(Vec<Key>),
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
    /// key → slot probe finds the key's row (a fresh key claims a slot
    /// and diffs against an empty row), and only what differs is touched:
    /// the postings of terms that left or joined the key, the eligibility
    /// bit when eligibility flips, the deadline set when the deadline
    /// moves. The new row shares the old row's `Arc`s for the terms that
    /// stayed and the posting maps' for the terms that joined, so a term
    /// the index holds already costs no allocation. A consent update that
    /// adds one party to a record therefore costs one posting insert, not
    /// a detach and re-attach of every term the record carries.
    fn upsert_locked(inner: &mut Inner, key: &str, m: &Metadata, deadline: Deadline) {
        let (slot, key, old) = match inner.slots.get(key) {
            Some(&slot) => {
                let (key, old) = inner.rows[slot as usize]
                    .take()
                    .expect("a mapped slot has a row");
                (slot, key, Some(old))
            }
            None => {
                let (slot, key) = inner.claim(key);
                (slot, key, None)
            }
        };
        let Inner {
            by_user,
            by_purpose,
            by_objection,
            by_sharing,
            decision_eligible,
            by_deadline,
            rows,
            ..
        } = inner;
        let mut terms =
            Vec::with_capacity(1 + m.purposes.len() + m.objections.len() + m.sharing.len());
        let lists: [(&mut Postings, TermList, &[String]); 4] = [
            (by_user, IndexedTerms::user, std::slice::from_ref(&m.user)),
            (by_purpose, IndexedTerms::purposes, &m.purposes),
            (by_objection, IndexedTerms::objections, &m.objections),
            (by_sharing, IndexedTerms::sharing, &m.sharing),
        ];
        for (map, list, new) in lists {
            let old = old.as_ref().map_or(&[][..], list);
            repost(map, old, new, slot, &mut terms);
        }
        let (was_eligible, old_deadline) = old
            .as_ref()
            .map_or((false, None), |t| (t.decision_eligible, t.deadline_ms));
        let new = IndexedTerms::packed(
            terms,
            m.purposes.len(),
            m.objections.len(),
            m.allows_automated_decisions(),
            match deadline {
                Deadline::At(at) => at,
                Deadline::Keep => old_deadline,
            },
        );
        if new.decision_eligible != was_eligible {
            if new.decision_eligible {
                decision_eligible.insert(slot);
            } else {
                decision_eligible.remove(slot);
            }
        }
        if new.deadline_ms != old_deadline {
            if let Some(at) = old_deadline {
                by_deadline.remove(&(at, slot));
            }
            if let Some(at) = new.deadline_ms {
                by_deadline.insert((at, slot));
            }
        }
        rows[slot as usize] = Some((key, new));
    }

    /// Drop a key from every index and free its slot. Returns whether it
    /// was indexed. This is the invalidation path stores call on TTL
    /// expiration.
    pub fn remove(&self, key: &str) -> bool {
        self.inner.write().unindex(key)
    }

    /// Dump the whole index as per-key entries, sorted by key (one read
    /// lock). The dump is *complete*: restoring it into a fresh index
    /// reproduces every structure exactly — this is the snapshot write
    /// path.
    pub fn export_entries(&self) -> Vec<IndexEntry> {
        let inner = self.inner.read();
        let mut entries: Vec<IndexEntry> = (inner.rows.iter().flatten())
            .map(|(key, t)| {
                let owned = |terms: &[Key]| terms.iter().map(|t| t.to_string()).collect();
                IndexEntry {
                    key: key.to_string(),
                    user: t.user()[0].to_string(),
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
    /// re-verify each fetched record. The keys are distinct and come back
    /// in ascending **slot** order, not key order (a restored index's slot
    /// order is its key order, but freed slots are reused), as the index's
    /// own shared `Arc<str>`s.
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
        // No candidate count reaches half of `usize::MAX` records, so the
        // lookup always names the candidates.
        match self.lookup(pred, usize::MAX) {
            Lookup::Keys(keys) => Some(keys),
            Lookup::Walk(_) => None,
        }
    }

    /// How to read `pred`'s matches from a store of `records` records,
    /// decided and answered under one read lock with one posting lookup:
    /// [`Lookup::Walk`] when the candidates are at least half the records
    /// (`2 × count ≥ records`), else the candidate keys as [`Self::keys_for`]
    /// hands them out — none at all when no key is a candidate, so the
    /// engine makes no store call. The count is exact for every predicate
    /// but `AllowsPurpose`, where it is the declared count, an upper bound
    /// (the objectors among them are not subtracted).
    pub fn lookup(&self, pred: &RecordPredicate, records: usize) -> Lookup {
        let inner = self.inner.read();
        let walk = |count: usize| count > 0 && 2 * count >= records;
        let decide = |count: usize, keys: &dyn Fn() -> Vec<Key>| {
            if walk(count) {
                Lookup::Walk(count)
            } else {
                Lookup::Keys(if count == 0 { Vec::new() } else { keys() })
            }
        };
        let posting = |map: &Postings, term: &str| match map.get(term) {
            None => Lookup::Keys(Vec::new()),
            Some(posting) => decide(posting.len(), &|| inner.keys(posting.iter())),
        };
        match pred {
            RecordPredicate::User(u) => posting(&inner.by_user, u),
            RecordPredicate::DeclaredPurpose(p) => posting(&inner.by_purpose, p),
            RecordPredicate::SharedWith(s) => posting(&inner.by_sharing, s),
            RecordPredicate::AllowsPurpose(p) => match inner.by_purpose.get(p.as_str()) {
                None => Lookup::Keys(Vec::new()),
                Some(declared) => decide(declared.len(), &|| {
                    inner.keys_not_objecting(declared.iter(), inner.by_objection.get(p.as_str()))
                }),
            },
            // Negative predicates filter the live slots: the walk is
            // O(live keys) bit tests, but the caller then reads only the
            // matches.
            RecordPredicate::NotObjecting(usage) => {
                let objecting = inner.by_objection.get(usage.as_str());
                let count = inner.live.len - objecting.map_or(0, Posting::len);
                decide(count, &|| {
                    inner.keys_not_objecting(inner.live.iter(), objecting)
                })
            }
            RecordPredicate::DecisionEligible => decide(inner.decision_eligible.len, &|| {
                inner.keys(inner.decision_eligible.iter())
            }),
        }
    }

    /// Keys whose deadline is at or before `now_ms`, in deadline order.
    pub fn expired_keys(&self, now_ms: u64) -> Vec<Key> {
        let inner = self.inner.read();
        (inner.by_deadline.iter())
            .take_while(|(at, _)| *at <= now_ms)
            .map(|&(_, slot)| inner.key(slot))
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
        let inner = self.inner.read();
        let &slot = inner.slots.get(key)?;
        let (_, terms) = inner.rows[slot as usize].as_ref()?;
        terms.deadline_ms
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.inner.read().slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop everything.
    pub fn clear(&self) {
        *self.inner.write() = Inner::default();
    }

    // ---- term-level inspection (tests, space accounting, diagnostics) ----

    /// True when `key` is not indexed and no posting, bitmap or deadline
    /// entry holds a slot that is not live — the invariant after
    /// invalidation: a freed slot is cleared from every structure.
    pub fn fully_absent(&self, key: &str) -> bool {
        let inner = self.inner.read();
        let live = |slot: Slot| {
            inner.live.contains(slot) && inner.rows.get(slot as usize).is_some_and(Option::is_some)
        };
        let postings = [
            &inner.by_user,
            &inner.by_purpose,
            &inner.by_objection,
            &inner.by_sharing,
        ];
        !inner.slots.contains_key(key)
            && inner.rows.iter().flatten().all(|(k, _)| **k != *key)
            && inner.live.len == inner.slots.len()
            && inner.live.iter().all(live)
            && postings
                .iter()
                .all(|map| map.values().all(|posting| posting.iter().all(live)))
            && inner.decision_eligible.iter().all(live)
            && inner.by_deadline.iter().all(|&(_, slot)| live(slot))
    }

    /// Approximate footprint, for space-overhead visibility (the engine's
    /// analogue of the paper's Table 3 index cost): each distinct term's
    /// bytes once, a posting's slots or bits, the slot sets' bits, and per
    /// key its bytes, its slot, its deadline entry and a pointer per term
    /// it carries.
    pub fn size_bytes(&self) -> usize {
        let inner = self.inner.read();
        let map_bytes = |m: &Postings| {
            (m.iter())
                .map(|(term, posting)| term.len() + posting.size_bytes())
                .sum::<usize>()
        };
        let pointer = std::mem::size_of::<Key>();
        map_bytes(&inner.by_user)
            + map_bytes(&inner.by_purpose)
            + map_bytes(&inner.by_objection)
            + map_bytes(&inner.by_sharing)
            + inner.live.size_bytes()
            + inner.decision_eligible.size_bytes()
            + inner.by_deadline.len() * std::mem::size_of::<(u64, Slot)>()
            + inner.slots.len() * std::mem::size_of::<Slot>()
            + (inner.rows.iter().flatten())
                .map(|(key, t)| key.len() + pointer * t.terms.len())
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

    /// The model's view of the index: key → (metadata, indexed deadline).
    type Model = std::collections::BTreeMap<String, (Metadata, Option<u64>)>;

    const USERS: &[&str] = &["neo", "trinity", "smith"];
    const PURPOSES: &[&str] = &["ads", "2fa", "mail", "wide"];
    const USAGES: &[&str] = &["ads", "mail", "spam"];
    const PARTIES: &[&str] = &["x-corp", "y-corp"];

    /// xorshift64*: a seeded stream with no dependency.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
        }

        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }

        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            from[self.below(from.len())]
        }

        /// Up to `max` terms from `from`, repeats allowed.
        fn terms(&mut self, from: &[&str], max: usize) -> Vec<String> {
            (0..self.below(max + 1))
                .map(|_| self.pick(from).to_string())
                .collect()
        }

        fn metadata(&mut self) -> Metadata {
            let mut purposes = self.terms(&PURPOSES[..3], 2);
            if self.chance(70) {
                purposes.push("wide".into());
            }
            let mut m = Metadata::new(
                self.pick(USERS),
                purposes,
                Duration::from_secs(1 + self.below(100) as u64),
            );
            if self.chance(20) {
                m.ttl = None;
            }
            m.objections = self.terms(USAGES, 2);
            m.sharing = self.terms(PARTIES, 2);
            if self.chance(20) {
                m.decisions.push(Metadata::DEC_OPT_OUT.to_string());
            }
            m
        }
    }

    fn model_upsert(model: &mut Model, key: &str, m: &Metadata, deadline: Deadline) {
        let at = match deadline {
            Deadline::At(at) => at,
            Deadline::Keep => model.get(key).and_then(|(_, at)| *at),
        };
        model.insert(key.to_string(), (m.clone(), at));
    }

    fn predicates() -> Vec<RecordPredicate> {
        let absent = |terms: &[&str]| {
            let mut terms: Vec<String> = terms.iter().map(|t| t.to_string()).collect();
            terms.push("absent".into());
            terms
        };
        let mut preds = vec![RecordPredicate::DecisionEligible];
        preds.extend(absent(USERS).into_iter().map(RecordPredicate::User));
        for p in absent(PURPOSES) {
            preds.push(RecordPredicate::DeclaredPurpose(p.clone()));
            preds.push(RecordPredicate::AllowsPurpose(p));
        }
        preds.extend(
            absent(USAGES)
                .into_iter()
                .map(RecordPredicate::NotObjecting),
        );
        preds.extend(absent(PARTIES).into_iter().map(RecordPredicate::SharedWith));
        preds
    }

    /// Every answer of `idx` against the model: each predicate's
    /// candidates as a set and in ascending slot order, and the lookup's
    /// walk-or-name verdict and count at and around the walk threshold,
    /// the expired keys (in deadline order) at several instants, every
    /// pool key's deadline, the size, the dump, and that a term no key
    /// carries is dropped.
    fn check(idx: &MetadataIndex, model: &Model, pool: &[String], ctx: &str) {
        let records: Vec<PersonalRecord> = (model.iter())
            .map(|(key, (m, _))| PersonalRecord::new(key.as_str(), "d", m.clone()))
            .collect();
        for pred in predicates() {
            let got = idx.keys_for(&pred).expect("every predicate is answerable");
            let slots: Vec<Slot> = {
                let inner = idx.inner.read();
                got.iter().map(|key| inner.slots[key]).collect()
            };
            assert!(
                slots.windows(2).all(|w| w[0] < w[1]),
                "{ctx}: {pred:?} not in ascending slot order: {slots:?}"
            );
            // The count is exact, but for `AllowsPurpose`: the declared
            // count, an upper bound.
            let counted = match &pred {
                RecordPredicate::AllowsPurpose(p) => {
                    let declared = RecordPredicate::DeclaredPurpose(p.clone());
                    records.iter().filter(|r| declared.matches(r)).count()
                }
                _ => got.len(),
            };
            let indexed = idx.len();
            for (n, want) in [
                (usize::MAX, Lookup::Keys(got.clone())),
                (2 * counted, Lookup::Walk(counted)),
                (2 * counted + 1, Lookup::Keys(got.clone())),
            ] {
                // No candidate at all is never a walk.
                let want = if counted == 0 {
                    Lookup::Keys(Vec::new())
                } else {
                    want
                };
                assert_eq!(idx.lookup(&pred, n), want, "{ctx}: {pred:?} over {n}");
            }
            let walks = counted > 0 && 2 * counted >= indexed;
            assert_eq!(
                matches!(idx.lookup(&pred, indexed), Lookup::Walk(_)),
                walks,
                "{ctx}: {pred:?} over the index's own {indexed} keys"
            );
            let mut got: Vec<String> = got.iter().map(|key| key.to_string()).collect();
            got.sort();
            let want: Vec<String> = (records.iter())
                .filter(|r| pred.matches(r))
                .map(|r| r.key.clone())
                .collect();
            assert_eq!(got, want, "{ctx}: {pred:?}");
        }
        for now in [0, 30_000, 60_000, u64::MAX] {
            let due = idx.expired_keys(now);
            let at: Vec<u64> = due.iter().map(|key| model[&**key].1.unwrap()).collect();
            assert!(at.windows(2).all(|w| w[0] <= w[1]), "{ctx}: deadline order");
            let mut due: Vec<String> = due.iter().map(|key| key.to_string()).collect();
            due.sort();
            let want: Vec<String> = (model.iter())
                .filter(|(_, (_, at))| at.is_some_and(|at| at <= now))
                .map(|(key, _)| key.clone())
                .collect();
            assert_eq!(due, want, "{ctx}: expired at {now}");
        }
        let next = model.values().filter_map(|(_, at)| *at).min();
        assert_eq!(idx.next_deadline_ms(), next, "{ctx}");
        for key in pool {
            let want = model.get(key).and_then(|(_, at)| *at);
            assert_eq!(idx.deadline_of(key), want, "{ctx}: deadline of {key}");
        }
        assert_eq!(idx.len(), model.len(), "{ctx}");
        let entries: Vec<IndexEntry> = (model.iter())
            .map(|(key, (m, at))| IndexEntry {
                key: key.clone(),
                user: m.user.clone(),
                purposes: m.purposes.clone(),
                objections: m.objections.clone(),
                sharing: m.sharing.clone(),
                decision_eligible: m.allows_automated_decisions(),
                deadline_ms: *at,
            })
            .collect();
        assert_eq!(idx.export_entries(), entries, "{ctx}");
        let inner = idx.inner.read();
        let terms = |map: &Postings| map.keys().map(|t| t.to_string()).collect::<BTreeSet<_>>();
        let carried = |of: &dyn Fn(&Metadata) -> Vec<String>| {
            model
                .values()
                .flat_map(|(m, _)| of(m))
                .collect::<BTreeSet<_>>()
        };
        assert_eq!(terms(&inner.by_user), carried(&|m| vec![m.user.clone()]));
        assert_eq!(terms(&inner.by_purpose), carried(&|m| m.purposes.clone()));
        assert_eq!(
            terms(&inner.by_objection),
            carried(&|m| m.objections.clone())
        );
        assert_eq!(terms(&inner.by_sharing), carried(&|m| m.sharing.clone()));
    }

    /// `idx` written as a snapshot image and restored into a fresh index.
    fn restored(idx: &MetadataIndex, tag: &str) -> MetadataIndex {
        use crate::snapshot::{encode_sections, restore_or_rebuild_tenants, SnapshotStamp};
        let stamp = SnapshotStamp::unsharded(Some(1));
        let path =
            std::env::temp_dir().join(format!("metaindex-model-{}-{tag}.snap", std::process::id()));
        let image = encode_sections(&[(String::new(), idx.export_entries())], &stamp);
        std::fs::write(&path, image).unwrap();
        let fresh = Arc::new(MetadataIndex::new());
        let recovery = restore_or_rebuild_tenants(
            &path,
            &stamp,
            &mut |_| Ok(Arc::clone(&fresh)),
            || -> Result<usize, ()> { panic!("an image just written must restore") },
        );
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            recovery,
            Ok(crate::snapshot::IndexRecovery::Restored { .. })
        ));
        Arc::into_inner(fresh).expect("the sink's clone is dropped")
    }

    /// Seeded random upserts (deadline kept and re-armed), batches,
    /// removes and clears against a `BTreeMap` model, checked after every
    /// step; every removed key is fully absent, and every 40 steps a
    /// snapshot round trip answers the same.
    #[test]
    fn slot_index_matches_a_btreemap_model() {
        let pool: Vec<String> = (0..120).map(|i| format!("k{i:03}")).collect();
        for seed in 1..=4u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let idx = MetadataIndex::new();
            let mut model = Model::new();
            for step in 0..500 {
                let ctx = format!("seed {seed} step {step}");
                let key = pool[rng.below(pool.len())].clone();
                let mut removed = Vec::new();
                match rng.below(100) {
                    0..=44 => {
                        let m = rng.metadata();
                        let (now_ms, keep) = (rng.below(60_000) as u64, rng.chance(40));
                        idx.upsert(
                            &PersonalRecord::new(key.as_str(), "d", m.clone()),
                            now_ms,
                            keep,
                        );
                        model_upsert(&mut model, &key, &m, Deadline::of(&m, now_ms, keep));
                    }
                    45..=54 => {
                        let m = rng.metadata();
                        let at = rng.chance(70).then(|| rng.below(90_000) as u64);
                        idx.upsert_with_deadline(
                            &PersonalRecord::new(key.as_str(), "d", m.clone()),
                            at,
                        );
                        model_upsert(&mut model, &key, &m, Deadline::At(at));
                    }
                    55..=69 => {
                        let mut batch = IndexBatch::new();
                        for _ in 0..1 + rng.below(8) {
                            let key = pool[rng.below(pool.len())].clone();
                            let m = rng.metadata();
                            let record = PersonalRecord::new(key.as_str(), "d", m.clone());
                            match rng.below(3) {
                                0 => {
                                    let (now_ms, keep) = (rng.below(60_000) as u64, rng.chance(40));
                                    batch.upsert(record, now_ms, keep);
                                    model_upsert(
                                        &mut model,
                                        &key,
                                        &m,
                                        Deadline::of(&m, now_ms, keep),
                                    );
                                }
                                1 => {
                                    let at = rng.chance(70).then(|| rng.below(90_000) as u64);
                                    batch.upsert_at(record, at);
                                    model_upsert(&mut model, &key, &m, Deadline::At(at));
                                }
                                _ => {
                                    batch.remove(key.as_str());
                                    model.remove(&key);
                                    removed.push(key);
                                }
                            }
                        }
                        idx.apply(batch);
                    }
                    70..=98 => {
                        assert_eq!(idx.remove(&key), model.remove(&key).is_some(), "{ctx}");
                        removed.push(key);
                    }
                    _ => {
                        idx.clear();
                        removed.extend(std::mem::take(&mut model).into_keys());
                    }
                }
                for key in removed.iter().filter(|key| !model.contains_key(*key)) {
                    assert!(idx.fully_absent(key), "{ctx}: {key} left behind");
                }
                check(&idx, &model, &pool, &ctx);
                if step % 40 == 39 {
                    let tag = format!("{seed}-{step}");
                    check(
                        &restored(&idx, &tag),
                        &model,
                        &pool,
                        &format!("{ctx}, restored"),
                    );
                }
            }
        }
    }

    /// One posting driven across `DENSE_AT` — 63, 64 and 65 members and
    /// beyond — then drained to empty, with a freed slot reused by the
    /// next fresh key and the emptied term dropped.
    #[test]
    fn postings_cross_the_dense_boundary_and_drain() {
        let idx = MetadataIndex::new();
        let mut model = Model::new();
        let pool: Vec<String> = (0..DENSE_AT + 6).map(|i| format!("w{i:03}")).collect();
        let wide = |idx: &MetadataIndex| {
            let inner = idx.inner.read();
            inner
                .by_purpose
                .get("wide")
                .map(|p| (p.iter().count(), matches!(p, Posting::Dense(_))))
        };
        for (n, key) in pool.iter().enumerate() {
            let r = record(key, "neo", &["wide"], Some(10));
            idx.upsert(&r, 0, false);
            model_upsert(&mut model, key, &r.metadata, Deadline::At(Some(10_000)));
            check(&idx, &model, &pool, &format!("grow to {}", n + 1));
            assert_eq!(wide(&idx), Some((n + 1, n + 1 > DENSE_AT)));
        }
        // Freed slots are reused last-freed first.
        let slot_of = |key: &str| idx.inner.read().slots[key];
        let freed = ["w010", "w020"].map(|key| {
            let slot = slot_of(key);
            assert!(idx.remove(key));
            model.remove(key);
            slot
        });
        for (key, slot) in ["fresh", "fresher"]
            .into_iter()
            .zip(freed.into_iter().rev())
        {
            let r = record(key, "neo", &["wide"], Some(10));
            idx.upsert(&r, 0, false);
            model_upsert(&mut model, key, &r.metadata, Deadline::At(Some(10_000)));
            assert_eq!(slot_of(key), slot, "{key}");
            check(&idx, &model, &pool, "slot reused");
        }
        // Drain in a scattered order; the posting stays a bitmap down to
        // half of DENSE_AT, then is a list again, then is dropped.
        let mut rng = Rng(7);
        let mut live: Vec<String> = model.keys().cloned().collect();
        while !live.is_empty() {
            let key = live.swap_remove(rng.below(live.len()));
            assert!(idx.remove(&key));
            model.remove(&key);
            assert!(idx.fully_absent(&key));
            check(&idx, &model, &pool, &format!("drain to {}", live.len()));
            match wide(&idx) {
                Some((n, dense)) => {
                    assert_eq!(n, live.len());
                    assert_eq!(dense, n > DENSE_AT / 2);
                }
                None => assert!(live.is_empty(), "the term is dropped only when empty"),
            }
        }
        assert!(idx.is_empty());
        assert_eq!(wide(&idx), None);
    }
}
