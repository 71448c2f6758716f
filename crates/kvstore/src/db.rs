//! The keyspace: a slab of slots that never move, and one dictionary from
//! each key to its slot. A slot holds the key, its value and, if the key
//! carries a TTL, its deadline — Redis' `redisDb` keeps the deadlines in a
//! second dictionary (`expires`); folding them into the slot makes a lookup
//! one hash probe and one slot read, which a predicate read pays once per
//! candidate.
//!
//! A key keeps its slot from creation to deletion; a freed slot goes on a
//! LIFO free list and is refilled by the next key created. Slot positions
//! are therefore stable cursors: a walk over the slab ([`Db::walk`]) can
//! stop between chunks and resume at the next position. Each fill stamps
//! its slot with `born`, the number of fills before it ([`Db::births`]),
//! so a walk can tell a slot filled after it started — a new key, or a
//! deleted key re-created into a free slot — from one it was meant to
//! visit.
//!
//! One dense key set sits beside the slab: the keys with a deadline, which
//! the lazy expiration cycle samples, the strict one walks and the due-key
//! listing reads ([`Db::deadlines`]).
//!
//! Expiry is enforced in two complementary ways, as in Redis:
//! lazily-on-access here (a lookup of a past-due key deletes it and reports
//! a miss), and actively by the expiration cycle in [`crate::expire`].

use crate::error::{KvError, KvResult};
use crate::rng::XorShift64;
use crate::sampleset::SampleSet;
use crate::value::Value;
use bytes::Bytes;
use clock::{SharedClock, Timestamp};
use std::collections::hash_map::{self, HashMap};
use std::ops::Range;
use std::sync::Arc;

/// Callback invoked with the key of every record the store expires itself
/// (lazily on access or in an active expiration cycle). GDPR layers hang
/// index invalidation off this: a reaped key must vanish from any metadata
/// index at the same instant it vanishes from the keyspace, or the index
/// would keep advertising erased personal data.
pub type ExpiryListener = Arc<dyn Fn(&[u8]) + Send + Sync>;

/// What [`Db::peek`] finds under a key.
pub enum Peek<'a> {
    Live(&'a Value),
    Absent,
    /// Present but past its deadline: only a `&mut` access may answer,
    /// because answering means reaping.
    Due,
}

/// One filled slot of the slab.
struct Slot {
    /// The dictionary's own key (one allocation, shared).
    key: Bytes,
    value: Value,
    /// Absolute expiry; `Some` exactly when the key is in the expire-set.
    deadline: Option<Timestamp>,
    /// [`Db::births`] when this key was created: a walk started at a
    /// smaller count skips the slot.
    born: u64,
}

impl Slot {
    /// True if the slot's deadline has passed at `now`. The boundary is
    /// **inclusive** (`now >= at`): a key whose deadline equals the current
    /// instant is already expired. The engine-side metadata index
    /// (`MetadataIndex::expired_keys`) and the relational sweep daemon use
    /// the same inclusive boundary, so every purge path agrees on what is
    /// due at the boundary instant — do not change one without the others
    /// (the conformance suite pins this).
    fn is_due(&self, now: Timestamp) -> bool {
        self.deadline.is_some_and(|at| now >= at)
    }
}

/// The keyspace.
pub struct Db {
    /// Key → slot position.
    dict: HashMap<Bytes, u32>,
    /// The slab; `None` is a free slot.
    slots: Vec<Option<Slot>>,
    /// Free slot positions, refilled last-freed first.
    free: Vec<u32>,
    /// Slot fills so far: the next key created is born at this count.
    births: u64,
    /// Keys with a deadline, sampleable in O(1) — what the expiration
    /// cycles draw from.
    expire_set: SampleSet<Bytes>,
    clock: SharedClock,
    /// Notified on every TTL-driven eviction (never on plain DEL).
    expiry_listener: Option<ExpiryListener>,
}

impl Db {
    pub fn new(clock: SharedClock) -> Self {
        Db {
            dict: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            births: 0,
            expire_set: SampleSet::new(),
            clock,
            expiry_listener: None,
        }
    }

    /// Register the TTL-eviction callback. One listener at a time; the
    /// store invokes it after the key is gone from the keyspace, while the
    /// command lock is held — listeners must not call back into the store.
    pub fn set_expiry_listener(&mut self, listener: ExpiryListener) {
        self.expiry_listener = Some(listener);
    }

    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Number of live keys (may include keys past due that no cycle has
    /// reaped yet — exactly as `DBSIZE` does in Redis).
    pub fn len(&self) -> usize {
        self.dict.len()
    }

    pub fn is_empty(&self) -> bool {
        self.dict.is_empty()
    }

    /// Slot positions in the slab, filled or free: a walk is done at this
    /// position.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Slot fills so far. A walk started now visits only slots born below
    /// this count.
    pub fn births(&self) -> u64 {
        self.births
    }

    /// The slot holding `key`.
    fn slot(&self, key: &[u8]) -> Option<&Slot> {
        let &at = self.dict.get(key)?;
        self.slots[at as usize].as_ref()
    }

    fn slot_mut(&mut self, key: &[u8]) -> Option<&mut Slot> {
        let &at = self.dict.get(key)?;
        self.slots[at as usize].as_mut()
    }

    /// Expire-on-access: if `key` is past due at `now`, delete it, notify
    /// the expiry listener and report that it was reaped.
    fn reap_if_due(&mut self, key: &[u8], now: Timestamp) -> bool {
        if !self.slot(key).is_some_and(|slot| slot.is_due(now)) {
            return false;
        }
        self.remove(key);
        if let Some(listener) = &self.expiry_listener {
            listener(key);
        }
        true
    }

    /// The keyspace lookup, without side effects: what `key` holds at
    /// `now`, in one probe and one slot read. The caller reads the clock — once per command,
    /// however many keys the command names. This is all a GET needs unless
    /// the key is [`Peek::Due`], so it is what the store runs under its
    /// shared lock.
    pub fn peek(&self, key: &[u8], now: Timestamp) -> Peek<'_> {
        match self.slot(key) {
            None => Peek::Absent,
            Some(slot) if slot.is_due(now) => Peek::Due,
            Some(slot) => Peek::Live(&slot.value),
        }
    }

    /// Read access to a live (non-expired) value.
    pub fn get(&mut self, key: &[u8]) -> Option<&Value> {
        if self.reap_if_due(key, self.clock.now()) {
            return None;
        }
        self.slot(key).map(|slot| &slot.value)
    }

    /// Write access to a live (non-expired) value.
    pub fn get_mut(&mut self, key: &[u8]) -> Option<&mut Value> {
        if self.reap_if_due(key, self.clock.now()) {
            return None;
        }
        self.slot_mut(key).map(|slot| &mut slot.value)
    }

    /// Write access to a live value, creating it with `make` when absent.
    /// Fails with `WrongType` if present but of a different type, as checked
    /// by `check`.
    pub fn get_or_create(
        &mut self,
        key: &[u8],
        make: impl FnOnce() -> Value,
        check: impl Fn(&Value) -> bool,
    ) -> KvResult<&mut Value> {
        self.reap_if_due(key, self.clock.now());
        if !self.dict.contains_key(key) {
            self.set(Bytes::copy_from_slice(key), make(), None);
        }
        let v = &mut self.slot_mut(key).expect("just inserted").value;
        if check(v) {
            Ok(v)
        } else {
            Err(KvError::WrongType)
        }
    }

    /// Insert or replace the value at `key`, which then expires at
    /// `deadline` — never, for `None`, as after a plain `SET` in Redis. A
    /// replaced value stays in its slot; a new key takes the last-freed
    /// slot, or a new one at the end of the slab. A key that keeps a
    /// deadline keeps its place in the expire-set. A past-due occupant is
    /// replaced, not reaped: a deadline already past leaves the key due.
    pub fn set(&mut self, key: Bytes, value: Value, deadline: Option<Timestamp>) {
        match self.dict.entry(key) {
            hash_map::Entry::Occupied(entry) => {
                let slot = self.slots[*entry.get() as usize]
                    .as_mut()
                    .expect("a mapped slot is filled");
                slot.value = value;
                let had = std::mem::replace(&mut slot.deadline, deadline).is_some();
                if had && deadline.is_none() {
                    self.expire_set.remove(&slot.key);
                } else if !had && deadline.is_some() {
                    self.expire_set.insert(slot.key.clone());
                }
            }
            hash_map::Entry::Vacant(entry) => {
                let at = self.free.pop().unwrap_or_else(|| {
                    self.slots.push(None);
                    u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 slots")
                });
                let key = entry.key().clone();
                if deadline.is_some() {
                    self.expire_set.insert(key.clone());
                }
                self.slots[at as usize] = Some(Slot {
                    key,
                    value,
                    deadline,
                    born: self.births,
                });
                self.births += 1;
                entry.insert(at);
            }
        }
    }

    /// Remove a key entirely. Returns `true` if it existed.
    pub fn remove(&mut self, key: &[u8]) -> bool {
        let Some(at) = self.dict.remove(key) else {
            return false;
        };
        let slot = self.slots[at as usize]
            .take()
            .expect("a mapped slot is filled");
        if slot.deadline.is_some() {
            self.expire_set.remove(&slot.key);
        }
        self.free.push(at);
        true
    }

    /// True if `key` exists and is not past due.
    pub fn exists(&mut self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Set an absolute expiry. Returns `false` if the key does not exist.
    pub fn set_expiry(&mut self, key: &[u8], at: Timestamp) -> bool {
        if self.reap_if_due(key, self.clock.now()) {
            return false;
        }
        let Some(&pos) = self.dict.get(key) else {
            return false;
        };
        let slot = self.slots[pos as usize]
            .as_mut()
            .expect("a mapped slot is filled");
        if slot.deadline.replace(at).is_none() {
            self.expire_set.insert(slot.key.clone());
        }
        true
    }

    /// The absolute expiry time of `key`, if any.
    pub fn expiry_of(&self, key: &[u8]) -> Option<Timestamp> {
        self.slot(key).and_then(|slot| slot.deadline)
    }

    /// Number of keys carrying an expiry.
    pub fn expire_set_len(&self) -> usize {
        self.expire_set.len()
    }

    /// Sample up to `n` random keys from the expire-set (with replacement),
    /// exactly as the lazy expiration cycle does.
    pub fn sample_expire_keys(&self, n: usize, rng: &mut XorShift64) -> Vec<Bytes> {
        (0..n)
            .filter_map(|_| self.expire_set.sample(rng).cloned())
            .collect()
    }

    /// The keys of the expire-set that are past due at `now` (for the
    /// strict sweep): the set is walked in place and only the due keys
    /// are copied out.
    pub fn due_expire_keys(&self, now: Timestamp) -> Vec<Bytes> {
        self.expire_set
            .iter()
            .filter(|key| self.slot(key).is_some_and(|slot| slot.is_due(now)))
            .cloned()
            .collect()
    }

    /// Every key with a deadline, and that deadline, in the expire-set's
    /// order — read in place, reaping nothing.
    pub fn deadlines(&self) -> impl Iterator<Item = (&Bytes, Timestamp)> {
        (self.expire_set.iter()).filter_map(|key| Some((key, self.slot(key)?.deadline?)))
    }

    /// Delete `key` if past due. Returns `true` if deleted.
    pub fn evict_if_due(&mut self, key: &[u8]) -> bool {
        self.reap_if_due(key, self.clock.now())
    }

    /// One stretch of a keyspace walk: show `visit` the key and value of
    /// every slot at the positions in `range` whose key starts with
    /// `prefix`, that was born before `epoch` (the [`Self::births`] count
    /// when the walk started) and that is not due at `now`. Past-due
    /// entries are skipped, not reaped — the walk reads, it never writes.
    /// A visited value that is not a string fails with `WrongType`.
    ///
    /// A walk is these calls over consecutive ranges from position 0 to
    /// the slot count at its start. Whatever happens between two calls, a
    /// key present for the whole walk is visited exactly once (it never
    /// leaves its slot), a key created during the walk is not visited
    /// (born too late), and a key deleted and re-created during the walk
    /// is visited at most once (its new slot is born too late).
    ///
    /// The outer error is the keyspace's; the inner one is the first error
    /// `visit` returned, which stops the walk.
    pub fn walk<E>(
        &self,
        range: Range<usize>,
        epoch: u64,
        now: Timestamp,
        prefix: &[u8],
        mut visit: impl FnMut(&Bytes, &Bytes) -> Result<(), E>,
    ) -> KvResult<Result<(), E>> {
        let end = range.end.min(self.slots.len());
        let window = self
            .slots
            .get(range.start.min(end)..end)
            .unwrap_or_default();
        for slot in window.iter().flatten() {
            if slot.born >= epoch || !slot.key.starts_with(prefix) || slot.is_due(now) {
                continue;
            }
            let visited = visit(&slot.key, slot.value.as_str()?);
            if visited.is_err() {
                return Ok(visited);
            }
        }
        Ok(Ok(()))
    }

    /// Approximate memory footprint of all keys and values, for the
    /// space-overhead metric (Table 3): a Redis-sized dictionary entry per
    /// key plus an `expires` entry per key with a deadline, whatever this
    /// keyspace's own layout.
    pub fn memory_usage(&self) -> usize {
        (self.slots.iter().flatten())
            .map(|slot| slot.key.len() + 48 + slot.value.memory_usage())
            .sum::<usize>()
            + self.expire_set.len() * 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expire::{ExpirationCycle, ExpirationMode};
    use clock::Clock;
    use std::collections::{BTreeMap, BTreeSet};
    use std::time::Duration;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn sim_db() -> (std::sync::Arc<clock::SimClock>, Db) {
        let sim = clock::sim();
        let db = Db::new(sim.clone());
        (sim, db)
    }

    #[test]
    fn set_get_remove() {
        let (_c, mut db) = sim_db();
        db.set(b("k"), Value::Str(b("v")), None);
        assert!(db.exists(b"k"));
        assert_eq!(db.get(b"k").unwrap().as_str().unwrap(), &b("v"));
        assert!(db.remove(b"k"));
        assert!(!db.exists(b"k"));
        assert!(!db.remove(b"k"));
    }

    #[test]
    fn lazy_expiry_on_access() {
        let (sim, mut db) = sim_db();
        db.set(b("k"), Value::Str(b("v")), None);
        db.set_expiry(b"k", Timestamp::from_secs(10));
        assert!(db.exists(b"k"));
        sim.advance(Duration::from_secs(11));
        assert!(
            db.get(b"k").is_none(),
            "past-due key must be reaped on access"
        );
        assert_eq!(db.len(), 0);
    }

    #[test]
    fn expiry_listener_fires_on_lazy_reap() {
        let (sim, mut db) = sim_db();
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        db.set_expiry_listener(Arc::new(move |key| {
            sink.lock().unwrap().push(key.to_vec());
        }));
        db.set(b("k"), Value::Str(b("v")), None);
        db.set_expiry(b"k", Timestamp::from_secs(10));
        sim.advance(Duration::from_secs(11));
        assert!(db.get(b"k").is_none());
        assert_eq!(*seen.lock().unwrap(), vec![b"k".to_vec()]);
    }

    #[test]
    fn expiry_listener_fires_on_active_eviction_not_plain_delete() {
        let (sim, mut db) = sim_db();
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        db.set_expiry_listener(Arc::new(move |key| {
            sink.lock().unwrap().push(key.to_vec());
        }));
        db.set(b("gone"), Value::Str(b("v")), None);
        db.set(b("expires"), Value::Str(b("v")), None);
        db.set_expiry(b"expires", Timestamp::from_secs(1));
        db.remove(b"gone");
        assert!(
            seen.lock().unwrap().is_empty(),
            "plain DEL is not an expiry"
        );
        sim.advance(Duration::from_secs(2));
        assert!(db.evict_if_due(b"expires"));
        assert_eq!(*seen.lock().unwrap(), vec![b"expires".to_vec()]);
    }

    #[test]
    fn set_clears_previous_expiry() {
        let (sim, mut db) = sim_db();
        db.set(b("k"), Value::Str(b("v1")), None);
        db.set_expiry(b"k", Timestamp::from_secs(10));
        db.set(b("k"), Value::Str(b("v2")), None); // plain SET removes the TTL
        sim.advance(Duration::from_secs(11));
        assert!(db.exists(b"k"));
        assert_eq!(db.expiry_of(b"k"), None);
        assert_eq!(db.expire_set_len(), 0);
    }

    /// A `SET … KEEPTTL` over a key with a deadline leaves the deadline
    /// and the key's place in the expire-set exactly as they were, where
    /// clearing and re-adding would move it to the end.
    #[test]
    fn keepttl_keeps_the_deadline_and_the_expire_set_place() {
        use crate::commands::{Command, SetDeadline};
        let (_c, mut db) = sim_db();
        for (i, key) in ["a", "b", "c"].into_iter().enumerate() {
            let at = Timestamp::from_millis(1_000 + i as u64);
            db.set(b(key), Value::Str(b("v")), Some(at));
        }
        let order = |db: &Db| db.expire_set.iter().cloned().collect::<Vec<_>>();
        let before = order(&db);
        let keep = Command::Set {
            key: b("a"),
            value: b("rewritten"),
            only_if_absent: false,
            deadline: SetDeadline::Keep,
        };
        keep.execute(&mut db).unwrap();
        assert_eq!(order(&db), before);
        assert_eq!(db.expiry_of(b"a"), Some(Timestamp::from_millis(1_000)));
        assert_eq!(db.get(b"a").unwrap().as_str().unwrap(), &b("rewritten"));
    }

    #[test]
    fn expire_on_missing_key_fails() {
        let (_c, mut db) = sim_db();
        assert!(!db.set_expiry(b"ghost", Timestamp::from_secs(5)));
    }

    #[test]
    fn expire_set_tracks_membership() {
        let (_c, mut db) = sim_db();
        for i in 0..10 {
            let k = b(&format!("k{i}"));
            db.set(k.clone(), Value::Str(b("v")), None);
            if i % 2 == 0 {
                db.set_expiry(&k, Timestamp::from_secs(100));
            }
        }
        assert_eq!(db.expire_set_len(), 5);
        let mut rng = XorShift64::new(1);
        let sampled = db.sample_expire_keys(20, &mut rng);
        assert_eq!(sampled.len(), 20, "sampling is with replacement");
        assert!(sampled.iter().all(|k| db.expiry_of(k).is_some()));
    }

    /// The expire-set holds the dictionary's own key, not a copy of its
    /// bytes.
    #[test]
    fn expire_set_shares_the_dictionary_key() {
        let (_c, mut db) = sim_db();
        db.set(b("k"), Value::Str(b("v")), None);
        db.set_expiry(b"k", Timestamp::from_secs(10));
        db.set_expiry(b"k", Timestamp::from_secs(20));
        let (stored, _) = db.dict.get_key_value(&b"k"[..]).unwrap();
        let sampled = db.sample_expire_keys(1, &mut XorShift64::new(1));
        assert!(std::ptr::eq(stored.as_ptr(), sampled[0].as_ptr()));
        assert_eq!(db.expire_set_len(), 1);
        assert_eq!(db.expiry_of(b"k"), Some(Timestamp::from_secs(20)));
    }

    /// The keys one walk visits, cut after every `chunk` slot positions;
    /// `between` runs on the keyspace at each cut.
    fn walk_in_chunks(
        db: &mut Db,
        chunk: usize,
        prefix: &[u8],
        mut between: impl FnMut(&mut Db, usize),
    ) -> KvResult<Vec<Bytes>> {
        let (epoch, end) = (db.births(), db.slot_count());
        let mut seen = Vec::new();
        for (cut, start) in (0..end).step_by(chunk).enumerate() {
            let now = db.clock().now();
            let Ok(()) = db.walk(start..start + chunk, epoch, now, prefix, |key, _| {
                seen.push(key.clone());
                Ok::<_, std::convert::Infallible>(())
            })?;
            between(db, cut);
        }
        Ok(seen)
    }

    fn set_all(db: &mut Db, keys: &[&str]) {
        for key in keys {
            db.set(b(key), Value::Str(b(key)), None);
        }
    }

    #[test]
    fn a_walk_visits_each_key_present_throughout_exactly_once() {
        let (_c, mut db) = sim_db();
        let keys: Vec<String> = (0..20).map(|i| format!("k{i:02}")).collect();
        for key in &keys {
            db.set(b(key), Value::Str(b(key)), None);
        }
        // Between chunks: delete a key ahead of the cursor and one behind
        // it, and rewrite a third in place.
        let seen = walk_in_chunks(&mut db, 4, b"", |db, cut| {
            if cut == 0 {
                assert!(db.remove(b"k19"));
                assert!(db.remove(b"k01"));
                db.set(b("k10"), Value::Str(b("rewritten")), None);
            }
        })
        .unwrap();
        let mut want: Vec<Bytes> = keys.iter().filter(|k| *k != "k19").map(|k| b(k)).collect();
        want.sort();
        let mut got = seen.clone();
        got.sort();
        assert_eq!(got, want, "k01 went behind the cursor, k19 ahead of it");
    }

    #[test]
    fn a_walk_skips_keys_created_after_it_started() {
        let (_c, mut db) = sim_db();
        set_all(&mut db, &["a", "b", "c", "d", "e", "f"]);
        let seen = walk_in_chunks(&mut db, 2, b"", |db, cut| {
            if cut == 0 {
                // One key into a freed slot ahead of the cursor, one at
                // the end of the slab.
                assert!(db.remove(b"e"));
                set_all(db, &["new-in-free-slot", "new-at-end"]);
            }
        })
        .unwrap();
        assert_eq!(seen, [b("a"), b("b"), b("c"), b("d"), b("f")]);
    }

    #[test]
    fn a_key_deleted_and_recreated_ahead_of_the_walk_is_visited_at_most_once() {
        let (_c, mut db) = sim_db();
        set_all(&mut db, &["k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"]);
        let seen = walk_in_chunks(&mut db, 4, b"", |db, cut| {
            if cut == 0 {
                // k2 was visited; free slot 6 (ahead) last, so the LIFO
                // free list re-creates k2 there, ahead of the cursor.
                assert!(db.remove(b"k2"));
                assert!(db.remove(b"k6"));
                set_all(db, &["k2"]);
                assert_eq!(db.dict[&b("k2")], 6);
            }
        })
        .unwrap();
        assert_eq!(seen.iter().filter(|k| **k == b("k2")).count(), 1);
        assert_eq!(
            seen,
            [
                b("k0"),
                b("k1"),
                b("k2"),
                b("k3"),
                b("k4"),
                b("k5"),
                b("k7")
            ]
        );
    }

    #[test]
    fn a_walk_skips_past_due_keys_without_reaping_them() {
        let (sim, mut db) = sim_db();
        let reaped = Arc::new(std::sync::Mutex::new(0));
        let sink = Arc::clone(&reaped);
        db.set_expiry_listener(Arc::new(move |_| *sink.lock().unwrap() += 1));
        set_all(&mut db, &["live", "due", "later"]);
        db.set_expiry(b"due", Timestamp::from_secs(5));
        db.set_expiry(b"later", Timestamp::from_secs(6));
        sim.advance(Duration::from_secs(5)); // deadline == now is due
        let seen = walk_in_chunks(&mut db, 2, b"", |_, _| {}).unwrap();
        assert_eq!(seen, [b("live"), b("later")]);
        assert_eq!(db.len(), 3, "the walk reaps nothing");
        assert!(matches!(db.peek(b"due", sim.now()), Peek::Due));
        assert_eq!(*reaped.lock().unwrap(), 0);
    }

    #[test]
    fn a_walk_visits_only_its_prefix_and_fails_on_a_non_string_under_it() {
        let (_c, mut db) = sim_db();
        set_all(&mut db, &["rec:a", "idx:a", "rec:b"]);
        db.set(b("idx:z"), Value::ZSet(Default::default()), None);
        let seen = walk_in_chunks(&mut db, 2, b"rec:", |_, _| {}).unwrap();
        assert_eq!(seen, [b("rec:a"), b("rec:b")]);
        db.set(b("rec:z"), Value::ZSet(Default::default()), None);
        let failed = walk_in_chunks(&mut db, 2, b"rec:", |_, _| {});
        assert_eq!(failed, Err(KvError::WrongType));
    }

    #[test]
    fn memory_usage_grows_with_data() {
        let (_c, mut db) = sim_db();
        let before = db.memory_usage();
        db.set(b("k"), Value::Str(Bytes::from(vec![0u8; 4096])), None);
        assert!(db.memory_usage() >= before + 4096);
    }

    #[test]
    fn get_or_create_enforces_type() {
        let (_c, mut db) = sim_db();
        db.set(b("s"), Value::Str(b("v")), None);
        let err = db
            .get_or_create(
                b"s",
                || Value::ZSet(Default::default()),
                |v| matches!(v, Value::ZSet(_)),
            )
            .unwrap_err();
        assert_eq!(err, KvError::WrongType);
        assert!(db
            .get_or_create(
                b"z",
                || Value::ZSet(Default::default()),
                |v| { matches!(v, Value::ZSet(_)) }
            )
            .is_ok());
    }

    /// What the model says `key` holds at `now`.
    #[derive(Debug, PartialEq)]
    enum Held {
        Live(Bytes),
        Due,
        Absent,
    }

    type Model = BTreeMap<Bytes, (Bytes, Option<Timestamp>)>;

    fn model_holds(model: &Model, key: &Bytes, now: Timestamp) -> Held {
        match model.get(key) {
            None => Held::Absent,
            Some((_, Some(at))) if now >= *at => Held::Due,
            Some((value, _)) => Held::Live(value.clone()),
        }
    }

    fn peeked(db: &Db, key: &[u8], now: Timestamp) -> Held {
        match db.peek(key, now) {
            Peek::Live(value) => Held::Live(value.as_str().unwrap().clone()),
            Peek::Due => Held::Due,
            Peek::Absent => Held::Absent,
        }
    }

    /// Seeded random `set`, `set` + expiry, `set_expiry`, `remove`, `get`,
    /// `peek`, strict cycles and clock advances against a `BTreeMap` of
    /// `key → (value, deadline)`. After every step the keyspace must agree
    /// with the model on every key's answer and deadline, on its sizes, on
    /// the space formula, on the deadlines it lists and on a full walk —
    /// and the expiry listener must have fired exactly once per key the
    /// keyspace reaped, never for a DEL. A second walk runs one chunk per
    /// step, interleaved with the creates and removes: each time it
    /// finishes, every key present and live since it started must have
    /// been returned exactly once.
    #[test]
    fn db_matches_a_btreemap_model() {
        for seed in 1..=8u64 {
            let (sim, mut db) = sim_db();
            let fired = Arc::new(std::sync::Mutex::new(Vec::new()));
            let sink = Arc::clone(&fired);
            db.set_expiry_listener(Arc::new(move |key| {
                sink.lock().unwrap().push(Bytes::copy_from_slice(key))
            }));
            let mut model = Model::new();
            let mut reaped = Vec::new();
            let mut rng = XorShift64::new(seed);
            let keys: Vec<Bytes> = (0..12).map(|i| b(&format!("key-{i}"))).collect();
            let mut strict = ExpirationCycle::new(ExpirationMode::Strict);
            // A walk in progress across steps: its epoch, its end and its
            // next position, the keys it has returned, and the keys present
            // and live since it started.
            let (mut epoch, mut end, mut walk_at) = (db.births(), db.slot_count(), 0);
            let mut returned: Vec<Bytes> = Vec::new();
            let mut throughout: BTreeSet<Bytes> = BTreeSet::new();
            for step in 0..2_000 {
                let now = sim.now();
                let key = keys[rng.next_below(keys.len())].clone();
                let value = b(&format!("v{step}"));
                // Deadlines land from 1 s in the past to 3 s ahead, on whole
                // and odd milliseconds, so `deadline == now` comes up.
                let at = Timestamp::from_millis(
                    (now.as_millis() + rng.next_below(4_000) as u64).saturating_sub(1_000),
                );
                match rng.next_below(9) {
                    0 | 1 => {
                        db.set(key.clone(), Value::Str(value.clone()), None);
                        model.insert(key, (value, None));
                    }
                    2 => {
                        db.set(key.clone(), Value::Str(value.clone()), None);
                        assert!(db.set_expiry(&key, at));
                        model.insert(key, (value, Some(at)));
                    }
                    3 => {
                        let want = match model_holds(&model, &key, now) {
                            Held::Live(_) => {
                                model.get_mut(&key).unwrap().1 = Some(at);
                                true
                            }
                            Held::Due => {
                                model.remove(&key);
                                reaped.push(key.clone());
                                false
                            }
                            Held::Absent => false,
                        };
                        assert_eq!(db.set_expiry(&key, at), want, "seed {seed} step {step}");
                    }
                    4 => {
                        let want = model.remove(&key).is_some();
                        assert_eq!(db.remove(&key), want, "seed {seed} step {step}");
                    }
                    5 => {
                        let want = match model_holds(&model, &key, now) {
                            Held::Live(value) => Some(value),
                            Held::Due => {
                                model.remove(&key);
                                reaped.push(key.clone());
                                None
                            }
                            Held::Absent => None,
                        };
                        let got = db.get(&key).map(|v| v.as_str().unwrap().clone());
                        assert_eq!(got, want, "seed {seed} step {step}");
                    }
                    6 => {
                        let want = model_holds(&model, &key, now);
                        assert_eq!(peeked(&db, &key, now), want, "seed {seed} step {step}");
                    }
                    7 => {
                        let due: Vec<Bytes> = model
                            .iter()
                            .filter(|(_, (_, at))| at.is_some_and(|at| now >= at))
                            .map(|(key, _)| key.clone())
                            .collect();
                        let with_deadline = model.values().filter(|(_, at)| at.is_some()).count();
                        let stats = strict.run_cycle(&mut db);
                        assert_eq!(stats.reaped, due.len(), "seed {seed} step {step}");
                        assert_eq!(stats.inspected, with_deadline);
                        for key in due {
                            model.remove(&key);
                            reaped.push(key);
                        }
                    }
                    _ => sim.advance(Duration::from_millis(rng.next_below(700) as u64)),
                }

                let now = sim.now();
                for key in &keys {
                    let deadline = model.get(key).and_then(|(_, at)| *at);
                    assert_eq!(peeked(&db, key, now), model_holds(&model, key, now));
                    assert_eq!(db.expiry_of(key), deadline, "seed {seed} step {step}");
                }
                assert_eq!(db.len(), model.len());
                let with_deadline = model.values().filter(|(_, at)| at.is_some()).count();
                assert_eq!(db.expire_set_len(), with_deadline);
                let bytes: usize = model
                    .iter()
                    .map(|(key, (value, _))| key.len() + 48 + value.len())
                    .sum();
                assert_eq!(db.memory_usage(), bytes + with_deadline * 24);
                let live: Vec<&Bytes> = (model.keys())
                    .filter(|key| matches!(model_holds(&model, key, now), Held::Live(_)))
                    .collect();
                let mut walked = walk_in_chunks(&mut db, 5, b"", |_, _| {}).unwrap();
                walked.sort();
                assert!(
                    walked.iter().eq(live.iter().copied()),
                    "seed {seed} step {step}"
                );
                let mut listed: Vec<(Bytes, Timestamp)> =
                    db.deadlines().map(|(key, at)| (key.clone(), at)).collect();
                listed.sort();
                let deadlines =
                    (model.iter()).filter_map(|(key, (_, at))| Some((key.clone(), (*at)?)));
                assert!(listed.into_iter().eq(deadlines), "seed {seed} step {step}");

                // One chunk of the interleaved walk; a finished one must have
                // returned every key present and live throughout, and each
                // once.
                throughout.retain(|key| matches!(model_holds(&model, key, now), Held::Live(_)));
                let Ok(()) = db
                    .walk(walk_at..walk_at + 3, epoch, now, b"", |key, _| {
                        returned.push(key.clone());
                        Ok::<_, std::convert::Infallible>(())
                    })
                    .unwrap();
                walk_at += 3;
                if walk_at >= end {
                    for key in &throughout {
                        let times = returned.iter().filter(|k| *k == key).count();
                        assert_eq!(times, 1, "seed {seed} step {step}: {key:?}");
                    }
                    returned.clear();
                    throughout = live.into_iter().cloned().collect();
                    (epoch, end, walk_at) = (db.births(), db.slot_count(), 0);
                }
                // A strict cycle reaps in the expire-set's order, so the
                // listener's log is compared as a multiset.
                let mut heard = fired.lock().unwrap().clone();
                heard.sort();
                let mut want = reaped.clone();
                want.sort();
                assert_eq!(heard, want, "seed {seed} step {step}");
            }
        }
    }
}
