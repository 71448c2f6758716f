//! The keyspace: one dictionary whose entry holds a key's value and, if the
//! key carries a TTL, its deadline. Redis' `redisDb` keeps the deadlines in
//! a second dictionary (`expires`); folding them into the entry makes a
//! lookup one hash probe, which a predicate read pays once per candidate.
//! Two dense key sets sit beside the dictionary: the keys with a deadline
//! (sampled by the lazy cycle, walked by the strict one) and every key
//! (SCAN's cursor positions).
//!
//! Expiry is enforced in two complementary ways, as in Redis:
//! lazily-on-access here (a lookup of a past-due key deletes it and reports
//! a miss), and actively by the expiration cycle in [`crate::expire`].

use crate::error::{KvError, KvResult};
use crate::glob::glob_match;
use crate::rng::XorShift64;
use crate::sampleset::SampleSet;
use crate::value::Value;
use bytes::Bytes;
use clock::{SharedClock, Timestamp};
use std::collections::hash_map::{self, HashMap};
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

/// One dictionary slot's payload.
struct Entry {
    value: Value,
    /// Absolute expiry; `Some` exactly when the key is in the expire-set.
    deadline: Option<Timestamp>,
}

impl Entry {
    /// True if the entry's deadline has passed at `now`. The boundary is
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
    dict: HashMap<Bytes, Entry>,
    /// Keys with a deadline, sampleable in O(1) — what the expiration
    /// cycles draw from.
    expire_set: SampleSet<Bytes>,
    /// All keys, dense-indexed for SCAN cursors.
    key_index: SampleSet<Bytes>,
    clock: SharedClock,
    /// Notified on every TTL-driven eviction (never on plain DEL).
    expiry_listener: Option<ExpiryListener>,
}

impl Db {
    pub fn new(clock: SharedClock) -> Self {
        Db {
            dict: HashMap::new(),
            expire_set: SampleSet::new(),
            key_index: SampleSet::new(),
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

    /// Expire-on-access: if `key` is past due at `now`, delete it, notify
    /// the expiry listener and report that it was reaped.
    fn reap_if_due(&mut self, key: &[u8], now: Timestamp) -> bool {
        if !self.dict.get(key).is_some_and(|entry| entry.is_due(now)) {
            return false;
        }
        self.remove(key);
        if let Some(listener) = &self.expiry_listener {
            listener(key);
        }
        true
    }

    /// The keyspace lookup, without side effects: what `key` holds at
    /// `now`, in one probe. The caller reads the clock — once per command,
    /// however many keys the command names. This is all a GET needs unless
    /// the key is [`Peek::Due`], so it is what the store runs under its
    /// shared lock.
    pub fn peek(&self, key: &[u8], now: Timestamp) -> Peek<'_> {
        match self.dict.get(key) {
            None => Peek::Absent,
            Some(entry) if entry.is_due(now) => Peek::Due,
            Some(entry) => Peek::Live(&entry.value),
        }
    }

    /// Read access to a live (non-expired) value.
    pub fn get(&mut self, key: &[u8]) -> Option<&Value> {
        if self.reap_if_due(key, self.clock.now()) {
            return None;
        }
        self.dict.get(key).map(|entry| &entry.value)
    }

    /// Write access to a live (non-expired) value.
    pub fn get_mut(&mut self, key: &[u8]) -> Option<&mut Value> {
        if self.reap_if_due(key, self.clock.now()) {
            return None;
        }
        self.dict.get_mut(key).map(|entry| &mut entry.value)
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
            self.set(Bytes::copy_from_slice(key), make());
        }
        let v = &mut self.dict.get_mut(key).expect("just inserted").value;
        if check(v) {
            Ok(v)
        } else {
            Err(KvError::WrongType)
        }
    }

    /// Insert or replace the value at `key`. Clears any existing expiry, as
    /// `SET` does in Redis.
    pub fn set(&mut self, key: Bytes, value: Value) {
        match self.dict.entry(key) {
            hash_map::Entry::Occupied(mut slot) => {
                let entry = slot.get_mut();
                entry.value = value;
                if entry.deadline.take().is_some() {
                    self.expire_set.remove(slot.key());
                }
            }
            hash_map::Entry::Vacant(slot) => {
                self.key_index.insert(slot.key().clone());
                slot.insert(Entry {
                    value,
                    deadline: None,
                });
            }
        }
    }

    /// Remove a key entirely. Returns `true` if it existed.
    pub fn remove(&mut self, key: &[u8]) -> bool {
        let Some((key, entry)) = self.dict.remove_entry(key) else {
            return false;
        };
        if entry.deadline.is_some() {
            self.expire_set.remove(&key);
        }
        self.key_index.remove(&key);
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
        let Some(entry) = self.dict.get_mut(key) else {
            return false;
        };
        if entry.deadline.replace(at).is_none() {
            let (key, _) = self.dict.get_key_value(key).expect("just found");
            self.expire_set.insert(key.clone());
        }
        true
    }

    /// The absolute expiry time of `key`, if any.
    pub fn expiry_of(&self, key: &[u8]) -> Option<Timestamp> {
        self.dict.get(key).and_then(|entry| entry.deadline)
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
            .filter(|key| self.dict.get(*key).is_some_and(|entry| entry.is_due(now)))
            .cloned()
            .collect()
    }

    /// Delete `key` if past due. Returns `true` if deleted.
    pub fn evict_if_due(&mut self, key: &[u8]) -> bool {
        self.reap_if_due(key, self.clock.now())
    }

    /// Cursor-based iteration (the `SCAN` command). Returns matching keys in
    /// the window plus the next cursor (0 when done). The guarantee matches
    /// Redis': every key present for the whole scan is returned at least
    /// once; no stability under concurrent mutation.
    pub fn scan(&self, cursor: usize, count: usize, pattern: Option<&[u8]>) -> (Vec<Bytes>, usize) {
        let mut out = Vec::new();
        let mut idx = cursor;
        let end = (cursor + count).min(self.key_index.len());
        while idx < end {
            if let Some(key) = self.key_index.get_at(idx) {
                if pattern.is_none_or(|p| glob_match(p, key)) {
                    out.push(key.clone());
                }
            }
            idx += 1;
        }
        let next = if idx >= self.key_index.len() { 0 } else { idx };
        (out, next)
    }

    /// Approximate memory footprint of all keys and values, for the
    /// space-overhead metric (Table 3): a Redis-sized dictionary entry per
    /// key plus an `expires` entry per key with a deadline, whatever this
    /// keyspace's own layout.
    pub fn memory_usage(&self) -> usize {
        self.dict
            .iter()
            .map(|(k, entry)| k.len() + 48 + entry.value.memory_usage())
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
        db.set(b("k"), Value::Str(b("v")));
        assert!(db.exists(b"k"));
        assert_eq!(db.get(b"k").unwrap().as_str().unwrap(), &b("v"));
        assert!(db.remove(b"k"));
        assert!(!db.exists(b"k"));
        assert!(!db.remove(b"k"));
    }

    #[test]
    fn lazy_expiry_on_access() {
        let (sim, mut db) = sim_db();
        db.set(b("k"), Value::Str(b("v")));
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
        db.set(b("k"), Value::Str(b("v")));
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
        db.set(b("gone"), Value::Str(b("v")));
        db.set(b("expires"), Value::Str(b("v")));
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
        db.set(b("k"), Value::Str(b("v1")));
        db.set_expiry(b"k", Timestamp::from_secs(10));
        db.set(b("k"), Value::Str(b("v2"))); // plain SET removes the TTL
        sim.advance(Duration::from_secs(11));
        assert!(db.exists(b"k"));
        assert_eq!(db.expiry_of(b"k"), None);
        assert_eq!(db.expire_set_len(), 0);
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
            db.set(k.clone(), Value::Str(b("v")));
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
        db.set(b("k"), Value::Str(b("v")));
        db.set_expiry(b"k", Timestamp::from_secs(10));
        db.set_expiry(b"k", Timestamp::from_secs(20));
        let (stored, _) = db.dict.get_key_value(&b"k"[..]).unwrap();
        let sampled = db.sample_expire_keys(1, &mut XorShift64::new(1));
        assert!(std::ptr::eq(stored.as_ptr(), sampled[0].as_ptr()));
        assert_eq!(db.expire_set_len(), 1);
        assert_eq!(db.expiry_of(b"k"), Some(Timestamp::from_secs(20)));
    }

    #[test]
    fn scan_visits_all_keys() {
        let (_c, mut db) = sim_db();
        for i in 0..100 {
            db.set(b(&format!("k{i:03}")), Value::Str(b("v")));
        }
        let mut cursor = 0;
        let mut seen = std::collections::HashSet::new();
        loop {
            let (keys, next) = db.scan(cursor, 7, None);
            seen.extend(keys);
            if next == 0 {
                break;
            }
            cursor = next;
        }
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn scan_with_pattern_filters() {
        let (_c, mut db) = sim_db();
        db.set(b("rec:1"), Value::Str(b("v")));
        db.set(b("idx:1"), Value::Str(b("v")));
        db.set(b("rec:2"), Value::Str(b("v")));
        let (keys, next) = db.scan(0, 100, Some(b"rec:*"));
        assert_eq!(next, 0);
        assert_eq!(keys.len(), 2);
    }

    #[test]
    fn memory_usage_grows_with_data() {
        let (_c, mut db) = sim_db();
        let before = db.memory_usage();
        db.set(b("k"), Value::Str(Bytes::from(vec![0u8; 4096])));
        assert!(db.memory_usage() >= before + 4096);
    }

    #[test]
    fn get_or_create_enforces_type() {
        let (_c, mut db) = sim_db();
        db.set(b("s"), Value::Str(b("v")));
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
    /// the space formula and on a full SCAN — and the expiry listener must
    /// have fired exactly once per key the keyspace reaped, never for a
    /// DEL.
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
                        db.set(key.clone(), Value::Str(value.clone()));
                        model.insert(key, (value, None));
                    }
                    2 => {
                        db.set(key.clone(), Value::Str(value.clone()));
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
                let mut scanned = BTreeSet::new();
                let mut cursor = 0;
                loop {
                    let (keys, next) = db.scan(cursor, 5, None);
                    scanned.extend(keys);
                    if next == 0 {
                        break;
                    }
                    cursor = next;
                }
                assert!(scanned.iter().eq(model.keys()), "seed {seed} step {step}");
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
