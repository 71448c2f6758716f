//! The keyspace: one dictionary of values plus the expires dictionary,
//! mirroring Redis' `redisDb` (`dict` + `expires`).
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
use std::collections::HashMap;
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

/// The keyspace.
pub struct Db {
    dict: HashMap<Bytes, Value>,
    expires: HashMap<Bytes, Timestamp>,
    /// Keys with an expiry, sampleable in O(1) — Redis' `expires` dict.
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
            expires: HashMap::new(),
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

    fn notify_expired(&self, key: &[u8]) {
        if let Some(listener) = &self.expiry_listener {
            listener(key);
        }
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

    /// True if `key` has an expiry and it is past due at `now`. The
    /// boundary is **inclusive** (`now >= at`): a key whose deadline equals
    /// the current instant is already expired. The engine-side metadata
    /// index (`MetadataIndex::expired_keys`) and the relational sweep daemon
    /// use the same inclusive boundary, so every purge path agrees on what
    /// is due at the boundary instant — do not change one without the
    /// others (the conformance suite pins this).
    fn is_past_due(&self, key: &[u8], now: Timestamp) -> bool {
        self.expires.get(key).is_some_and(|&at| now >= at)
    }

    /// Expire-on-access: if `key` is past due, delete it and report whether
    /// it was reaped.
    fn reap_if_due(&mut self, key: &[u8], now: Timestamp) -> bool {
        if self.is_past_due(key, now) {
            let owned = Bytes::copy_from_slice(key);
            self.remove(&owned);
            self.notify_expired(&owned);
            true
        } else {
            false
        }
    }

    /// The keyspace lookup, without side effects: what `key` holds at
    /// `now`. The caller reads the clock — once per command, however many
    /// keys the command names. This is all a GET needs unless the key is
    /// [`Peek::Due`], so it is what the store runs under its shared lock.
    pub fn peek(&self, key: &[u8], now: Timestamp) -> Peek<'_> {
        if self.is_past_due(key, now) {
            return Peek::Due;
        }
        self.dict.get(key).map_or(Peek::Absent, Peek::Live)
    }

    /// Read access to a live (non-expired) value: reap, then [`Self::peek`].
    pub fn get(&mut self, key: &[u8]) -> Option<&Value> {
        let now = self.clock.now();
        self.reap_if_due(key, now);
        match self.peek(key, now) {
            Peek::Live(value) => Some(value),
            Peek::Absent | Peek::Due => None,
        }
    }

    /// Write access to a live (non-expired) value.
    pub fn get_mut(&mut self, key: &[u8]) -> Option<&mut Value> {
        if self.reap_if_due(key, self.clock.now()) {
            return None;
        }
        self.dict.get_mut(key)
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
            let owned = Bytes::copy_from_slice(key);
            self.key_index.insert(owned.clone());
            self.dict.insert(owned, make());
        }
        let v = self.dict.get_mut(key).expect("just inserted");
        if check(v) {
            Ok(v)
        } else {
            Err(KvError::WrongType)
        }
    }

    /// Insert or replace the value at `key`. Clears any existing expiry, as
    /// `SET` does in Redis.
    pub fn set(&mut self, key: Bytes, value: Value) {
        self.clear_expiry(&key);
        self.key_index.insert(key.clone());
        self.dict.insert(key, value);
    }

    /// Remove a key entirely. Returns `true` if it existed.
    pub fn remove(&mut self, key: &Bytes) -> bool {
        self.clear_expiry(key);
        self.key_index.remove(key);
        self.dict.remove(key).is_some()
    }

    /// True if `key` exists and is not past due.
    pub fn exists(&mut self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Set an absolute expiry. Returns `false` if the key does not exist.
    pub fn set_expiry(&mut self, key: &[u8], at: Timestamp) -> bool {
        if self.reap_if_due(key, self.clock.now()) || !self.dict.contains_key(key) {
            return false;
        }
        let owned = Bytes::copy_from_slice(key);
        self.expires.insert(owned.clone(), at);
        self.expire_set.insert(owned);
        true
    }

    /// Remove any expiry from `key`.
    fn clear_expiry(&mut self, key: &Bytes) {
        self.expire_set.remove(key);
        self.expires.remove(key);
    }

    /// The absolute expiry time of `key`, if any.
    pub fn expiry_of(&self, key: &[u8]) -> Option<Timestamp> {
        self.expires.get(key).copied()
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

    /// All keys in the expire-set (for the strict sweep).
    pub fn all_expire_keys(&self) -> Vec<Bytes> {
        self.expire_set.iter().cloned().collect()
    }

    /// Delete `key` if past due. Returns `true` if deleted.
    pub fn evict_if_due(&mut self, key: &Bytes) -> bool {
        if self.is_past_due(key, self.clock.now()) {
            self.remove(key);
            self.notify_expired(key);
            true
        } else {
            false
        }
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
    /// space-overhead metric (Table 3).
    pub fn memory_usage(&self) -> usize {
        self.dict
            .iter()
            .map(|(k, v)| k.len() + 48 + v.memory_usage())
            .sum::<usize>()
            + self.expires.len() * 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(db.remove(&b("k")));
        assert!(!db.exists(b"k"));
        assert!(!db.remove(&b("k")));
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
        db.remove(&b("gone"));
        assert!(
            seen.lock().unwrap().is_empty(),
            "plain DEL is not an expiry"
        );
        sim.advance(Duration::from_secs(2));
        assert!(db.evict_if_due(&b("expires")));
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
}
