//! The store front-end: single-threaded command execution, AOF logging,
//! transit encryption, and the active-expiration driver.
//!
//! Like Redis, commands serialize through one execution context (here, the
//! exclusive side of one readers-writer lock over the keyspace). Under GDPR
//! retrofits this is the property that makes Redis' slowdown so much
//! steeper than PostgreSQL's: every added per-write cost (audit append,
//! at-rest seal, strict expiry bookkeeping) is paid inside the serial
//! section.
//!
//! Every [`Command`] that executes runs on that exclusive side: the writes,
//! and `ZRANGEBYSCORE`. A key read never runs as a command — `GET`, `MGET`,
//! `EXISTS` and `SCAN` are log forms the executor refuses. Three readers
//! run on the **shared** side instead, in every configuration, and lend
//! their caller each stored value in place, so a batched predicate read
//! does not take the store away from the point reads beside it, or from
//! another batch:
//!
//! * [`KvStore::read_each`] looks named keys up ([`crate::db::Db::peek`]):
//!   the GDPR connector's batched reads; [`KvStore::read_key`] is its
//!   one-key case ([`KvStore::get`], the connector's point reads);
//! * [`KvStore::read_prefix`] walks the keyspace's slots front to back
//!   ([`crate::db::Db::walk`]) — the connector's broad predicate reads and
//!   its whole-store reads (scan, space report).
//!
//! Only a past-due named key takes the exclusive side, to be reaped (the
//! expiry listener fires); the walk skips it and reaps nothing. Each chunk
//! a reader holds the shared lock for stands for one command — `GET key`,
//! `MGET` of the chunk's keys, or for the walk `MGET` of the keys it
//! returned (none if it returned none). Under `log_reads` its frame is
//! appended before the shared lock is released; under `encrypt_transit`
//! the command and its reply are sealed after. [`KvStore::due_keys`] also
//! reads on the shared side, in one hold: it lists deadlines, not values,
//! and logs and seals nothing.

use crate::aof;
use crate::commands::{Command, Reply, SetDeadline};
use crate::config::{KvConfig, Storage};
use crate::db::{Db, Peek};
use crate::error::{KvError, KvResult};
use crate::expire::{CycleStats, ExpirationCycle, CYCLE_PERIOD};
use crate::resp;
use crate::value::Value;
use bytes::Bytes;
use clock::SharedClock;
use crypto::channel::{Direction, Loopback};
use crypto::log::{Log, MemBuffer};
use crypto::Volume;
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Keys [`KvStore::read_each`] looks up, and slots [`KvStore::read_prefix`]
/// walks, per hold of the shared lock — and so keys per `MGET` a logged or
/// sealed read stands for: the longest the store is held for one batched
/// read, whatever its size.
pub const READ_CHUNK: usize = 512;

/// What the keyspace lock guards.
struct Inner {
    db: Db,
    cycle: ExpirationCycle,
}

/// Operation counters, exposed for INFO-style reporting.
#[derive(Debug, Default)]
pub struct KvStats {
    pub commands: AtomicU64,
    pub writes: AtomicU64,
    pub reads: AtomicU64,
    pub aof_records: AtomicU64,
    pub expired_actively: AtomicU64,
    /// The store's **persistence generation**: write frames in AOF form —
    /// one per write that changed the keyspace — counted whether or not an
    /// AOF is attached. Replaying an AOF reproduces the exact value the
    /// live store had when the log was written — see
    /// [`KvStore::mutation_generation`].
    pub mutations: AtomicU64,
}

/// The key-value store.
///
/// Three locks: `inner` over the keyspace, and one mutex each over the AOF
/// and the transit session. The lock order is keyspace → AOF; the transit
/// mutex is never held together with the keyspace lock. The log keeps one
/// invariant: **a read's frame follows the frame of every write it
/// observed.** A write appends before it releases the exclusive side, and
/// a read appends while it still holds the shared side.
pub struct KvStore {
    inner: RwLock<Inner>,
    aof: Option<Mutex<Log>>,
    transit: Option<Mutex<Loopback>>,
    config: KvConfig,
    clock: SharedClock,
    stats: KvStats,
    shutdown: Arc<AtomicBool>,
    expirer: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl KvStore {
    /// Open a store with the given configuration against the wall clock.
    pub fn open(config: KvConfig) -> KvResult<Arc<Self>> {
        Self::open_with_clock(config, clock::wall())
    }

    /// Open a store against an explicit clock (simulated in experiments).
    ///
    /// Open is resume: a [`Storage::File`] AOF that already holds frames is
    /// replayed (a torn tail dropped and cut from the file, as Redis'
    /// `aof-load-truncated` does) and then appended to, so state survives
    /// process restarts and the replayed commands advance
    /// [`Self::mutation_generation`] exactly as their original execution
    /// did.
    ///
    /// Absolute deadlines replay as written: the clock must have the same
    /// epoch semantics across runs (wall-clock epochs are anchored at
    /// construction, so restart gaps are not counted against TTLs —
    /// retention is measured in *served* time, matching how the
    /// simulated-clock harnesses reason).
    pub fn open_with_clock(config: KvConfig, clk: SharedClock) -> KvResult<Arc<Self>> {
        let (aof, retained) = Log::open(
            &config.aof,
            config.fsync,
            Self::volume(&config),
            clk.now().as_nanos(),
        )?;
        let commands = retained
            .iter()
            .map(|payload| aof::decode(payload))
            .collect::<KvResult<Vec<_>>>()?;
        let transit = config
            .encrypt_transit
            .then(|| Mutex::new(Loopback::new(&config.cipher_seed)));
        let store = Arc::new(KvStore {
            inner: RwLock::new(Inner {
                db: Db::new(clk.clone()),
                cycle: ExpirationCycle::new(config.expiration),
            }),
            aof: aof.map(Mutex::new),
            transit,
            config,
            clock: clk,
            stats: KvStats::default(),
            shutdown: Arc::new(AtomicBool::new(false)),
            expirer: Mutex::new(None),
        });
        store.apply_replayed(commands)?;
        Ok(store)
    }

    fn volume(config: &KvConfig) -> Option<Volume> {
        config
            .encrypt_at_rest
            .then(|| Volume::new(&config.cipher_seed))
    }

    /// The store's configuration.
    pub fn config(&self) -> &KvConfig {
        &self.config
    }

    /// The store's clock.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Operation counters.
    pub fn stats(&self) -> &KvStats {
        &self.stats
    }

    /// Execute one command through the full pipeline: transit decryption,
    /// serial execution, AOF logging, transit encryption of the reply. A
    /// key read is refused ([`Command::execute`]): read through the
    /// readers.
    pub fn execute(&self, cmd: Command) -> KvResult<Reply> {
        // In-transit boundary: the "client" seals the request, the "server"
        // opens it — then the reverse for the reply. The store executes the
        // typed command; the wire trip exists to pay the honest cipher cost
        // and to catch any tampering in tests.
        self.seal(Direction::Request, || resp::encode_command(&cmd.to_wire()))?;

        let is_write = cmd.is_write();
        let reply = {
            let mut inner = self.inner.write();
            let reply = cmd.execute(&mut inner.db)?;
            // Built after execution: what a write logs depends on what it did.
            let logged = if is_write {
                Self::aof_form(&cmd, &reply, &inner.db)
            } else {
                self.config.log_reads.then_some(Cow::Borrowed(&cmd))
            };
            if let Some(logged) = logged {
                // Counted in AOF-frame units so that replaying the log lands
                // on the identical generation.
                if is_write {
                    self.stats.mutations.fetch_add(1, Ordering::Relaxed);
                }
                self.append(&logged)?;
            }
            reply
        };

        self.seal(Direction::Reply, || reply.encode())?;

        self.stats.commands.fetch_add(1, Ordering::Relaxed);
        if is_write {
            self.stats.writes.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.reads.fetch_add(1, Ordering::Relaxed);
        }
        Ok(reply)
    }

    /// Append `cmd`'s frame to the AOF, if one is attached.
    fn append(&self, cmd: &Command) -> KvResult<()> {
        if let Some(aof) = &self.aof {
            let frame = resp::encode_command(&cmd.to_wire());
            let mut aof = aof.lock();
            aof.append(&frame, self.clock.now().as_nanos())?;
            self.stats
                .aof_records
                .store(aof.frames(), Ordering::Relaxed);
        }
        Ok(())
    }

    /// Carry `message()` across the transit session in `direction`, if
    /// transit encryption is on.
    fn seal(&self, direction: Direction, message: impl FnOnce() -> Vec<u8>) -> KvResult<()> {
        if let Some(transit) = &self.transit {
            let message = message();
            transit
                .lock()
                .round_trip(direction, &message)
                .map_err(|e| KvError::Corrupt(format!("transit: {e}")))?;
        }
        Ok(())
    }

    /// One chunk of a shared-side read stands for `cmd`, answered `reply`:
    /// log `cmd` (under `log_reads`) while `held` is still held, release
    /// it, then seal `cmd` and `reply` (under `encrypt_transit`).
    fn log_and_seal(
        &self,
        held: RwLockReadGuard<'_, Inner>,
        cmd: Command,
        reply: Reply,
    ) -> KvResult<()> {
        if self.config.log_reads {
            self.append(&cmd)?;
        }
        drop(held);
        self.seal(Direction::Request, || resp::encode_command(&cmd.to_wire()))?;
        self.seal(Direction::Reply, || reply.encode())
    }

    /// Look up `keys` and show `visit` every value found, **in `keys`
    /// order**, borrowed from the keyspace — the shared-side reader (see
    /// the module docs). Each storage key is written by `storage_key` into
    /// one reused buffer. An absent key is skipped; so is a past-due one,
    /// which is reaped (the expiry listener fires for it once). A value
    /// that is not a string fails the call with `WrongType`.
    ///
    /// Keys are looked up [`READ_CHUNK`] per hold of the shared lock, and
    /// `visit` runs under it: it must not call back into this store. Each
    /// chunk stands for one `MGET` of its keys: the clock is read once per
    /// chunk, the `commands` / `reads` counters tick once per chunk, and
    /// the chunk is logged and sealed as that `MGET` (see the module docs)
    /// — also the chunk whose `visit` stopped the read.
    ///
    /// The outer error is the store's; the inner one is the first error
    /// `visit` returned, which stops the read.
    pub fn read_each<K, E>(
        &self,
        keys: &[K],
        storage_key: impl Fn(&K, &mut Vec<u8>),
        visit: impl FnMut(&Bytes) -> Result<(), E>,
    ) -> KvResult<Result<(), E>> {
        self.read(keys, storage_key, visit, false)
    }

    /// [`Self::read_each`] of one key, which stands for a `GET` rather than
    /// an `MGET`: a point read that lends `visit` the stored value (if the
    /// key holds a live one) instead of copying it out.
    pub fn read_key<E>(
        &self,
        key: &[u8],
        visit: impl FnMut(&Bytes) -> Result<(), E>,
    ) -> KvResult<Result<(), E>> {
        self.read(&[key], |key, buf| buf.extend_from_slice(key), visit, true)
    }

    /// Walk every live string under `prefix` and show `visit` its key and
    /// value, borrowed in place — one pass over the keyspace's slots in
    /// slot order, [`READ_CHUNK`] slots per hold of the shared lock, with
    /// no key named and none looked up. `visit` runs under the lock: it
    /// must not call back into this store.
    ///
    /// What a walk sees while writers run between its chunks is
    /// [`Db::walk`]'s guarantee: a key present for the whole walk is
    /// visited exactly once; a key created during the walk is not visited;
    /// a key deleted and re-created during it is visited at most once.
    /// A past-due key is skipped and **not** reaped. A non-string value
    /// under the prefix fails the walk with `WrongType`.
    ///
    /// The `commands` / `reads` counters tick once per chunk. A chunk that
    /// showed `visit` any key stands for one `MGET` of exactly those keys,
    /// in visit order, and is logged and sealed as that `MGET` (see the
    /// module docs) — what a read naming them would have logged.
    pub fn read_prefix<E>(
        &self,
        prefix: &[u8],
        mut visit: impl FnMut(&Bytes, &Bytes) -> Result<(), E>,
    ) -> KvResult<Result<(), E>> {
        // A logged or sealed chunk keeps the keys (and, sealed, the values)
        // its command names and answers.
        let seals = self.transit.is_some();
        let names = seals || self.config.log_reads;
        let (epoch, end) = {
            let inner = self.inner.read();
            (inner.db.births(), inner.db.slot_count())
        };
        // Slots past `end` were all filled after the walk started.
        for start in (0..end).step_by(READ_CHUNK) {
            let (mut named, mut values) = (Vec::new(), Vec::new());
            let inner = self.inner.read();
            self.stats.commands.fetch_add(1, Ordering::Relaxed);
            self.stats.reads.fetch_add(1, Ordering::Relaxed);
            let range = start..(start + READ_CHUNK).min(end);
            let walked = inner
                .db
                .walk(range, epoch, self.clock.now(), prefix, |key, value| {
                    if names {
                        named.push(key.clone());
                    }
                    if seals {
                        values.push(Reply::Bulk(value.clone()));
                    }
                    visit(key, value)
                });
            if !named.is_empty() {
                let mget = Command::MGet { keys: named };
                self.log_and_seal(inner, mget, Reply::Array(values))?;
            }
            if !matches!(walked, Ok(Ok(()))) {
                return walked;
            }
        }
        Ok(Ok(()))
    }

    /// [`Self::read_each`], whose chunks stand for one `GET` for a `point`
    /// read (of one key) and for one `MGET` each otherwise.
    fn read<K, E>(
        &self,
        keys: &[K],
        storage_key: impl Fn(&K, &mut Vec<u8>),
        mut visit: impl FnMut(&Bytes) -> Result<(), E>,
        point: bool,
    ) -> KvResult<Result<(), E>> {
        let seals = self.transit.is_some();
        let names = seals || self.config.log_reads;
        // Room for any usual storage key at once, not regrown per prefix
        // and key.
        let mut key = Vec::with_capacity(64);
        for chunk in keys.chunks(READ_CHUNK) {
            let (mut named, mut values) = (Vec::new(), Vec::new());
            let mut lend = |value: Option<&Value>| -> KvResult<Result<(), E>> {
                let value = value.map(Value::as_str).transpose()?;
                if seals {
                    values.push(value.map_or(Reply::Nil, |v| Reply::Bulk(v.clone())));
                }
                Ok(value.map_or(Ok(()), &mut visit))
            };
            let mut read = Ok(Ok(()));
            let mut inner = self.inner.read();
            self.stats.commands.fetch_add(1, Ordering::Relaxed);
            self.stats.reads.fetch_add(1, Ordering::Relaxed);
            let now = self.clock.now();
            for k in chunk {
                key.clear();
                storage_key(k, &mut key);
                if names {
                    named.push(Bytes::copy_from_slice(&key));
                }
                // After a stop the chunk's command still names every key.
                if !matches!(read, Ok(Ok(()))) {
                    continue;
                }
                read = match inner.db.peek(&key, now) {
                    Peek::Live(value) => lend(Some(value)),
                    Peek::Absent => lend(None),
                    // Reaping is a write: this key alone goes through the
                    // exclusive side, where `Db::get` reaps it (or finds
                    // the value a writer put there meanwhile).
                    Peek::Due => {
                        drop(inner);
                        let read = lend(self.inner.write().db.get(&key));
                        inner = self.inner.read();
                        read
                    }
                };
            }
            if names {
                let (cmd, reply) = if point {
                    let key = named.swap_remove(0);
                    (Command::Get { key }, values.pop().unwrap_or(Reply::Nil))
                } else {
                    (Command::MGet { keys: named }, Reply::Array(values))
                };
                self.log_and_seal(inner, cmd, reply)?;
            }
            if !matches!(read, Ok(Ok(()))) {
                return read;
            }
        }
        Ok(Ok(()))
    }

    /// The one replay-safe AOF frame a write that just ran with `reply`
    /// logs, or `None` if it changed nothing: an `EXPIRE` of a missing key,
    /// a `SET NX` that found a live occupant. A `SET` is logged as the
    /// unconditional `SET … [PXAT at]` of the deadline its key now holds,
    /// and an `EXPIRE` as `EXPIREAT` (as Redis rewrites relative expiries
    /// to absolute ones), so a replay at a later time, or over a keyspace
    /// its clock sees differently, does not resurrect TTLs.
    fn aof_form<'c>(cmd: &'c Command, reply: &Reply, db: &Db) -> Option<Cow<'c, Command>> {
        let logged = match cmd {
            Command::Set { .. } if *reply == Reply::Nil => return None,
            Command::Set { key, value, .. } => Command::Set {
                key: key.clone(),
                value: value.clone(),
                only_if_absent: false,
                deadline: db
                    .expiry_of(key)
                    .map_or(SetDeadline::Clear, |at| SetDeadline::At(at.as_millis())),
            },
            Command::Expire { key, .. } => Command::ExpireAt {
                key: key.clone(),
                at_ms: db.expiry_of(key)?.as_millis(),
            },
            other => return Some(Cow::Borrowed(other)),
        };
        Some(Cow::Owned(logged))
    }

    /// The persistence generation: total write commands applied, in
    /// AOF-frame units. Two properties make this the stamp that ties an
    /// engine-side index snapshot to this store's state:
    ///
    /// * every committed write advances it — through the engine or behind
    ///   its back, with or without an AOF attached;
    /// * [`Self::replay`] / reopening the file of an AOF leave the
    ///   rebuilt store at exactly the generation the live store had when
    ///   the log was written (a torn tail replays to a *smaller* value —
    ///   visibly stale, never silently equal).
    pub fn mutation_generation(&self) -> u64 {
        self.stats.mutations.load(Ordering::Relaxed)
    }

    /// Run one active-expiration cycle now. Experiment harnesses call this
    /// against a simulated clock; production uses the background driver.
    pub fn run_expiration_cycle(&self) -> CycleStats {
        let mut inner = self.inner.write();
        let inner = &mut *inner;
        let stats = inner.cycle.run_cycle(&mut inner.db);
        self.stats
            .expired_actively
            .fetch_add(stats.reaped as u64, Ordering::Relaxed);
        stats
    }

    /// Start the background expiration driver (one cycle per
    /// [`CYCLE_PERIOD`]), as `serverCron` does in Redis. Idempotent.
    pub fn start_expiration_driver(self: &Arc<Self>) {
        let mut guard = self.expirer.lock();
        if guard.is_some() {
            return;
        }
        // Hold the store weakly: a driver with a strong Arc would keep the
        // store alive forever and the thread spinning after the last user
        // handle is gone.
        let store = Arc::downgrade(self);
        let shutdown = Arc::clone(&self.shutdown);
        *guard = Some(std::thread::spawn(move || {
            while !shutdown.load(Ordering::Relaxed) {
                let Some(store) = store.upgrade() else {
                    break;
                };
                store.run_expiration_cycle();
                let clock = store.clock.clone();
                drop(store); // do not pin the store across the sleep
                clock.sleep(CYCLE_PERIOD);
            }
        }));
    }

    /// Stop the background expiration driver, if running.
    pub fn stop_expiration_driver(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.expirer.lock().take() {
            // The driver can be the caller when it holds the last Arc (its
            // upgrade raced the owner's drop); a thread must not join
            // itself — shutdown is set, so it exits on its next check.
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
        self.shutdown.store(false, Ordering::Relaxed);
    }

    /// Force an AOF flush/fsync.
    pub fn sync_aof(&self) -> KvResult<()> {
        if let Some(aof) = &self.aof {
            aof.lock().sync()?;
        }
        Ok(())
    }

    /// Bytes appended to the AOF so far.
    pub fn aof_bytes(&self) -> u64 {
        self.aof.as_ref().map_or(0, |aof| aof.lock().bytes())
    }

    /// Handle to the in-memory AOF buffer (memory-backed stores only).
    pub fn aof_memory_buffer(&self) -> Option<MemBuffer> {
        self.aof.as_ref().and_then(|aof| aof.lock().memory_buffer())
    }

    /// Replay an AOF byte stream into a fresh store with this configuration.
    /// A torn tail is refused; the restart path that drops one is
    /// [`Self::open_with_clock`] on the file.
    pub fn replay(config: KvConfig, data: &[u8], clk: SharedClock) -> KvResult<Arc<Self>> {
        let commands = aof::decode_log(data, Self::volume(&config).as_ref())?;
        // The rebuilt store neither logs nor seals its transit.
        let config = KvConfig {
            aof: Storage::Disabled,
            encrypt_transit: false,
            ..config
        };
        let store = Self::open_with_clock(config, clk)?;
        store.apply_replayed(commands)?;
        Ok(store)
    }

    /// Apply decoded AOF commands to this (fresh) store, advancing the
    /// persistence generation exactly as the original execution did.
    fn apply_replayed(&self, commands: Vec<Vec<Bytes>>) -> KvResult<()> {
        let mut inner = self.inner.write();
        let inner = &mut *inner;
        for parts in commands {
            // A frame this store cannot parse fails the replay: skipping it
            // would land on a generation the log never had.
            let cmd = Command::from_wire(&parts)?;
            // Read commands may appear in GDPR audit logs; applying them
            // is harmless but pointless, so skip.
            if cmd.is_write() {
                let reply = cmd.execute(&mut inner.db)?;
                if Self::aof_form(&cmd, &reply, &inner.db).is_some() {
                    self.stats.mutations.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(())
    }

    // ----- convenience wrappers used by connectors and tests -----

    pub fn set(&self, key: &[u8], value: &[u8]) -> KvResult<()> {
        self.execute(Command::Set {
            key: Bytes::copy_from_slice(key),
            value: Bytes::copy_from_slice(value),
            only_if_absent: false,
            deadline: SetDeadline::Clear,
        })
        .map(|_| ())
    }

    pub fn set_ex(&self, key: &[u8], value: &[u8], ttl: Duration) -> KvResult<()> {
        self.execute(Command::Set {
            key: Bytes::copy_from_slice(key),
            value: Bytes::copy_from_slice(value),
            only_if_absent: false,
            deadline: SetDeadline::In(ttl),
        })
        .map(|_| ())
    }

    /// A point read through [`Self::read_key`], the value copied out.
    pub fn get(&self, key: &[u8]) -> KvResult<Option<Bytes>> {
        let mut found = None;
        let Ok(()) = self.read_key(key, |value| {
            found = Some(value.clone());
            Ok::<(), std::convert::Infallible>(())
        })?;
        Ok(found)
    }

    pub fn del(&self, key: &[u8]) -> KvResult<bool> {
        Ok(self
            .execute(Command::Del {
                keys: vec![Bytes::copy_from_slice(key)],
            })?
            .as_int()
            .unwrap_or(0)
            > 0)
    }

    pub fn expire(&self, key: &[u8], ttl: Duration) -> KvResult<bool> {
        Ok(self
            .execute(Command::Expire {
                key: Bytes::copy_from_slice(key),
                ttl,
            })?
            .as_int()
            .unwrap_or(0)
            > 0)
    }

    pub fn dbsize(&self) -> usize {
        self.inner.read().db.len()
    }

    /// Number of keys carrying an expiry.
    pub fn expire_set_len(&self) -> usize {
        self.inner.read().db.expire_set_len()
    }

    /// Approximate memory footprint of the keyspace (Table 3 metric).
    pub fn memory_usage(&self) -> usize {
        self.inner.read().db.memory_usage()
    }

    /// The absolute expiry deadline of `key`, if any, read without reaping
    /// it — what the connector's index backfill asks.
    pub fn expiry_at(&self, key: &[u8]) -> Option<clock::Timestamp> {
        self.inner.read().db.expiry_of(key)
    }

    /// The keys under `prefix` whose deadline has passed, in whole
    /// milliseconds (`deadline_ms <= now_ms`, the metadata index's
    /// boundary), listed from the expire-set under one hold of the shared
    /// lock. Nothing is reaped, logged or sealed.
    pub fn due_keys(&self, prefix: &[u8]) -> Vec<Bytes> {
        let now_ms = self.clock.now().as_millis();
        let inner = self.inner.read();
        (inner.db.deadlines())
            .filter(|(key, at)| key.starts_with(prefix) && at.as_millis() <= now_ms)
            .map(|(key, _)| key.clone())
            .collect()
    }

    /// Register the TTL-eviction callback (see [`crate::db::ExpiryListener`]):
    /// invoked for every key the store expires itself, whether lazily on
    /// access or in an active expiration cycle. Called with the command
    /// lock held — the listener must not call back into this store.
    pub fn set_expiry_listener(&self, listener: crate::db::ExpiryListener) {
        self.inner.write().db.set_expiry_listener(listener);
    }
}

impl Drop for KvStore {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.expirer.lock().take() {
            // Drop may run on the driver thread itself (the driver's Arc
            // upgrade can be the last handle); joining oneself deadlocks.
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
        if let Some(aof) = &mut self.aof {
            let _ = aof.get_mut().sync();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FsyncPolicy;
    use crate::expire::ExpirationMode;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    /// One plaintext AOF frame holding `HSET k f v`.
    fn foreign_frame() -> Vec<u8> {
        let payload = resp::encode_command(&[b("HSET"), b("k"), b("f"), b("v")]);
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&payload);
        frame
    }

    #[test]
    fn basic_set_get_through_server() {
        let store = KvStore::open(KvConfig::default()).unwrap();
        store.set(b"k", b"v").unwrap();
        assert_eq!(store.get(b"k").unwrap().unwrap().as_ref(), b"v");
        assert!(store.del(b"k").unwrap());
        assert_eq!(store.get(b"k").unwrap(), None);
    }

    #[test]
    fn stats_count_reads_and_writes() {
        let store = KvStore::open(KvConfig::default()).unwrap();
        store.set(b"k", b"v").unwrap();
        store.get(b"k").unwrap();
        store.get(b"k").unwrap();
        assert_eq!(store.stats().writes.load(Ordering::Relaxed), 1);
        assert_eq!(store.stats().reads.load(Ordering::Relaxed), 2);
        assert_eq!(store.stats().commands.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn transit_encryption_preserves_semantics() {
        let config = KvConfig {
            encrypt_transit: true,
            ..Default::default()
        };
        let store = KvStore::open(config).unwrap();
        store.set(b"k", b"v").unwrap();
        assert_eq!(store.get(b"k").unwrap().unwrap().as_ref(), b"v");
    }

    #[test]
    fn aof_logs_only_writes_by_default() {
        let config = KvConfig {
            aof: Storage::Memory,
            fsync: FsyncPolicy::Never,
            ..Default::default()
        };
        let store = KvStore::open(config).unwrap();
        store.set(b"k", b"v").unwrap();
        store.get(b"k").unwrap();
        store.get(b"k").unwrap();
        let buf = store.aof_memory_buffer().unwrap();
        let commands = aof::decode_log(&buf.lock(), None).unwrap();
        assert_eq!(commands.len(), 1, "reads must not be logged by default");
    }

    #[test]
    fn gdpr_mode_logs_reads_too() {
        let config = KvConfig {
            aof: Storage::Memory,
            fsync: FsyncPolicy::Never,
            log_reads: true,
            ..Default::default()
        };
        let store = KvStore::open(config).unwrap();
        store.set(b"k", b"v").unwrap();
        store.get(b"k").unwrap();
        store.get(b"missing").unwrap();
        let buf = store.aof_memory_buffer().unwrap();
        let commands = aof::decode_log(&buf.lock(), None).unwrap();
        assert_eq!(commands.len(), 3, "GDPR audit must log reads and misses");
    }

    /// Every value `read_each` shows, as owned strings, in visit order.
    fn read_all(store: &KvStore, keys: &[&str]) -> KvResult<Vec<String>> {
        let mut seen = Vec::new();
        let copy = |key: &&str, buf: &mut Vec<u8>| buf.extend_from_slice(key.as_bytes());
        let Ok(()) = store.read_each(keys, copy, |value| {
            seen.push(String::from_utf8(value.to_vec()).unwrap());
            Ok::<_, std::convert::Infallible>(())
        })?;
        Ok(seen)
    }

    #[test]
    fn read_each_visits_values_in_key_order_and_skips_absent_keys() {
        let store = KvStore::open(KvConfig::default()).unwrap();
        for key in ["a", "b", "c", "d"] {
            store
                .set(key.as_bytes(), key.to_uppercase().as_bytes())
                .unwrap();
        }
        let seen = read_all(&store, &["d", "ghost", "a", "c", "zz"]).unwrap();
        assert_eq!(seen, ["D", "A", "C"]);
        assert!(read_all(&store, &[]).unwrap().is_empty());

        // The storage key is built per key into one buffer: a prefix works.
        let mut seen = Vec::new();
        store.set(b"rec:x", b"X").unwrap();
        let prefixed = |key: &&str, buf: &mut Vec<u8>| {
            buf.extend_from_slice(b"rec:");
            buf.extend_from_slice(key.as_bytes());
        };
        let Ok(()) = store
            .read_each(&["x", "a"], prefixed, |value| {
                seen.push(value.clone());
                Ok::<_, std::convert::Infallible>(())
            })
            .unwrap();
        assert_eq!(seen, [b("X")]);
    }

    /// A past-due key in mid-chunk is reaped through the exclusive side —
    /// once, with one listener call — and the keys after it, in the same
    /// chunk and in the next, are still visited.
    #[test]
    fn read_each_reaps_a_past_due_key_once_and_reads_on() {
        let sim = clock::sim();
        let store = KvStore::open_with_clock(KvConfig::default(), sim.clone()).unwrap();
        let reaped = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&reaped);
        store.set_expiry_listener(Arc::new(move |key| sink.lock().push(key.to_vec())));
        let keys: Vec<String> = (0..READ_CHUNK + 10).map(|i| format!("k{i:04}")).collect();
        for key in &keys {
            store.set(key.as_bytes(), key.as_bytes()).unwrap();
        }
        let doomed = &keys[100];
        store
            .set_ex(doomed.as_bytes(), b"lapsing", Duration::from_secs(5))
            .unwrap();
        sim.advance(Duration::from_secs(5)); // deadline == now is due

        let named: Vec<&str> = keys.iter().map(String::as_str).collect();
        let live: Vec<&str> = named.iter().copied().filter(|k| k != doomed).collect();
        assert_eq!(read_all(&store, &named).unwrap(), live);
        assert_eq!(*reaped.lock(), vec![doomed.as_bytes().to_vec()]);
        assert_eq!(store.dbsize(), keys.len() - 1);
        assert_eq!(read_all(&store, &named).unwrap(), live);
        assert_eq!(reaped.lock().len(), 1, "reaped once");
    }

    #[test]
    fn read_each_fails_on_a_value_that_is_not_a_string() {
        let store = KvStore::open(KvConfig::default()).unwrap();
        store.set(b"s", b"v").unwrap();
        store
            .execute(Command::ZAdd {
                key: b("z"),
                entries: vec![(1.0, b("m"))],
            })
            .unwrap();
        assert_eq!(read_all(&store, &["s", "z"]), Err(KvError::WrongType));
        assert_eq!(store.get(b"z"), Err(KvError::WrongType));
    }

    /// `read_each` counts, and under `log_reads` logs, exactly the commands
    /// it stands for: one `MGET` per chunk of at most [`READ_CHUNK`] keys,
    /// one `GET` per point read — and the log replays to the live
    /// generation.
    #[test]
    fn read_each_counts_and_logs_as_the_commands_it_replaces() {
        for log_reads in [false, true] {
            let config = KvConfig {
                aof: Storage::Memory,
                fsync: FsyncPolicy::Never,
                log_reads,
                ..Default::default()
            };
            let store = KvStore::open(config.clone()).unwrap();
            let keys: Vec<String> = (0..READ_CHUNK + 3).map(|i| format!("k{i}")).collect();
            for key in keys.iter().step_by(2) {
                store.set(key.as_bytes(), b"v").unwrap();
            }
            let writes = keys.len().div_ceil(2) as u64;
            let named: Vec<&str> = keys.iter().map(String::as_str).collect();
            assert_eq!(read_all(&store, &named).unwrap().len() as u64, writes);
            assert!(store.get(b"k0").unwrap().is_some());
            assert_eq!(store.stats().reads.load(Ordering::Relaxed), 3);
            assert_eq!(store.stats().commands.load(Ordering::Relaxed), writes + 3);

            let raw = store.aof_memory_buffer().unwrap().lock().clone();
            let frames = aof::decode_log(&raw, None).unwrap();
            let reads: Vec<(Bytes, usize)> = frames[writes as usize..]
                .iter()
                .map(|parts| (parts[0].clone(), parts.len() - 1))
                .collect();
            if log_reads {
                let want = [(b("MGET"), READ_CHUNK), (b("MGET"), 3), (b("GET"), 1)];
                assert_eq!(reads, want);
                let mut first = vec![b("MGET")];
                first.extend(named[..READ_CHUNK].iter().map(|k| b(k)));
                assert_eq!(frames[writes as usize], first, "every key named, in order");
            } else {
                assert!(reads.is_empty(), "reads are not logged by default");
            }
            let replayed = KvStore::replay(config, &raw, clock::wall()).unwrap();
            assert_eq!(replayed.mutation_generation(), store.mutation_generation());
        }
    }

    /// With transit sealing on, a read still runs on the shared side and
    /// seals the command it stands for: the values come back all the same.
    #[test]
    fn read_each_under_transit_encryption_reads_on_the_shared_side() {
        let config = KvConfig {
            encrypt_transit: true,
            ..Default::default()
        };
        let store = KvStore::open(config).unwrap();
        store.set(b"a", b"1").unwrap();
        store.set(b"b", b"2").unwrap();
        assert_eq!(read_all(&store, &["b", "ghost", "a"]).unwrap(), ["2", "1"]);
        assert_eq!(store.stats().reads.load(Ordering::Relaxed), 1);
    }

    /// Every key `read_prefix` shows, as owned strings, in visit order.
    fn walk_all(store: &KvStore, prefix: &str) -> KvResult<Vec<String>> {
        let mut seen = Vec::new();
        let Ok(()) = store.read_prefix(prefix.as_bytes(), |key, _| {
            seen.push(String::from_utf8(key.to_vec()).unwrap());
            Ok::<_, std::convert::Infallible>(())
        })?;
        Ok(seen)
    }

    /// The walk visits every live key under the prefix once, across chunk
    /// boundaries, ticks the counters once per chunk, and neither reaps a
    /// past-due key nor logs anything.
    #[test]
    fn read_prefix_walks_every_live_key_under_the_prefix_once() {
        let sim = clock::sim();
        let config = KvConfig {
            aof: Storage::Memory,
            fsync: FsyncPolicy::Never,
            ..Default::default()
        };
        let store = KvStore::open_with_clock(config, sim.clone()).unwrap();
        let keys: Vec<String> = (0..READ_CHUNK + 10)
            .map(|i| format!("rec:{i:04}"))
            .collect();
        for key in &keys {
            store.set(key.as_bytes(), b"v").unwrap();
            store.set(format!("other:{key}").as_bytes(), b"v").unwrap();
        }
        store
            .set_ex(keys[7].as_bytes(), b"lapsing", Duration::from_secs(5))
            .unwrap();
        sim.advance(Duration::from_secs(5));
        let frames = store.aof_memory_buffer().unwrap().lock().len();
        let reads = store.stats().reads.load(Ordering::Relaxed);

        let mut want = keys.clone();
        want.remove(7);
        assert_eq!(walk_all(&store, "rec:").unwrap(), want);
        let chunks = (2 * keys.len()).div_ceil(READ_CHUNK) as u64;
        assert_eq!(store.stats().reads.load(Ordering::Relaxed), reads + chunks);
        assert_eq!(store.dbsize(), 2 * keys.len(), "nothing reaped");
        assert_eq!(store.aof_memory_buffer().unwrap().lock().len(), frames);
    }

    /// Where reads are logged, sealed or both, the walk returns what the
    /// stock store's walk returns, and logs one `MGET` per chunk that
    /// returned any key, naming exactly the keys it returned, in order:
    /// the first chunk holds no `rec:` key and logs nothing. The log
    /// replays to the live generation.
    #[test]
    fn read_prefix_walks_and_logs_where_reads_are_logged_or_sealed() {
        let load = |config: KvConfig| {
            let sim = clock::sim();
            let store = KvStore::open_with_clock(config, sim.clone()).unwrap();
            for i in 0..READ_CHUNK {
                store.set(format!("other:{i}").as_bytes(), b"v").unwrap();
            }
            for i in 0..READ_CHUNK + 10 {
                store.set(format!("rec:{i:04}").as_bytes(), b"v").unwrap();
            }
            store
                .set_ex(b"rec:0007", b"lapsing", Duration::from_secs(5))
                .unwrap();
            sim.advance(Duration::from_secs(5));
            store
        };
        let want = walk_all(&load(KvConfig::default()), "rec:").unwrap();
        assert_eq!(want.len(), READ_CHUNK + 9);
        // Slots fill in write order: the second chunk returns the first
        // 512 `rec:` keys but the lapsed one, the third the last ten.
        let mget = |keys: &[String]| {
            let mut frame = vec![b("MGET")];
            frame.extend(keys.iter().map(|k| b(k)));
            frame
        };
        let logged_reads = [mget(&want[..READ_CHUNK - 1]), mget(&want[READ_CHUNK - 1..])];

        for (log_reads, encrypt_transit) in [(true, false), (false, true), (true, true)] {
            let config = KvConfig {
                aof: Storage::Memory,
                fsync: FsyncPolicy::Never,
                log_reads,
                encrypt_transit,
                ..Default::default()
            };
            let store = load(config.clone());
            let writes = frames(&store).len();
            assert_eq!(walk_all(&store, "rec:").unwrap(), want);
            let frames = frames(&store);
            let reads = &frames[writes..];
            if log_reads {
                assert_eq!(reads, logged_reads, "transit {encrypt_transit}");
            } else {
                assert!(reads.is_empty(), "reads are not logged");
            }
            let raw = store.aof_memory_buffer().unwrap().lock().clone();
            let replayed = KvStore::replay(config, &raw, clock::wall()).unwrap();
            assert_eq!(replayed.mutation_generation(), store.mutation_generation());
        }
    }

    /// A read's frame follows the frames of the writes it saw: a reader
    /// races a writer that rewrites the same keys with rising values, and
    /// replaying the log frame by frame, every `MGET` frame finds its
    /// keys holding exactly the values that read returned.
    #[test]
    fn a_logged_read_frame_follows_the_writes_it_observed() {
        let config = KvConfig {
            aof: Storage::Memory,
            fsync: FsyncPolicy::Never,
            log_reads: true,
            ..Default::default()
        };
        let store = KvStore::open(config).unwrap();
        let keys = ["a", "b", "c", "d"];
        for key in keys {
            store.set(key.as_bytes(), b"0").unwrap();
        }
        let writer = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for round in 1..=2_000 {
                    for key in keys {
                        store
                            .set(key.as_bytes(), round.to_string().as_bytes())
                            .unwrap();
                    }
                }
            })
        };
        let mut returned = Vec::new();
        while !writer.is_finished() {
            returned.push(read_all(&store, &keys).unwrap());
        }
        writer.join().unwrap();
        let seen: std::collections::HashSet<_> = returned.iter().collect();
        assert!(seen.len() > 1, "the reads saw the writes move");

        let mut model = std::collections::HashMap::new();
        let mut reads = returned.iter();
        for frame in frames(&store) {
            match &frame[0][..] {
                b"SET" => {
                    model.insert(frame[1].clone(), frame[2].clone());
                }
                b"MGET" => {
                    let read = reads.next().expect("one frame per read");
                    let held: Vec<String> = frame[1..]
                        .iter()
                        .map(|key| String::from_utf8(model[key].to_vec()).unwrap())
                        .collect();
                    assert_eq!(&held, read);
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert!(reads.next().is_none(), "every read logged");
    }

    /// The walk stops at the first error `visit` returns.
    #[test]
    fn read_prefix_stops_at_the_visitors_error() {
        let store = KvStore::open(KvConfig::default()).unwrap();
        for key in ["a", "b", "c"] {
            store.set(key.as_bytes(), b"v").unwrap();
        }
        let mut visited = 0;
        let walked = store.read_prefix(b"", |_, _| {
            visited += 1;
            if visited == 2 {
                Err("stop")
            } else {
                Ok(())
            }
        });
        assert_eq!(walked, Ok(Err("stop")));
        assert_eq!(visited, 2);
    }

    #[test]
    fn replay_reconstructs_state() {
        let config = KvConfig {
            aof: Storage::Memory,
            fsync: FsyncPolicy::Never,
            ..Default::default()
        };
        let store = KvStore::open(config.clone()).unwrap();
        store.set(b"a", b"1").unwrap();
        store.set(b"b", b"2").unwrap();
        store.del(b"a").unwrap();
        store
            .execute(Command::ZAdd {
                key: b("z"),
                entries: vec![(1.0, b("m"))],
            })
            .unwrap();
        let mut raw = store.aof_memory_buffer().unwrap().lock().clone();

        let replayed = KvStore::replay(config.clone(), &raw, clock::wall()).unwrap();
        assert_eq!(replayed.get(b"a").unwrap(), None);
        assert_eq!(replayed.get(b"b").unwrap().unwrap().as_ref(), b"2");
        assert_eq!(
            replayed
                .execute(Command::ZRangeByScore {
                    key: b("z"),
                    min: 0.0,
                    max: 2.0,
                    limit: None
                })
                .unwrap(),
            Reply::Array(vec![Reply::Bulk(b("m"))])
        );

        // A well-framed command this store does not speak fails the replay
        // — it is never skipped.
        raw.extend_from_slice(&foreign_frame());
        assert_eq!(
            KvStore::replay(config, &raw, clock::wall()).err(),
            Some(KvError::Syntax("unknown command HSET".into()))
        );
    }

    #[test]
    fn expiry_survives_replay_as_absolute_deadline() {
        let sim = clock::sim();
        let config = KvConfig {
            aof: Storage::Memory,
            fsync: FsyncPolicy::Never,
            ..Default::default()
        };
        let store = KvStore::open_with_clock(config.clone(), sim.clone()).unwrap();
        store.set_ex(b"k", b"v", Duration::from_secs(10)).unwrap();
        let raw = store.aof_memory_buffer().unwrap().lock().clone();

        // Replay at t=5s: key still has ~5s to live.
        sim.advance(Duration::from_secs(5));
        let replayed = KvStore::replay(config.clone(), &raw, sim.clone()).unwrap();
        assert!(replayed.get(b"k").unwrap().is_some());

        // Replay at t=11s: the absolute deadline has passed.
        sim.advance(Duration::from_secs(6));
        let replayed = KvStore::replay(config, &raw, sim.clone()).unwrap();
        assert_eq!(replayed.get(b"k").unwrap(), None);
    }

    #[test]
    fn strict_expiration_cycle_via_server() {
        let sim = clock::sim();
        let config = KvConfig {
            expiration: ExpirationMode::Strict,
            ..Default::default()
        };
        let store = KvStore::open_with_clock(config, sim.clone()).unwrap();
        for i in 0..100 {
            store
                .set_ex(format!("k{i}").as_bytes(), b"v", Duration::from_secs(1))
                .unwrap();
        }
        sim.advance(Duration::from_secs(2));
        let stats = store.run_expiration_cycle();
        assert_eq!(stats.reaped, 100);
        assert_eq!(store.dbsize(), 0);
    }

    #[test]
    fn background_driver_reaps_with_wall_clock() {
        let config = KvConfig {
            expiration: ExpirationMode::Strict,
            ..Default::default()
        };
        let store = KvStore::open(config).unwrap();
        for i in 0..50 {
            store
                .set_ex(format!("k{i}").as_bytes(), b"v", Duration::from_millis(50))
                .unwrap();
        }
        store.start_expiration_driver();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while store.dbsize() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        store.stop_expiration_driver();
        assert_eq!(store.dbsize(), 0, "driver should have reaped all keys");
    }

    #[test]
    fn concurrent_clients_serialize_correctly() {
        let store = KvStore::open(KvConfig::default()).unwrap();
        let mut handles = vec![];
        for t in 0..8 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let key = format!("t{t}:k{i}");
                    store.set(key.as_bytes(), b"v").unwrap();
                    assert!(store.get(key.as_bytes()).unwrap().is_some());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.dbsize(), 8 * 200);
    }

    /// The persistence generation is replay-stable: rebuilding from the
    /// AOF lands on the exact value the live store had — including the
    /// SET-EX → SET-PXAT rewrite (1 frame), the EXPIRE-on-missing and
    /// colliding SET-NX no-ops (0 frames); a torn tail reopening to a
    /// *smaller* value is `open_resumes_the_file_and_truncates_torn_tails`.
    /// The log is a `log_reads` one holding every frame a store can write
    /// now, so none trips the replay.
    #[test]
    fn mutation_generation_matches_across_replay() {
        let config = KvConfig {
            aof: Storage::Memory,
            fsync: FsyncPolicy::Never,
            log_reads: true,
            ..Default::default()
        };
        let store = KvStore::open(config.clone()).unwrap();
        store.set(b"a", b"1").unwrap(); // 1 frame
        store.set_ex(b"b", b"2", Duration::from_secs(60)).unwrap(); // 1 frame
        store.expire(b"ghost", Duration::from_secs(5)).unwrap(); // 0 frames
        store.expire(b"a", Duration::from_secs(5)).unwrap(); // 1 frame
        let collide = Command::Set {
            key: b("b"),
            value: b("3"),
            only_if_absent: true,
            deadline: SetDeadline::At(9),
        };
        assert_eq!(store.execute(collide).unwrap(), Reply::Nil); // 0 frames
        let keep = Command::Set {
            key: b("b"),
            value: b("4"),
            only_if_absent: false,
            deadline: SetDeadline::Keep,
        };
        store.execute(keep).unwrap(); // 1 frame
        store.get(b"a").unwrap(); // reads never count
        assert_eq!(read_all(&store, &["a", "ghost"]).unwrap(), ["1"]);
        assert_eq!(walk_all(&store, "").unwrap(), ["a", "b"]);
        let zadd = Command::ZAdd {
            key: b("z"),
            entries: vec![(1.0, b("m"))],
        };
        store.execute(zadd).unwrap(); // 1 frame
        let zrange = Command::ZRangeByScore {
            key: b("z"),
            min: 0.0,
            max: 1.0,
            limit: Some(1),
        };
        store.execute(zrange).unwrap();
        store.del(b"a").unwrap(); // 1 frame
        assert_eq!(store.mutation_generation(), 6);

        let raw = store.aof_memory_buffer().unwrap().lock().clone();
        let mut logged: Vec<String> = aof::decode_log(&raw, None)
            .unwrap()
            .iter()
            .map(|parts| String::from_utf8_lossy(&parts[0]).into_owned())
            .collect();
        logged.sort();
        logged.dedup();
        // EXPIRE itself never reaches the log: it is written as EXPIREAT.
        assert_eq!(
            logged.join(" "),
            "DEL EXPIREAT GET MGET SET ZADD ZRANGEBYSCORE"
        );
        let replayed = KvStore::replay(config, &raw, clock::wall()).unwrap();
        assert_eq!(
            replayed.mutation_generation(),
            6,
            "replay lands on the live value"
        );

        // A write behind any engine still advances the generation, even
        // on a store with no AOF at all.
        let plain = KvStore::open(KvConfig::default()).unwrap();
        plain.set(b"x", b"y").unwrap();
        assert_eq!(plain.mutation_generation(), 1);
    }

    /// `GET`, `MGET`, `EXISTS` and `SCAN` are log forms: `execute` refuses
    /// each, naming the reader to use, and leaves the keyspace — a past-due
    /// key is not reaped —, the counters, the generation and the AOF as
    /// they were.
    #[test]
    fn execute_refuses_every_read_form() {
        let sim = clock::sim();
        let config = KvConfig {
            aof: Storage::Memory,
            fsync: FsyncPolicy::Never,
            log_reads: true,
            ..Default::default()
        };
        let store = KvStore::open_with_clock(config, sim.clone()).unwrap();
        store.set(b"a", b"1").unwrap();
        store.set_ex(b"due", b"2", Duration::from_secs(5)).unwrap();
        sim.advance(Duration::from_secs(5));
        let aof = store.aof_memory_buffer().unwrap().lock().clone();
        let commands = store.stats().commands.load(Ordering::Relaxed);
        let reads = [
            (Command::Get { key: b("due") }, "read_key"),
            (
                Command::MGet {
                    keys: vec![b("a"), b("due")],
                },
                "read_each",
            ),
            (
                Command::Exists {
                    keys: vec![b("due")],
                },
                "read_each",
            ),
            (
                Command::Scan {
                    cursor: 0,
                    count: 10,
                    pattern: Some(b("*")),
                },
                "read_prefix",
            ),
        ];
        for (read, reader) in reads {
            let name = read.name();
            match store.execute(read) {
                Err(KvError::Syntax(msg)) => assert!(msg.contains(reader), "{name}: {msg}"),
                other => panic!("{name} executed: {other:?}"),
            }
        }
        assert_eq!(store.dbsize(), 2, "the past-due key is not reaped");
        assert_eq!(store.stats().commands.load(Ordering::Relaxed), commands);
        assert_eq!(store.mutation_generation(), 2);
        assert_eq!(*store.aof_memory_buffer().unwrap().lock(), aof);
        assert_eq!(store.get(b"a").unwrap(), Some(b("1")));
    }

    /// The due-key listing reads the expire-set at the millisecond
    /// boundary, keeps to its prefix, and reaps and logs nothing.
    #[test]
    fn due_keys_lists_the_due_keys_under_a_prefix_without_reaping() {
        let sim = clock::sim();
        let config = KvConfig {
            aof: Storage::Memory,
            fsync: FsyncPolicy::Never,
            log_reads: true,
            ..Default::default()
        };
        let store = KvStore::open_with_clock(config, sim.clone()).unwrap();
        sim.advance(Duration::from_micros(400));
        let at = SetDeadline::At;
        for (key, deadline) in [
            ("rec:early", at(4_000)),
            ("rec:edge", SetDeadline::In(Duration::from_secs(5))),
            ("rec:late", at(5_001)),
            ("rec:none", SetDeadline::Clear),
            ("other:early", at(4_000)),
        ] {
            store.execute(set(key, "v", false, deadline)).unwrap();
        }
        // At 5 000 ms, `rec:edge` (deadline 5 000.4 ms) is due in whole
        // milliseconds, as the metadata index counts it.
        sim.advance(Duration::from_micros(4_999_600));
        let frames_before = frames(&store).len();
        let mut due = store.due_keys(b"rec:");
        due.sort();
        assert_eq!(due, [b("rec:early"), b("rec:edge")]);
        assert_eq!(store.due_keys(b"").len(), 3);
        assert_eq!(store.dbsize(), 5, "nothing reaped");
        assert_eq!(frames(&store).len(), frames_before, "nothing logged");
    }

    #[test]
    fn open_resumes_the_file_and_truncates_torn_tails() {
        let path = std::env::temp_dir().join(format!("kvpersist-{}-store.aof", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let config = KvConfig {
            aof: Storage::File(path.clone()),
            fsync: FsyncPolicy::Always,
            encrypt_at_rest: true,
            ..Default::default()
        };

        {
            let store = KvStore::open(config.clone()).unwrap();
            assert_eq!(store.mutation_generation(), 0, "fresh file, fresh store");
            store.set(b"a", b"1").unwrap();
            store.set(b"b", b"2").unwrap();
            store.del(b"a").unwrap();
            store.sync_aof().unwrap();
        }
        // Restart: state and generation come back; appends keep working
        // (the encrypted frame sequence must continue, not restart at 0).
        {
            let store = KvStore::open(config.clone()).unwrap();
            assert_eq!(store.get(b"a").unwrap(), None);
            assert_eq!(store.get(b"b").unwrap().unwrap().as_ref(), b"2");
            assert_eq!(store.mutation_generation(), 3);
            store.set(b"c", b"3").unwrap();
            store.sync_aof().unwrap();
        }
        {
            let store = KvStore::open(config.clone()).unwrap();
            assert_eq!(store.get(b"c").unwrap().unwrap().as_ref(), b"3");
            assert_eq!(store.mutation_generation(), 4);
        }

        // Crash mid-append: tear the file; reopen drops the tail, truncates
        // it away, and appends cleanly after the retained prefix.
        let intact = std::fs::read(&path).unwrap();
        std::fs::write(&path, &intact[..intact.len() - 3]).unwrap();
        {
            let store = KvStore::open(config.clone()).unwrap();
            assert_eq!(store.mutation_generation(), 3, "torn SET c dropped");
            store.set(b"d", b"4").unwrap();
            store.sync_aof().unwrap();
        }
        {
            let store = KvStore::open(config.clone()).unwrap();
            assert_eq!(store.get(b"d").unwrap().unwrap().as_ref(), b"4");
            assert_eq!(store.get(b"b").unwrap().unwrap().as_ref(), b"2");
            assert_eq!(store.mutation_generation(), 4);
        }

        // A sealed, intact fifth frame holding a command this store does
        // not speak: reopening fails loudly and leaves the file alone.
        let before = std::fs::read(&path).unwrap();
        let (writer, retained) = Log::open(
            &config.aof,
            FsyncPolicy::Always,
            KvStore::volume(&config),
            0,
        )
        .unwrap();
        assert_eq!(retained.len(), 4);
        let hset = resp::encode_command(&[b("HSET"), b("k"), b("f"), b("v")]);
        writer.unwrap().append(&hset, 0).unwrap();
        let with_foreign = std::fs::read(&path).unwrap();
        assert!(with_foreign.len() > before.len());
        assert_eq!(
            KvStore::open(config).err(),
            Some(KvError::Syntax("unknown command HSET".into()))
        );
        assert_eq!(std::fs::read(&path).unwrap(), with_foreign);
        std::fs::remove_file(&path).unwrap();
    }

    /// The frames a memory-AOF store has logged, as wire parts.
    fn frames(store: &KvStore) -> Vec<Vec<Bytes>> {
        aof::decode_log(&store.aof_memory_buffer().unwrap().lock(), None).unwrap()
    }

    fn set(key: &str, value: &str, only_if_absent: bool, deadline: SetDeadline) -> Command {
        Command::Set {
            key: b(key),
            value: b(value),
            only_if_absent,
            deadline,
        }
    }

    /// A TTL-carrying `SET`, conditional or not, is one AOF frame: the
    /// unconditional `SET … PXAT` of the deadline it set.
    #[test]
    fn a_ttl_carrying_set_is_one_pxat_frame() {
        let sim = clock::sim();
        let config = KvConfig {
            aof: Storage::Memory,
            fsync: FsyncPolicy::Never,
            ..Default::default()
        };
        let store = KvStore::open_with_clock(config, sim.clone()).unwrap();
        sim.advance(Duration::from_millis(1_234));
        let ttl = SetDeadline::In(Duration::from_secs(60));
        assert_eq!(store.execute(set("k", "v", true, ttl)).unwrap(), Reply::Ok);
        assert_eq!(store.execute(set("j", "w", false, ttl)).unwrap(), Reply::Ok);
        let pxat =
            |key: &str, value: &str| [b("SET"), b(key), b(value), b("PXAT"), b("61234")].to_vec();
        assert_eq!(frames(&store), [pxat("k", "v"), pxat("j", "w")]);
        assert_eq!(store.mutation_generation(), 2);
        assert_eq!(
            store.expiry_at(b"k"),
            Some(clock::Timestamp::from_millis(61_234))
        );
    }

    /// `SET NX` over a live occupant answers nil and changes nothing: not
    /// the value, not the deadline, not the log, not the generation.
    #[test]
    fn set_nx_leaves_a_live_occupant_alone() {
        let config = KvConfig {
            aof: Storage::Memory,
            fsync: FsyncPolicy::Never,
            ..Default::default()
        };
        let store = KvStore::open(config).unwrap();
        store
            .execute(set("k", "first", true, SetDeadline::At(u64::MAX / 4)))
            .unwrap();
        let (deadline, generation) = (store.expiry_at(b"k"), store.mutation_generation());
        for deadline in [SetDeadline::Clear, SetDeadline::Keep, SetDeadline::At(5)] {
            let reply = store.execute(set("k", "second", true, deadline)).unwrap();
            assert_eq!(reply, Reply::Nil);
        }
        assert_eq!(store.get(b"k").unwrap(), Some(b("first")));
        assert_eq!(store.expiry_at(b"k"), deadline);
        assert_eq!(store.mutation_generation(), generation);
        assert_eq!(frames(&store).len(), 1);
        assert_eq!(store.stats().writes.load(Ordering::Relaxed), 4);
    }

    /// `SET NX` over a past-due occupant reaps it — the listener fires
    /// once — and then sets the key.
    #[test]
    fn set_nx_reaps_a_due_occupant_then_sets() {
        let sim = clock::sim();
        let store = KvStore::open_with_clock(KvConfig::default(), sim.clone()).unwrap();
        let reaped = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&reaped);
        store.set_expiry_listener(Arc::new(move |key| sink.lock().push(key.to_vec())));
        store.set_ex(b"k", b"old", Duration::from_secs(5)).unwrap();
        sim.advance(Duration::from_secs(5)); // deadline == now is due
        let reply = store.execute(set("k", "new", true, SetDeadline::Clear));
        assert_eq!(reply.unwrap(), Reply::Ok);
        assert_eq!(*reaped.lock(), vec![b"k".to_vec()]);
        assert_eq!(store.get(b"k").unwrap(), Some(b("new")));
        assert_eq!(store.expiry_at(b"k"), None);
        assert_eq!(reaped.lock().len(), 1, "reaped once");
        assert_eq!(store.mutation_generation(), 2);
    }

    /// `KEEPTTL` keeps the exact millisecond deadline; on a missing key it
    /// creates one with no deadline.
    #[test]
    fn keepttl_keeps_the_exact_deadline_and_creates_without_one() {
        let store = KvStore::open_with_clock(KvConfig::default(), clock::sim()).unwrap();
        store
            .execute(set("k", "v1", false, SetDeadline::At(987_654)))
            .unwrap();
        store
            .execute(set("k", "v2", false, SetDeadline::Keep))
            .unwrap();
        assert_eq!(store.get(b"k").unwrap(), Some(b("v2")));
        assert_eq!(
            store.expiry_at(b"k"),
            Some(clock::Timestamp::from_millis(987_654))
        );
        assert_eq!(store.expire_set_len(), 1);

        store
            .execute(set("fresh", "v", false, SetDeadline::Keep))
            .unwrap();
        assert_eq!(store.get(b"fresh").unwrap(), Some(b("v")));
        assert_eq!(store.expiry_at(b"fresh"), None);
        assert_eq!(store.expire_set_len(), 1);
    }

    #[test]
    fn expire_on_missing_key_logs_nothing() {
        let config = KvConfig {
            aof: Storage::Memory,
            fsync: FsyncPolicy::Never,
            ..Default::default()
        };
        let store = KvStore::open(config).unwrap();
        store.expire(b"ghost", Duration::from_secs(5)).unwrap();
        let buf = store.aof_memory_buffer().unwrap();
        assert!(aof::decode_log(&buf.lock(), None).unwrap().is_empty());
    }
}
