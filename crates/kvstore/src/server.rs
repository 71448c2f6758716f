//! The store front-end: single-threaded command execution, AOF logging,
//! transit encryption, and the active-expiration driver.
//!
//! Like Redis, commands serialize through one execution context (here, the
//! exclusive side of one readers-writer lock). Under GDPR retrofits this is
//! the property that makes Redis' slowdown so much steeper than
//! PostgreSQL's: every added per-operation cost (cipher, audit append,
//! strict expiry bookkeeping) is paid inside the serial section.
//!
//! Two commands can be answered from the **shared** side instead: a `GET`
//! or `MGET` that changes nothing — no named key is past due, so there is
//! nothing to reap — on a store that has nothing to record about it. They
//! only read the keyspace ([`crate::db::Db::peek`]), so a batched predicate
//! read does not take the store away from the point reads beside it, or
//! from another batch. Everything else keeps the exclusive path, and so do
//! those two whenever answering has a side effect:
//!
//! * a named key is past due — the read reaps it and fires the expiry
//!   listener, which mutates the keyspace;
//! * `log_reads` with an AOF attached — the read appends a frame, and the
//!   log is one ordered stream;
//! * `encrypt_transit` — both channel endpoints advance their nonce
//!   counters per message, which is a write to shared state.

use crate::aof;
use crate::commands::{Command, Reply};
use crate::config::{KvConfig, Storage};
use crate::db::Db;
use crate::error::{KvError, KvResult};
use crate::expire::{CycleStats, ExpirationCycle, CYCLE_PERIOD};
use bytes::Bytes;
use clock::SharedClock;
use crypto::channel::{Direction, Loopback};
use crypto::log::{Log, MemBuffer};
use crypto::Volume;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Inner {
    db: Db,
    cycle: ExpirationCycle,
    aof: Option<Log>,
    transit: Option<Loopback>,
}

/// Operation counters, exposed for INFO-style reporting.
#[derive(Debug, Default)]
pub struct KvStats {
    pub commands: AtomicU64,
    pub writes: AtomicU64,
    pub reads: AtomicU64,
    pub aof_records: AtomicU64,
    pub expired_actively: AtomicU64,
    /// The store's **persistence generation**: write frames in AOF form
    /// (a `SET … EX` counts its rewritten `SET` + `EXPIREAT` pair), counted
    /// whether or not an AOF is attached. Replaying an AOF reproduces the
    /// exact value the live store had when the log was written — see
    /// [`KvStore::mutation_generation`].
    pub mutations: AtomicU64,
}

/// The key-value store.
pub struct KvStore {
    inner: RwLock<Inner>,
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
            .then(|| Loopback::new(&config.cipher_seed));
        let store = Arc::new(KvStore {
            inner: RwLock::new(Inner {
                db: Db::new(clk.clone()),
                cycle: ExpirationCycle::new(config.expiration),
                aof,
                transit,
            }),
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
    /// serial execution, AOF logging, transit encryption of the reply — or,
    /// for a side-effect-free read, [`Self::execute_shared`].
    pub fn execute(&self, cmd: Command) -> KvResult<Reply> {
        if let Some(reply) = self.execute_shared(&cmd) {
            self.stats.commands.fetch_add(1, Ordering::Relaxed);
            self.stats.reads.fetch_add(1, Ordering::Relaxed);
            return reply;
        }
        let mut inner = self.inner.write();
        let inner = &mut *inner;

        // In-transit boundary: the "client" seals the request, the "server"
        // opens it — then the reverse for the reply. The store executes the
        // typed command; the wire trip exists to pay the honest cipher cost
        // and to catch any tampering in tests.
        let transit_error = |e| KvError::Corrupt(format!("transit: {e}"));
        if let Some(transit) = &mut inner.transit {
            let wire = crate::resp::encode_command(&cmd.to_wire());
            transit
                .round_trip(Direction::Request, &wire)
                .map_err(transit_error)?;
        }

        let is_write = cmd.is_write();
        let reply = cmd.execute(&mut inner.db)?;
        if is_write {
            // Counted in AOF-frame units (after execution — the frame count
            // of EXPIRE depends on whether a deadline now exists) so that
            // replaying the log lands on the identical generation.
            self.stats
                .mutations
                .fetch_add(Self::aof_frame_count(&cmd, &inner.db), Ordering::Relaxed);
        }

        if let Some(aof) = &mut inner.aof {
            if is_write || self.config.log_reads {
                let now = self.clock.now().as_nanos();
                for logged in Self::aof_form(&cmd, &inner.db) {
                    aof.append(&crate::resp::encode_command(&logged.to_wire()), now)?;
                }
                self.stats
                    .aof_records
                    .store(aof.frames(), Ordering::Relaxed);
            }
        }

        if let Some(transit) = &mut inner.transit {
            transit
                .round_trip(Direction::Reply, &reply.encode())
                .map_err(transit_error)?;
        }

        self.stats.commands.fetch_add(1, Ordering::Relaxed);
        if is_write {
            self.stats.writes.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.reads.fetch_add(1, Ordering::Relaxed);
        }
        Ok(reply)
    }

    /// Answer `cmd` under the shared lock, if it is a GET / MGET that this
    /// store can serve without side effects (see the module docs). The
    /// clock is read once, whatever the number of keys.
    fn execute_shared(&self, cmd: &Command) -> Option<KvResult<Reply>> {
        if !matches!(cmd, Command::Get { .. } | Command::MGet { .. }) {
            return None;
        }
        let inner = self.inner.read();
        if inner.transit.is_some() || (self.config.log_reads && inner.aof.is_some()) {
            return None;
        }
        cmd.execute_shared(&inner.db, self.clock.now())
    }

    /// Rewrite a command into its replay-safe AOF form. Relative expiries
    /// become absolute deadlines (as Redis rewrites EXPIRE to PEXPIREAT), so
    /// replay at a later time does not resurrect TTLs.
    fn aof_form(cmd: &Command, db: &Db) -> Vec<Command> {
        match cmd {
            Command::Set {
                key,
                value,
                expire: Some(_),
            } => {
                let at = db.expiry_of(key).expect("expiry was just set");
                vec![
                    Command::Set {
                        key: key.clone(),
                        value: value.clone(),
                        expire: None,
                    },
                    Command::ExpireAt {
                        key: key.clone(),
                        at_ms: at.as_millis(),
                    },
                ]
            }
            Command::Expire { key, .. } => match db.expiry_of(key) {
                Some(at) => vec![Command::ExpireAt {
                    key: key.clone(),
                    at_ms: at.as_millis(),
                }],
                // EXPIRE on a missing key mutates nothing; log nothing.
                None => vec![],
            },
            other => vec![other.clone()],
        }
    }

    /// How many AOF frames [`Self::aof_form`] would log for `cmd` —
    /// without building them. Must be evaluated *after* the command
    /// executed (EXPIRE's count depends on the deadline it left behind).
    fn aof_frame_count(cmd: &Command, db: &Db) -> u64 {
        match cmd {
            Command::Set {
                expire: Some(_), ..
            } => 2, // rewritten as SET + EXPIREAT
            Command::Expire { key, .. } => u64::from(db.expiry_of(key).is_some()),
            _ => 1,
        }
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
        if let Some(aof) = &mut self.inner.write().aof {
            aof.sync()?;
        }
        Ok(())
    }

    /// Bytes appended to the AOF so far.
    pub fn aof_bytes(&self) -> u64 {
        self.inner.read().aof.as_ref().map_or(0, Log::bytes)
    }

    /// Handle to the in-memory AOF buffer (memory-backed stores only).
    pub fn aof_memory_buffer(&self) -> Option<MemBuffer> {
        self.inner
            .read()
            .aof
            .as_ref()
            .and_then(|a| a.memory_buffer())
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
                cmd.execute(&mut inner.db)?;
                self.stats
                    .mutations
                    .fetch_add(Self::aof_frame_count(&cmd, &inner.db), Ordering::Relaxed);
            }
        }
        Ok(())
    }

    // ----- convenience wrappers used by connectors and tests -----

    pub fn set(&self, key: &[u8], value: &[u8]) -> KvResult<()> {
        self.execute(Command::Set {
            key: Bytes::copy_from_slice(key),
            value: Bytes::copy_from_slice(value),
            expire: None,
        })
        .map(|_| ())
    }

    pub fn set_ex(&self, key: &[u8], value: &[u8], ttl: Duration) -> KvResult<()> {
        self.execute(Command::Set {
            key: Bytes::copy_from_slice(key),
            value: Bytes::copy_from_slice(value),
            expire: Some(ttl),
        })
        .map(|_| ())
    }

    pub fn get(&self, key: &[u8]) -> KvResult<Option<Bytes>> {
        Ok(self
            .execute(Command::Get {
                key: Bytes::copy_from_slice(key),
            })?
            .as_bulk()
            .cloned())
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

    pub fn exists(&self, key: &[u8]) -> KvResult<bool> {
        Ok(self
            .execute(Command::Exists {
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

    /// The absolute expiry deadline of `key`, if any — millisecond
    /// precision, unlike the seconds-truncating `TTL` command. Connectors
    /// use this to preserve a record's exact deadline across rewrites.
    pub fn expiry_at(&self, key: &[u8]) -> Option<clock::Timestamp> {
        self.inner.read().db.expiry_of(key)
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
        if let Some(aof) = &mut self.inner.get_mut().aof {
            let _ = aof.sync();
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
        let payload = crate::resp::encode_command(&[b("HSET"), b("k"), b("f"), b("v")]);
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

    /// An MGET is one command whichever lock answers it: one reply element
    /// per key in order, one `commands` / `reads` tick — and, under
    /// `log_reads`, one AOF frame naming every key read.
    #[test]
    fn mget_is_one_command_one_frame() {
        for log_reads in [false, true] {
            let config = KvConfig {
                aof: Storage::Memory,
                fsync: FsyncPolicy::Never,
                log_reads,
                ..Default::default()
            };
            let store = KvStore::open(config.clone()).unwrap();
            store.set(b"a", b"1").unwrap();
            store.set(b"c", b"3").unwrap();
            let keys = vec![b("a"), b("b"), b("c")];
            let reply = store.execute(Command::MGet { keys: keys.clone() }).unwrap();
            assert_eq!(
                reply,
                Reply::Array(vec![Reply::Bulk(b("1")), Reply::Nil, Reply::Bulk(b("3"))])
            );
            assert_eq!(store.stats().reads.load(Ordering::Relaxed), 1);
            assert_eq!(store.stats().commands.load(Ordering::Relaxed), 3);
            assert_eq!(store.mutation_generation(), 2, "a read is no mutation");

            let raw = store.aof_memory_buffer().unwrap().lock().clone();
            let frames = aof::decode_log(&raw, None).unwrap();
            if log_reads {
                let mut logged = vec![b("MGET")];
                logged.extend(keys);
                assert_eq!(frames.len(), 3);
                assert_eq!(frames[2], logged, "one frame names every key read");
            } else {
                assert_eq!(frames.len(), 2, "reads are not logged by default");
            }
            let replayed = KvStore::replay(config, &raw, clock::wall()).unwrap();
            assert_eq!(replayed.mutation_generation(), 2);
        }
    }

    /// A past-due key inside an MGET is reaped — the listener fires for it
    /// once — and reads as nil; its neighbours are answered as usual.
    #[test]
    fn mget_reaps_the_past_due_keys_it_names() {
        let sim = clock::sim();
        let store = KvStore::open_with_clock(KvConfig::default(), sim.clone()).unwrap();
        let reaped = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&reaped);
        store.set_expiry_listener(Arc::new(move |key| sink.lock().push(key.to_vec())));
        store.set(b"live", b"1").unwrap();
        store
            .set_ex(b"doomed", b"2", Duration::from_secs(5))
            .unwrap();
        let mget = Command::MGet {
            keys: vec![b("live"), b("doomed")],
        };
        let both = Reply::Array(vec![Reply::Bulk(b("1")), Reply::Bulk(b("2"))]);
        assert_eq!(store.execute(mget.clone()).unwrap(), both);

        sim.advance(Duration::from_secs(5)); // deadline == now is due
        let live_only = Reply::Array(vec![Reply::Bulk(b("1")), Reply::Nil]);
        assert_eq!(store.execute(mget.clone()).unwrap(), live_only);
        assert_eq!(store.dbsize(), 1, "the read destroyed the lapsed key");
        assert_eq!(store.execute(mget).unwrap(), live_only);
        assert_eq!(*reaped.lock(), vec![b"doomed".to_vec()], "reaped once");
        assert_eq!(store.stats().reads.load(Ordering::Relaxed), 3);
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
        assert!(replayed.exists(b"k").unwrap());

        // Replay at t=11s: the absolute deadline has passed.
        sim.advance(Duration::from_secs(6));
        let replayed = KvStore::replay(config, &raw, sim.clone()).unwrap();
        assert!(!replayed.exists(b"k").unwrap());
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
                    assert!(store.exists(key.as_bytes()).unwrap());
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
    /// SET-EX → SET+EXPIREAT rewrite (2 frames) and the EXPIRE-on-missing
    /// no-op (0 frames); a torn tail reopening to a *smaller* value is
    /// `open_resumes_the_file_and_truncates_torn_tails`.
    /// The log is a `log_reads` one holding every command the store
    /// speaks, so no frame a served store can write trips the replay.
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
        store.set_ex(b"b", b"2", Duration::from_secs(60)).unwrap(); // 2 frames
        store.expire(b"ghost", Duration::from_secs(5)).unwrap(); // 0 frames
        store.expire(b"a", Duration::from_secs(5)).unwrap(); // 1 frame
        store.get(b"a").unwrap(); // reads never count
        let mget = Command::MGet {
            keys: vec![b("a"), b("ghost")],
        };
        store.execute(mget).unwrap();
        store.exists(b"a").unwrap();
        let scan = Command::Scan {
            cursor: 0,
            count: 10,
            pattern: Some(b("*")),
        };
        store.execute(scan).unwrap();
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
            "DEL EXISTS EXPIREAT GET MGET SCAN SET ZADD ZRANGEBYSCORE"
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

    #[test]
    fn open_resumes_the_file_and_truncates_torn_tails() {
        let dir = std::env::temp_dir().join(format!("kvpersist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.aof");
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
        let hset = crate::resp::encode_command(&[b("HSET"), b("k"), b("f"), b("v")]);
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
